import argparse
import json
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import latdual as ld
from latdual.cli import COMMANDS, _parser, _plain_args, main
from latdual.enumeration import MAX_LATTICE_N
from latdual.fixtures import m_k
from latdual.lattice import lattice_from_json, lattice_to_json
from latdual.digraph import digraph_to_json


def lattice_file(tmp_path, name, stem="lat"):
    p = tmp_path / f"{stem}.json"
    p.write_text(json.dumps(lattice_to_json(ld.fixture(name))))
    return str(p)


def digraph_file(tmp_path, obj, stem="dig"):
    p = tmp_path / f"{stem}.json"
    p.write_text(json.dumps(obj))
    return str(p)


def test_dual_emits_annotated_digraph(tmp_path, capsys):
    assert main(["dual", lattice_file(tmp_path, "N5")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["v"] == 3
    assert obj["mdfips"] == [[1, 2], [2, 3], [3, 1]]
    arcs = {tuple(a) for a in obj["arcs"]}
    assert arcs == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}


def test_dual_dot_output(tmp_path, capsys):
    assert main(["dual", lattice_file(tmp_path, "N5"), "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "->" in out


def test_primal_recovers_the_lattice(tmp_path, capsys):
    G = ld.dual_digraph(ld.fixture("N5"))
    f = digraph_file(tmp_path, digraph_to_json(G))
    assert main(["primal", f]) == 0
    L = lattice_from_json(json.loads(capsys.readouterr().out))
    assert ld.lattice_isomorphic(L, ld.fixture("N5"))[0]


def test_primal_dot_output(tmp_path, capsys):
    G = ld.dual_digraph(ld.fixture("B2"))
    f = digraph_file(tmp_path, digraph_to_json(G))
    assert main(["primal", f, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph lattice")
    assert "rankdir=BT" in out


# a node line whose one attribute is a DOT quoted string, escaping only
# backslash and double quote
DOT_NODE = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\[\\"])*)"\];')


def dot_labels(dot):
    """Node -> label, each label attribute parsed as a DOT quoted string
    and unescaped."""
    labels = {}
    for line in dot.splitlines():
        if "label=" in line:
            m = DOT_NODE.fullmatch(line)
            assert m, line
            labels[int(m[1])] = re.sub(r'\\([\\"])', r"\1", m[2])
    return labels


def test_dot_labels_are_escaped_quoted_strings(tmp_path, capsys):
    names = ('a"b', "c\\", '\\"', "x\\ny", '""', "plain")
    obj = {"n": len(names), "covers": [[i, i + 1] for i in range(len(names) - 1)],
           "labels": dict(enumerate(names))}
    L = lattice_from_json(json.loads(json.dumps(obj)))
    assert dot_labels(ld.lattice_to_dot(L)) == dict(enumerate(names))
    assert main(["dual", digraph_file(tmp_path, obj), "--dot"]) == 0
    labels = dot_labels(capsys.readouterr().out)
    G = ld.dual_digraph(L)
    assert labels == {x: G.name_of(x) for x in range(G.v)}
    assert labels[0] == 'c\\a"b'


def test_check_failing_property_exits_one(tmp_path, capsys):
    assert main(["check", "mod", lattice_file(tmp_path, "N5")]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"property": "mod", "holds": False, "witness": [3, 1, 2]}


def test_check_holding_property_exits_zero(tmp_path, capsys):
    assert main(["check", "mod", lattice_file(tmp_path, "M3")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"property": "mod", "holds": True, "witness": None}


def test_check_digraph_property_on_digraph_file(tmp_path, capsys):
    G = ld.dual_digraph(ld.fixture("L3D"))
    f = digraph_file(tmp_path, digraph_to_json(G))
    assert main(["check", "lti", f]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_check_lattice_only_property_on_digraph_is_an_error(tmp_path, capsys):
    G = ld.dual_digraph(ld.fixture("B2"))
    f = digraph_file(tmp_path, digraph_to_json(G))
    assert main(["check", "usm", f]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_unknown_property(tmp_path, capsys):
    assert main(["check", "sparkles", lattice_file(tmp_path, "B2")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_loops_warn_on_stderr(tmp_path, capsys):
    f = digraph_file(tmp_path, {"v": 2, "arcs": [[0, 1]]})
    for argv in (["check", "tirs", f], ["roundtrip", f], ["primal", f]):
        assert main(argv) in (0, 1)
        assert "missing loops" in capsys.readouterr().err, argv


def test_roundtrip_lattice(tmp_path, capsys):
    assert main(["roundtrip", lattice_file(tmp_path, "L4")]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "lattice", "roundtrip": True}


def test_roundtrip_digraph(tmp_path, capsys):
    G = ld.dual_digraph(ld.fixture("M3"))
    f = digraph_file(tmp_path, digraph_to_json(G))
    assert main(["roundtrip", f]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "digraph", "roundtrip": True}


def test_enumerate_streams_ndjson(capsys):
    assert main(["enumerate", "--max-n", "4"]) == 0
    cap = capsys.readouterr()
    lines = cap.out.strip().splitlines()
    assert len(lines) == 5
    sizes = [lattice_from_json(json.loads(line)).n for line in lines]
    assert sizes == [1, 2, 3, 4, 4]
    assert cap.err.strip() == "5 lattices (n=1: 1, n=2: 1, n=3: 1, n=4: 2)"


def test_enumerate_to_file(tmp_path, capsys):
    out = tmp_path / "cat.ndjson"
    assert main(["enumerate", "--max-n", "5", "--out", str(out)]) == 0
    cap = capsys.readouterr()
    assert cap.out == ""
    assert len(out.read_text().strip().splitlines()) == 10


def test_enumerate_over_bound(capsys):
    assert main(["enumerate", "--max-n", str(MAX_LATTICE_N + 1)]) == 2
    assert "error:" in capsys.readouterr().err


def test_primal_over_the_map_lattice_bound(tmp_path, capsys):
    # 13 isolated loops have 2^13 = 8,192 maximal maps
    path = digraph_file(tmp_path, {"v": 13, "arcs": [[x, x] for x in range(13)]})
    assert main(["primal", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "4096" in captured.err


@pytest.mark.parametrize("command, obj", [
    ("primal", {"v": 60000, "arcs": []}),
    ("dual", {"n": 300000000, "covers": []}),
], ids=["primal-60000-vertices", "dual-300000000-elements"])
def test_running_out_of_memory_is_an_input_error(tmp_path, command, obj):
    """An input too large for the memory at hand exits 2, not 1, which
    would say a checked property fails. Each runs in a fresh process
    within 400 MB of address space."""
    limit = 400_000 * 1024
    r = subprocess.run(
        [sys.executable, "-m", "latdual", command, digraph_file(tmp_path, obj)],
        capture_output=True, text=True, env=_source_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr.splitlines()[-1] == "error: out of memory"


def test_verify_theorems_with_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify-theorems", "--max-n", "5", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("31/31 statements verified")
    obj = json.loads(report.read_text())
    assert set(obj) == {"results"}
    assert len(obj["results"]) == 31


def test_search_streams_matches(capsys):
    assert main(["search", "--holds", "jmlsm", "--fails", "lsm", "--max-n", "6"]) == 0
    cap = capsys.readouterr()
    lines = cap.out.strip().splitlines()
    assert len(lines) == 1
    L = lattice_from_json(json.loads(lines[0]))
    assert ld.lattice_isomorphic(L, ld.fixture("L3D"))[0]
    assert cap.err.strip() == "1 lattices satisfy jmlsm but not lsm"


@pytest.mark.parametrize("argv", [
    ["verify-theorems", "--max-n", str(MAX_LATTICE_N + 1)],
    ["search", "--holds", "jsd", "--fails", "md", "--max-n", str(MAX_LATTICE_N + 1)],
])
def test_campaigns_over_the_lattice_bound_are_input_errors(argv, capsys):
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    bound = f"1 <= max_n <= {MAX_LATTICE_N}, got {MAX_LATTICE_N + 1}"
    assert cap.err == f"error: lattice enumeration supports {bound}\n"


def test_convexify_golden(tmp_path, capsys):
    assert main(["convexify", lattice_file(tmp_path, "CHAIN(3)")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"ground": 2, "closed": [[], [0], [0, 1]]}


def test_convexify_rejects_unsuitable_lattice(tmp_path, capsys):
    assert main(["convexify", lattice_file(tmp_path, "N5")]) == 2
    assert "error:" in capsys.readouterr().err


def test_json_outputs_are_the_library_objects_one_key_per_line(tmp_path, capsys, convex95):
    """`dual`, `primal`, `convexify` and `check` print the library's JSON
    object in full, one top-level key per line between the two braces."""
    boolean4 = {"n": 16, "covers": [[a, a | 1 << i] for a in range(16) for i in range(4) if not a >> i & 1]}
    loops6 = {"v": 6, "arcs": [[x, x] for x in range(6)]}
    N5 = ld.fixture("N5")
    mod = ld.check_lattice_property("mod", N5)
    # (command words, input JSON, exit code, expected output)
    cases = [
        (["dual"], obj, 0, digraph_to_json(ld.dual_digraph(lattice_from_json(obj))))
        for obj in [lattice_to_json(L) for L in (N5, ld.fixture("B2"), m_k(5))] + [boolean4]
    ]
    cases += [
        (["primal"], obj, 0, lattice_to_json(ld.mpe_lattice(ld.digraph_from_json(obj)[0])))
        for obj in (digraph_to_json(ld.dual_digraph(N5)), loops6)
    ]
    cases.append((["convexify"], lattice_to_json(convex95), 0,
                  ld.closure_to_json(ld.lattice_to_convex_geometry(convex95))))
    cases.append((["check", "mod"], lattice_to_json(N5), 1,
                  {"property": "mod", "holds": False, "witness": list(mod.witness)}))
    for i, (words, obj, code, expected) in enumerate(cases):
        argv = words + [digraph_file(tmp_path, obj, stem=f"in{i}")]
        assert main(argv) == code, argv
        out = capsys.readouterr().out
        assert json.loads(out) == expected, argv
        assert len(out.splitlines()) == len(expected) + 2, argv


def _full_subparser(name):
    """The subparser `name` of the parser with all eight commands."""
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


COMMAND_NAMES = ("dual", "primal", "check", "roundtrip", "enumerate", "verify-theorems", "search", "convexify")


@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_command_help_is_that_of_the_full_parser(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _full_subparser(name).format_help()


@pytest.mark.parametrize("argv", [
    ["primal"],
    ["enumerate"],
    ["search", "--holds", "mod"],
    ["check", "mod"],
    ["enumerate", "--max-n", "four"],
    ["dual", "lattice.json", "--bogus"],
])
def test_usage_errors_match_the_full_parser(argv, capsys):
    """Errors raised by a subparser and by the top-level parser (an
    unrecognized argument) read the same through the lean parser."""
    with pytest.raises(SystemExit) as lean:
        main(argv)
    lean_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as full:
        _parser().parse_args(argv)
    assert lean.value.code == full.value.code == 2
    assert lean_err == capsys.readouterr().err
    assert lean_err.startswith("usage: latdual")


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["bogus"]])
def test_without_a_known_command_every_command_is_named(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    cap = capsys.readouterr()
    for name in COMMAND_NAMES:
        assert name in cap.out + cap.err, (argv, name)


def test_a_plain_command_builds_no_parser(tmp_path, capsys, monkeypatch):
    parsers, built = [], []
    init, add_parser = argparse.ArgumentParser.__init__, argparse._SubParsersAction.add_parser

    def counting_init(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["roundtrip", lattice_file(tmp_path, "B2")]) == 0
    assert parsers == built == []
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built == list(COMMAND_NAMES)
    assert len(parsers) == 1 + len(COMMAND_NAMES)
    capsys.readouterr()


FLAGS = tuple(flags[0] for _, _, arguments in COMMANDS.values()
              for flags, _ in arguments if flags[0].startswith("-"))
VALUES = ("8", "-3", " 8", "four", "-", "", "x.json", "mod")
TOKENS = COMMAND_NAMES + ("bogus",) + FLAGS + ("--max", "--max-n=8", "--", "-h") + VALUES


@st.composite
def command_lines(draw):
    """At most six tokens from TOKENS: a command's positionals and some of
    its options in any order, each filled with a drawn value, then up to
    two tokens replaced, inserted or deleted."""
    name = draw(st.sampled_from(COMMAND_NAMES))
    value = st.sampled_from(VALUES)
    units = [
        [flags[0]] if "action" in keywords else [flags[0], draw(value)]
        for flags, keywords in COMMANDS[name][2] if flags[0].startswith("-") and draw(st.booleans())
    ] + [[draw(value)] for flags, _ in COMMANDS[name][2] if not flags[0].startswith("-")]
    argv = [name] + sum(draw(st.permutations(units)), [])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        argv[i:i + draw(st.integers(0, 1))] = draw(st.lists(st.sampled_from(TOKENS), max_size=1))
    return argv[:6]


def test_plain_arguments_are_those_of_argparse():
    """The reader reads a line exactly as argparse does, or declines it.
    One parser reads every line: parsing keeps no state between lines."""
    read = []
    parser = _parser()

    @settings(max_examples=1500, deadline=None)
    @given(command_lines())
    def agree(argv):
        args = _plain_args(argv)
        if args is not None:
            assert vars(args) == vars(parser.parse_args(argv)), argv
            read.append(argv)

    agree()
    assert len(read) >= 100
    assert {argv[0] for argv in read} == set(COMMANDS)


PLAIN = [
    ["dual", "F"], ["dual", "F", "--dot"], ["dual", "--dot", "F"],
    ["primal", "F"], ["primal", "F", "--dot"],
    ["check", "mod", "F"],
    ["roundtrip", "F"],
    ["enumerate", "--max-n", "5"], ["enumerate", "--out", "F", "--max-n", "5"],
    ["verify-theorems"], ["verify-theorems", "--max-n", "8", "--report", "F"],
    ["search", "--holds", "jsd", "--fails", "md"],
    ["search", "--max-n", "6", "--fails", "md", "--holds", "jsd"],
    ["convexify", "F"],
]


def test_every_plain_command_line_is_read_without_argparse():
    """Each command, and each of its options, has a plain form the reader
    reads as argparse does; this includes the lines perfbench runs."""
    for argv in PLAIN:
        args = _plain_args(argv)
        assert args is not None, argv
        assert vars(args) == vars(_parser().parse_args(argv)), argv
    assert {argv[0] for argv in PLAIN} == set(COMMANDS)
    assert {t for argv in PLAIN for t in argv if t.startswith("-")} == set(FLAGS)


def test_a_roundtrip_imports_neither_argparse_nor_locale(tmp_path):
    """`python -m latdual roundtrip FILE` in a fresh process; -X importtime
    names every module the process imports."""
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "latdual", "roundtrip", lattice_file(tmp_path, "B2")],
        capture_output=True, text=True, env=_source_env(),
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"kind": "lattice", "roundtrip": True}
    imported = {line.rsplit("|", 1)[1].strip() for line in r.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"json", "latdual.cli", "latdual.duality"} <= imported
    assert not {"argparse", "locale", "gettext"} & imported


def test_bad_json_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["dual", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["dual", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unsniffable_payload(tmp_path, capsys):
    f = digraph_file(tmp_path, {"verts": 2})
    assert main(["roundtrip", f]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("obj", [
    {"v": "3", "arcs": []},
    {"v": -2, "arcs": []},
    {"v": True, "arcs": []},
    {"v": 2, "arcs": 5},
    {"v": 2, "arcs": [[0, 1.0]]},
    {"v": 2, "arcs": [[0, 1, 1]]},
    {"v": 2, "arcs": [7]},
    {"v": 2, "arcs": [[0, 5]]},
    {"v": 2, "arcs": [[-1, 0]]},
    {"arcs": []},
    {"v": 2, "arcs": [], "mdfips": 5},
    {"v": 2, "arcs": [], "mdfips": []},
    {"v": 2, "arcs": [], "mdfips": [[0, 1]]},
    {"v": 2, "arcs": [], "mdfips": [[0, -5], [1, 0]]},
    {"v": 1, "arcs": [], "mdfips": [[-1, 0]]},
    {"n": "3", "covers": []},
    {"n": 0, "covers": []},
    {"n": 3, "covers": 7},
    {"n": 2, "covers": [[0, "1"]]},
    {"n": 1, "covers": [], "labels": ["a"]},
    {"n": 3, "covers": [[0, 1], [1, 2]], "labels": {"7": "x"}},
    {"n": 3, "covers": [[0, 1], [1, 2]], "labels": {"-1": "x"}},
    {"n": 3, "covers": [[0, 1], [1, 2]], "labels": {"1": "a", "0_1": "b"}},
])
def test_malformed_payload_is_an_input_error(tmp_path, capsys, obj):
    f = digraph_file(tmp_path, obj)
    argvs = [["roundtrip", f], ["check", "mod" if "n" in obj else "tirs", f]]
    if "n" in obj:
        argvs.append(["dual", f])
    for argv in argvs:
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_the_empty_digraph_is_the_dual_of_the_one_element_lattice(tmp_path, capsys):
    f = digraph_file(tmp_path, {"v": 0, "arcs": []})
    assert main(["roundtrip", f]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "digraph", "roundtrip": True}
    assert main(["primal", f]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 1


def _console_script(name):
    """The `module:attr` target that pyproject.toml declares for `name`."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    mod, _, attr = target.partition(":")
    return mod.strip(), attr.strip()


def _check_exit_codes(cmd, env, tmp_path):
    r = subprocess.run(
        cmd + ["check", "dist", lattice_file(tmp_path, "B2")],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["holds"] is True
    r = subprocess.run(
        cmd + ["check", "mod", lattice_file(tmp_path, "N5", stem="n5")],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 1, r.stderr
    assert json.loads(r.stdout)["holds"] is False


def _source_env():
    """The environment with the imported source tree first on PYTHONPATH."""
    src = str(Path(ld.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_is_installed(tmp_path):
    """The declared `latdual` script reads argv, prints JSON and exits with main's code.

    The script is run through the same wrapper pip generates for a console
    script, against the source tree under test, so the check holds whether
    or not the package is installed. An installed `latdual` on PATH is run
    as well.
    """
    mod, attr = _console_script("latdual")
    wrapper = f"import sys; from {mod} import {attr}; sys.exit({attr}())"
    _check_exit_codes([sys.executable, "-c", wrapper], _source_env(), tmp_path)

    exe = shutil.which("latdual")
    if exe:
        _check_exit_codes([exe], None, tmp_path)


def test_python_dash_m_runs_the_cli(tmp_path):
    _check_exit_codes([sys.executable, "-m", "latdual"], _source_env(), tmp_path)
