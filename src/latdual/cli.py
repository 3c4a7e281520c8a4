"""Command line front end.

``main`` reads a plain command line straight from the ``COMMANDS`` table:
a command name, then its positionals in order and its exact option flags,
each at most once, with a value not starting with ``-``. Anything else
(help, abbreviations, ``--opt=value``, ``--``, usage errors) goes to the
argparse parser with all eight commands, built only then, so help and
errors read as argparse prints them. ``dual``, ``primal``, ``check`` and
``convexify`` print one top-level key per line with compact values.

Exit codes: 0 success (and property holds / roundtrip closes / all
statements verified), 1 a checked property or statement fails, 2 usage or
input errors, and inputs too large for the memory at hand.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .convexity import closure_to_json, lattice_to_convex_geometry
from .digraph import digraph_from_json, digraph_to_dot, digraph_to_json
from .duality import dual_digraph, mpe_lattice, roundtrip_digraph, roundtrip_lattice
from .enumeration import enumerate_lattices
from .errors import LatdualError
from .lattice import lattice_from_json, lattice_to_dot, lattice_to_json
from .properties import check_digraph_property, check_lattice_property, property_names
from .theorems import render_report, report_to_json, search_counterexamples, verify_theorems


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_lattice(path):
    return lattice_from_json(_load_json(path))


def _digraph(obj):
    G, added = digraph_from_json(obj)
    if added:
        print("warning: missing loops were added to the digraph", file=sys.stderr)
    return G


def _load_either(path):
    """("lattice", L) or ("digraph", G), told apart by their keys."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "covers" in obj:
        return "lattice", lattice_from_json(obj)
    if isinstance(obj, dict) and "arcs" in obj:
        return "digraph", _digraph(obj)
    raise ValueError('cannot tell lattice from digraph: need "covers" or "arcs"')


def _print_object(obj):
    """One top-level key per line: ``indent`` would run the pure-Python encoder."""
    print("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in obj.items()) + "\n}")


def _cmd_dual(args):
    L = _load_lattice(args.file)
    G = dual_digraph(L)
    if args.dot:
        sys.stdout.write(digraph_to_dot(G))
    else:
        _print_object(digraph_to_json(G))
    return 0


def _cmd_primal(args):
    G = _digraph(_load_json(args.file))
    L = mpe_lattice(G)
    if args.dot:
        sys.stdout.write(lattice_to_dot(L))
    else:
        _print_object(lattice_to_json(L))
    return 0


def _cmd_check(args):
    kind, x = _load_either(args.file)
    check = check_lattice_property if kind == "lattice" else check_digraph_property
    report = check(args.property, x)
    _print_object({
        "property": report.property,
        "holds": report.holds,
        "witness": list(report.witness) if report.witness else None,
    })
    return 0 if report.holds else 1


def _cmd_roundtrip(args):
    kind, x = _load_either(args.file)
    ok = (roundtrip_lattice if kind == "lattice" else roundtrip_digraph)(x)
    print(json.dumps({"kind": kind, "roundtrip": ok}))
    return 0 if ok else 1


def _cmd_enumerate(args):
    catalog = enumerate_lattices(args.max_n)
    lines = [json.dumps(lattice_to_json(L)) for L in catalog.entries]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    counts = catalog.counts()
    summary = ", ".join(f"n={n}: {counts[n]}" for n in sorted(counts))
    print(f"{len(catalog.entries)} lattices ({summary})", file=sys.stderr)
    return 0


def _cmd_verify(args):
    checks = verify_theorems(args.max_n)
    print(render_report(checks))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report_to_json(checks), fh, indent=2)
            fh.write("\n")
    return 0 if all(c.passed for c in checks) else 1


def _cmd_search(args):
    found = search_counterexamples(args.holds, args.fails, args.max_n)
    for L in found:
        print(json.dumps(lattice_to_json(L)))
    print(
        f"{len(found)} lattices satisfy {args.holds} but not {args.fails}",
        file=sys.stderr,
    )
    return 0


def _cmd_convexify(args):
    L = _load_lattice(args.file)
    _print_object(closure_to_json(lattice_to_convex_geometry(L)))
    return 0


_FILE = (("file",), {})
_DOT = (("--dot",), {"action": "store_true", "default": False, "help": "emit DOT instead of JSON"})
_MAX_N = (("--max-n",), {"type": int, "default": 7})

# name: (function, help, arguments as (flags, keywords)), in help order;
# an option states its default, and its action is store_true or none
COMMANDS = {
    "dual": (_cmd_dual, "dual digraph of a lattice", [_FILE, _DOT]),
    "primal": (_cmd_primal, "map lattice of a reflexive digraph", [_FILE, _DOT]),
    "check": (_cmd_check, "decide a property of a lattice or digraph", [
        (("property",), {"help": f"one of: {', '.join(property_names())}"}), _FILE]),
    "roundtrip": (_cmd_roundtrip, "verify the double-dual isomorphism", [_FILE]),
    "enumerate": (_cmd_enumerate, "all small lattices, one per class", [
        (("--max-n",), {"type": int, "required": True}),
        (("--out",), {"help": "write NDJSON here instead of stdout"})]),
    "verify-theorems": (_cmd_verify, "run the verification campaign", [
        _MAX_N, (("--report",), {"help": "also write a JSON report here"})]),
    "search": (_cmd_search, "lattices holding one property, failing another", [
        (("--holds",), {"required": True}), (("--fails",), {"required": True}), _MAX_N]),
    "convexify": (_cmd_convexify, "closure system of a meet distributive lattice", [_FILE]),
}


def _plain_args(argv):
    """The arguments of a plain command line, read from ``COMMANDS``, or
    None for any other line. Values are converted by the option's
    ``type``, as argparse does, and defaults come from the table."""
    if not argv or argv[0] not in COMMANDS:
        return None
    args, options, positionals = {"command": argv[0]}, {}, []
    for flags, keywords in COMMANDS[argv[0]][2]:
        if flags[0].startswith("-"):
            options[flags[0]] = keywords
            args[_dest(flags[0])] = keywords.get("default")
        else:
            positionals.append(flags[0])
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            # popped: an option given twice is not plain
            keywords = options.pop(token)
            if keywords.get("action") == "store_true":
                args[_dest(token)] = True
                continue
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            try:
                args[_dest(token)] = keywords.get("type", str)(value)
            except ValueError:
                return None
        elif positionals and not token.startswith("-"):
            args[positionals.pop(0)] = token
        else:
            return None
    if positionals or any(keywords.get("required") for keywords in options.values()):
        return None
    return SimpleNamespace(**args)


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


def _parser():
    """The argparse parser with every command, for the command lines
    ``_plain_args`` declines: help, usage errors and the less plain forms."""
    import argparse

    p = argparse.ArgumentParser(
        prog="latdual",
        description="Finite lattices, their dual digraphs, and reconstructions",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, summary, arguments) in COMMANDS.items():
        q = sub.add_parser(name, help=summary)
        for flags, keywords in arguments:
            q.add_argument(*flags, **keywords)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or _parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except (LatdualError, ValueError, OSError) as exc:
        message = exc
    except MemoryError:
        # printed once this block has freed the traceback and what its frames hold
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
