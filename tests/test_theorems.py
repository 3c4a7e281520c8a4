import hashlib
import json
import os
import signal
import time
import weakref

import pytest

import latdual as ld
from latdual import duality, properties, theorems
from latdual.lattice import FiniteLattice
from latdual.theorems import REGISTRY, REGISTRY_IDS, TheoremCheck
from oracles import count_lattice_classes, djsd_lti_r, reflexive_rows
from test_enumeration import EXPECTED_LATTICE_COUNTS, EXPECTED_TIRS_COUNTS

PINNED_IDS = (
    "PROP_2_2", "LEM_2_3", "PROP_2_5", "THM_2_6", "PLOSCICA_LEMMA",
    "LEM_3_1", "THM_3_2", "LEM_3_4", "LEM_3_5", "PROP_3_7",
    "THM_3_8", "THM_3_10", "PROP_3_12", "THM_3_13", "THM_3_15",
    "THM_4_1", "THM_4_2", "COR_4_5", "THM_4_6_I", "THM_4_6_II",
    "THM_4_6_III", "THM_4_7", "PROP_4_8", "COR_4_9", "THM_4_10",
    "THM_4_13", "LEM_5_1", "PROP_5_2_A", "PROP_5_2_B", "THM_5_3",
    "COR_5_6",
)

# records checked on the digraph catalog as well as on the lattice catalog
DIGRAPH_IDS = ("THM_2_6", "PLOSCICA_LEMMA", "THM_3_13", "THM_3_15", "THM_4_6_I",
               "THM_4_6_II", "THM_4_6_III", "THM_4_7", "PROP_4_8", "THM_4_10")

# sha256 of the bytes `latdual verify-theorems --max-n 8 --report` writes;
# a change that moves the report must say why and update this digest
REPORT_8_SHA256 = "7ce0bbcb1a9eacf732524a3e8ea26f624b0ad84573943240f287fafbb0d36e97"

# id -> (checked, non-converse witnesses) at bound 6
EXPECT_AT_6 = {rid: (25, 0) for rid in PINNED_IDS}
for rid in DIGRAPH_IDS[:-1]:
    EXPECT_AT_6[rid] = (66, 0)
EXPECT_AT_6["THM_4_10"] = (89, 0)
EXPECT_AT_6["THM_4_2"] = (25, 4)
for rid in ("PROP_5_2_A", "PROP_5_2_B", "THM_5_3", "COR_5_6"):
    EXPECT_AT_6[rid] = (25, 1)


def test_registry_listing():
    assert REGISTRY_IDS == PINNED_IDS
    assert tuple(r.id for r in REGISTRY) == PINNED_IDS
    statements = [r.statement for r in REGISTRY]
    assert all(s and s == s.strip() for s in statements)
    assert len(set(statements)) == len(statements)


def test_full_verification_passes():
    checks = ld.verify_theorems(max_n=6)
    assert tuple(c.id for c in checks) == PINNED_IDS
    for c in checks:
        assert isinstance(c, TheoremCheck)
        assert c.passed, c.id
        assert c.counterexamples == []
        want_checked, want_nc = EXPECT_AT_6[c.id]
        assert c.checked == want_checked, c.id
        assert len(c.non_converse_witnesses) == want_nc, c.id


def test_full_verification_at_the_real_bound():
    """At max_n = 8 every statement passes, and each count of checked
    cases is the sum of independently known catalog sizes."""
    lattices = sum(count_lattice_classes(n) for n in range(1, 7)) + sum(
        EXPECTED_LATTICE_COUNTS[n] for n in (7, 8)
    )
    digraphs = sum(EXPECTED_TIRS_COUNTS.values())
    scanned = sum(djsd_lti_r(rows) for v in range(1, 4) for rows in reflexive_rows(v))
    assert (lattices, digraphs, scanned) == (300, 322, 23)
    checks = ld.verify_theorems(max_n=8)
    assert tuple(c.id for c in checks) == PINNED_IDS
    for c in checks:
        assert c.passed and c.counterexamples == [], c.id
        domains, want = ["lattices(n<=8)"], lattices
        if c.id in DIGRAPH_IDS:
            domains.append("digraphs(v<=5)")
            want += digraphs
        if c.id == "THM_4_10":
            domains.append("reflexive-scan(v<=3)")
            want += scanned
        assert c.domain == "+".join(domains), c.id
        assert c.checked == want, c.id
    text = json.dumps(ld.report_to_json(checks), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_8_SHA256


def test_report_rendering():
    checks = ld.verify_theorems(max_n=5)
    text = ld.render_report(checks)
    lines = text.splitlines()
    assert lines[0] == "PASS PROP_2_2 [lattices(n<=5)] checked 10"
    assert lines[-1] == "31/31 statements verified"
    assert sum(line.startswith("PASS ") for line in lines) == 31
    assert not any(line.startswith("FAIL") for line in lines)


def test_report_json_structure():
    checks = ld.verify_theorems(max_n=5)
    obj = ld.report_to_json(checks)
    assert set(obj) == {"results"}
    assert tuple(obj["results"]) == PINNED_IDS
    for rid, entry in obj["results"].items():
        assert set(entry) == {
            "statement", "domain", "pass", "checked",
            "counterexamples", "non_converse_witnesses",
        }
        assert entry["pass"] is True
        assert entry["checked"] > 0
        json.dumps(entry)  # witnesses must already be plain data


def test_reports_are_deterministic():
    a = ld.report_to_json(ld.verify_theorems(max_n=6))
    b = ld.report_to_json(ld.verify_theorems(max_n=6))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_witnesses_embed_replayable_lattices():
    checks = {c.id: c for c in ld.verify_theorems(max_n=6)}
    for w in checks["THM_5_3"].non_converse_witnesses:
        L = ld.lattice_from_json(w["lattice"])
        assert ld.check_lattice_property("mod", L)
        assert not ld.check_lattice_property("fis", L)


def test_search_finds_the_documented_gap():
    hits = ld.search_counterexamples("jmlsm", "lsm", max_n=6)
    assert [L.n for L in hits] == [6]
    assert ld.lattice_isomorphic(hits[0], ld.fixture("L3D"))[0]


def test_search_respects_known_implications():
    assert ld.search_counterexamples("dist", "mod", max_n=6) == []
    assert ld.search_counterexamples("lsm", "jmlsm", max_n=6) == []


def test_search_with_digraph_conditions():
    hits = ld.search_counterexamples("mod", "fis", max_n=6)
    assert [L.n for L in hits] == [6]
    hits = ld.search_counterexamples("mod", "dist", max_n=5)
    assert [L.n for L in hits] == [5]
    assert ld.lattice_isomorphic(hits[0], ld.fixture("M3"))[0]


def test_search_validates_names():
    with pytest.raises(ld.UnknownProperty):
        ld.search_counterexamples("mod", "sparkles", max_n=4)
    with pytest.raises(ld.UnknownProperty):
        ld.search_counterexamples("sparkles", "mod", max_n=4)


def test_the_definitional_pairs_are_enumerated_once_per_lattice(monkeypatch):
    calls = []

    def counting(L):
        calls.append(L)
        return ld.mdfips_bruteforce(L)

    monkeypatch.setattr(theorems, "mdfips_bruteforce", counting)
    checks = {c.id: c for c in ld.verify_theorems(max_n=6)}
    assert checks["PROP_2_2"].passed and checks["THM_3_2"].passed
    assert len(calls) == len(set(map(id, calls))) == checks["THM_3_2"].checked == 25


def _both_sides_here(counted):
    """Run the two sides of verify_theorems(6) in this process, one after
    the other, so that a patch here sees the digraph side's calls too.
    Returns how many entries ``counted`` held after the lattice side, and
    the merged checks by id."""
    lattices = theorems._lattice_side(6)
    on_lattices = len(counted)
    checks = theorems._merge(lattices, theorems._digraph_side(4))
    return on_lattices, {c.id: c for c in checks}


def test_the_maximal_pairs_are_found_once_per_lattice(monkeypatch):
    """Every lattice the campaign meets, from the catalog or as a map
    lattice, has its MDFIPs computed once, though the pair list, the
    dual digraph, labc and uabc all ask for them. Both sides run here,
    as verify_theorems runs the digraph side in a child process."""
    runs = []

    def counting(L):
        runs.append(L)
        return compute(L)

    compute = duality._maximal_pairs
    monkeypatch.setattr(duality, "_maximal_pairs", counting)
    on_lattices, checks = _both_sides_here(runs)
    assert len(runs) == len(set(map(id, runs)))
    # 25 catalog lattices on the lattice side; on the digraph side the map
    # lattices of 41 catalog digraphs and of the 23 digraphs of the
    # THM_4_10 scan
    assert (on_lattices, len(runs) - on_lattices) == (25, 64)
    assert len(runs) == checks["THM_4_10"].checked == 89


def test_the_lattice_side_keeps_no_lattice_after_its_case(monkeypatch):
    """Each catalog lattice is built when its case is visited and freed
    when the next case replaces it: when a case starts, at most the
    lattice of the case before it is alive, and none is once the side
    returns."""
    refs, alive = [], []

    class Watched(theorems.LatticeCase):
        def __init__(self, L):
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(L))
            super().__init__(L)

    monkeypatch.setattr(theorems, "LatticeCase", Watched)
    theorems._lattice_side(6)
    assert len(refs) == 25
    assert max(alive) <= 1
    assert sum(ref() is not None for ref in refs) == 0


def test_the_catalog_builds_new_lattices_on_each_call():
    """Two calls give equal lattices, not shared ones, so what a campaign
    caches on its lattices is not found on a later catalog's."""
    first, second = ld.enumerate_lattices(6).entries, ld.enumerate_lattices(6).entries
    assert first == second
    assert not any(L is K for L, K in zip(first, second))
    assert all(c.passed for c in ld.verify_theorems(max_n=6))
    _no_child_left()
    assert not any("_mdfips" in vars(L) for L in ld.enumerate_lattices(6).entries)


def test_the_map_one_sets_are_swept_once_per_digraph(monkeypatch):
    """Every digraph the campaign meets, a lattice's dual or from a
    catalog, has the intersections that make its one-sets swept once,
    though its maps (PLOSCICA_LEMMA) and its map lattice (THM_2_6) both
    read them. Both sides run here, as verify_theorems runs the digraph
    side in a child process."""
    runs = []

    def counting(G):
        runs.append(G)
        return sweep(G)

    sweep = duality._intersections
    monkeypatch.setattr(duality, "_intersections", counting)
    on_lattices, checks = _both_sides_here(runs)
    assert len(runs) == len(set(map(id, runs)))
    # the duals of 25 catalog lattices on the lattice side; on the digraph
    # side 41 catalog digraphs and the 23 digraphs of the THM_4_10 scan
    assert (on_lattices, len(runs) - on_lattices) == (25, 64)
    assert len(runs) == checks["PLOSCICA_LEMMA"].checked + 23 == 89


def test_the_scan_builds_one_map_lattice_per_digraph(monkeypatch):
    """The THM_4_10 scan reads md and the round trip off one map lattice
    per scanned digraph."""
    built = []

    def counting(cls, masks, labels=None):
        built.append(tuple(masks))
        return of_sets(cls, masks, labels)

    of_sets = FiniteLattice.of_sets.__func__
    monkeypatch.setattr(FiniteLattice, "of_sets", classmethod(counting))
    (record,) = [rec for rec in REGISTRY if rec.scan]
    source, check = record.scan
    parts = theorems._sweep("scan", source(), {record.id: check}, {})
    assert parts == {record.id: [("scan", 23, [], [])]}
    assert len(built) == 23
    # a failing case is described like any other, with no detail key
    failing = theorems._sweep("scan", source(), {record.id: lambda case: (False, None)}, {})
    [(_, checked, cexs, _)] = failing[record.id]
    assert checked == len(cexs) == 23
    assert all(list(c) == ["digraph"] for c in cexs)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the digraph side runs in a child only with os.fork")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_sides_merge_to_the_same_report_wherever_they_run(monkeypatch):
    """The forked campaign, the two sides run here and merged, and the
    campaign where os.fork is missing give one report."""
    forked = ld.report_to_json(ld.verify_theorems(max_n=6))
    _no_child_left()
    here = ld.report_to_json(theorems._merge(theorems._lattice_side(6), theorems._digraph_side(4)))
    monkeypatch.delattr(os, "fork", raising=False)
    unforked = ld.report_to_json(ld.verify_theorems(max_n=6))
    assert forked == here == unforked
    assert [e["checked"] for e in forked["results"].values()] == [
        EXPECT_AT_6[rid][0] for rid in PINNED_IDS
    ]


@needs_fork
def test_a_digraph_side_error_reaches_the_caller(monkeypatch):
    """An error raised in the child, on the digraph side only, is raised
    again here with its type and message, and the child is reaped."""
    parent = os.getpid()
    lti = properties.DIGRAPH_CHECKS["lti"]

    def failing(G):
        if os.getpid() != parent:
            raise ld.NotReflexive(f"no lti on {G.v} vertices")
        return lti(G)

    monkeypatch.setitem(properties.DIGRAPH_CHECKS, "lti", failing)
    with pytest.raises(ld.NotReflexive) as info:
        ld.verify_theorems(max_n=4)
    assert type(info.value) is ld.NotReflexive
    assert str(info.value) == "no lti on 1 vertices"
    _no_child_left()


@needs_fork
def test_a_child_that_dies_without_a_result_is_an_error(monkeypatch):
    """A child killed before it sends anything gives an error naming how
    it ended, not a report without the digraph side."""
    monkeypatch.setattr(theorems, "_digraph_side", lambda max_v: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match=r"^the digraph side sent no result \(exit code -9\)$"):
        ld.verify_theorems(max_n=4)
    _no_child_left()


@needs_fork
@pytest.mark.parametrize("error", [ld.NotALattice, KeyboardInterrupt])
def test_a_lattice_side_error_kills_the_child(monkeypatch, error):
    """When this process raises, or is interrupted, during the lattice
    side, it kills the child, here stuck on the digraph side, and reaps
    it before the error goes on."""
    parent = os.getpid()
    lti = properties.DIGRAPH_CHECKS["lti"]

    def stuck(G):
        if os.getpid() != parent:
            time.sleep(60)
        return lti(G)

    def failing(L):
        raise error(f"no jsd on {L.n} elements")

    monkeypatch.setitem(properties.DIGRAPH_CHECKS, "lti", stuck)
    monkeypatch.setitem(properties.LATTICE_CHECKS, "jsd", failing)
    t0 = time.monotonic()
    with pytest.raises(error, match="^no jsd on 1 elements$"):
        ld.verify_theorems(max_n=8)
    assert time.monotonic() - t0 < 30
    _no_child_left()


@pytest.mark.parametrize("forked", [True, False] if hasattr(os, "fork") else [False])
def test_a_campaign_over_the_bound_is_refused(monkeypatch, forked):
    """The lattice bound is checked when the lattice side starts its
    catalog, after the child is forked; the child is killed and reaped
    before the error goes on."""
    if not forked:
        monkeypatch.delattr(os, "fork", raising=False)
    message = "^lattice enumeration supports 1 <= max_n <= 10, got 11$"
    with pytest.raises(ld.BoundTooLarge, match=message):
        ld.verify_theorems(max_n=11)
    _no_child_left()
    with pytest.raises(ld.BoundTooLarge, match=message):
        ld.search_counterexamples("jsd", "md", 11)


def _runs(details):
    """Run-length form of a detail list: [count, detail as JSON] per run,
    so the order of the flags inside a detail counts."""
    out = []
    for d in details:
        s = json.dumps(d)
        if out and out[-1][1] == s:
            out[-1][0] += 1
        else:
            out.append([1, s])
    return out


# the records that fail at bound 4 with jsd and lti read as always false,
# with their counterexample details in run-length form: lattice cases
# first, then digraph cases, where an equivalence reads right to left
FORCED_FAILURES_AT_4 = {
    "THM_3_10": [[5, '{"flags": {"labc": true, "lti": false}}']],
    "THM_3_13": [[5, '{"flags": {"jmlsm": true, "lti": false}}'],
                 [25, '{"flags": {"lti": false, "jmlsm": true}}']],
    "THM_4_1": [[5, '{"flags": {"md": true, "jsd": false, "lsm": true}}']],
    "COR_4_5": [[5, '{"flags": {"md": true, "jmlsm": true, "jsd": false}}']],
    "THM_4_6_I": [[5, '{"flags": {"jsd": false, "djsd": true}}'],
                  [40, '{"flags": {"djsd": true, "jsd": false}}']],
    "THM_4_10": [[5, '{"md": true, "djsd_r_lti": false}'],
                 [25, '{"flags": {"djsd": true, "lti": false, "md": true}}']],
}


def test_flag_statements_report_their_failures(monkeypatch):
    """With two deciders forced false the flag statements that read them
    fail, each with its pinned counterexamples; an evaluator that always
    passes, or that reorders the flags, does not get through."""
    no = lambda name: lambda x: ld.PropertyReport(name, False)
    monkeypatch.setitem(properties.LATTICE_CHECKS, "jsd", no("jsd"))
    monkeypatch.setitem(properties.DIGRAPH_CHECKS, "lti", no("lti"))
    checks = ld.verify_theorems(max_n=4)
    failed = {c.id: c for c in checks if not c.passed}
    assert list(failed) == list(FORCED_FAILURES_AT_4)
    for rid, want in FORCED_FAILURES_AT_4.items():
        cexs = failed[rid].counterexamples
        assert len(cexs) == sum(n for n, _ in want), rid
        assert _runs([c.get("detail") for c in cexs]) == want, rid


def test_no_flag_statement_is_vacuous():
    """Each side of every equivalence and implication holds on some case
    and fails on some case, in every catalog its record runs on."""
    lcases = [theorems.LatticeCase(L) for L in ld.enumerate_lattices(6).entries]
    gcases = [theorems.DigraphCase(G) for G in ld.enumerate_tirs_digraphs(4)]
    flagged = [r for r in REGISTRY if r.iff or r.implies]
    assert len(flagged) == 19
    for rec in flagged:
        catalogs = [lcases] + ([gcases] if rec.digraphs else [])
        for cases in catalogs:
            for side in rec.iff or rec.implies:
                truth = {case.holds(side) for case in cases}
                assert truth == {True, False}, (rec.id, side)
