"""The benchmark's checks accept correct outputs and reject tampered ones.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402


def test_campaign_domains_are_counted_independently():
    expect = checks.campaign_expectations()
    assert expect[checks.LATTICE_DOMAIN] == 300
    # 1 + 2 + 6 + 32 classes on up to four vertices, recounted by brute force
    assert expect[checks.DIGRAPH_DOMAIN] == 41 + checks.TIRS_CLASSES_V5 == 322
    assert expect[checks.SCAN_DOMAIN] == 23


def _report():
    lat, dig, scan = checks.LATTICE_DOMAIN, checks.DIGRAPH_DOMAIN, checks.SCAN_DOMAIN
    results = {}
    for i in range(checks.STATEMENTS - 1):
        domain = lat if i % 2 else f"{lat}+{dig}"
        results[f"S{i}"] = {"domain": domain, "pass": True, "checked": 300 if i % 2 else 622,
                            "counterexamples": []}
    results["THM_4_10"] = {"domain": f"{lat}+{dig}+{scan}", "pass": True, "checked": 645,
                           "counterexamples": []}
    return {"results": results}


def test_campaign_accepts_a_consistent_report():
    assert checks.campaign(0, _report()) == []


def test_campaign_rejects_a_flipped_verdict():
    report = _report()
    report["results"]["S3"]["pass"] = False
    assert checks.campaign(1, report)
    assert checks.campaign(0, report)


def test_campaign_rejects_a_dropped_catalog_class():
    for domain_start, checked in (("S0", 622), ("S1", 300)):
        report = _report()
        report["results"][domain_start]["checked"] = checked - 1
        assert checks.campaign(0, report)


def test_campaign_rejects_a_missing_statement():
    report = _report()
    del report["results"]["S5"]
    assert checks.campaign(0, report)


def test_primal_rejects_a_removed_cover():
    lattice = inputs.boolean(3)
    assert checks.primal(0, json.dumps(lattice), 8, 12) == []
    lattice["covers"].pop()
    assert checks.primal(0, json.dumps(lattice), 8, 12)


def test_dual_matches_the_definition_and_rejects_a_dropped_arc():
    lattice = inputs.m_k(3)
    pairs = oracles.mdfips(oracles.Poset.from_json(lattice))
    G = inputs.dual_of(lattice)
    out = dict(G, mdfips=[list(p) for p in pairs])
    assert checks.dual(0, json.dumps(out), lattice) == []
    arc = next(a for a in out["arcs"] if a[0] != a[1])
    dropped = dict(out, arcs=[a for a in out["arcs"] if a != arc])
    assert checks.dual(0, json.dumps(dropped), lattice)
    fewer = dict(out, v=out["v"] - 1, mdfips=out["mdfips"][:-1])
    assert checks.dual(0, json.dumps(fewer), lattice)


def test_roundtrip_rejects_a_false_verdict():
    assert checks.roundtrip(0, '{"kind": "lattice", "roundtrip": true}', "lattice") == []
    assert checks.roundtrip(1, '{"kind": "lattice", "roundtrip": false}', "lattice")


def _up_masks(n, covers):
    P = oracles.Poset(n, covers)
    return [sum(1 << j for j in P.up[i]) for i in range(n)]


def _first_break(C, name):
    arity = checks.LAW_BREAKS[name][0]
    for w in product(range(C.n), repeat=arity):
        if checks.breaks_law(C, name, list(w)):
            return list(w)
    return None


def _convex_output(C):
    """What a correct latdual reports on the convex-set lattice C."""
    verdicts = {name: [True, None] for name in checks.MUST_HOLD_LATTICE}
    for name in ("msd", "mod", "usm"):
        w = _first_break(C, name)
        verdicts[name] = [w is None, w]
    return {
        "lattice": verdicts,
        "digraph": {name: [True, None] for name in checks.MUST_HOLD_DUAL},
        "mpe_up": _up_masks(C.n, C.covers),
        "geometry": {
            "ground": len(C.points),
            "closed": list(C.sets),
        },
    }


def _small_convex():
    return inputs.convex_lattice(random.Random(7), 5, 0.01, 4)


def test_convex_accepts_a_correct_output():
    C = _small_convex()
    out = _convex_output(C)
    assert any(not holds for holds, _ in out["lattice"].values())
    assert checks.convex(out, C) == []


def test_convex_rejects_a_flipped_verdict():
    C = _small_convex()
    out = _convex_output(C)
    out["lattice"]["jsd"] = [False, [0, 0, 0]]
    assert checks.convex(out, C)
    out = _convex_output(C)
    out["digraph"]["lti"] = [False, [0, 1]]
    assert checks.convex(out, C)


def test_convex_rejects_a_witness_that_breaks_nothing():
    C = _small_convex()
    out = _convex_output(C)
    failing = [name for name, (holds, _) in out["lattice"].items() if not holds]
    out["lattice"][failing[0]][1] = [0] * len(out["lattice"][failing[0]][1])
    assert checks.convex(out, C)


def test_convex_rejects_a_map_lattice_with_a_cover_removed():
    C = _small_convex()
    out = _convex_output(C)
    # drop a cover into the top: the top keeps its other lower covers
    top = C.n - 1
    lower = [c for c in C.covers if c[1] == top]
    out["mpe_up"] = _up_masks(C.n, [c for c in C.covers if c != lower[0]])
    assert checks.convex(out, C)


def test_convex_rejects_a_geometry_without_the_empty_set():
    C = _small_convex()
    out = _convex_output(C)
    closed = out["geometry"]["closed"]
    full = (1 << len(C.points)) - 1
    outside = next(m for m in range(full) if m not in closed)
    out["geometry"]["closed"] = [outside if m == 0 else m for m in closed]
    assert checks.convex(out, C)


def test_anti_exchange():
    C = _small_convex()
    assert oracles.anti_exchange(len(C.points), [inputs._members(s) for s in C.sets])
    # with only the empty and the full set closed, each point lies in the
    # closure of every other one
    assert not oracles.anti_exchange(3, [frozenset(), frozenset(range(3))])


def _hull_closure(points, subset):
    """Indices of the points in the convex hull of the given ones, by
    Andrew's monotone chain and a point-in-polygon test."""
    pts = sorted(points[i] for i in subset)
    if len(pts) < 3:
        return set(subset)
    cross = inputs._cross
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    poly = lower[:-1] + upper[:-1]
    return {
        i for i, p in enumerate(points)
        if all(cross(poly[j], poly[(j + 1) % len(poly)], p) >= 0 for j in range(len(poly)))
    }


def test_convex_sets_agree_with_hull_closure():
    for seed in range(3):
        pts = inputs.random_points(random.Random(seed), 8)
        C = inputs.ConvexSets(pts)
        for s in range(1 << 8):
            members = inputs._members(s)
            assert set(inputs._members(C.close(s))) == _hull_closure(pts, members)
        assert inputs.convex_profile(pts)[0] == C.n


def test_convex_sets_meet_is_intersection_and_join_is_hull():
    C = _small_convex()
    for i in range(C.n):
        for j in range(C.n):
            assert C.sets[C.meet(i, j)] == C.sets[i] & C.sets[j]
            assert C.sets[C.join(i, j)] == C.close(C.sets[i] | C.sets[j])
            assert C.leq(i, C.join(i, j)) and C.leq(C.meet(i, j), j)
