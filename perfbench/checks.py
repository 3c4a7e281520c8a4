"""Output checks. Each returns a list of problems; an empty list passes.

Every expectation comes from a computation in ``oracles`` or ``inputs``, or
from a property the method must have; none is a stored copy of an earlier
output. The one pinned figure, ``TIRS_CLASSES_V5``, is recomputed by
``python3 perfbench/oracles.py tirs-classes 5``.
"""

from __future__ import annotations

import functools
import json

import oracles

STATEMENTS = 31  # statements of the paper in the campaign registry
TIRS_CLASSES_V5 = 281  # TiRS digraph classes on 5 vertices
LATTICE_DOMAIN = "lattices(n<=8)"
DIGRAPH_DOMAIN = "digraphs(v<=5)"
SCAN_DOMAIN = "reflexive-scan(v<=3)"


@functools.cache
def campaign_expectations():
    """Cases per domain of ``verify-theorems --max-n 8``."""
    return {
        LATTICE_DOMAIN: sum(oracles.LATTICES_BY_N),
        DIGRAPH_DOMAIN: sum(oracles.tirs_classes(v) for v in range(1, 5))
        + TIRS_CLASSES_V5,
        SCAN_DOMAIN: oracles.djsd_lti_r_count(3),
    }


def campaign(rc, report):
    """Exit 0; all statements pass; each checked count is the sum of the
    independently counted domains it ranges over."""
    expect = campaign_expectations()
    problems = [] if rc == 0 else [f"exit code {rc}"]
    results = report.get("results", {}) if isinstance(report, dict) else {}
    if len(results) != STATEMENTS:
        problems.append(f"{len(results)} statements reported, expected {STATEMENTS}")
    allowed = (
        (LATTICE_DOMAIN,),
        (LATTICE_DOMAIN, DIGRAPH_DOMAIN),
        (LATTICE_DOMAIN, DIGRAPH_DOMAIN, SCAN_DOMAIN),
    )
    for sid, res in results.items():
        if res.get("pass") is not True or res.get("counterexamples"):
            problems.append(f"{sid} does not pass")
        domains = tuple(res.get("domain", "").split("+"))
        if domains not in allowed or (sid == "THM_4_10") != (SCAN_DOMAIN in domains):
            problems.append(f"{sid} ranges over unexpected domain {res.get('domain')!r}")
            continue
        want = sum(expect[d] for d in domains)
        if res.get("checked") != want:
            problems.append(f"{sid} checked {res.get('checked')} cases, expected {want}")
    return problems


def roundtrip(rc, stdout, kind):
    try:
        obj = json.loads(stdout)
    except ValueError:
        return [f"unreadable roundtrip output (exit {rc})"]
    if rc != 0 or obj != {"kind": kind, "roundtrip": True}:
        return [f"roundtrip of a {kind} did not close: exit {rc}, {obj}"]
    return []


def primal(rc, stdout, elements, covers):
    """The map lattice has the expected numbers of elements and covers."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        return [f"unreadable primal output (exit {rc})"]
    got = (obj.get("n"), len(obj.get("covers", ())))
    if rc != 0 or got != (elements, covers):
        return [f"primal: exit {rc}, (elements, covers) {got}, expected {(elements, covers)}"]
    return []


def dual(rc, stdout, lattice_obj):
    """Vertices are the MDFIPs found by the definitional scan, and an arc
    (a, b) -> (c, d) is present iff a <= d fails."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        return [f"unreadable dual output (exit {rc})"]
    if rc != 0:
        return [f"dual: exit {rc}"]
    P = oracles.Poset.from_json(lattice_obj)
    pairs = oracles.mdfips(P)
    got = [tuple(p) for p in obj.get("mdfips") or ()]
    if obj.get("v") != len(pairs) or sorted(got) != pairs:
        return [f"dual: {obj.get('v')} vertices {got}, expected {len(pairs)} {pairs}"]
    arcs = {(got[i], got[j]) for i, j in obj.get("arcs", ())}
    want = {(p, q) for p in pairs for q in pairs if not P.leq(p[0], q[1])}
    if arcs != want:
        return [f"dual: arcs differ from the definition on {sorted(arcs ^ want)[:3]}"]
    return []


# lattice laws restated on the set lattice: (witness length, test that
# the witness really breaks the law)
LAW_BREAKS = {
    "usm": (2, lambda C, a, b: C.is_cover(C.meet(a, b), a) and not C.is_cover(b, C.join(a, b))),
    "lsm": (2, lambda C, a, b: C.is_cover(a, C.join(a, b)) and not C.is_cover(C.meet(a, b), b)),
    "mod": (3, lambda C, a, b, c: C.leq(a, c)
            and C.join(a, C.meet(b, c)) != C.meet(C.join(a, b), c)),
    "msd": (3, lambda C, a, b, c: C.meet(a, b) == C.meet(a, c)
            and C.meet(a, b) != C.meet(a, C.join(b, c))),
    "jsd": (3, lambda C, a, b, c: C.join(a, b) == C.join(a, c)
            and C.join(a, b) != C.join(a, C.meet(b, c))),
}


def breaks_law(C, name, witness):
    if name not in LAW_BREAKS or not isinstance(witness, list):
        return False
    arity, test = LAW_BREAKS[name]
    return (
        len(witness) == arity
        and all(isinstance(x, int) and 0 <= x < C.n for x in witness)
        and test(C, *witness)
    )


MUST_HOLD_LATTICE = ("md", "jsd", "lsm")
MUST_HOLD_DUAL = ("tirs", "lti", "djsd")


def convex(out, C):
    """Check the library results on the lattice of convex sets ``C``
    (an ``inputs.ConvexSets``)."""
    problems = []
    for name, (holds, witness) in out["lattice"].items():
        if name in MUST_HOLD_LATTICE and not holds:
            problems.append(f"{name} fails on a convex geometry, witness {witness}")
        elif not holds and not breaks_law(C, name, witness):
            problems.append(f"{name} witness {witness} does not break the law")
    for name in MUST_HOLD_DUAL:
        if out["digraph"].get(name, [False])[0] is not True:
            problems.append(f"{name} fails on the dual digraph")
    lower = [0] * C.n
    for _, b in C.covers:
        lower[b] += 1
    joinirr = lower.count(1)
    want = (C.n, len(C.covers), joinirr, sum(1 for u in C.upper if len(u) == 1))
    got = oracles.lattice_counts(out["mpe_up"])
    if got != want:
        problems.append(f"map lattice of the dual has (n, covers, J, M) {got}, expected {want}")
    geo = out["geometry"]
    closed = [frozenset(i for i in range(geo["ground"]) if m >> i & 1) for m in geo["closed"]]
    if len(set(closed)) != C.n or geo["ground"] != joinirr:
        problems.append(
            f"convex geometry has {len(set(closed))} closed sets over {geo['ground']}"
            f" points, expected {C.n} over {joinirr}"
        )
    elif frozenset() not in closed:
        problems.append("the empty set is not closed")
    elif not oracles.anti_exchange(geo["ground"], closed):
        problems.append("anti-exchange fails")
    return problems
