"""Exhaustive verification of the duality statements over small catalogs.

Each registry record pairs an identifier with a statement quantified over
every lattice in the catalog, every axiom-passing digraph in the digraph
catalog, or both. A record fails by producing counterexamples, never by
raising.

Most statements are equivalences or implications between named lattice
laws and digraph conditions; their records are data (``iff`` or
``implies``), checked by one evaluator, ``TheoremRecord.flag_check``.
On the digraph catalog an equivalence is read right to left. Every
implication also collects non-converse witnesses over the lattice
catalog: cases where the conclusions hold but a hypothesis fails, which
show that the implication cannot be reversed there. The other
statements compute something of their own and carry bespoke checks.

The bespoke checks read the order as bitmask rows rather than through
``leq`` and ``meet``/``join`` calls: one comparison is ``up[a] >> b & 1``,
and "some x with ..." is one row expression, such as
``down[a] & ~down[b] & ji`` for a join irreducible below a but not b.
That changes how a check computes, never what it tests or reports. The
derived data of a case (dual digraph, MDFIPs, maps, map lattice) is
built once and shared by every statement.

The campaign runs in two processes, one per catalog, as the catalogs
share no data: a child made by ``os.fork`` runs the digraph side (the
TiRS catalog and the THM_4_10 reflexive scan) while the calling process
runs the lattice side. Each side is case-major: one loop, ``_sweep``,
visits each case once, runs every record's check and non-converse test
on it, and drops it, so a case's derived data lives only while the case
is visited. That holds for the catalog objects too: the lattice side
builds each lattice from its level's cached rows as the case is reached
(``enumeration._lattices``), and the child builds its digraphs. The same
loop sweeps the THM_4_10 scan, a case source of its own record. The
per-record parts are merged into the registry order of the report, each
record's counterexamples and witnesses in case order, lattice side first.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product

from ._bits import bits, mask, union
from .convexity import cld_lattice, is_zero_closure, lattice_to_convex_geometry, satisfies_aep
from .digraph import Digraph, _reduction_witness, check_tirs, digraph_to_json
from .duality import (
    dual_digraph,
    map_masks,
    mdfips,
    mdfips_bruteforce,
    mpe_lattice,
    roundtrip_digraph,
    roundtrip_lattice,
)
from .enumeration import _lattices, _reflexive_row_options, enumerate_tirs_digraphs
from .errors import UnknownProperty
from .lattice import (
    find_n5_sublattices,
    join_irreducibles,
    lattice_isomorphic,
    lattice_to_json,
    meet_irreducibles,
    order_dual,
)
from .properties import DIGRAPH_CHECKS, LATTICE_CHECKS, _jm_cover_pairs


class _Case:
    """A lattice and a digraph dual to each other, one of them from a
    catalog, with lazily computed derived data."""

    def __init__(self):
        self._flags = {}

    def flag(self, name):
        """A lattice law of the lattice, or a digraph condition of the
        digraph; the two registries share no name."""
        if name not in self._flags:
            if name in LATTICE_CHECKS:
                rep = LATTICE_CHECKS[name](self.lattice)
            else:
                rep = DIGRAPH_CHECKS[name](self.digraph)
            self._flags[name] = bool(rep)
        return self._flags[name]

    def holds(self, names):
        return all(self.flag(n) for n in names)


class LatticeCase(_Case):
    """One catalog lattice and its dual digraph."""

    def __init__(self, L):
        super().__init__()
        self.lattice = L

    @cached_property
    def digraph(self):
        return dual_digraph(self.lattice)

    @cached_property
    def pairs(self):
        return mdfips(self.lattice)

    @cached_property
    def pairs_by_definition(self):
        # the definitional enumeration, the reference for PROP_2_2 and THM_3_2
        return mdfips_bruteforce(self.lattice)

    def describe(self):
        return {"lattice": lattice_to_json(self.lattice)}


class DigraphCase(_Case):
    """One catalog digraph and its map lattice."""

    def __init__(self, G):
        super().__init__()
        self.digraph = G

    @cached_property
    def lattice(self):
        return mpe_lattice(self.digraph)

    def describe(self):
        return {"digraph": digraph_to_json(self.digraph)}


@dataclass(frozen=True)
class TheoremRecord:
    """One statement of the paper and how the campaign checks it.

    A flag statement is data. ``iff=(left, right)`` says that the flags
    named in ``left`` all hold iff those in ``right`` all hold;
    ``implies=(hyps, concs)`` says that ``hyps`` force ``concs``. A flag
    is a lattice law of the case's lattice or a digraph condition of its
    digraph. Every record runs over the lattice catalog, and with
    ``digraphs`` (or a ``digraph_check``) over the digraph catalog too,
    where an equivalence is read right to left, so that a failure lists
    the digraph conditions first. Every implication also collects
    non-converse witnesses over the lattice cases: conclusions hold, a
    hypothesis fails.

    A bespoke statement gives ``lattice_check``/``digraph_check``, each
    mapping one case to (ok, detail), and ``scan``, a pair of a case
    source, called with no arguments, and such a check, run over the
    digraph cases of a scan of its own. A side with its own check reads
    no flags.
    """

    id: str
    statement: str
    iff: tuple = None
    implies: tuple = None
    digraphs: bool = False
    lattice_check: object = None
    digraph_check: object = None
    scan: tuple = None

    def flag_check(self, case, reverse=False):
        """The flag statement on one case; ``reverse`` reads an
        equivalence right to left. A failure's detail gives every flag
        of the statement, in the order read."""
        if self.iff:
            left, right = self.iff[::-1] if reverse else self.iff
            ok = case.holds(left) == case.holds(right)
        else:
            left, right = self.implies
            ok = not case.holds(left) or case.holds(right)
        if ok:
            return True, None
        return False, {"flags": {n: case.flag(n) for n in left + right}}


@dataclass
class TheoremCheck:
    id: str
    statement: str
    domain: str
    passed: bool
    checked: int
    counterexamples: list = field(default_factory=list)
    non_converse_witnesses: list = field(default_factory=list)


# -- bespoke per-statement checks ---------------------------------------


def _prop_2_2(case):
    L = case.lattice
    ji, mi = mask(join_irreducibles(L)), mask(meet_irreducibles(L))
    for a, b in case.pairs_by_definition:
        if not ji >> a & 1 or not mi >> b & 1:
            return False, {"pair": [a, b]}
    return True, None


def _lem_2_3(case):
    up, down = case.lattice.up, case.lattice.down
    rows, cols = case.digraph.rows, case.digraph.cols
    verts = case.pairs
    for i, (a, b) in enumerate(verts):
        out_i, in_i, above_a, below_b = rows[i], cols[i], up[a], down[b]
        for j, (c, d) in enumerate(verts):
            if (not out_i & ~rows[j]) != (above_a >> c & 1):
                return False, {"x": [a, b], "y": [c, d], "side": "out"}
            if (not in_i & ~cols[j]) != (below_b >> d & 1):
                return False, {"x": [a, b], "y": [c, d], "side": "in"}
    return True, None


def _prop_2_5(case):
    rep = check_tirs(case.digraph)
    return (True, None) if rep else (False, {"witness": list(rep.witness)})


def _thm_2_6_lattice(case):
    # the case's own dual digraph, so the round trip builds only its map lattice
    return roundtrip_lattice(case.lattice, case.digraph), None


def _thm_2_6_digraph(case):
    # the case's own map lattice, so the round trip builds only its dual
    return roundtrip_digraph(case.digraph, case.lattice), None


def _ploscica(masks):
    # masks: the (one-set, zero-set) masks of the maximal maps
    for f_ones, f_zeros in masks:
        for g_ones, g_zeros in masks:
            if (not f_ones & ~g_ones) != (not g_zeros & ~f_zeros):
                return False, {
                    "f": [list(bits(f_ones)), list(bits(f_zeros))],
                    "g": [list(bits(g_ones)), list(bits(g_zeros))],
                }
    return True, None


def _lem_3_1(case):
    L = case.lattice
    up, down = L.up, L.down
    ji, mi = mask(join_irreducibles(L)), mask(meet_irreducibles(L))
    for a in range(L.n):
        for b in range(L.n):
            nle = not up[a] >> b & 1
            viaj = bool(down[a] & ~down[b] & ji)
            viam = bool(up[b] & ~up[a] & mi)
            if not (nle == viaj == viam):
                return False, {"a": a, "b": b}
    return True, None


def _thm_3_2(case):
    # the characterisation itself, against the definitional enumeration
    up = case.lattice.up
    fast = [
        (a, b)
        for a, b, covered in _jm_cover_pairs(case.lattice)
        if not up[a] >> b & 1 and all(covered)
    ]
    slow = case.pairs_by_definition
    if fast == slow:
        return True, None
    return False, {"fast": [list(p) for p in fast], "slow": [list(p) for p in slow]}


def _lem_3_4(case):
    # upper part: for b meet irreducible, b covered by a|b puts all of
    # up[b] but b above a; the lower part is the upper part of the order
    # dual, with a and b trading roles. As in _jm_cover_pairs, x is
    # covered by x|y iff y is not below x and an upper cover of x is
    # above y
    L = case.lattice
    for part, key, M in (("upper", "c", L), ("lower", "d", order_dual(L))):
        up, upper = M.up, M._upper
        for x in meet_irreducibles(M):
            strict = up[x] & ~(1 << x)
            for y in range(M.n):
                uy = up[y]
                if uy >> x & 1 or not upper[x] & uy:
                    continue
                # strictly above x but not above y
                bad = strict & ~uy
                if bad:
                    a, b = (y, x) if M is L else (x, y)
                    c = (bad & -bad).bit_length() - 1
                    return False, {"part": part, "a": a, "b": b, key: c}
    return True, None


def _lem_3_5(case):
    L = case.lattice
    up, upper = L.up, L._upper
    mi = mask(meet_irreducibles(L))
    for a in range(L.n):
        for b in range(L.n):
            if up[a] >> b & 1:
                continue
            # the meet irreducibles above b that avoid a
            ts = mi & up[b] & ~up[a]
            for d in bits(ts):
                if up[d] & ts != 1 << d:
                    continue  # not maximal in ts
                # a is not below d, so d is covered by d|a iff an upper
                # cover of d is above a
                if not upper[d] & up[a]:
                    return False, {"a": a, "b": b, "d": d}
    return True, None


def _prop_3_7(case):
    L = case.lattice
    firsts = {a for a, _ in case.pairs}
    seconds = {b for _, b in case.pairs}
    for a in join_irreducibles(L):
        if a not in firsts:
            return False, {"unmatched_join_irreducible": a}
    for b in meet_irreducibles(L):
        if b not in seconds:
            return False, {"unmatched_meet_irreducible": b}
    return True, None


def _lem_5_1(case):
    """The MDFIPs extending each pentagon's pairs (a, c), (c, b) and
    (b, a) are read as vertex masks, built from the case's own pairs:
    those (a2, b2) with a2 <= u and b2 >= v are
    ``union(by_a, down[u]) & union(by_b, up[v])``, where ``by_a[e]`` and
    ``by_b[e]`` hold the vertices whose first or second generator is e.
    Bits come lowest first, so triples come in pair order, as
    ``maximal_extensions`` lists them; distinctness is tested on the
    pairs, not on their vertices."""
    L, pairs, rows = case.lattice, case.pairs, case.digraph.rows
    by_a, by_b = [0] * L.n, [0] * L.n
    for i, (a, b) in enumerate(pairs):
        by_a[a] |= 1 << i
        by_b[b] |= 1 << i
    for z0, a, b, c, o in find_n5_sublattices(L):
        ext = (union(by_a, L.down[u]) & union(by_b, L.up[v]) for u, v in ((a, c), (c, b), (b, a)))
        for i, j, k in product(*map(bits, ext)):
            x, y, w = pairs[i], pairs[j], pairs[k]
            if len({x, y, w}) != 3:
                fault = {"reason": "not distinct"}
            else:
                # of the six arcs among distinct i, j, k, only (i, j) and (j, k) are allowed
                bad = [(p, q) for p, q in ((j, i), (i, k), (k, i), (k, j)) if rows[p] >> q & 1]
                fault = bad and {"arc": [list(pairs[q]) for q in bad[0]]}
            if fault:
                return False, {
                    "pentagon": [z0, a, b, c, o],
                    "triple": [list(x), list(y), list(w)],
                    **fault,
                }
    return True, None


def _thm_4_10_lattice(case):
    md = case.flag("md")
    three = case.flag("djsd") and _reduction_witness(case.digraph) is None and case.flag("lti")
    if md != three:
        return False, {"md": md, "djsd_r_lti": three}
    return True, None


def _thm_4_10_cases():
    # the hypotheses do not presuppose the axiom class, so the scan runs
    # over every reflexive digraph on up to 3 vertices that meets them
    for v in range(1, 4):
        for rows in product(*_reflexive_row_options(v)):
            case = DigraphCase(Digraph(rows))
            if case.flag("djsd") and case.flag("lti") and _reduction_witness(case.digraph) is None:
                yield case


def _thm_4_10_conclusion(case):
    # md and the round trip read the one map lattice of the case
    return case.flag("tirs") and case.flag("md") and _thm_2_6_digraph(case)[0], None


def _thm_4_13(case):
    if not case.flag("md"):
        return True, None
    C = lattice_to_convex_geometry(case.lattice)
    if not is_zero_closure(C):
        return False, {"reason": "empty set not closed"}
    aep = satisfies_aep(C)
    if not aep:
        return False, {"reason": "anti-exchange fails", "witness": list(aep.witness)}
    ok, _ = lattice_isomorphic(cld_lattice(C), case.lattice)
    if not ok:
        return False, {"reason": "closed-set lattice not isomorphic"}
    return True, None


REGISTRY = (
    TheoremRecord(
        "PROP_2_2",
        "both generators of a maximal disjoint filter-ideal pair are "
        "irreducible: the filter generator join-, the ideal generator meet-",
        lattice_check=_prop_2_2,
    ),
    TheoremRecord(
        "LEM_2_3",
        "in the dual digraph, out-set inclusion matches order on filter "
        "generators and in-set inclusion matches reversed order on ideal "
        "generators",
        lattice_check=_lem_2_3,
    ),
    TheoremRecord(
        "PROP_2_5",
        "the dual digraph of a finite lattice satisfies separation, "
        "reduction and interpolation",
        lattice_check=_prop_2_5,
    ),
    TheoremRecord(
        "THM_2_6",
        "a finite lattice is isomorphic to the map lattice of its dual "
        "digraph, and an axiom-passing digraph to the dual of its map "
        "lattice",
        lattice_check=_thm_2_6_lattice,
        digraph_check=_thm_2_6_digraph,
    ),
    TheoremRecord(
        "PLOSCICA_LEMMA",
        "between maximal arc-preserving maps, one-set inclusion is "
        "equivalent to reverse zero-set inclusion",
        lattice_check=lambda case: _ploscica(map_masks(case.digraph)),
        digraph_check=lambda case: _ploscica(map_masks(case.digraph)),
    ),
    TheoremRecord(
        "LEM_3_1",
        "a is not below b iff some join irreducible is below a but not b, "
        "iff some meet irreducible is above b but not above a",
        lattice_check=_lem_3_1,
    ),
    TheoremRecord(
        "THM_3_2",
        "maximal disjoint pairs are exactly the irreducible pairs (a, b) "
        "with a not below b, b covered by a|b, and a^b covered by a",
        lattice_check=_thm_3_2,
    ),
    TheoremRecord(
        "LEM_3_4",
        "if a meet irreducible b is covered by a|b then everything "
        "strictly above b is above a; dually below a join irreducible",
        lattice_check=_lem_3_4,
    ),
    TheoremRecord(
        "LEM_3_5",
        "for a not below b, every maximal meet irreducible above b "
        "avoiding a is covered by its join with a",
        lattice_check=_lem_3_5,
    ),
    TheoremRecord(
        "PROP_3_7",
        "every join irreducible generates some maximal disjoint pair, and "
        "every meet irreducible completes one",
        lattice_check=_prop_3_7,
    ),
    TheoremRecord(
        "THM_3_8",
        "the irreducible-restricted lower semimodular law holds iff every "
        "disjoint irreducible pair extends upward to a maximal pair",
        iff=(("jmlsm",), ("labc",)),
    ),
    TheoremRecord(
        "THM_3_10",
        "upward extendability of disjoint irreducible pairs holds iff the "
        "dual digraph satisfies the lower interpolation axiom",
        iff=(("labc",), ("lti",)),
    ),
    TheoremRecord(
        "PROP_3_12",
        "downward extendability of disjoint irreducible pairs holds iff "
        "the irreducible-restricted upper semimodular law holds",
        iff=(("uabc",), ("jmusm",)),
    ),
    TheoremRecord(
        "THM_3_13",
        "the irreducible-restricted lower semimodular law corresponds to "
        "lower interpolation in the dual, in both directions of the "
        "duality",
        iff=(("jmlsm",), ("lti",)),
        digraphs=True,
    ),
    TheoremRecord(
        "THM_3_15",
        "the irreducible-restricted upper semimodular law corresponds to "
        "upper interpolation in the dual, in both directions of the "
        "duality",
        iff=(("jmusm",), ("uti",)),
        digraphs=True,
    ),
    TheoremRecord(
        "THM_4_1",
        "meet distributivity is equivalent to join semidistributivity "
        "plus lower semimodularity",
        iff=(("md",), ("jsd", "lsm")),
    ),
    TheoremRecord(
        "THM_4_2",
        "the irreducible-restricted lower semimodular law plus the "
        "irreducible-restricted join semidistributive law imply lower "
        "semimodularity",
        implies=(("jmlsm", "wjsd"), ("lsm",)),
    ),
    TheoremRecord(
        "COR_4_5",
        "meet distributivity is equivalent to join semidistributivity "
        "plus the irreducible-restricted lower semimodular law",
        iff=(("md",), ("jmlsm", "jsd")),
    ),
    TheoremRecord(
        "THM_4_6_I",
        "join semidistributivity corresponds to pairwise distinct in-sets "
        "in the dual, in both directions",
        iff=(("jsd",), ("djsd",)),
        digraphs=True,
    ),
    TheoremRecord(
        "THM_4_6_II",
        "meet semidistributivity corresponds to pairwise distinct "
        "out-sets in the dual, in both directions",
        iff=(("msd",), ("dmsd",)),
        digraphs=True,
    ),
    TheoremRecord(
        "THM_4_6_III",
        "semidistributivity corresponds to pairwise distinct in-sets and "
        "out-sets in the dual, in both directions",
        iff=(("sd",), ("dsd",)),
        digraphs=True,
    ),
    TheoremRecord(
        "THM_4_7",
        "distinct out-sets plus lower interpolation force a transitive "
        "arc relation",
        implies=(("dmsd", "lti"), ("trans",)),
        digraphs=True,
    ),
    TheoremRecord(
        "PROP_4_8",
        "a transitive axiom-passing digraph is a partial order",
        implies=(("trans",), ("poset",)),
        digraphs=True,
    ),
    TheoremRecord(
        "COR_4_9",
        "meet semidistributivity plus the irreducible-restricted lower "
        "semimodular law imply distributivity",
        implies=(("msd", "jmlsm"), ("dist",)),
    ),
    TheoremRecord(
        "THM_4_10",
        "a reflexive digraph is the dual of a meet distributive lattice "
        "iff it has distinct in-sets, the reduction axiom and lower "
        "interpolation",
        iff=(("md",), ("djsd", "lti")),
        digraphs=True,
        lattice_check=_thm_4_10_lattice,
        scan=(_thm_4_10_cases, _thm_4_10_conclusion),
    ),
    TheoremRecord(
        "THM_4_13",
        "a meet distributive lattice is the closed-set lattice of a "
        "zero-closure system with the anti-exchange law, built on its "
        "join irreducibles",
        lattice_check=_thm_4_13,
    ),
    TheoremRecord(
        "LEM_5_1",
        "any maximal extensions of the three disjoint pairs read off a "
        "pentagon sublattice are distinct dual vertices carrying at most "
        "the two path arcs",
        lattice_check=_lem_5_1,
    ),
    TheoremRecord(
        "PROP_5_2_A",
        "a dual digraph without induced two-arc-path or single-arc "
        "triples forces lower semimodularity",
        implies=(("fis",), ("lsm",)),
    ),
    TheoremRecord(
        "PROP_5_2_B",
        "a dual digraph without induced two-arc-path or single-arc "
        "triples forces upper semimodularity",
        implies=(("fis",), ("usm",)),
    ),
    TheoremRecord(
        "THM_5_3",
        "a dual digraph without induced two-arc-path or single-arc "
        "triples forces modularity",
        implies=(("fis",), ("mod",)),
    ),
    TheoremRecord(
        "COR_5_6",
        "both weak transitivity conditions on the dual force modularity",
        implies=(("wt0", "wt1"), ("mod",)),
    ),
)

REGISTRY_IDS = tuple(rec.id for rec in REGISTRY)


def _sweep(domain, cases, checks, implications):
    """Visit each case once: run every record's check on it, then the
    non-converse test of every implication, then drop the case.

    ``checks`` maps a record id to its check of one case, and
    ``implications`` a record id to its (hyps, concs). Returns record id
    -> [(domain, checked, counterexamples, non-converse witnesses)],
    each list in case order.
    """
    cexs = {rid: [] for rid in checks}
    ncw = {rid: [] for rid in checks}
    checked = 0
    for case in cases:
        checked += 1
        for rid, check in checks.items():
            ok, detail = check(case)
            if not ok:
                item = case.describe()
                if detail is not None:
                    item["detail"] = detail
                cexs[rid].append(item)
        for rid, (hyps, concs) in implications.items():
            if case.holds(concs) and not case.holds(hyps):
                ncw[rid].append(case.describe())
    return {rid: [(domain, checked, cexs[rid], ncw[rid])] for rid in checks}


def _lattice_side(max_n):
    """Every record over the lattice catalog, with the non-converse
    witnesses of every implication."""
    checks = {rec.id: rec.lattice_check or rec.flag_check for rec in REGISTRY}
    implications = {rec.id: rec.implies for rec in REGISTRY if rec.implies}
    cases = (LatticeCase(L) for L in _lattices(max_n))
    return _sweep(f"lattices(n<={max_n})", cases, checks, implications)


def _digraph_side(max_v):
    """The records that run on the digraph catalog, over it, and the
    scans of their own (the THM_4_10 reflexive scan)."""
    checks = {
        rec.id: rec.digraph_check or partial(rec.flag_check, reverse=True)
        for rec in REGISTRY
        if rec.digraphs or rec.digraph_check
    }
    cases = (DigraphCase(G) for G in enumerate_tirs_digraphs(max_v))
    parts = _sweep(f"digraphs(v<={max_v})", cases, checks, {})
    for rec in REGISTRY:
        if rec.scan:
            source, check = rec.scan
            found = _sweep("reflexive-scan(v<=3)", source(), {rec.id: check}, {})
            parts.setdefault(rec.id, []).extend(found[rec.id])
    return parts


def _merge(*sides):
    """One TheoremCheck per record, in registry order, from the parts of
    each side, taken in the order given."""
    out = []
    for rec in REGISTRY:
        parts = [part for side in sides for part in side.get(rec.id, ())]
        cexs = [c for _, _, found, _ in parts for c in found]
        out.append(
            TheoremCheck(
                id=rec.id,
                statement=rec.statement,
                domain="+".join(domain for domain, _, _, _ in parts),
                passed=not cexs,
                checked=sum(checked for _, checked, _, _ in parts),
                counterexamples=cexs,
                non_converse_witnesses=[w for _, _, _, ws in parts for w in ws],
            )
        )
    return out


def verify_theorems(max_n=7):
    """Run every registry record over the catalogs bounded by max_n.

    The digraph catalog bound follows the lattice bound: v <= 5 when
    max_n >= 7, else v <= 4. Returns a list of TheoremCheck in registry
    order; a check passes iff it found no counterexample.

    The two catalogs share no data, so the digraph side runs in a forked
    child while this process runs the lattice side; the child sends its
    parts back pickled through a pipe, or the exception it raised, which
    is raised here again. If this process raises or is interrupted first,
    it kills the child; either way the child is reaped before returning.
    Without ``os.fork`` both sides run here, one after the other.
    """
    max_v = 5 if max_n >= 7 else 4
    if not hasattr(os, "fork"):
        return _merge(_lattice_side(max_n), _digraph_side(max_v))
    import pickle

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                payload = (True, _digraph_side(max_v))
            except BaseException as exc:
                payload = (False, exc)
            with os.fdopen(w, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        try:
            lattices = _lattice_side(max_n)
            data = fh.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    if not data:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"the digraph side sent no result (exit code {code})")
    ok, digraphs = pickle.loads(data)
    if not ok:
        raise digraphs
    return _merge(lattices, digraphs)


def report_to_json(checks):
    """Registry-ordered mapping id -> verdict, ready for json.dump."""
    return {
        "results": {
            c.id: {
                "statement": c.statement,
                "domain": c.domain,
                "pass": c.passed,
                "checked": c.checked,
                "counterexamples": c.counterexamples,
                "non_converse_witnesses": c.non_converse_witnesses,
            }
            for c in checks
        }
    }


def render_report(checks):
    lines = []
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        extra = ""
        if c.non_converse_witnesses:
            extra = f", {len(c.non_converse_witnesses)} non-converse witnesses"
        if not c.passed:
            extra += f", {len(c.counterexamples)} counterexamples"
        lines.append(f"{mark} {c.id} [{c.domain}] checked {c.checked}{extra}")
    total = sum(1 for c in checks if c.passed)
    lines.append(f"{total}/{len(checks)} statements verified")
    return "\n".join(lines)


def search_counterexamples(holds, fails, max_n=7):
    """Catalog lattices where property `holds` is true and `fails` is false.

    Both names may be lattice laws or digraph axioms; axioms are read off
    the dual digraph, built once per lattice.
    """
    for name in (holds, fails):
        if name not in LATTICE_CHECKS and name not in DIGRAPH_CHECKS:
            raise UnknownProperty(f"no property named {name!r}")
    out = []
    for L in _lattices(max_n):
        case = LatticeCase(L)
        if case.flag(holds) and not case.flag(fails):
            out.append(L)
    return out
