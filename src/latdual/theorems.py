"""Exhaustive verification of the duality statements over small catalogs.

Each registry record pairs an identifier with a predicate quantified over
every lattice in the catalog, every axiom-passing digraph in the digraph
catalog, or both. A record fails by producing counterexamples, never by
raising. One-directional implications also collect non-converse
witnesses: cases where the conclusion holds but a hypothesis fails,
demonstrating that the implication cannot be reversed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from ._bits import bits
from .convexity import cld_lattice, is_zero_closure, lattice_to_convex_geometry, satisfies_aep
from .digraph import Digraph, _reduction_witness, check_djsd, check_lti, check_tirs, digraph_to_json
from .duality import (
    dual_digraph,
    mdfips,
    mdfips_bruteforce,
    mpe_enumerate,
    mpe_lattice,
    roundtrip_digraph,
    roundtrip_lattice,
    t_set,
)
from .enumeration import _reflexive_row_options, enumerate_lattices, enumerate_tirs_digraphs
from .errors import UnknownProperty
from .lattice import (
    find_n5_sublattices,
    join_irreducibles,
    lattice_isomorphic,
    lattice_to_json,
    meet_irreducibles,
)
from .properties import DIGRAPH_CHECKS, LATTICE_CHECKS, check_lattice_property


class _Case:
    """A lattice and a digraph dual to each other, one of them from a
    catalog, with lazily computed derived data."""

    def __init__(self):
        self._flags = {}

    @cached_property
    def maps(self):
        return mpe_enumerate(self.digraph)

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
    id: str
    statement: str
    lattice_check: object = None
    digraph_check: object = None
    extra_check: object = None
    nonconverse: object = None


@dataclass
class TheoremCheck:
    id: str
    statement: str
    domain: str
    passed: bool
    checked: int
    counterexamples: list = field(default_factory=list)
    non_converse_witnesses: list = field(default_factory=list)


def _flags_detail(case, names):
    return {"flags": {n: case.flag(n) for n in names}}


def _implication(hyps, concs):
    def chk(case):
        if all(case.flag(h) for h in hyps) and not all(case.flag(c) for c in concs):
            return False, _flags_detail(case, hyps + concs)
        return True, None

    return chk


def _equivalence(left, right):
    def chk(case):
        a = all(case.flag(x) for x in left)
        b = all(case.flag(x) for x in right)
        if a != b:
            return False, _flags_detail(case, left + right)
        return True, None

    return chk


def _nonconverse(hyps, concs):
    def chk(case):
        return all(case.flag(c) for c in concs) and not all(
            case.flag(h) for h in hyps
        )

    return chk


# -- bespoke per-statement checks ---------------------------------------


def _prop_2_2(case):
    L = case.lattice
    ji = set(join_irreducibles(L))
    mi = set(meet_irreducibles(L))
    for a, b in case.pairs_by_definition:
        if a not in ji or b not in mi:
            return False, {"pair": [a, b]}
    return True, None


def _lem_2_3(case):
    L = case.lattice
    G = case.digraph
    verts = case.pairs
    for i, (a, b) in enumerate(verts):
        for j, (c, d) in enumerate(verts):
            if (G.rows[i] & ~G.rows[j] == 0) != L.leq(a, c):
                return False, {"x": [a, b], "y": [c, d], "side": "out"}
            if (G.cols[i] & ~G.cols[j] == 0) != L.leq(d, b):
                return False, {"x": [a, b], "y": [c, d], "side": "in"}
    return True, None


def _prop_2_5(case):
    rep = check_tirs(case.digraph)
    if rep:
        return True, None
    return False, {"witness": list(rep.witness)}


def _thm_2_6_lattice(case):
    if roundtrip_lattice(case.lattice):
        return True, None
    return False, None


def _thm_2_6_digraph(case):
    if roundtrip_digraph(case.digraph):
        return True, None
    return False, None


def _ploscica(maps):
    for f in maps:
        for g in maps:
            if (f.ones <= g.ones) != (g.zeros <= f.zeros):
                return False, {
                    "f": [sorted(f.ones), sorted(f.zeros)],
                    "g": [sorted(g.ones), sorted(g.zeros)],
                }
    return True, None


def _lem_3_1(case):
    L = case.lattice
    ji = join_irreducibles(L)
    mi = meet_irreducibles(L)
    for a in range(L.n):
        for b in range(L.n):
            nle = not L.leq(a, b)
            viaj = any(L.leq(j, a) and not L.leq(j, b) for j in ji)
            viam = any(L.leq(b, m) and not L.leq(a, m) for m in mi)
            if not (nle == viaj == viam):
                return False, {"a": a, "b": b}
    return True, None


def _thm_3_2(case):
    # the characterisation itself, against the definitional enumeration
    L, mi = case.lattice, meet_irreducibles(case.lattice)
    fast = [
        (a, b)
        for a in join_irreducibles(L)
        for b in mi
        if not L.leq(a, b)
        and L.is_cover(b, L.join(a, b)) and L.is_cover(L.meet(a, b), a)
    ]
    slow = case.pairs_by_definition
    if fast == slow:
        return True, None
    return False, {"fast": [list(p) for p in fast], "slow": [list(p) for p in slow]}


def _lem_3_4(case):
    L = case.lattice
    for b in meet_irreducibles(L):
        for a in range(L.n):
            if not L.is_cover(b, L.join(a, b)):
                continue
            for c in bits(L.up[b] & ~(1 << b)):
                if not L.leq(a, c):
                    return False, {"part": "upper", "a": a, "b": b, "c": c}
    for a in join_irreducibles(L):
        for b in range(L.n):
            if not L.is_cover(L.meet(a, b), a):
                continue
            for d in bits(L.down[a] & ~(1 << a)):
                if not L.leq(d, b):
                    return False, {"part": "lower", "a": a, "b": b, "d": d}
    return True, None


def _lem_3_5(case):
    L = case.lattice
    for a in range(L.n):
        for b in range(L.n):
            if L.leq(a, b):
                continue
            ts = t_set(L, a, b)
            for d in ts:
                if any(e != d and L.lt(d, e) for e in ts):
                    continue
                if not L.is_cover(d, L.join(d, a)):
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
    L = case.lattice
    idx = {p: i for i, p in enumerate(case.pairs)}
    G = case.digraph
    for z0, a, b, c, o in find_n5_sublattices(L):
        # the maximal extensions of the pairs (a, c), (c, b) and (b, a)
        xs, ys, ws = (
            [pair for pair in case.pairs if L.leq(pair[0], u) and L.leq(v, pair[1])]
            for u, v in ((a, c), (c, b), (b, a))
        )
        for x in xs:
            for y in ys:
                for w in ws:
                    if len({x, y, w}) != 3:
                        return False, {
                            "pentagon": [z0, a, b, c, o],
                            "triple": [list(x), list(y), list(w)],
                            "reason": "not distinct",
                        }
                    i, j, k = idx[x], idx[y], idx[w]
                    allowed = {(i, j), (j, k)}
                    for p, q in (
                        (i, j), (j, i), (i, k), (k, i), (j, k), (k, j),
                    ):
                        if G.has_arc(p, q) and (p, q) not in allowed:
                            return False, {
                                "pentagon": [z0, a, b, c, o],
                                "triple": [list(x), list(y), list(w)],
                                "arc": [list(case.pairs[p]), list(case.pairs[q])],
                            }
    return True, None


def _thm_4_10_lattice(case):
    md = case.flag("md")
    three = case.flag("djsd") and _reduction_witness(case.digraph) is None and case.flag("lti")
    if md != three:
        return False, {"md": md, "djsd_r_lti": three}
    return True, None


def _thm_4_10_scan():
    # the hypotheses do not presuppose the axiom class, so run them over
    # every reflexive digraph on up to 3 vertices
    checked = 0
    cexs = []
    for v in range(1, 4):
        for rows in product(*_reflexive_row_options(v)):
            G = Digraph(rows)
            if not (check_djsd(G) and check_lti(G) and _reduction_witness(G) is None):
                continue
            checked += 1
            ok = (
                check_tirs(G)
                and bool(check_lattice_property("md", mpe_lattice(G)))
                and roundtrip_digraph(G)
            )
            if not ok:
                cexs.append({"digraph": digraph_to_json(G), "detail": None})
    return checked, cexs


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
        lattice_check=lambda case: _ploscica(case.maps),
        digraph_check=lambda case: _ploscica(case.maps),
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
        lattice_check=_equivalence(("jmlsm",), ("labc",)),
    ),
    TheoremRecord(
        "THM_3_10",
        "upward extendability of disjoint irreducible pairs holds iff the "
        "dual digraph satisfies the lower interpolation axiom",
        lattice_check=_equivalence(("labc",), ("lti",)),
    ),
    TheoremRecord(
        "PROP_3_12",
        "downward extendability of disjoint irreducible pairs holds iff "
        "the irreducible-restricted upper semimodular law holds",
        lattice_check=_equivalence(("uabc",), ("jmusm",)),
    ),
    TheoremRecord(
        "THM_3_13",
        "the irreducible-restricted lower semimodular law corresponds to "
        "lower interpolation in the dual, in both directions of the "
        "duality",
        lattice_check=_equivalence(("jmlsm",), ("lti",)),
        digraph_check=_equivalence(("lti",), ("jmlsm",)),
    ),
    TheoremRecord(
        "THM_3_15",
        "the irreducible-restricted upper semimodular law corresponds to "
        "upper interpolation in the dual, in both directions of the "
        "duality",
        lattice_check=_equivalence(("jmusm",), ("uti",)),
        digraph_check=_equivalence(("uti",), ("jmusm",)),
    ),
    TheoremRecord(
        "THM_4_1",
        "meet distributivity is equivalent to join semidistributivity "
        "plus lower semimodularity",
        lattice_check=_equivalence(("md",), ("jsd", "lsm")),
    ),
    TheoremRecord(
        "THM_4_2",
        "the irreducible-restricted lower semimodular law plus the "
        "irreducible-restricted join semidistributive law imply lower "
        "semimodularity",
        lattice_check=_implication(("jmlsm", "wjsd"), ("lsm",)),
        nonconverse=_nonconverse(("jmlsm", "wjsd"), ("lsm",)),
    ),
    TheoremRecord(
        "COR_4_5",
        "meet distributivity is equivalent to join semidistributivity "
        "plus the irreducible-restricted lower semimodular law",
        lattice_check=_equivalence(("md",), ("jmlsm", "jsd")),
    ),
    TheoremRecord(
        "THM_4_6_I",
        "join semidistributivity corresponds to pairwise distinct in-sets "
        "in the dual, in both directions",
        lattice_check=_equivalence(("jsd",), ("djsd",)),
        digraph_check=_equivalence(("djsd",), ("jsd",)),
    ),
    TheoremRecord(
        "THM_4_6_II",
        "meet semidistributivity corresponds to pairwise distinct "
        "out-sets in the dual, in both directions",
        lattice_check=_equivalence(("msd",), ("dmsd",)),
        digraph_check=_equivalence(("dmsd",), ("msd",)),
    ),
    TheoremRecord(
        "THM_4_6_III",
        "semidistributivity corresponds to pairwise distinct in-sets and "
        "out-sets in the dual, in both directions",
        lattice_check=_equivalence(("sd",), ("dsd",)),
        digraph_check=_equivalence(("dsd",), ("sd",)),
    ),
    TheoremRecord(
        "THM_4_7",
        "distinct out-sets plus lower interpolation force a transitive "
        "arc relation",
        lattice_check=_implication(("dmsd", "lti"), ("trans",)),
        digraph_check=_implication(("dmsd", "lti"), ("trans",)),
    ),
    TheoremRecord(
        "PROP_4_8",
        "a transitive axiom-passing digraph is a partial order",
        lattice_check=_implication(("trans",), ("poset",)),
        digraph_check=_implication(("trans",), ("poset",)),
    ),
    TheoremRecord(
        "COR_4_9",
        "meet semidistributivity plus the irreducible-restricted lower "
        "semimodular law imply distributivity",
        lattice_check=_implication(("msd", "jmlsm"), ("dist",)),
        nonconverse=_nonconverse(("msd", "jmlsm"), ("dist",)),
    ),
    TheoremRecord(
        "THM_4_10",
        "a reflexive digraph is the dual of a meet distributive lattice "
        "iff it has distinct in-sets, the reduction axiom and lower "
        "interpolation",
        lattice_check=_thm_4_10_lattice,
        digraph_check=_equivalence(("djsd", "lti"), ("md",)),
        extra_check=_thm_4_10_scan,
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
        lattice_check=_implication(("fis",), ("lsm",)),
        nonconverse=_nonconverse(("fis",), ("lsm",)),
    ),
    TheoremRecord(
        "PROP_5_2_B",
        "a dual digraph without induced two-arc-path or single-arc "
        "triples forces upper semimodularity",
        lattice_check=_implication(("fis",), ("usm",)),
        nonconverse=_nonconverse(("fis",), ("usm",)),
    ),
    TheoremRecord(
        "THM_5_3",
        "a dual digraph without induced two-arc-path or single-arc "
        "triples forces modularity",
        lattice_check=_implication(("fis",), ("mod",)),
        nonconverse=_nonconverse(("fis",), ("mod",)),
    ),
    TheoremRecord(
        "COR_5_6",
        "both weak transitivity conditions on the dual force modularity",
        lattice_check=_implication(("wt0", "wt1"), ("mod",)),
        nonconverse=_nonconverse(("wt0", "wt1"), ("mod",)),
    ),
)

REGISTRY_IDS = tuple(rec.id for rec in REGISTRY)


def verify_theorems(max_n=7):
    """Run every registry record over the catalogs bounded by max_n.

    The digraph catalog bound follows the lattice bound: v <= 5 when
    max_n >= 7, else v <= 4. Returns a list of TheoremCheck in registry
    order; a check passes iff it found no counterexample.
    """
    catalog = enumerate_lattices(max_n)
    max_v = 5 if max_n >= 7 else 4
    digs = enumerate_tirs_digraphs(max_v)
    lcases = [LatticeCase(L) for L in catalog.entries]
    gcases = [DigraphCase(G) for G in digs]
    out = []
    for rec in REGISTRY:
        checked = 0
        cexs = []
        ncw = []
        domains = []
        if rec.lattice_check:
            domains.append(f"lattices(n<={max_n})")
            for case in lcases:
                checked += 1
                ok, detail = rec.lattice_check(case)
                if not ok:
                    item = case.describe()
                    if detail is not None:
                        item["detail"] = detail
                    cexs.append(item)
        if rec.digraph_check:
            domains.append(f"digraphs(v<={max_v})")
            for case in gcases:
                checked += 1
                ok, detail = rec.digraph_check(case)
                if not ok:
                    item = case.describe()
                    if detail is not None:
                        item["detail"] = detail
                    cexs.append(item)
        if rec.extra_check:
            domains.append("reflexive-scan(v<=3)")
            extra_checked, extra_cexs = rec.extra_check()
            checked += extra_checked
            cexs.extend(extra_cexs)
        if rec.nonconverse:
            for case in lcases:
                if rec.nonconverse(case):
                    ncw.append(case.describe())
        out.append(
            TheoremCheck(
                id=rec.id,
                statement=rec.statement,
                domain="+".join(domains),
                passed=not cexs,
                checked=checked,
                counterexamples=cexs,
                non_converse_witnesses=ncw,
            )
        )
    return out


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
    the dual digraph.
    """
    for name in (holds, fails):
        if name not in LATTICE_CHECKS and name not in DIGRAPH_CHECKS:
            raise UnknownProperty(f"no property named {name!r}")
    out = []
    for L in enumerate_lattices(max_n).entries:
        if check_lattice_property(holds, L) and not check_lattice_property(fails, L):
            out.append(L)
    return out
