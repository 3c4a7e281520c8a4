"""Property deciders for lattices and reflexive digraphs.

Every decider returns a PropertyReport. Witnesses are the first failing
tuple in lexicographic scan order, so reports are stable across runs.
Digraph-side property names can also be asked of a lattice, in which case
they are evaluated on its dual digraph.

Three laws are decided in O(n^2) from the meet and join row tables, by
reformulations of their definitions:

- jsd: for each a, the law holds iff every class {b : a|b = x} is closed
  under binary meets, iff a|m = x for the meet m of the class (a closed
  class contains m; conversely m <= b^c <= b gives
  x = a|m <= a|(b^c) <= a|b = x).
- msd: the order dual of jsd, with the join of each class {b : a^b = x}.
- dist: the cancellation law; for each a, b -> (a^b, a|b) is injective.

Only when one of these fails does the lexicographic scan of the defining
identity run, to find the witness; if it finds none, RuntimeError is
raised rather than a verdict. Modularity has no such test: its decider
is the scan of the identity, over only the triples where the law can
fail, b incomparable to a and c above a incomparable to b (is_modular
gives the four other cases). usm and lsm read "x is covered by y" as
one bit of a cover row. md builds no table: each interval [mu(a), a] is
distributive iff it is Boolean, which its order rows decide
(is_meet_distributive gives the lemma). The other laws keep their
definitional scans.

Each dual pair of laws has one scan, told which side to decide: jsd and
msd, usm and lsm (the tables and the cover direction swapped), jmlsm and
jmusm, labc and uabc.
"""

from __future__ import annotations

from . import digraph as dg
from ._bits import bits
from .digraph import PropertyReport
from .duality import dual_digraph, mdfips
from .errors import UnknownProperty
from .lattice import join_irreducibles, meet_irreducibles, mu


def _no_witness(name):
    return RuntimeError(f"{name} failed its quadratic check, yet the scan found no witness")


def _semimodular(name, rows, other, into, onto):
    """rows[a][b] covered by a forces b covered by other[a][b]; x covered
    by a is one bit of the cover row into[a], b covered by y one bit of
    onto[b].

    With the meet and join tables, into the lower cover rows and onto
    the upper ones, this is upper semimodularity; with both pairs
    swapped, covers read downward, it is lower semimodularity.
    """
    for a, (ra, oa) in enumerate(zip(rows, other)):
        covered = into[a]
        for b, (x, y) in enumerate(zip(ra, oa)):
            if covered >> x & 1 and not onto[b] >> y & 1:
                return PropertyReport(name, False, (a, b))
    return PropertyReport(name, True)


def is_usm(L):
    """Upper semimodular: a^b covered by a forces b covered by a|b."""
    return _semimodular("usm", L._meet, L._join, L._lower, L._upper)


def is_lsm(L):
    """Lower semimodular: a covered by a|b forces a^b covered by b."""
    return _semimodular("lsm", L._join, L._meet, L._upper, L._lower)


def _jm_cover_pairs(L):
    """(a, b, (b covered by a|b, a^b covered by a)) for every join
    irreducible a and meet irreducible b, read off the meet and join
    tables."""
    mi = meet_irreducibles(L)
    for a in join_irreducibles(L):
        ma, ja = L._meet[a], L._join[a]
        for b in mi:
            yield a, b, (L.is_cover(b, ja[b]), L.is_cover(ma[b], a))


def _jm_semimodular(name, L, side):
    # side 0: the first cover forces the second (jmlsm); side 1: the converse
    for a, b, covered in _jm_cover_pairs(L):
        if covered[side] and not covered[1 - side]:
            return PropertyReport(name, False, (a, b))
    return PropertyReport(name, True)


def is_jm_lsm(L):
    """Join/meet irreducible restriction of lower semimodularity.

    For a join irreducible and b meet irreducible: b covered by a|b
    forces a^b covered by a.
    """
    return _jm_semimodular("jmlsm", L, 0)


def is_jm_usm(L):
    """For a join irreducible and b meet irreducible: a^b covered by a
    forces b covered by a|b."""
    return _jm_semimodular("jmusm", L, 1)


def is_modular(L):
    """a <= c forces a|(b^c) = (a|b)^c.

    Only b incomparable to a, and c above a incomparable to b, are
    scanned; every other triple with a <= c satisfies the law, so the
    first failing triple is the first of the full scan. The four cases:
    - b <= a: both sides are a (b^c = b and a|b = a).
    - a <= b: both sides are b^c (a <= b^c, and a|b = b).
    - c <= b: both sides are c (b^c = c, a|c = c, and c <= a|b).
    - b <= c: both sides are a|b (b^c = b, and a|b <= c).
    """
    meet, join, up, down = L._meet, L._join, L.up, L.down
    full = (1 << L.n) - 1
    for a in range(L.n):
        ja, above = join[a], up[a]
        for b in bits(full & ~(above | down[a])):
            mb, m_ab = meet[b], meet[ja[b]]
            for c in bits(above & ~(up[b] | down[b])):
                if ja[mb[c]] != m_ab[c]:
                    return PropertyReport("mod", False, (a, b, c))
    return PropertyReport("mod", True)


def is_distributive(L):
    """a^(b|c) = (a^b)|(a^c), decided by cancellation: for every a, the map
    b -> (a^b, a|b) is injective."""
    meet, join = L._meet, L._join
    if all(len(set(zip(meet[a], join[a]))) == L.n for a in range(L.n)):
        return PropertyReport("dist", True)
    for a in range(L.n):
        ma = meet[a]
        for b in range(L.n):
            jb, j_ab = join[b], join[ma[b]]
            for c in range(L.n):
                if ma[jb[c]] != j_ab[ma[c]]:
                    return PropertyReport("dist", False, (a, b, c))
    raise _no_witness("dist")


def _semidistributive(name, rows, other):
    """rows[a][b] == rows[a][c] forces rows[a][b] == rows[a][other[b][c]].

    With rows the join table and other the meet table this is join
    semidistributivity; swapped, meet semidistributivity. For each a the
    class {b : rows[a][b] = x} is folded by other into one element m;
    the law holds at a iff rows[a][m] = x for every class.
    """
    n = len(rows)
    for a, row in enumerate(rows):
        fold = [-1] * n
        for b, x in enumerate(row):
            m = fold[x]
            fold[x] = b if m < 0 else other[m][b]
        if all(m < 0 or row[m] == x for x, m in enumerate(fold)):
            continue
        # every earlier a passed, so the first witness has this a
        for b, x in enumerate(row):
            ob = other[b]
            for c in range(n):
                if row[c] == x and row[ob[c]] != x:
                    return PropertyReport(name, False, (a, b, c))
        raise _no_witness(name)
    return PropertyReport(name, True)


def is_jsd(L):
    """Join semidistributive: a|b = a|c forces a|b = a|(b^c)."""
    return _semidistributive("jsd", L._join, L._meet)


def is_msd(L):
    """Meet semidistributive: a^b = a^c forces a^b = a^(b|c)."""
    return _semidistributive("msd", L._meet, L._join)


def is_sd(L):
    r = is_jsd(L)
    if not r:
        return PropertyReport("sd", False, r.witness)
    r = is_msd(L)
    if not r:
        return PropertyReport("sd", False, r.witness)
    return PropertyReport("sd", True)


def is_wjsd(L):
    """Join semidistributive law restricted to a meet irreducible first
    argument and a join irreducible second argument."""
    ji, meet = join_irreducibles(L), L._meet
    for a in meet_irreducibles(L):
        ja = L._join[a]
        for b in ji:
            ab, mb = ja[b], meet[b]
            for c in range(L.n):
                if ab == ja[c] and ab != ja[mb[c]]:
                    return PropertyReport("wjsd", False, (a, b, c))
    return PropertyReport("wjsd", True)


def _extends_to_mdfip(name, L, side):
    """For a join irreducible and b meet irreducible with a not below b,
    (a, b)[side] stays in some MDFIP whose other member lies above b
    (side 0) or below a (side 1)."""
    partners = [0] * L.n  # partners[x]: the other members of the MDFIPs holding x at side
    for pair in mdfips(L):
        partners[pair[side]] |= 1 << pair[1 - side]
    cone, up, mi = (L.up, L.down)[side], L.up, meet_irreducibles(L)
    for a in join_irreducibles(L):
        for b in mi:
            pair = (a, b)
            if not up[a] >> b & 1 and not cone[pair[1 - side]] & partners[pair[side]]:
                return PropertyReport(name, False, pair)
    return PropertyReport(name, True)


def satisfies_labc(L):
    """Every disjoint irreducible pair extends upward to an MDFIP.

    For a join irreducible and b meet irreducible with a not below b,
    some c >= b makes (a, c) an MDFIP.
    """
    return _extends_to_mdfip("labc", L, 0)


def satisfies_uabc(L):
    """Dual extension: some c <= a makes (c, b) an MDFIP."""
    return _extends_to_mdfip("uabc", L, 1)


def is_meet_distributive(L):
    """Each interval [mu(a), a], mu(a) the meet of the lower covers of a,
    is distributive; the bottom element is exempt. Witness: (a,).

    Decided on the order rows alone, with no meet or join table. Let
    p_1..p_c be the lower covers of a and P(x) the set of p_i above x.
    Lemma: [mu(a), a] is distributive iff it has 2^c elements and, for
    all x and y in it, x <= y exactly when P(y) is inside P(x).

    The p_i are the coatoms of the interval and meet in its bottom.
    If: P is then an order embedding of the interval into the subsets
    of {p_1..p_c}, reversed, and onto as both sides have 2^c elements;
    so the interval is Boolean, hence distributive. Only if: in a
    distributive lattice every meet irreducible q is meet prime, so
    q >= p_1 ^ ... ^ p_c puts q above some p_i, and q = p_i as q is not
    the top. Every x is the meet of the meet irreducibles above it,
    x = ^P(x), so P(y) inside P(x) gives x <= y. Each p_j is meet
    prime and the p_i are pairwise incomparable, so ^S is below no p_j
    outside S: the 2^c subsets S of coatoms have 2^c distinct meets.

    Per x the test is one row equation: the y above x are the members
    of the interval below no p_i outside P(x). That is c row operations
    per member instead of a table lookup per pair of members.
    """
    up, down = L.up, L.down
    for a in range(L.n):
        covers = L.lower_covers(a)
        if not covers:
            continue
        seg = up[mu(L, a)] & down[a]
        boolean = seg.bit_count() == 1 << len(covers)
        if boolean:
            coatoms = [(1 << p, down[p]) for p in covers]
            for x in bits(seg):
                ux, outside = up[x], 0
                for bit, row in coatoms:
                    if not ux & bit:
                        outside |= row
                if ux & seg != seg & ~outside:
                    boolean = False
                    break
        if not boolean:
            return PropertyReport("md", False, (a,))
    return PropertyReport("md", True)


LATTICE_CHECKS = {
    "usm": is_usm,
    "lsm": is_lsm,
    "mod": is_modular,
    "dist": is_distributive,
    "jsd": is_jsd,
    "msd": is_msd,
    "sd": is_sd,
    "wjsd": is_wjsd,
    "jmlsm": is_jm_lsm,
    "jmusm": is_jm_usm,
    "labc": satisfies_labc,
    "uabc": satisfies_uabc,
    "md": is_meet_distributive,
}

DIGRAPH_CHECKS = {
    "tirs": dg.check_tirs,
    "lti": dg.check_lti,
    "uti": dg.check_uti,
    "djsd": dg.check_djsd,
    "dmsd": dg.check_dmsd,
    "dsd": dg.check_dsd,
    "fis": dg.check_fis,
    "wt0": dg.check_wt0,
    "wt1": dg.check_wt1,
    "trans": dg.is_transitive,
    "poset": dg.is_poset,
}


def property_names():
    """Registered names: lattice laws first, then digraph axioms."""
    return tuple(LATTICE_CHECKS) + tuple(DIGRAPH_CHECKS)


def check_lattice_property(name, L):
    if name in LATTICE_CHECKS:
        return LATTICE_CHECKS[name](L)
    if name in DIGRAPH_CHECKS:
        return DIGRAPH_CHECKS[name](dual_digraph(L))
    raise UnknownProperty(f"no lattice property named {name!r}")


def check_digraph_property(name, G):
    if name in DIGRAPH_CHECKS:
        return DIGRAPH_CHECKS[name](G)
    raise UnknownProperty(f"no digraph property named {name!r}")
