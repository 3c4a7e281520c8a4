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
raised rather than a verdict. Modularity is that scan alone, with c
running over the up-set of a. The other laws keep their definitional
scans; md decides dist by cancellation on the interval below each
element, read from the tables of the whole lattice.

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


def _semimodular(name, rows, other, above, below):
    """rows[a][b] covered by a forces b covered by other[a][b], where x is
    covered by y iff above[x] & below[y] is exactly {x, y}.

    With the meet and join tables and the up and down rows this is upper
    semimodularity; with both pairs swapped, covers read downward, it is
    lower semimodularity.
    """
    def covered(x, y):
        return x != y and above[x] & below[y] == 1 << x | 1 << y

    for a, (ra, oa) in enumerate(zip(rows, other)):
        for b in range(len(rows)):
            if covered(ra[b], a) and not covered(b, oa[b]):
                return PropertyReport(name, False, (a, b))
    return PropertyReport(name, True)


def is_usm(L):
    """Upper semimodular: a^b covered by a forces b covered by a|b."""
    return _semimodular("usm", L._meet, L._join, L.up, L.down)


def is_lsm(L):
    """Lower semimodular: a covered by a|b forces a^b covered by b."""
    return _semimodular("lsm", L._join, L._meet, L.down, L.up)


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
    """a <= c forces a|(b^c) = (a|b)^c; c runs over the up-set of a."""
    meet, join, up = L._meet, L._join, L.up
    for a in range(L.n):
        ja = join[a]
        for b in range(L.n):
            mb, m_ab = meet[b], meet[ja[b]]
            for c in bits(up[a]):
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
    """Each interval from the meet of lower covers of a up to a is
    distributive; the bottom element is exempt. Decided by the
    cancellation law of is_distributive on the tables of L, restricted
    to the interval (a sublattice)."""
    meet, join = L._meet, L._join
    for a in range(L.n):
        if a == L.bottom:
            continue
        seg = tuple(bits(L.up[mu(L, a)] & L.down[a]))
        for x in seg:
            if len({(meet[x][y], join[x][y]) for y in seg}) != len(seg):
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
