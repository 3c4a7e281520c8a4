"""Property deciders for lattices and reflexive digraphs.

Every decider returns a PropertyReport. Witnesses are the first failing
tuple in lexicographic scan order, so reports are stable across runs.
Digraph-side property names can also be asked of a lattice, in which case
they are evaluated on its dual digraph.

Eight laws are decided on the order rows and the cover rows alone, with
no meet or join table, each by a classical local criterion that costs a
few row operations per irreducible, per pair of covers or per element:

- msd: every join irreducible j has kappa(j), a greatest element above
  the lower cover of j and not above j (Freese, Jezek and Nation, Free
  Lattices, 1995, Thm 2.56). jsd is the order dual, on the meet
  irreducibles.
- usm: two upper covers of one element have a common upper cover
  (Birkhoff's condition); lsm is the order dual.
- mod: usm and lsm.
- dist: every join irreducible is join prime.
- sd: jsd and msd.
- md: each interval [mu(a), a] is Boolean.

Each decider's docstring proves its criterion. Only when a criterion
fails does the lexicographic scan of the defining identity run, to find
the witness; if it finds none, RuntimeError is raised rather than a
verdict. The scans read a meet as the element whose down row is the AND
of two down rows (L._down_index), and a join likewise through the up
rows (L._up_index). wjsd, jmlsm and jmusm keep their definitional scans,
comparing joins as up rows and testing covers on the cover rows (see
_semimodular); labc and uabc read the MDFIPs.

Each dual pair of laws has one criterion and one scan. lsm is decided
as usm, jsd as msd, and the lower half of mod's criterion as the upper
half, each on ``order_dual(L)``, which swaps the rows of L and
recomputes nothing, so the witnesses are those of the law itself.
jmlsm and jmusm, labc and uabc share a scan told which side to decide:
they scan in (join irreducible, meet irreducible) order, which on the
dual would pick a different first witness.
"""

from __future__ import annotations

from itertools import combinations

from . import digraph as dg
from ._bits import bits, mask, union
from .digraph import PropertyReport, _report
from .duality import dual_digraph, mdfips
from .errors import UnknownProperty
from .lattice import join_irreducibles, meet_irreducibles, order_dual


def _no_witness(name):
    return RuntimeError(f"{name} failed its local criterion, yet the scan found no witness")


def _covers_have_covers(L):
    """Any two distinct upper covers of one element have a common upper
    cover."""
    upper = L._upper
    return all(upper[a] & upper[b] for row in upper for a, b in combinations(bits(row), 2))


def _semimodular(name, L):
    """Upper semimodularity: the criterion of is_usm, then the scan for
    the first pair (a, b) with a^b covered by a and b not covered by a|b.

    The b with a^b covered by a are those above a lower cover x
    of a and not above a: then x <= a^b < a, so a^b = x. Such a b is
    covered by a|b iff an upper cover y of b lies above a: then
    b < a|b <= y, so a|b = y. No meet or join is computed.
    """
    if _covers_have_covers(L):
        return PropertyReport(name, True)
    up, lower, upper = L.up, L._lower, L._upper
    for a, ca in enumerate(up):
        for b in bits(union(up, lower[a]) & ~ca):
            if not upper[b] & ca:
                return PropertyReport(name, False, (a, b))
    raise _no_witness(name)


def is_usm(L):
    """Upper semimodular: a^b covered by a forces b covered by a|b.

    Criterion (Birkhoff): any two distinct upper covers a and b of one
    element x have a common upper cover. Only if: a^b = x is covered by
    a and by b, so by the law a|b covers b and a. If:
    let a^b be covered by a, and a^b = c_0 < c_1 < ... < c_k = b a
    maximal chain. By induction c_i is covered by d_i = a|c_i: for
    i = 0, d_0 = a. Then c_{i+1} and d_i both cover c_i, and differ, as
    a <= c_{i+1} <= b would give a^b = a. So c_{i+1} and d_i have a
    common upper cover, which is then their join
    c_{i+1}|a|c_i = d_{i+1}. At i = k, b is covered by a|b.
    """
    return _semimodular("usm", L)


def is_lsm(L):
    """Lower semimodular: a covered by a|b forces a^b covered by b.

    Decided as usm of the order dual: its criterion is that any two
    distinct lower covers of one element have a common lower cover.
    """
    return _semimodular("lsm", order_dual(L))


def _jm_cover_pairs(L):
    """(a, b, (b covered by a|b, a^b covered by a)) for every join
    irreducible a and meet irreducible b, read off the cover rows: as in
    _semimodular, b is covered by a|b iff a is not below b and an upper
    cover of b is above a, and a^b is covered by a iff a is not below b
    and a lower cover of a is above b."""
    up, down, upper, lower = L.up, L.down, L._upper, L._lower
    mi = meet_irreducibles(L)
    for a in join_irreducibles(L):
        ua, la = up[a], lower[a]
        for b in mi:
            apart = not ua >> b & 1
            yield a, b, (apart and bool(upper[b] & ua), apart and bool(la & down[b]))


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

    Criterion (Birkhoff, Lattice Theory, 1967, ch. II): a lattice of
    finite length is modular iff it is upper and lower semimodular, each
    decided by its cover criterion. Only if: x -> x|b maps [a^b, a] onto
    [b, a|b] with inverse y -> y^a, so a cover at one end is a cover at
    the other. If: semimodularity makes all maximal chains between two
    elements equally long, and the height h then satisfies
    h(a) + h(b) >= h(a^b) + h(a|b); lower semimodularity gives <=. With
    this equality and a <= c, h(a|(b^c)) = h(a) + h(b^c) - h(a^b) equals
    h((a|b)^c) = h(a|b) + h(c) - h(b|c); as a|(b^c) <= (a|b)^c always
    and h is strictly increasing, the two are equal.

    On failure the scan runs over only b incomparable to a, and c above
    a incomparable to b; every other triple with a <= c satisfies the
    law, so the first failing triple is the first of the full scan:
    - b <= a: both sides are a (b^c = b and a|b = a).
    - a <= b: both sides are b^c (a <= b^c, and a|b = b).
    - c <= b: both sides are c (b^c = c, a|c = c, and c <= a|b).
    - b <= c: both sides are a|b (b^c = b, and a|b <= c).
    As a|(b^c) <= (a|b)^c, the two are equal iff their up rows are.
    """
    if _covers_have_covers(L) and _covers_have_covers(order_dual(L)):
        return PropertyReport("mod", True)
    up, down, meet, join = L.up, L.down, L._down_index, L._up_index
    full = (1 << L.n) - 1
    for a, above in enumerate(up):
        for b in bits(full & ~(above | down[a])):
            db, d_ab = down[b], down[join[above & up[b]]]
            for c in bits(above & ~(up[b] | db)):
                dc = down[c]
                if above & up[meet[db & dc]] != up[meet[d_ab & dc]]:
                    return PropertyReport("mod", False, (a, b, c))
    raise _no_witness("mod")


def is_distributive(L):
    """a^(b|c) = (a^b)|(a^c).

    Criterion: every join irreducible j is join prime, j <= x|y forcing
    j <= x or j <= y (Davey and Priestley, Introduction to Lattices and
    Order, 2002, ch. 5). That is, the elements not above j are closed
    under joins; as they hold the bottom, they are the down-set of their
    join, so full & ~up[j] is a down row, and conversely. Only if:
    j <= x|y gives j = j^(x|y) = (j^x)|(j^y), so j = j^x or j = j^y.
    If: the join irreducibles below x|y are those below x or below y,
    and those below x^y those below both. So x -> {j <= x} carries
    joins to unions and meets to intersections, and is one-to-one, as x
    is the join of the join irreducibles below it: the lattice is a
    lattice of sets, which is distributive.

    On failure the scan runs over only b not above a, and c not above a
    and incomparable to b; the other triples satisfy the law:
    - a <= b or a <= c: both sides are a.
    - c <= b: both sides are a^b; b <= c: both sides are a^c.
    As (a^b)|(a^c) <= a^(b|c) always, the two are equal iff their up
    rows are.
    """
    full, index = (1 << L.n) - 1, L._down_index
    if all(full & ~L.up[j] in index for j in join_irreducibles(L)):
        return PropertyReport("dist", True)
    up, down, join = L.up, L.down, L._up_index
    for a, above in enumerate(up):
        da = down[a]
        # up row of a^x for every x
        up_meet = [up[index[da & row]] for row in down]
        for b in bits(full & ~above):
            ub, ub_meet = up[b], up_meet[b]
            for c in bits(full & ~(above | ub | down[b])):
                if up_meet[join[ub & up[c]]] != ub_meet & up_meet[c]:
                    return PropertyReport("dist", False, (a, b, c))
    raise _no_witness("dist")


def _kappas_exist(L):
    """Every join irreducible j has kappa(j), the greatest element above
    its lower cover j_* and not above j.

    Let S = {x >= j_* : x not >= j}; it holds j_*. A maximal x in S is
    not the top, and each upper cover of x, above j_* and outside S, is
    above j; two of them would meet in x, above j, so x is a meet
    irreducible whose upper cover is above j. Conversely every meet
    irreducible m in S whose upper cover is above j is maximal in S, as
    everything above m is above its upper cover. S, being finite, has a
    greatest element iff it has one maximal element, so one bit test per
    meet irreducible of S decides kappa(j).
    """
    up, lower, upper = L.up, L._lower, L._upper
    mi = mask(meet_irreducibles(L))
    for j in join_irreducibles(L):
        uj = up[j]
        s = up[lower[j].bit_length() - 1] & ~uj & mi
        maximal = [m for m in bits(s) if upper[m] & uj]
        if len(maximal) > 1:
            return False
    return True


def _semidistributive(name, L):
    """Meet semidistributivity: the criterion of is_msd, then the scan
    for the first (a, b, c) with a^b = a^c and a^b != a^(b|c).

    For each a, the law holds iff every class
    {b : a^b = x} is closed under binary joins, iff a^m = x for the join
    m of the class: a closed class contains m; conversely b <= b|c <= m
    gives x = a^b <= a^(b|c) <= a^m = x. A class is keyed by the down
    row of x, down[a] & down[b], and m is the element whose up row is
    the AND of the up rows of the class.
    """
    if _kappas_exist(L):
        return PropertyReport(name, True)
    rows, others, index = L.down, L.up, L._up_index
    for a, ra in enumerate(rows):
        classes = {}
        for b, rb in enumerate(rows):
            classes.setdefault(ra & rb, []).append(b)
        for x, members in classes.items():
            fold = -1
            for b in members:
                fold &= others[b]
            if ra & rows[index[fold]] != x:
                break
        else:
            continue  # every class is closed: the law holds at a
        # every earlier a passed, so the first witness has this a
        for b, rb in enumerate(rows):
            x, ob = ra & rb, others[b]
            for c in classes[x]:
                if ra & rows[index[ob & others[c]]] != x:
                    return PropertyReport(name, False, (a, b, c))
        break
    raise _no_witness(name)


def is_jsd(L):
    """Join semidistributive: a|b = a|c forces a|b = a|(b^c).

    Decided as msd of the order dual: its criterion is that every meet
    irreducible m has a least element in {x <= m^* : x not <= m}, m^*
    its upper cover.
    """
    return _semidistributive("jsd", order_dual(L))


def is_msd(L):
    """Meet semidistributive: a^b = a^c forces a^b = a^(b|c).

    Criterion (Freese, Jezek and Nation, Free Lattices, Thm 2.56): every
    join irreducible j, with lower cover j_*, has kappa(j), a greatest
    element in {x >= j_* : x not >= j}. Only if: for x and y in that
    set, j^x and j^y lie in [j_*, j] and are not j, so both are j_*, and
    by the law j^(x|y) = j_*: the set is closed under joins. If: let
    a^b = a^c = d < e = a^(b|c), and j minimal among the elements below
    e and not below d. By minimality every element below j is below d,
    so j is not a join of two smaller elements: j is join irreducible,
    and j_* <= d <= b, c. Neither b nor c is above j, else
    j <= a^b = d. So b and c lie below kappa(j), and then
    j <= e <= b|c <= kappa(j), which is not above j.
    """
    return _semidistributive("msd", L)


def is_sd(L):
    """Semidistributive: jsd and msd; the witness is jsd's, else msd's."""
    return _report("sd", is_jsd(L).witness or is_msd(L).witness)


def is_wjsd(L):
    """Join semidistributive law restricted to a meet irreducible first
    argument and a join irreducible second argument. Joins with a are
    compared as up rows, and b^c is read through L._down_index."""
    up, down, meet = L.up, L.down, L._down_index
    ji = join_irreducibles(L)
    for a in meet_irreducibles(L):
        ua = up[a]
        for b in ji:
            ab, db = ua & up[b], down[b]
            for c in range(L.n):
                if ua & up[c] == ab and ua & up[meet[db & down[c]]] != ab:
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
    p_1..p_c be the lower covers of a, ^S the meet of the p_i in S (^ of
    none being a) and P(x) the set of p_i above x.

    Lemma: [mu(a), a] is distributive iff it is Boolean. The p_i are the
    coatoms of the interval and meet in its bottom. In a distributive
    lattice every meet irreducible q is meet prime, so
    q >= p_1 ^ ... ^ p_c puts q above some p_i, and q = p_i as q is not
    the top. Every x is the meet of the meet irreducibles above it,
    x = ^P(x), so x -> P(x) is one-to-one and order-reversing onto its
    image, and x <= y when P(y) is inside P(x). Each p_j is meet prime
    and the p_i are pairwise incomparable, so ^S is below no p_j outside
    S: every subset S is P(^S), and the interval is Boolean. Conversely
    a Boolean lattice is distributive.

    Criterion: md holds at a iff [mu(a), a] has 2^c elements and the 2^c
    meets ^S are pairwise distinct. Each ^S lies in the interval, and
    S is inside P(^S). For p_j outside S, ^S <= p_j would make
    ^(S + p_j) = ^S ^ p_j equal to ^S; so the meets are distinct iff
    P(^S) = S for every S. If: the 2^c distinct meets then fill the
    interval, and ^S <= ^T iff T is inside S (if ^S <= ^T, the p_i
    above ^T, those of T, are above ^S); so the interval is the Boolean
    lattice of subsets, reversed. Only if: by the lemma the interval is
    Boolean with coatoms p_1..p_c, so it has 2^c elements, and in a
    Boolean lattice distinct sets of coatoms have distinct meets.

    The down row of each ^S is one AND of a lower cover's row onto that
    of a smaller subset, so the test is 2^c ANDs and set insertions per
    element, and one lookup for mu(a). It runs only when 2^c is at most
    the size of down[a], which holds the interval: the subsets never
    outnumber the elements.

    The report is kept on the lattice: ``lattice_to_convex_geometry``
    asks again right after its callers decided it.
    """
    rep = vars(L).get("_md")
    if rep is None:
        rep = L._md = _meet_distributive(L)
    return rep


def _meet_distributive(L):
    up, down, index = L.up, L.down, L._down_index
    for a, covers in enumerate(L._lower):
        if not covers:
            continue
        if 1 << covers.bit_count() <= down[a].bit_count():
            meets = [down[a]]  # the down row of ^S, per subset S
            for p in bits(covers):
                row = down[p]
                meets += [m & row for m in meets]
            # meets[-1] is the down row of mu(a)
            size = (up[index[meets[-1]]] & down[a]).bit_count()
            if size == len(meets) == len(set(meets)):
                continue
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
