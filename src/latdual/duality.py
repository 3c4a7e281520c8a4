"""The two directions of the duality.

Lattice to digraph: vertices are the maximal disjoint filter-ideal pairs
(MDFIPs), written as generator pairs (a, b) with the filter up(a) and the
ideal down(b) disjoint and jointly maximal. There is an arc from (a, b)
to (c, d) iff a is not below d, i.e. iff up(a) meets down(d) emptily
fails. The relation is reflexive precisely because each pair is disjoint.

Digraph to lattice: elements are the maximal partial maps V -> {0, 1}
whose domain avoids mapping an arc source to 1 and its target to 0
(arc-preserving partial two-colourings), ordered by inclusion of their
one-sets. For a reflexive digraph these maps biject with the closed sets
of a Galois connection on one-sets, and those are enumerated here as all
intersections of the sets {u : no arc u -> z}, one per vertex z.

Both round trips first try the isomorphism that Theorem 2.6 names (see
``_lattice_certificate``, ``_digraph_certificate``), accepted only as a
bijection under which the rows are equal. That proves it without the
theorem (sound); if it fails, a canonical-form search decides (complete).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bits import bits, mask, permute, transpose, union
from .digraph import Digraph, digraph_isomorphic
from .errors import BoundTooLarge, NotDisjoint
from .lattice import FiniteLattice, join_irreducibles, lattice_isomorphic, meet_irreducibles

# the most elements a map lattice may have; a digraph of v isolated loops
# has 2^v maximal maps, and the order rows of the lattice grow with the
# square
MAX_MAP_LATTICE_N = 4096


def mdfips(L):
    """All maximal disjoint filter-ideal generator pairs, sorted, as a
    new list. They are found on the first call for a lattice and kept
    on it as a tuple.

    By the definition, on the order rows alone: (a, b) is maximal iff
    a is not below b, every a2 < a is below b and every b2 > b is above
    a (any other a2 <= a, b2 >= b then has a2 <= b <= b2 or a <= b2).
    Two lower covers of a below b would put a below b, so a is join
    irreducible; dually b is meet irreducible.

    The first two conditions are read off one row: a join irreducible
    a has one lower cover a_*, and the elements strictly below a are
    those below a_*, so they are below b iff b is in ``up[a_*]``. The
    candidates b for a are the meet irreducibles in
    ``up[a_*] & ~up[a]``; the third condition is tested on each.
    """
    pairs = vars(L).get("_mdfips")
    if pairs is None:
        pairs = L._mdfips = _maximal_pairs(L)
    return list(pairs)


def _maximal_pairs(L):
    up, mis = L.up, mask(meet_irreducibles(L))
    return tuple(
        (a, b)
        for a in join_irreducibles(L)
        for b in bits(mis & union(up, L._lower[a]) & ~up[a])
        if up[b] & ~up[a] == 1 << b
    )


def mdfips_bruteforce(L):
    """Definitional enumeration: a pair (a, b) with a not below b is
    maximal iff no other pair (a2, b2) with a2 <= a and b2 >= b keeps a2
    not below b2.

    Kept as the in-package reference for the order-row test above. Per
    a2 <= a, the b2 >= b not above a2 are ``up[b] & ~up[a2]``: none may
    exist, except b itself when a2 is a.
    """
    up, down = L.up, L.down
    out = []
    for a in range(L.n):
        below = tuple(bits(down[a]))
        for b in range(L.n):
            if not up[a] >> b & 1 and all(
                up[b] & ~up[a2] == (1 << b if a2 == a else 0) for a2 in below
            ):
                out.append((a, b))
    return out


def dual_digraph(L):
    """The reflexive digraph on the MDFIPs of L: an arc from (a, b) to
    (c, d) iff a is not below d."""
    verts = mdfips(L)
    up = L.up
    rows = []
    for a, _ in verts:
        ua, row = up[a], 0
        for j, (_, d) in enumerate(verts):
            if not ua >> d & 1:
                row |= 1 << j
        rows.append(row)
    names = None
    if L.labels:
        names = tuple(L.label_of(a) + L.label_of(b) for a, b in verts)
    return Digraph(rows, mdfips=verts, names=names)


def t_set(L, a, b):
    """Meet irreducibles above b that avoid a."""
    L._check_elements(a, b)
    return frozenset(bits(mask(meet_irreducibles(L)) & L.up[b] & ~L.up[a]))


def maximal_extensions(L, a, b):
    """MDFIPs (a2, b2) with a2 <= a and b2 >= b, sorted.

    The pair (a, b) must be disjoint, i.e. a not below b; every disjoint
    pair extends to at least one MDFIP.
    """
    L._check_elements(a, b)
    up, down = L.up, L.down
    if up[a] >> b & 1:
        raise NotDisjoint(f"{a} <= {b}, so filter and ideal overlap")
    return [(a2, b2) for a2, b2 in mdfips(L) if down[a] >> a2 & 1 and up[b] >> b2 & 1]


@dataclass(frozen=True)
class PartialTwoMap:
    """A partial map to {0, 1} given by its preimages of 1 and 0."""

    ones: frozenset
    zeros: frozenset

    def __post_init__(self):
        if self.ones & self.zeros:
            raise ValueError("ones and zeros overlap")


def _one_sets(G):
    """The one-sets of the maximal maps of G, as masks, in the element
    order of ``mpe_lattice``: by (size, mask). They are found and sorted
    on the first call for a digraph and kept on it as a tuple."""
    sets = vars(G).get("_one_sets")
    if sets is None:
        sets = G._one_sets = tuple(sorted(_intersections(G), key=lambda m: (m.bit_count(), m)))
    return sets


def _intersections(G):
    """The one-sets of the maximal maps of G, as a set of masks.

    For a one-set U the largest legal zero-set is
    Z(U) = {z : no arc from U into z}, and symmetrically
    U(Z) = {u : no arc from u into Z}. Maximal maps are exactly the pairs
    fixed by the round trip, so their one-sets are the closed sets of
    this Galois connection: the intersections of the sets
    U({z}) = {u : no arc u -> z}, the empty one being the full set. Each
    column meets every set found so far; the family only grows, so it
    is over the bound as soon as it has more members than the bound.
    """
    full = (1 << G.v) - 1
    found = {full}
    for col in G.cols:
        found.update([s & ~col for s in found])
        if len(found) > MAX_MAP_LATTICE_N:
            raise BoundTooLarge(f"the map lattice has more than {MAX_MAP_LATTICE_N} elements")
    return found


def map_masks(G):
    """The (one-set, zero-set) masks of the maximal maps of G, sorted; the
    zero-set is Z(U) of ``_intersections``, the vertices no arc from the
    one-set reaches, so distinct maps differ in one-sets."""
    full = (1 << G.v) - 1
    return [(u, full & ~union(G.rows, u)) for u in sorted(_one_sets(G))]


def mpe_enumerate(G):
    """All maximal arc-preserving partial maps V -> {0, 1}, sorted by
    (one-set mask, zero-set mask), as ``map_masks`` gives them."""
    return [PartialTwoMap(frozenset(bits(u)), frozenset(bits(z))) for u, z in map_masks(G)]


def mpe_lattice(G):
    """The lattice of maximal arc-preserving maps, ordered by one-sets.

    Elements are indexed by (size of one-set, one-set mask) increasing,
    so index 0 is the all-zeros map and the last index the all-ones map.
    The one-sets, found by ``_intersections``, are the closed sets of a
    Galois connection, so for every digraph, looped or not, they contain
    the full set and are closed under intersection: they pass the checks
    of ``FiniteLattice.of_sets``, which still runs them.
    """
    return FiniteLattice.of_sets(_one_sets(G))


def certified(rows1, rows2, m):
    """True iff m, sending element p of relation 1 to ``m[p]`` of relation
    2, is a bijection carrying relation 2 back onto relation 1 exactly."""
    n = len(rows1)
    bijective = len(rows2) == len(m) == n and set(m) == set(range(n))
    return bijective and permute(rows2, m) == tuple(rows1)


def _lattice_certificate(L, G, M):
    """The isomorphism of Theorem 2.6 from L onto M, the map lattice of G,
    a digraph on MDFIPs (a_i, b_i) of L: c goes to one-set {i : a_i <= c}.
    None unless the map is ``certified``, as when G carries no MDFIPs or
    some a_i is not an element of L.

    The map is certified on cover rows, not order rows: a bijection that
    carries the covers of L exactly onto those of M carries the orders
    they generate, since each order is the reflexive transitive closure
    of its covers. On 2^12 that compares 24,576 cover bits, not 531,441
    order bits."""
    gens = [a for a, _ in G.mdfips or ()]
    if not all(0 <= a < L.n for a in gens):
        return None
    index = {s: i for i, s in enumerate(_one_sets(G))}
    ones = transpose([L.up[a] for a in gens], L.n)
    m = tuple(index.get(s) for s in ones)
    return m if certified(L._upper, M._upper, m) else None


def _digraph_certificate(G, M, D):
    """The isomorphism of Theorem 2.6 from G onto D, the dual digraph of
    M, the map lattice of G: x goes to the MDFIP with the one-sets
    U(Z({x})) and all but in(x), U and Z as in ``_intersections``. None
    unless the map is ``certified``."""
    index = {s: i for i, s in enumerate(_one_sets(G))}
    vertex = {p: j for j, p in enumerate(D.mdfips or ())}
    full = (1 << G.v) - 1
    m = tuple(
        vertex.get((index.get(full & ~union(G.cols, full & ~row)), index.get(full & ~col)))
        for row, col in zip(G.rows, G.cols)
    )
    return m if certified(G.rows, D.rows, m) else None


def roundtrip_lattice(L, G=None):
    """L is isomorphic to the map lattice of G, by default its own dual
    digraph: by the certificate, else by a canonical-form search."""
    G = dual_digraph(L) if G is None else G
    M = mpe_lattice(G)
    return _lattice_certificate(L, G, M) is not None or lattice_isomorphic(L, M)[0]


def roundtrip_digraph(G, M=None):
    """G is isomorphic to the dual digraph of M, by default its own map
    lattice: by the certificate, else by a canonical-form search."""
    M = mpe_lattice(G) if M is None else M
    D = dual_digraph(M)
    return _digraph_certificate(G, M, D) is not None or digraph_isomorphic(G, D)[0]
