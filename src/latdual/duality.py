"""The two directions of the duality.

Lattice to digraph: vertices are the maximal disjoint filter-ideal pairs
(MDFIPs), written as generator pairs (a, b) with the filter up(a) and the
ideal down(b) disjoint and jointly maximal. There is an arc from (a, b)
to (c, d) iff a is not below d, i.e. iff up(a) meets down(d) emptily
fails. The relation is reflexive precisely because each pair is disjoint.

Digraph to lattice: elements are the maximal partial maps V -> {0, 1}
whose domain avoids mapping an arc source to 1 and its target to 0
(arc-preserving partial two-colourings), ordered by inclusion of their
one-sets. For a reflexive digraph these maps biject with the fixpoints of
a closure operator on one-sets, which is how they are enumerated here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bits import bits, mask
from .digraph import Digraph
from .errors import BoundTooLarge, NotALattice, NotDisjoint
from .lattice import FiniteLattice, join_irreducibles, meet_irreducibles

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
    """
    pairs = vars(L).get("_mdfips")
    if pairs is None:
        pairs = L._mdfips = _maximal_pairs(L)
    return list(pairs)


def _maximal_pairs(L):
    up, down, mis = L.up, L.down, meet_irreducibles(L)
    return tuple(
        (a, b)
        for a in join_irreducibles(L)
        for b in mis
        if not up[a] >> b & 1
        and down[a] & ~down[b] == 1 << a and up[b] & ~up[a] == 1 << b
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
    return frozenset(bits(mask(meet_irreducibles(L)) & L.up[b] & ~L.up[a]))


def maximal_extensions(L, a, b):
    """MDFIPs (a2, b2) with a2 <= a and b2 >= b, sorted.

    The pair (a, b) must be disjoint, i.e. a not below b; every disjoint
    pair extends to at least one MDFIP.
    """
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
    """The one-sets of the maximal maps of G, as masks. They are found on
    the first call for a digraph and kept on it as a tuple."""
    sets = vars(G).get("_one_sets")
    if sets is None:
        sets = G._one_sets = _next_closure(G)
    return sets


def _next_closure(G):
    """Lectic NextClosure over the one-sets of the maximal maps.

    For a one-set U the largest legal zero-set is
    Z(U) = {z : no arc from U into z}, and symmetrically
    U(Z) = {u : no arc from u into Z}. Maximal maps are exactly the
    pairs fixed by the round trip, so their one-sets are the closed
    sets of U -> U(Z(U)).
    """
    rows, cols, v = G.rows, G.cols, G.v

    def close(u):
        zm = 0
        for z in range(v):
            if cols[z] & u == 0:
                zm |= 1 << z
        m = 0
        for x in range(v):
            if rows[x] & zm == 0:
                m |= 1 << x
        return m

    sets = []
    a = close(0)
    while True:
        sets.append(a)
        if len(sets) > MAX_MAP_LATTICE_N:
            raise BoundTooLarge(
                f"the map lattice has more than {MAX_MAP_LATTICE_N} elements"
            )
        for i in range(v - 1, -1, -1):
            if a >> i & 1:
                continue
            below = a & ((1 << i) - 1)
            b = close(below | 1 << i)
            if b & ((1 << i) - 1) & ~below == 0:
                a = b
                break
        else:
            return tuple(sets)


def mpe_enumerate(G):
    """All maximal arc-preserving partial maps V -> {0, 1}, sorted.

    Sorted by (one-set mask, zero-set mask); distinct maps always differ
    in their one-set, so the order is total. The zero-set of a one-set U
    is the largest legal one, Z(U) in ``_next_closure``.
    """
    cols, v = G.cols, G.v
    return [
        PartialTwoMap(
            frozenset(bits(u)), frozenset(z for z in range(v) if cols[z] & u == 0)
        )
        for u in sorted(_one_sets(G))
    ]


def mpe_lattice(G):
    """The lattice of maximal arc-preserving maps, ordered by one-sets.

    Elements are indexed by (size of one-set, one-set mask) increasing,
    so index 0 is the all-zeros map and the last index the all-ones map.
    The one-sets are the closed sets of a closure operator, so they pass
    the intersection-closure check of ``FiniteLattice.of_sets``.
    """
    masks = sorted(_one_sets(G), key=lambda m: (m.bit_count(), m))
    try:
        return FiniteLattice.of_sets(masks)
    except NotALattice as exc:
        raise NotALattice(
            f"maximal map family is not a lattice under one-set inclusion: {exc}"
        ) from exc


def roundtrip_lattice(L):
    """L is isomorphic to the map lattice of its own dual digraph."""
    from .lattice import lattice_isomorphic

    ok, _ = lattice_isomorphic(L, mpe_lattice(dual_digraph(L)))
    return ok


def roundtrip_digraph(G):
    """G is isomorphic to the dual digraph of its own map lattice."""
    from .digraph import digraph_isomorphic

    ok, _ = digraph_isomorphic(G, dual_digraph(mpe_lattice(G)))
    return ok
