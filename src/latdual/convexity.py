"""Closure systems on a finite ground set and the convex geometry bridge.

A closure system is a family of subsets of {0..k-1} closed under
intersection and containing the ground set. The two extra conditions of
interest: the empty set is closed, and the anti-exchange law holds. Meet
distributive lattices correspond to exactly such systems, with the closed
sets of the system ordered by inclusion on one side and the sets of join
irreducibles below each element on the other.
"""

from __future__ import annotations

from functools import cached_property

from ._bits import (
    bits,
    inclusion,
    intersection_closed,
    mask,
    unclosed_pair,
    upper_covers,
)
from .digraph import PropertyReport
from .errors import NotMeetDistributive
from .lattice import FiniteLattice, join_irreducibles
from .properties import is_meet_distributive


class ClosureSystem:
    """Intersection-closed set family containing its ground set."""

    def __init__(self, ground, closed):
        # bool is an int subclass, and True would pass for the mask 1
        if type(ground) is not int:
            raise TypeError(f"ground size must be an int, not {ground!r}")
        if ground < 0:
            raise ValueError("ground size must be nonnegative")
        self.ground = ground
        full = (1 << ground) - 1
        masks = set()
        for m in closed:
            if type(m) is not int:
                raise TypeError(f"closed set mask must be an int, not {m!r}")
            if m < 0:
                raise ValueError(f"closed set mask {m} is negative")
            if m & ~full:
                raise ValueError(f"closed set {sorted(bits(m))} leaves the ground set")
            masks.add(m)
        masks = sorted(masks, key=lambda m: (m.bit_count(), m))
        if full not in masks:
            raise ValueError("the ground set itself must be closed")
        rows = inclusion(masks)
        if not intersection_closed(masks, *rows, upper_covers(*rows)):
            a, b = unclosed_pair(masks)
            raise ValueError(
                f"intersection of {sorted(bits(a))} and {sorted(bits(b))}"
                " is not closed"
            )
        self.closed = tuple(masks)

    @classmethod
    def from_sets(cls, ground, sets):
        # the range first: a point such as 10**10 would need a mask of that
        # many bits, and a negative point has no bit
        for s in sets:
            if any(not 0 <= x < ground for x in s):
                raise ValueError(f"closed set {sorted(set(s))} leaves the ground set")
        return cls(ground, [mask(s) for s in sets])

    @cached_property
    def _closed_set(self):
        return frozenset(self.closed)

    def close_mask(self, ymask):
        # the AND of the closed supersets of ymask is one of them and lies
        # in all the others: the first in the (size, mask) order of closed
        if ymask & ~((1 << self.ground) - 1):
            raise ValueError("closure argument leaves the ground set")
        return next(m for m in self.closed if not ymask & ~m)

    def is_closed_mask(self, m):
        return m in self._closed_set

    def __eq__(self, other):
        return (
            isinstance(other, ClosureSystem)
            and self.ground == other.ground
            and self.closed == other.closed
        )

    def __hash__(self):
        return hash((self.ground, self.closed))

    def __repr__(self):
        return f"ClosureSystem(ground={self.ground}, closed={len(self.closed)} sets)"


def closure_of(C, ys):
    """Smallest closed set containing ys, as a frozenset. The points are
    range-checked before their mask is built, as in ``from_sets``."""
    ys = tuple(ys)
    if not all(0 <= y < C.ground for y in ys):
        raise ValueError("closure argument leaves the ground set")
    return frozenset(bits(C.close_mask(mask(ys))))


def is_zero_closure(C):
    """True iff the empty set is closed."""
    return 0 in C._closed_set


def satisfies_aep(C):
    """Anti-exchange: distinct x, y outside a closed A cannot both enter
    the closure of A extended by the other one.

    Witness on failure: (sorted A, x, y) with x in close(A + y) and
    y in close(A + x).
    """
    for a in C.closed:
        outside = ~a & ((1 << C.ground) - 1)
        # close(A + y) for each y outside A, each computed once
        cl = {y: C.close_mask(a | 1 << y) for y in bits(outside)}
        for x, cx in cl.items():
            for y, cy in cl.items():
                if y != x and cy >> x & 1 and cx >> y & 1:
                    return PropertyReport("aep", False, (tuple(bits(a)), x, y))
    return PropertyReport("aep", True)


def cld_lattice(C):
    """The closed sets ordered by inclusion, as a lattice.

    Elements are indexed by (set size, mask) increasing; labels show the
    underlying sets.
    """
    labels = tuple("{" + ",".join(map(str, bits(m))) + "}" for m in C.closed)
    return FiniteLattice.of_sets(C.closed, labels)


def lattice_to_convex_geometry(L):
    """Closed sets are the join irreducibles below each element, read off
    its down row.

    Only defined for meet distributive lattices; anything else raises
    NotMeetDistributive naming an element whose lower interval fails.
    """
    rep = is_meet_distributive(L)
    if not rep:
        raise NotMeetDistributive(
            f"element {rep.witness[0]} has a non-distributive lower interval"
        )
    ji = join_irreducibles(L)
    pos = {j: i for i, j in enumerate(ji)}
    irreducible = mask(ji)
    closed = {mask(pos[j] for j in bits(row & irreducible)) for row in L.down}
    return ClosureSystem(len(ji), closed)


def closure_to_json(C):
    return {
        "ground": C.ground,
        "closed": [sorted(bits(m)) for m in C.closed],
    }


def closure_from_json(obj):
    if not isinstance(obj, dict) or "ground" not in obj or "closed" not in obj:
        raise ValueError('closure JSON needs keys "ground" and "closed"')
    ground, closed = obj["ground"], obj["closed"]
    if type(ground) is not int or ground < 0:
        raise ValueError(f'"ground" must be a nonnegative integer, not {ground!r}')
    if not isinstance(closed, list) or not all(
        isinstance(s, list) and all(type(x) is int and x >= 0 for x in s) for s in closed
    ):
        raise ValueError('"closed" must be a list of lists of nonnegative integers')
    return ClosureSystem.from_sets(ground, closed)
