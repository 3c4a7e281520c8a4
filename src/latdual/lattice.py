"""Finite lattices as immutable value objects.

Conventions used throughout the package:

    - Elements are the integers 0..n-1.
    - The order relation is stored as one bitmask per element: bit j of
      ``up[i]`` is set iff i <= j, bit i of ``down[j]`` is set iff i <= j.
    - Construction validates the order by one sweep per element
      (``_bits.upper_covers``), which also yields the upper cover rows
      ``_upper``: with their converse ``_lower``, the only cover data kept.
      Only a rejection runs the pairwise scan, which names the fault.
      ``FiniteLattice(up)`` transposes ``up`` into ``down``; the other
      constructors hand both rows in, ``of_sets`` from the membership
      columns and ``from_covers`` from the covers closed in topological
      order, so none of them steps through the order pairs.
      ``order_dual`` validates nothing: it swaps the rows of a lattice
      already checked.
    - Every pair must have a meet and a join. ``FiniteLattice(up)``
      checks this by a unique top and the intersection closure of the
      principal down-sets; ``FiniteLattice.of_sets`` by the union and
      the intersection closure of the sets. Both decide closure with
      ``_bits.intersection_closed`` on the order rows they already hold,
      testing only the members with one upper cover and some member
      incomparable to them, and only a rejection runs a pairwise scan to
      name the fault. Downstream code relies on this and never re-checks.
    - A meet or a join is a row AND and one lookup: a^b is the element
      whose down row is ``down[a] & down[b]`` (``_down_index``), and a|b
      the one whose up row is ``up[a] & up[b]`` (``_up_index``). No n^2
      table is kept.
    - Witness-returning searches scan in lexicographic element order, so
      reported witnesses are reproducible.
"""

from __future__ import annotations

from functools import cached_property

from . import _canon
from ._bits import (
    bits,
    dot_string,
    inclusion,
    intersection_closed,
    json_pairs,
    permute,
    transpose,
    unclosed_pair,
    union,
    upper_covers,
)
from .errors import EmptyInterval, NoLowerCovers, NotALattice, NotAPartialOrder


class FiniteLattice:
    """A finite lattice on elements 0..n-1.

    ``up`` is the tuple of upward bitmasks described in the module
    docstring. ``labels``, when given, is a tuple of display names, one
    per element; it never affects equality or any computation.
    """

    def __init__(self, up, labels=None):
        self._set_order(up, None, labels)
        self._check_lattice()

    def _check_lattice(self):
        # with a top, an order is a lattice iff its principal down-sets
        # are closed under intersection: the meet of a and b is the
        # element whose down-set is down[a] & down[b]
        up, down, full = self.up, self.down, (1 << self.n) - 1
        if full not in down or not intersection_closed(down, up, down, self._upper):
            # name the first pair, in (a, b) order, lacking a join or a meet
            for a in range(self.n):
                for b in range(a, self.n):
                    if up[a] & up[b] not in self._up_index:
                        raise NotALattice(f"elements {a} and {b} have no join")
                    if down[a] & down[b] not in self._down_index:
                        raise NotALattice(f"elements {a} and {b} have no meet")
            raise RuntimeError("the closure check failed, yet the scan found no fault")

    @classmethod
    def of_sets(cls, masks, labels=None):
        """The family of set masks ordered by inclusion, element i being
        ``masks[i]``.

        The masks must be distinct, contain their union and be closed
        under pairwise intersection. Such a family is a lattice: the meet
        is the intersection and the join the least member containing the
        union. Anything else raises NotALattice naming two sets, or the
        union. A lattice of sets whose meet is not the intersection fails
        this test and needs the generic constructor on its inclusion order.
        Both order rows come from the membership columns, and one sweep
        gives the upper covers that ``intersection_closed`` reads.
        """
        masks = tuple(masks)
        index, union = {}, 0
        for i, m in enumerate(masks):
            j = index.setdefault(m, i)
            if j != i:
                raise NotALattice(
                    f"elements {j} and {i} are the same set {sorted(bits(m))}"
                )
            union |= m
        if masks and union not in index:
            raise NotALattice(
                f"the union {sorted(bits(union))} of the sets is not one of them"
            )
        L = cls.__new__(cls)
        L._set_order(*inclusion(masks), labels)
        if not intersection_closed(masks, L.up, L.down, L._upper):
            a, b = (sorted(bits(m)) for m in unclosed_pair(masks))
            raise NotALattice(
                f"the intersection of {a} and {b} is not one of the sets"
            )
        return L

    # -- construction helpers -------------------------------------------

    def _set_order(self, up, down, labels):
        # up, down (the converse of up when given), labels and the upper
        # cover rows; raises unless up is a partial order
        self.up = tuple(up)
        self.n = len(self.up)
        if self.n == 0:
            raise NotALattice("a lattice needs at least one element")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != self.n:
                raise ValueError("labels length does not match element count")
        self.labels = labels
        upper = None
        if not any(row >> self.n for row in self.up):
            self.down = down or transpose(self.up)
            upper = upper_covers(self.up, self.down)
        if upper is None:
            self._validate_order()
            raise RuntimeError("the order sweep failed, yet the scan found no fault")
        self._upper = upper

    def _validate_order(self):
        n, up = self.n, self.up
        full = (1 << n) - 1
        for i in range(n):
            if up[i] & ~full:
                raise NotAPartialOrder(f"element {i} relates outside 0..{n - 1}")
            if not up[i] >> i & 1:
                raise NotAPartialOrder(f"element {i} is not below itself")
        for i in range(n):
            for j in bits(up[i]):
                if j != i and up[j] >> i & 1:
                    raise NotAPartialOrder(f"elements {i} and {j} form a cycle")
                extra = up[j] & ~up[i]
                if extra:
                    k = (extra & -extra).bit_length() - 1
                    raise NotAPartialOrder(
                        f"transitivity fails on {i} <= {j} <= {k}"
                    )

    @cached_property
    def _down_index(self):
        # element by its down row: the meet of a set is the element whose
        # down row is the AND of theirs
        return {row: i for i, row in enumerate(self.down)}

    @cached_property
    def _up_index(self):
        # element by its up row: the join of a set is the element whose up
        # row is the AND of theirs
        return {row: i for i, row in enumerate(self.up)}

    @cached_property
    def bottom(self):
        return self.up.index((1 << self.n) - 1)

    @cached_property
    def top(self):
        return self.down.index((1 << self.n) - 1)

    # -- order and operations -------------------------------------------

    def _check_elements(self, *elements):
        # the element arguments of mu, interval, t_set, the cover lists
        # and maximal_extensions: a negative one would index from the end
        for a in elements:
            if not 0 <= a < self.n:
                raise ValueError(f"element {a} is not one of 0..{self.n - 1}")

    def leq(self, a, b):
        return bool(self.up[a] >> b & 1)

    def meet(self, a, b):
        return self._down_index[self.down[a] & self.down[b]]

    def join(self, a, b):
        return self._up_index[self.up[a] & self.up[b]]

    def is_cover(self, a, b):
        """True iff b covers a, i.e. a < b with nothing strictly between."""
        return a != b and (self.up[a] & self.down[b]) == (1 << a | 1 << b)

    @cached_property
    def covers(self):
        return tuple((a, b) for a, row in enumerate(self._upper) for b in bits(row))

    @cached_property
    def _lower(self):
        # the lower cover rows: bit j of row i is set iff i covers j
        return transpose(self._upper)

    @cached_property
    def _irreducibles(self):
        # (join irreducibles, meet irreducibles): one lower or upper cover
        return tuple(
            tuple(a for a, row in enumerate(rows) if row.bit_count() == 1)
            for rows in (self._lower, self._upper)
        )

    def lower_covers(self, a):
        self._check_elements(a)
        return tuple(bits(self._lower[a]))

    def upper_covers(self, a):
        self._check_elements(a)
        return tuple(bits(self._upper[a]))

    def label_of(self, a):
        return self.labels[a] if self.labels else str(a)

    # -- value semantics ------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteLattice) and self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, covers={list(self.covers)})"


def from_covers(n, covers, labels=None):
    """Build a lattice from its cover pairs (a, b) meaning b covers a.

    The reflexive transitive closure of the cover relation must be a
    lattice order. A cycle raises NotAPartialOrder naming a cover (a, b)
    on it, so that b reaches a; a missing meet or join raises NotALattice
    naming two elements.

    The elements are placed in topological order (Kahn): each once all
    its predecessors are, counting a repeated cover once. The down rows
    close in that order and the up rows in reverse, each row one OR per
    given pair, so no transpose steps through the order pairs. An
    element never placed has a predecessor never placed; walking back
    through those until one repeats ends on a given cover (a, b) whose b
    reaches a. The order sweep and the lattice check of
    ``FiniteLattice`` then run on both rows.
    """
    succ, pred = [0] * n, [0] * n
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            raise NotAPartialOrder(f"cover ({a}, {b}) is out of range")
        succ[a] |= 1 << b
        pred[b] |= 1 << a
    waiting = [row.bit_count() for row in pred]  # predecessors not yet placed
    order = [x for x in range(n) if not waiting[x]]
    for x in order:
        for b in bits(succ[x]):
            waiting[b] -= 1
            if not waiting[b]:
                order.append(b)
    if len(order) < n:
        a, seen = next(x for x, w in enumerate(waiting) if w), set()
        while a not in seen:
            seen.add(a)
            a, b = next(x for x in bits(pred[a]) if waiting[x]), a
        raise NotAPartialOrder(f"elements {a} and {b} form a cycle")
    down, up = [0] * n, [0] * n
    for x in order:
        down[x] = union(down, pred[x]) | 1 << x
    for x in reversed(order):
        up[x] = union(up, succ[x]) | 1 << x
    L = FiniteLattice.__new__(FiniteLattice)
    L._set_order(up, tuple(down), labels)
    L._check_lattice()
    return L


def join_irreducibles(L):
    """Elements with exactly one lower cover, as a sorted tuple, found
    once per lattice from its cover rows and kept on it."""
    return L._irreducibles[0]


def meet_irreducibles(L):
    """Elements with exactly one upper cover, as a sorted tuple, found
    once per lattice from its cover rows and kept on it."""
    return L._irreducibles[1]


def mu(L, a):
    """Meet of all lower covers of a. Undefined at the bottom element.

    Read off the down rows: the meet is the element whose down row is
    the AND of the lower covers' down rows, so no table is built.
    """
    L._check_elements(a)
    if not L._lower[a]:
        raise NoLowerCovers(f"element {a} is the bottom and has no lower covers")
    row = L.down[a]
    for c in bits(L._lower[a]):
        row &= L.down[c]
    return L._down_index[row]


def interval(L, a, b):
    """The sublattice [a, b] as a lattice of its own.

    Elements are reindexed in increasing order of their original index and
    labels follow along. Element e is the set ``down[e] & up[a] & down[b]``:
    inclusion orders these as the elements, and two meet in that of e^f.
    Raises EmptyInterval unless a <= b.
    """
    L._check_elements(a, b)
    if not L.leq(a, b):
        raise EmptyInterval(f"interval [{a}, {b}] is empty because {a} <= {b} fails")
    seg = L.up[a] & L.down[b]
    elems = tuple(bits(seg))
    labels = tuple(L.label_of(e) for e in elems) if L.labels else None
    return FiniteLattice.of_sets([L.down[e] & seg for e in elems], labels)


def order_dual(L):
    """The same elements with the order reversed.

    L is already a lattice, so nothing is validated or recomputed: the
    up and down rows swap, the upper and lower cover rows swap, and so
    do L's own join and meet irreducibles.
    """
    D = FiniteLattice.__new__(FiniteLattice)
    D.n, D.labels, D.up, D.down = L.n, L.labels, L.down, L.up
    D._upper, D._lower = L._lower, L._upper
    D._irreducibles = L._irreducibles[::-1]
    return D


def _invariants(down, lower, upper):
    """(height, lower cover count, upper cover count) per element of the
    lattice with these down rows and cover rows, the height being the
    length of a longest chain up from the bottom. The elements are
    visited by down-set size, so each lower cover comes first."""
    h = [0] * len(down)
    for x in sorted(range(len(down)), key=lambda i: down[i].bit_count()):
        h[x] = max((h[c] + 1 for c in bits(lower[x])), default=0)
    return tuple((hx, lx.bit_count(), ux.bit_count()) for hx, lx, ux in zip(h, lower, upper))


def _seeded(L):
    # the arguments of a canonical form of L
    return L.up, L.down, _invariants(L.down, L._lower, L._upper)


def lattice_isomorphic(L1, L2):
    """Order isomorphism test.

    Returns (ok, mapping); mapping sends elements of L1 to elements of L2
    when ok is True, else it is None.
    """
    if L1.n != L2.n:
        return False, None
    m = _canon.isomorphism(*_seeded(L1), *_seeded(L2))
    return (m is not None), m


def canonical_key(L):
    """Hashable key shared exactly by isomorphic lattices: the up rows of
    ``canonicalize(L)``."""
    return _canon.canonical_form(*_seeded(L))[0]


def canonicalize(L):
    """The canonical representative of the isomorphism class of L."""
    return relabel(L, _canon.canonical_form(*_seeded(L))[1])


def relabel(L, perm):
    """Relabel so that new element p is the old element perm[p]."""
    labels = tuple(L.label_of(perm[p]) for p in range(L.n)) if L.labels else None
    return FiniteLattice(permute(L.up, perm), labels)


def find_n5_sublattices(L):
    """All pentagon sublattices, as tuples (z, a, b, c, o).

    Here z = a^b = a^c, o = a|b = a|c, b < c, and a is incomparable to
    both b and c. Tuples come out lexicographically sorted. Meets and
    joins are compared as rows; z and o are looked up only for the
    tuples found.
    """
    up, down, full = L.up, L.down, (1 << L.n) - 1
    out = []
    for a in range(L.n):
        ua, da = up[a], down[a]
        others = full & ~(ua | da)
        for b in bits(others):
            meet, join = da & down[b], ua & up[b]
            for c in bits(others & up[b] & ~(1 << b)):
                if da & down[c] == meet and ua & up[c] == join:
                    out.append((L._down_index[meet], a, b, c, L._up_index[join]))
    return sorted(out)


def lattice_to_json(L):
    """Plain-dict form: {"n": ..., "covers": [[a, b], ...], "labels": ...}.
    The covers are read from the cover rows, in the order of
    ``L.covers``, which is not built."""
    obj = {"n": L.n, "covers": [[a, b] for a, row in enumerate(L._upper) for b in bits(row)]}
    if L.labels:
        obj["labels"] = {str(i): L.labels[i] for i in range(L.n)}
    return obj


def lattice_from_json(obj):
    if not isinstance(obj, dict) or "n" not in obj or "covers" not in obj:
        raise ValueError('lattice JSON needs keys "n" and "covers"')
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f'"n" must be a positive integer, not {n!r}')
    covers = json_pairs(obj["covers"], "covers")
    labels = None
    if obj.get("labels") is not None:
        if not isinstance(obj["labels"], dict):
            raise ValueError('"labels" must be an object from elements to names')
        names = obj["labels"]
        stray = sorted(set(names) - {str(i) for i in range(n)})
        if stray:
            raise ValueError(f'"labels" key {stray[0]!r} is not an element 0..{n - 1}')
        labels = tuple(str(names.get(str(i), i)) for i in range(n))
    return from_covers(n, covers, labels)


def lattice_to_dot(L):
    """Cover diagram in DOT, drawn bottom-up."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i in range(L.n):
        lines.append(f"  n{i} [label={dot_string(L.label_of(i))}];")
    for a, b in L.covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
