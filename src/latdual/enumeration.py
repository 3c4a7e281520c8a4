"""Exhaustive enumeration of small lattices and small dual-class digraphs,
one representative per isomorphism class.

Lattices are generated levelwise from the canonical lattices one element
smaller: the top of a lattice on n - 1 elements is dropped, a new coatom
is placed above a down-set d of what remains, subject to the new element
having a meet with every x (d & down[x] must be some element's down
row), and the top goes back. An extension is dropped when an element
other than the top has a larger down-set than the new coatom. Removing
a coatom with the largest down-set from any lattice on n >= 3 elements
lands back in the previous level, so the sweep is complete; one
canonical form per kept extension collapses labellings, and canonical
rows keep the bottom first and the top last, which the next level reads.

Digraphs are found by a depth-first assignment of reflexive rows that
makes three cuts before the full axiom check, in the spirit of McKay's
orderly generation. It keeps only labellings whose (out-degree,
in-degree) pairs (loop included) do not increase lexicographically with
the vertex: sorting the vertices by that pair relabels any digraph into
this order, so every isomorphism class keeps a member. Out-degrees are
known row by row and cut partial assignments; in-degrees need every row,
so the tie-break is decided once the last row is placed. The search also
drops a partial assignment as soon as two fixed rows give an arc x -> y
with out(x) a proper subset of out(y): reduction forbids that arc, and
the test reads those two rows alone, so no extension can repair it. That
cut does not depend on the labelling, so it removes whole classes, never
a class's last sorted member. Canonical forms then collapse the
labellings that remain. The search never consults the lattice-side
generator.

Canonical forms of lattices are seeded by the lattice invariants, heights
first. Those of digraphs get a constant seed: the first refinement round
already splits the vertices by (out-degree, in-degree), so degree seeds
would only repeat it. Neither is memoised, as a row tuple almost never
comes up twice. A canonical form is the relabelled rows themselves, so a
level is the set of the forms it meets. Each form is handed the converse
rows already built: the parent's down rows with the two of the new
coatom and the top, and the columns that ``check_tirs`` read from the
candidate digraph.

Each catalog level is cached as rows, never as objects: a lattice level
holds the sorted canonical order rows, a digraph level the sorted
canonical arc rows. ``enumerate_lattices`` and ``enumerate_tirs_digraphs``
build new objects from them on each call, and ``_lattices`` builds each
lattice only when its consumer reaches it, so what a caller caches on a
catalog object lives as long as that object, not as long as the level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _canon
from ._bits import bits, transpose, union, upper_covers
from .digraph import Digraph, check_tirs
from .errors import BoundTooLarge
from .lattice import FiniteLattice, _invariants

MAX_LATTICE_N = 10
MAX_TIRS_V = 5


@dataclass(frozen=True)
class LatticeCatalog:
    max_n: int
    entries: tuple

    def by_size(self, n):
        return tuple(L for L in self.entries if L.n == n)

    def counts(self):
        out = {}
        for L in self.entries:
            out[L.n] = out.get(L.n, 0) + 1
        return out


_canonical_form = _canon.canonical_form


@lru_cache(maxsize=None)
def _lattice_level(n):
    """Canonical order rows of the lattices on n elements, sorted.

    Level n grows from level n - 1. The top of a parent is dropped, which
    leaves a meet semilattice on k = n - 2 elements; a new coatom goes
    above a down-set d of it, and the top goes back above everything.
    An extension is kept only if no element but the top has a larger
    down-set than the new coatom. Each kept extension gets one canonical
    form, and the level is the set of those canonical rows.

    No lattice object is built per extension, as the proof below shows
    each kept one is a lattice. Nothing new lies below an old element,
    so its down rows are the parent's but the top's, then d | top and
    the full row; ``upper_covers`` gives its cover rows, and the seeds
    of its form come from these rows.

    Completeness: a lattice L on n >= 3 elements has a coatom c other
    than its bottom; take one with the largest down-set, which is then
    the largest of any element but the top, as each lies below a
    coatom. Removing c leaves a lattice: no meet of two other elements
    is c, since only c and the top lie above c, so meets are unchanged;
    a join that was c becomes the top. So L - c is in a class of level
    n - 1, and the extension of that class's representative above the
    image of down(c) - c regenerates L and passes the size test. The
    two order filters pass exactly the d for which the new element
    meets every element, and a meet semilattice with a top adjoined is
    a lattice.

    Labelling: ``_refine`` keeps cells in seed order, and height is the
    first seed of ``_invariants``, so canonical rows are labelled by
    height: the bottom is 0, the top is last, and every element of a
    parent other than its top lies below index k.

    Identity: a level is the sorted set of its classes' canonical rows,
    which does not depend on the path that generated the classes.
    """
    if n <= 2:
        return ((1,),) if n == 1 else ((3, 2),)
    k = n - 2
    top = 1 << k
    reps = set()
    for rows in _lattice_level(n - 1):
        down = transpose(rows)[:k]
        principal = set(down)
        # the new coatom's down-set, d and itself, may be no smaller than
        # any other element's but the top's
        least = max(dx.bit_count() for dx in down) - 1
        # candidate down-sets of the new coatom; every nonempty down-set
        # contains the bottom 0
        for d in range(1, top, 2):
            if d.bit_count() < least or union(down, d) & ~d:
                continue
            # the new coatom meets x iff d & down[x] is a down row
            if any(d & dx not in principal for dx in down):
                continue
            # the parent's top k becomes the coatom above d, and k + 1
            # the new top; no element lands below an old one
            ext_up = tuple(
                (r if d >> i & 1 else r ^ top) | top << 1 for i, r in enumerate(rows[:k])
            ) + (top | top << 1, top << 1)
            ext_down = down + (d | top, (top << 2) - 1)
            upper = upper_covers(ext_up, ext_down)
            if upper is None:
                raise RuntimeError(f"an extension of {rows} is not a partial order")
            seeds = _invariants(ext_down, transpose(upper), upper)
            reps.add(_canonical_form(ext_up, ext_down, seeds)[0])
    return tuple(sorted(reps))


def _lattices(max_n):
    """The catalog lattices with up to max_n elements, level by level,
    each built from its level's rows as it is reached."""
    if not 1 <= max_n <= MAX_LATTICE_N:
        raise BoundTooLarge(
            f"lattice enumeration supports 1 <= max_n <= {MAX_LATTICE_N}, got {max_n}"
        )
    for n in range(1, max_n + 1):
        for rows in _lattice_level(n):
            yield FiniteLattice(rows)


def enumerate_lattices(max_n):
    """Catalog of all lattices with up to max_n elements, one per class."""
    return LatticeCatalog(max_n, tuple(_lattices(max_n)))


def _reflexive_row_options(v):
    # the rows with bit i set, for each vertex i, in decreasing order
    return [[r for r in range((1 << v) - 1, -1, -1) if r >> i & 1] for i in range(v)]


def _tirs_candidates(v):
    """Reflexive digraphs on v vertices, in the order of the full product
    of row options, whose (out-degree, in-degree) pairs (loop included)
    do not increase lexicographically with the vertex and which have no
    arc x -> y with out(x) a proper subset of out(y).

    Sorting the vertices by that pair relabels any digraph into this
    order, and the arc condition does not depend on the labelling, so
    every class of digraphs without such an arc keeps a member. Rows are
    assigned depth first; the out-degree order and the arc condition cut
    partial assignments, and the in-degree tie-break, which needs every
    row, is decided at the leaf from column sums carried down the search:
    field y of ``ins``, ``v.bit_length()`` bits wide, counts the rows so
    far with an arc into y."""
    w = v.bit_length()
    field = (1 << w) - 1
    # each option once, with its out-degree, its arcs to earlier rows and
    # its arcs as one count in each in-degree field
    options = [
        [
            (
                r,
                r.bit_count(),
                tuple(bits(r & ((1 << i) - 1))),
                sum(1 << w * y for y in bits(r)),
            )
            for r in opts
        ]
        for i, opts in enumerate(_reflexive_row_options(v))
    ]
    rows, degs = [], []

    def extend(i, cap, ins):
        if i == v:
            for x in range(1, v):
                if degs[x] == degs[x - 1]:
                    if ins >> w * x & field > ins >> w * (x - 1) & field:
                        return
            yield tuple(rows)
            return
        for r, deg, earlier, col in options[i]:
            if deg > cap:
                continue
            # an earlier row has at least deg arcs, so only an arc from
            # the new row can point into a proper superset
            for j in earlier:
                if r & ~rows[j] == 0 and r != rows[j]:
                    break
            else:
                rows.append(r)
                degs.append(deg)
                yield from extend(i + 1, deg, ins + col)
                rows.pop()
                degs.pop()

    return extend(0, v, 0)


@lru_cache(maxsize=None)
def _tirs_level(v):
    """Canonical representatives of axiom-passing digraphs on v vertices."""
    reps = set()
    for rows in _tirs_candidates(v):
        G = Digraph(rows)
        if check_tirs(G):
            reps.add(_canonical_form(rows, G.cols, (0,) * v)[0])
    return tuple(sorted(reps))


def enumerate_tirs_digraphs(max_v):
    """All axiom-passing reflexive digraphs with 1..max_v vertices, one
    per isomorphism class, each revalidated on the way out."""
    if not 1 <= max_v <= MAX_TIRS_V:
        raise BoundTooLarge(
            f"digraph enumeration supports 1 <= max_v <= {MAX_TIRS_V}, got {max_v}"
        )
    out = []
    for v in range(1, max_v + 1):
        for rows in _tirs_level(v):
            G = Digraph(rows)
            if not check_tirs(G):
                raise AssertionError("enumeration produced a non-axiom digraph")
            out.append(G)
    return tuple(out)
