"""Canonical forms for binary relations given as out-neighbour bitmasks.

Individualization-refinement in the scheme of McKay & Piperno, *Practical
graph isomorphism, II* (J. Symb. Comput. 2014). Vertices start in cells
ordered by caller-supplied invariants, and refinement splits every cell by
the number of out- and in-neighbours each vertex has in each cell until
the partition is equitable. Splits stay in place inside their cell, so the
cell order of the invariants (heights first for lattices) survives into
the canonical labelling. Digraph callers pass a constant seed: the first
round splits the single cell by (out-degree, in-degree) in sorted order,
which is the partition that those degrees as seeds would give.

A search tree then individualizes, in turn, each vertex of the first cell
with more than one vertex and refines again. Its leaves are vertex
orderings, and the key is the least of the row tuples that the leaves
relabel the relation to, as the canonical form of McKay & Piperno is the
relabelled graph itself. A leaf whose rows equal the best leaf's gives
an automorphism, and the automorphisms prune the tree: a child in the
orbit of an explored child, under those that fix the node's
individualized vertices, is not entered. The key is exact for every n.
Inputs built to defeat refinement can still take exponential time, but
Boolean lattices, M_k, their dual digraphs and lattices of convex sets
take milliseconds.
"""

from __future__ import annotations

from ._bits import bits, permute


def _refine(rows, cols, n, cells):
    # cells is an ordered list of vertex masks; each round splits every
    # cell by the neighbour counts of its vertices in all cells, the parts
    # in sorted order where the cell was, until no cell splits
    while len(cells) < n:
        out = []
        for cell in cells:
            if cell & (cell - 1):
                parts = {}
                for v in bits(cell):
                    r, c = rows[v], cols[v]
                    outs = [(r & m).bit_count() for m in cells]
                    sig = tuple(outs + [(c & m).bit_count() for m in cells])
                    parts[sig] = parts.get(sig, 0) | 1 << v
                if len(parts) > 1:
                    out.extend(parts[s] for s in sorted(parts))
                    continue
            out.append(cell)
        if len(out) == len(cells):
            break
        cells = out
    return cells


def _close(mask, gens):
    # the union of the orbits of the vertices in mask under gens
    todo = list(bits(mask))
    while todo:
        x = todo.pop()
        for g in gens:
            y = g[x]
            if not mask >> y & 1:
                mask |= 1 << y
                todo.append(y)
    return mask


class _Node:
    """An inner node of the search tree: the equitable partition reached by
    individualizing the vertices of ``path`` in order."""

    __slots__ = ("cells", "path", "at", "seen", "known", "gens")

    def __init__(self, cells, path):
        self.cells = cells
        self.path = path
        self.at = next(i for i, c in enumerate(cells) if c & (c - 1))
        self.seen = 0  # explored children and their images under gens
        self.known = 0  # automorphisms looked at so far
        self.gens = []  # those that fix path pointwise

    def next_child(self, autos):
        """The next vertex of the target cell to individualize, or None."""
        if len(autos) > self.known:
            path = self.path
            self.gens += [g for g in autos[self.known:] if all(g[p] == p for p in path)]
            self.known = len(autos)
            self.seen = _close(self.seen, self.gens)
        todo = self.cells[self.at] & ~self.seen
        if not todo:
            return None
        v = (todo & -todo).bit_length() - 1
        self.seen = _close(self.seen | 1 << v, self.gens)
        return v

    def individualize(self, v):
        cells = list(self.cells)
        cells[self.at : self.at + 1] = [1 << v, cells[self.at] ^ 1 << v]
        return cells


def canonical_form(rows, cols, seeds):
    """Return (key, perm): key is the relation relabelled to its canonical
    form, a tuple of rows, and perm maps canonical position to original
    vertex, so that key is ``permute(rows, perm)``. ``cols`` is the
    converse of ``rows``. Isomorphic inputs with comparable seed
    invariants get identical keys.
    """
    rows = tuple(rows)
    n = len(rows)
    by_seed = {}
    for v, s in enumerate(seeds):
        by_seed[s] = by_seed.get(s, 0) | 1 << v
    cells = _refine(rows, cols, n, [by_seed[s] for s in sorted(by_seed)])
    if len(cells) == n:
        perm = tuple(c.bit_length() - 1 for c in cells)
        return permute(rows, perm), perm
    best = None  # (rows, perm, path) of the least leaf so far
    autos = []  # v -> image tables, one per leaf that relabelled like the best
    stack = [_Node(cells, ())]  # stack[d] is the node at depth d
    while stack:
        node = stack[-1]
        v = node.next_child(autos)
        if v is None:
            stack.pop()
            continue
        path = node.path + (v,)
        cells = _refine(rows, cols, n, node.individualize(v))
        if len(cells) < n:
            stack.append(_Node(cells, path))
            continue
        perm = tuple(c.bit_length() - 1 for c in cells)
        leaf = permute(rows, perm)
        if best is None or leaf < best[0]:
            best = (leaf, perm, path)
        elif leaf == best[0]:
            g = [0] * n
            for a, b in zip(best[1], perm):
                g[a] = b
            autos.append(g)
            # g carries the best leaf's path onto this one, so below the
            # deepest node the two share, this branch is the image of the
            # one explored before it
            d = 0
            while path[d] == best[2][d]:
                d += 1
            del stack[d + 1 :]
    return best[0], best[1]


def isomorphism(rows1, cols1, seeds1, rows2, cols2, seeds2):
    """Mapping vertex->vertex carrying relation 1 onto relation 2, or None;
    ``cols1`` and ``cols2`` are the converses."""
    key1, p1 = canonical_form(rows1, cols1, seeds1)
    key2, p2 = canonical_form(rows2, cols2, seeds2)
    if key1 != key2:
        return None
    out = [0] * len(p1)
    for v, w in zip(p1, p2):
        out[v] = w
    return tuple(out)
