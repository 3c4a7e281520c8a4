"""Binary relations and sets held as bitmasks.

A relation on 0..n-1 is a tuple of rows: bit j of ``rows[i]`` is set iff
i is related to j. A lattice's ``up`` rows, a digraph's out-neighbour rows
and the inclusion order of a set family are all relations in this sense,
so both directions of the duality use the same few operations.
"""

from __future__ import annotations


def bits(mask):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask(xs):
    """The bitmask with exactly the bits xs set."""
    out = 0
    for x in xs:
        out |= 1 << x
    return out


def transpose(rows):
    """The converse relation: bit i of row j is set iff bit j of row i is."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            cols[j] |= 1 << i
    return tuple(cols)


def permute(rows, perm):
    """The relation relabelled so that new p is old ``perm[p]``."""
    pos = [0] * len(perm)
    for p, old in enumerate(perm):
        pos[old] = p
    out = []
    for old in perm:
        row = 0
        for j in bits(rows[old]):
            row |= 1 << pos[j]
        out.append(row)
    return tuple(out)


def inclusion(sets):
    """The inclusion order on a family of set masks, as rows: bit j of
    row i is set iff ``sets[i]`` is a subset of ``sets[j]``."""
    rows = []
    for s in sets:
        row = 0
        for j, t in enumerate(sets):
            if s & ~t == 0:
                row |= 1 << j
        rows.append(row)
    return tuple(rows)
