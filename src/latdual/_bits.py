"""Binary relations and sets held as bitmasks.

A relation on 0..n-1 is a tuple of rows: bit j of ``rows[i]`` is set iff
i is related to j. A lattice's ``up`` rows, a digraph's out-neighbour rows
and the inclusion order of a set family are all relations in this sense,
so both directions of the duality use the same few operations.
"""

from __future__ import annotations


# the set bits of each mask below 256: lattice rows at n <= 8, digraph rows at v <= 5
_SMALL = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))


def bits(mask):
    """An iterator over the set bits of mask, lowest first."""
    return iter(_SMALL[mask]) if mask < 256 else _walk(mask)


def _walk(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union(rows, mask):
    """The union of ``rows[i]`` over the set bits i of mask."""
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


def mask(xs):
    """The bitmask with exactly the bits xs set."""
    out = 0
    for x in xs:
        out |= 1 << x
    return out


def json_pairs(items, key):
    """The pairs of a relation as read from JSON: a list of two-integer
    lists, returned as tuples. Any other shape raises ValueError."""
    if not isinstance(items, list):
        raise ValueError(f'"{key}" must be a list of pairs')
    for p in items:
        if not (isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)):
            raise ValueError(f'"{key}" entry {p!r} is not a pair of integers')
    return tuple(tuple(p) for p in items)


def dot_string(text):
    """text as a DOT quoted string, its backslashes and double quotes
    escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def transpose(rows, width=None):
    """The converse relation: bit i of column j is set iff bit j of row
    i is. There are ``width`` columns, by default one per row; every row
    must lie below bit ``width``."""
    cols = [0] * (len(rows) if width is None else width)
    for i, row in enumerate(rows):
        b = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= b
            row ^= low
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
    """The inclusion order on a family of set masks and its converse, as
    rows: bit j of row i is set iff ``sets[i]`` is a subset of
    ``sets[j]``. Both come from the membership columns: row i is the AND
    of the columns of the elements of ``sets[i]``, converse row j the
    sets in no column outside ``sets[j]``."""
    cols = transpose(sets, max(sets, default=0).bit_length())
    full = (1 << len(sets)) - 1
    rows, conv = [], []
    for s in sets:
        row, out = full, 0
        for x, col in enumerate(cols):
            if s >> x & 1:
                row &= col
            else:
                out |= col
        rows.append(row)
        conv.append(full & ~out)
    return tuple(rows), tuple(conv)


def upper_covers(up, down):
    """The cover rows of the order ``up``, given its converse ``down``:
    bit j of row i is set iff j covers i. None unless ``up`` is a
    partial order.

    One sweep per element i over the elements strictly above it, lowest
    first, keeps each b that nothing strictly above i lies below and
    drops everything above a kept b. The order is valid iff
    ``up[i] & down[i]`` is i alone and ``up[i]`` is i with the rows of
    its kept bits (transitivity, by induction on the row size); the kept
    bits are the upper covers.
    """
    out = []
    for i, row in enumerate(up):
        strict = row & ~(1 << i)
        rest, reach, kept = strict, 1 << i, 0
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            if down[b] & strict == low:
                kept |= low
                reach |= up[b]
                rest &= ~reach
            rest &= ~low
        if row & down[i] != 1 << i or reach != row:
            return None
        out.append(kept)
    return tuple(out)


def intersection_closed(sets, up, down, upper):
    """True iff a family of distinct set masks that contains its union is
    closed under pairwise intersection. ``up`` and ``down`` are the rows
    of its inclusion order and their converse, as ``inclusion`` returns
    them, and ``upper`` its cover rows, as ``upper_covers`` returns them.

    Only the members m with exactly one upper cover are tested: the
    family is closed iff a & m is a member for every member a and every
    such m. Proof that a & b is a member for all a, by downward
    induction on b. For the top, the union, a & b is a. A b with one
    upper cover is tested. Any other b has two upper covers c1 and c2.
    By induction c1 & c2 is a member; it lies between b and c1 and is
    not c1, which is not below c2, so it is b. Then
    a & b = (a & c1) & c2 is a member, by induction twice.

    Such an m is skipped when ``up[m] | down[m]`` holds every member:
    each a is then below m or above it, and a & m is a or m. Every other
    m is ANDed with all the members in one ``map``, which runs in C; a
    Python loop over only the members incomparable to m is slower on
    lattices with few comparable pairs. On a chain nothing is ANDed.
    """
    index, full = set(sets), (1 << len(sets)) - 1
    for m, above, below, row in zip(sets, up, down, upper):
        if row and not row & (row - 1) and above | below != full:
            if not index.issuperset(map(m.__and__, sets)):
                return False
    return True


def unclosed_pair(sets):
    """The first pair (a, b) of members, a before b in ``sets``, whose
    intersection is not a member; None if the family is closed under
    pairwise intersection. A quadratic scan, run only to name the fault
    once ``intersection_closed`` has rejected a family."""
    index = set(sets)
    for i, a in enumerate(sets):
        rest = sets[i + 1 :]
        if not index.issuperset({a & b for b in rest}):
            return a, next(b for b in rest if a & b not in index)
    return None
