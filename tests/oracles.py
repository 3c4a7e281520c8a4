"""Slow reference implementations used only by tests.

Everything here is deliberately naive: full permutation scans for
isomorphism, raw upper-triangular relation enumeration for lattice
counting, a sweep of every reflexive digraph for the TiRS classes, a
complete 3^v sweep and a pruned three-way scan for maximal partial map
enumeration, triple scans of the defining identities for the lattice
laws, and first-witness scans of the digraph conditions on out- and
in-sets. The package must agree with these on every small case.

The statement checks and the helpers they call are also kept here in
their earlier form, reading the order through ``leq``, ``meet`` and
``join`` one pair at a time, so that the row-mask versions in the
package can be compared with them case by case. They read the
irreducibles, the MDFIPs and the meets and joins (through the row
indexes ``_down_index`` and ``_up_index``) by the same accessors as the
package, so a corrupted cache reaches both alike.
"""

from itertools import combinations, permutations, product

from latdual.duality import mdfips, mpe_lattice
from latdual.lattice import join_irreducibles, meet_irreducibles


def _entries(value):
    # the scalars in a nest of tuples and lists
    if isinstance(value, (tuple, list)):
        return sum(map(_entries, value))
    return 1


def assert_no_square_table(L):
    """Fail if a value cached on L is a table of n rows holding n^2
    entries in all, as a meet or join table would be."""
    for name, value in vars(L).items():
        if isinstance(value, (tuple, list)) and len(value) == L.n:
            if all(isinstance(row, (tuple, list)) for row in value):
                assert _entries(value) < L.n**2, name


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relabel_rows(rows, perm):
    """perm maps new index -> old index."""
    n = len(rows)
    pos = [0] * n
    for p, old in enumerate(perm):
        pos[old] = p
    out = []
    for p in range(n):
        row = 0
        for j in bits(rows[perm[p]]):
            row |= 1 << pos[j]
        out.append(row)
    return tuple(out)


def rows_isomorphic_brute(rows1, rows2):
    """Try every bijection; works for any binary relation rows."""
    rows1, rows2 = tuple(rows1), tuple(rows2)
    if len(rows1) != len(rows2):
        return False
    n = len(rows1)
    for perm in permutations(range(n)):
        if relabel_rows(rows1, perm) == rows2:
            return True
    return False


def lattice_isomorphic_brute(L1, L2):
    return rows_isomorphic_brute(L1.up, L2.up)


def digraph_isomorphic_brute(G1, G2):
    return rows_isomorphic_brute(G1.rows, G2.rows)


def labeled_lattices(n):
    """All lattices on 0..n-1 whose order refines the integer order.

    Every lattice has a linear extension, so every isomorphism class
    shows up at least once. Yields up-row tuples.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for sel in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if sel >> k & 1:
                up[i] |= 1 << j
        ok = True
        for i in range(n):
            for j in bits(up[i]):
                if up[j] & ~up[i]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        down = [0] * n
        for i in range(n):
            for j in bits(up[i]):
                down[j] |= 1 << i
        up_rows = {up[i]: i for i in range(n)}
        down_rows = {down[i]: i for i in range(n)}
        for a in range(n):
            for b in range(a + 1, n):
                if up[a] & up[b] not in up_rows or down[a] & down[b] not in down_rows:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(up)


def count_lattice_classes(n):
    """Isomorphism class count via pairwise brute-force matching."""
    reps = []

    def invariant(rows):
        down = [0] * n
        for i in range(n):
            for j in bits(rows[i]):
                down[j] |= 1 << i
        return tuple(
            sorted((bin(rows[i]).count("1"), bin(down[i]).count("1")) for i in range(n))
        )

    for rows in labeled_lattices(n):
        inv = invariant(rows)
        if any(
            inv == rinv and rows_isomorphic_brute(rows, rrows)
            for rinv, rrows in reps
        ):
            continue
        reps.append((inv, rows))
    return len(reps)


def is_partial_order(rows):
    """Range, reflexivity, antisymmetry and transitivity, pair by pair and
    triple by triple."""
    n = len(rows)
    if any(row < 0 or row >> n for row in rows):
        return False

    def le(i, j):
        return bool(rows[i] >> j & 1)

    return (
        all(le(i, i) for i in range(n))
        and not any(i != j and le(i, j) and le(j, i) for i in range(n) for j in range(n))
        and all(
            le(i, k)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if le(i, j) and le(j, k)
        )
    )


def is_lattice(rows):
    """A nonempty partial order in which every pair has a least common
    upper bound and a greatest common lower bound, bound by bound."""
    n = len(rows)

    def le(i, j):
        return bool(rows[i] >> j & 1)

    for a in range(n):
        for b in range(n):
            upper = [x for x in range(n) if le(a, x) and le(b, x)]
            lower = [x for x in range(n) if le(x, a) and le(x, b)]
            if not any(all(le(u, x) for x in upper) for u in upper):
                return False
            if not any(all(le(x, g) for x in lower) for g in lower):
                return False
    return n > 0


def is_meet_semilattice(rows):
    """A nonempty partial order in which every pair has a greatest common
    lower bound, bound by bound."""
    n = len(rows)

    def le(i, j):
        return bool(rows[i] >> j & 1)

    for a in range(n):
        for b in range(n):
            lower = [x for x in range(n) if le(x, a) and le(x, b)]
            if not any(all(le(x, g) for x in lower) for g in lower):
                return False
    return n > 0


def cover_pairs(rows):
    """Pairs (a, b), a < b in the order with nothing strictly between,
    sorted."""
    n = len(rows)

    def lt(i, j):
        return i != j and bool(rows[i] >> j & 1)

    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in range(n))
    ]


def reflexive_rows(v):
    """All reflexive digraphs on v vertices, as row tuples."""
    options = []
    for i in range(v):
        rest = ((1 << v) - 1) ^ (1 << i)
        opts = []
        sub = rest
        while True:
            opts.append(sub | 1 << i)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        options.append(opts)
    yield from product(*options)


# Digraph axioms by their definitions, on out-sets and in-sets held as
# frozensets; rows[x] has bit y set iff there is an arc x -> y.


def _out_in(rows):
    v = len(rows)
    out = [frozenset(bits(r)) for r in rows]
    inn = [frozenset(x for x in range(v) if y in out[x]) for y in range(v)]
    return out, inn


def separation(rows):
    """Distinct vertices differ in out-set or in-set."""
    out, inn = _out_in(rows)
    v = len(rows)
    return all(
        out[x] != out[y] or inn[x] != inn[y] for x in range(v) for y in range(x + 1, v)
    )


def reduction(rows):
    """No arc x -> y with out(x) strictly inside out(y) or in(y) strictly
    inside in(x)."""
    out, inn = _out_in(rows)
    return not any(
        out[x] < out[y] or inn[y] < inn[x] for x in range(len(rows)) for y in out[x]
    )


def interpolation(rows):
    """Every arc x -> y has z with out(z) inside out(x) and in(z) inside
    in(y)."""
    out, inn = _out_in(rows)
    v = len(rows)
    return all(
        any(out[z] <= out[x] and inn[z] <= inn[y] for z in range(v))
        for x in range(v)
        for y in out[x]
    )


# the TiRS axioms in the order the package checks them
TIRS_AXIOMS = (("s", separation), ("r", reduction), ("ti", interpolation))


def is_tirs(rows):
    """Separation, reduction and interpolation."""
    return all(holds(rows) for _, holds in TIRS_AXIOMS)


def djsd_lti_r(rows):
    """Distinct in-sets, lower interpolation (every arc u -> w has z with
    out(z) = out(u) and in(z) inside in(w)) and reduction."""
    out, inn = _out_in(rows)
    v = len(rows)
    lti = all(
        any(out[z] == out[u] and inn[z] <= inn[w] for z in range(v))
        for u in range(v)
        for w in out[u]
    )
    return len(set(inn)) == v and lti and reduction(rows)


# First witnesses of the digraph deciders, by their definitions on the
# same sets. Each returns what the decider reports on failure, scanning
# in the decider's order (vertices, then out-neighbours, increasing), or
# None when the condition holds.


def _first_twin(sets):
    v = len(sets)
    return next(((x, y) for x in range(v) for y in range(x + 1, v) if sets[x] == sets[y]), None)


def djsd_witness(rows):
    """Two distinct vertices with the same in-set."""
    return _first_twin(_out_in(rows)[1])


def dmsd_witness(rows):
    """Two distinct vertices with the same out-set."""
    return _first_twin(_out_in(rows)[0])


def dsd_witness(rows):
    return djsd_witness(rows) or dmsd_witness(rows)


def _arc_without(rows, found):
    """The first arc x -> y with no z satisfying found(out, inn, x, y, z)."""
    out, inn = _out_in(rows)
    v = len(rows)
    for x in range(v):
        for y in sorted(out[x]):
            if not any(found(out, inn, x, y, z) for z in range(v)):
                return (x, y)
    return None


def lti_witness(rows):
    """An arc u -> w with no z having out(z) = out(u) and in(z) inside in(w)."""
    return _arc_without(rows, lambda out, inn, u, w, z: out[z] == out[u] and inn[z] <= inn[w])


def uti_witness(rows):
    """An arc u -> w with no z having out(z) inside out(u) and in(z) = in(w)."""
    return _arc_without(rows, lambda out, inn, u, w, z: out[z] <= out[u] and inn[z] == inn[w])


def tirs_witness(rows):
    """(axiom, pair) for the first of separation, reduction and
    interpolation that fails, as check_tirs reports it."""
    out, inn = _out_in(rows)
    twins = _first_twin(list(zip(out, inn)))
    if twins:
        return ("s", twins)
    for x in range(len(rows)):
        for y in sorted(out[x] - {x}):
            if out[x] < out[y] or inn[y] < inn[x]:
                return ("r", (x, y))
    w = _arc_without(rows, lambda out, inn, x, y, z: out[z] <= out[x] and inn[z] <= inn[y])
    return ("ti", w) if w else None


def _strict_arc(out, x, y):
    # an arc x -> y without the arc back
    return y in out[x] and x not in out[y]


def _linked(out, x, z):
    return z in out[x] or x in out[z]


def wt0_witness(rows):
    """x -> y -> z, no arc back along either, and no arc between x and z."""
    out = _out_in(rows)[0]
    return next(
        ((x, y, z) for x, y, z in product(range(len(rows)), repeat=3)
         if _strict_arc(out, x, y) and _strict_arc(out, y, z) and not _linked(out, x, z)),
        None,
    )


def wt1_witness(rows):
    """x -> y with x != y and no arc back, z linked to neither y nor x."""
    out = _out_in(rows)[0]
    return next(
        ((x, y, z) for x, y, z in product(range(len(rows)), repeat=3)
         if x != y and _strict_arc(out, x, y)
         and not _linked(out, y, z) and not _linked(out, x, z)),
        None,
    )


def fis_witness(rows):
    """The first triple x < y < z whose non-loop arcs are exactly one arc
    ("G1") or a directed path through all three vertices ("G0")."""
    out = _out_in(rows)[0]
    for t in combinations(range(len(rows)), 3):
        arcs = [(p, q) for p in t for q in t if p != q and q in out[p]]
        if len(arcs) == 1:
            return ("G1", t)
        if len(arcs) == 2 and any(q1 == p2 and p1 != q2 for (p1, q1), (p2, q2) in permutations(arcs)):
            return ("G0", t)
    return None


def find_induced(rows, kind):
    """The triples x < y < z, in order, whose non-loop arcs are none
    ("G2"), exactly one ("G1"), or exactly the two arcs p -> q -> r of
    some ordering p, q, r of the three ("G0")."""
    out = _out_in(rows)[0]
    found = []
    for t in combinations(range(len(rows)), 3):
        arcs = {(p, q) for p in t for q in t if p != q and q in out[p]}
        paths = [{(p, q), (q, r)} for p, q, r in permutations(t)]
        shape = "G2" if not arcs else "G1" if len(arcs) == 1 else "G0" if arcs in paths else None
        if shape == kind:
            found.append(t)
    return found


def tirs_classes(v):
    """One representative, the least relabelling, of each isomorphism
    class of TiRS digraphs on v vertices."""
    return sorted(
        {
            min(relabel_rows(rows, p) for p in permutations(range(v)))
            for rows in reflexive_rows(v)
            if is_tirs(rows)
        }
    )


def naive_mpe(G):
    """Every maximal arc-preserving partial map, by trying all 3^v maps.

    Returns a sorted list of (ones_mask, zeros_mask).
    """
    v = G.v
    rows = G.rows
    out = []
    for assign in product((1, 0, None), repeat=v):
        ones = zeros = 0
        for i, val in enumerate(assign):
            if val == 1:
                ones |= 1 << i
            elif val == 0:
                zeros |= 1 << i
        if any(rows[x] & zeros for x in bits(ones)):
            continue
        maximal = True
        for w in range(v):
            if assign[w] is not None:
                continue
            can_one = rows[w] & zeros == 0
            can_zero = G.cols[w] & ones == 0
            if can_one or can_zero:
                maximal = False
                break
        if maximal:
            out.append((ones, zeros))
    return sorted(out)


def mpe_enumerate_scan(G):
    """Every maximal arc-preserving partial map, by a pruned three-way scan
    over vertex assignments: 1, 0 or undefined in index order, dropping a
    branch once an undefined vertex could still take a value whatever
    happens later. Reaches duals too large for the 3^v sweep of naive_mpe.

    Returns a sorted list of (ones_mask, zeros_mask).
    """
    rows, cols, v = G.rows, G.cols, G.v
    suffix = [0] * (v + 1)
    for i in range(v - 1, -1, -1):
        suffix[i] = suffix[i + 1] | 1 << i
    found = []

    def rec(i, ones, zeros, undef):
        if i == v:
            for w in bits(undef):
                if rows[w] & zeros == 0 or cols[w] & ones == 0:
                    return
            found.append((ones, zeros))
            return
        b = 1 << i
        fut = suffix[i + 1]
        if rows[i] & zeros == 0:
            rec(i + 1, ones | b, zeros, undef)
        if cols[i] & ones == 0:
            rec(i + 1, ones, zeros | b, undef)
        if rows[i] & (zeros | fut) and cols[i] & (ones | fut):
            rec(i + 1, ones, zeros, undef | b)

    rec(0, 0, 0, 0)
    return sorted(found)


# Lattice laws by their definitions, using only L.meet and L.join (x <= y
# is read as x^y = x). Each returns the first failing tuple in
# lexicographic order, or None when the law holds.


def _cover_set(L):
    """The pairs (x, y) with y covering x."""
    n = L.n
    lt = [[x != y and L.meet(x, y) == x for y in range(n)] for x in range(n)]
    return {
        (x, y) for x in range(n) for y in range(n)
        if lt[x][y] and not any(lt[x][z] and lt[z][y] for z in range(n))
    }


def usm_witness(L):
    """a^b covered by a while b is not covered by a|b."""
    cov = _cover_set(L)
    for a in range(L.n):
        for b in range(L.n):
            if (L.meet(a, b), a) in cov and (b, L.join(a, b)) not in cov:
                return (a, b)
    return None


def lsm_witness(L):
    """a covered by a|b while a^b is not covered by b."""
    cov = _cover_set(L)
    for a in range(L.n):
        for b in range(L.n):
            if (a, L.join(a, b)) in cov and (L.meet(a, b), b) not in cov:
                return (a, b)
    return None


def jsd_witness(L):
    for a in range(L.n):
        for b in range(L.n):
            for c in range(L.n):
                ab = L.join(a, b)
                if ab == L.join(a, c) and ab != L.join(a, L.meet(b, c)):
                    return (a, b, c)
    return None


def msd_witness(L):
    for a in range(L.n):
        for b in range(L.n):
            for c in range(L.n):
                ab = L.meet(a, b)
                if ab == L.meet(a, c) and ab != L.meet(a, L.join(b, c)):
                    return (a, b, c)
    return None


def sd_witness(L):
    return jsd_witness(L) or msd_witness(L)


def _dist_witness(L, elements):
    for a in elements:
        for b in elements:
            for c in elements:
                if L.meet(a, L.join(b, c)) != L.join(L.meet(a, b), L.meet(a, c)):
                    return (a, b, c)
    return None


def dist_witness(L):
    return _dist_witness(L, range(L.n))


def mod_witness(L):
    for a in range(L.n):
        for b in range(L.n):
            for c in range(L.n):
                if L.meet(a, c) != a:
                    continue
                if L.join(a, L.meet(b, c)) != L.meet(L.join(a, b), c):
                    return (a, b, c)
    return None


def md_witness(L):
    """The first a other than the bottom whose interval [m, a], m the meet
    of the lower covers of a, is not distributive, as (a,)."""
    n = L.n

    def lt(x, y):
        return x != y and L.meet(x, y) == x

    for a in range(n):
        lower = [b for b in range(n)
                 if lt(b, a) and not any(lt(b, c) and lt(c, a) for c in range(n))]
        if not lower:
            continue
        m = lower[0]
        for b in lower[1:]:
            m = L.meet(m, b)
        seg = [x for x in range(n) if L.meet(m, x) == m and L.meet(x, a) == x]
        if _dist_witness(L, seg) is not None:
            return (a,)
    return None


def md_rows_witness(L):
    """md tested member by member: the first a other than the bottom
    whose interval [m, a], m the meet of its lower covers p_1..p_c, is
    not Boolean on its coatoms, that is, does not have 2^c elements
    ordered by x <= y iff P(y) is inside P(x), P(x) being the p_i above
    x. As (a,), or None."""
    n = L.n
    for a in range(n):
        lower = [p for p in range(n) if L.is_cover(p, a)]
        if not lower:
            continue
        m = lower[0]
        for p in lower[1:]:
            m = L.meet(m, p)
        seg = [x for x in range(n) if L.leq(m, x) and L.leq(x, a)]
        P = {x: {p for p in lower if L.leq(x, p)} for x in seg}
        if len(seg) != 2 ** len(lower) or any(
            L.leq(x, y) != (P[y] <= P[x]) for x in seg for y in seg
        ):
            return (a,)
    return None


def convex_sets(points):
    """Closed sets of the convex geometry of planar points in general
    position, as bitmasks: S is closed iff no other point lies in a
    triangle of S."""

    def inside(p, a, b, c):
        def cross(o, u, v):
            return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

        s = [cross(a, b, p) > 0, cross(b, c, p) > 0, cross(c, a, p) > 0]
        return all(s) or not any(s)

    k = len(points)
    closed = []
    for mask in range(1 << k):
        members = [points[i] for i in range(k) if mask >> i & 1]
        outside = [points[i] for i in range(k) if not mask >> i & 1]
        if not any(inside(p, *t) for p in outside for t in combinations(members, 3)):
            closed.append(mask)
    return closed


# -- Statement checks and their helpers as written on leq, meet and join.
# Each takes what the package function takes and returns the same value.


def lt(L, a, b):
    return a != b and L.leq(a, b)


def mdfips_bruteforce(L):
    out = []
    for a in range(L.n):
        for b in range(L.n):
            if L.leq(a, b):
                continue
            maximal = True
            for a2 in bits(L.down[a]):
                for b2 in bits(L.up[b]):
                    if (a2, b2) == (a, b):
                        continue
                    if not L.leq(a2, b2):
                        maximal = False
                        break
                if not maximal:
                    break
            if maximal:
                out.append((a, b))
    return sorted(out)


def dual_digraph_rows(L):
    verts = mdfips(L)
    rows = []
    for a, _ in verts:
        row = 0
        for j, (_, d) in enumerate(verts):
            if not L.leq(a, d):
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def find_n5_sublattices(L):
    out = []
    for a in range(L.n):
        others = [x for x in range(L.n) if not L.leq(a, x) and not L.leq(x, a)]
        for b in others:
            for c in others:
                if not lt(L, b, c):
                    continue
                if L.meet(a, b) != L.meet(a, c):
                    continue
                if L.join(a, b) != L.join(a, c):
                    continue
                out.append((L.meet(a, b), a, b, c, L.join(a, b)))
    return sorted(out)


def t_set(L, a, b):
    return frozenset(
        m for m in meet_irreducibles(L) if L.leq(b, m) and not L.leq(a, m)
    )


def jmlsm_witness(L):
    mi = meet_irreducibles(L)
    for a in join_irreducibles(L):
        for b in mi:
            if L.is_cover(b, L.join(a, b)) and not L.is_cover(L.meet(a, b), a):
                return (a, b)
    return None


def jmusm_witness(L):
    mi = meet_irreducibles(L)
    for a in join_irreducibles(L):
        for b in mi:
            if L.is_cover(L.meet(a, b), a) and not L.is_cover(b, L.join(a, b)):
                return (a, b)
    return None


def wjsd_witness(L):
    ji = join_irreducibles(L)
    for a in meet_irreducibles(L):
        for b in ji:
            for c in range(L.n):
                ab = L.join(a, b)
                if ab == L.join(a, c) and ab != L.join(a, L.meet(b, c)):
                    return (a, b, c)
    return None


def labc_witness(L):
    pairs = mdfips(L)
    mi = meet_irreducibles(L)
    for a in join_irreducibles(L):
        for b in mi:
            if L.leq(a, b):
                continue
            if not any(a2 == a and L.leq(b, c) for a2, c in pairs):
                return (a, b)
    return None


def uabc_witness(L):
    pairs = mdfips(L)
    mi = meet_irreducibles(L)
    for a in join_irreducibles(L):
        for b in mi:
            if L.leq(a, b):
                continue
            if not any(b2 == b and L.leq(c, a) for c, b2 in pairs):
                return (a, b)
    return None


def prop_2_2(case):
    L = case.lattice
    ji = set(join_irreducibles(L))
    mi = set(meet_irreducibles(L))
    for a, b in case.pairs_by_definition:
        if a not in ji or b not in mi:
            return False, {"pair": [a, b]}
    return True, None


def lem_2_3(case):
    L = case.lattice
    G = case.digraph
    verts = case.pairs
    for i, (a, b) in enumerate(verts):
        for j, (c, d) in enumerate(verts):
            if (G.rows[i] & ~G.rows[j] == 0) != L.leq(a, c):
                return False, {"x": [a, b], "y": [c, d], "side": "out"}
            if (G.cols[i] & ~G.cols[j] == 0) != L.leq(d, b):
                return False, {"x": [a, b], "y": [c, d], "side": "in"}
    return True, None


def rows_isomorphic_graded(rows1, rows2):
    """Isomorphism of two relations by trying every bijection that keeps
    each element's (row size, column size), element by element with the
    pairs placed so far checked at each step."""
    n = len(rows1)
    if n != len(rows2):
        return False

    def grades(rows):
        cols = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
        return [(bin(rows[i]).count("1"), bin(cols[i]).count("1")) for i in range(n)]

    g1, g2 = grades(rows1), grades(rows2)
    if sorted(g1) != sorted(g2):
        return False
    image = []  # image[p]: the element of rows1 placed at p of rows2

    def extend(p):
        if p == n:
            return True
        for x in range(n):
            if x in image or g1[x] != g2[p]:
                continue
            if all(
                (rows1[x] >> image[q] & 1) == (rows2[p] >> q & 1)
                and (rows1[image[q]] >> x & 1) == (rows2[q] >> p & 1)
                for q in range(p)
            ) and (rows1[x] >> x & 1) == (rows2[p] >> p & 1):
                image.append(x)
                if extend(p + 1):
                    return True
                image.pop()
        return False

    return extend(0)


def thm_2_6_lattice(case):
    """The lattice is isomorphic to the map lattice of the case's dual
    digraph (the earlier body built that dual again from the lattice)."""
    if rows_isomorphic_graded(case.lattice.up, mpe_lattice(case.digraph).up):
        return True, None
    return False, None


def thm_2_6_digraph(case):
    """The digraph is isomorphic to the dual of the case's map lattice
    (the earlier body built that lattice again from the digraph)."""
    if rows_isomorphic_graded(case.digraph.rows, dual_digraph_rows(case.lattice)):
        return True, None
    return False, None


def ploscica(maps):
    for f in maps:
        for g in maps:
            if (f.ones <= g.ones) != (g.zeros <= f.zeros):
                return False, {
                    "f": [sorted(f.ones), sorted(f.zeros)],
                    "g": [sorted(g.ones), sorted(g.zeros)],
                }
    return True, None


def lem_3_1(case):
    L = case.lattice
    ji = join_irreducibles(L)
    mi = meet_irreducibles(L)
    for a in range(L.n):
        for b in range(L.n):
            nle = not L.leq(a, b)
            viaj = any(L.leq(j, a) and not L.leq(j, b) for j in ji)
            viam = any(L.leq(b, m) and not L.leq(a, m) for m in mi)
            if not (nle == viaj == viam):
                return False, {"a": a, "b": b}
    return True, None


def thm_3_2(case):
    L, mi = case.lattice, meet_irreducibles(case.lattice)
    fast = [
        (a, b)
        for a in join_irreducibles(L)
        for b in mi
        if not L.leq(a, b)
        and L.is_cover(b, L.join(a, b)) and L.is_cover(L.meet(a, b), a)
    ]
    slow = case.pairs_by_definition
    if fast == slow:
        return True, None
    return False, {"fast": [list(p) for p in fast], "slow": [list(p) for p in slow]}


def lem_3_4(case):
    L = case.lattice
    for b in meet_irreducibles(L):
        for a in range(L.n):
            if not L.is_cover(b, L.join(a, b)):
                continue
            for c in bits(L.up[b] & ~(1 << b)):
                if not L.leq(a, c):
                    return False, {"part": "upper", "a": a, "b": b, "c": c}
    for a in join_irreducibles(L):
        for b in range(L.n):
            if not L.is_cover(L.meet(a, b), a):
                continue
            for d in bits(L.down[a] & ~(1 << a)):
                if not L.leq(d, b):
                    return False, {"part": "lower", "a": a, "b": b, "d": d}
    return True, None


def lem_3_5(case):
    L = case.lattice
    for a in range(L.n):
        for b in range(L.n):
            if L.leq(a, b):
                continue
            ts = t_set(L, a, b)
            for d in ts:
                if any(e != d and lt(L, d, e) for e in ts):
                    continue
                if not L.is_cover(d, L.join(d, a)):
                    return False, {"a": a, "b": b, "d": d}
    return True, None


def prop_3_7(case):
    # the irreducibles by their cover counts, the pairs as the case holds them
    L = case.lattice
    for key, side in (("unmatched_join_irreducible", 0), ("unmatched_meet_irreducible", 1)):
        for x in range(L.n):
            covers = [y for y in range(L.n) if (L.is_cover(y, x), L.is_cover(x, y))[side]]
            if len(covers) == 1 and all(p[side] != x for p in case.pairs):
                return False, {key: x}
    return True, None


def lem_5_1(case):
    L = case.lattice
    idx = {p: i for i, p in enumerate(case.pairs)}
    G = case.digraph
    for z0, a, b, c, o in find_n5_sublattices(L):
        xs, ys, ws = (
            [pair for pair in case.pairs if L.leq(pair[0], u) and L.leq(v, pair[1])]
            for u, v in ((a, c), (c, b), (b, a))
        )
        for x in xs:
            for y in ys:
                for w in ws:
                    if len({x, y, w}) != 3:
                        return False, {
                            "pentagon": [z0, a, b, c, o],
                            "triple": [list(x), list(y), list(w)],
                            "reason": "not distinct",
                        }
                    i, j, k = idx[x], idx[y], idx[w]
                    allowed = {(i, j), (j, k)}
                    for p, q in (
                        (i, j), (j, i), (i, k), (k, i), (j, k), (k, j),
                    ):
                        if G.has_arc(p, q) and (p, q) not in allowed:
                            return False, {
                                "pentagon": [z0, a, b, c, o],
                                "triple": [list(x), list(y), list(w)],
                                "arc": [list(case.pairs[p]), list(case.pairs[q])],
                            }
    return True, None
