"""Benchmark inputs, built without latdual.

Lattices are written as latdual's JSON form, ``{"n": n, "covers": [[a, b],
...]}`` with ``b`` covering ``a``; digraphs as ``{"v": v, "arcs": [[x, y],
...]}`` with every loop written out. Every function here is deterministic; the
seed only enters through the ``random.Random`` handed in.
"""

from __future__ import annotations

from itertools import combinations, product

import oracles


def relabel_lattice(obj, rng):
    """The same lattice with its elements renumbered by a seeded shuffle."""
    perm = list(range(obj["n"]))
    rng.shuffle(perm)
    return {"n": obj["n"], "covers": sorted([perm[a], perm[b]] for a, b in obj["covers"])}


def relabel_digraph(obj, rng):
    """The same digraph with its vertices renumbered by a seeded shuffle."""
    perm = list(range(obj["v"]))
    rng.shuffle(perm)
    return {"v": obj["v"], "arcs": sorted([perm[x], perm[y]] for x, y in obj["arcs"])}


def boolean(k):
    """The lattice of subsets of a k-set."""
    covers = [
        [s, s | 1 << i] for s in range(1 << k) for i in range(k) if not s >> i & 1
    ]
    return {"n": 1 << k, "covers": covers}


def m_k(k):
    """Bottom, k pairwise incomparable atoms, top."""
    covers = [[0, i] for i in range(1, k + 1)] + [[i, k + 1] for i in range(1, k + 1)]
    return {"n": k + 2, "covers": covers}


def _set_partitions(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (part[i] | {first},) + part[i + 1 :]
        yield part + (frozenset([first]),)


def partition_lattice(m):
    """Set partitions of an m-set ordered by refinement (Pi_m)."""
    parts = sorted(
        (frozenset(p) for p in _set_partitions(list(range(m)))),
        key=lambda p: (-len(p), sorted(sorted(b) for b in p)),
    )
    index = {p: i for i, p in enumerate(parts)}
    covers = []
    for p in parts:
        # a cover merges exactly two blocks
        for b1, b2 in combinations(sorted(p, key=sorted), 2):
            q = (p - {b1, b2}) | {b1 | b2}
            covers.append([index[p], index[q]])
    return {"n": len(parts), "covers": sorted(covers)}


def chain_product(dims):
    """Product of chains with the given numbers of elements."""
    elems = list(product(*(range(d) for d in dims)))
    index = {e: i for i, e in enumerate(elems)}
    covers = []
    for e in elems:
        for axis, d in enumerate(dims):
            if e[axis] + 1 < d:
                f = e[:axis] + (e[axis] + 1,) + e[axis + 1 :]
                covers.append([index[e], index[f]])
    return {"n": len(elems), "covers": covers}


def loop_only(v):
    """v vertices, a loop at each, no other arcs; its map lattice is 2^v."""
    return {"v": v, "arcs": [[x, x] for x in range(v)]}


def dual_of(lattice_obj):
    """The dual digraph by definition: vertices are the maximal disjoint
    filter-ideal pairs (a, b), with an arc (a, b) -> (c, d) iff a <= d fails."""
    P = oracles.Poset.from_json(lattice_obj)
    pairs = oracles.mdfips(P)
    arcs = [
        [i, j]
        for i, (a, _) in enumerate(pairs)
        for j, (_, d) in enumerate(pairs)
        if not P.leq(a, d)
    ]
    return {"v": len(pairs), "arcs": arcs}


# -- convex geometries of planar point sets -------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def general_position(points):
    """No three points on a line (and no repeated point)."""
    return len(set(points)) == len(points) and all(
        _cross(a, b, c) != 0 for a, b, c in combinations(points, 3)
    )


def triangle_cover(points):
    """For every subset mask s, the mask of points strictly inside some
    triangle of points of s.

    In the plane a point lies in the convex hull of a set iff it lies in a
    triangle of its points (Caratheodory), so for points in general
    position the convex hull closure of s is ``s | cover[s]``.
    """
    k = len(points)
    full = (1 << k) - 1
    cover = [0] * (1 << k)
    for a, b, c in combinations(range(k), 3):
        pa, pb, pc = points[a], points[b], points[c]
        inner = 0
        for i, p in enumerate(points):
            # inside iff p is on the same side of all three edges
            sides = (_cross(pa, pb, p) > 0, _cross(pb, pc, p) > 0, _cross(pc, pa, p) > 0)
            if i not in (a, b, c) and sides[0] == sides[1] == sides[2]:
                inner |= 1 << i
        if inner:
            tri = 1 << a | 1 << b | 1 << c
            rest = sub = full & ~tri
            while True:
                cover[sub | tri] |= inner
                if not sub:
                    break
                sub = (sub - 1) & rest
    return cover


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class ConvexSets:
    """The lattice of convex subsets of a planar point set, computed with
    set operations on bitmasks: meet is intersection, join is the hull
    closure of the union.

    Elements are indexed by (size, sorted members) increasing, which is
    the numbering used in the JSON handed to latdual.
    """

    def __init__(self, points):
        self.points = tuple(points)
        k = len(points)
        self._cover = triangle_cover(points)
        self.sets = sorted(
            (s for s in range(1 << k) if not self._cover[s] & ~s),
            key=lambda s: (bin(s).count("1"), _members(s)),
        )
        self.index = {s: i for i, s in enumerate(self.sets)}
        self.n = len(self.sets)
        self.upper = []
        for s in self.sets:
            # the upper covers of a closed set are the minimal closures of
            # one more point
            cands = {self.close(s | 1 << x) for x in range(k) if not s >> x & 1}
            self.upper.append(sorted(
                self.index[c] for c in cands if not any(d != c and not d & ~c for d in cands)
            ))
        self.covers = [(i, j) for i in range(self.n) for j in self.upper[i]]

    def close(self, mask):
        return mask | self._cover[mask]

    def meet(self, i, j):
        return self.index[self.sets[i] & self.sets[j]]

    def join(self, i, j):
        return self.index[self.close(self.sets[i] | self.sets[j])]

    def leq(self, i, j):
        return not self.sets[i] & ~self.sets[j]

    def is_cover(self, i, j):
        return j in self.upper[i]

    def to_json(self):
        return {"n": self.n, "covers": [list(c) for c in self.covers]}


def random_points(rng, k, span=1000):
    while True:
        pts = [(rng.randrange(span), rng.randrange(span)) for _ in range(k)]
        if general_position(pts):
            return pts


def convex_profile(points):
    """(number of convex subsets, sum over them of 8 ** extreme points).

    The extreme points of a convex set are the ones inside no triangle of
    its points, and they are its lower covers in the lattice. latdual's
    ``md`` decider checks a Boolean interval of 2 ** c elements, cubically,
    at an element with c lower covers; hence the second figure.
    """
    count = weight = 0
    for s, inner in enumerate(triangle_cover(points)):
        if not inner & ~s:
            count += 1
            weight += 8 ** bin(s & ~inner).count("1")
    return count, weight


# seconds per unit of n ** 3 (the jsd scan) and of the weight above (md,
# run twice), measured on latdual at the commit that added this benchmark;
# they only steer the choice of inputs towards equal work for every seed
JSD_COST = 2.6e-7
MD_COST = 8e-7


def work(profile):
    n, weight = profile
    return JSD_COST * n**3 + MD_COST * weight


def convex_lattice(rng, k, target, candidates):
    """Of ``candidates`` seeded k-point sets in general position, the one
    whose lattice of convex sets needs closest to ``target`` seconds of
    decider work by the cost model in ``work``.

    A fixed number of candidates keeps the cost of making the input the
    same for every seed; choosing by modelled work keeps the benchmark's
    work close to the same for every seed.
    """
    pts = [random_points(rng, k) for _ in range(candidates)]
    best = min(pts, key=lambda p: abs(work(convex_profile(p)) - target))
    return ConvexSets(best)
