"""Reference computations written from the definitions, apart from latdual.

Everything here favours the literal reading of each definition over speed,
works on plain Python sets (or on the bitmasks a latdual output comes in),
and never imports latdual; the benchmark checks latdual's outputs against
these.

Run as a script to recount the TiRS digraph classes on v vertices, e.g.

    python3 perfbench/oracles.py tirs-classes 5

which prints 281 (the count pinned in ``checks.TIRS_CLASSES_V5``) after
about 40 s on one core of a 2-core x86-64 machine.
"""

from __future__ import annotations

import sys
from itertools import permutations, product

# OEIS A006966: unlabelled lattices on n elements, n = 1..8
LATTICES_BY_N = (1, 1, 1, 2, 5, 15, 53, 222)


class Poset:
    """A finite order given by its cover pairs, with its up-sets and down-sets."""

    def __init__(self, n, covers):
        self.n = n
        succ = {i: set() for i in range(n)}
        for a, b in covers:
            succ[a].add(b)
        self.up = []
        for i in range(n):
            seen, todo = {i}, [i]
            while todo:
                for y in succ[todo.pop()]:
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            self.up.append(frozenset(seen))
        self.down = [frozenset(j for j in range(n) if i in self.up[j]) for i in range(n)]

    @classmethod
    def from_json(cls, obj):
        return cls(obj["n"], [tuple(c) for c in obj["covers"]])

    def leq(self, a, b):
        return b in self.up[a]


def mdfips(P):
    """Maximal disjoint filter-ideal pairs, as generator pairs (a, b).

    The filter up(a) and the ideal down(b) are disjoint iff a <= b fails;
    the pair is maximal iff no other disjoint pair (a2, b2) has
    up(a) inside up(a2) and down(b) inside down(b2).
    """
    out = []
    for a in range(P.n):
        for b in range(P.n):
            if P.leq(a, b):
                continue
            if all(
                (a2, b2) == (a, b) or P.leq(a2, b2)
                for a2 in P.down[a]
                for b2 in P.up[b]
            ):
                out.append((a, b))
    return sorted(out)


# -- reflexive digraphs ---------------------------------------------------


class Graph:
    """A digraph on 0..v-1 as a set of arcs, with out-sets and in-sets."""

    def __init__(self, v, arcs):
        self.v = v
        self.arcs = frozenset(map(tuple, arcs))
        self.out = [frozenset(y for x, y in self.arcs if x == u) for u in range(v)]
        self.inn = [frozenset(x for x, y in self.arcs if y == u) for u in range(v)]


def separation(G):
    """Distinct vertices differ in out-set or in in-set."""
    return all(
        G.out[x] != G.out[y] or G.inn[x] != G.inn[y]
        for x in range(G.v)
        for y in range(x + 1, G.v)
    )


def reduction(G):
    """out(x) strictly inside out(y), or in(y) strictly inside in(x),
    forbids the arc (x, y)."""
    return not any(
        x != y and (G.out[x] < G.out[y] or G.inn[y] < G.inn[x])
        for x, y in G.arcs
    )


def interpolation(G):
    """Every arc (x, y) has z with out(z) inside out(x) and in(z) inside in(y)."""
    return all(
        any(G.out[z] <= G.out[x] and G.inn[z] <= G.inn[y] for z in range(G.v))
        for x, y in G.arcs
    )


def is_tirs(G):
    return separation(G) and reduction(G) and interpolation(G)


def lti(G):
    """Every arc (u, w) has z with out(z) = out(u) and in(z) inside in(w)."""
    return all(
        any(G.out[z] == G.out[u] and G.inn[z] <= G.inn[w] for z in range(G.v))
        for u, w in G.arcs
    )


def djsd(G):
    """Distinct vertices have distinct in-sets."""
    return len(set(G.inn)) == G.v


def reflexive_digraphs(v):
    """Every reflexive digraph on v labelled vertices."""
    pairs = [(x, y) for x in range(v) for y in range(v) if x != y]
    loops = [(x, x) for x in range(v)]
    for keep in product((False, True), repeat=len(pairs)):
        yield Graph(v, loops + [p for p, k in zip(pairs, keep) if k])


def class_key(G):
    """Isomorphism-class key: least sorted arc list over all relabellings."""
    return min(
        tuple(sorted((p[x], p[y]) for x, y in G.arcs))
        for p in permutations(range(G.v))
    )


def tirs_classes(v):
    """Number of isomorphism classes of TiRS digraphs on v vertices."""
    return len({class_key(G) for G in reflexive_digraphs(v) if is_tirs(G)})


def djsd_lti_r_count(max_v):
    """Labelled reflexive digraphs on 1..max_v vertices satisfying djsd,
    lti and reduction: the extra cases of the THM_4_10 scan."""
    return sum(
        1
        for v in range(1, max_v + 1)
        for G in reflexive_digraphs(v)
        if djsd(G) and lti(G) and reduction(G)
    )


# -- lattices as families of sets -----------------------------------------


def anti_exchange(ground, closed):
    """No distinct x, y outside a closed A with x in cl(A + y) and
    y in cl(A + x), cl being the least closed superset."""
    closed = [frozenset(c) for c in closed]

    def cl(s):
        out = frozenset(range(ground))
        for c in closed:
            if s <= c:
                out &= c
        return out

    for A in closed:
        outside = [x for x in range(ground) if x not in A]
        hull = {x: cl(A | {x}) for x in outside}
        for x in outside:
            for y in outside:
                if x != y and x in hull[y] and y in hull[x]:
                    return False
    return True


def lattice_counts(up):
    """(elements, covers, join irreducibles, meet irreducibles) of an order
    given by up-set bitmasks: bit j of up[i] is set iff i <= j.

    The upper covers of a are the elements strictly above a that are not
    strictly above another element strictly above a.
    """
    n = len(up)
    lower = [0] * n
    upper = [0] * n
    for a in range(n):
        strict = up[a] & ~(1 << a)
        above_strict = 0
        for c in range(n):
            if strict >> c & 1:
                above_strict |= up[c] & ~(1 << c)
        for b in range(n):
            if (strict & ~above_strict) >> b & 1:
                upper[a] += 1
                lower[b] += 1
    return (n, sum(upper), lower.count(1), upper.count(1))


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "tirs-classes":
        sys.exit("usage: oracles.py tirs-classes V")
    print(tirs_classes(int(sys.argv[2])))
