"""Canonical forms against the brute-force oracles, under relabelling, and
on the symmetric inputs that a product-of-permutations search cannot finish."""

import json
import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latdual as ld
from latdual import _canon
from latdual.cli import main
from latdual.fixtures import m_k
from latdual.lattice import _seeded
from oracles import reflexive_rows, relabel_rows, rows_isomorphic_brute

# loopless digraphs on 1..4 unlabelled vertices (OEIS A000273); adding
# every loop is a bijection onto reflexive digraphs
REFLEXIVE_DIGRAPH_CLASSES = {1: 1, 2: 3, 3: 16, 4: 218}


def boolean(k):
    """The lattice of subsets of a k-set, element i being the set of bits of i."""
    full = (1 << k) - 1
    return ld.FiniteLattice(
        [sum(1 << j for j in range(1 << k) if i & ~j & full == 0) for i in range(1 << k)]
    )


def shuffled(L, seed):
    perm = list(range(L.n))
    random.Random(seed).shuffle(perm)
    return ld.relabel(L, perm)


def shuffled_rows(rows, seed):
    perm = list(range(len(rows)))
    random.Random(seed).shuffle(perm)
    return relabel_rows(rows, perm)


def graph(v, edges, directed=False):
    """A digraph from an edge list; undirected edges give arcs both ways."""
    if not directed:
        edges = [arc for x, y in edges for arc in ((x, y), (y, x))]
    return ld.Digraph.from_arcs(v, edges)


def cycles(*lengths, directed=False):
    """Disjoint cycles: every vertex has the same degrees, so colour
    refinement keeps all of them in one cell, though cycles of different
    lengths lie in different orbits."""
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return graph(start, edges, directed)


def frucht():
    """The cubic graph on 12 vertices whose only automorphism is the identity."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    ring = [(i, (i + 1) % 12) for i in range(12)]
    return graph(12, ring + [(i, (i + d) % 12) for i, d in enumerate(lcf)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph(10, outer + inner + [(i, 5 + i) for i in range(5)])


def z4z4(steps):
    """The Cayley graph of Z4 x Z4 with the given steps, vertex 4a + b."""
    edges = [
        (4 * a + b, 4 * ((a + s) % 4) + (b + t) % 4)
        for a in range(4) for b in range(4) for s, t in steps
    ]
    return graph(16, edges)


# both strongly regular with parameters (16, 6, 2, 2)
ROOK_4X4 = z4z4([(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)])
SHRIKHANDE = z4z4([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])


def disjoint_union(*graphs):
    rows, start = [], 0
    for G in graphs:
        rows += [r << start for r in G.rows]
        start += G.v
    return ld.Digraph(rows)


K7 = graph(7, combinations(range(7), 2))


def assert_keys_match_brute(pairs_by_size, key):
    for objs in pairs_by_size.values():
        for i, (a, ra) in enumerate(objs):
            for b, rb in objs[i + 1 :]:
                assert (key(a) == key(b)) == rows_isomorphic_brute(ra, rb)


def test_lattice_keys_equal_iff_isomorphic(catalog6):
    by_size = {}
    for i, L in enumerate(catalog6.entries):
        for M in (L, shuffled(L, i)):
            by_size.setdefault(L.n, []).append((M, M.up))
    assert_keys_match_brute(by_size, ld.canonical_key)


def with_shuffled_copies(digraphs):
    by_size = {}
    for i, G in enumerate(digraphs):
        for rows in (G.rows, shuffled_rows(G.rows, i)):
            by_size.setdefault(G.v, []).append((ld.Digraph(rows), rows))
    return by_size


def test_tirs_keys_equal_iff_isomorphic(tirs4):
    assert_keys_match_brute(with_shuffled_copies(tirs4), ld.digraph_canonical_key)


def test_reflexive_digraph_keys_equal_iff_isomorphic():
    by_size = {
        v: [(ld.Digraph(rows), rows) for rows in reflexive_rows(v)] for v in (1, 2, 3)
    }
    assert_keys_match_brute(by_size, ld.digraph_canonical_key)


def test_cycle_union_keys_equal_iff_isomorphic():
    # one refined cell each, several orbits, and classes refinement cannot tell apart
    unions = [(6,), (3, 3), (2, 4), (7,), (3, 4)]
    graphs = [cycles(*u, directed=d) for u in unions for d in (False, True)]
    assert_keys_match_brute(with_shuffled_copies(graphs), ld.digraph_canonical_key)


def neighbourhood_connected(G, x):
    nbrs = G.rows[x] & ~(1 << x)
    reach = nbrs & -nbrs
    while True:
        grown = reach
        for y in range(G.v):
            if reach >> y & 1:
                grown |= G.rows[y] & nbrs
        if grown == reach:
            return reach == nbrs
        reach = grown


def test_strongly_regular_pair_gets_two_keys():
    # both are vertex-transitive, and a vertex's neighbours induce two
    # triangles in the rook's graph but a 6-cycle in the Shrikhande graph
    assert not neighbourhood_connected(ROOK_4X4, 0)
    assert neighbourhood_connected(SHRIKHANDE, 0)
    assert ld.digraph_canonical_key(ROOK_4X4) != ld.digraph_canonical_key(SHRIKHANDE)
    assert not ld.digraph_isomorphic(ROOK_4X4, SHRIKHANDE)[0]
    assert ld.digraph_isomorphic(SHRIKHANDE, ld.Digraph(shuffled_rows(SHRIKHANDE.rows, 0)))[0]


@pytest.mark.parametrize("v", sorted(REFLEXIVE_DIGRAPH_CLASSES))
def test_reflexive_digraph_class_counts(v):
    keys = {ld.digraph_canonical_key(ld.Digraph(rows)) for rows in reflexive_rows(v)}
    assert len(keys) == REFLEXIVE_DIGRAPH_CLASSES[v]


def regular_digraphs():
    return (
        frucht(),
        petersen(),
        ROOK_4X4,
        SHRIKHANDE,
        # 6-regular; automorphisms found below a K7 vertex move the
        # Shrikhande vertices, so they must not prune below those
        disjoint_union(SHRIKHANDE, K7),
        disjoint_union(SHRIKHANDE, SHRIKHANDE),
        cycles(3, 4, 4, directed=True),
        cycles(3, 3, 6),
    )


def test_regular_digraph_keys_survive_shuffles():
    for G in regular_digraphs():
        key = ld.digraph_canonical_key(G)
        for seed in range(8):
            assert ld.digraph_canonical_key(ld.Digraph(shuffled_rows(G.rows, seed))) == key


@lru_cache(maxsize=None)
def relabelling_cases():
    """Draws equally often from the n = 8 lattices, 2^4, M_5 and the dual
    digraph of M_4, and from regular digraphs, which refinement alone
    leaves in one cell."""
    symmetric = ld.enumerate_lattices(8).by_size(8) + (boolean(4), m_k(5), ld.dual_digraph(m_k(4)))
    return st.one_of(st.sampled_from(symmetric), st.sampled_from(regular_digraphs()))


def relabelled(obj, perm):
    if isinstance(obj, ld.FiniteLattice):
        return ld.relabel(obj, perm)
    return ld.Digraph(relabel_rows(obj.rows, perm))


def key(obj):
    if isinstance(obj, ld.FiniteLattice):
        return ld.canonical_key(obj)
    return ld.digraph_canonical_key(obj)


def rows_and_seeds(obj):
    if isinstance(obj, ld.FiniteLattice):
        return _seeded(obj)
    return obj.rows, obj.cols, (0,) * obj.v


def draw_relabelling(data):
    obj = data.draw(relabelling_cases())
    n = len(rows_and_seeds(obj)[0])
    return obj, data.draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_key_survives_relabelling(data):
    obj, perm = draw_relabelling(data)
    assert key(relabelled(obj, perm)) == key(obj)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_perm_reencodes_to_the_key(data):
    obj, perm = draw_relabelling(data)
    rows, cols, seeds = rows_and_seeds(relabelled(obj, perm))
    key, perm = _canon.canonical_form(rows, cols, seeds)
    assert sorted(perm) == list(range(len(rows)))
    assert key == relabel_rows(rows, perm)


def test_public_canonical_forms_reencode_to_their_keys(catalog7, tirs5):
    for L in catalog7.entries + (boolean(4), m_k(5)):
        key, perm = _canon.canonical_form(*_seeded(L))
        assert ld.canonical_key(L) == key == ld.canonicalize(L).up == relabel_rows(L.up, perm)
    for G in tirs5 + (ld.dual_digraph(m_k(4)),):
        key, perm = _canon.canonical_form(G.rows, G.cols, (0,) * G.v)
        assert ld.digraph_canonical_key(G) == key == relabel_rows(G.rows, perm)


def test_canonical_lattices_stay_naturally_labelled():
    for L in (boolean(5), m_k(8), shuffled(boolean(4), 0)):
        C = ld.canonicalize(L)
        assert all(not C.leq(i, j) for i in range(C.n) for j in range(i))


def _roundtrip(tmp_path, capsys, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    rc = main(["roundtrip", str(path)])
    return rc, json.loads(capsys.readouterr().out)["roundtrip"]


def test_roundtrip_of_the_dual_of_m4(tmp_path, capsys):
    # colour refinement alone leaves all 12 vertices in one class
    G = ld.dual_digraph(m_k(4))
    assert G.v == 12
    assert _roundtrip(tmp_path, capsys, ld.digraph_to_json(G)) == (0, True)


def test_roundtrip_of_boolean_32(tmp_path, capsys):
    assert _roundtrip(tmp_path, capsys, ld.lattice_to_json(boolean(5))) == (0, True)


def test_convex_geometry_lattice_isomorphism(convex95):
    # colour refinement alone leaves six classes of 4 and 24 of 2
    assert convex95.n == 95
    assert ld.lattice_isomorphic(convex95, shuffled(convex95, 1))[0] is True
