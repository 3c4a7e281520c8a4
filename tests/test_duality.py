import random
from itertools import combinations, permutations, product

import pytest

import latdual as ld
from latdual import duality
from latdual._bits import bits, permute
from latdual.digraph import Digraph
from latdual.theorems import DigraphCase, LatticeCase, _thm_2_6_digraph, _thm_2_6_lattice
from oracles import mpe_enumerate_scan, naive_mpe, reflexive_rows

FIXTURES = ("CHAIN(1)", "CHAIN(2)", "CHAIN(3)", "B2", "N5", "M3", "L4", "L4D", "L3D", "K")


def named_arcs(G):
    return {(G.names[x], G.names[y]) for x, y in G.arcs if x != y}


def test_maximal_pair_goldens():
    assert ld.mdfips(ld.fixture("CHAIN(1)")) == []
    assert ld.mdfips(ld.fixture("CHAIN(2)")) == [(1, 0)]
    assert ld.mdfips(ld.fixture("CHAIN(3)")) == [(1, 0), (2, 1)]
    assert ld.mdfips(ld.fixture("B2")) == [(1, 2), (2, 1)]
    assert ld.mdfips(ld.fixture("N5")) == [(1, 2), (2, 3), (3, 1)]
    assert ld.mdfips(ld.fixture("L4")) == [(1, 5), (2, 3), (3, 4), (5, 4)]
    assert ld.mdfips(ld.fixture("L4D")) == [(1, 5), (2, 1), (2, 3), (3, 4)]
    assert ld.mdfips(ld.fixture("L3D")) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 4)]
    assert ld.mdfips(ld.fixture("K")) == [
        (1, 4), (1, 5), (2, 1), (4, 3), (4, 5), (5, 3), (5, 4),
    ]


def test_diamond_pairs_are_ordered_atom_pairs():
    M3 = ld.fixture("M3")
    assert ld.mdfips(M3) == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
    ]


def test_characterisation_matches_bruteforce_on_fixtures():
    for name in FIXTURES:
        L = ld.fixture(name)
        assert ld.mdfips(L) == ld.mdfips_bruteforce(L), name


def test_characterisation_matches_bruteforce_on_catalog(catalog6):
    for L in catalog6.entries:
        assert ld.mdfips(L) == ld.mdfips_bruteforce(L)


def chain_product(p, q):
    # the product of a p-chain and a q-chain; element i * q + j is (i, j)
    covers = [(x, x + 1) for x in range(p * q) if x % q < q - 1]
    covers += [(x, x + q) for x in range(p * q - q)]
    return ld.from_covers(p * q, covers)


def test_characterisation_matches_bruteforce_on_chains_and_their_products():
    # in a chain every element but the ends is both join and meet
    # irreducible, and (i + 1, i) are the maximal pairs
    for k in range(2, 61):
        L = ld.fixture(f"CHAIN({k})")
        assert ld.mdfips(L) == ld.mdfips_bruteforce(L) == [(i + 1, i) for i in range(k - 1)]
    for p, q in product(range(2, 7), repeat=2):
        L = chain_product(p, q)
        assert L.n == p * q and len(L.covers) == p * (q - 1) + q * (p - 1)
        assert ld.mdfips(L) == ld.mdfips_bruteforce(L), (p, q)


def test_cached_results_do_not_change_through_what_a_call_returned():
    L = ld.fixture("L3D")
    pairs = ld.mdfips(L)
    want = list(pairs)
    pairs.append((0, 0))
    pairs[0] = (4, 4)
    assert ld.mdfips(L) == want
    ld.mdfips(L).clear()
    assert ld.mdfips(L) == want == ld.mdfips_bruteforce(L)
    for irreducibles, covers in (
        (ld.join_irreducibles, L.lower_covers),
        (ld.meet_irreducibles, L.upper_covers),
    ):
        got = irreducibles(L)
        want = tuple(a for a in range(L.n) if len(covers(a)) == 1)
        assert got == want and got
        with pytest.raises(TypeError):
            got[0] = L.top
        assert irreducibles(L) is got


def test_pentagon_dual_arcs():
    G = ld.dual_digraph(ld.fixture("N5"))
    assert G.names == ("ab", "bc", "ca")
    assert named_arcs(G) == {("ab", "bc"), ("bc", "ca")}


def test_hexagon_dual_arcs():
    G = ld.dual_digraph(ld.fixture("L4"))
    assert G.names == ("dc", "ea", "ab", "cb")
    assert named_arcs(G) == {("ab", "dc"), ("ab", "cb"), ("cb", "ab"), ("cb", "ea")}


def test_dual_hexagon_dual_arcs():
    G = ld.dual_digraph(ld.fixture("L4D"))
    assert G.names == ("cb", "dc", "de", "ea")
    assert named_arcs(G) == {("cb", "de"), ("dc", "de"), ("de", "dc"), ("ea", "dc")}


def test_diamond_dual_follows_letter_rule():
    """Arc between ordered atom pairs iff the first letter of the source
    differs from the second letter of the target."""
    G = ld.dual_digraph(ld.fixture("M3"))
    for i, (a, b) in enumerate(G.mdfips):
        for j, (c, d) in enumerate(G.mdfips):
            assert G.has_arc(i, j) == (a != d)


def test_duals_pass_the_axioms():
    for name in FIXTURES:
        G = ld.dual_digraph(ld.fixture(name))
        assert ld.check_tirs(G), name


def test_dual_neighbourhoods_reflect_generator_order():
    for name in ("N5", "L4", "L3D", "K"):
        L = ld.fixture(name)
        G = ld.dual_digraph(L)
        verts = G.mdfips
        for i, (a, _) in enumerate(verts):
            for j, (c, _) in enumerate(verts):
                assert (G.rows[i] & ~G.rows[j] == 0) == L.leq(a, c)
        for i, (_, b) in enumerate(verts):
            for j, (_, d) in enumerate(verts):
                assert (G.cols[i] & ~G.cols[j] == 0) == L.leq(d, b)


def test_maximal_extensions_goldens():
    N5 = ld.fixture("N5")
    assert ld.maximal_extensions(N5, 1, 3) == [(1, 2)]
    M3 = ld.fixture("M3")
    assert ld.maximal_extensions(M3, 1, 0) == [(1, 2), (1, 3)]


def test_maximal_extensions_fix_maximal_pairs(catalog5):
    for L in catalog5.entries:
        for a, b in ld.mdfips(L):
            assert ld.maximal_extensions(L, a, b) == [(a, b)]


def test_maximal_extensions_never_empty(catalog5):
    """Every disjoint pair extends to at least one maximal pair."""
    for L in catalog5.entries:
        for a in range(L.n):
            for b in range(L.n):
                if L.leq(a, b):
                    continue
                assert ld.maximal_extensions(L, a, b)


def test_overlapping_pair_is_rejected():
    with pytest.raises(ld.NotDisjoint):
        ld.maximal_extensions(ld.fixture("N5"), 3, 2)


def test_t_set_examples():
    N5 = ld.fixture("N5")
    assert ld.t_set(N5, 1, 0) == {2, 3}
    assert ld.t_set(N5, 3, 2) == set()
    M3 = ld.fixture("M3")
    assert ld.t_set(M3, 1, 0) == {2, 3}


def test_t_set_empty_exactly_when_below(catalog5):
    for L in catalog5.entries:
        for a in range(L.n):
            for b in range(L.n):
                assert (ld.t_set(L, a, b) == set()) == L.leq(a, b)


def test_partial_map_rejects_overlap():
    with pytest.raises(ValueError):
        ld.PartialTwoMap(frozenset({0}), frozenset({0, 1}))


def test_map_counts_on_fixture_duals():
    for name, expect in (("N5", 5), ("L4", 7), ("L4D", 7), ("L3D", 6), ("M3", 5), ("K", 7)):
        G = ld.dual_digraph(ld.fixture(name))
        assert len(ld.mpe_enumerate(G)) == expect, name


def test_single_loop_vertex_has_two_maps():
    G = Digraph((1,))
    maps = ld.mpe_enumerate(G)
    assert [(sorted(f.ones), sorted(f.zeros)) for f in maps] == [([], [0]), ([0], [])]
    ok, _ = ld.lattice_isomorphic(ld.mpe_lattice(G), ld.fixture("CHAIN(2)"))
    assert ok


def test_two_isolated_loops_give_boolean_lattice():
    G = Digraph((0b01, 0b10))
    assert len(ld.mpe_enumerate(G)) == 4
    ok, _ = ld.lattice_isomorphic(ld.mpe_lattice(G), ld.fixture("B2"))
    assert ok


def test_empty_digraph_gives_singleton_lattice():
    G = Digraph(())
    assert ld.mpe_lattice(G).n == 1


def test_map_lattice_size_is_bounded():
    # v isolated loops have 2^v maximal maps: 4,096 is the largest allowed
    loops = lambda v: Digraph(tuple(1 << x for x in range(v)))
    assert len(ld.mpe_enumerate(loops(12))) == 4096
    with pytest.raises(ld.BoundTooLarge):
        ld.mpe_lattice(loops(13))
    with pytest.raises(ld.BoundTooLarge):
        ld.mpe_enumerate(loops(13))


def galois_closed_sets(G):
    """The fixed points of U -> U(Z(U)), by trying all 2^v sets U, sorted
    as ``_one_sets`` sorts them: Z(U) holds the z no arc from U enters,
    U(Z) the u with no arc into Z."""
    v = G.v
    out = []
    for u in range(1 << v):
        z = sum(1 << j for j in range(v) if not any(u >> i & 1 and G.has_arc(i, j) for i in range(v)))
        back = sum(1 << i for i in range(v) if not any(z >> j & 1 and G.has_arc(i, j) for j in range(v)))
        if back == u:
            out.append(u)
    return sorted(out, key=lambda m: (m.bit_count(), m))


def test_one_sets_are_the_galois_closed_sets_looped_or_not():
    """The one-sets of every digraph on at most 3 vertices, looped or not,
    and of 300 seeded random digraphs on 4 to 8 vertices with no forced
    loops, are the fixed points of U -> U(Z(U)), found by brute force."""
    graphs = [Digraph(tuple(code >> (v * i) & ((1 << v) - 1) for i in range(v)))
              for v in range(4) for code in range(1 << v * v)]
    rng = random.Random(20261020)
    for v in range(4, 9):
        for _ in range(60):
            graphs.append(Digraph(tuple(
                sum(1 << j for j in range(v) if rng.random() < 0.3) for _ in range(v))))
    assert len(graphs) == 831
    assert any(not G.has_arc(0, 0) for G in graphs[531:])
    for G in graphs:
        assert duality._one_sets(G) == tuple(galois_closed_sets(G)), G.rows


def test_enumeration_paths_agree_on_fixture_duals():
    for name in FIXTURES:
        G = ld.dual_digraph(ld.fixture(name))
        fast = [(sum(1 << x for x in f.ones), sum(1 << x for x in f.zeros))
                for f in ld.mpe_enumerate(G)]
        assert fast == mpe_enumerate_scan(G), name


def test_enumeration_paths_agree_with_naive_scan_small():
    for v in range(1, 4):
        for rows in reflexive_rows(v):
            G = Digraph(rows)
            fast = [(sum(1 << x for x in f.ones), sum(1 << x for x in f.zeros))
                    for f in ld.mpe_enumerate(G)]
            slow = mpe_enumerate_scan(G)
            assert fast == slow == naive_mpe(G)


def test_enumeration_paths_agree_on_random_digraphs():
    rng = random.Random(20240817)
    for v in (5, 6, 7):
        for _ in range(40):
            rows = []
            for i in range(v):
                row = 1 << i
                for j in range(v):
                    if j != i and rng.random() < 0.4:
                        row |= 1 << j
                rows.append(row)
            G = Digraph(tuple(rows))
            fast = [(sum(1 << x for x in f.ones), sum(1 << x for x in f.zeros))
                    for f in ld.mpe_enumerate(G)]
            slow = mpe_enumerate_scan(G)
            assert fast == slow == naive_mpe(G)


def grid(a, b):
    """The product of an a-chain and a b-chain, (i, j) being i * b + j; its
    dual digraph has a + b - 2 vertices."""
    covers = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    covers += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return ld.from_covers(a * b, covers)


@pytest.mark.parametrize("v", (8, 9, 15, 16, 17))
def test_next_closure_matches_the_scans_across_byte_boundaries(v):
    """The maps agree with the pruned scan on both sides of the byte
    boundaries of a vertex mask: 8 vertices fill one byte, 9 start a
    second, and 15, 16 and 17 end before, on and after the second
    boundary. The 3^v sweep runs where it is affordable, up to 9
    vertices."""
    rng = random.Random(v)
    graphs = [ld.dual_digraph(grid(v // 2 + 1, v - v // 2 + 1))]
    for density in (0.2, 0.35, 0.5):
        graphs.append(Digraph(tuple(
            1 << i | sum(1 << j for j in range(v) if j != i and rng.random() < density)
            for i in range(v))))
    for G in graphs:
        assert G.v == v
        fast = [(sum(1 << x for x in f.ones), sum(1 << x for x in f.zeros))
                for f in ld.mpe_enumerate(G)]
        assert fast == mpe_enumerate_scan(G)
        if v <= 9:
            assert fast == naive_mpe(G)
    assert ld.mpe_lattice(graphs[0]).n == (v // 2 + 1) * (v - v // 2 + 1)


def test_next_closure_keeps_only_the_table_entries_it_reads():
    """1,000 isolated loops are refused as over the bound of the map
    lattice: the sweep of intersections stops once it holds more than
    4,096 one-sets, after 13 of the 1,000 columns."""
    G = Digraph(tuple(1 << x for x in range(1000)))
    with pytest.raises(ld.BoundTooLarge):
        ld.mpe_lattice(G)


def test_one_sets_determine_zero_sets_oppositely():
    for name in ("N5", "L4", "L3D", "M3", "K"):
        maps = ld.mpe_enumerate(ld.dual_digraph(ld.fixture(name)))
        for f in maps:
            for g in maps:
                assert (f.ones <= g.ones) == (g.zeros <= f.zeros)


def test_roundtrip_on_fixtures():
    for name in FIXTURES:
        assert ld.roundtrip_lattice(ld.fixture(name)), name
    for k in range(1, 7):
        assert ld.roundtrip_lattice(ld.fixture(f"CHAIN({k})"))


def test_roundtrip_on_wide_lattices():
    # many incomparable atoms make the dual large; n = 7 gives 20 vertices
    from latdual.fixtures import m_k

    for k in (4, 5):
        L = m_k(k)
        G = ld.dual_digraph(L)
        assert G.v == k * (k - 1)
        assert ld.roundtrip_lattice(L)


def test_roundtrip_digraph_catalog(tirs4):
    for G in tirs4:
        assert ld.roundtrip_digraph(G)


# -- the isomorphism that Theorem 2.6 names -----------------------------------


def flipped(rows, x, y):
    rows = list(rows)
    rows[x] ^= 1 << y
    return tuple(rows)


def isomorphism_verdicts(catalog6, tirs4):
    """Round trip and THM_2_6 verdicts on both catalogs, on the lattices of
    catalog6 whose dual has one arc flipped, and on every reflexive
    digraph with up to 3 vertices."""
    out = []
    for L in catalog6.entries:
        out += [ld.roundtrip_lattice(L), _thm_2_6_lattice(LatticeCase(L))[0]]
        G = ld.dual_digraph(L)
        for x, y in permutations(range(G.v), 2):
            case = LatticeCase(L)
            case.digraph = Digraph(flipped(G.rows, x, y), mdfips=G.mdfips)
            out.append(_thm_2_6_lattice(case)[0])
    small = [Digraph(rows) for v in (1, 2, 3) for rows in reflexive_rows(v)]
    for G in list(tirs4) + small:
        out += [ld.roundtrip_digraph(G), _thm_2_6_digraph(DigraphCase(G))[0]]
    return out


def test_the_fallback_alone_gives_the_same_verdicts(catalog6, tirs4, monkeypatch):
    with_certificate = isomorphism_verdicts(catalog6, tirs4)
    assert set(with_certificate) == {True, False}
    monkeypatch.setattr(duality, "_lattice_certificate", lambda *args: None)
    monkeypatch.setattr(duality, "_digraph_certificate", lambda *args: None)
    assert isomorphism_verdicts(catalog6, tirs4) == with_certificate


def assert_rejects_all_but_isomorphisms(rows1, rows2, m):
    """m certifies rows1 onto rows2; a repeated or missing image, two
    elements of rows2 swapped (unless that is an automorphism) and one
    bit of rows2 flipped are rejected. Returns the rejected swaps."""
    n = len(rows2)
    assert duality.certified(rows1, rows2, m)
    assert not duality.certified(rows1, rows2, m[:-1])
    if n > 1:
        assert not duality.certified(rows1, rows2, (m[1],) + m[1:])
    rejected = 0
    for i, j in combinations(range(n), 2):
        swap = list(range(n))
        swap[i], swap[j] = j, i
        target = permute(rows2, swap)
        assert duality.certified(rows1, target, m) == (target == rows2)
        rejected += target != rows2
    for x, y in product(range(n), repeat=2):
        assert not duality.certified(rows1, flipped(rows2, x, y), m)
    return rejected


def test_the_row_check_rejects_all_but_isomorphisms(catalog6, tirs4):
    rejected = 0
    for L in catalog6.entries:
        G = ld.dual_digraph(L)
        M = ld.mpe_lattice(G)
        rejected += assert_rejects_all_but_isomorphisms(
            L.up, M.up, duality._lattice_certificate(L, G, M))
    for G in tirs4:
        M = ld.mpe_lattice(G)
        D = ld.dual_digraph(M)
        rejected += assert_rejects_all_but_isomorphisms(
            G.rows, D.rows, duality._digraph_certificate(G, M, D))
    assert rejected


def test_cover_rows_certify_exactly_as_order_rows_do(catalog7):
    """On every lattice with up to 7 elements, the lattice certificate and
    its corruptions (two images swapped, one image repeated, the last one
    dropped) pass the cover-row check iff they pass the order-row check."""
    verdicts = set()
    for L in catalog7.entries:
        G = ld.dual_digraph(L)
        M = ld.mpe_lattice(G)
        m = duality._lattice_certificate(L, G, M)
        assert m is not None and duality.certified(L.up, M.up, m)
        maps = [m, m[:-1], (m[-1],) + m[1:]]
        for i, j in combinations(range(L.n), 2):
            swapped = list(m)
            swapped[i], swapped[j] = m[j], m[i]
            maps.append(tuple(swapped))
        for f in maps:
            verdict = duality.certified(L._upper, M._upper, f)
            assert verdict == duality.certified(L.up, M.up, f), (L.up, f)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_the_named_isomorphism_decides_every_small_case(catalog7, tirs5):
    for L in catalog7.entries:
        G = ld.dual_digraph(L)
        assert duality._lattice_certificate(L, G, ld.mpe_lattice(G)) is not None
    for G in tirs5:
        M = ld.mpe_lattice(G)
        assert duality._digraph_certificate(G, M, ld.dual_digraph(M)) is not None
    # on every reflexive digraph with up to 4 vertices, TiRS or not, it is
    # found exactly when the canonical search succeeds
    found = set()
    for rows in (rows for v in (1, 2, 3, 4) for rows in reflexive_rows(v)):
        G = Digraph(rows)
        M = ld.mpe_lattice(G)
        D = ld.dual_digraph(M)
        certificate = duality._digraph_certificate(G, M, D)
        assert (certificate is not None) == ld.digraph_isomorphic(G, D)[0], rows
        found.add(certificate is not None)
    assert found == {True, False}


def test_the_map_family_is_sorted_once_in_element_order(catalog6, tirs4):
    """The cached one-sets are the maps' one-sets by (size, mask): the map
    lattice's element i has one-set i and order by inclusion, and the
    lattice certificate sends c to the one-set {i : a_i <= c}."""
    small = [Digraph(rows) for v in (1, 2, 3) for rows in reflexive_rows(v)]
    duals = [(L, ld.dual_digraph(L)) for L in catalog6.entries]
    for G in [G for _, G in duals] + list(tirs4) + small:
        expect = sorted((u for u, _ in naive_mpe(G)), key=lambda u: (bin(u).count("1"), u))
        sets = duality._one_sets(G)
        assert sets == tuple(expect) and duality._one_sets(G) is sets
        M = ld.mpe_lattice(G)
        assert M.up == tuple(
            sum(1 << j for j, t in enumerate(expect) if s & ~t == 0) for s in expect
        )
        assert ld.mpe_enumerate(G) == [
            ld.PartialTwoMap(frozenset(bits(u)), frozenset(bits(z))) for u, z in naive_mpe(G)
        ]
    for L, G in duals:
        ones = [sum(1 << i for i, (a, _) in enumerate(G.mdfips or ()) if L.leq(a, c))
                for c in range(L.n)]
        m = duality._lattice_certificate(L, G, ld.mpe_lattice(G))
        assert m == tuple(duality._one_sets(G).index(s) for s in ones)


def test_a_foreign_annotation_is_not_a_certificate():
    """A generator that is not an element of L leaves the verdict to the
    canonical search, whichever way it goes."""
    N5 = ld.fixture("N5")
    G = Digraph([1, 2, 4], mdfips=[(9, 0), (1, 2), (2, 3)])
    assert duality._lattice_certificate(N5, G, ld.mpe_lattice(G)) is None
    assert ld.roundtrip_lattice(N5, G) is False
    own = ld.dual_digraph(N5)
    (a, b), *rest = own.mdfips
    # a - 5 would index the row of a itself, and so certify, if read as an index
    for stray in (9, a - N5.n):
        foreign = Digraph(own.rows, mdfips=[(stray, b)] + rest)
        assert duality._lattice_certificate(N5, foreign, ld.mpe_lattice(foreign)) is None
        assert ld.roundtrip_lattice(N5, foreign) is True
