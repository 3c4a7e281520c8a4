import hashlib

import pytest

import latdual as ld
from latdual import _canon
from latdual import enumeration as en
from latdual._bits import transpose
from latdual.enumeration import MAX_LATTICE_N, MAX_TIRS_V
from latdual.lattice import FiniteLattice, _invariants
from oracles import (
    bits,
    count_lattice_classes,
    digraph_isomorphic_brute,
    is_meet_semilattice,
    lattice_isomorphic_brute,
    reflexive_rows,
    relabel_rows,
    rows_isomorphic_brute,
    tirs_classes,
)

# lattices up to isomorphism: OEIS A006966 and Heitzig & Reinhold,
# "Counting finite lattices" (Algebra Universalis, 2002)
EXPECTED_LATTICE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078, 10: 5994,
}
EXPECTED_TIRS_COUNTS = {1: 1, 2: 2, 3: 6, 4: 32, 5: 281}
# sha256 of repr([L.up for L in enumerate_lattices(8).entries]): the
# canonical rows themselves, in catalog order, which the campaign report
# follows; CI pins the n <= 10 catalog the same way
CATALOG_8_SHA256 = "064d723ad391bbdbfc95827075556a23ea65f2f1d2a09c8bce965ef6acde8fca"
# sha256 of repr([G.rows for G in enumerate_tirs_digraphs(5)]): the 322
# canonical arc rows, in catalog order, which the digraph-side records
# follow
TIRS_5_SHA256 = "a139a8a51793b23306d2e8f804c72d482d8f6a9e23780c2e4a7ff89dca965565"


def test_counts_match_independent_scan(catalog6):
    for n in range(1, 7):
        assert catalog6.counts()[n] == count_lattice_classes(n)


def test_frozen_counts(catalog7):
    assert catalog7.counts() == {n: c for n, c in EXPECTED_LATTICE_COUNTS.items() if n <= 7}


def test_frozen_catalog_rows():
    rows = [L.up for L in ld.enumerate_lattices(8).entries]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CATALOG_8_SHA256


def test_frozen_tirs_rows(tirs5):
    rows = [G.rows for G in tirs5]
    assert len(rows) == 322
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == TIRS_5_SHA256


def test_frozen_count_at_the_bound():
    """Levels up to n = 9 here; the 5,994 lattices at the bound n = 10 are
    counted by the n <= 10 campaign in CI, and their rows pinned there."""
    assert MAX_LATTICE_N == 10
    cat = ld.enumerate_lattices(9)
    assert cat.counts() == {n: c for n, c in EXPECTED_LATTICE_COUNTS.items() if n <= 9}
    assert cat.max_n == 9


def test_entries_are_valid_and_naturally_labelled(catalog7):
    for L in catalog7.entries:
        assert L.bottom == 0 and L.top == L.n - 1
        for i in range(L.n):
            for j in range(i):
                assert not L.leq(i, j) or i == j


def test_entries_pairwise_nonisomorphic(catalog5):
    entries = catalog5.entries
    for i, A in enumerate(entries):
        for B in entries[i + 1 :]:
            assert not lattice_isomorphic_brute(A, B)


def test_entries_pairwise_distinct_keys(catalog7):
    keys = [ld.canonical_key(L) for L in catalog7.entries]
    assert len(set(keys)) == len(keys)


def test_five_element_level_hits_known_shapes(catalog5):
    level = catalog5.by_size(5)
    assert len(level) == 5
    for name in ("N5", "M3", "CHAIN(5)"):
        F = ld.fixture(name)
        assert any(ld.lattice_isomorphic(L, F)[0] for L in level), name


def test_catalog_sorted_by_size(catalog6):
    sizes = [L.n for L in catalog6.entries]
    assert sizes == sorted(sizes)


def test_lattice_bound_errors():
    with pytest.raises(ld.BoundTooLarge):
        ld.enumerate_lattices(0)
    with pytest.raises(ld.BoundTooLarge):
        ld.enumerate_lattices(MAX_LATTICE_N + 1)


def test_semilattice_extensions_match_the_definition():
    """For every down-set d of every level-(k + 1) lattice with its top
    dropped, k <= 6, the order with a new maximal element above d is a
    meet semilattice by definition iff, with a top adjoined, its class is
    in level k + 2; those classes make up the level."""
    def form(rows):
        return _canon.canonical_form(rows, transpose(rows), (0,) * len(rows))[0]

    verdicts = set()
    for k in range(1, 7):
        top = 1 << k + 1
        level = {form(rows) for rows in en._lattice_level(k + 2)}
        found = set()
        for parent in en._lattice_level(k + 1):
            rows = tuple(r & ~(1 << k) for r in parent[:k])
            for d in range(1 << k):
                # d is a down-set: whatever lies below a member is a member
                if any(d >> i & 1 and not d >> j & 1 for i in range(k) for j in range(k) if rows[j] >> i & 1):
                    continue
                new = tuple(row | (d >> i & 1) << k for i, row in enumerate(rows)) + (1 << k,)
                lattice = tuple(row | top for row in new) + (top,)
                key = form(lattice)
                ok = is_meet_semilattice(new)
                assert (key in level) == ok, (parent, d)
                verdicts.add((bool(d), ok))
                if ok:
                    found.add(key)
        assert found == level
    # the empty down-set fails, and nonempty ones both pass and fail
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_determinism_under_cache_reset(catalog5):
    keys = [ld.canonical_key(L) for L in catalog5.entries]
    en._lattice_level.cache_clear()
    again = [ld.canonical_key(L) for L in ld.enumerate_lattices(5).entries]
    assert keys == again


def test_each_kept_extension_gets_one_canonical_form(monkeypatch):
    """Levels 1..8 take 450 canonical forms: one per extension that passes
    the order filters and the down-set size test (694 pass the order
    filters alone; a semilattice level and a second form per lattice took
    994). The size test drops only work, never a class, as the pinned
    catalog rows show. Each form is handed the converse of its rows, and
    the seeds of the lattice those rows validate to."""
    calls = []
    form = en._canonical_form

    def counted(rows, cols, seeds):
        assert cols == transpose(rows)
        L = FiniteLattice(rows)
        assert seeds == _invariants(L.down, L._lower, L._upper)
        calls.append(len(rows))
        return form(rows, cols, seeds)

    monkeypatch.setattr(en, "_canonical_form", counted)
    en._lattice_level.cache_clear()
    try:
        assert len(en._lattice_level(8)) == EXPECTED_LATTICE_COUNTS[8]
    finally:
        en._lattice_level.cache_clear()
    assert len(calls) == 450 and set(calls) == set(range(3, 9))


def test_tirs_counts(tirs4, tirs5):
    by_size = {}
    for G in tirs5:
        by_size[G.v] = by_size.get(G.v, 0) + 1
    assert by_size == EXPECTED_TIRS_COUNTS
    assert len(tirs4) == 41


@pytest.mark.parametrize("v", range(1, 5))
def test_tirs_level_matches_definitional_classes(v):
    level = en._tirs_level(v)
    classes = tirs_classes(v)
    assert len(classes) == len(level)
    for rows in classes:
        assert sum(rows_isomorphic_brute(rows, canon) for canon in level) == 1, rows


def _degree_ordered_and_out_reduced(rows):
    v = len(rows)
    out = [frozenset(bits(r)) for r in rows]
    inn = [frozenset(x for x in range(v) if y in out[x]) for y in range(v)]
    degrees = [(len(out[x]), len(inn[x])) for x in range(v)]
    return degrees == sorted(degrees, reverse=True) and not any(
        out[x] < out[y] for x in range(v) for y in out[x]
    )


@pytest.mark.parametrize("v", range(1, 5))
def test_tirs_candidates_are_the_filtered_product(v):
    """The pruned depth-first scan yields exactly the reflexive digraphs
    with non-increasing (out-degree, in-degree) pairs and no arc into a
    strict out-superset, in product order."""
    want = [rows for rows in reflexive_rows(v) if _degree_ordered_and_out_reduced(rows)]
    assert list(en._tirs_candidates(v)) == want
    if v == 4:
        assert len(want) == 146


def test_every_tirs_class_has_its_degree_sorted_labelling_among_candidates():
    """Completeness at v = 5 without the full product: each class, relabelled
    by a stable sort on (out-degree, in-degree) descending, is a candidate."""
    candidates = set(en._tirs_candidates(5))
    assert len(candidates) == 5077
    level = en._tirs_level(5)
    assert len(level) == EXPECTED_TIRS_COUNTS[5]
    for rows in level:
        out = [r.bit_count() for r in rows]
        inn = [sum(r >> y & 1 for r in rows) for y in range(5)]
        perm = sorted(range(5), key=lambda x: (out[x], inn[x]), reverse=True)
        assert relabel_rows(rows, perm) in candidates, rows


def test_tirs_entries_satisfy_axioms(tirs5):
    for G in tirs5:
        assert ld.check_tirs(G)


def test_tirs_entries_pairwise_nonisomorphic(tirs4):
    for i, A in enumerate(tirs4):
        for B in tirs4[i + 1 :]:
            if A.v == B.v:
                assert not digraph_isomorphic_brute(A, B)


def test_tirs_bound_errors():
    with pytest.raises(ld.BoundTooLarge):
        ld.enumerate_tirs_digraphs(0)
    with pytest.raises(ld.BoundTooLarge):
        ld.enumerate_tirs_digraphs(MAX_TIRS_V + 1)


def test_small_duals_appear_in_tirs_catalog(catalog5, tirs5):
    """The dual of every small lattice is some catalogued digraph."""
    for L in catalog5.entries:
        G = ld.dual_digraph(L)
        if G.v == 0 or G.v > 5:
            continue
        assert any(
            H.v == G.v and ld.digraph_isomorphic(G, H)[0] for H in tirs5
        ), L.n


def test_catalogs_match_both_ways_through_the_duality(tirs5):
    """Up to isomorphism, lattices and TiRS digraphs correspond one to one
    (THM_2_6). So per (vertices, elements), the duals of the lattices with
    at most 9 elements are, class for class, the catalog digraphs on up to
    5 vertices whose map lattice has at most 9 elements. The one-element
    lattice is left out: its dual has no vertex, and the digraph catalog
    starts at one vertex."""
    duals = [
        (G.v, L.n, ld.digraph_canonical_key(G))
        for L in ld.enumerate_lattices(9).entries
        for G in [ld.dual_digraph(L)]
        if 1 <= G.v <= 5
    ]
    maps = [
        (G.v, M.n, ld.digraph_canonical_key(G))
        for G in tirs5
        for M in [ld.mpe_lattice(G)]
        if M.n <= 9
    ]
    assert len(duals) == len(set(duals)) == 145
    assert len(maps) == len(set(maps)) == 145
    assert set(duals) == set(maps)


def test_every_small_tirs_digraph_reconstructs(tirs4):
    seen = set()
    for G in tirs4:
        L = ld.mpe_lattice(G)
        assert ld.roundtrip_digraph(G)
        seen.add(ld.canonical_key(L))
    # distinct digraphs can share a reconstruction only through size drift;
    # with 41 inputs we still expect many distinct lattices
    assert len(seen) > 20
