"""Lattices of set families: FiniteLattice.of_sets against the generic
constructor on the inclusion order, with meets and joins read off the
order rows and no table built."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latdual as ld
from latdual import duality
from latdual._bits import bits, inclusion, intersection_closed, transpose, upper_covers
from latdual.convexity import ClosureSystem, cld_lattice
from latdual.digraph import Digraph
from latdual.duality import mdfips, mdfips_bruteforce, mpe_enumerate, mpe_lattice
from latdual.lattice import FiniteLattice
from oracles import assert_no_square_table, reflexive_rows


def same_lattice(L, R):
    if (L.up, L.down, L.covers, L.bottom, L.top) != (R.up, R.down, R.covers, R.bottom, R.top):
        return False
    pairs = [(a, b) for a in range(L.n) for b in range(L.n)]
    return all(L.meet(a, b) == R.meet(a, b) and L.join(a, b) == R.join(a, b) for a, b in pairs)


def assert_map_lattice_matches_generic(G):
    masks = sorted(
        (sum(1 << x for x in f.ones) for f in mpe_enumerate(G)),
        key=lambda m: (m.bit_count(), m),
    )
    assert same_lattice(mpe_lattice(G), FiniteLattice(inclusion(masks)[0]))


def loops(v):
    return Digraph(tuple(1 << x for x in range(v)))


def test_map_lattices_of_small_reflexive_digraphs():
    count = 0
    for v in range(1, 4):
        for rows in reflexive_rows(v):
            assert_map_lattice_matches_generic(Digraph(rows))
            count += 1
    assert count == 1 + 4 + 64


def test_every_digraph_on_up_to_three_vertices_has_a_map_lattice():
    """Looped or not, a digraph's one-sets are the fixed points of
    U -> U(Z(U)), computed here set by set from the arcs: they hold the
    full set and are closed under intersection, so the map lattice is
    always built, ordered by inclusion of its one-sets."""
    count = 0
    for v in range(1, 4):
        full = (1 << v) - 1
        for rows in itertools.product(range(full + 1), repeat=v):
            zeros = [sum(1 << z for z in range(v) if not any(rows[x] >> z & 1 for x in bits(u)))
                     for u in range(full + 1)]
            fixed = [u for u in range(full + 1)
                     if u == sum(1 << x for x in range(v) if not rows[x] & zeros[u])]
            assert full in fixed and all(a & b in fixed for a in fixed for b in fixed), rows
            M = mpe_lattice(Digraph(rows))
            sets = sorted(fixed, key=lambda m: (m.bit_count(), m))
            assert M.up == inclusion(sets)[0], rows
            count += 1
    assert count == 2 + 16 + 512


def test_map_lattices_of_the_tirs_catalog(tirs5):
    assert len(tirs5) == 322
    for G in tirs5:
        assert_map_lattice_matches_generic(G)


@pytest.mark.parametrize("v", range(1, 9))
def test_map_lattices_of_loops(v):
    assert_map_lattice_matches_generic(loops(v))


def test_closed_set_lattice_of_convex_sets(convex95):
    C = ld.lattice_to_convex_geometry(convex95)
    labels = tuple("{" + ",".join(map(str, bits(m))) + "}" for m in C.closed)
    L = cld_lattice(C)
    R = FiniteLattice(inclusion(C.closed)[0], labels)
    assert same_lattice(L, R)
    assert L.labels == R.labels


def closed_under_intersection(family):
    return all(a & b in family for a in family for b in family)


def moore_family(sets, rnd):
    # sets with their union, closed under intersection, in shuffled order
    family = set(sets)
    union = 0
    for s in sets:
        union |= s
    family.add(union)
    while not closed_under_intersection(family):
        family |= {a & b for a in family for b in family}
    masks = sorted(family)
    rnd.shuffle(masks)
    return masks


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 63), unique=True, max_size=12), st.randoms())
def test_intersection_closed_families_match_the_generic_constructor(sets, rnd):
    masks = moore_family(sets, rnd)
    L = FiniteLattice.of_sets(masks)
    assert same_lattice(L, FiniteLattice(inclusion(masks)[0]))
    assert L.down == transpose(L.up)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 63), unique=True, max_size=12), st.randoms())
# sparse families, where most members are comparable to every other: a
# chain, a comb (a chain with one singleton tooth per point) and a chain
# with one incomparable pair, {0} and {1}, whose meet may be taken out
@example(sets=[1, 3, 7, 15, 31, 63], rnd=random.Random(0))
@example(sets=[1, 3, 7, 15, 31, 63, 2, 4, 8, 16, 32], rnd=random.Random(0))
@example(sets=[0, 1, 2, 3, 7, 15, 31, 63], rnd=random.Random(0))
def test_intersection_closed_matches_the_pairwise_definition(sets, rnd):
    """Families with their union, closed ones, and closed ones with one
    member other than the union taken out."""
    union = 0
    for s in sets:
        union |= s
    closed = moore_family(sets, rnd)
    families = [list({*sets, union}), closed]
    families += [closed[:i] + closed[i + 1 :] for i, m in enumerate(closed) if m != union]
    for family in families:
        up, down = inclusion(family)
        upper = upper_covers(up, down)
        assert intersection_closed(family, up, down, upper) == closed_under_intersection(set(family))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 63), unique=True, max_size=12), st.randoms())
def test_closure_is_the_and_of_the_closed_supersets(sets, rnd):
    C = ClosureSystem(6, moore_family(sets, rnd) + [63])
    for y in range(64):
        out = 63
        for m in C.closed:
            if y & ~m == 0:
                out &= m
        assert C.close_mask(y) == out
    with pytest.raises(ValueError, match="closure argument leaves the ground set"):
        C.close_mask(64)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 31), unique=True, max_size=8), st.randoms())
def test_maximal_pairs_of_set_lattices_match_the_definition(sets, rnd):
    L = FiniteLattice.of_sets(moore_family(sets, rnd))
    assert mdfips(L) == mdfips_bruteforce(L)


@pytest.mark.parametrize("v", range(1, 9))
def test_maximal_pairs_of_loop_map_lattices_match_the_definition(v):
    # the map lattice is the Boolean lattice of subsets of the v loops; its
    # maximal pairs are ({x}, everything but x)
    L = mpe_lattice(loops(v))
    masks = sorted(range(1 << v), key=lambda m: (m.bit_count(), m))
    full = (1 << v) - 1
    expected = sorted((masks.index(1 << x), masks.index(full ^ 1 << x)) for x in range(v))
    assert mdfips(L) == mdfips_bruteforce(L) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 15), unique=True, max_size=10))
def test_set_constructor_raises_exactly_on_non_moore_families(masks):
    union = 0
    for m in masks:
        union |= m
    moore = union in masks and closed_under_intersection(set(masks))
    try:
        FiniteLattice(inclusion(masks)[0])
        generic_ok = True
    except ld.NotALattice:
        generic_ok = False
    try:
        FiniteLattice.of_sets(masks)
        sets_ok = True
    except ld.NotALattice:
        sets_ok = False
    assert sets_ok == moore
    assert generic_ok or not sets_ok


def test_set_constructor_names_the_offending_sets():
    with pytest.raises(ld.NotALattice, match=r"elements 0 and 2 are the same set \[0\]"):
        FiniteLattice.of_sets([0b1, 0b0, 0b1])
    with pytest.raises(ld.NotALattice, match=r"the union \[0, 1\] of the sets"):
        FiniteLattice.of_sets([0b00, 0b01, 0b10])
    # a lattice under inclusion whose meet is not the intersection
    with pytest.raises(ld.NotALattice, match=r"intersection of \[0, 1\] and \[0, 2\]"):
        FiniteLattice.of_sets([0b000, 0b011, 0b101, 0b111])
    FiniteLattice(inclusion([0b000, 0b011, 0b101, 0b111])[0])
    with pytest.raises(ld.NotALattice, match="at least one element"):
        FiniteLattice.of_sets([])


def test_map_lattice_roundtrip_builds_no_tables(monkeypatch):
    built = []

    def recording_mpe_lattice(G):
        built.append(mpe_lattice(G))
        return built[-1]

    monkeypatch.setattr(duality, "mpe_lattice", recording_mpe_lattice)
    assert duality.roundtrip_digraph(loops(10))
    [L] = built
    assert L.n == 1 << 10
    assert_no_square_table(L)


def test_irreducible_and_pair_caches_build_no_tables(monkeypatch):
    """The round trip of 10 loops fills the irreducible and MDFIP caches
    of the 2^10 map lattice from its order rows, and builds no table."""
    built = []

    def recording_mpe_lattice(G):
        built.append(mpe_lattice(G))
        return built[-1]

    monkeypatch.setattr(duality, "mpe_lattice", recording_mpe_lattice)
    assert duality.roundtrip_digraph(loops(10))
    [L] = built
    assert "_irreducibles" in vars(L) and "_mdfips" in vars(L)
    atoms = [pos for pos in range(L.n) if L.down[pos].bit_count() == 2]
    coatoms = [pos for pos in range(L.n) if L.up[pos].bit_count() == 2]
    assert ld.join_irreducibles(L) == tuple(atoms)
    assert ld.meet_irreducibles(L) == tuple(coatoms)
    assert len(mdfips(L)) == 10
    assert_no_square_table(L)


def test_map_lattice_meets_and_joins_build_no_tables():
    L = mpe_lattice(loops(10))
    ld.lattice_to_json(L)
    assert_no_square_table(L)
    masks = sorted(range(1 << 10), key=lambda m: (m.bit_count(), m))
    pos = {m: i for i, m in enumerate(masks)}
    rnd = random.Random(0)
    for _ in range(200):
        a, b = rnd.randrange(L.n), rnd.randrange(L.n)
        assert L.meet(a, b) == pos[masks[a] & masks[b]]
        assert L.join(a, b) == pos[masks[a] | masks[b]]
    assert_no_square_table(L)


def old_closure_system_error(closed):
    # the message of the pairwise scan that ClosureSystem used to run
    masks = sorted(set(closed), key=lambda m: (bin(m).count("1"), m))
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a & b not in masks:
                return (
                    f"intersection of {sorted(bits(a))} and {sorted(bits(b))}"
                    " is not closed"
                )
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 31), max_size=12))
def test_closure_system_reports_the_first_unclosed_pair(closed):
    closed = closed + [31]
    expected = old_closure_system_error(closed)
    if expected is None:
        ClosureSystem(5, closed)
    else:
        with pytest.raises(ValueError) as exc:
            ClosureSystem(5, closed)
        assert str(exc.value) == expected
