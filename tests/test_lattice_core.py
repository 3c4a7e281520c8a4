import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latdual as ld
from latdual._bits import bits, permute, transpose
from latdual.lattice import FiniteLattice
from oracles import (
    assert_no_square_table,
    cover_pairs,
    is_lattice,
    is_partial_order,
    lattice_isomorphic_brute,
    relabel_rows,
)


def test_two_chain_basics():
    L = ld.fixture("CHAIN(2)")
    assert L.n == 2
    assert L.bottom == 0 and L.top == 1
    assert L.leq(0, 1) and not L.leq(1, 0)
    assert L.meet(0, 1) == 0 and L.join(0, 1) == 1
    assert L.covers == ((0, 1),)


def test_single_element_lattice():
    L = ld.fixture("CHAIN(1)")
    assert L.bottom == L.top == 0
    assert ld.join_irreducibles(L) == ()
    assert ld.meet_irreducibles(L) == ()


def test_labels_must_match_the_elements():
    with pytest.raises(ValueError, match="^labels length does not match element count$"):
        FiniteLattice((1,), labels=("a", "b"))


def test_an_unknown_fixture_is_refused():
    with pytest.raises(KeyError) as info:
        ld.fixture("nope")
    assert info.value.args == ("unknown fixture 'nope'",)


def test_from_covers_rejects_cycle():
    with pytest.raises(ld.NotAPartialOrder) as exc:
        ld.from_covers(3, [(0, 1), (1, 2), (2, 0)])
    assert "cycle" in str(exc.value)


def test_from_covers_names_a_cover_on_the_cycle():
    # 2 -> 3 is listed first, but only 0 <-> 1 is a cycle
    with pytest.raises(ld.NotAPartialOrder) as exc:
        ld.from_covers(4, [(2, 3), (0, 1), (1, 0), (1, 2)])
    assert str(exc.value) in ("elements 0 and 1 form a cycle", "elements 1 and 0 form a cycle")


@pytest.mark.parametrize("x", [-1, 5, -5, 7])
@pytest.mark.parametrize(
    "call",
    [
        lambda L, x: ld.mu(L, x),
        lambda L, x: ld.interval(L, x, 4),
        lambda L, x: ld.interval(L, 0, x),
        lambda L, x: ld.maximal_extensions(L, x, 0),
        lambda L, x: ld.maximal_extensions(L, 1, x),
        lambda L, x: ld.t_set(L, x, 0),
        lambda L, x: ld.t_set(L, 1, x),
        lambda L, x: L.lower_covers(x),
        lambda L, x: L.upper_covers(x),
    ],
    ids=[
        "mu", "interval-a", "interval-b", "extensions-a", "extensions-b", "t_set-a", "t_set-b",
        "lower_covers", "upper_covers",
    ],
)
def test_elements_outside_the_lattice_are_refused(call, x):
    """A negative element would index from the end, a large one fail on
    a bare IndexError; both are named, on N5 (elements 0..4)."""
    with pytest.raises(ValueError) as info:
        call(ld.fixture("N5"), x)
    assert type(info.value) is ValueError and str(info.value) == f"element {x} is not one of 0..4"


def reaches(n, covers):
    # reach[a] has bit b iff a reaches b by zero or more covers
    reach = [1 << a for a in range(n)]
    for a, b in covers:
        reach[a] |= 1 << b
    for k in range(n):
        for a in range(n):
            if reach[a] >> k & 1:
                reach[a] |= reach[k]
    return reach


@st.composite
def cover_lists(draw):
    n = draw(st.integers(1, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    covers = draw(st.lists(pair, max_size=14))
    if draw(st.booleans()):
        # acyclic: every pair points up a drawn linear order
        rank = draw(st.permutations(range(n)))
        covers = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in covers if a != b]
    return n, covers


# the covers of the Boolean lattice 2^3, element a being the set a
B3_COVERS = [(a, a | 1 << i) for a in range(8) for i in range(3) if not a >> i & 1]


@settings(max_examples=600, deadline=None)
@given(cover_lists())
@example((5, [(0, 1), (1, 2), (2, 2), (2, 3), (3, 4)]))  # a self-cover inside a chain
@example((60, [(i, i + 1) for i in range(59)] + [(59, 57)]))  # a cycle behind a long prefix
@example((6, [(4, 5), (5, 4), (5, 0), (0, 1), (1, 2), (3, 2)]))  # a cycle above element 0
@example((8, B3_COVERS + [(7, 0)]))  # no source: 2^3 and a cover from its top to its bottom
@example((8, B3_COVERS[:3] + B3_COVERS + B3_COVERS[-1:]))  # 2^3 with repeated covers
def test_from_covers_closes_exactly_the_acyclic_lists(drawn):
    """An acyclic list gives its reflexive transitive closure, or the
    lattice check's own error on it; a cyclic one names a cover (x, y)
    whose y reaches x."""
    n, covers = drawn
    reach = reaches(n, covers)
    cyclic = any(reach[b] >> a & 1 for a, b in covers)
    try:
        L = ld.from_covers(n, covers)
    except ld.NotAPartialOrder as exc:
        assert cyclic
        words = str(exc).split()
        assert words[0] == "elements" and words[2] == "and" and words[4:] == ["form", "a", "cycle"]
        x, y = int(words[1]), int(words[3])
        assert (x, y) in covers and reach[y] >> x & 1
        return
    except ld.NotALattice as exc:
        assert not cyclic
        with pytest.raises(ld.NotALattice) as again:
            FiniteLattice(reach)
        assert str(again.value) == str(exc)
        return
    assert not cyclic
    assert L.up == tuple(reach)
    assert L.down == transpose(L.up)


# factors of the drawn products: 2 to 7 elements, distributive or not
FACTORS = ("CHAIN(2)", "CHAIN(3)", "B2", "N5", "M3", "L4", "K")


@st.composite
def padded_cover_lists(draw):
    """(n, pairs, up): a product of one or two fixtures, shuffled, listed
    by its covers padded with drawn order pairs that are not covers and
    with repeated pairs, in drawn order; ``up`` is its order."""
    up = (1,)
    for name in draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=2)):
        F = ld.fixture(name)
        up = tuple(sum(1 << i * F.n + j for i in bits(a) for j in bits(b))
                   for a in up for b in F.up)
    n = len(up)
    perm = draw(st.permutations(range(n)))
    up = relabel_rows(up, perm)
    covers = cover_pairs(up)
    longer = [(a, b) for a in range(n) for b in bits(up[a]) if a != b and (a, b) not in covers]
    extra = draw(st.lists(st.sampled_from(longer), max_size=8)) if longer else []
    repeats = draw(st.lists(st.sampled_from(covers), max_size=4)) if covers else []
    pairs = draw(st.permutations(covers + extra + repeats))
    return n, pairs, up


@settings(max_examples=150, deadline=None)
@given(padded_cover_lists())
def test_from_covers_builds_both_rows_and_the_covers(drawn):
    """The down rows come from the cover pass, not a transpose: they are
    the converse of the up rows, and the cover rows swept from both are
    the covers, whatever redundant or repeated pairs the list holds."""
    n, pairs, up = drawn
    L = ld.from_covers(n, pairs)
    assert L.up == up
    assert L.down == transpose(up)
    assert list(L.covers) == cover_pairs(up)
    assert L.bottom == up.index((1 << n) - 1)


def test_from_covers_rejects_self_cover():
    with pytest.raises(ld.NotAPartialOrder):
        ld.from_covers(2, [(1, 1)])


def test_from_covers_rejects_out_of_range():
    with pytest.raises(ld.NotAPartialOrder):
        ld.from_covers(2, [(0, 5)])


def test_missing_join_names_the_pair():
    # two incomparable points, no top
    with pytest.raises(ld.NotALattice) as exc:
        ld.from_covers(3, [(0, 1), (0, 2)])
    assert "1" in str(exc.value) and "2" in str(exc.value)


def test_missing_meet_names_the_pair():
    with pytest.raises(ld.NotALattice) as exc:
        ld.from_covers(3, [(0, 2), (1, 2)])
    assert "0" in str(exc.value) and "1" in str(exc.value)


def test_pentagon_irreducibles():
    """The pentagon: joins come from a, b, c; meets from a, b, c too."""
    N5 = ld.fixture("N5")
    assert ld.join_irreducibles(N5) == (1, 2, 3)
    assert ld.meet_irreducibles(N5) == (1, 2, 3)


def test_hexagon_irreducibles():
    L4 = ld.fixture("L4")
    assert ld.join_irreducibles(L4) == (1, 2, 3, 5)
    assert ld.meet_irreducibles(L4) == (3, 4, 5)


def test_meet_join_agree_with_scan(catalog5):
    """Table lookups match a direct search over bounds on every small lattice."""
    for L in catalog5.entries:
        for a in range(L.n):
            for b in range(L.n):
                lower = [x for x in range(L.n) if L.leq(x, a) and L.leq(x, b)]
                upper = [x for x in range(L.n) if L.leq(a, x) and L.leq(b, x)]
                m, j = L.meet(a, b), L.join(a, b)
                assert m in lower and all(L.leq(x, m) for x in lower)
                assert j in upper and all(L.leq(j, x) for x in upper)


def test_mu_examples():
    N5 = ld.fixture("N5")
    assert ld.mu(N5, 4) == 0
    assert ld.mu(N5, 2) == 3
    B2 = ld.fixture("B2")
    assert ld.mu(B2, 3) == 0
    with pytest.raises(ld.NoLowerCovers):
        ld.mu(N5, 0)


def test_mu_is_the_meet_of_the_lower_covers(catalog6):
    for L in catalog6.entries:
        for a in range(L.n):
            if a == L.bottom:
                continue
            covers = L.lower_covers(a)
            m = covers[0]
            for c in covers[1:]:
                m = L.meet(m, c)
            assert ld.mu(L, a) == m


def test_interval_of_pentagon_is_chain():
    N5 = ld.fixture("N5")
    I = ld.interval(N5, 3, 4)
    assert I.n == 3
    ok, _ = ld.lattice_isomorphic(I, ld.fixture("CHAIN(3)"))
    assert ok
    assert I.labels == ("b", "c", "1")


def test_interval_single_point():
    N5 = ld.fixture("N5")
    assert ld.interval(N5, 2, 2).n == 1


def test_interval_is_the_restriction_of_the_order(catalog6):
    """Every [a, b] of every lattice with n <= 6, labelled and not, is the
    order restricted to the elements between a and b, in index order."""
    for L in catalog6.entries:
        named = FiniteLattice(L.up, [f"e{i}" for i in range(L.n)])
        for M in (L, named):
            for a in range(L.n):
                for b in range(L.n):
                    if not L.leq(a, b):
                        with pytest.raises(ld.EmptyInterval):
                            ld.interval(M, a, b)
                        continue
                    elems = [x for x in range(L.n) if L.leq(a, x) and L.leq(x, b)]
                    I = ld.interval(M, a, b)
                    assert I.up == tuple(
                        sum(1 << j for j, f in enumerate(elems) if L.leq(e, f)) for e in elems
                    )
                    assert I.labels == (tuple(f"e{x}" for x in elems) if M is named else None)


def test_interval_empty_raises():
    with pytest.raises(ld.EmptyInterval):
        ld.interval(ld.fixture("N5"), 1, 2)


def test_order_dual_involution(catalog5):
    for L in catalog5.entries:
        assert ld.order_dual(ld.order_dual(L)) == L


def test_order_dual_swaps_irreducibles(catalog7):
    L4 = ld.fixture("L4")
    D = ld.order_dual(L4)
    assert set(ld.join_irreducibles(D)) == set(ld.meet_irreducibles(L4))
    assert set(ld.meet_irreducibles(D)) == set(ld.join_irreducibles(L4))
    # covers and irreducibles of every lattice with n <= 7 and of its dual
    # against the definitional cover pairs
    for L in catalog7.entries:
        D = ld.order_dual(L)
        for M in (L, D):
            pairs = cover_pairs(M.up)
            lower = [tuple(a for a, b in pairs if b == x) for x in range(M.n)]
            upper = [tuple(b for a, b in pairs if a == x) for x in range(M.n)]
            assert [M.lower_covers(x) for x in range(M.n)] == lower
            assert [M.upper_covers(x) for x in range(M.n)] == upper
            assert ld.join_irreducibles(M) == tuple(x for x in range(M.n) if len(lower[x]) == 1)
            assert ld.meet_irreducibles(M) == tuple(x for x in range(M.n) if len(upper[x]) == 1)
        assert ld.join_irreducibles(D) == ld.meet_irreducibles(L)
        assert ld.meet_irreducibles(D) == ld.join_irreducibles(L)


def test_hexagons_are_mutually_dual():
    ok, _ = ld.lattice_isomorphic(ld.order_dual(ld.fixture("L4")), ld.fixture("L4D"))
    assert ok


def test_isomorphism_finds_witness():
    N5 = ld.fixture("N5")
    shuffled = ld.relabel(N5, (3, 0, 4, 2, 1))
    ok, m = ld.lattice_isomorphic(shuffled, N5)
    assert ok
    # the witness must carry the order along
    for a in range(5):
        for b in range(5):
            assert shuffled.leq(a, b) == N5.leq(m[a], m[b])


def test_isomorphism_rejects_different_shapes():
    ok, m = ld.lattice_isomorphic(ld.fixture("N5"), ld.fixture("M3"))
    assert not ok and m is None
    ok, _ = ld.lattice_isomorphic(ld.fixture("CHAIN(4)"), ld.fixture("B2"))
    assert not ok


def test_isomorphism_matches_bruteforce(catalog5):
    entries = catalog5.entries
    for i, A in enumerate(entries):
        for B in entries[i:]:
            got, _ = ld.lattice_isomorphic(A, B)
            assert got == lattice_isomorphic_brute(A, B)


def test_canonical_key_constant_on_relabellings():
    K = ld.fixture("K")
    assert ld.canonical_key(ld.relabel(K, (6, 2, 4, 0, 5, 1, 3))) == ld.canonical_key(K)


def test_join_irreducibles_are_join_dense(catalog5):
    """Every element is the join of the join irreducibles below it."""
    for L in catalog5.entries:
        ji = ld.join_irreducibles(L)
        for x in range(L.n):
            acc = L.bottom
            for j in ji:
                if L.leq(j, x):
                    acc = L.join(acc, j)
            assert acc == x


def test_pentagon_search():
    assert ld.find_n5_sublattices(ld.fixture("N5")) == [(0, 1, 3, 2, 4)]
    assert ld.find_n5_sublattices(ld.fixture("M3")) == []
    assert ld.find_n5_sublattices(ld.fixture("K")) == []
    assert ld.find_n5_sublattices(ld.fixture("L4")) != []


def test_pentagon_search_characterises_modularity(catalog6):
    for L in catalog6.entries:
        assert bool(ld.is_modular(L)) == (ld.find_n5_sublattices(L) == [])


def test_json_roundtrip_with_labels():
    L4 = ld.fixture("L4")
    obj = ld.lattice_to_json(L4)
    text = json.dumps(obj)
    back = ld.lattice_from_json(json.loads(text))
    assert back == L4 and back.labels == L4.labels


def test_json_requires_keys():
    with pytest.raises(ValueError):
        ld.lattice_from_json({"covers": []})


def test_dot_output_mentions_labels():
    dot = ld.lattice_to_dot(ld.fixture("N5"))
    assert dot.startswith("digraph")
    assert 'label="b"' in dot
    assert "n0 -> n1;" in dot


def old_order_error(up):
    # the message of the pairwise scan that validated the order before the
    # cover sweep, or None if it accepts
    n = len(up)
    full = (1 << n) - 1
    for i in range(n):
        if up[i] & ~full:
            return f"element {i} relates outside 0..{n - 1}"
        if not up[i] >> i & 1:
            return f"element {i} is not below itself"
    for i in range(n):
        for j in bits(up[i]):
            if j != i and up[j] >> i & 1:
                return f"elements {i} and {j} form a cycle"
            extra = up[j] & ~up[i]
            if extra:
                return f"transitivity fails on {i} <= {j} <= {next(bits(extra))}"
    return None


def order_of(up):
    # the order sweep alone, without the lattice check
    L = FiniteLattice.__new__(FiniteLattice)
    L._set_order(up, None, None)
    return L


def assert_order_checked_as_before(up):
    expected = old_order_error(up)
    assert (expected is None) == is_partial_order(up)
    if expected is not None:
        with pytest.raises(ld.NotAPartialOrder) as exc:
            FiniteLattice(up)
        assert str(exc.value) == expected
    else:
        assert list(order_of(up).covers) == cover_pairs(up)


@pytest.mark.parametrize(
    "up, message",
    [
        ((0b01, 0b110), "element 1 relates outside 0..1"),
        ((0b11, 0b00), "element 1 is not below itself"),
        ((0b011, 0b011, 0b100), "elements 0 and 1 form a cycle"),
        ((0b011, 0b110, 0b100), "transitivity fails on 0 <= 1 <= 2"),
    ],
)
def test_constructor_names_each_order_fault(up, message):
    with pytest.raises(ld.NotAPartialOrder) as exc:
        FiniteLattice(up)
    assert str(exc.value) == message


def test_every_relation_on_three_elements_is_checked_as_before():
    for n in range(1, 4):
        for code in range(1 << n * n):
            assert_order_checked_as_before(
                tuple(code >> n * i & ((1 << n) - 1) for i in range(n))
            )


@st.composite
def relations(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("raw", "closed", "flipped", "wide")))
    if shape != "raw":
        # the reflexive transitive closure of the part above the diagonal
        rows = [row & ~((1 << i + 1) - 1) | 1 << i for i, row in enumerate(rows)]
        for i in range(n - 1, -1, -1):
            for j in bits(rows[i] & ~(1 << i)):
                rows[i] |= rows[j]
        perm = draw(st.permutations(range(n)))
        rows = list(permute(rows, perm))
    if shape == "flipped":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] ^= 1 << j
    if shape == "wide":
        rows[draw(st.integers(0, n - 1))] |= 1 << draw(st.integers(n, n + 2))
    return tuple(rows)


@settings(max_examples=600, deadline=None)
@given(relations())
def test_random_relations_are_checked_as_before(up):
    assert_order_checked_as_before(up)


def old_lattice_error(up):
    # the message of the table-filling scan that checked meets and joins
    # before the closure check, or None if every pair has both
    n = len(up)
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    up_rows, down_rows = set(up), set(down)
    for a in range(n):
        for b in range(a, n):
            if up[a] & up[b] not in up_rows:
                return f"elements {a} and {b} have no join"
            if down[a] & down[b] not in down_rows:
                return f"elements {a} and {b} have no meet"
    return None


@st.composite
def posets(draw):
    k = draw(st.integers(1, 6))
    up = [1 << i for i in range(k)]
    for i in range(k - 1, -1, -1):
        for j in range(i + 1, k):
            if draw(st.booleans()):
                up[i] |= up[j]
    shape = draw(st.sampled_from(("as drawn", "top added", "two maximal added")))
    if shape == "top added":
        up = [row | 1 << k for row in up] + [1 << k]
    if shape == "two maximal added":
        up = [row | 3 << k for row in up] + [1 << k, 1 << k + 1]
    return permute(up, draw(st.permutations(range(len(up)))))


@settings(max_examples=600, deadline=None)
@given(posets())
def test_lattice_check_matches_the_definition_on_posets(up):
    """Posets with and without a top, and with two maximal elements: the
    closure check accepts exactly the lattices, and a rejection names the
    pair the table-filling scan named."""
    expected = old_lattice_error(up)
    assert (expected is None) == is_lattice(up)
    if expected is None:
        L = FiniteLattice(up)
        assert_no_square_table(L)
        assert L.up[L.bottom] == L.down[L.top] == (1 << L.n) - 1
    else:
        with pytest.raises(ld.NotALattice) as exc:
            FiniteLattice(up)
        assert str(exc.value) == expected


def test_constructors_and_their_meets_and_joins_build_no_tables():
    cube = [(a, a | 1 << i) for a in range(8) for i in range(3) if not a >> i & 1]
    B = ld.from_covers(8, cube)
    for L in (
        FiniteLattice(ld.fixture("N5").up),
        ld.lattice_from_json(ld.lattice_to_json(ld.fixture("L4"))),
        B,
    ):
        assert_no_square_table(L)
    assert [B.meet(a, b) for a in range(8) for b in range(8)] == [
        a & b for a in range(8) for b in range(8)
    ]
    assert [B.join(a, b) for a in range(8) for b in range(8)] == [
        a | b for a in range(8) for b in range(8)
    ]
    assert_no_square_table(B)


def test_the_table_check_fails_on_a_square_table():
    L = FiniteLattice(ld.fixture("N5").up)
    assert_no_square_table(L)
    L._meet = tuple(tuple(L.meet(a, b) for b in range(L.n)) for a in range(L.n))
    with pytest.raises(AssertionError, match="_meet"):
        assert_no_square_table(L)
