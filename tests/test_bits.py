"""The bitmask relation primitives against definitional versions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from latdual._bits import bits, inclusion, mask, permute, transpose
from oracles import relabel_rows


@st.composite
def relations(draw, max_n=9, min_n=0):
    n = draw(st.integers(min_n, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return tuple(rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_permute_matches_the_relabelling_oracle(data):
    rows = data.draw(relations())
    perm = tuple(data.draw(st.permutations(range(len(rows)))))
    assert permute(rows, perm) == relabel_rows(rows, perm)


@settings(max_examples=200, deadline=None)
@given(st.one_of(relations(), relations(max_n=100, min_n=65)))
def test_transpose_is_the_converse(rows):
    """Small relations, and relations whose rows are wider than 64 bits."""
    n = len(rows)
    converse = tuple(
        sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)
    )
    assert transpose(rows) == converse
    assert transpose(converse) == rows


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 70).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=12))))
def test_transpose_of_a_family_is_its_membership_columns(case):
    """Families whose number of sets differs from the width, up to rows
    wider than 64 bits: column x holds the sets that contain x."""
    width, rows = case
    cols = transpose(rows, width)
    assert len(cols) == width
    for x, col in enumerate(cols):
        assert col == sum(1 << i for i, row in enumerate(rows) if row >> x & 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=12))
def test_bits_mask_and_inclusion(sets):
    for s in sets:
        assert mask(bits(s)) == s
        assert list(bits(s)) == [i for i in range(6) if s >> i & 1]
    order, converse = inclusion(sets)
    assert converse == transpose(order)
    for i, s in enumerate(sets):
        for j, t in enumerate(sets):
            assert (order[i] >> j & 1) == set(bits(s)).issubset(set(bits(t)))
