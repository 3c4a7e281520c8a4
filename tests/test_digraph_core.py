import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latdual as ld
import oracles
from latdual.digraph import Digraph, _interpolation_witness, _reduction_witness
from oracles import TIRS_AXIOMS, digraph_isomorphic_brute, is_tirs, reflexive_rows


def pentagon_dual():
    return ld.dual_digraph(ld.fixture("N5"))


def test_neighbourhood_sets():
    G = pentagon_dual()
    assert ld.out_set(G, 0) == {0, 1}
    assert ld.out_set(G, 2) == {2}
    assert ld.in_set(G, 1) == {0, 1}
    assert ld.in_set(G, 0) == {0}


@pytest.mark.parametrize("x", [-1, 3, -3, 9])
@pytest.mark.parametrize("neighbours", [ld.out_set, ld.in_set], ids=["out_set", "in_set"])
def test_vertices_outside_the_digraph_are_refused(neighbours, x):
    """A negative vertex would index from the end, a large one fail on a
    bare IndexError; both are named, on the dual of N5 (vertices 0..2)."""
    with pytest.raises(ValueError) as info:
        neighbours(pentagon_dual(), x)
    assert type(info.value) is ValueError and str(info.value) == f"vertex {x} is not one of 0..2"


def test_tirs_passes_on_a_dual():
    rep = ld.check_tirs(pentagon_dual())
    assert rep
    assert rep == ld.PropertyReport("tirs", True, None)


def test_tirs_separation_failure():
    G = Digraph((0b11, 0b11))
    rep = ld.check_tirs(G)
    assert rep.witness == ("s", (0, 1))
    assert _reduction_witness(G) is None and _interpolation_witness(G) is None
    assert not rep


def test_tirs_reduction_failure():
    # out-set of 0 sits strictly inside out-set of 1, yet 0 -> 1 exists
    G = Digraph((0b011, 0b111, 0b100))
    rep = ld.check_tirs(G)
    assert not rep and rep.witness == ("r", (0, 1))


def test_tirs_interpolation_failure():
    # square of arcs without any interpolating vertex
    G = Digraph((0b0011, 0b0110, 0b1100, 0b1001))
    rep = ld.check_tirs(G)
    assert not rep and rep.witness[0] == "ti"


@st.composite
def reflexive_digraphs(draw, max_v=7):
    v = draw(st.integers(1, max_v))
    return tuple(draw(st.integers(0, (1 << v) - 1)) | 1 << x for x in range(v))


@settings(max_examples=300, deadline=None)
@given(reflexive_digraphs())
def test_check_tirs_matches_the_axiom_definitions(rows):
    """check_tirs holds iff the definitional oracle does, and a failure
    names the first of s, r, ti that fails by definition."""
    rep = ld.check_tirs(Digraph(rows))
    assert bool(rep) == is_tirs(rows)
    first = next((axiom for axiom, holds in TIRS_AXIOMS if not holds(rows)), None)
    assert (rep.witness[0] if rep.witness else None) == first


def test_tirs_requires_loops():
    with pytest.raises(ld.NotReflexive):
        ld.check_tirs(Digraph.from_arcs(2, [(0, 0), (0, 1)]))


def test_lower_interpolation_witness_on_pentagon_dual():
    r = ld.check_lti(pentagon_dual())
    assert not r and r.witness == (1, 2)


def test_lower_interpolation_holds_on_three_atom_dual():
    assert ld.check_lti(ld.dual_digraph(ld.fixture("L3D")))
    assert not ld.check_uti(ld.dual_digraph(ld.fixture("L3D")))


def test_interpolation_swaps_under_reversal(tirs4):
    for G in tirs4:
        R = G.reverse()
        assert ld.check_lti(G).holds == ld.check_uti(R).holds
        assert ld.check_uti(G).holds == ld.check_lti(R).holds
        assert ld.check_djsd(G).holds == ld.check_dmsd(R).holds
        assert ld.check_tirs(R)


def test_degenerate_digraphs_satisfy_everything():
    G = Digraph((0b01, 0b10))  # two isolated loops
    assert ld.check_tirs(G)
    assert ld.check_lti(G) and ld.check_uti(G)
    assert ld.check_dsd(G)
    assert ld.is_poset(G)


def test_distinct_set_conditions_on_fixture_duals():
    GN5 = pentagon_dual()
    assert ld.check_djsd(GN5) and ld.check_dmsd(GN5) and ld.check_dsd(GN5)
    GL4 = ld.dual_digraph(ld.fixture("L4"))
    assert ld.check_dmsd(GL4)
    r = ld.check_djsd(GL4)
    assert not r
    x, y = r.witness
    assert GL4.cols[x] == GL4.cols[y]
    assert not ld.check_dsd(GL4)


def test_transitivity_and_posets():
    r = ld.is_transitive(pentagon_dual())
    assert not r and r.witness == (0, 1, 2)
    C = ld.dual_digraph(ld.fixture("CHAIN(3)"))
    assert ld.is_transitive(C) and ld.is_poset(C)
    two_cycle = Digraph((0b11, 0b11))
    assert ld.is_transitive(two_cycle)
    assert not ld.is_poset(two_cycle)


def test_a_vertex_without_a_loop_is_the_poset_witness():
    r = ld.is_poset(Digraph([0]))
    assert not r and r.witness == (0,)


def test_arcs_outside_the_vertices_are_refused():
    with pytest.raises(ValueError, match=r"^vertex 0 has arcs outside 0\.\.0$"):
        Digraph([4])


def test_find_induced_on_hexagon_dual():
    G = ld.dual_digraph(ld.fixture("L4"))
    assert ld.find_induced(G, ld.G1) == [(0, 1, 2), (0, 1, 3)]
    assert ld.find_induced(G, ld.G0) == []
    assert ld.find_induced(G, ld.G2) == []
    r = ld.check_fis(G)
    assert not r and r.witness == ("G1", (0, 1, 2))


def test_find_induced_on_three_atom_dual():
    G = ld.dual_digraph(ld.fixture("L3D"))
    assert ld.find_induced(G, ld.G0) == [(0, 3, 4), (1, 2, 4)]
    assert ld.find_induced(G, ld.G1) == []


def test_find_induced_on_diamond_dual():
    G = ld.dual_digraph(ld.fixture("M3"))
    for pattern in (ld.G0, ld.G1, ld.G2):
        assert ld.find_induced(G, pattern) == []
    assert ld.check_fis(G)


def test_find_induced_takes_pattern_names_and_rejects_others():
    G = ld.dual_digraph(ld.fixture("L3D"))
    assert (ld.G0, ld.G1, ld.G2) == ("G0", "G1", "G2")
    assert ld.find_induced(G, "G0") == [(0, 3, 4), (1, 2, 4)]
    for name in ("G3", "g0", "", 0, None, ["G0"]):
        with pytest.raises(ld.UnknownProperty):
            ld.find_induced(G, name)


def test_modular_non_fis_dual_has_path_triple():
    G = ld.dual_digraph(ld.fixture("K"))
    assert (1, 2, 6) in ld.find_induced(G, ld.G0)
    assert not ld.check_fis(G)


def test_find_induced_matches_its_definition(tirs5):
    """On every reflexive digraph with 4 vertices and on the TiRS catalog
    up to 5, each pattern's triples are those of the definitional scan."""
    seen = set()
    for G in [Digraph(rows) for rows in reflexive_rows(4)] + list(tirs5):
        for pattern in (ld.G0, ld.G1, ld.G2):
            found = ld.find_induced(G, pattern)
            assert found == oracles.find_induced(G.rows, pattern), (G.rows, pattern)
            seen.add((pattern, bool(found)))
    assert seen == {(p, b) for p in ("G0", "G1", "G2") for b in (True, False)}


def test_weak_transitivity_matches_pattern_absence():
    """The two triple conditions say exactly: no induced path triple, no
    induced single-arc triple. Checked over every reflexive digraph on
    up to 4 vertices."""
    for v in range(1, 5):
        for rows in reflexive_rows(v):
            G = Digraph(rows)
            assert ld.check_wt0(G).holds == (ld.find_induced(G, ld.G0) == [])
            assert ld.check_wt1(G).holds == (ld.find_induced(G, ld.G1) == [])
            fis = ld.check_fis(G).holds
            assert fis == (ld.check_wt0(G).holds and ld.check_wt1(G).holds)


def test_weak_transitivity_fixture_flags():
    assert ld.check_wt0(ld.dual_digraph(ld.fixture("M3")))
    assert ld.check_wt1(ld.dual_digraph(ld.fixture("M3")))
    assert not ld.check_wt0(ld.dual_digraph(ld.fixture("L3D")))
    assert ld.check_wt1(ld.dual_digraph(ld.fixture("L3D")))
    assert ld.check_wt0(ld.dual_digraph(ld.fixture("L4")))
    assert not ld.check_wt1(ld.dual_digraph(ld.fixture("L4")))


def test_digraph_isomorphism_with_witness():
    G = ld.dual_digraph(ld.fixture("L4"))
    perm = (2, 0, 3, 1)
    rows = [0] * 4
    pos = {old: new for new, old in enumerate(perm)}
    for x, y in G.arcs:
        rows[pos[x]] |= 1 << pos[y]
    H = Digraph(tuple(rows))
    ok, m = ld.digraph_isomorphic(G, H)
    assert ok
    for x in range(4):
        for y in range(4):
            assert G.has_arc(x, y) == H.has_arc(m[x], m[y])


def test_digraph_isomorphism_agrees_with_bruteforce(tirs4):
    entries = tirs4
    for i, A in enumerate(entries):
        if A.v > 4:
            continue
        for B in entries[i:]:
            if B.v != A.v:
                continue
            got, _ = ld.digraph_isomorphic(A, B)
            assert got == digraph_isomorphic_brute(A, B)


def test_json_adds_missing_loops():
    G, added = ld.digraph_from_json({"v": 2, "arcs": [[0, 1]]})
    assert added
    assert G.has_arc(0, 0) and G.has_arc(1, 1) and G.has_arc(0, 1)
    G2, added2 = ld.digraph_from_json(ld.digraph_to_json(G))
    assert not added2 and G2 == G


def test_json_keeps_vertex_annotations():
    G = ld.dual_digraph(ld.fixture("N5"))
    obj = json.loads(json.dumps(ld.digraph_to_json(G)))
    back, added = ld.digraph_from_json(obj)
    assert not added
    assert back == G and back.mdfips == G.mdfips


def test_annotations_need_one_entry_per_vertex():
    """Each annotation has one entry per vertex, so the DOT and JSON
    writers never meet a short one."""
    for notes in ({"names": ["a"]}, {"names": ["a", "b", "c"]}, {"mdfips": [(0, 1)]}, {"mdfips": []}):
        with pytest.raises(ValueError, match=r"^(names|mdfips) annotation length does not match v$"):
            Digraph([1, 2], **notes)
    G = Digraph([1, 2], mdfips=[(0, 1), (1, 0)], names=["a", "b"])
    assert 'n1 [label="b"];' in ld.digraph_to_dot(G)
    back, _ = ld.digraph_from_json(ld.digraph_to_json(G))
    assert back.mdfips == G.mdfips and G.reverse().names == G.names
    empty = Digraph([], mdfips=[], names=[])
    assert ld.digraph_to_json(empty) == {"v": 0, "arcs": []}


def test_dot_merges_opposite_arcs_and_hides_loops():
    G = ld.dual_digraph(ld.fixture("L4"))
    dot = ld.digraph_to_dot(G)
    assert "[dir=both]" in dot
    assert 'label="ab"' in dot
    for x in range(G.v):
        assert f"n{x} -> n{x}" not in dot
