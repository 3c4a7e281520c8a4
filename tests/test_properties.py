import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latdual as ld
import oracles
from latdual.convexity import ClosureSystem, cld_lattice
from latdual.fixtures import chain
from latdual.lattice import interval, join_irreducibles, meet_irreducibles, mu, order_dual
from latdual.properties import LATTICE_CHECKS, DIGRAPH_CHECKS, PropertyReport

LATTICE_PROPS = ("usm", "lsm", "mod", "dist", "jsd", "msd", "sd", "wjsd",
                 "jmlsm", "jmusm", "labc", "uabc", "md")
DIGRAPH_PROPS = ("tirs", "lti", "uti", "djsd", "dmsd", "dsd", "fis",
                 "wt0", "wt1", "trans", "poset")

# fixture name -> subset of LATTICE_PROPS that hold
LATTICE_TABLE = {
    "CHAIN(3)": set(LATTICE_PROPS),
    "B2": set(LATTICE_PROPS),
    "N5": {"jsd", "msd", "sd", "wjsd"},
    "M3": {"usm", "lsm", "mod", "jmlsm", "jmusm", "labc", "uabc"},
    "L4": {"usm", "msd", "jmusm", "uabc"},
    "L4D": {"lsm", "jsd", "wjsd", "jmlsm", "labc", "md"},
    "L3D": {"jmlsm", "labc"},
    "K": {"usm", "lsm", "mod", "jmlsm", "jmusm", "labc", "uabc"},
}

# fixture name -> subset of DIGRAPH_PROPS holding on the dual digraph
DIGRAPH_TABLE = {
    "CHAIN(3)": set(DIGRAPH_PROPS),
    "B2": set(DIGRAPH_PROPS),
    "N5": {"tirs", "djsd", "dmsd", "dsd", "wt1"},
    "M3": {"tirs", "lti", "uti", "fis", "wt0", "wt1"},
    "L4": {"tirs", "uti", "dmsd", "wt0"},
    "L4D": {"tirs", "lti", "djsd", "wt0"},
    "L3D": {"tirs", "lti", "wt1"},
    "K": {"tirs", "lti", "uti"},
}


def test_lattice_flag_table():
    for name, expect in LATTICE_TABLE.items():
        L = ld.fixture(name)
        got = {p for p in LATTICE_PROPS if ld.check_lattice_property(p, L)}
        assert got == expect, name


def test_digraph_flag_table():
    for name, expect in DIGRAPH_TABLE.items():
        G = ld.dual_digraph(ld.fixture(name))
        got = {p for p in DIGRAPH_PROPS if ld.check_digraph_property(p, G)}
        assert got == expect, name


def test_witness_goldens():
    N5 = ld.fixture("N5")
    assert ld.check_lattice_property("usm", N5).witness == (1, 3)
    assert ld.check_lattice_property("mod", N5).witness == (3, 1, 2)
    assert ld.check_lattice_property("md", N5).witness == (4,)
    assert ld.check_lattice_property("dist", ld.fixture("M3")).witness == (1, 2, 3)
    L4 = ld.fixture("L4")
    assert ld.check_lattice_property("lsm", L4).witness == (3, 5)
    assert ld.check_lattice_property("jsd", L4).witness == (4, 3, 5)


def test_report_shape():
    r = ld.check_lattice_property("mod", ld.fixture("M3"))
    assert r.holds and r.witness is None and bool(r)
    r = ld.check_lattice_property("mod", ld.fixture("N5"))
    assert not r.holds and r.witness is not None and not bool(r)
    assert r.property == "mod"


def _witness_confirms(L, prop, w):
    """Replay a failure witness against the defining condition."""
    ji, mi = set(join_irreducibles(L)), set(meet_irreducibles(L))
    if prop in ("usm", "jmusm"):
        a, b = w
        shape = L.is_cover(L.meet(a, b), a) and not L.is_cover(b, L.join(a, b))
        return shape and (prop == "usm" or (a in ji and b in mi))
    if prop == "lsm":
        a, b = w
        return L.is_cover(a, L.join(a, b)) and not L.is_cover(L.meet(a, b), b)
    if prop == "jmlsm":
        a, b = w
        return (a in ji and b in mi and L.is_cover(b, L.join(a, b))
                and not L.is_cover(L.meet(a, b), a))
    if prop == "mod":
        a, b, c = w
        return L.leq(a, c) and L.join(a, L.meet(b, c)) != L.meet(L.join(a, b), c)
    if prop == "dist":
        a, b, c = w
        return L.meet(a, L.join(b, c)) != L.join(L.meet(a, b), L.meet(a, c))
    if prop in ("jsd", "wjsd"):
        a, b, c = w
        shape = (L.join(a, b) == L.join(a, c)
                 and L.join(a, b) != L.join(a, L.meet(b, c)))
        return shape and (prop == "jsd" or (a in mi and b in ji))
    if prop == "msd":
        a, b, c = w
        return (L.meet(a, b) == L.meet(a, c)
                and L.meet(a, b) != L.meet(a, L.join(b, c)))
    if prop == "sd":
        return _witness_confirms(L, "jsd", w) or _witness_confirms(L, "msd", w)
    if prop == "labc":
        a, b = w
        pairs = ld.mdfips(L)
        return (a in ji and b in mi and not L.leq(a, b)
                and not any(x == a and L.leq(b, c) for x, c in pairs))
    if prop == "uabc":
        a, b = w
        pairs = ld.mdfips(L)
        return (a in ji and b in mi and not L.leq(a, b)
                and not any(y == b and L.leq(c, a) for c, y in pairs))
    if prop == "md":
        (a,) = w
        return a != L.bottom and not ld.check_lattice_property(
            "dist", interval(L, mu(L, a), a))
    raise AssertionError(prop)


def test_witnesses_replay_on_catalog(catalog5):
    for L in catalog5.entries:
        for prop in LATTICE_PROPS:
            r = ld.check_lattice_property(prop, L)
            if not r:
                assert _witness_confirms(L, prop, r.witness), (L.n, prop, r.witness)


def test_witnesses_replay_on_fixtures():
    for name in LATTICE_TABLE:
        L = ld.fixture(name)
        for prop in LATTICE_PROPS:
            r = ld.check_lattice_property(prop, L)
            if not r:
                assert _witness_confirms(L, prop, r.witness), (name, prop)


DUAL_PAIRS = (("usm", "lsm"), ("jsd", "msd"), ("jmlsm", "jmusm"),
              ("labc", "uabc"), ("mod", "mod"), ("dist", "dist"), ("sd", "sd"))


def test_order_dual_swaps_paired_properties(catalog5):
    for L in catalog5.entries:
        D = order_dual(L)
        for p, q in DUAL_PAIRS:
            assert bool(ld.check_lattice_property(p, L)) == \
                bool(ld.check_lattice_property(q, D)), (L.n, p, q)


def test_interval_condition_is_not_self_dual():
    assert not ld.check_lattice_property("md", ld.fixture("L4"))
    assert ld.check_lattice_property("md", ld.fixture("L4D"))


def test_modular_is_semimodular_both_ways(catalog6):
    for L in catalog6.entries:
        both = bool(ld.check_lattice_property("usm", L)) and \
            bool(ld.check_lattice_property("lsm", L))
        assert both == bool(ld.check_lattice_property("mod", L))


IMPLICATIONS = (("dist", "mod"), ("dist", "sd"), ("mod", "usm"), ("mod", "lsm"),
                ("lsm", "jmlsm"), ("usm", "jmusm"), ("jsd", "wjsd"),
                ("sd", "jsd"), ("sd", "msd"))


def test_implication_sanity(catalog6):
    for L in catalog6.entries:
        flags = {p: bool(ld.check_lattice_property(p, L))
                 for p in LATTICE_PROPS}
        for p, q in IMPLICATIONS:
            assert not flags[p] or flags[q], (L.n, p, q)


def test_digraph_names_resolve_through_the_dual():
    for name in ("N5", "L4", "L4D", "L3D", "M3", "K"):
        L = ld.fixture(name)
        G = ld.dual_digraph(L)
        for prop in DIGRAPH_PROPS:
            assert bool(ld.check_lattice_property(prop, L)) == \
                bool(ld.check_digraph_property(prop, G)), (name, prop)


def test_tirs_witness_tags():
    from latdual.digraph import Digraph

    r = ld.check_digraph_property("tirs", Digraph((0b11, 0b11)))
    assert not r and r.witness[0] == "s"
    r = ld.check_digraph_property("tirs", Digraph((0b011, 0b111, 0b100)))
    assert not r and r.witness == ("r", (0, 1))


def test_every_report_names_its_property_and_has_a_witness_iff_it_fails():
    """Each registered name holds on some input and fails on another, and
    every report carries that name, with a witness exactly on failure."""
    reports = {name: [] for name in ld.property_names()}
    for fx in ld.fixture_names():
        for name in ld.property_names():
            reports[name].append(ld.check_lattice_property(name, ld.fixture(fx)))
    # the duals of lattices always pass tirs; small reflexive digraphs need not
    digraphs = [ld.dual_digraph(ld.fixture(fx)) for fx in ld.fixture_names()]
    digraphs += [ld.Digraph(rows) for v in (1, 2, 3) for rows in oracles.reflexive_rows(v)]
    for G in digraphs:
        for name in DIGRAPH_PROPS:
            reports[name].append(ld.check_digraph_property(name, G))
    for name, reps in reports.items():
        assert {r.holds for r in reps} == {True, False}, name
        for r in reps:
            assert isinstance(r, PropertyReport)
            assert r.property == name
            assert (r.witness is None) == r.holds, (name, r)


def test_property_names_listing():
    names = ld.property_names()
    assert names == LATTICE_PROPS + DIGRAPH_PROPS
    assert len(set(names)) == len(names)
    assert set(LATTICE_CHECKS) == set(LATTICE_PROPS)
    assert set(DIGRAPH_CHECKS) == set(DIGRAPH_PROPS)


def test_unknown_names_raise():
    with pytest.raises(ld.UnknownProperty):
        ld.check_lattice_property("shiny", ld.fixture("B2"))
    with pytest.raises(ld.UnknownProperty):
        ld.check_digraph_property("usm", ld.dual_digraph(ld.fixture("B2")))


# every lattice decider, against the first witness of its definitional scan
WITNESS_ORACLES = {
    "usm": oracles.usm_witness,
    "lsm": oracles.lsm_witness,
    "jsd": oracles.jsd_witness,
    "msd": oracles.msd_witness,
    "sd": oracles.sd_witness,
    "dist": oracles.dist_witness,
    "mod": oracles.mod_witness,
    "md": oracles.md_witness,
    "wjsd": oracles.wjsd_witness,
    "jmlsm": oracles.jmlsm_witness,
    "jmusm": oracles.jmusm_witness,
    "labc": oracles.labc_witness,
    "uabc": oracles.uabc_witness,
}

# the digraph deciders other than trans and poset, likewise
DIGRAPH_WITNESS_ORACLES = {
    "tirs": oracles.tirs_witness,
    "lti": oracles.lti_witness,
    "uti": oracles.uti_witness,
    "djsd": oracles.djsd_witness,
    "dmsd": oracles.dmsd_witness,
    "dsd": oracles.dsd_witness,
    "fis": oracles.fis_witness,
    "wt0": oracles.wt0_witness,
    "wt1": oracles.wt1_witness,
}


def _assert_reports_match_oracles(L, label):
    """Verdict and witness of each decider equal the definitional scan's."""
    verdicts = {}
    for prop, oracle in WITNESS_ORACLES.items():
        w = oracle(L)
        assert ld.check_lattice_property(prop, L) == PropertyReport(prop, w is None, w), \
            (label, prop)
        verdicts[prop] = w is None
    return verdicts


def test_deciders_match_oracles_on_catalog_and_duals():
    seen = set()
    entries = ld.enumerate_lattices(8).entries
    assert len(entries) == 300
    for i, L in enumerate(entries):
        for label, M in ((i, L), (f"dual {i}", order_dual(L))):
            seen |= set(_assert_reports_match_oracles(M, label).items())
    # every law both holds and fails somewhere in the catalog
    assert seen == {(p, v) for p in WITNESS_ORACLES for v in (True, False)}


def test_deciders_match_oracles_on_tirs_map_lattices(tirs5):
    assert len(tirs5) == 322
    for i, G in enumerate(tirs5):
        _assert_reports_match_oracles(ld.mpe_lattice(G), i)


def test_deciders_match_oracles_on_convex_geometry(convex95):
    verdicts = _assert_reports_match_oracles(convex95, "convex95")
    # meet-distributive, so the jsd and md checks run to the end
    assert verdicts["jsd"] and verdicts["md"]
    assert not verdicts["dist"]


def lattice_product(L, M):
    """The product order, element (x, y) being x * M.n + y."""
    return ld.FiniteLattice([
        sum(1 << i * M.n + j for i in oracles.bits(L.up[x]) for j in oracles.bits(M.up[y]))
        for x in range(L.n) for y in range(M.n)
    ])


def chain_product(*sizes):
    L = chain(1)
    for k in sizes:
        L = lattice_product(L, chain(k))
    return L


# Boolean lattices 2^k, products of chains, and products of a chain with
# a lattice that fails some of the laws, each with its order dual
STRUCTURED = {
    **{f"2^{k}": chain_product(*[2] * k) for k in range(1, 7)},
    **{f"chains {sizes}": chain_product(*sizes)
       for sizes in ((3, 3), (2, 5), (2, 2, 3), (3, 4), (2, 3, 4))},
    **{f"{name} x {k}": lattice_product(ld.fixture(name), chain(k))
       for name, k in (("N5", 2), ("M3", 2), ("L4", 2), ("L4D", 3))},
}


def _assert_structured_reports_match_oracles(label, props):
    L = STRUCTURED[label]
    for M in (L, order_dual(L)):
        for prop in props:
            w = WITNESS_ORACLES[prop](M)
            assert ld.check_lattice_property(prop, M) == PropertyReport(prop, w is None, w), \
                (label, M is L, prop)


@pytest.mark.parametrize("label", sorted(STRUCTURED))
def test_md_mod_and_semimodularity_match_oracles_on_structured_lattices(label):
    _assert_structured_reports_match_oracles(label, ("md", "mod", "usm", "lsm"))


@pytest.mark.parametrize("label", sorted(STRUCTURED))
def test_semidistributivity_and_dist_match_oracles_on_structured_lattices(label):
    _assert_structured_reports_match_oracles(label, ("jsd", "msd", "dist", "sd"))


# b covers a for each pair (a, b): 0 < 1, 2, 3, 4; 3, 4 < 5 < 6; 1, 2, 6 < 7
EIGHT_BUT_NOT_BOOLEAN = ld.from_covers(
    8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 7), (2, 7), (3, 5), (4, 5), (5, 6), (6, 7)])


def test_md_reads_the_order_of_an_interval_not_only_its_size():
    L = EIGHT_BUT_NOT_BOOLEAN
    assert L.lower_covers(7) == (1, 2, 6) and mu(L, 7) == 0
    # [0, 7] is the whole lattice: 8 = 2^3 elements, yet not Boolean
    assert interval(L, mu(L, 7), 7).n == 8
    assert ld.check_lattice_property("md", L) == PropertyReport("md", False, (7,))
    assert oracles.md_witness(L) == (7,)
    # in the catalog, 24 lattices fail md first at an element whose
    # interval has exactly 2^c elements, c its number of lower covers
    fooling = 0
    for M in ld.enumerate_lattices(8).entries:
        r = ld.check_lattice_property("md", M)
        if not r:
            (a,) = r.witness
            fooling += interval(M, mu(M, a), a).n == 1 << len(M.lower_covers(a))
    assert fooling == 24


def _md_matches_both_references(L, label):
    """md's report equals the definitional scan's and that of its lemma
    tested member by member; True iff md holds."""
    w = oracles.md_witness(L)
    assert oracles.md_rows_witness(L) == w, label
    assert ld.check_lattice_property("md", L) == PropertyReport("md", w is None, w), label
    return w is None


def test_md_matches_both_references_on_every_lattice_up_to_ten_elements():
    entries = ld.enumerate_lattices(10).entries
    assert len(entries) == 7372
    holding = sum(_md_matches_both_references(L, i) for i, L in enumerate(entries))
    assert holding == 133


@pytest.mark.parametrize("seed", range(4))
def test_md_matches_both_references_on_convex_set_lattices(seed):
    rng = random.Random(seed)
    points = [(rng.randrange(1000), rng.randrange(1000)) for _ in range(6)]
    L = cld_lattice(ClosureSystem(len(points), oracles.convex_sets(points)))
    # a convex geometry: meet-distributive, so every subset check runs;
    # its order dual is md iff it is distributive, iff all 64 sets are convex
    assert _md_matches_both_references(L, seed)
    assert _md_matches_both_references(order_dual(L), seed) == (L.n == 64)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_md_matches_both_references_on_failing_products(k):
    n5 = lattice_product(ld.fixture("N5"), chain_product(*[2] * k))
    m3 = lattice_product(ld.fixture("M3"), chain(k + 1))
    for L in (n5, m3):
        for M in (L, order_dual(L)):
            assert not _md_matches_both_references(M, (L.n, M is L))


# the deciders that read only order and cover rows
ORDER_ROW_PROPS = ("jsd", "msd", "usm", "lsm", "mod", "dist", "sd", "md")


def test_order_row_deciders_and_mu_build_no_tables(convex95):
    # each case with the laws that hold on it
    cases = ((STRUCTURED["2^6"], set(ORDER_ROW_PROPS)),
             (convex95, {"jsd", "lsm", "md"}),
             (STRUCTURED["N5 x 2"], {"jsd", "msd", "sd"}),
             (STRUCTURED["M3 x 2"], {"usm", "lsm", "mod"}),
             (EIGHT_BUT_NOT_BOOLEAN, set()))
    seen = set()
    for L, holding in cases:
        L = ld.FiniteLattice(L.up)
        for a in range(L.n):
            if a != L.bottom:
                mu(L, a)
        for prop in ORDER_ROW_PROPS:
            holds = ld.check_lattice_property(prop, L).holds
            assert holds == (prop in holding), (L.n, prop)
            oracles.assert_no_square_table(L)
            seen.add((prop, holds))
    # every decider both holds and fails, so both its paths ran
    assert seen == {(p, v) for p in ORDER_ROW_PROPS for v in (True, False)}


@st.composite
def set_lattices(draw):
    """The lattice of an intersection-closed family on up to 5 points,
    with its elements shuffled."""
    k = draw(st.integers(1, 5))
    family = set(draw(st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=16)))
    family.add((1 << k) - 1)
    while True:
        meets = {a & b for a in family for b in family} - family
        if not meets:
            break
        family |= meets
    L = cld_lattice(ClosureSystem(k, family))
    return ld.relabel(L, draw(st.permutations(range(L.n))))


@settings(max_examples=150, deadline=None)
@given(set_lattices())
def test_deciders_match_oracles_on_drawn_lattices(L):
    _assert_reports_match_oracles(L, L.up)


def _assert_digraph_reports_match_oracles(G, label):
    """Verdict and witness of each digraph decider equal the oracle's."""
    verdicts = {}
    for prop, oracle in DIGRAPH_WITNESS_ORACLES.items():
        w = oracle(G.rows)
        assert ld.check_digraph_property(prop, G) == PropertyReport(prop, w is None, w), \
            (label, prop)
        verdicts[prop] = w is None
    return verdicts


def test_digraph_deciders_match_oracles_on_tirs_catalog_and_reverses(tirs5):
    seen = set()
    for i, G in enumerate(tirs5):
        for label, H in ((i, G), (f"reverse {i}", G.reverse())):
            seen |= set(_assert_digraph_reports_match_oracles(H, label).items())
    # TiRS is closed under reversal; every other condition holds and fails
    every = {(p, v) for p in DIGRAPH_WITNESS_ORACLES for v in (True, False)}
    assert seen == every - {("tirs", False)}


def test_digraph_deciders_match_oracles_on_every_small_digraph():
    seen = set()
    for v in (1, 2, 3):
        for rows in oracles.reflexive_rows(v):
            seen |= set(_assert_digraph_reports_match_oracles(ld.Digraph(rows), rows).items())
    assert ("tirs", False) in seen


def test_digraph_deciders_match_oracles_on_every_digraph_with_four_vertices():
    """All 4,096 reflexive digraphs on 4 vertices: the induced-triple masks
    of fis meet every triple shape beside a fourth vertex."""
    seen = set()
    for rows in oracles.reflexive_rows(4):
        seen |= set(_assert_digraph_reports_match_oracles(ld.Digraph(rows), rows).items())
    assert seen == {(p, v) for p in DIGRAPH_WITNESS_ORACLES for v in (True, False)}


@st.composite
def reflexive_digraphs(draw):
    """A reflexive digraph on up to 7 vertices."""
    v = draw(st.integers(1, 7))
    rows = draw(st.lists(st.integers(0, (1 << v) - 1), min_size=v, max_size=v))
    return ld.Digraph([row | 1 << x for x, row in enumerate(rows)])


@settings(max_examples=300, deadline=None)
@given(reflexive_digraphs())
def test_digraph_deciders_match_oracles_on_drawn_digraphs(G):
    _assert_digraph_reports_match_oracles(G, G.rows)
