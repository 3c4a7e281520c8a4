"""The statement checks and the helpers they call read the order as row
masks; ``oracles`` keeps their earlier bodies, written on ``leq``,
``meet`` and ``join``. The two must return the same value on every case,
including cases whose cached data was corrupted on purpose: statements
hold on real lattices, so agreement on passing cases alone shows little.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import latdual as ld
import oracles
from latdual import properties, theorems
from latdual._bits import bits, mask, permute
from latdual.convexity import ClosureSystem
from latdual.digraph import Digraph
from latdual.duality import PartialTwoMap, map_masks
from latdual.lattice import FiniteLattice
from latdual.theorems import DigraphCase, LatticeCase

# statement -> (row-mask check, earlier body), over lattice cases
LATTICE_SIDE = {
    "PROP_2_2": (theorems._prop_2_2, oracles.prop_2_2),
    "LEM_2_3": (theorems._lem_2_3, oracles.lem_2_3),
    "THM_2_6": (theorems._thm_2_6_lattice, oracles.thm_2_6_lattice),
    "PLOSCICA_LEMMA": (
        lambda case: theorems._ploscica(map_masks(case.digraph)),
        lambda case: oracles.ploscica(as_maps(map_masks(case.digraph))),
    ),
    "LEM_3_1": (theorems._lem_3_1, oracles.lem_3_1),
    "THM_3_2": (theorems._thm_3_2, oracles.thm_3_2),
    "LEM_3_4": (theorems._lem_3_4, oracles.lem_3_4),
    "LEM_3_5": (theorems._lem_3_5, oracles.lem_3_5),
    "PROP_3_7": (theorems._prop_3_7, oracles.prop_3_7),
    "LEM_5_1": (theorems._lem_5_1, oracles.lem_5_1),
}

def as_maps(masks):
    # the (one-set, zero-set) masks the check reads, as the maps the oracle reads
    return [PartialTwoMap(frozenset(bits(u)), frozenset(bits(z))) for u, z in masks]


# decider -> earlier witness scan
DECIDERS = {
    "jmlsm": oracles.jmlsm_witness,
    "jmusm": oracles.jmusm_witness,
    "wjsd": oracles.wjsd_witness,
    "labc": oracles.labc_witness,
    "uabc": oracles.uabc_witness,
}


@st.composite
def lattices(draw):
    """Closure systems on up to four points (every lattice on up to
    five elements is one), relabelled at random."""
    k = draw(st.integers(1, 4))
    full = (1 << k) - 1
    family = {full} | set(draw(st.lists(st.integers(0, full), max_size=6)))
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    L = FiniteLattice.of_sets(sorted(family))
    return FiniteLattice(permute(L.up, draw(st.permutations(range(L.n)))))


def decider_outcome(name, L):
    rep = properties.LATTICE_CHECKS[name](L)
    return rep.witness if not rep else None


def assert_same_on(L):
    case = LatticeCase(L)
    for sid, (check, reference) in LATTICE_SIDE.items():
        assert check(case) == reference(case), sid
    for name, reference in DECIDERS.items():
        assert decider_outcome(name, L) == reference(L), name
    assert ld.find_n5_sublattices(L) == oracles.find_n5_sublattices(L)
    assert ld.dual_digraph(L).rows == oracles.dual_digraph_rows(L)
    assert ld.mdfips_bruteforce(L) == oracles.mdfips_bruteforce(L)


def test_checks_match_their_earlier_bodies_on_the_catalog(catalog7):
    for L in catalog7.entries:
        assert_same_on(L)
        assert theorems._thm_2_6_lattice(LatticeCase(L)) == (ld.roundtrip_lattice(L), None)


def test_digraph_side_checks_match_their_earlier_bodies(tirs4):
    for G in tirs4:
        case = DigraphCase(G)
        assert theorems._thm_2_6_digraph(case) == oracles.thm_2_6_digraph(case)
        assert theorems._thm_2_6_digraph(case) == (ld.roundtrip_digraph(G), None)
        assert theorems._ploscica(map_masks(G)) == oracles.ploscica(ld.mpe_enumerate(G))


@settings(max_examples=150, deadline=None)
@given(lattices())
def test_checks_match_their_earlier_bodies_on_random_lattices(L):
    assert_same_on(L)


def assert_dual_is_rebuilt(L):
    """order_dual swaps the rows of L; the validating constructor on the
    down rows must give the same lattice, and every law the same report."""
    for M in (L, FiniteLattice(L.up, [f"e{x}" for x in range(L.n)])):
        D, R = ld.order_dual(M), FiniteLattice(M.down, M.labels)
        assert (D.n, D.up, D.down, D.labels) == (R.n, R.up, R.down, R.labels)
        assert (D._upper, D._lower, D._irreducibles) == (R._upper, R._lower, R._irreducibles)
    for name, decide in properties.LATTICE_CHECKS.items():
        assert decide(ld.order_dual(L)) == decide(FiniteLattice(L.down)), name


def test_order_dual_is_the_rebuilt_dual_on_the_catalog(catalog7):
    for L in catalog7.entries:
        assert_dual_is_rebuilt(L)


@settings(max_examples=150, deadline=None)
@given(lattices())
def test_order_dual_is_the_rebuilt_dual_on_random_lattices(L):
    assert_dual_is_rebuilt(L)


# -- fault injection ------------------------------------------------------


def fresh(L):
    # a copy of L whose caches can be corrupted without touching L
    return FiniteLattice(L.up)


def agree(case, failed, names=None):
    """Run the named checks or deciders (by default every key of failed)
    and their earlier bodies on case, and count the failures in failed."""
    for name in names or failed:
        if name in LATTICE_SIDE:
            check, reference = LATTICE_SIDE[name]
            got = check(case)
            assert got == reference(case), name
            failed[name] += not got[0]
        else:
            got = decider_outcome(name, case.lattice)
            assert got == DECIDERS[name](case.lattice), name
            failed[name] += got is not None


def corrupt_digraph(L, x, y):
    case = LatticeCase(L)
    G = case.digraph
    rows = list(G.rows)
    rows[x] ^= 1 << y
    case.digraph = Digraph(rows, mdfips=G.mdfips)
    return case


def test_checks_agree_on_corrupted_dual_digraphs(catalog6):
    failed = dict.fromkeys(("LEM_2_3", "LEM_5_1", "THM_2_6"), 0)
    for L in catalog6.entries:
        v = ld.dual_digraph(L).v
        for x in range(v):
            for y in range(v):
                if x != y:
                    agree(corrupt_digraph(L, x, y), failed)
    assert all(failed.values()), failed


def test_checks_agree_on_corrupted_pair_lists(catalog7):
    failed = dict.fromkeys(("PROP_2_2", "THM_3_2", "LEM_2_3", "LEM_5_1"), 0)
    for L in catalog7.entries:
        for i in range(len(ld.mdfips(L))):
            case = LatticeCase(L)
            pairs = case.pairs_by_definition
            case.pairs_by_definition = pairs[:i] + pairs[i + 1 :]
            agree(case, failed, ("PROP_2_2", "THM_3_2"))
            # the true dual digraph, then one pair fewer both on the case
            # and in the lattice's cache, which maximal_extensions reads
            case = LatticeCase(fresh(L))
            case.digraph
            case.pairs = case.pairs[:i] + case.pairs[i + 1 :]
            case.lattice._mdfips = tuple(case.pairs)
            agree(case, failed, ("LEM_2_3", "LEM_5_1"))
        # a pair whose generators are the top and the bottom
        case = LatticeCase(L)
        case.pairs_by_definition = case.pairs_by_definition + [(L.top, L.bottom)]
        agree(case, failed, ("PROP_2_2", "THM_3_2"))
    assert all(failed.values()), failed


def test_prop_3_7_names_what_a_dropped_pair_leaves_unmatched(catalog7):
    reasons = set()
    for L in catalog7.entries:
        for i in range(len(ld.mdfips(L))):
            case = LatticeCase(L)
            case.pairs = case.pairs[:i] + case.pairs[i + 1 :]
            got = theorems._prop_3_7(case)
            assert got == oracles.prop_3_7(case)
            reasons.update(got[1] or ())
    assert reasons == {"unmatched_join_irreducible", "unmatched_meet_irreducible"}


def with_pair(L, pair):
    # a case of L with one more pair, in sorted place, and the digraph on
    # its pairs by the arc rule: (a, b) -> (c, d) iff a is not below d
    case = LatticeCase(L)
    pairs = sorted(case.pairs + [pair])
    rows = [mask(j for j, (_, d) in enumerate(pairs) if not L.leq(a, d)) for a, _ in pairs]
    case.pairs, case.digraph = pairs, Digraph(rows, mdfips=pairs)
    return case


def test_lem_5_1_finds_a_pair_that_extends_two_of_a_pentagons_pairs(catalog7):
    """A pentagon (z, a, b, c, o) has z below a, b and c and o above
    them, so (z, o) extends all of (a, c), (c, b) and (b, a). No true
    MDFIP extends two of them, and (z, o) itself is not disjoint; added
    to the pairs, it repeats in a triple."""
    N5 = ld.fixture("N5")
    assert theorems._lem_5_1(with_pair(N5, (0, 4))) == (False, {
        "pentagon": [0, 1, 3, 2, 4],
        "triple": [[0, 4], [0, 4], [0, 4]],
        "reason": "not distinct",
    })
    found = 0
    for L in catalog7.entries:
        for z, *_, o in ld.find_n5_sublattices(L)[:1]:
            case = with_pair(L, (z, o))
            got = theorems._lem_5_1(case)
            assert got == oracles.lem_5_1(case)
            found += got[1].get("reason") == "not distinct"
    assert found > 1


def test_thm_4_13_names_each_fault_of_the_geometry(monkeypatch):
    """B2 is meet distributive, so THM_4_13 reads its convex geometry;
    each substitute geometry fails one of the three tests, in order."""
    B2 = ld.fixture("B2")
    assert theorems._thm_4_13(LatticeCase(B2)) == (True, None)
    for closed, fault in (
        ([0b01, 0b11], {"reason": "empty set not closed"}),
        ([0b00, 0b11], {"reason": "anti-exchange fails", "witness": [(), 0, 1]}),
        # a four-element chain: a convex geometry, but not of B2
        ([0b000, 0b001, 0b011, 0b111], {"reason": "closed-set lattice not isomorphic"}),
    ):
        C = ClosureSystem(max(closed).bit_length(), closed)
        monkeypatch.setattr(theorems, "lattice_to_convex_geometry", lambda L, C=C: C)
        assert theorems._thm_4_13(LatticeCase(B2)) == (False, fault)


def test_checks_agree_on_altered_maps(catalog6, tirs4):
    failed = 0
    digraphs = [ld.dual_digraph(L) for L in catalog6.entries] + list(tirs4)
    for G in digraphs:
        masks = map_masks(G)
        for i, (ones, zeros) in enumerate(masks):
            # one vertex fewer in the zero-set, or in the one-set
            for altered in ((ones, zeros & (zeros - 1)), (ones & (ones - 1), zeros)):
                changed = masks[:i] + [altered] + masks[i + 1 :]
                got = theorems._ploscica(changed)
                assert got == oracles.ploscica(as_maps(changed))
                failed += not got[0]
    assert failed


IRREDUCIBLE_READERS = ("PROP_2_2", "LEM_3_1", "THM_3_2", "LEM_3_4", "LEM_3_5")


def test_checks_agree_on_corrupted_irreducibles(catalog6):
    failed = dict.fromkeys(IRREDUCIBLE_READERS + tuple(DECIDERS), 0)
    for L in catalog6.entries:
        ji, mi = ld.join_irreducibles(L), ld.meet_irreducibles(L)
        variants = [(ji[:i] + ji[i + 1 :], mi) for i in range(len(ji))]
        variants += [(ji, mi[:i] + mi[i + 1 :]) for i in range(len(mi))]
        variants += [(ji, tuple(sorted(mi + (x,)))) for x in range(L.n) if x not in mi]
        variants += [(tuple(sorted(ji + (x,))), mi) for x in range(L.n) if x not in ji]
        for irreducibles in variants:
            K = fresh(L)
            K._irreducibles = irreducibles
            agree(LatticeCase(K), failed)
    assert all(failed.values()), failed


def test_checks_agree_on_corrupted_tables(catalog6):
    """Swap the elements of two rows in the index that maps down rows to
    meets, or up rows to joins; wjsd and LEM_5_1 read one or both.
    THM_3_2, LEM_3_4, LEM_3_5, jmlsm and jmusm read no meet or join, and
    the corrupted irreducibles above drive their failures."""
    failed = {"wjsd": 0, "LEM_5_1": 0}
    rnd = random.Random(0)
    for L in catalog6.entries:
        if L.n < 2:
            continue
        for index, rows in (("_down_index", L.down), ("_up_index", L.up)) * 6:
            K = fresh(L)
            table = dict(getattr(K, index))
            x, y = rnd.sample(range(L.n), 2)
            table[rows[x]], table[rows[y]] = y, x
            setattr(K, index, table)
            agree(LatticeCase(K), failed)
    # a swap seldom makes a pentagon whose extensions break LEM_5_1; the
    # corrupted digraphs and pair lists above make it fail
    assert failed["wjsd"], failed


def test_deciders_agree_on_corrupted_mdfips(catalog6):
    failed = {"labc": 0, "uabc": 0}
    for L in catalog6.entries:
        pairs = ld.mdfips(L)
        for i in range(len(pairs)):
            K = fresh(L)
            K._mdfips = tuple(pairs[:i] + pairs[i + 1 :])
            agree(LatticeCase(K), failed)
    assert all(failed.values()), failed
