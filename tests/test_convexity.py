import itertools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import latdual as ld
from latdual.convexity import (
    ClosureSystem,
    cld_lattice,
    closure_from_json,
    closure_of,
    closure_to_json,
    is_zero_closure,
    lattice_to_convex_geometry,
    satisfies_aep,
)
from latdual._bits import bits
from oracles import assert_no_square_table


def powerset_system(k):
    return ClosureSystem(k, list(range(1 << k)))


def interval_system(k):
    """Subintervals of k collinear points."""
    sets = [[]] + [list(range(i, j)) for i in range(k) for j in range(i + 1, k + 1)]
    return ClosureSystem.from_sets(k, sets)


def test_construction_sorts_and_dedups():
    C = ClosureSystem(2, [0b11, 0b01, 0b00, 0b01])
    assert C.closed == (0b00, 0b01, 0b11)


def test_construction_rejects_bad_families():
    with pytest.raises(ValueError):
        ClosureSystem(2, [0b01])  # ground set missing
    with pytest.raises(ValueError):
        ClosureSystem.from_sets(3, [[0, 1], [1, 2], [0, 1, 2]])  # {1} missing
    with pytest.raises(ValueError):
        ClosureSystem(2, [0b100, 0b11])  # element outside the ground set


@pytest.mark.parametrize(
    "ground, closed, error, message",
    [
        (2.7, [3], TypeError, "ground size must be an int, not 2.7"),
        (True, [1], TypeError, "ground size must be an int, not True"),
        ("2", [3], TypeError, "ground size must be an int, not '2'"),
        (-1, [0], ValueError, "ground size must be nonnegative"),
        (2, [3, 1.9], TypeError, "closed set mask must be an int, not 1.9"),
        (2, [3, True], TypeError, "closed set mask must be an int, not True"),
        (2, [3, 1, True], TypeError, "closed set mask must be an int, not True"),
        (2, [3, "1"], TypeError, "closed set mask must be an int, not '1'"),
        (2, [-1, 3], ValueError, "closed set mask -1 is negative"),
        (2, [3, -4], ValueError, "closed set mask -4 is negative"),
    ],
    ids=[
        "ground-float", "ground-bool", "ground-string", "ground-negative", "mask-float",
        "mask-bool", "mask-bool-beside-its-int", "mask-string", "mask-minus-one", "mask-negative",
    ],
)
def test_construction_rejects_masks_that_are_not_nonnegative_ints(ground, closed, error, message):
    with pytest.raises(error) as info:
        ClosureSystem(ground, closed)
    assert type(info.value) is error and str(info.value) == message


def test_closure_operator():
    I = interval_system(3)
    assert closure_of(I, [0, 2]) == {0, 1, 2}
    assert closure_of(I, [1]) == {1}
    assert closure_of(I, []) == set()
    assert I.is_closed_mask(0b011) and not I.is_closed_mask(0b101)
    with pytest.raises(ValueError):
        closure_of(I, [3])


def test_closure_operator_laws():
    for C in (powerset_system(3), interval_system(4)):
        full = (1 << C.ground) - 1
        for m in range(full + 1):
            cm = C.close_mask(m)
            assert m & ~cm == 0
            assert C.close_mask(cm) == cm
            assert C.is_closed_mask(cm)
            for m2 in range(m, full + 1):
                if m & ~m2 == 0:
                    assert cm & ~C.close_mask(m2) == 0


def test_zero_closure_flag():
    assert is_zero_closure(powerset_system(2))
    C = ClosureSystem.from_sets(2, [[1], [0, 1]])
    assert not is_zero_closure(C)


def test_anti_exchange_examples():
    assert satisfies_aep(powerset_system(3))
    assert satisfies_aep(interval_system(4))
    # three mutually indistinguishable points: closing past one atom grabs
    # everything, so exchange happens
    D = ClosureSystem.from_sets(3, [[], [0], [1], [2], [0, 1, 2]])
    r = satisfies_aep(D)
    assert not r
    assert r.witness == ((0,), 1, 2)
    assert r.property == "aep" and satisfies_aep(powerset_system(3)).witness is None
    A, x, y = r.witness
    base = sum(1 << i for i in A)
    assert D.close_mask(base | 1 << y) >> x & 1
    assert D.close_mask(base | 1 << x) >> y & 1


def first_exchange(C):
    """The anti-exchange definition pair by pair: the first closed A, then
    x and y outside it, in increasing order, with x in close(A + y) and
    y in close(A + x); None if there is none."""
    for a in C.closed:
        A = list(bits(a))
        outside = [i for i in range(C.ground) if not a >> i & 1]
        for x in outside:
            for y in outside:
                if x != y and x in closure_of(C, A + [y]) and y in closure_of(C, A + [x]):
                    return tuple(A), x, y
    return None


def small_closure_systems(k):
    """Every intersection-closed family on k points with the full set."""
    full = (1 << k) - 1
    for picks in itertools.product([False, True], repeat=full + 1):
        fam = [s for s, p in enumerate(picks) if p]
        famset = set(fam)
        if full in famset and all(a & b in famset for a in fam for b in fam):
            yield ClosureSystem(k, fam)


def test_anti_exchange_closes_each_extension_once(monkeypatch):
    """One closure per closed set A and point outside it, and the first
    witness of the definition's pair-by-pair scan."""
    calls = []
    close_mask = ClosureSystem.close_mask

    def counting(self, m):
        calls.append(m)
        return close_mask(self, m)

    monkeypatch.setattr(ClosureSystem, "close_mask", counting)
    for k, expect in ((6, 192), (8, 1024), (10, 5120)):
        calls.clear()
        assert satisfies_aep(powerset_system(k))
        assert len(calls) == expect == k << (k - 1)
    monkeypatch.undo()
    D = ClosureSystem.from_sets(3, [[], [0], [1], [2], [0, 1, 2]])
    systems = [D] + [C for k in range(4) for C in small_closure_systems(k)]
    failing = 0
    for C in systems:
        r = satisfies_aep(C)
        assert r.witness == first_exchange(C), closure_to_json(C)
        failing += not r
    assert failing == 28


def test_closed_set_lattice_shapes():
    ok, _ = ld.lattice_isomorphic(cld_lattice(powerset_system(2)), ld.fixture("B2"))
    assert ok
    ok, _ = ld.lattice_isomorphic(cld_lattice(interval_system(3)), ld.fixture("L4D"))
    assert ok
    assert cld_lattice(interval_system(3)).labels == (
        "{}", "{0}", "{1}", "{2}", "{0,1}", "{1,2}", "{0,1,2}",
    )


def test_geometry_of_a_chain():
    C = lattice_to_convex_geometry(ld.fixture("CHAIN(3)"))
    assert closure_to_json(C) == {"ground": 2, "closed": [[], [0], [0, 1]]}


def test_geometry_of_boolean_lattice():
    C = lattice_to_convex_geometry(ld.fixture("B2"))
    assert C == powerset_system(2)


def test_geometry_of_interval_lattice():
    C = lattice_to_convex_geometry(ld.fixture("L4D"))
    assert C == interval_system(3)
    assert is_zero_closure(C) and satisfies_aep(C)
    ok, _ = ld.lattice_isomorphic(cld_lattice(C), ld.fixture("L4D"))
    assert ok


def test_rejects_non_locally_distributive_lattices():
    with pytest.raises(ld.NotMeetDistributive, match="element 4"):
        lattice_to_convex_geometry(ld.fixture("N5"))
    with pytest.raises(ld.NotMeetDistributive, match="element 4"):
        lattice_to_convex_geometry(ld.fixture("M3"))


def test_meet_distributivity_is_decided_once_per_lattice(monkeypatch, convex95):
    """The decider's verdict is kept on the lattice: the convex geometry
    reads it after the property check, and a new lattice decides again."""
    import latdual.properties as props

    calls = []
    decide = props._meet_distributive
    monkeypatch.setattr(props, "_meet_distributive", lambda L: calls.append(L) or decide(L))
    # a copy: the session's convex95 may have been decided already
    for L in (ld.fixture("L4D"), ld.fixture("L4D"), ld.FiniteLattice(convex95.up)):
        assert ld.check_lattice_property("md", L)
        assert closure_to_json(lattice_to_convex_geometry(L))
        assert calls[-1] is L
    assert len(calls) == 3
    for name in ("N5", "M3"):
        L = ld.fixture(name)
        assert ld.check_lattice_property("md", L).witness == (4,)
        with pytest.raises(ld.NotMeetDistributive, match="element 4 "):
            lattice_to_convex_geometry(L)
        assert calls[-1] is L
    assert len(calls) == 5


def test_every_small_geometry_yields_locally_distributive_lattice():
    # full scan of intersection closed families on up to 3 points
    for k in range(4):
        for C in small_closure_systems(k):
            if not (is_zero_closure(C) and satisfies_aep(C)):
                continue
            L = cld_lattice(C)
            assert ld.check_lattice_property("md", L), closure_to_json(C)


def test_sampled_geometries_on_four_points():
    rng = random.Random(4021)
    for _ in range(300):
        gens = [rng.randrange(16) for _ in range(rng.randrange(1, 6))]
        fam = {15, 0}
        for g in gens:
            fam.add(g)
        # close under intersection
        while True:
            extra = {a & b for a in fam for b in fam} - fam
            if not extra:
                break
            fam |= extra
        C = ClosureSystem(4, fam)
        if satisfies_aep(C):
            assert ld.check_lattice_property("md", cld_lattice(C))


def test_geometry_roundtrip_for_all_small_targets(catalog6):
    for L in catalog6.entries:
        if not ld.check_lattice_property("md", L):
            continue
        C = lattice_to_convex_geometry(L)
        assert is_zero_closure(C)
        assert satisfies_aep(C)
        ok, _ = ld.lattice_isomorphic(cld_lattice(C), L)
        assert ok


def test_geometry_is_the_join_irreducibles_below_each_element(catalog7, convex95):
    lattices = [L for L in catalog7.entries if ld.check_lattice_property("md", L)]
    for L in lattices + [convex95]:
        L = ld.FiniteLattice(L.up)
        ji = ld.join_irreducibles(L)
        C = lattice_to_convex_geometry(L)
        assert_no_square_table(L)
        expected = {
            sum(1 << i for i, j in enumerate(ji) if L.leq(j, x)) for x in range(L.n)
        }
        assert C == ClosureSystem(len(ji), expected)
        assert len(C.closed) == L.n
    assert len(lattices) == 22  # meet-distributive classes with n <= 7


@pytest.mark.parametrize(
    "obj, message",
    [
        ([2, [[0, 1]]], "needs keys"),
        ({"ground": 2, "closed": 5}, '"closed" must be a list'),
        ({"ground": 2, "closed": [[0, "1"]]}, '"closed" must be a list'),
        ({"ground": 2, "closed": [[-1]]}, '"closed" must be a list'),
        ({"ground": 2, "closed": [0, [0, 1]]}, '"closed" must be a list'),
        ({"ground": 2.7, "closed": [[0, 1]]}, '"ground" must be'),
        ({"ground": True, "closed": [[0]]}, '"ground" must be'),
        ({"ground": "2", "closed": [[0, 1]]}, '"ground" must be'),
        ({"ground": -1, "closed": [[]]}, '"ground" must be'),
        ({"ground": 2, "closed": [[0, 2]]}, "leaves the ground set"),
    ],
    ids=[
        "not-an-object", "closed-int", "string-point", "negative-point",
        "set-not-a-list", "ground-float", "ground-bool", "ground-string", "ground-negative",
        "point-outside",
    ],
)
def test_closure_json_rejects_malformed_shapes(obj, message):
    with pytest.raises(ValueError, match=message):
        closure_from_json(obj)


def refusal_within_400_mb(call):
    """The ValueError message of ``call``, a latdual.convexity call as
    source text, run in a fresh process within 400 MB of address space."""
    code = (
        "from latdual.convexity import *\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    limit = 400_000 * 1024
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(ld.__file__).resolve().parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_a_far_point_is_refused_before_its_mask_is_built():
    """A point at 10**10 would need a mask of 10**10 bits, over a GB: run
    in a fresh process within 400 MB of address space, the range check
    must refuse it first."""
    got = refusal_within_400_mb("closure_from_json({'ground': 3, 'closed': [[0, 1, 2], [10**10]]})")
    assert got == "closed set [10000000000] leaves the ground set\n"


def test_a_far_closure_argument_is_refused_before_its_mask_is_built():
    C = "ClosureSystem.from_sets(3, [[0, 1, 2], [0]])"
    got = refusal_within_400_mb(f"closure_of({C}, [10**10])")
    assert got == "closure argument leaves the ground set\n"


def test_negative_points_leave_the_ground_set():
    # without the range check first, the mask of -1 is a bare negative shift
    with pytest.raises(ValueError, match=r"^closure argument leaves the ground set$"):
        closure_of(interval_system(3), [-1])
    with pytest.raises(ValueError, match=r"^closed set \[-1\] leaves the ground set$"):
        ClosureSystem.from_sets(3, [[-1], [0, 1, 2]])


def test_json_roundtrip():
    for C in (powerset_system(3), interval_system(4),
              lattice_to_convex_geometry(ld.fixture("L4D"))):
        assert closure_from_json(closure_to_json(C)) == C
    with pytest.raises(ValueError):
        closure_from_json({"ground": 2})
