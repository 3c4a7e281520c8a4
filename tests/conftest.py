import pytest

from latdual import enumerate_lattices, enumerate_tirs_digraphs
from latdual.convexity import ClosureSystem, cld_lattice
from oracles import convex_sets


@pytest.fixture(scope="session")
def catalog5():
    return enumerate_lattices(5)


@pytest.fixture(scope="session")
def catalog6():
    return enumerate_lattices(6)


@pytest.fixture(scope="session")
def catalog7():
    return enumerate_lattices(7)


@pytest.fixture(scope="session")
def tirs4():
    return enumerate_tirs_digraphs(4)


@pytest.fixture(scope="session")
def tirs5():
    return enumerate_tirs_digraphs(5)


@pytest.fixture(scope="session")
def convex95():
    """The 95-element lattice of convex sets of seven planar points."""
    points = [(456, 272), (738, 821), (234, 605), (967, 104), (923, 325), (31, 22), (26, 665)]
    return cld_lattice(ClosureSystem(len(points), convex_sets(points)))
