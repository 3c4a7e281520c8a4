"""Named example lattices used by tests and docs.

Labels are single letters with 0 and 1 for bottom and top, so MDFIP
vertices of the dual digraphs get two-letter names like "ab".
"""

from __future__ import annotations

from .lattice import from_covers


def chain(k):
    """The k-element chain 0 < 1 < ... < k-1."""
    return from_covers(k, [(i, i + 1) for i in range(k - 1)])


def pentagon():
    """Smallest non-modular lattice: atoms a and c, with c < b < top."""
    return from_covers(
        5,
        [(0, 1), (0, 3), (3, 2), (1, 4), (2, 4)],
        labels=("0", "a", "b", "c", "1"),
    )


def diamond():
    """Three atoms below a common top: modular, not distributive."""
    return from_covers(
        5,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
        labels=("0", "a", "b", "c", "1"),
    )


def boolean2():
    """Four-element Boolean lattice."""
    return from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def usm_not_lsm_lattice():
    """Seven elements, upper semimodular but not lower semimodular.

    Atoms d, e; middle layer a > d, b > d, b > e, c > e; common top.
    """
    return from_covers(
        7,
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)],
        labels=("0", "d", "e", "a", "b", "c", "1"),
    )


def lsm_not_usm_lattice():
    """Order dual of usm_not_lsm_lattice, relabelled bottom-up."""
    return from_covers(
        7,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 6), (5, 6)],
        labels=("0", "c", "d", "e", "a", "b", "1"),
    )


def jmlsm_not_lsm_lattice():
    """Six elements: atoms a, b, c; d = a|b; top = d|c.

    Lower semimodularity fails at (c, d), but it holds whenever the
    quantifiers are restricted to join and meet irreducible pairs.
    """
    return from_covers(
        6,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (4, 5), (3, 5)],
        labels=("0", "a", "b", "c", "d", "1"),
    )


def modular_non_fis_lattice():
    """Seven-element modular lattice whose dual digraph contains an
    induced two-arc path triple, so the forbidden-pattern test fails
    even though the lattice is modular."""
    return from_covers(
        7,
        [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)],
        labels=("0", "d", "e", "a", "b", "c", "1"),
    )


def m_k(k):
    """Bottom, k pairwise incomparable atoms, top."""
    covers = [(0, i) for i in range(1, k + 1)]
    covers += [(i, k + 1) for i in range(1, k + 1)]
    return from_covers(k + 2, covers)


_BUILDERS = {
    "N5": pentagon,
    "M3": diamond,
    "B2": boolean2,
    "L4": usm_not_lsm_lattice,
    "L4D": lsm_not_usm_lattice,
    "L3D": jmlsm_not_lsm_lattice,
    "K": modular_non_fis_lattice,
}


def fixture(name):
    """Look up a fixture by short name; CHAIN(k) builds a k-chain."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name.startswith("CHAIN(") and name.endswith(")"):
        return chain(int(name[6:-1]))
    raise KeyError(f"unknown fixture {name!r}")


def fixture_names():
    return tuple(_BUILDERS)
