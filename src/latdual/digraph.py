"""Finite digraphs with vertex set 0..v-1, kept as out-neighbour bitmasks.

The interesting digraphs here are reflexive. Axiom checkers scan in
lexicographic vertex order and report the first witness they meet, so
failures are reproducible. ``out_set``/``in_set`` give the neighbourhood
sets that the separation and interpolation axioms quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _canon
from ._bits import bits, json_pairs, transpose
from .errors import NotReflexive


@dataclass(frozen=True)
class PropertyReport:
    """The verdict of a decider on one named property: truthy iff it
    holds, and otherwise carrying the first failing witness."""

    property: str
    holds: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.holds


class Digraph:
    """Immutable digraph; ``rows[x]`` has bit y set iff there is an arc x -> y.

    ``mdfips`` and ``names`` are optional per-vertex annotations carried
    along by the duality constructions; they never affect equality.
    """

    def __init__(self, rows, mdfips=None, names=None):
        self.rows = tuple(rows)
        self.v = len(self.rows)
        full = (1 << self.v) - 1
        for x, r in enumerate(self.rows):
            if r & ~full:
                raise ValueError(f"vertex {x} has arcs outside 0..{self.v - 1}")
        self.mdfips = tuple(tuple(p) for p in mdfips) if mdfips else None
        self.names = tuple(names) if names else None

    @classmethod
    def from_arcs(cls, v, arcs, mdfips=None, names=None):
        rows = [0] * v
        for x, y in arcs:
            if not (0 <= x < v and 0 <= y < v):
                raise ValueError(f"arc ({x}, {y}) is out of range")
            rows[x] |= 1 << y
        return cls(rows, mdfips, names)

    @cached_property
    def cols(self):
        return transpose(self.rows)

    def has_arc(self, x, y):
        return bool(self.rows[x] >> y & 1)

    @cached_property
    def arcs(self):
        return tuple((x, y) for x in range(self.v) for y in bits(self.rows[x]))

    def reverse(self):
        return Digraph(self.cols, self.mdfips, self.names)

    def name_of(self, x):
        return self.names[x] if self.names else str(x)

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        nonloop = [(x, y) for x, y in self.arcs if x != y]
        return f"Digraph(v={self.v}, arcs={nonloop})"


def out_set(G, x):
    return frozenset(bits(G.rows[x]))


def in_set(G, x):
    return frozenset(bits(G.cols[x]))


def _require_reflexive(G):
    for x in range(G.v):
        if not G.rows[x] >> x & 1:
            raise NotReflexive(f"vertex {x} has no loop")


def _separation_witness(G):
    """Distinct vertices differ in out-set or in-set."""
    rows, cols = G.rows, G.cols
    for x in range(G.v):
        for y in range(x + 1, G.v):
            if rows[x] == rows[y] and cols[x] == cols[y]:
                return (x, y)
    return None


def _reduction_witness(G):
    """A strict out-set inclusion x -> y, or a strict in-set inclusion
    y -> x, forbids the arc (x, y)."""
    rows, cols = G.rows, G.cols
    for x in range(G.v):
        for y in bits(rows[x] & ~(1 << x)):
            if rows[x] != rows[y] and rows[x] & ~rows[y] == 0:
                return (x, y)
            if cols[y] != cols[x] and cols[y] & ~cols[x] == 0:
                return (x, y)
    return None


def _interpolation_witness(G):
    """Every arc (x, y) admits z with out(z) a subset of out(x) and in(z)
    a subset of in(y)."""
    rows, cols = G.rows, G.cols
    for x in range(G.v):
        for y in bits(rows[x]):
            if not any(
                rows[z] & ~rows[x] == 0 and cols[z] & ~cols[y] == 0
                for z in range(G.v)
            ):
                return (x, y)
    return None


def check_tirs(G):
    """Check separation, reduction and interpolation, in that order.

    A failure stops the check; its witness is (axiom, pair) with axiom
    one of "s", "r", "ti".
    """
    _require_reflexive(G)
    for axiom, find in (
        ("s", _separation_witness),
        ("r", _reduction_witness),
        ("ti", _interpolation_witness),
    ):
        w = find(G)
        if w is not None:
            return PropertyReport("tirs", False, (axiom, w))
    return PropertyReport("tirs", True)


def check_lti(G):
    """Every arc (u, v) admits w with out(w) = out(u) and in(w) inside in(v)."""
    rows, cols = G.rows, G.cols
    for u in range(G.v):
        for v_ in bits(rows[u]):
            if not any(
                rows[w] == rows[u] and cols[w] & ~cols[v_] == 0
                for w in range(G.v)
            ):
                return PropertyReport("lti", False, (u, v_))
    return PropertyReport("lti", True)


def check_uti(G):
    """Every arc (u, v) admits w with out(w) inside out(u) and in(w) = in(v)."""
    rows, cols = G.rows, G.cols
    for u in range(G.v):
        for v_ in bits(rows[u]):
            if not any(
                rows[w] & ~rows[u] == 0 and cols[w] == cols[v_]
                for w in range(G.v)
            ):
                return PropertyReport("uti", False, (u, v_))
    return PropertyReport("uti", True)


def check_djsd(G):
    """Distinct vertices have distinct in-sets."""
    for x in range(G.v):
        for y in range(x + 1, G.v):
            if G.cols[x] == G.cols[y]:
                return PropertyReport("djsd", False, (x, y))
    return PropertyReport("djsd", True)


def check_dmsd(G):
    """Distinct vertices have distinct out-sets."""
    for x in range(G.v):
        for y in range(x + 1, G.v):
            if G.rows[x] == G.rows[y]:
                return PropertyReport("dmsd", False, (x, y))
    return PropertyReport("dmsd", True)


def check_dsd(G):
    r = check_djsd(G)
    if r:
        r = check_dmsd(G)
    return PropertyReport("dsd", r.holds, r.witness)


def is_transitive(G):
    rows = G.rows
    for x in range(G.v):
        for y in bits(rows[x]):
            extra = rows[y] & ~rows[x]
            if extra:
                return PropertyReport("trans", False, (x, y, next(bits(extra))))
    return PropertyReport("trans", True)


def is_poset(G):
    """Reflexive, transitive and antisymmetric."""
    for x in range(G.v):
        if not G.rows[x] >> x & 1:
            return PropertyReport("poset", False, (x,))
    for x in range(G.v):
        for y in range(x + 1, G.v):
            if G.rows[x] >> y & 1 and G.rows[y] >> x & 1:
                return PropertyReport("poset", False, (x, y))
    r = is_transitive(G)
    return PropertyReport("poset", r.holds, r.witness)


@dataclass(frozen=True)
class ForbiddenPattern:
    """A three-vertex pattern given by its non-loop arcs on x, y, z = 0, 1, 2."""

    id: str
    arcs: tuple


G0 = ForbiddenPattern("G0", ((0, 1), (1, 2)))
G1 = ForbiddenPattern("G1", ((0, 1),))
G2 = ForbiddenPattern("G2", ())


def _classify_triple(G, x, y, z):
    # non-loop arcs inside the triple, as ordered pairs
    arcs = [
        (p, q)
        for p in (x, y, z)
        for q in (x, y, z)
        if p != q and G.has_arc(p, q)
    ]
    if not arcs:
        return "G2"
    if len(arcs) == 1:
        return "G1"
    if len(arcs) == 2:
        (a1, b1), (a2, b2) = arcs
        if b1 == a2 and a1 != b2:
            return "G0"
        if b2 == a1 and a2 != b1:
            return "G0"
    return None


def find_induced(G, pattern):
    """All vertex triples inducing the pattern, sorted, as (x, y, z) with x < y < z."""
    want = pattern.id if isinstance(pattern, ForbiddenPattern) else str(pattern)
    out = []
    for x in range(G.v):
        for y in range(x + 1, G.v):
            for z in range(y + 1, G.v):
                if _classify_triple(G, x, y, z) == want:
                    out.append((x, y, z))
    return out


def check_fis(G):
    """No induced two-arc path triple and no induced single-arc triple."""
    for x in range(G.v):
        for y in range(x + 1, G.v):
            for z in range(y + 1, G.v):
                kind = _classify_triple(G, x, y, z)
                if kind in ("G0", "G1"):
                    return PropertyReport("fis", False, (kind, (x, y, z)))
    return PropertyReport("fis", True)


def check_wt0(G):
    """Arcs x->y->z with no back-arcs force an arc between x and z."""
    rows = G.rows
    for x in range(G.v):
        for y in range(G.v):
            if not rows[x] >> y & 1 or rows[y] >> x & 1:
                continue
            for z in range(G.v):
                if not rows[y] >> z & 1 or rows[z] >> y & 1:
                    continue
                if not rows[x] >> z & 1 and not rows[z] >> x & 1:
                    return PropertyReport("wt0", False, (x, y, z))
    return PropertyReport("wt0", True)


def check_wt1(G):
    """An arc x->y with y otherwise isolated from z forces an arc between x and z."""
    rows = G.rows
    for x in range(G.v):
        for y in range(G.v):
            if not rows[x] >> y & 1 or rows[y] >> x & 1 or x == y:
                continue
            for z in range(G.v):
                if rows[y] >> z & 1 or rows[z] >> y & 1:
                    continue
                if not rows[x] >> z & 1 and not rows[z] >> x & 1:
                    return PropertyReport("wt1", False, (x, y, z))
    return PropertyReport("wt1", True)


def digraph_isomorphic(G1, G2):
    """Arc-preserving bijection test; returns (ok, mapping or None)."""
    if G1.v != G2.v:
        return False, None
    m = _canon.isomorphism(G1.rows, (0,) * G1.v, G2.rows, (0,) * G2.v)
    return (m is not None), m


def digraph_canonical_key(G):
    return _canon.canonical_form(G.rows, (0,) * G.v)[0]


def digraph_to_json(G):
    """Plain-dict form; loops are always written out."""
    obj = {"v": G.v, "arcs": [list(a) for a in G.arcs]}
    if G.mdfips:
        obj["mdfips"] = [list(p) for p in G.mdfips]
    return obj


def digraph_from_json(obj):
    """Parse a digraph; missing loops are added.

    Returns (digraph, added_loops) where the flag records whether any loop
    had to be supplied.
    """
    if not isinstance(obj, dict) or "v" not in obj or "arcs" not in obj:
        raise ValueError('digraph JSON needs keys "v" and "arcs"')
    v = obj["v"]
    if type(v) is not int or v < 0:
        raise ValueError(f'"v" must be a non-negative integer, not {v!r}')
    rows = [0] * v
    for x, y in json_pairs(obj["arcs"], "arcs"):
        if not (0 <= x < v and 0 <= y < v):
            raise ValueError(f"arc ({x}, {y}) is out of range")
        rows[x] |= 1 << y
    added = any(not rows[x] >> x & 1 for x in range(v))
    for x in range(v):
        rows[x] |= 1 << x
    mdfips = None
    names = None
    if obj.get("mdfips"):
        mdfips = json_pairs(obj["mdfips"], "mdfips")
        if len(mdfips) != v:
            raise ValueError("mdfips annotation length does not match v")
        names = tuple(f"{a}{b}" if a < 10 and b < 10 else f"{a},{b}" for a, b in mdfips)
    return Digraph(rows, mdfips, names), added


def digraph_to_dot(G):
    """DOT rendering: loops hidden, opposite arc pairs drawn once with dir=both."""
    lines = ["digraph {"]
    for x in range(G.v):
        lines.append(f'  n{x} [label="{G.name_of(x)}"];')
    for x in range(G.v):
        for y in bits(G.rows[x]):
            if y == x:
                continue
            if G.has_arc(y, x):
                if x < y:
                    lines.append(f"  n{x} -> n{y} [dir=both];")
            else:
                lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
