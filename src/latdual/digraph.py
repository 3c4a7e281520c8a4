"""Finite digraphs with vertex set 0..v-1, kept as out-neighbour bitmasks.

The interesting digraphs here are reflexive. Axiom checkers scan in
lexicographic vertex order and report the first witness they meet, so
failures are reproducible. ``out_set``/``in_set`` give the neighbourhood
sets that the separation and interpolation axioms quantify over.

Dual conditions share one scan, told which sets to compare: separation,
djsd and dmsd look for twins by out-set and in-set, in-set, or out-set;
interpolation, lti and uti for an interpolating vertex; wt0 and wt1 for
a weakly transitive triple; fis and find_induced for induced patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

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


def _report(name, witness):
    return PropertyReport(name, witness is None, witness)


def _twin_witness(G, by_out=True, by_in=True):
    """The first pair x < y whose out-sets (if by_out) and in-sets (if
    by_in) are both equal. With both compared, separation fails there:
    distinct vertices must differ in out-set or in-set."""
    keys = [(r if by_out else 0, c if by_in else 0) for r, c in zip(G.rows, G.cols)]
    for x, key in enumerate(keys):
        for y in range(x + 1, G.v):
            if keys[y] == key:
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


def _interpolation_witness(G, same_out=False, same_in=False):
    """The first arc (x, y) admitting no z with out(z) inside out(x) and
    in(z) inside in(y): a failure of interpolation. same_out asks for
    out(z) = out(x) instead (lower interpolation), same_in for
    in(z) = in(y) (upper interpolation)."""
    rows, cols = G.rows, G.cols
    for x in range(G.v):
        rx = rows[x]
        for y in bits(rx):
            cy = cols[y]
            if not any(
                (rows[z] == rx if same_out else not rows[z] & ~rx)
                and (cols[z] == cy if same_in else not cols[z] & ~cy)
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
        ("s", _twin_witness),
        ("r", _reduction_witness),
        ("ti", _interpolation_witness),
    ):
        w = find(G)
        if w is not None:
            return PropertyReport("tirs", False, (axiom, w))
    return PropertyReport("tirs", True)


def check_lti(G):
    """Every arc (u, v) admits w with out(w) = out(u) and in(w) inside in(v)."""
    return _report("lti", _interpolation_witness(G, same_out=True))


def check_uti(G):
    """Every arc (u, v) admits w with out(w) inside out(u) and in(w) = in(v)."""
    return _report("uti", _interpolation_witness(G, same_in=True))


def check_djsd(G):
    """Distinct vertices have distinct in-sets."""
    return _report("djsd", _twin_witness(G, by_out=False))


def check_dmsd(G):
    """Distinct vertices have distinct out-sets."""
    return _report("dmsd", _twin_witness(G, by_in=False))


def check_dsd(G):
    return _report("dsd", _twin_witness(G, by_out=False) or _twin_witness(G, by_in=False))


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


def _induced_triples(G, kinds):
    # (kind, (x, y, z)) for the triples x < y < z inducing a pattern in kinds
    for t in combinations(range(G.v), 3):
        kind = _classify_triple(G, *t)
        if kind in kinds:
            yield kind, t


def find_induced(G, pattern):
    """All vertex triples inducing the pattern, sorted, as (x, y, z) with x < y < z."""
    want = pattern.id if isinstance(pattern, ForbiddenPattern) else str(pattern)
    return [t for _, t in _induced_triples(G, (want,))]


def check_fis(G):
    """No induced two-arc path triple and no induced single-arc triple."""
    return _report("fis", next(_induced_triples(G, ("G0", "G1")), None))


def _weak_transitivity_witness(G, path):
    """The first (x, y, z) with an arc x -> y but none back, z linked to x
    by no arc, and y -> z an arc with none back (path) or y and z linked
    by no arc (not path)."""
    rows, cols, full = G.rows, G.cols, (1 << G.v) - 1
    for x in range(G.v):
        apart = full & ~(rows[x] | cols[x])
        for y in bits(rows[x] & ~cols[x]):
            zs = apart & (rows[y] & ~cols[y] if path else ~(rows[y] | cols[y]))
            if zs:
                return (x, y, next(bits(zs)))
    return None


def check_wt0(G):
    """Arcs x->y->z with no back-arcs force an arc between x and z."""
    return _report("wt0", _weak_transitivity_witness(G, path=True))


def check_wt1(G):
    """An arc x->y with y otherwise isolated from z forces an arc between x and z."""
    return _report("wt1", _weak_transitivity_witness(G, path=False))


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
    rows = Digraph.from_arcs(v, json_pairs(obj["arcs"], "arcs")).rows
    added = any(not rows[x] >> x & 1 for x in range(v))
    rows = [row | 1 << x for x, row in enumerate(rows)]
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
