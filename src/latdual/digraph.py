"""Finite digraphs with vertex set 0..v-1, kept as out-neighbour bitmasks.

The interesting digraphs here are reflexive. Axiom checkers scan in
lexicographic vertex order and report the first witness they meet, so
failures are reproducible. ``out_set``/``in_set`` give the neighbourhood
sets that the separation and interpolation axioms quantify over.

Dual conditions share one scan, told which sets to compare: separation,
djsd and dmsd look for twins by out-set and in-set, in-set, or out-set;
interpolation, lti and uti for an interpolating vertex; wt0 and wt1 for
a weakly transitive triple; fis and find_induced for induced patterns.

Each scan reads row masks; none tries third vertices one at a time.
Twins are keys repeated in a dict. out(z) is inside out(x) iff z is in
no in-set of a vertex outside out(x), dually for in-sets. A triple x, y,
z induces a pattern iff z is in one mask given how x and y are linked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _canon
from ._bits import bits, dot_string, json_pairs, transpose, union
from .errors import NotReflexive, UnknownProperty


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

    ``mdfips`` and ``names`` are optional annotations with one entry per
    vertex, carried along by the duality constructions; they never
    affect equality.
    """

    def __init__(self, rows, mdfips=None, names=None):
        self.rows = tuple(rows)
        self.v = len(self.rows)
        full = (1 << self.v) - 1
        for x, r in enumerate(self.rows):
            if r & ~full:
                raise ValueError(f"vertex {x} has arcs outside 0..{self.v - 1}")
        self.mdfips = None if mdfips is None else tuple(map(tuple, mdfips))
        self.names = None if names is None else tuple(names)
        for key, notes in (("mdfips", self.mdfips), ("names", self.names)):
            if notes is not None and len(notes) != self.v:
                raise ValueError(f"{key} annotation length does not match v")

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


def _check_vertex(G, x):
    # a negative vertex would index from the end
    if not 0 <= x < G.v:
        raise ValueError(f"vertex {x} is not one of 0..{G.v - 1}")


def out_set(G, x):
    _check_vertex(G, x)
    return frozenset(bits(G.rows[x]))


def in_set(G, x):
    _check_vertex(G, x)
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
    keys = zip(G.rows, G.cols) if by_out and by_in else G.rows if by_out else G.cols
    first, best = {}, None
    for y, key in enumerate(keys):
        x = first.setdefault(key, y)
        if x < y and (best is None or x < best[0]):
            best = (x, y)
    return best


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


def _classes(rows):
    # per x, the z with rows[z] equal to rows[x]
    cls = {}
    for z, r in enumerate(rows):
        cls[r] = cls.get(r, 0) | 1 << z
    return [cls[r] for r in rows]


def _interpolation_witness(G, same_out=False, same_in=False):
    """The first arc (x, y) admitting no z with out(z) inside out(x) and
    in(z) inside in(y): a failure of interpolation. same_out asks for
    out(z) = out(x) instead (lower interpolation), same_in for
    in(z) = in(y) (upper interpolation).

    The z are lo[x] & hi[y]: z has an arc leaving out(x) iff it is in the
    in-set of a vertex outside out(x), and hi[y] is dual."""
    rows, cols, full = G.rows, G.cols, (1 << G.v) - 1
    lo = _classes(rows) if same_out else [full & ~union(cols, full & ~r) for r in rows]
    hi = _classes(cols) if same_in else [full & ~union(rows, full & ~c) for c in cols]
    arcs = ((x, y) for x in range(G.v) for y in bits(rows[x]))
    return next(((x, y) for x, y in arcs if not lo[x] & hi[y]), None)


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
                return PropertyReport("trans", False, (x, y, (extra & -extra).bit_length() - 1))
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


# the induced three-vertex patterns, by name: G0 a path of two one-way
# arcs, G1 one one-way arc, G2 no arc
G0, G1, G2 = "G0", "G1", "G2"


def _third_vertices(G):
    """(x, y, g0, g1, g2) for each pair x < y: the masks of the z > y for
    which x, y and z induce G0, G1 or G2. z is in ``to[x]`` (``fro[x]``)
    if x -> z (z -> x) with no arc back, in ``apart[x]`` if no arc links
    them. G2 is three pairs apart, G1 one one-way pair and two apart, G0
    two one-way pairs on a path through all three."""
    rows, cols, v = G.rows, G.cols, G.v
    full = (1 << v) - 1
    to = [r & ~c for r, c in zip(rows, cols)]
    fro = [c & ~r for r, c in zip(rows, cols)]
    apart = [full & ~(r | c | 1 << x) for x, (r, c) in enumerate(zip(rows, cols))]
    for x in range(v):
        tx, fx, ax = to[x], fro[x], apart[x]
        for y in range(x + 1, v):
            ty, fy, ay = to[y], fro[y], apart[y]
            if ax >> y & 1:
                g0, g1, g2 = tx & fy | fx & ty, (tx | fx) & ay | ax & (ty | fy), ax & ay
            elif tx >> y & 1:
                g0, g1, g2 = ty & ax | fx & ay, ax & ay, 0
            elif fx >> y & 1:
                g0, g1, g2 = tx & ay | fy & ax, ax & ay, 0
            else:
                continue
            above = full ^ ((2 << y) - 1)
            yield x, y, g0 & above, g1 & above, g2 & above


def find_induced(G, pattern):
    """All triples inducing the pattern named G0, G1 or G2, sorted, as (x, y, z), x < y < z."""
    if pattern not in (G0, G1, G2):
        raise UnknownProperty(f"no forbidden pattern named {pattern!r}")
    k = 2 + (G0, G1, G2).index(pattern)
    return [(t[0], t[1], z) for t in _third_vertices(G) for z in bits(t[k])]


def check_fis(G):
    """No induced two-arc path triple and no induced single-arc triple."""
    for x, y, g0, g1, _ in _third_vertices(G):
        either = g0 | g1
        if either:
            z = (either & -either).bit_length() - 1
            return _report("fis", (G0 if g0 >> z & 1 else G1, (x, y, z)))
    return _report("fis", None)


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
                return (x, y, (zs & -zs).bit_length() - 1)
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
    m = _canon.isomorphism(G1.rows, G1.cols, (0,) * G1.v, G2.rows, G2.cols, (0,) * G2.v)
    return (m is not None), m


def digraph_canonical_key(G):
    """Hashable key shared exactly by isomorphic digraphs: the rows of G
    relabelled to its canonical form."""
    return _canon.canonical_form(G.rows, G.cols, (0,) * G.v)[0]


def digraph_to_json(G):
    """Plain-dict form; loops are always written out. The arcs are read
    from the rows, in the order of ``G.arcs``, which is not built."""
    obj = {"v": G.v, "arcs": [[x, y] for x, row in enumerate(G.rows) for y in bits(row)]}
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
    mdfips = names = None
    if obj.get("mdfips") is not None:
        mdfips = json_pairs(obj["mdfips"], "mdfips")
        for p in mdfips:
            if min(p) < 0:
                raise ValueError(f'"mdfips" entry {list(p)} has a negative generator')
        names = tuple(f"{a}{b}" if a < 10 and b < 10 else f"{a},{b}" for a, b in mdfips)
    return Digraph(rows, mdfips, names), added


def digraph_to_dot(G):
    """DOT rendering: loops hidden, opposite arc pairs drawn once with dir=both."""
    lines = ["digraph {"]
    for x in range(G.v):
        lines.append(f"  n{x} [label={dot_string(G.name_of(x))}];")
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
