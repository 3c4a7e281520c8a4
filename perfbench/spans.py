"""Layer spans recorded from outside latdual.

A ``Tracer`` wraps functions so that each call records a span: layer,
function name, start, end, and the index of the enclosing span. Spans stay
in memory until ``dump``. A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of all
spans add up to the durations of the outermost ones.

``install`` wraps latdual's layer functions wherever they are looked up:
in the defining module, in every module that bound them with
``from ... import``, in the package namespace, in the property registries,
and in the closure cells of registry entries. The O(1) accessors
(``FiniteLattice.meet``, ``join``, ``leq`` and the like) are methods and
stay unwrapped; private helpers are wrapped only where another layer
calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# latdual modules, each one layer
LAYERS = (
    "cli",
    "theorems",
    "enumeration",
    "properties",
    "convexity",
    "duality",
    "digraph",
    "lattice",
    "_canon",
)

# decider function -> short name used in the per-function metrics
PROPERTY_FUNCS = {
    "is_jsd": "jsd",
    "is_msd": "msd",
    "is_distributive": "dist",
    "is_modular": "mod",
    "is_meet_distributive": "md",
}

# private functions that another layer calls
CROSS_LAYER_PRIVATE = (("enumeration", "_reflexive_row_options"),)

# classes whose construction is a layer's work
CONSTRUCTORS = (
    ("lattice", "FiniteLattice"),
    ("digraph", "Digraph"),
    ("convexity", "ClosureSystem"),
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [layer, name, start, end, parent, note]
        self._stack = []

    def wrap(self, fn, layer, name, note=None):
        """``fn`` recording one span per call; ``note(args)`` is evaluated
        after the call and kept with the span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if note is not None:
                    span[5] = note(args)

        return traced

    def self_times(self):
        """Per-span self time, in span order."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end, _, _) in enumerate(self.spans)]

    def root_time(self):
        """Total duration of the outermost spans."""
        return sum(s[3] - s[2] for s in self.spans if s[4] < 0)

    def summary(self):
        """Per-layer counts and self times, plus the derived work counters."""
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        funcs = {short: 0.0 for short in PROPERTY_FUNCS.values()}
        canon_max = 0.0
        elements = 0
        mdfips_calls = 0
        mdfips_lattices = set()
        for (layer, name, start, end, _, note), own in zip(self.spans, self.self_times()):
            rec = layers[layer]
            rec["calls"] += 1
            rec["self_s"] += own
            if name in PROPERTY_FUNCS:
                funcs[PROPERTY_FUNCS[name]] += own
            elif layer == "_canon" and name == "canonical_form":
                canon_max = max(canon_max, end - start)
            elif name == "FiniteLattice.__init__":
                elements += note
            elif name == "mdfips":
                mdfips_calls += 1
                mdfips_lattices.add(note)
        return {
            "layers": layers,
            "properties": funcs,
            "canon_max_call_s": canon_max,
            "elements_built": elements,
            "mdfips_calls": mdfips_calls,
            "mdfips_lattices": sorted(mdfips_lattices),
            "root_s": self.root_time(),
            "spans": len(self.spans),
        }

    def dump(self, path):
        """Write the spans as JSON lines: layer, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for layer, name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([layer, name, start, end, parent]) + "\n")


def _lattice_key(args):
    # a lattice by value: the hash of its up-set masks, stable across
    # processes because integer hashing is not randomised
    return hash(args[0].up)


def _elements(args):
    return args[0].n


def install(tracer, package):
    """Wrap the layer functions of an imported latdual package in place."""
    name = package.__name__
    mods = {layer: importlib.import_module(f"{name}.{layer}") for layer in LAYERS}
    wrapped = {}  # id(original) -> (original, wrapper)

    def add(fn, layer, label, note=None):
        if id(fn) not in wrapped:
            wrapped[id(fn)] = (fn, tracer.wrap(fn, layer, label, note))

    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                add(obj, layer, attr, _lattice_key if attr == "mdfips" else None)
    for layer, attr in CROSS_LAYER_PRIVATE:
        fn = getattr(mods[layer], attr)
        add(fn, layer, attr)
    props = mods["properties"]
    for registry in (props.LATTICE_CHECKS, props.DIGRAPH_CHECKS):
        for key, fn in registry.items():
            add(fn, "properties", f"{fn.__name__}[{key}]")
    # enumeration memoises the canonical form it captured at import time,
    # so the cached callable is wrapped where enumeration looks it up
    enum = mods["enumeration"]
    add(enum._canonical_form, "_canon", "canonical_form")

    # rebind every lookup site
    pkg_mods = [package] + [
        importlib.import_module(f"{name}.{m}")
        for m in ("errors", "fixtures")
    ] + list(mods.values())
    originals = [orig for orig, _ in wrapped.values()]
    for mod in pkg_mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)][1])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in wrapped:
                        obj[key] = wrapped[id(val)][1]
    for fn in originals:
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                inner = cell.cell_contents
            except ValueError:
                continue
            if id(inner) in wrapped and inner is not fn:
                cell.cell_contents = wrapped[id(inner)][1]

    for layer, cls_name in CONSTRUCTORS:
        cls = getattr(mods[layer], cls_name)
        note = _elements if cls_name == "FiniteLattice" else None
        cls.__init__ = tracer.wrap(cls.__init__, layer, f"{cls_name}.__init__", note)
