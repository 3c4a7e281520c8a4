"""The tracer's self times add up to its spans, and a traced worker's layer
self times account for its timed wall time.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up_to_the_outermost_spans():
    tr = spans.Tracer()
    leaf = tr.wrap(lambda: _busy(0.01), "lattice", "leaf")
    mid = tr.wrap(lambda: (_busy(0.01), leaf(), leaf()), "duality", "mid")
    top = tr.wrap(lambda: (mid(), leaf(), _busy(0.01)), "cli", "main")
    top()
    top()
    own = tr.self_times()
    assert len(own) == 2 * 5
    assert all(t >= 0 for t in own)
    assert abs(sum(own) - tr.root_time()) < 1e-9
    summary = tr.summary()
    layers = summary["layers"]
    assert layers["cli"]["calls"] == 2
    assert layers["duality"]["calls"] == 2
    assert layers["lattice"]["calls"] == 6
    assert abs(sum(rec["self_s"] for rec in layers.values()) - summary["root_s"]) < 1e-9
    # each layer did about 10 ms of its own work per call
    assert 0.009 * 2 < layers["cli"]["self_s"] < 0.02 * 2 + 0.05
    assert 0.009 * 6 < layers["lattice"]["self_s"] < 0.02 * 6 + 0.05


def test_span_closes_when_the_call_raises():
    tr = spans.Tracer()

    def boom():
        raise ValueError("x")

    f = tr.wrap(boom, "lattice", "boom")
    try:
        f()
    except ValueError:
        pass
    assert tr.spans[0][3] >= tr.spans[0][2] > 0
    assert tr._stack == []


def _traced_worker(tmp_path, job):
    job = dict(job, trace=True, result=str(tmp_path / "r.json"), spans=str(tmp_path / "s.jsonl"))
    (tmp_path / "job.json").write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    clock = time.clock_gettime(time.CLOCK_MONOTONIC)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(tmp_path / "job.json"), repr(clock)],
        cwd=ROOT, env=env, check=True, timeout=120,
    )
    return json.loads((tmp_path / "r.json").read_text())


def test_traced_convex_worker_accounts_for_its_wall_time(tmp_path):
    C = inputs.convex_lattice(random.Random(1), 6, 0.05, 3)
    res = _traced_worker(tmp_path, {
        "kind": "convex",
        "lattice": C.to_json(),
        "lattice_props": ["md", "jsd", "lsm", "msd", "mod", "usm"],
        "digraph_props": ["tirs", "lti", "djsd"],
    })
    tr = res["trace"]
    layers = tr["layers"]
    self_sum = sum(rec["self_s"] for rec in layers.values())
    assert abs(self_sum - tr["root_s"]) < 1e-6
    assert 0 <= res["wall_s"] - tr["root_s"] < 0.01
    for layer in ("lattice", "duality", "digraph", "properties", "convexity"):
        assert layers[layer]["calls"] > 0, layer
    for layer in ("cli", "theorems", "enumeration", "_canon"):
        assert layers[layer]["calls"] == 0, layer
    # decider spans are seen through the registry (jsd) and through the
    # module globals (dist inside md)
    assert tr["properties"]["jsd"] > 0 and tr["properties"]["dist"] > 0
    assert tr["mdfips_calls"] == 1 and len(tr["mdfips_lattices"]) == 1
    assert tr["elements_built"] >= 2 * C.n
    lines = (tmp_path / "s.jsonl").read_text().splitlines()
    assert len(lines) == tr["spans"]


def test_traced_cli_worker_sees_canonical_forms(tmp_path):
    path = tmp_path / "m4.json"
    path.write_text(json.dumps(inputs.m_k(4)))
    res = _traced_worker(tmp_path, {"kind": "cli", "argv": ["roundtrip", str(path)]})
    assert res["output"]["rc"] == 0
    layers = res["trace"]["layers"]
    assert layers["cli"]["calls"] == 1
    # lattice_isomorphic -> isomorphism -> two canonical forms
    assert layers["_canon"]["calls"] == 3
    assert res["trace"]["canon_max_call_s"] > 0
