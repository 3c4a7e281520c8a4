"""latdual benchmark.

    python3 perfbench/run.py --workload {campaign,symmetric,convex} \
        --seed N --seconds S --trace {0,1}

Run from the root of a latdual checkout. Each operation runs in a fresh
worker process (``worker.py``) that imports latdual from ``src/``; one
worker runs at a time. A run repeats whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output against
``oracles``, and prints one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``wall_s`` and ``peak_rss_mb``. With ``--trace 1`` the run makes one
untraced round and one traced round, and the metrics are the per-layer
ones from the traced round (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # a run ends within this, whatever --seconds says
SETUP_PROBES = 2  # workers per round that only set up, for the setup_s median


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Op:
    """One worker job plus the check of its output."""

    def __init__(self, label, job, check):
        self.label, self.job, self.check = label, job, check


# -- workloads --------------------------------------------------------------


def campaign_ops(rng, out):
    """The verification campaign, cold, as one operation."""
    report = out / "campaign-report.json"
    report.unlink(missing_ok=True)

    def check(res):
        try:
            with open(report, encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"no readable report: {exc}"]
        return checks.campaign(res["output"]["rc"], obj)

    argv = ["verify-theorems", "--max-n", "8", "--report", str(report)]
    return [Op("verify-theorems", {"kind": "cli", "argv": argv}, check)]


def symmetric_ops(rng, out):
    """CLI roundtrip, dual and primal on structured, highly symmetric
    inputs, numbered by a seeded shuffle."""
    lattices = [(f"2^{k}", inputs.boolean(k)) for k in range(1, 5)]
    lattices += [(f"M{k}", inputs.m_k(k)) for k in range(3, 9)]
    lattices += [("Pi4", inputs.partition_lattice(4))]
    lattices += [("x".join(map(str, d)), inputs.chain_product(d)) for d in ((2, 3, 4), (3, 3, 4))]
    m3 = inputs.m_k(3)
    # (label, digraph, commands, elements and covers of its map lattice)
    digraphs = [("dual(M3)", inputs.dual_of(m3), ("roundtrip", "primal"), (m3["n"], len(m3["covers"])))]
    for v in range(5, 12):
        commands = ("roundtrip",) * (v <= 9) + ("primal",) * (v >= 7)
        digraphs.append((f"loops{v}", inputs.loop_only(v), commands, (1 << v, v << (v - 1))))

    ops = []

    def add(label, obj, commands_and_checks):
        path = out / f"{label.replace('^', '')}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        for command, check in commands_and_checks:
            job = {"kind": "cli", "argv": [command, str(path)]}
            ops.append(Op(f"{command} {label}", job, lambda res, check=check: check(**res["output"])))

    for label, obj in lattices:
        obj = inputs.relabel_lattice(obj, rng)
        add(label, obj, [
            ("roundtrip", lambda rc, stdout: checks.roundtrip(rc, stdout, "lattice")),
            ("dual", lambda rc, stdout, obj=obj: checks.dual(rc, stdout, obj)),
        ])
    for label, obj, commands, (elems, covers) in digraphs:
        checks_by_command = {
            "roundtrip": lambda rc, stdout: checks.roundtrip(rc, stdout, "digraph"),
            "primal": lambda rc, stdout, e=elems, c=covers: checks.primal(rc, stdout, e, c),
        }
        add(label, inputs.relabel_digraph(obj, rng), [(c, checks_by_command[c]) for c in commands])
    return ops


# (points, modelled decider seconds, candidate point sets drawn); the
# targets give lattices of about 100, 165 and 235 elements
CONVEX_SIZES = ((7, 0.7, 12), (8, 2.5, 24), (8, 2.5, 24), (9, 4.5, 32), (9, 4.5, 32))
CONVEX_LATTICE_PROPS = ("md", "jsd", "lsm", "msd", "mod", "usm")
CONVEX_DIGRAPH_PROPS = ("tirs", "lti", "djsd")


def convex_ops(rng, out):
    """Library calls on lattices of convex subsets of seeded point sets."""
    result = []
    for k, target, candidates in CONVEX_SIZES:
        C = inputs.convex_lattice(rng, k, target, candidates)
        job = {
            "kind": "convex",
            "lattice": C.to_json(),
            "lattice_props": CONVEX_LATTICE_PROPS,
            "digraph_props": CONVEX_DIGRAPH_PROPS,
        }
        result.append(Op(f"convex k={k} n={C.n}", job, lambda res, C=C: checks.convex(res["output"], C)))
    return result


WORKLOADS = {"campaign": campaign_ops, "symmetric": symmetric_ops, "convex": convex_ops}


# -- running ----------------------------------------------------------------


def worker_env(root):
    """The environment of a worker: latdual imported from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(op, root, stem, trace, deadline):
    """Run one operation in a fresh process; returns (result or None, problems).

    The worker's files are named after ``stem``."""
    remaining = deadline - clock()
    if remaining <= 0:
        return None, [f"{op.label}: not started before the run limit"]
    job = dict(op.job, trace=trace, result=f"{stem}.result.json", spans=f"{stem}.spans.jsonl")
    job_path = f"{stem}.job.json"
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    with open(f"{stem}.stderr", "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), job_path, repr(clock())],
                cwd=root,
                env=worker_env(root),
                stdout=subprocess.DEVNULL,
                stderr=err,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            return None, [f"{op.label}: no result before the run limit"]
    if proc.returncode != 0:
        return None, [f"{op.label}: worker exited {proc.returncode}, see {stem}.stderr"]
    with open(job["result"], encoding="utf-8") as fh:
        res = json.load(fh)
    try:
        problems = op.check(res)
    except Exception:  # a check that breaks on odd output fails the operation
        problems = ["the output check raised:\n" + traceback.format_exc()]
    return res, [f"{op.label}: {p}" for p in problems]


class Run:
    """The rounds of one run and what they measured."""

    def __init__(self, make_ops, seed, root, out, deadline):
        self.make_ops, self.seed = make_ops, seed
        self.root, self.out, self.deadline = root, out, deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.results = []  # worker results of the operations
        self.gen_s = []  # input generation time per round
        self.setup_s = []  # worker set-up times, probes included
        self.peak_mb = 0.0  # highest peak resident set of any worker

    def worker(self, op, name, trace):
        res, problems = run_worker(op, self.root, self.out / name, trace, self.deadline)
        self.problems.extend(problems)
        if res is not None:
            self.setup_s.append(res["setup_s"])
            self.peak_mb = max(self.peak_mb, res["maxrss_mb"])
        return res, problems

    def round(self, trace=False):
        """Make the inputs (the same every round), run the set-up probes,
        then every operation once; returns the summed timed wall time."""
        t0 = clock()
        ops = self.make_ops(random.Random(self.seed), self.out)
        self.gen_s.append(clock() - t0)
        for _ in range(SETUP_PROBES):
            self.worker(PROBE, f"probe{len(self.setup_s):03d}", False)
        wall = 0.0
        for op in ops:
            res, problems = self.worker(op, f"op{self.attempted:03d}{'-traced' if trace else ''}", trace)
            self.attempted += 1
            self.failed += bool(problems)
            if res is not None:
                self.results.append(res)
                wall += res["wall_s"]
        return wall


PROBE = Op("set-up probe", {"kind": "setup"}, lambda res: [])


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(results, traced_wall, untraced_wall):
    """Per-layer metrics summed over the traced workers' summaries."""
    sums = {layer: {"calls": 0, "self_s": 0.0} for layer in spans.LAYERS}
    props = {short: 0.0 for short in spans.PROPERTY_FUNCS.values()}
    canon_max = 0.0
    elements = 0
    mdfips_calls = 0
    mdfips_lattices = set()
    bench_self = 0.0
    for res in results:
        tr = res["trace"]
        for layer, rec in tr["layers"].items():
            sums[layer]["calls"] += rec["calls"]
            sums[layer]["self_s"] += rec["self_s"]
        for short, val in tr["properties"].items():
            props[short] += val
        canon_max = max(canon_max, tr["canon_max_call_s"])
        elements += tr["elements_built"]
        mdfips_calls += tr["mdfips_calls"]
        mdfips_lattices.update(tr["mdfips_lattices"])
        bench_self += res["wall_s"] - tr["root_s"]
    out = {}
    for layer, rec in sums.items():
        name = layer.lstrip("_")  # metric names start with a letter
        out[f"{name}.calls"] = metric(rec["calls"], "count")
        out[f"{name}.self_s"] = metric(rec["self_s"], "s")
    out["canon.max_call_s"] = metric(canon_max, "s")
    out["lattice.elements_built"] = metric(elements, "count")
    out["duality.mdfips_calls_per_lattice"] = metric(
        mdfips_calls / max(1, len(mdfips_lattices)), "ratio"
    )
    for short, val in props.items():
        out[f"properties.{short}.self_s"] = metric(val, "s")
    out["bench.self_s"] = metric(bench_self, "s")
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    accounted = sum(rec["self_s"] for rec in sums.values()) + bench_self
    return out, accounted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "latdual" / "__init__.py").is_file():
        print("error: run from the root of a latdual checkout (no src/latdual here)", file=sys.stderr)
        return 2
    start = clock()
    deadline = start + RUN_LIMIT_S
    out = root / ".perfbench_out" / f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # warm the bytecode cache, so that no timed worker compiles latdual
    subprocess.run([sys.executable, "-c", "import latdual.cli"], cwd=root, env=worker_env(root), timeout=60)

    run = Run(WORKLOADS[args.workload], args.seed, root, out, deadline)
    if args.trace:
        untraced = run.round()
        first_traced = len(run.results)
        traced = run.round(trace=True)
        metrics, accounted = layer_metrics(run.results[first_traced:], traced, untraced)
        if abs(accounted - traced) > 1e-6 * max(1.0, traced):
            run.problems.append(f"layer self times account for {accounted} s of {traced} s")
    else:
        walls = []
        while not walls or (clock() - start < args.seconds and clock() < deadline):
            walls.append(run.round())
        # a worker that failed leaves no figures; with no worker left the
        # set-up reads 0 and the run is not correct anyway
        setup = statistics.median(run.setup_s) if run.setup_s else 0.0
        metrics = {
            "setup_s": metric(statistics.median(run.gen_s) + setup, "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "peak_rss_mb": metric(run.peak_mb, "MB"),
        }
    for p in run.problems:
        print(p, file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
