"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py JOB.json T_SPAWN

The job names the operation and where to write the result; T_SPAWN is the
monotonic clock reading taken just before this process was started. The worker imports
latdual from ``src/`` (the caller sets PYTHONPATH), loads its input, times
the operation's calls into latdual, and writes a JSON result: set-up time,
timed wall time, peak resident set, and the raw outputs, which the caller
checks without latdual. With ``"trace": true`` it also records layer spans.
"""

import contextlib
import io
import json
import resource
import sys
import time


def clock():
    # CLOCK_MONOTONIC is system-wide, so readings from the parent and this
    # process can be subtracted
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cli(latdual, job):
    buf = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(buf):
        rc = latdual.cli.main(job["argv"])
    return clock() - t0, {"rc": rc, "stdout": buf.getvalue()}


def _convex(latdual, job):
    t0 = clock()
    L = latdual.lattice_from_json(job["lattice"])
    G = latdual.dual_digraph(L)
    L2 = latdual.mpe_lattice(G)
    lat = {p: latdual.check_lattice_property(p, L) for p in job["lattice_props"]}
    dig = {p: latdual.check_digraph_property(p, G) for p in job["digraph_props"]}
    C = latdual.lattice_to_convex_geometry(L)
    wall = clock() - t0
    verdict = lambda r: [r.holds, list(r.witness) if r.witness else None]
    return wall, {
        "lattice": {p: verdict(r) for p, r in lat.items()},
        "digraph": {p: verdict(r) for p, r in dig.items()},
        "mpe_up": list(L2.up),
        "geometry": {"ground": C.ground, "closed": list(C.closed)},
    }


def _setup_only(latdual, job):
    return 0.0, None


KINDS = {"cli": _cli, "convex": _convex, "setup": _setup_only}


def main(path, t_spawn):
    with open(path, encoding="utf-8") as fh:
        job = json.load(fh)
    import latdual
    import latdual.cli

    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, latdual)
    setup = clock() - t_spawn
    wall, output = KINDS[job["kind"]](latdual, job)
    result = {
        "setup_s": setup,
        "wall_s": wall,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output": output,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
