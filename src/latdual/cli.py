"""Command line front end.

Exit codes: 0 success (and property holds / roundtrip closes / all
statements verified), 1 a checked property or statement fails, 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .convexity import closure_to_json, lattice_to_convex_geometry
from .digraph import digraph_from_json, digraph_to_dot, digraph_to_json
from .duality import dual_digraph, mpe_lattice, roundtrip_digraph, roundtrip_lattice
from .enumeration import enumerate_lattices
from .errors import LatdualError
from .lattice import lattice_from_json, lattice_to_dot, lattice_to_json
from .properties import check_digraph_property, check_lattice_property, property_names
from .theorems import render_report, report_to_json, search_counterexamples, verify_theorems


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_lattice(path):
    return lattice_from_json(_load_json(path))


def _digraph(obj):
    G, added = digraph_from_json(obj)
    if added:
        print("warning: missing loops were added to the digraph", file=sys.stderr)
    return G


def _load_either(path):
    """("lattice", L) or ("digraph", G), told apart by their keys."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "covers" in obj:
        return "lattice", lattice_from_json(obj)
    if isinstance(obj, dict) and "arcs" in obj:
        return "digraph", _digraph(obj)
    raise ValueError('cannot tell lattice from digraph: need "covers" or "arcs"')


def _cmd_dual(args):
    L = _load_lattice(args.file)
    G = dual_digraph(L)
    if args.dot:
        sys.stdout.write(digraph_to_dot(G))
    else:
        print(json.dumps(digraph_to_json(G), indent=2))
    return 0


def _cmd_primal(args):
    G = _digraph(_load_json(args.file))
    L = mpe_lattice(G)
    if args.dot:
        sys.stdout.write(lattice_to_dot(L))
    else:
        print(json.dumps(lattice_to_json(L), indent=2))
    return 0


def _cmd_check(args):
    kind, x = _load_either(args.file)
    check = check_lattice_property if kind == "lattice" else check_digraph_property
    report = check(args.property, x)
    print(
        json.dumps(
            {
                "property": report.property,
                "holds": report.holds,
                "witness": list(report.witness) if report.witness else None,
            },
            indent=2,
        )
    )
    return 0 if report.holds else 1


def _cmd_roundtrip(args):
    kind, x = _load_either(args.file)
    ok = (roundtrip_lattice if kind == "lattice" else roundtrip_digraph)(x)
    print(json.dumps({"kind": kind, "roundtrip": ok}))
    return 0 if ok else 1


def _cmd_enumerate(args):
    catalog = enumerate_lattices(args.max_n)
    lines = [json.dumps(lattice_to_json(L)) for L in catalog.entries]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    counts = catalog.counts()
    summary = ", ".join(f"n={n}: {counts[n]}" for n in sorted(counts))
    print(f"{len(catalog.entries)} lattices ({summary})", file=sys.stderr)
    return 0


def _cmd_verify(args):
    checks = verify_theorems(args.max_n)
    print(render_report(checks))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report_to_json(checks), fh, indent=2)
            fh.write("\n")
    return 0 if all(c.passed for c in checks) else 1


def _cmd_search(args):
    found = search_counterexamples(args.holds, args.fails, args.max_n)
    for L in found:
        print(json.dumps(lattice_to_json(L)))
    print(
        f"{len(found)} lattices satisfy {args.holds} but not {args.fails}",
        file=sys.stderr,
    )
    return 0


def _cmd_convexify(args):
    L = _load_lattice(args.file)
    print(json.dumps(closure_to_json(lattice_to_convex_geometry(L)), indent=2))
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="latdual",
        description="Finite lattices, their dual digraphs, and reconstructions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("dual", help="dual digraph of a lattice")
    q.add_argument("file")
    q.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    q.set_defaults(fn=_cmd_dual)

    q = sub.add_parser("primal", help="map lattice of a reflexive digraph")
    q.add_argument("file")
    q.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    q.set_defaults(fn=_cmd_primal)

    q = sub.add_parser("check", help="decide a property of a lattice or digraph")
    q.add_argument("property", help=f"one of: {', '.join(property_names())}")
    q.add_argument("file")
    q.set_defaults(fn=_cmd_check)

    q = sub.add_parser("roundtrip", help="verify the double-dual isomorphism")
    q.add_argument("file")
    q.set_defaults(fn=_cmd_roundtrip)

    q = sub.add_parser("enumerate", help="all small lattices, one per class")
    q.add_argument("--max-n", type=int, required=True)
    q.add_argument("--out", help="write NDJSON here instead of stdout")
    q.set_defaults(fn=_cmd_enumerate)

    q = sub.add_parser("verify-theorems", help="run the verification campaign")
    q.add_argument("--max-n", type=int, default=7)
    q.add_argument("--report", help="also write a JSON report here")
    q.set_defaults(fn=_cmd_verify)

    q = sub.add_parser("search", help="lattices holding one property, failing another")
    q.add_argument("--holds", required=True)
    q.add_argument("--fails", required=True)
    q.add_argument("--max-n", type=int, default=7)
    q.set_defaults(fn=_cmd_search)

    q = sub.add_parser("convexify", help="closure system of a meet distributive lattice")
    q.add_argument("file")
    q.set_defaults(fn=_cmd_convexify)

    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LatdualError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
