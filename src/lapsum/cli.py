"""Command-line interface.

Subcommands cover every library capability: spectra and excess values,
density and partition density, orientations, matchings/covers/odd covers,
arboricity and star arboricity, structure decompositions, the upper-bound
pipeline, bound scans, and family tightness probes.

Exit codes: 0 success, 1 scan found a violation, 2 usage error,
3 size-cap skip in single-graph mode. Errors go to stderr prefixed "error:".
A reader that closes stdout early ends a command quietly, with its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from .bounds import BOUND_TAGS, CONJECTURE_TAGS, THEOREM_TAGS
from .density import (
    OrientationInfeasible,
    density,
    k_orientation,
    partition_density,
    partition_density_bracket,
)
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    GraphSource,
    SizeCapError,
    graph_stream,
    make_family,
    parse_edge_list,
    parse_graph6,
)
from .spectral import eps_profile

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_SKIPPED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_graph_flags(p: argparse.ArgumentParser, sources: bool = False):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--graph6", metavar="STR", help="one graph6 string")
    g.add_argument("--file", metavar="PATH", help="graph6 lines or edge-list file")
    g.add_argument("--family", metavar="NAME:ARGS", help="named family, e.g. star:6")
    if sources:
        g.add_argument(
            "--all-labeled", type=int, metavar="N", help="all labeled graphs on N vertices"
        )
        g.add_argument(
            "--gnp",
            nargs=4,
            metavar=("N", "P", "COUNT", "SEED"),
            help="seeded G(n,p) samples",
        )


def _file_source(path: str) -> GraphSource:
    """A ``--file`` input: an edge-list graph if the first line that is neither
    blank nor a ``#`` comment reads ``n m``, else a graph6 file."""
    # read as read_graph6_lines does, so a bad byte is reported at its offset
    with open(path, encoding="ascii", errors="replace") as fh:
        first = next((ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")), "")
        parts = first.split()
        if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
            fh.seek(0)
            return GraphSource("single", graph=parse_edge_list(fh.read()))
    return GraphSource("graph6-file", path=path)


def _source(args) -> GraphSource:
    if getattr(args, "all_labeled", None) is not None:
        return GraphSource("all-labeled", n=args.all_labeled)
    if getattr(args, "gnp", None) is not None:
        n, p, count, seed = args.gnp
        return GraphSource("gnp", n=int(n), p=float(p), count=int(count), seed=int(seed))
    if args.graph6 is not None:
        return GraphSource("single", graph=parse_graph6(args.graph6))
    if args.file is not None:
        return _file_source(args.file)
    if args.family is not None:
        return GraphSource("single", graph=make_family(args.family))
    raise GraphError("no graph source given")


def _single_graph(args) -> Graph:
    """The graph of a single-graph command: its source's first graph."""
    src = _source(args)
    # a family or edge-list graph is taken as is: graph6 caps n at 62
    g = src.graph if src.graph is not None else next(graph_stream(src), None)
    if g is None:
        raise GraphError(f"no graph in {src.describe()}")
    return g


def _write(output, out: str | None):
    """Write a command's output to the ``--out`` file or to ``sys.stdout`` as
    it stands now: one text, ending in one newline, or text pieces as they come."""
    if isinstance(output, str):
        output = [output.rstrip("\n") + "\n"]
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(output)
        fh.flush()


def _cmd_single(args):
    """A single-graph command: its query's payload for the graph, as text or JSON."""
    payload = args.query(_single_graph(args), args)
    if args.format == "json":
        return EXIT_OK, json.dumps(payload, indent=2, default=_jsonable)
    return EXIT_OK, _as_text(payload)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _as_text(payload) -> str:
    if isinstance(payload, dict):
        return "\n".join(f"{k}: {_fmt_value(v)}" for k, v in payload.items())
    return _fmt_value(payload)


def _fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v} ({float(v):g})"
    if isinstance(v, frozenset):
        return "{" + ",".join(map(str, sorted(v))) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    return str(v)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its exit code and its output. A
# single-graph query takes the graph and returns its payload. A handler
# imports the layers it needs beyond graphs, spectral, density and bounds,
# so a command loads only its own.

def _cmd_spectrum(args):
    from . import harness

    return EXIT_OK, harness.spectrum_rows(_source(args))


def _eps(g, args):
    prof = eps_profile(g)
    if args.k == "all":
        return {f"eps_{k}": prof.value(k) for k in range(1, g.n + 1)}
    return prof.value(int(args.k))


def _density(g, args):
    wit = density(g)
    return {"density": wit.value, "subset": wit.subset}


def _parden(g, args):
    if args.bracket:
        lo, hi = partition_density_bracket(g)
        return {"lower": lo, "upper": hi}
    wit = partition_density(g)
    return {
        "partition_density": wit.value,
        "attained_part_size": wit.attained_part_size,
        "parts": [sorted(p) for p in wit.parts],
    }


def _orient(g, args):
    res = k_orientation(g, args.k)
    if isinstance(res, OrientationInfeasible):
        return {"feasible": False, "k": res.k, "subset": res.subset,
                "edges_inside": res.edges_inside}
    return {"feasible": True, "k": args.k, "arcs": res.arcs(), "indegrees": res.indegrees}


def _match(g, args):
    from .matching import maximum_matching

    mm = maximum_matching(g)
    return {"nu": mm.nu, "pairs": [list(e) for e in mm.pairs]}


def _cover(g, args):
    from .matching import min_vertex_cover

    cov = min_vertex_cover(g)
    return {"tau": len(cov), "cover": cov}


def _oddcover(g, args):
    from .matching import odd_set_cover

    cov = odd_set_cover(g)
    return {
        "weight": cov.weight,
        "vertices": list(cov.vertices),
        "odd_sets": [sorted(s) for s in cov.odd_sets],
    }


def _arbor(g, args):
    from .decomposition import arboricity_value

    a, wit = arboricity_value(g)
    return {"arboricity": a, "witness": wit if wit is not None else []}


def _stararbor(g, args):
    from .decomposition import star_arboricity_exact

    sa, sfd = star_arboricity_exact(g)
    if not args.classes:
        return sa
    return {"star_arboricity": sa, "classes": [[list(e) for e in cls] for cls in sfd.classes]}


def _structure(g, args):
    from .decomposition import structure_decomposition

    sd = structure_decomposition(g, args.k, parden_mode=args.parden_mode)
    return {"k": args.k, "U": sd.U, "C": sd.C, "I": sd.I}


def _pipeline(g, args):
    from .decomposition import AssignmentExhausted, sa_upper_bound_pipeline

    res = sa_upper_bound_pipeline(g, args.k, seed=args.seed, parden_mode=args.parden_mode)
    payload = {"k": res.k, "route": res.route, "bound_claimed": res.bound_claimed}
    if res.route == "2a":
        payload["star_classes"] = len(res.star_classes.classes)
    else:
        payload["aux_n"] = res.aux_graph.n
        payload["aux_m"] = res.aux_graph.m
        payload["tries"] = res.tries
        if isinstance(res.assignment, AssignmentExhausted):
            payload["assignment"] = "exhausted"
            payload["failure_counts"] = res.assignment.failure_counts
        else:
            payload["assignment"] = "found"
            payload["c"] = res.assignment.c
    return payload


_BOUND_GROUPS = {"theorem": THEOREM_TAGS, "conjecture": CONJECTURE_TAGS, "all": BOUND_TAGS}


def _cmd_scan(args):
    from . import harness

    ids = [b.strip() for b in args.bound.split(",") if b.strip()]
    bounds = list(dict.fromkeys(t for b in ids for t in _BOUND_GROUPS.get(b, (b,))))
    ks = harness.parse_krange(args.k)
    report = harness.scan(_source(args), bounds, ks, jobs=args.jobs)
    code = EXIT_VIOLATION if report.violation_count else EXIT_OK
    return code, report.to_json() if args.format == "json" else report.to_csv()


def _cmd_probe(args):
    from . import harness

    ks = harness.parse_krange(args.k)
    rows = harness.tightness_probe(args.family, args.bound, ks)
    if args.format == "json":
        payload = [dict(asdict(r), equality=r.equality) for r in rows]
        return EXIT_OK, json.dumps(payload, indent=2)
    return EXIT_OK, harness.probe_table_csv(rows)


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="lapsum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text, sources=False):
        """A subcommand; one without ``sources`` is a single-graph query."""
        p = sub.add_parser(name, help=help_text)
        _add_graph_flags(p, sources=sources)
        if sources:
            p.set_defaults(handler=handler)
        else:
            p.add_argument("--format", choices=("text", "json"), default="text")
            p.set_defaults(handler=_cmd_single, query=handler)
        p.add_argument("--out", metavar="PATH")
        return p

    cmd("spectrum", _cmd_spectrum, "Laplacian spectra as CSV rows", sources=True)
    p = cmd("eps", _eps, "eigenvalue-sum excess eps_k")
    p.add_argument("--k", required=True, help="k value or 'all'")
    cmd("density", _density, "exact density with witness subset")
    p = cmd("parden", _parden, "exact partition density (or bracket)")
    p.add_argument("--bracket", action="store_true", help="bounds for n beyond the cap")
    p = cmd("orient", _orient, "k-orientation or infeasibility certificate")
    p.add_argument("--k", type=int, required=True)
    cmd("match", _match, "maximum matching")
    cmd("cover", _cover, "minimum vertex cover")
    cmd("oddcover", _oddcover, "minimum-weight odd set cover")
    cmd("arbor", _arbor, "arboricity with dense-subset witness")
    p = cmd("stararbor", _stararbor, "exact star arboricity")
    p.add_argument("--classes", action="store_true", help="print the decomposition")
    p = cmd("structure", _structure, "U/C/I structure decomposition")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--parden-mode", choices=("exact", "bound", "assume"), default="exact"
    )
    p = cmd("pipeline", _pipeline, "constructive star-arboricity upper bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--parden-mode", choices=("exact", "bound", "assume"), default="exact"
    )
    p = cmd("scan", _cmd_scan, "bound scan over a graph source", sources=True)
    p.add_argument("--bound", required=True, metavar="ID[,ID...]",
                   help=f"bound ids from: {', '.join(BOUND_TAGS)}; "
                   f"or a group: {', '.join(_BOUND_GROUPS)}")
    p.add_argument("--k", default="all", help="'all', 'nminus2', or a list like 1,2,3")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p = sub.add_parser("probe", help="tightness probe over named families")
    p.add_argument("--family", action="append", required=True, metavar="NAME:ARGS")
    p.add_argument("--bound", required=True)
    p.add_argument("--k", default="all")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(handler=_cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, output = args.handler(args)  # handlers write nothing
        _write(output, args.out)
        return code
    except BrokenPipeError:
        # the reader closed stdout early: end quietly, and keep the exit-time
        # flush of what is left from failing again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return code
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SKIPPED
    except (GraphError, Graph6Error, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message; print the message itself
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
