"""The three benchmark workloads: inputs made from a seed, timed loops, checks.

Every workload drives lapsum the way a user does: the scans through the
``lapsum`` command (``lapsum.cli.main``, output captured in memory), the
certified-invariant queries through the public package API. Functions are
looked up on their module at call time, so the tracer's wrappers apply.

Workloads
- ``scan-theorem``: ``lapsum scan`` with the seven theorem bounds, ``--k all``,
  ``--jobs 1`` over all labeled 5-vertex graphs, then single-graph
  ``lapsum scan --graph6`` queries on random labeled 6-vertex graphs. Time
  goes to decomposition, flow and matching.
- ``scan-brouwer``: ``lapsum scan --bound brouwer --k all --jobs 2`` over all
  labeled 6-vertex graphs and a graph6 file of seeded G(40,p) samples at
  p in {0.1, 0.5, 0.9}, then single-graph queries on both kinds. Time goes
  to graphs, spectral, bounds and the harness pool; no flow, density,
  matching or decomposition work.
- ``certify``: a closed loop with one client sending certified-invariant
  calls one after another over a seeded graph pool, plus one assignment
  route on K_{101,151}. Density and partition density run only here, and
  flow runs on large networks.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import lapsum as L

THEOREM_BOUNDS = (
    "bai",
    "cover",
    "star-arb",
    "half-component",
    "matching-thm",
    "matching-sq",
    "weak-brouwer",
)

#: percentile reported as ``query_tail_ms``: the highest with at least
#: TAIL_BEYOND samples beyond it in every workload's run
TAIL_PERCENTILE = 98
TAIL_BEYOND = 10
#: queries (or certify calls) a timed run makes at least, running past its
#: deadline if it must, so that TAIL_BEYOND samples lie beyond the tail
MIN_QUERIES = math.ceil(TAIL_BEYOND / (1 - TAIL_PERCENTILE / 100))
#: share of a scan workload's run given to whole-source scans (the last
#: scan runs to its end); single-graph queries then run for the rest
BATCH_SHARE = 0.6
#: G(40,p) samples per p value in the scan-brouwer graph6 file
GNP40_PER_P = 100
GNP40_PS = (0.1, 0.5, 0.9)
#: distinct single-graph queries a scan run cycles through
QUERY_POOL = 4000
#: single-graph queries in the fixed work of a traced scan run
TRACED_QUERIES = 100
#: round-robin cycles of certify calls in the fixed work of a traced run
TRACED_CERTIFY_CYCLES = 24
#: certify pool size, in round-robin cycles; the loop wraps around after it
CERTIFY_POOL_CYCLES = 64
#: the assignment route: K_{k, k+50} with k > 100
ASSIGNMENT_K = 101


class Checks:
    """Output checks: a failed check is counted and reported, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems):
        self.attempted += 1
        problems = list(problems)
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def guarded(self, label: str, check, *args):
        """Run ``check(*args)`` (a list of problems); an exception is a failure."""
        try:
            problems = check(*args)
        except Exception as exc:  # any raise from a re-check is a failed output
            problems = [f"{type(exc).__name__}: {exc}"]
        self.record(label, problems)


def percentile_rank(count: int, pct: float) -> int:
    """1-based nearest rank of the pct percentile among count samples."""
    return max(1, math.ceil(pct / 100 * count))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), pct) - 1]


def warm_up():
    """Finish lazy set-up: the first eigvalsh and the first scipy max-flow."""
    L.spectrum(L.make_family("complete:4"))
    L.k_orientation(L.make_family("complete:4"), 2)


# ---------------------------------------------------------------------------
# Scans through the CLI


def run_cli(argv) -> tuple[int, str]:
    cli = importlib.import_module("lapsum.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@dataclass(frozen=True)
class ScanJob:
    """One whole-source ``lapsum scan`` call and what its report must hold."""

    name: str
    source_args: tuple[str, ...]
    bounds: tuple[str, ...]
    graphs: int
    checks: int
    seed_dependent: bool = False

    def argv(self, jobs: int) -> list[str]:
        return [
            "scan",
            *self.source_args,
            "--bound",
            ",".join(self.bounds),
            "--k",
            "all",
            "--jobs",
            str(jobs),
            "--format",
            "json",
        ]


@dataclass
class ScanInputs:
    jobs: tuple[ScanJob, ...]
    jobs_count: int  # --jobs of the untraced whole-source scans
    queries: list[tuple[str, int]]  # (graph6, n)
    query_bounds: tuple[str, ...]


def _binomial_quantiles(trials: int, count: int) -> list[int]:
    """Edge counts at the mid-quantiles of Binomial(trials, 1/2): the edge-count
    distribution of a uniformly random labeled graph."""
    out, cdf, m = [], 0.0, 0
    for i in range(count):
        target = (i + 0.5) / count
        while cdf + math.comb(trials, m) / 2 ** trials < target:
            cdf += math.comb(trials, m) / 2 ** trials
            m += 1
        out.append(m)
    return out


#: queries are stratified by edge count, so the seed picks the edges but the
#: query mix, and with it the latency percentiles, stays the same
QUERY_EDGE_COUNTS = _binomial_quantiles(15, 32)


def _query_graph6(rng: random.Random, i: int) -> str:
    m = QUERY_EDGE_COUNTS[i * 7 % len(QUERY_EDGE_COUNTS)]
    return L.encode_graph6(_gnm(rng, 6, m))


def scan_inputs(workload: str, seed: int, workdir) -> ScanInputs:
    rng = random.Random(seed)
    if workload == "scan-theorem":
        n = 5
        jobs = (
            ScanJob(
                "all-labeled:5",
                ("--all-labeled", str(n)),
                THEOREM_BOUNDS,
                2 ** 10,
                2 ** 10 * n * len(THEOREM_BOUNDS),
            ),
        )
        queries = [(_query_graph6(rng, i), 6) for i in range(QUERY_POOL)]
        return ScanInputs(jobs, 1, queries, THEOREM_BOUNDS)
    # scan-brouwer
    path = workdir / "gnp40.g6"
    g40 = []
    for p in GNP40_PS:
        for g in L.gnp_graphs(40, p, GNP40_PER_P, rng.getrandbits(32)):
            g40.append(L.encode_graph6(g))
    path.write_text("\n".join(g40) + "\n")
    count = len(g40)
    jobs = (
        ScanJob("all-labeled:6", ("--all-labeled", "6"), ("brouwer",), 2 ** 15, 2 ** 15 * 6),
        ScanJob(
            "gnp40", ("--file", str(path)), ("brouwer",), count, count * 40, True
        ),
    )
    # queries take the G(40,p) graphs in turn, one p after another, so the
    # latency percentiles fall inside the cost band of one p, not between two
    queries = [(g40[i % 3 * GNP40_PER_P + i // 3 % GNP40_PER_P], 40) for i in range(QUERY_POOL)]
    return ScanInputs(jobs, 2, queries, ("brouwer",))


def report_fields(text: str) -> dict:
    """The deterministic part of a scan report: no runtime, no file path."""
    rep = json.loads(text)
    rep.pop("runtime_ms", None)
    rep.pop("source", None)
    return rep


def check_scan_report(job: ScanJob, code: int, rep: dict) -> list[str]:
    problems = []
    totals = rep["totals"]
    if code != 0:
        problems.append(f"exit code {code}")
    if totals["graphs"] != job.graphs:
        problems.append(f"graphs {totals['graphs']} != {job.graphs}")
    if totals["checks"] != job.checks:
        problems.append(f"checks {totals['checks']} != {job.checks}")
    if sum(row["checked"] for row in totals["per_bound_k"]) != job.checks:
        problems.append("per-(bound, k) checked counts do not sum to checks")
    if totals["violations"] or rep["violations"]:
        problems.append(f"{totals['violations']} violations")
    if totals["skipped"] or rep["skipped"]:
        problems.append(f"{totals['skipped']} skips")
    return problems


def check_query_report(bounds, n: int, code: int, text: str) -> list[str]:
    rep = json.loads(text)
    job = ScanJob("query", (), tuple(bounds), 1, n * len(bounds))
    return check_scan_report(job, code, rep)


def compare_reference(rep: dict, ref: dict, tol: float) -> list[str]:
    """Integer fields exactly, ``min_slack`` and ``max_eps_over_k2`` within tol."""
    problems = []
    totals, rtot = rep["totals"], ref["totals"]
    for key in ("graphs", "checks", "violations", "equalities", "skipped"):
        if totals[key] != rtot[key]:
            problems.append(f"totals.{key} {totals[key]} != reference {rtot[key]}")
    if not _close(totals["max_eps_over_k2"], rtot["max_eps_over_k2"], tol):
        problems.append("max_eps_over_k2 differs from reference")
    rows = {(r["bound"], r["k"]): r for r in totals["per_bound_k"]}
    rrows = {(r["bound"], r["k"]): r for r in rtot["per_bound_k"]}
    if rows.keys() != rrows.keys():
        problems.append("per-(bound, k) rows differ from reference")
    for key in rows.keys() & rrows.keys():
        row, rrow = rows[key], rrows[key]
        for f in ("checked", "violations", "equalities"):
            if row[f] != rrow[f]:
                problems.append(f"{key} {f} {row[f]} != reference {rrow[f]}")
        if not _close(row["min_slack"], rrow["min_slack"], tol):
            problems.append(f"{key} min_slack {row['min_slack']} != {rrow['min_slack']}")
    kept = [(e["graph6"], e["bound"], e["k"]) for e in rep["equalities"]]
    if kept != [tuple(e) for e in ref["equality_examples"]]:
        problems.append("equality examples differ from reference")
    return problems


def reference_fields(rep: dict) -> dict:
    """What reference.json stores of one scan report."""
    return {
        "totals": rep["totals"],
        "equality_examples": [[e["graph6"], e["bound"], e["k"]] for e in rep["equalities"]],
    }


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol * max(1.0, abs(b))


@dataclass
class ScanPass:
    """Reports and timings of one pass over a scan workload."""

    batch_s: float = 0.0
    graphs: int = 0
    reports: list = field(default_factory=list)  # (job, exit code, report text)


def run_scan_jobs(inputs: ScanInputs, jobs: int, out: ScanPass, speed=None):
    clock = time.perf_counter
    for job in inputs.jobs:
        start, cpu = clock(), time.process_time()
        code, text = run_cli(job.argv(jobs))
        elapsed = clock() - start
        out.batch_s += elapsed
        if speed is not None:
            speed.after(elapsed, time.process_time() - cpu)
        out.graphs += job.graphs
        out.reports.append((job, code, text))


def run_queries(inputs: ScanInputs, count: int | None, deadline: float | None, out: ScanPass,
                speed=None):
    """Single-graph queries, one after another, until count, or until the
    deadline once MIN_QUERIES are done."""
    clock = time.perf_counter
    results = []
    i = 0
    while (count is None or i < count) and (
        deadline is None or i < MIN_QUERIES or clock() < deadline
    ):
        g6, n = inputs.queries[i % len(inputs.queries)]
        argv = ["scan", "--graph6", g6, "--bound", ",".join(inputs.query_bounds),
                "--k", "all", "--format", "json"]
        start, cpu = clock(), time.process_time()
        code, text = run_cli(argv)
        elapsed = clock() - start
        results.append((n, code, text))
        if speed is not None:
            speed.after(elapsed, time.process_time() - cpu)
        i += 1
    return results


def _check_job(job: ScanJob, code: int, text: str, ref, tol: float, seen: dict) -> list[str]:
    rep = report_fields(text)
    problems = check_scan_report(job, code, rep)
    if ref is not None:
        problems += compare_reference(rep, ref, tol)
    if seen.setdefault(job.name, rep) != rep:
        problems.append("report differs from this run's first scan of the same source")
    return problems


def check_scan_pass(inputs, scan_pass, query_results, checks: Checks, reference, seed):
    seen: dict = {}
    for job, code, text in scan_pass.reports:
        ref = reference.scan(job, seed)
        checks.guarded(f"scan {job.name}", _check_job, job, code, text, ref, reference.tol, seen)
    for n, code, text in query_results:
        checks.guarded("query", check_query_report, inputs.query_bounds, n, code, text)


# ---------------------------------------------------------------------------
# Certified-invariant queries


@dataclass(frozen=True)
class Call:
    """One certify call: kind, graph and parameters. The graph is rebuilt
    before each call so that no per-graph cache carries over."""

    kind: str
    n: int
    edges: tuple
    k: int = 0

    def graph(self):
        return L.Graph(self.n, self.edges)


def _gnp(rng, n, p):
    return L.graph_from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p]
    )


def _gnm(rng, n, m):
    pairs = list(combinations(range(n), 2))
    return L.graph_from_edges(n, rng.sample(pairs, min(m, len(pairs))))


def _call(kind, g, k=0) -> Call:
    return Call(kind, g.n, g.edges, k)


def certify_cycle(rng: random.Random, i: int) -> list[Call]:
    """One round-robin cycle: one call of each kind. Sizes follow a fixed grid
    indexed by the cycle, so the seed changes the graphs but not their sizes."""
    calls = []
    n = (16, 24, 32, 40)[i % 4]
    calls.append(_call("density", _gnp(rng, n, (3, 6)[i // 4 % 2] / (n - 1))))
    calls.append(_call("orient", _gnp(rng, n, (3, 6)[i // 4 % 2] / (n - 1)), (1, 2, 3)[i % 3]))
    n = (10, 20, 30, 40)[i % 4]
    calls.append(_call("forest", _gnp(rng, n, (3, 5)[i // 4 % 2] / (n - 1))))
    calls.append(_call("parden", _gnp(rng, (7, 8, 9, 10)[i % 4], 0.4)))
    calls.append(_call("peel", _gnp(rng, (6, 7, 8)[i % 3], 0.6), 2))
    # exact star arboricity backtracks exponentially on dense graphs (n=8,
    # m=22 takes seconds); at these sizes no call takes over ~0.2 s
    n, m = ((7, 12), (8, 16), (9, 18), (10, 20))[i % 4]
    calls.append(_call("star_arb", _gnm(rng, n, m)))
    while True:
        g = _gnp(rng, (16, 20, 24)[i % 3], 2 / ((16, 20, 24)[i % 3] - 1))
        if L.matching_number(g) <= 12:
            break
    calls.append(_call("cover", g))
    n = (8, 12, 16)[i % 3]
    calls.append(_call("gallai", _gnp(rng, n, 3 / (n - 1))))
    calls.append(_call("oddcover", _gnp(rng, n, 3 / (n - 1))))
    n = (10, 13, 16)[i % 3]
    calls.append(_call("nu_ell", _gnp(rng, n, 3 / (n - 1)), 2))
    calls.append(_call("nu_ell", _gnp(rng, n, 3 / (n - 1)), 3))
    for kind in ("structure", "pipeline"):
        g = _gnp(rng, (8, 9, 10)[i % 3], 0.4)
        k = math.floor(L.partition_density(g).value) + 1
        calls.append(_call(kind, g, k))
    return calls


@dataclass
class CertifyInputs:
    route_graph: tuple  # (n, edges) of K_{k, k+50}
    route_seed: int
    pool: list[Call]


def certify_inputs(seed: int) -> CertifyInputs:
    rng = random.Random(seed)
    pool = []
    for i in range(CERTIFY_POOL_CYCLES):
        pool.extend(certify_cycle(rng, i))
    kbip = L.make_family(f"complete-bipartite:{ASSIGNMENT_K},{ASSIGNMENT_K + 50}")
    return CertifyInputs((kbip.n, kbip.edges), rng.getrandbits(16), pool)


def _invoke(call: Call, g):
    kind, k = call.kind, call.k
    if kind == "density":
        return L.density(g)
    if kind == "orient":
        return L.k_orientation(g, k)
    if kind == "forest":
        return L.forest_decomposition(g)
    if kind == "parden":
        return L.partition_density(g)
    if kind == "peel":
        return L.peel_to_low_partition_density(g, k)
    if kind == "star_arb":
        return L.star_arboricity_exact(g)
    if kind == "cover":
        return L.min_vertex_cover(g)
    if kind == "gallai":
        return L.gallai_edmonds(g)
    if kind == "oddcover":
        return L.odd_set_cover(g)
    if kind == "nu_ell":
        return L.nu_ell(g, k)
    if kind == "structure":
        return L.structure_decomposition(g, k)
    if kind == "pipeline":
        return L.sa_upper_bound_pipeline(g, k)
    raise ValueError(f"unknown call kind {kind!r}")


@dataclass
class Outcome:
    label: str
    args: tuple
    result: object
    error: str | None
    ms: float

    @property
    def key(self) -> str:
        """Where reference.json keeps this call's certificate value."""
        return self.label if self.label.startswith("route.") else str(self.args[1])


def run_certify(inputs: CertifyInputs, cycles: int | None, deadline: float | None,
                speed=None) -> list[Outcome]:
    """The assignment route, then round-robin pool calls until cycles, or until
    the deadline once MIN_QUERIES are done."""
    clock = time.perf_counter
    out: list[Outcome] = []

    def timed(label, record, fn, *args):
        start, cpu = clock(), time.process_time()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a raise is a failed call, checked later
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        out.append(Outcome(label, record, result, error, elapsed * 1000))
        if speed is not None:
            speed.after(elapsed, time.process_time() - cpu)
        return result

    decomposition = importlib.import_module("lapsum.decomposition")
    k = ASSIGNMENT_K
    c = math.ceil(5 * math.log(k) + 20)
    kbip = L.Graph(*inputs.route_graph)
    sd = timed("route.structure", (kbip,), L.structure_decomposition, kbip, k, "assume")
    built = ori = None
    if sd is not None:
        built = timed("route.aux", (kbip,), decomposition.build_assignment_aux, kbip, sd, k)
    if built is not None:
        aux = built[0]
        ori = timed("route.orient", (aux,), L.random_k_orientation, aux, k, inputs.route_seed)
    if ori is not None:
        timed("route.kc", (ori,), L.random_kc_assignment, ori, k, c, inputs.route_seed)
    per_cycle = len(inputs.pool) // CERTIFY_POOL_CYCLES
    limit = None if cycles is None else cycles * per_cycle
    i = 0
    while (limit is None or i < limit) and (
        deadline is None or i < MIN_QUERIES or clock() < deadline
    ):
        index = i % len(inputs.pool)
        call = inputs.pool[index]
        timed(call.kind, (call, index), _invoke, call, call.graph())
        i += 1
    return out


def _edges_inside(g, subset) -> int:
    s = set(subset)
    return sum(1 for u, v in g.edges if u in s and v in s)


def _check_call(call: Call, result) -> list[str]:
    g, k, kind = call.graph(), call.k, call.kind
    problems = []
    if kind == "density":
        subset = result.subset
        if not subset or Fraction(_edges_inside(g, subset), len(subset)) != result.value:
            problems.append("witness ratio differs from the density")
    elif kind == "orient":
        if isinstance(result, L.OrientationInfeasible):
            inside = _edges_inside(g, result.subset)
            if inside != result.edges_inside or inside <= k * len(result.subset):
                problems.append("infeasibility subset has e(U) <= k|U|")
        else:
            indeg = [0] * g.n
            for (u, v), h in zip(g.edges, result.heads):
                if h not in (u, v):
                    problems.append("head is not an endpoint")
                indeg[h] += 1
            if len(result.heads) != g.m or max(indeg, default=0) > k:
                problems.append("in-degree exceeds k")
    elif kind == "forest":
        result.validate(g)
        if g.m and len(result.classes) < -(-g.m // (g.n - 1)):
            problems.append("fewer forests than m/(n-1)")
    elif kind == "parden":
        parts = result.parts
        if sorted(v for p in parts for v in p) != list(range(g.n)):
            problems.append("parts do not partition V")
        biggest = max(len(p) for p in parts)
        value = Fraction(sum(_edges_inside(g, p) for p in parts), biggest)
        if value != result.value or biggest != result.attained_part_size:
            problems.append("partition density differs from its parts")
    elif kind == "peel":
        final, steps = result
        removed = [e for s in steps for e in s.removed_edges]
        if len(set(removed)) != len(removed) or not set(removed) <= g.edge_set:
            problems.append("removed edges are not distinct edges of G")
        if set(final.edges) != g.edge_set - set(removed):
            problems.append("final graph is not G minus the removed edges")
        if any(len(s.removed_edges) < k * s.n_prime for s in steps):
            problems.append("a step removed fewer than k n' edges")
        if L.partition_density(final).value >= k:
            problems.append("final partition density is not below k")
    elif kind == "star_arb":
        sa, sfd = result
        sfd.validate(g)
        if sa != len(sfd.classes) or sa < L.arboricity_value(g)[0]:
            problems.append("star arboricity below arboricity or class count")
    elif kind == "cover":
        if any(u not in result and v not in result for u, v in g.edges):
            problems.append("not a vertex cover")
        if len(result) < L.matching_number(g):
            problems.append("cover smaller than nu")
    elif kind == "gallai":
        D, A, C = result.D, result.A, result.C
        if D | A | C != frozenset(range(g.n)) or D & A or D & C or A & C:
            problems.append("D, A, C do not partition V")
        if A != frozenset(w for v in D for w in g.neighbors(v)) - D:
            problems.append("A != N(D) \\ D")
        count = len(A) + sum((len(c) - 1) // 2 for c in result.d_components) + len(C) // 2
        if count != L.matching_number(g):
            problems.append("Gallai-Edmonds count != nu")
    elif kind == "oddcover":
        if not result.covers(g) or not result.is_disjoint():
            problems.append("odd set cover fails coverage or disjointness")
        if result.weight != L.matching_number(g):
            problems.append("odd set cover weight != nu")
    elif kind == "nu_ell":
        result.validate(g)
    elif kind == "structure":
        result.validate(g)
    elif kind == "pipeline":
        if result.route != "2a":
            problems.append(f"route {result.route} != 2a")
        result.star_classes.validate(g)
        if len(result.star_classes.classes) > 2 * (k + 1):
            problems.append("more than 2(k+1) star forests")
    return problems


def certify_value(label: str, result):
    """The certificate value reference.json stores for one call."""
    if label in ("density", "parden"):
        return str(result.value)
    if label == "orient":
        return "infeasible" if isinstance(result, L.OrientationInfeasible) else "feasible"
    if label == "forest":
        return len(result.classes)
    if label == "peel":
        return [len(result[1]), result[0].m]
    if label == "star_arb":
        return result[0]
    if label == "cover":
        return len(result)
    if label == "gallai":
        return [len(result.D), len(result.A), len(result.C)]
    if label == "oddcover":
        return result.weight
    if label == "nu_ell":
        return result.count
    if label == "structure":
        return [len(result.U), len(result.C), len(result.I)]
    if label == "pipeline":
        return len(result.star_classes.classes)
    if label == "route.structure":
        return [len(result.U), len(result.C), len(result.I)]
    if label == "route.aux":
        return [result[0].n, result[0].m]
    if label == "route.orient":
        return result.max_indegree() <= ASSIGNMENT_K
    if label == "route.kc":
        return isinstance(result[0], L.KCAssignment)
    raise ValueError(label)


def _check_route(outcome: Outcome) -> list[str]:
    label, result, k = outcome.label, outcome.result, ASSIGNMENT_K
    if label == "route.structure":
        result.validate(outcome.args[0])
    elif label == "route.aux":
        aux, _, ori = result
        if ori.base != aux or ori.max_indegree() > k:
            return ["auxiliary orientation exceeds in-degree k"]
    elif label == "route.orient":
        if result.base != outcome.args[0] or result.max_indegree() > k:
            return ["orientation exceeds in-degree k"]
    elif label == "route.kc":
        assignment, tries = result
        if isinstance(assignment, L.KCAssignment):
            assignment.validate(outcome.args[0])
        elif assignment.tries != tries:
            return ["exhausted after a different number of tries than reported"]
    return []


def _check_outcome(outcome: Outcome, expected) -> list[str]:
    if outcome.error is not None:
        return [outcome.error]
    if outcome.label.startswith("route."):
        problems = _check_route(outcome)
    else:
        problems = _check_call(outcome.args[0], outcome.result)
    if expected is not None:
        got = certify_value(outcome.label, outcome.result)
        if got != expected:
            problems.append(f"value {got!r} != reference {expected!r}")
    return problems


def check_certify(outcomes: list[Outcome], checks: Checks, reference, seed: int):
    ref = reference.certify(seed)
    for outcome in outcomes:
        expected = None if ref is None else ref.get(outcome.key)
        checks.guarded(outcome.label, _check_outcome, outcome, expected)
