"""The measurements behind ``run.py``: end-to-end and per-layer metrics.

Imported after ``run.py`` has put the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from speed import CPU, WALL, Speed
from tracer import Tracer

#: set-up is timed in pairs of fresh interpreters: one runs SETUP_PROBE, the
#: next REFERENCE_PROBE, which imports only lapsum's compiled dependencies
SETUP_PAIRS = 8
SETUP_PROBE = """
import time
start = time.perf_counter()
import lapsum
lapsum.spectrum(lapsum.make_family("complete:4"))
lapsum.k_orientation(lapsum.make_family("complete:4"), 2)
print(time.perf_counter() - start)
"""
REFERENCE_PROBE = """
import time
start = time.perf_counter()
import numpy, scipy.sparse.csgraph
print(time.perf_counter() - start)
"""
#: reference-probe time that defines the reference speed; a constant, never re-tuned
REFERENCE_NOMINAL_S = 0.3


def _probe(code: str, env: dict) -> float:
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path.cwd(), env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def setup_seconds() -> tuple[float, float]:
    """Set-up time, raw and at reference speed.

    Set-up is imports: file reads, unmarshalling, module bodies and shared
    libraries, whose speed on a shared machine drifts by 30% or more within
    minutes, and which the pure-Python speed kernel tracks poorly. The
    reference probe does the same kind of work without lapsum, so each pair
    gives set-up / reference at one moment. The median of those ratios times
    REFERENCE_NOMINAL_S is reported; the raw value is the median set-up time.
    """
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    setup, ratios = [], []
    for _ in range(SETUP_PAIRS):
        s = _probe(SETUP_PROBE, env)
        setup.append(s)
        ratios.append(s / _probe(REFERENCE_PROBE, env))
    return statistics.median(setup), statistics.median(ratios) * REFERENCE_NOMINAL_S


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus, for a pool, the largest worker's peak
    times the worker count (getrusage reports only the largest child)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def scan_e2e(workload, seed, seconds, workdir, reference, checks):
    """Graphs, batch wall seconds and query CPU ms (each raw and at reference
    speed), and the pool's worker count."""
    inputs = W.scan_inputs(workload, seed, workdir)
    W.warm_up()
    done = W.ScanPass()
    clock = time.perf_counter
    batch_speed = Speed()
    start = clock()
    while True:
        W.run_scan_jobs(inputs, inputs.jobs_count, done, batch_speed)
        if clock() - start >= W.BATCH_SHARE * seconds:
            break
    query_speed = Speed()
    queries_end = clock() + (1 - W.BATCH_SHARE) * seconds
    results = W.run_queries(inputs, None, queries_end, done, query_speed)
    W.check_scan_pass(inputs, done, results, checks, reference, seed)
    workers = inputs.jobs_count if inputs.jobs_count > 1 else 0
    return (
        done.graphs,
        (done.batch_s, sum(batch_speed.scaled(WALL))),
        _ms(query_speed, CPU),
        workers,
    )


def _ms(speed: Speed, clock: int) -> tuple[list[float], list[float]]:
    return [s * 1000 for s in speed.raw(clock)], [s * 1000 for s in speed.scaled(clock)]


def certify_e2e(seed, seconds, reference, checks):
    inputs = W.certify_inputs(seed)
    W.warm_up()
    speed = Speed()
    outcomes = W.run_certify(inputs, None, time.perf_counter() + seconds, speed)
    W.check_certify(outcomes, checks, reference, seed)
    busy_s = (sum(o.ms for o in outcomes) / 1000, sum(speed.scaled(WALL)))
    return len(outcomes), busy_s, _ms(speed, CPU), 0


def end_to_end(workload, seed, seconds, workdir, reference, checks):
    """End-to-end metrics (timings at reference speed), raw values, sample counts."""
    if workload == "certify":
        items, busy_s, query_ms, workers = certify_e2e(seed, seconds, reference, checks)
    else:
        items, busy_s, query_ms, workers = scan_e2e(
            workload, seed, seconds, workdir, reference, checks
        )
    count = len(query_ms[0])
    beyond = count - W.percentile_rank(count, W.TAIL_PERCENTILE)
    checks.record(
        "query_tail_ms sample count",
        [] if beyond >= W.TAIL_BEYOND else [f"{beyond} samples beyond the tail percentile"],
    )
    rss = peak_rss_mb(workers)  # before the set-up probes become children
    setup = setup_seconds()
    values, raw = (
        {
            "items_per_s": items / busy_s[i],
            "query_p50_ms": statistics.median(query_ms[i]),
            "query_tail_ms": W.percentile(query_ms[i], W.TAIL_PERCENTILE),
            "peak_rss_mb": rss,
            "setup_s": setup[i],
        }
        for i in (1, 0)
    )
    samples = {
        "items_per_s": items,
        "query_p50_ms": len(query_ms[0]),
        "query_tail_ms": len(query_ms[0]),
        "setup_s": SETUP_PAIRS,
    }
    return values, raw, samples


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _scan_fixed_pass(inputs, jobs):
    done = W.ScanPass()
    W.run_scan_jobs(inputs, jobs, done)
    results = W.run_queries(inputs, W.TRACED_QUERIES, None, done)
    return done, results


def scan_traced(workload, seed, workdir, reference, checks):
    inputs = W.scan_inputs(workload, seed, workdir)
    W.warm_up()
    (plain, _), before_s = _timed(_scan_fixed_pass, inputs, 1)
    tracer = Tracer()
    with tracer:
        (traced, traced_q), traced_s = _timed(_scan_fixed_pass, inputs, 1)
    (plain_after, _), after_s = _timed(_scan_fixed_pass, inputs, 1)
    parallel = W.ScanPass()
    W.run_scan_jobs(inputs, 2, parallel)
    W.check_scan_pass(inputs, traced, traced_q, checks, reference, seed)
    W.check_scan_pass(inputs, parallel, [], checks, reference, seed)
    for (job, _, text1), (_, _, text2) in zip(traced.reports, parallel.reports):
        same = W.report_fields(text1) == W.report_fields(text2)
        checks.record(f"jobs-1 traced vs jobs-2 {job.name}", [] if same else ["reports differ"])
    texts = [t for _, _, t in traced.reports] + [t for _, _, t in traced_q]
    reports = [json.loads(t) for t in texts]
    kept = sum(len(r["equalities"]) for r in reports)
    counted = sum(r["totals"]["equalities"] for r in reports)
    harness = {
        "harness.graphs": sum(r["totals"]["graphs"] for r in reports),
        "harness.checks": sum(r["totals"]["checks"] for r in reports),
        "harness.equalities_kept_ratio": kept / counted if counted else 0.0,
        "harness.parallel_efficiency": (plain.batch_s + plain_after.batch_s)
        / (4 * parallel.batch_s),
    }
    return tracer, harness, traced_s, (before_s + after_s) / 2


def certify_traced(seed, reference, checks):
    inputs = W.certify_inputs(seed)
    W.warm_up()
    _, before_s = _timed(W.run_certify, inputs, W.TRACED_CERTIFY_CYCLES, None)
    tracer = Tracer()
    with tracer:
        outcomes, traced_s = _timed(W.run_certify, inputs, W.TRACED_CERTIFY_CYCLES, None)
    _, after_s = _timed(W.run_certify, inputs, W.TRACED_CERTIFY_CYCLES, None)
    W.check_certify(outcomes, checks, reference, seed)
    harness = {
        "harness.graphs": 0,
        "harness.checks": 0,
        "harness.equalities_kept_ratio": 0.0,
        "harness.parallel_efficiency": 0.0,
    }
    return tracer, harness, traced_s, (before_s + after_s) / 2


def per_layer(workload, seed, workdir, reference, checks):
    if workload == "certify":
        tracer, values, traced_s, plain_s = certify_traced(seed, reference, checks)
    else:
        tracer, values, traced_s, plain_s = scan_traced(
            workload, seed, workdir, reference, checks
        )
    t = tracer

    def ratio(num, den):
        return num / den if den else 0.0

    values.update({
        "graphs.codec.calls": t.count("graphs.codec"),
        "graphs.codec.s": t.seconds("graphs.codec"),
        "graphs.source.s": t.seconds("graphs.source"),
        "spectral.calls": t.count("spectral"),
        "spectral.s": t.seconds("spectral"),
        "spectral.kernel_s": t.seconds("spectral.kernel"),
        "spectral.kernel_flops_computed": t.kernel_flops,
        "bounds.evaluate.calls": t.count("bounds.evaluate"),
        "bounds.evaluate.s": t.seconds("bounds.evaluate"),
        "harness.s": t.seconds("harness"),
        "flow.small.calls": t.count("flow.small"),
        "flow.small.s": t.seconds("flow.small"),
        "flow.large.calls": t.count("flow.large"),
        "flow.large.s": t.seconds("flow.large"),
        "flow.arcs": t.flow_arcs,
        "density.peel.parden_per_call": ratio(
            t.nested[("density.peel", "density.parden")], t.count("density.peel")
        ),
        "decomposition.arboricity.flows_per_call": ratio(
            t.nested[("decomposition.arboricity", "flow")],
            t.count("decomposition.arboricity"),
        ),
        "decomposition.kc.tries_per_call": ratio(t.kc_tries, t.count("decomposition.kc")),
        "decomposition.kc.success_ratio": ratio(t.kc_found, t.kc_tries),
        "cli.s": t.seconds("cli"),
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.wall_s": traced_s,
    })
    for layer in (
        "density.density", "density.parden", "density.orient", "density.peel",
        "matching.nu", "matching.cover", "matching.gallai", "matching.oddcover",
        "matching.nu_ell", "matching.hall",
        "decomposition.arboricity", "decomposition.star_arb", "decomposition.forest",
        "decomposition.structure", "decomposition.kc",
    ):
        values[f"{layer}.calls"] = t.count(layer)
        values[f"{layer}.s"] = t.seconds(layer)
    return values, {}, {}
