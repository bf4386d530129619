"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

Run from the repository root. For every workload it makes two traced runs
of one seed and one short untraced run, and checks that
- the count metrics in REPEATED read exactly the same in both traced runs;
- every metric in END_TO_END and PER_LAYER is printed, with the unit
  BENCHMARK.json gives it;
- every run passes its output checks.
Exits nonzero and names each problem if any of these fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

REPEATED = (
    "flow.small.calls",
    "flow.large.calls",
    "flow.arcs",
    "decomposition.arboricity.flows_per_call",
    "spectral.kernel_flops_computed",
    "decomposition.kc.tries_per_call",
    "harness.checks",
)
END_TO_END = ("items_per_s", "query_p50_ms", "query_tail_ms", "peak_rss_mb", "setup_s")
PER_LAYER = (
    "graphs.codec.calls", "graphs.codec.s", "graphs.source.s",
    "spectral.calls", "spectral.s", "spectral.kernel_s", "spectral.kernel_flops_computed",
    "bounds.evaluate.calls", "bounds.evaluate.s",
    "harness.s", "harness.graphs", "harness.checks", "harness.equalities_kept_ratio",
    "harness.parallel_efficiency",
    "flow.small.calls", "flow.small.s", "flow.large.calls", "flow.large.s", "flow.arcs",
    *(f"density.{x}.{m}" for x in ("density", "parden", "orient", "peel") for m in ("calls", "s")),
    "density.peel.parden_per_call",
    *(f"matching.{x}.{m}" for x in ("nu", "cover", "gallai", "oddcover", "nu_ell", "hall")
      for m in ("calls", "s")),
    *(f"decomposition.{x}.{m}" for x in ("arboricity", "star_arb", "forest", "structure", "kc")
      for m in ("calls", "s")),
    "decomposition.arboricity.flows_per_call", "decomposition.kc.tries_per_call",
    "decomposition.kc.success_ratio",
    "cli.s", "trace.overhead_ratio", "trace.wall_s",
)
#: seconds of the untraced run; the self-test checks output, not speed
E2E_SECONDS = 4


def run(workload: str, seed: int, trace: int, problems: list[str]) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(E2E_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    label = f"{workload} trace {trace}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        problems.append(f"{label}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
        return {}
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        problems.append(f"{label}: output checks failed: {proc.stderr[-500:]}")
    return result["metrics"]


def check_printed(label, metrics, names, units, problems):
    for name in names:
        unit = metrics.get(name, {}).get("unit")
        if unit is None:
            problems.append(f"{label}: metric {name} not printed")
        elif unit != units.get(name):
            problems.append(f"{label}: {name} unit {unit!r} != {units.get(name)!r}")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    problems: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        first = run(name, args.seed, 1, problems)
        second = run(name, args.seed, 1, problems)
        e2e = run(name, args.seed, 0, problems)
        check_printed(f"{name} trace 1", first, PER_LAYER, units, problems)
        check_printed(f"{name} trace 0", e2e, END_TO_END, units, problems)
        for metric in REPEATED:
            a, b = first.get(metric, {}).get("value"), second.get(metric, {}).get("value")
            if a != b:
                problems.append(f"{name}: {metric} {a} then {b} in two traced runs")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
