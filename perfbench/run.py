"""lapsum benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the repository root; lapsum is imported from ``src/``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
metrics of BENCHMARK.json, measured untraced; with ``--trace 1`` they are its
per-layer metrics, from a traced pass over a fixed amount of work (so that
every count repeats exactly for one seed) between two untraced passes over the
same work, against whose mean the tracing overhead is reported.
The lines before it give each metric with its unit and sample count, and
every failed output check. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent


def _import_lapsum():
    if not (SRC / "lapsum" / "__init__.py").is_file():
        sys.exit(f"error: no lapsum sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import lapsum

    if Path(lapsum.__file__).resolve().parent != (SRC / "lapsum").resolve():
        sys.exit(f"error: imported lapsum from {lapsum.__file__}, not from {SRC}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_lapsum()
    sys.path.insert(0, str(BENCH))
    import measure
    from reference import Reference
    from workloads import Checks

    reference = Reference()
    checks = Checks()
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metric_spec = spec["per_layer"]
            values, raw, samples = measure.per_layer(
                args.workload, args.seed, workdir, reference, checks
            )
        else:
            metric_spec = spec["end_to_end"]
            values, raw, samples = measure.end_to_end(
                args.workload, args.seed, args.seconds, workdir, reference, checks
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [m["name"] for m in metric_spec if m["name"] not in values]
    if missing:
        sys.exit(f"error: metrics not measured: {', '.join(missing)}")
    failed = len(checks.failures)
    for line in checks.failures[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for m in metric_spec:
        name = m["name"]
        line = f"  {name:42} {values[name]:<14.6g} {m['unit']:6}"
        if name in samples:
            line += f" n={samples[name]}"
        if name in raw and raw[name] != values[name]:
            line += f"  raw {raw[name]:.6g}"
        print(line)
    print(f"  {'fail_rate':42} {failed / max(checks.attempted, 1):<14.6g} "
          f"ratio  ({failed} of {checks.attempted} checks)")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
