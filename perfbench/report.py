"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the repository root. Each run is its own ``perfbench/run.py``
process, so set-up time and peak memory of one workload never mix with
another's. Prints each run's metrics with units and sample counts, then the
fail rate per workload. Exits nonzero if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[bool, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return False, {}
    return proc.returncode == 0 and result["correct"], result


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    ok = True
    summary = []
    for w in spec["workloads"]:
        attempted = failed = 0
        for trace in (0, 1):
            good, result = run(w["name"], args.seed, args.seconds, trace)
            ok &= good
            attempted += result.get("attempted", 0)
            failed += result.get("failed", 0) if result else 1
        summary.append((w["name"], failed, attempted))
    print("fail_rate per workload (failed checks / checks attempted, both runs):")
    for name, failed, attempted in summary:
        print(f"  {name:14} {failed / max(attempted, 1):.6g}  ({failed} of {attempted})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
