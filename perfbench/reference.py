"""Reference outputs of the benchmark workloads for the reference seed.

``reference.json`` holds, for seed 0, the deterministic scan report fields
of every whole-source scan and the certificate value of every certify call.
Every run compares against it: sources that do not depend on the seed (the
exhaustive ones) on every seed, the seeded inputs only on seed 0. Integer
fields must match exactly; ``min_slack`` and ``max_eps_over_k2`` match
within ``tol`` (relative, floored at 1.0), so last-bit eigenvalue drift is
not a failure while any changed count is.

Regenerate only when the benchmark's inputs change, never to make a run pass:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"
SEED = 0
TOL = 1e-9


class Reference:
    def __init__(self, path: Path = PATH):
        self.data = json.loads(path.read_text())
        self.tol = self.data["tol"]

    def scan(self, job, seed: int):
        if job.seed_dependent and seed != self.data["seed"]:
            return None
        return self.data["scans"].get(job.name)

    def certify(self, seed: int):
        return self.data["certify"] if seed == self.data["seed"] else None


def build() -> dict:
    import tempfile

    import workloads as W

    scans = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for workload in ("scan-theorem", "scan-brouwer"):
            inputs = W.scan_inputs(workload, SEED, Path(tmp))
            for job in inputs.jobs:
                code, text = W.run_cli(job.argv(1))
                rep = W.report_fields(text)
                problems = W.check_scan_report(job, code, rep)
                if problems:
                    raise SystemExit(f"error: {job.name}: {problems}")
                scans[job.name] = W.reference_fields(rep)
    inputs = W.certify_inputs(SEED)
    outcomes = W.run_certify(inputs, W.CERTIFY_POOL_CYCLES, None)
    certify = {}
    for outcome in outcomes:
        if outcome.error is not None:
            raise SystemExit(f"error: {outcome.label}: {outcome.error}")
        certify[outcome.key] = W.certify_value(outcome.label, outcome.result)
    return {"seed": SEED, "tol": TOL, "scans": scans, "certify": certify}


if __name__ == "__main__":
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    PATH.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
