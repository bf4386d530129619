"""Time exact star arboricity on a seeded grid of dense graphs.

    python3 tools/sa_grid.py [CHECKOUT]

For each n in 7..12 and each m from 2n up to min(C(n, 2),
STAR_ARB_EDGE_CAP), in steps of 2 and always including that largest m,
times ``star_arboricity_exact`` on three seeded uniform G(n, m) graphs.
Prints one line per (n, m) cell with the sa values and the median and
worst time, then the slowest graph and the number of graphs over 1 s.
Imports lapsum from CHECKOUT's ``src/`` (default: this tree), so two
checkouts can be timed on the same graphs.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from itertools import combinations
from pathlib import Path

SEED = 0
PER_CELL = 3
N_RANGE = range(7, 13)


def cells(cap: int):
    for n in N_RANGE:
        top = min(n * (n - 1) // 2, cap)
        ms = list(range(2 * n, top + 1, 2))
        if top >= 2 * n and ms[-1] != top:
            ms.append(top)
        yield from ((n, m) for m in ms)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    src = str(checkout.resolve() / "src")
    sys.path.insert(0, src)
    from lapsum.decomposition import STAR_ARB_EDGE_CAP, star_arboricity_exact
    from lapsum.graphs import graph_from_edges

    print(f"lapsum from {src}; seed {SEED}, {PER_CELL} graphs per cell")
    print(f"{'n':>3} {'m':>3}  {'sa':<10} {'median_s':>9} {'worst_s':>9}")
    slowest, over = (0.0, (0, 0)), 0
    for n, m in cells(STAR_ARB_EDGE_CAP):
        rng = random.Random(f"{SEED}/{n}/{m}")
        pairs = list(combinations(range(n), 2))
        times, sas = [], []
        for _ in range(PER_CELL):
            g = graph_from_edges(n, rng.sample(pairs, m))
            t0 = time.perf_counter()
            sas.append(star_arboricity_exact(g)[0])
            dt = time.perf_counter() - t0
            times.append(dt)
            over += dt > 1.0
            slowest = max(slowest, (dt, (n, m)))
        sa_text = ",".join(map(str, sas))
        print(f"{n:>3} {m:>3}  {sa_text:<10} {statistics.median(times):>9.4f} {max(times):>9.4f}",
              flush=True)
    print(f"slowest graph: {slowest[0]:.3f} s at (n, m) = {slowest[1]}; graphs over 1 s: {over}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
