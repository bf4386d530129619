"""Machine-speed calibration interleaved with the workload.

The CPU speed a process gets on a shared machine drifts by 15-25% over
tens of seconds, and changes within a second, far more than the benchmark's
bounds, and it drifts the same way for lapsum's code and for any other
Python code. So a run times a fixed pure-Python kernel in short slices
between its timed units (one slice per ``EVERY_S`` of measured work, run
after the unit that completes it), and reports each unit's duration scaled
to the speed at which the kernel takes ``NOMINAL_S``, using the ``NEAR``
slices nearest to the unit in time:

    reported = measured * NOMINAL_S / median(kernel times of the NEAR slices)

Units and slices are timed on two clocks: ``WALL`` (``time.perf_counter``)
and ``CPU``, the CPU time of this process's threads (``time.process_time``),
which leaves out the moments they wait for a CPU held by another process.
A duration on one clock is scaled by kernel times on the same clock.

Both sides of a comparison are scaled the same way, so the scaling removes
machine drift but no difference between two versions of lapsum. The raw,
unscaled values are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: kernel time that defines the reference speed; a constant, never re-tuned
NOMINAL_S = 0.004
#: one calibration slice per this much measured work
EVERY_S = 0.1
#: slices timed before the first unit
FIRST_SLICES = 5
#: slices nearest in time to a unit that give its speed (about 0.9 s of work);
#: fewer follow speed changes within a second but are noisier
NEAR = 9
#: the clocks, as indexes into a recorded (midpoint, wall, cpu) triple
WALL, CPU = 1, 2


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic, dict stores, a loop."""
    total = 0
    table = {}
    for i in range(30_000):
        table[i & 255] = total
        total += i * i % 7
    return total


class Speed:
    """Calibration slices and timed units of one phase of a run."""

    def __init__(self):
        self._slices: list[tuple[float, float, float]] = []  # (midpoint, wall, cpu)
        self._units: list[tuple[float, float, float]] = []
        self._owed = 0.0
        self._run(FIRST_SLICES)

    def _run(self, count: int):
        for _ in range(count):
            start, cpu = time.perf_counter(), time.process_time()
            kernel()
            end = time.perf_counter()
            self._slices.append(((start + end) / 2, end - start, time.process_time() - cpu))

    def after(self, seconds: float, cpu_seconds: float):
        """Call right after each timed unit, with its wall and CPU seconds:
        runs the slices it owes."""
        self._units.append((time.perf_counter() - seconds / 2, seconds, cpu_seconds))
        self._owed += seconds
        count = int(self._owed / EVERY_S)
        self._owed -= count * EVERY_S
        self._run(count)

    def raw(self, clock: int) -> list[float]:
        """Each unit's measured seconds on ``clock``, in the order they were timed."""
        return [unit[clock] for unit in self._units]

    def scaled(self, clock: int) -> list[float]:
        """Each unit's seconds on ``clock`` at reference speed, in the order timed."""
        times = [t for t, _, _ in self._slices]
        out = []
        for unit in self._units:
            mid = unit[0]
            k = bisect.bisect_left(times, mid)
            window = range(max(0, k - NEAR), min(len(times), k + NEAR))
            near = sorted(window, key=lambda j: abs(times[j] - mid))[:NEAR]
            kernel_s = statistics.median(self._slices[j][clock] for j in near)
            out.append(unit[clock] * NOMINAL_S / kernel_s)
        return out
