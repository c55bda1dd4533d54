"""An interleaved CPU-speed probe, to rescale wall times to a reference speed.

On a shared host the single-thread speed of this process drifts by 15-50%
within seconds to minutes, because other tenants load the same cores; the
process keeps its CPU but the CPU gets slower.  Wall times taken minutes apart
then differ by more than any change worth measuring.

`SpeedProbe` times a fixed interpreter-bound kernel from a SIGALRM handler every
`PERIOD_S` seconds.  The handler runs on the workload's own thread, between
its bytecodes, so each tick sees the speed the workload sees at that moment.
`SpeedProbe.scaled` takes the wall time of some regions, less the probe's
own time inside them, and multiplies it by the mean speed of the ticks inside
them, where a tick's speed is `REFERENCE_KERNEL_S / kernel time`.  The result
is the time the regions would take at the reference speed.  A tick that was
pre-empted only lowers the mean by its share of the ticks.

The handler touches nothing of the workload, so the workload's outputs do not
change (run.py checks that the reports of every worker agree byte for byte).
"""

from __future__ import annotations

import random
import signal
from math import gcd
from time import perf_counter

PERIOD_S = 0.05
# About the kernel's median time, interleaved with the workloads, on an idle
# 2-vCPU Intel Xeon sandbox with Python 3.11 (0.70-0.80 ms); scaled times are
# close to wall times there.
REFERENCE_KERNEL_S = 0.8e-3


def _mix(i: int, acc: int) -> int:
    return (i * 31 + acc) & 1023


def kernel() -> int:
    """Two halves of about equal time.  The first makes Python calls, builds
    tuples, updates a dict and draws from a C-level generator; the second does
    big-integer arithmetic with gcd reductions, as Fraction sums do.  Together
    they tracked the workloads' slowdowns better than either half alone."""
    rng = random.Random(5)
    table = {}
    acc = 0
    for i in range(600):
        key = (_mix(i, acc) & 127, int(rng.random() * 8))
        table[key] = table.get(key, 0) + 1
        acc = (acc + len(table) + key[1]) % 1000003
    for _ in range(16):
        a, b = 1, 1
        for i in range(1, 220):
            a, b = a * i + b, b * (i + 1)
            g = gcd(a, b)
            a //= g
            b //= g
        acc ^= a & 1023
    return acc


class SpeedProbe:
    def __init__(self) -> None:
        self.ticks: list = []       # (start, kernel seconds, handler seconds)
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.ticks.append((t0, t1 - t0, perf_counter() - t0))

    def scaled(self, regions) -> tuple:
        """(wall seconds less the probe's time, seconds at the reference
        speed, ticks used) over `regions`, a list of (start, end) pairs.
        Regions without a tick of their own use every tick of the probe."""
        inside = [t for t in self.ticks
                  if any(a <= t[0] < b for a, b in regions)]
        wall = sum(b - a for a, b in regions) - sum(t[2] for t in inside)
        used = inside or self.ticks
        if not used:
            raise RuntimeError("the speed probe has not ticked")
        speed = sum(REFERENCE_KERNEL_S / t[1] for t in used) / len(used)
        return wall, wall * speed, len(inside)
