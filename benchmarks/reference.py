"""A fixed reference kernel that tracks the machine's current speed.

On a shared machine the same Python code runs up to ~1.7x slower at
some times than at others (measured on a 2-vCPU Xeon guest, with the
process on CPU the whole time), and the slowdown differs between kinds
of code. The kernel never changes and mixes both kinds the program
runs: numpy array work with a tight loop, like the vectorized decoder,
and Python calls with dict and float work, like density evolution.
Timed alone, either half over- or under-corrected one of the workloads.
An operation's time divided by the kernel's time measured around it is
free of most of the drift; multiplied by NOMINAL_S it reads as seconds
at the kernel's nominal speed. This held for decode-q256-n480-above and
threshold-grid, whose run-to-run spread it cut about threefold, but not
for the memory-bound frames of decode-q4-n60k-below or for the set-up
times, whose drift did not follow the kernel's; they keep the wall
clock.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

#: Kernel runs per calibration (their median is used), and the least
#: time between calibrations during a run.
REPS = 3
EVERY_S = 0.5

#: The kernel's time on the machine the first baseline was recorded on.
#: A fixed scale: changing it rescales every result.
NOMINAL_S = 0.0062

_INPUT = np.arange(1 << 16, dtype=np.int64) * 2654435761 % 1_000_003


def _step(a: int, b: int) -> int:
    return (a * 31 + b) % 1_000_003


def _kernel() -> None:
    x = int(np.sort((_INPUT * 7 + 3) % 65521)[::97].sum())
    for i in range(12_000):
        x = (x * 31 + i) % 1_000_003
    table = {}
    for i in range(7_000):
        x = _step(x, i)
        table[i & 255] = math.log1p(x) * 0.5
        x += int(table.get((i * 7) & 255, 1.0))


def seconds() -> float:
    """Median time of the kernel over REPS runs."""
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def normalize(ops: list, spans: list, ref_at: list, ref_s: list) -> list:
    """Each operation's seconds at nominal speed.

    ``spans`` holds each operation's (start, end); ``ref_at`` and
    ``ref_s`` the start times and results of the calibrations, which
    bracket every operation. The local speed is the mean of the last
    calibration before the operation and the first one after it.
    """
    out = []
    for (_, t, _), (start, end) in zip(ops, spans):
        before = bisect.bisect_right(ref_at, start) - 1
        after = bisect.bisect_left(ref_at, end)
        out.append(t * NOMINAL_S * 2 / (ref_s[before] + ref_s[after]))
    return out
