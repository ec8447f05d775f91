"""Monte Carlo estimation of symbol and frame error rates.

Frames are transmissions of the all-zero codeword, which is a codeword
of every labeled graph and, by the coset symmetry of the decoder,
representative of the whole code.  Frame i draws its channel noise and
its tie-break randomness from a generator seeded with (seed, i), so a
run is reproducible frame by frame and independent of how frames are
spread over worker processes.  The stop rule is evaluated in frame
index order; frames decoded beyond the stopping point are discarded.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from .channel import ChannelParams, transmit
from .code import CodeGraph
from .de import de_run
from .smp import XiSchedule, decode


@dataclass(frozen=True)
class StopRule:
    """When to stop accumulating frames.

    The run ends at the first frame index where ``max_frames`` frames
    have run or, unless it is None, ``target_frame_errors`` frames have
    failed; both must be at least 1.  The defaults aim at roughly 10%
    relative accuracy on the frame error rate without an unbounded run.
    """

    max_frames: int = 10_000
    target_frame_errors: int | None = 100

    def __post_init__(self) -> None:
        if self.max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {self.max_frames}")
        if self.target_frame_errors is not None \
                and self.target_frame_errors < 1:
            raise ValueError("target_frame_errors must be >= 1 or None, "
                             f"got {self.target_frame_errors}")

    def satisfied(self, frames: int, frame_errors: int) -> bool:
        if frames >= self.max_frames:
            return True
        return (self.target_frame_errors is not None
                and frame_errors >= self.target_frame_errors)


@dataclass(frozen=True)
class SimResult:
    """Error rate estimates from one simulation point, with the mean and
    the largest number of decoder iterations its frames ran.

    The run's inputs stay with the caller and in the CLI's embedded config.
    """

    frames_run: int
    symbol_errors: int
    frame_errors: int
    ser: float
    fer: float
    iterations_mean: float
    iterations_max: int
    wall_time: float


def default_schedule(dv: int, dc: int, q: int, epsilon: float,
                     l_max: int) -> XiSchedule:
    """Schedule from density evolution at the operating point.

    Uses the lower end of each xi interval; above threshold the
    recursion stalls and the final value repeats, which matches how the
    decoder treats schedules shorter than l_max.
    """
    trace = de_run(dv, dc, q, epsilon, l_max=l_max)
    return XiSchedule.from_trace(trace)


def _decode_frame(code: CodeGraph, params: ChannelParams,
                  schedule: XiSchedule, l_max: int, seed: int,
                  index: int) -> tuple[int, int]:
    """Symbol errors and decoder iterations of one frame, deterministic
    in (seed, index)."""
    rng = np.random.default_rng([seed, index])
    zeros = np.zeros(code.n, dtype=np.int32)
    y = transmit(zeros, params, rng)
    result = decode(code, y, params.epsilon, schedule, l_max, rng=rng)
    return int(np.count_nonzero(result.decided)), result.iterations


def _frame_outcomes(state: tuple, workers: int,
                    max_frames: int) -> Iterator[tuple[int, int]]:
    """``_decode_frame`` outcomes of frames 0, 1, ... in index order.

    ``state`` holds the leading arguments of ``_decode_frame``. With more
    than one worker, frames run in a process pool in waves of two per
    worker: ``Executor.map`` submits every item up front, so one map
    over ``max_frames`` would hold that many futures. Closing the
    iterator cancels the wave's unstarted frames.
    """
    frame = partial(_decode_frame, *state)
    if workers == 1:
        yield from map(frame, range(max_frames))
        return
    wave = 2 * workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for first in range(0, max_frames, wave):
            yield from pool.map(frame,
                                range(first, min(first + wave, max_frames)))


def simulate(code: CodeGraph, epsilon: float, l_max: int,
             schedule: XiSchedule | None = None,
             stop: StopRule | None = None, seed: int = 0,
             workers: int = 1) -> SimResult:
    """Estimate SER and FER at one channel flip probability.

    Results are identical for any worker count: each frame's outcome
    depends only on (seed, frame index) and the stop rule is applied in
    index order.  With more than one worker, frames are decoded in a
    process pool; frames submitted past the stopping point are thrown
    away, so parallel runs trade a little extra compute for latency.
    """
    if l_max < 1:
        raise ValueError(f"l_max must be positive, got {l_max}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    params = ChannelParams(field=code.field, epsilon=epsilon)
    if stop is None:
        stop = StopRule()
    if schedule is None:
        schedule = default_schedule(code.dv, code.dc, code.field.q, epsilon,
                                    l_max)

    start = time.perf_counter()
    frames = frame_errors = symbol_errors = iterations = max_iterations = 0
    state = (code, params, schedule, l_max, seed)
    with closing(_frame_outcomes(state, workers, stop.max_frames)) as runs:
        for errors, its in runs:
            frames += 1
            symbol_errors += errors
            frame_errors += int(errors > 0)
            iterations += its
            max_iterations = max(max_iterations, its)
            if stop.satisfied(frames, frame_errors):
                break

    wall = time.perf_counter() - start
    total_symbols = frames * code.n
    return SimResult(
        frames_run=frames, symbol_errors=symbol_errors,
        frame_errors=frame_errors, ser=symbol_errors / total_symbols,
        fer=frame_errors / frames, iterations_mean=iterations / frames,
        iterations_max=max_iterations, wall_time=wall,
    )
