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

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelParams, transmit
from .code import CodeGraph
from .de import de_run
from .smp import XiSchedule, decode

#: Worker count used when neither the ``workers`` argument nor the
#: SMPDEC_WORKERS environment variable is set.
DEFAULT_WORKERS = 1


@dataclass(frozen=True)
class StopRule:
    """When to stop accumulating frames.

    The run ends at the first frame index where ``max_frames`` frames
    have run or, unless it is None, ``target_frame_errors`` frames have
    failed.  The defaults aim at roughly 10% relative accuracy on the
    frame error rate without an unbounded run.
    """

    max_frames: int = 10_000
    target_frame_errors: int | None = 100

    def __post_init__(self) -> None:
        if self.max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {self.max_frames}")

    def satisfied(self, frames: int, frame_errors: int) -> bool:
        if frames >= self.max_frames:
            return True
        return (self.target_frame_errors is not None
                and frame_errors >= self.target_frame_errors)


@dataclass(frozen=True)
class SimResult:
    """Error rate estimates from one simulation point."""

    epsilon: float
    frames_run: int
    symbol_errors: int
    frame_errors: int
    ser: float
    fer: float
    l_max: int
    seed: int
    wall_time: float

    def to_json(self) -> dict:
        return {"epsilon": self.epsilon, "frames": self.frames_run,
                "symbol_errors": self.symbol_errors,
                "frame_errors": self.frame_errors, "ser": self.ser,
                "fer": self.fer, "wall_time": self.wall_time}


def resolve_workers(workers: int | None) -> int:
    """Worker count: explicit argument, else SMPDEC_WORKERS, else 1."""
    if workers is None:
        raw = os.environ.get("SMPDEC_WORKERS")
        if raw is None:
            return DEFAULT_WORKERS
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"SMPDEC_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


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
                  index: int) -> int:
    """Symbol error count of one frame, deterministic in (seed, index)."""
    rng = np.random.default_rng([seed, index])
    zeros = np.zeros(code.n, dtype=np.int32)
    y = transmit(zeros, params, rng)
    result = decode(code, y, params.epsilon, schedule, l_max, rng=rng)
    return int(np.count_nonzero(result.decided))


_WORKER_STATE: tuple | None = None


def _init_worker(code: CodeGraph, params: ChannelParams,
                 schedule: XiSchedule, l_max: int, seed: int) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (code, params, schedule, l_max, seed)


def _worker_frame(index: int) -> int:
    assert _WORKER_STATE is not None
    return _decode_frame(*_WORKER_STATE, index)


def simulate(code: CodeGraph, epsilon: float, l_max: int,
             schedule: XiSchedule | None = None,
             stop: StopRule | None = None, seed: int = 0,
             workers: int | None = None) -> SimResult:
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
    params = ChannelParams(field=code.field, epsilon=epsilon)
    if stop is None:
        stop = StopRule()
    if schedule is None:
        schedule = default_schedule(code.dv, code.dc, code.field.q, epsilon,
                                    l_max)
    nworkers = resolve_workers(workers)

    start = time.perf_counter()
    frames = 0
    frame_errors = 0
    symbol_errors = 0

    def account(errors: int) -> bool:
        nonlocal frames, frame_errors, symbol_errors
        frames += 1
        symbol_errors += errors
        frame_errors += int(errors > 0)
        return stop.satisfied(frames, frame_errors)

    if nworkers == 1:
        for index in range(stop.max_frames):
            if account(_decode_frame(code, params, schedule, l_max, seed,
                                     index)):
                break
    else:
        wave = 2 * nworkers
        with ProcessPoolExecutor(
                max_workers=nworkers, initializer=_init_worker,
                initargs=(code, params, schedule, l_max, seed)) as pool:
            done = False
            next_index = 0
            while not done and next_index < stop.max_frames:
                batch = range(next_index,
                              min(next_index + wave, stop.max_frames))
                futures = [pool.submit(_worker_frame, i) for i in batch]
                next_index = batch.stop
                for fut in futures:
                    if done:
                        fut.cancel()
                    elif account(fut.result()):
                        done = True

    wall = time.perf_counter() - start
    total_symbols = frames * code.n
    return SimResult(
        epsilon=epsilon, frames_run=frames, symbol_errors=symbol_errors,
        frame_errors=frame_errors, ser=symbol_errors / total_symbols,
        fer=frame_errors / frames, l_max=l_max, seed=seed, wall_time=wall,
    )


def sweep(code: CodeGraph, epsilons: Sequence[float], l_max: int,
          stop: StopRule | None = None, seed: int = 0,
          workers: int | None = None) -> list[SimResult]:
    """Simulate each flip probability in turn.

    The same seed is reused at every point, so frame i sees the same
    underlying uniforms everywhere and the noise realizations are
    coupled monotonically across epsilons.
    """
    return [simulate(code, eps, l_max, stop=stop, seed=seed,
                     workers=workers) for eps in epsilons]
