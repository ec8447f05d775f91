"""The benchmark's frozen decode pools, decoded in the test suite.

``benchmarks/expected.SYMBOL_ERRORS`` freezes the symbol errors of every
pool frame of both decode workloads, and a benchmark run checks each
frame it draws against it. These tests decode pool frames as the
benchmark's one-frame ``simulate`` call does (``_decode_frame`` with
frame index 0), so a change in decoder output fails here without a
benchmark run: every frame of decode-q256-n480-above and the first two
of decode-q4-n60k-below, one converging and one that ends with the
frozen decoder defect. Iteration and tie totals are pinned as well.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from smpdec.channel import ChannelParams, transmit
from smpdec.smp import decode

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("workloads")


def _pool(workloads, name):
    """The workload at full size, its code and schedule built."""
    pool = workloads.make(name, 0, False)
    pool.setup()
    return pool


def _decode_pool_frame(workloads, pool, index):
    s = pool.spec
    seed = workloads.frame_seed(workloads.POOL_SEED, index)
    rng = np.random.default_rng([seed, 0])
    y = transmit(np.zeros(s.n, dtype=np.int32),
                 ChannelParams(pool.code.field, s.eps), rng)
    return decode(pool.code, y, s.eps, pool.schedule, s.l_max, rng=rng)


def test_q256_pool_reproduces_every_frozen_count(workloads):
    pool = _pool(workloads, "decode-q256-n480-above")
    assert len(pool.frozen) == 1000
    iterations = ties = 0
    for index, frozen in enumerate(pool.frozen):
        res = _decode_pool_frame(workloads, pool, index)
        assert np.count_nonzero(res.decided) == frozen, index
        iterations += res.iterations
        ties += sum(res.tie_events)
    assert (iterations, ties) == (8408, 0)


def test_q4_pool_frames_reproduce_their_frozen_counts(workloads):
    pool = _pool(workloads, "decode-q4-n60k-below")
    for index, errors, iterations, ties in [(0, 0, 34, 7327),
                                            (1, 34791, 200, 11903354)]:
        res = _decode_pool_frame(workloads, pool, index)
        assert np.count_nonzero(res.decided) == pool.frozen[index] == errors
        assert res.iterations == iterations
        assert sum(res.tie_events) == ties
