"""The benchmark's frozen decode pools, decoded in the test suite.

``benchmarks/expected.SYMBOL_ERRORS`` freezes the symbol errors of every
pool frame of both decode workloads, and a benchmark run checks each
frame it draws against it. These tests decode pool frames as the
benchmark's one-frame ``simulate`` call does (``_decode_frame`` with
frame index 0), so a change in decoder output fails here without a
benchmark run: every frame of decode-q256-n480-above and the first two
of decode-q4-n60k-below, one converging and one that ends with the
frozen decoder defect. Iteration and tie totals are pinned as well, and
a SHA-256 digest over each pool's ``decided``, ``tie_events`` and
``iterations`` freezes the decoder's output bit for bit.
"""

import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest

from smpdec.channel import ChannelParams, transmit
from smpdec.smp import decode

#: Digests of every q256 pool frame and of q4 pool frames 0 and 1, in
#: frame order (``_fold``).
Q256_DIGEST = ("4a91fe62d08b2ed1fd5cbb465164fb46"
               "4dd7de9f8fae993a67c9b366de89d3ec")
Q4_DIGEST = ("e6c75a90e521a55bdc385a247b83382c"
             "79d89c552b7e23b34a4f8443e39d04f1")

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


def _fold(digest, res):
    """Feed a frame's decisions, then its tie counts and iterations (the
    tie counts always number l_max), into ``digest``."""
    digest.update(res.decided.astype(np.int32).tobytes())
    digest.update(np.array(res.tie_events + (res.iterations,),
                           dtype=np.int64).tobytes())


def test_q256_pool_reproduces_every_frozen_count(workloads):
    pool = _pool(workloads, "decode-q256-n480-above")
    assert len(pool.frozen) == 1000
    iterations = ties = 0
    digest = hashlib.sha256()
    for index, frozen in enumerate(pool.frozen):
        res = _decode_pool_frame(workloads, pool, index)
        assert np.count_nonzero(res.decided) == frozen, index
        iterations += res.iterations
        ties += sum(res.tie_events)
        _fold(digest, res)
    assert (iterations, ties) == (8408, 0)
    assert digest.hexdigest() == Q256_DIGEST


def test_q4_pool_frames_reproduce_their_frozen_counts(workloads):
    pool = _pool(workloads, "decode-q4-n60k-below")
    digest = hashlib.sha256()
    for index, errors, iterations, ties in [(0, 0, 34, 7327),
                                            (1, 34791, 200, 11903354)]:
        res = _decode_pool_frame(workloads, pool, index)
        assert np.count_nonzero(res.decided) == pool.frozen[index] == errors
        assert res.iterations == iterations
        assert sum(res.tie_events) == ties
        _fold(digest, res)
    assert digest.hexdigest() == Q4_DIGEST
