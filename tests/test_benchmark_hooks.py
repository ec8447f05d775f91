"""The program names the benchmark reads or wraps must exist.

``benchmarks/layers.py`` wraps each function where its caller looks it
up, and the benchmark reads a few result fields. A renamed or removed
target would only surface when the benchmark itself runs; these checks
catch it in the test suite.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import smpdec.channel
import smpdec.de
import smpdec.smp
from smpdec.analysis import find_threshold, table_report
from smpdec.code import sample_code
from smpdec.de import DeTrace, de_run
from smpdec.galois import build_field
from smpdec.montecarlo import SimResult
from smpdec.smp import XiSchedule, decode

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("layers")


def test_every_wrapped_target_is_callable(layers):
    for owner, attr, span, _ in layers.WRAPS:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)


def test_ball_count_cache_can_be_cleared():
    # workloads.Grid.run clears the first before every cell for a cold DE
    # cache; a cold grid pass clears every density-evolution cache
    for cached in (smpdec.de._capped_assignments, smpdec.de._tie_pay,
                   smpdec.de._walk_plan):
        assert callable(cached.cache_clear)


@pytest.mark.parametrize("result_type, name", [
    (SimResult, "symbol_errors"),   # workloads.Decode.run
    (SimResult, "frame_errors"),
    (SimResult, "frames_run"),
    (DeTrace, "iterations_run"),    # layers._de_iterations
])
def test_result_field_read_by_the_benchmark_exists(result_type, name):
    assert name in {f.name for f in dataclasses.fields(result_type)}


def test_vn_update_returns_messages_and_ties(layers):
    smp = next(owner for owner, attr, _, _ in layers.WRAPS
               if attr == "vn_update")
    code = sample_code(12, 3, 6, build_field(2), seed=1)
    mu = np.zeros(code.n * code.dv, dtype=np.int32)
    y = np.zeros(code.n, dtype=np.int32)
    # weight class 2: 1 < w < 2
    result = smp.vn_update(code, mu, y, 2, np.random.default_rng(0))
    assert isinstance(result, tuple) and len(result) == 2
    messages, ties = result
    assert messages.shape == (code.n * code.dv,)
    assert isinstance(ties, int)


def test_table_report_finds_a_wrapped_shannon_limit(monkeypatch):
    # the grid's expected channel.shannon_limit span fires only because
    # table_report looks the name up on smpdec.channel at call time
    calls = []
    shannon_limit = smpdec.channel.shannon_limit

    def counting(*args):
        calls.append(args)
        return shannon_limit(*args)

    monkeypatch.setattr(smpdec.channel, "shannon_limit", counting)
    table_report(3, 5, [2], bisect_tol=1e-2)
    assert calls == [(2, 1.0 - 3 / 5)]


def test_de_steps_are_looked_up_where_the_benchmark_wraps_them(monkeypatch):
    # the grid's expected de.* step spans fire only because de_run looks
    # the steps up as smpdec.de module globals
    calls = {}
    for name in ("cn_step", "vn_step_exact", "vn_step_bounded"):
        def counting(*args, _name=name, _step=getattr(smpdec.de, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _step(*args)
        monkeypatch.setattr(smpdec.de, name, counting)
    find_threshold(3, 5, 2, bisect_tol=1e-2)
    find_threshold(3, 5, 4, bisect_tol=1e-2)
    assert set(calls) == {"cn_step", "vn_step_exact", "vn_step_bounded"}

    # a dv = 3 interval stays a point, so one bounded step per iteration
    calls.clear()
    trace = de_run(3, 6, 4, 0.08, mode="bounded")
    assert trace.iterations_run > 0
    assert calls["vn_step_bounded"] == trace.iterations_run


def test_decoder_steps_are_looked_up_where_the_benchmark_wraps_them(
        monkeypatch):
    # the decode workloads' smp.cn_update and smp.vn_update spans fire
    # only because decode looks the steps up as smpdec.smp module globals
    calls = {}
    for name in ("cn_update", "vn_update"):
        def counting(*args, _name=name, _step=getattr(smpdec.smp, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _step(*args)
        monkeypatch.setattr(smpdec.smp, name, counting)
    code = sample_code(48, 3, 6, build_field(2), seed=1)
    y = np.random.default_rng(5).integers(0, 4, size=code.n)
    result = decode(code, y, 0.3, XiSchedule([0.3]), 8, rng=0)
    # a frame that runs to l_max: the final decision takes its own step
    assert result.iterations == 8
    assert calls == {"cn_update": 8, "vn_update": 7}
