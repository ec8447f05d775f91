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
from smpdec.analysis import table_report
from smpdec.code import sample_code
from smpdec.de import DeTrace
from smpdec.galois import build_field
from smpdec.montecarlo import SimResult

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("layers")


def test_every_wrapped_target_is_callable(layers):
    for owner, attr, span, _ in layers.WRAPS:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)


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
    result = smp.vn_update(code, mu, y, 0.1, 0.2, np.random.default_rng(0))
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
