"""The program functions the benchmark's traced runs wrap must exist.

``benchmarks/layers.py`` wraps each function where its caller looks it
up. A renamed or removed target would only surface when the benchmark
itself runs; this check catches it in the test suite.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import smpdec.channel
from smpdec.analysis import table_report
from smpdec.code import sample_code
from smpdec.galois import build_field

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("layers")


def test_every_wrapped_target_is_callable(layers):
    for owner, attr, span, _ in layers.WRAPS:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)


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
