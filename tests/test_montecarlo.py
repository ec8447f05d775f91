"""Tests for the Monte Carlo simulation harness."""

import pytest

from smpdec import __version__
from smpdec.cli import RESULT_COLUMNS, _render
from smpdec.code import sample_code
from smpdec.de import de_run
from smpdec.galois import build_field
from smpdec.montecarlo import SimResult, StopRule, simulate
from smpdec.smp import XiSchedule


@pytest.fixture(scope="module")
def small_code():
    return sample_code(120, 3, 6, build_field(2), seed=7)


def _fields(res: SimResult) -> tuple:
    return (res.frames_run, res.symbol_errors, res.frame_errors, res.ser,
            res.fer)


def test_noiseless_channel_gives_zero_errors(small_code):
    res = simulate(small_code, 0.0, l_max=5,
                   stop=StopRule(max_frames=3, target_frame_errors=None),
                   seed=1)
    assert res.frames_run == 3
    assert res.symbol_errors == 0 and res.frame_errors == 0
    assert res.ser == 0.0 and res.fer == 0.0


def test_deterministic_across_worker_counts(small_code):
    stop = StopRule(max_frames=6, target_frame_errors=None)
    r1 = simulate(small_code, 0.12, l_max=20, stop=stop, seed=3, workers=1)
    r2 = simulate(small_code, 0.12, l_max=20, stop=stop, seed=3, workers=2)
    assert _fields(r1) == _fields(r2)
    assert r1.symbol_errors > 0


def test_pool_stops_mid_wave_like_one_worker(small_code):
    # the stop lands inside the second two-worker wave of four frames
    stop = StopRule(max_frames=40, target_frame_errors=5)
    r1 = simulate(small_code, 0.12, l_max=15, stop=stop, seed=3, workers=1)
    r2 = simulate(small_code, 0.12, l_max=15, stop=stop, seed=3, workers=2)
    assert _fields(r1) == _fields(r2)
    assert r1.frames_run < 40
    assert r1.frame_errors == 5


def test_simulate_validates_worker_count(small_code):
    # the iteration cap and the seed are refused the same way
    for kwargs, message in (
            ({"workers": 0}, "worker count must be >= 1, got 0"),
            ({"l_max": 0}, "l_max must be positive, got 0"),
            ({"seed": -1}, "seed must be nonnegative, got -1")):
        with pytest.raises(ValueError, match=message):
            simulate(small_code, 0.12, **{"l_max": 20, **kwargs})


@pytest.mark.parametrize("target", [0, -5])
def test_stop_rule_refuses_target_below_one(target):
    # None is the one way to disable the frame-error target
    with pytest.raises(ValueError, match="target_frame_errors"):
        StopRule(max_frames=10, target_frame_errors=target)
    with pytest.raises(ValueError, match="max_frames must be >= 1, got 0"):
        StopRule(max_frames=0)
    assert not StopRule(max_frames=10,
                        target_frame_errors=None).satisfied(9, 9)


def test_stop_rule_frame_errors(small_code):
    res = simulate(small_code, 0.2, l_max=10,
                   stop=StopRule(max_frames=50, target_frame_errors=3),
                   seed=2)
    assert res.frames_run == 3
    assert res.frame_errors == 3


def test_rates_are_consistent(small_code):
    res = simulate(small_code, 0.15, l_max=10,
                   stop=StopRule(max_frames=4, target_frame_errors=None),
                   seed=9)
    n = small_code.n
    assert res.ser == pytest.approx(res.symbol_errors / (res.frames_run * n))
    assert res.fer == pytest.approx(res.frame_errors / res.frames_run)
    assert res.wall_time >= 0.0


def test_default_schedule_matches_explicit_construction(small_code):
    stop = StopRule(max_frames=3, target_frame_errors=None)
    trace = de_run(3, 6, 4, 0.12)
    sched = XiSchedule.from_trace(trace)
    explicit = simulate(small_code, 0.12, l_max=20, schedule=sched,
                        stop=stop, seed=4)
    default = simulate(small_code, 0.12, l_max=20, stop=stop, seed=4)
    assert _fields(explicit) == _fields(default)


def test_noise_coupling_across_epsilons(small_code):
    # Frame randomness depends only on (seed, frame index), so a milder
    # channel flips a subset of the harsher channel's positions and the
    # measured rates are ordered even over a handful of frames.
    stop = StopRule(max_frames=5, target_frame_errors=None)
    mild = simulate(small_code, 0.04, l_max=20, stop=stop, seed=11)
    harsh = simulate(small_code, 0.20, l_max=20, stop=stop, seed=11)
    assert mild.ser <= harsh.ser
    assert harsh.ser > 0.0


def test_sweep_and_csv(small_code):
    stop = StopRule(max_frames=2, target_frame_errors=None)
    rows = []
    for eps in (0.05, 0.15):
        res = simulate(small_code, eps, l_max=10, stop=stop, seed=6)
        rows.append({"epsilon": eps, "frames": res.frames_run,
                     "symbol_errors": res.symbol_errors, "ser": res.ser,
                     "fer": res.fer})
    config = {"command": "simulate", "version": __version__, "options": {}}
    text = _render(config, "csv", rows, RESULT_COLUMNS)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "epsilon,frames,symbol_errors,ser,fer"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.05
    assert int(first[1]) == 2


def test_simulate_validates_epsilon(small_code):
    with pytest.raises(ValueError):
        simulate(small_code, 0.9, l_max=10)
