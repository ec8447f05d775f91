"""Tests for the q-ary symmetric channel model and related quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import smpdec.channel
from smpdec.galois import build_field
from smpdec.channel import (PROB_FLOOR, WEIGHT_TIE_TOL, ChannelParams,
                            capacity, shannon_limit, transmit, weight_class,
                            weight_D, weight_ratio)


F4 = build_field(2)


# ----------------------------------------------------------------------
# ChannelParams
# ----------------------------------------------------------------------

def test_params_validate_epsilon():
    ChannelParams(F4, 0.0)
    ChannelParams(F4, 0.74)
    with pytest.raises(ValueError):
        ChannelParams(F4, 0.75)
    with pytest.raises(ValueError):
        ChannelParams(F4, -0.01)


# ----------------------------------------------------------------------
# transmit
# ----------------------------------------------------------------------

def test_transmit_noiseless():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, size=1000).astype(np.int32)
    y = transmit(x, ChannelParams(F4, 0.0), np.random.default_rng(1))
    assert np.array_equal(x, y)


def test_transmit_error_statistics():
    n = 1_000_000
    eps = 0.3
    x = np.zeros(n, dtype=np.int32)
    y = transmit(x, ChannelParams(F4, eps), np.random.default_rng(42))
    frac = np.mean(y != 0)
    sigma = math.sqrt(eps * (1 - eps) / n)
    assert abs(frac - eps) < 3 * sigma
    # errors uniform over the other q-1 symbols
    counts = np.bincount(y[y != 0], minlength=4)[1:]
    assert chisquare(counts).pvalue > 1e-4


def test_transmit_deterministic():
    x = np.zeros(500, dtype=np.int32)
    p = ChannelParams(F4, 0.2)
    y1 = transmit(x, p, np.random.default_rng(7))
    y2 = transmit(x, p, np.random.default_rng(7))
    assert np.array_equal(y1, y2)


def test_transmit_errors_differ_from_input():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 4, size=2000).astype(np.int32)
    y = transmit(x, ChannelParams(F4, 0.7), np.random.default_rng(4))
    # wherever the channel flipped, the output is a different symbol
    assert np.all((y == x) | (y != x))  # tautology guard for shape
    flipped = y != x
    assert flipped.any()
    assert np.all(y[flipped] != x[flipped])


@settings(derandomize=True, deadline=None)
@given(m=st.sampled_from((1, 2, 3, 8)), frac=st.floats(0.0, 0.999),
       n=st.integers(1, 4000), seed=st.integers(0, 2**32 - 1))
def test_transmit_flip_rate_within_binomial_bound(m, frac, n, seed):
    field = build_field(m)
    eps = frac * (field.q - 1) / field.q
    x = np.random.default_rng([seed, 1]).integers(0, field.q, size=n,
                                                  dtype=np.int32)
    y = transmit(x, ChannelParams(field, eps), np.random.default_rng(seed))
    flips = int(np.count_nonzero(y != x))
    # flips ~ Binomial(n, eps); six standard deviations plus one symbol
    sd = math.sqrt(n * eps * (1 - eps))
    assert abs(flips - n * eps) <= 6 * sd + 1


# ----------------------------------------------------------------------
# capacity
# ----------------------------------------------------------------------

def test_capacity_endpoints():
    for q in (2, 4, 64):
        assert capacity(q, 0.0) == pytest.approx(1.0)
        assert capacity(q, (q - 1) / q) == pytest.approx(0.0, abs=1e-12)
        for eps in (-1e-12, (q - 1) / q + 1e-12, math.nan):
            with pytest.raises(ValueError, match="epsilon must be in"):
                capacity(q, eps)


def test_capacity_reference_value():
    # rate-1/2 Shannon limit at q=2 is eps ~ 0.110
    assert capacity(2, 0.110) == pytest.approx(0.5, abs=1e-3)


def test_capacity_strictly_decreasing():
    for q in (2, 8, 512):
        eps = np.linspace(0.0, (q - 1) / q, 50)
        vals = [capacity(q, e) for e in eps]
        assert all(a > b for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# weight_D
# ----------------------------------------------------------------------

def test_weight_values():
    assert weight_D(2, 0.1) == pytest.approx(math.log(9))
    assert weight_D(4, 0.25) == pytest.approx(math.log(9))
    assert weight_D(4, 0.75) == pytest.approx(0.0, abs=1e-12)


def test_weight_sign():
    # D > 0 iff p < (q-1)/q
    assert weight_D(8, 0.5) > 0
    assert weight_D(8, 7 / 8 + 0.01) < 0


def test_weight_rejects_out_of_range():
    with pytest.raises(ValueError):
        weight_D(4, 0.0)
    with pytest.raises(ValueError):
        weight_D(4, 1.0)


# ----------------------------------------------------------------------
# shannon_limit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q,rate,expected", [
    (4, 0.4, 0.248),
    (512, 0.4, 0.489),
    (8, 0.5, 0.247),
])
def test_shannon_limit_reference_values(q, rate, expected):
    assert shannon_limit(q, rate) == pytest.approx(expected, abs=1e-3)


def test_shannon_limit_round_trip():
    for q, eps in [(2, 0.1), (4, 0.3), (256, 0.5)]:
        assert shannon_limit(q, capacity(q, eps)) == pytest.approx(eps, abs=1e-6)


def test_shannon_limit_rejects_bad_rate():
    with pytest.raises(ValueError):
        shannon_limit(4, 0.0)
    with pytest.raises(ValueError):
        shannon_limit(4, 1.0)


# ----------------------------------------------------------------------
# weight_ratio
# ----------------------------------------------------------------------

def test_weight_ratio_plain_region():
    assert weight_ratio(4, 0.1, 0.3) == pytest.approx(
        weight_D(4, 0.1) / weight_D(4, 0.3))


def test_weight_ratio_clamps_endpoints():
    # xi = 0 would make the denominator infinite without clamping
    w = weight_ratio(4, 0.1, 0.0)
    assert 0 < w < 1
    # xi is clamped into [1e-12, (q-1)/q - 1e-12] on both sides
    assert w == weight_ratio(4, 0.1, 1e-12)
    assert weight_ratio(4, 0.1, 0.9) == weight_ratio(4, 0.1, 0.75 - 1e-12)
    assert math.isfinite(weight_ratio(4, 0.1, 0.9))
    # eps at the symmetric-channel ceiling still yields a positive weight
    w = weight_ratio(4, 0.75, 0.2)
    assert w > 0


def _class_from_scratch(q: int, eps: float, xi: float, dv: int) -> int:
    """The class of w = D(eps)/D(xi), both D formed anew at the clamped
    ends and a ratio within WEIGHT_TIE_TOL of an integer >= 1 snapped:
    the vote counts 1..dv below w plus those at or below it."""
    lo, hi = PROB_FLOOR, (q - 1) / q - PROB_FLOOR
    w = (weight_D(q, min(max(eps, lo), hi))
         / weight_D(q, min(max(xi, lo), hi)))
    r = round(w)
    if r >= 1 and abs(w - r) <= WEIGHT_TIE_TOL:
        w = float(r)
    return sum((k < w) + (k <= w) for k in range(1, dv + 1))


def _xi_for_weight(q: int, eps: float, w: float) -> float:
    """xi in the clamped range with D(eps) / D(xi) = w, by bisection."""
    target = weight_D(q, max(eps, PROB_FLOOR)) / w
    lo, hi = PROB_FLOOR, (q - 1) / q - PROB_FLOOR
    for _ in range(200):
        mid = (lo + hi) / 2
        if weight_D(q, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@st.composite
def _weight_points(draw):
    """(q, eps, xi, dv): eps = 0 and xi in {0, 1} among them, and xi
    placed so that the weight lies within about 1e-9 of an integer."""
    q = draw(st.integers(2, 512))
    dv = draw(st.integers(2, 20))
    eps = draw(st.one_of(st.just(0.0),
                         st.floats(0.0, (q - 1) / q, exclude_max=True)))
    kind = draw(st.sampled_from(("zero", "one", "any", "near-integral")))
    if kind == "near-integral":
        w = draw(st.integers(1, dv + 1)) * (
            1.0 + draw(st.sampled_from((-2e-9, -1e-9, -5e-10, 0.0, 5e-10,
                                        1e-9, 2e-9))))
        xi = _xi_for_weight(q, eps, w)
    elif kind == "any":
        xi = draw(st.floats(0.0, 1.0))
    else:
        xi = 0.0 if kind == "zero" else 1.0
    return q, eps, xi, dv


@settings(max_examples=300, deadline=None)
@given(_weight_points(), st.floats(0.0, 1.0))
def test_weight_class_with_cached_channel_weight_matches_scratch(point,
                                                                 other_xi):
    q, eps, xi, dv = point
    want = _class_from_scratch(q, eps, xi, dv)
    # D(eps) cached by a weight at another xi, and one at another q
    smpdec.channel._channel_D.cache_clear()
    weight_ratio(q, eps, other_xi)
    weight_ratio(q + 1, eps, xi)
    assert weight_class(weight_ratio(q, eps, xi), dv) == want
    assert smpdec.channel._channel_D.cache_info().hits == 1
    # and formed anew
    smpdec.channel._channel_D.cache_clear()
    assert weight_class(weight_ratio(q, eps, xi), dv) == want
