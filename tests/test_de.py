"""Tests for density evolution.

Oracles here are deliberately naive: direct enumeration over summand
tuples, channel outputs, message patterns and ball assignments. They
share no code with the implementation under test.
"""

import dataclasses
import itertools
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smpdec.channel import weight_class, weight_D, weight_ratio
from smpdec.de import (DELTA_CONV, BoundedProb, IterationRecord, _binom_pmf,
                       _xi_bounds, cn_step, de_run, multinomial_max_cdf,
                       multinomial_max_eq_count_dist, resolve_mode,
                       vn_step_bounded, vn_step_exact)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def psi_oracle(j: int, target_zero: bool, q: int) -> float:
    """P(j uniform nonzero symbols XOR to 0) or to a fixed nonzero value."""
    target = 0 if target_zero else 1
    hits = 0
    for tup in itertools.product(range(1, q), repeat=j):
        acc = 0
        for v in tup:
            acc ^= v
        hits += acc == target
    return hits / (q - 1) ** j


def cn_oracle_omega0(p0: float, dc: int, q: int) -> float:
    """P(XOR of dc-1 iid messages is 0), messages correct w.p. p0."""
    total = 0.0
    for tup in itertools.product(range(q), repeat=dc - 1):
        prob = 1.0
        acc = 0
        for v in tup:
            prob *= p0 if v == 0 else (1 - p0) / (q - 1)
            acc ^= v
        if acc == 0:
            total += prob
    return total


def compositions(s: int, k: int):
    """All tuples of k nonnegative integers summing to s."""
    if k == 1:
        yield (s,)
        return
    for first in range(s + 1):
        for rest in compositions(s - first, k - 1):
            yield (first,) + rest


def max_cdf_oracle(k: int, s: int, t: int) -> float:
    total = 0.0
    for comp in compositions(s, k):
        if max(comp) <= t:
            weight = math.factorial(s)
            for c in comp:
                weight //= math.factorial(c)
            total += weight
    return total / k ** s


def eq_count_oracle(k: int, s: int, t: int) -> dict[int, float]:
    """P(exactly r cells hold t balls and every other cell holds < t)."""
    out: dict[int, float] = {}
    for comp in compositions(s, k):
        r = sum(c == t for c in comp)
        if any(c > t for c in comp):
            continue
        weight = math.factorial(s)
        for c in comp:
            weight //= math.factorial(c)
        out[r] = out.get(r, 0.0) + weight / k ** s
    return out


def vn_oracle(xi: float, epsilon: float, dv: int, q: int) -> float:
    """Brute force over channel classes, message patterns and tie sets.

    Scores are f_b + w for b = y and f_b otherwise; the outgoing message
    is a uniform pick from the argmax set. Returns P(message = 0 | sent 0).
    """
    w = weight_D(q, epsilon) / weight_D(q, xi)
    total = 0.0
    for y, y_weight in [(0, 1 - epsilon), (1, epsilon)]:
        # y = 1 stands for all q-1 wrong observations by symmetry
        for pattern in itertools.product(range(q), repeat=dv - 1):
            prob = 1.0
            for v in pattern:
                prob *= (1 - xi) if v == 0 else xi / (q - 1)
            scores = [0.0] * q
            for v in pattern:
                scores[v] += 1.0
            scores[y] += w
            top = max(scores)
            tie = [b for b in range(q) if abs(scores[b] - top) <= 1e-9]
            if 0 in tie:
                total += y_weight * prob / len(tie)
    return total


def gallager_b_step_oracle(xi: float, epsilon: float, dv: int) -> float:
    """Closed-form q=2 recursion: keep y unless enough votes disagree.

    With f wrong votes out of dv-1, the kept/flipped decision compares
    (dv-1-f) + w against f when y is correct, and dv-1-f against f + w
    when y is wrong; equality splits 1/2.
    """
    w = weight_D(2, epsilon) / weight_D(2, xi)

    def halfstep(margin: float) -> float:
        if margin > 1e-9:
            return 1.0
        if margin < -1e-9:
            return 0.0
        return 0.5

    p_correct = 0.0
    for f in range(dv):
        pf = math.comb(dv - 1, f) * xi ** f * (1 - xi) ** (dv - 1 - f)
        p_correct += (1 - epsilon) * pf * halfstep((dv - 1 - f) + w - f)
        p_correct += epsilon * pf * halfstep((dv - 1 - f) - f - w)
    return p_correct


def solve_eps_for_integral_w(xi: float, q: int, w_target: float) -> float:
    """Find eps with D(eps) = w_target * D(xi) by bisection."""
    target = w_target * weight_D(q, xi)
    lo, hi = 1e-12, (q - 1) / q - 1e-12
    for _ in range(200):
        mid = (lo + hi) / 2
        if weight_D(q, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ----------------------------------------------------------------------
# psi(j, 0, q): the chance that j uniform nonzero symbols sum to zero,
# i.e. that a check vote with exactly j wrong inputs is correct. It is
# cn_step(0.0, j + 1, q), where all j inputs are wrong, and for j = 0
# cn_step(1.0, 2, q), where the one input is correct.
# ----------------------------------------------------------------------

def _psi_zero(j: int, q: int) -> float:
    return cn_step(0.0, j + 1, q) if j else cn_step(1.0, 2, q)


def test_psi_trivial_cases():
    assert _psi_zero(0, 4) == pytest.approx(1.0)
    assert _psi_zero(1, 8) == pytest.approx(0.0)
    assert _psi_zero(2, 4) == pytest.approx(1 / 3)


def test_psi_gf8_three_summands():
    assert cn_step(0.0, 4, 8) == pytest.approx((1 / 8) * (1 - 1 / 49))
    assert cn_step(0.0, 4, 8) == pytest.approx(psi_oracle(3, True, 8))
    # a wrong vote is uniform over the q - 1 nonzero sums
    assert (1 - cn_step(0.0, 4, 8)) / 7 == pytest.approx(
        (1 / 8) * (1 + 1 / 343))
    assert (1 - cn_step(0.0, 4, 8)) / 7 == pytest.approx(
        psi_oracle(3, False, 8))


@pytest.mark.parametrize("q", [2, 4, 8])
@pytest.mark.parametrize("j", range(5))
def test_psi_matches_enumeration(q, j):
    omega0 = _psi_zero(j, q)
    assert omega0 == pytest.approx(psi_oracle(j, True, q), abs=1e-12)
    assert (1 - omega0) / (q - 1) == pytest.approx(psi_oracle(j, False, q),
                                                   abs=1e-12)


@pytest.mark.parametrize("q", [2, 4, 8, 256])
def test_psi_normalization(q):
    # j + 1 nonzero symbols sum to zero iff the first j sum to the
    # negation of the last one: psi(j + 1, 0) = (1 - psi(j, 0)) / (q - 1)
    for j in range(21):
        assert _psi_zero(j + 1, q) == pytest.approx(
            (1 - _psi_zero(j, q)) / (q - 1), abs=1e-12)


# ----------------------------------------------------------------------
# cn_step
# ----------------------------------------------------------------------

def test_cn_step_endpoints():
    assert cn_step(1.0, 6, 4) == pytest.approx(1.0)
    assert cn_step(0.25, 5, 4) == pytest.approx(0.25, abs=1e-12)


def test_cn_step_matches_enumeration():
    for p0, dc, q in [(0.9, 5, 4), (0.7, 4, 8), (0.85, 5, 2), (0.6, 3, 4)]:
        assert cn_step(p0, dc, q) == pytest.approx(cn_oracle_omega0(p0, dc, q),
                                                   abs=1e-12)


def test_cn_step_matches_closed_form():
    # omega0 = 1/q + (q-1)/q * g^(dc-1) with g = (q*p0 - 1)/(q - 1)
    for p0, dc, q in [(0.95, 6, 4), (0.5, 10, 8), (0.99, 12, 256)]:
        g = (q * p0 - 1) / (q - 1)
        closed = 1 / q + (q - 1) / q * g ** (dc - 1)
        assert cn_step(p0, dc, q) == pytest.approx(closed, abs=1e-12)


def test_xi_bounds_enclose_cn_step_across_g_zero():
    # odd dc: omega0 is an even power of g = (q p0 - 1)/(q - 1), so on a
    # p0 interval with q p_lo < 1 < q p_up its minimum 1/q lies inside
    for dc, q, p_lo, p_up in [(5, 4, 0.1, 0.6), (7, 8, 0.05, 0.3),
                              (3, 64, 0.001, 0.9)]:
        xi_lo, xi_up = _xi_bounds(p_lo, p_up, dc, q)
        assert xi_up == 1.0 - 1.0 / q
        scan = [1.0 - cn_step(p_lo + (p_up - p_lo) * i / 2000, dc, q)
                for i in range(2001)]
        assert xi_lo <= min(scan) and max(scan) <= xi_up, (dc, q)


# ----------------------------------------------------------------------
# multinomial maximum
# ----------------------------------------------------------------------

def test_max_cdf_trivial():
    assert multinomial_max_cdf(3, 0, 0) == 1.0
    assert multinomial_max_cdf(3, 2, 1) == pytest.approx(2 / 3)
    assert multinomial_max_cdf(2, 4, 2) == pytest.approx(6 / 16)
    assert multinomial_max_cdf(4, 9, 2) == 0.0  # k*t < s
    assert multinomial_max_cdf(0, 2, 5) == 0.0  # no cell to hold a ball


def test_max_cdf_matches_enumeration():
    for k in range(1, 6):
        for s in range(0, 9):
            for t in range(0, 9):
                got = multinomial_max_cdf(k, s, t)
                assert got == pytest.approx(max_cdf_oracle(k, s, t), abs=1e-12), \
                    (k, s, t)


def test_max_cdf_nondecreasing_in_t():
    for k, s in [(3, 5), (5, 8)]:
        vals = [multinomial_max_cdf(k, s, t) for t in range(s + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_eq_count_dist_small_cases():
    dist = multinomial_max_eq_count_dist(3, 2, 1)
    assert dist[2] == pytest.approx(2 / 3)
    assert dist[0] == pytest.approx(0.0)
    assert dist[1] == pytest.approx(0.0)
    # one cell holding all s balls
    for k, s in [(3, 2), (4, 3)]:
        dist = multinomial_max_eq_count_dist(k, s, s)
        assert dist[1] == pytest.approx(k * (1 / k) ** s)


def test_eq_count_dist_matches_enumeration():
    for k, s, t in [(4, 5, 2), (3, 6, 2), (5, 4, 1), (2, 8, 4), (4, 4, 1)]:
        dist = multinomial_max_eq_count_dist(k, s, t)
        oracle = eq_count_oracle(k, s, t)
        for r, p in enumerate(dist):
            assert p == pytest.approx(oracle.get(r, 0.0), abs=1e-12), (k, s, t, r)


def test_eq_count_dist_sums_to_cdf():
    for k, s, t in [(4, 5, 2), (5, 8, 3), (3, 7, 4)]:
        assert sum(multinomial_max_eq_count_dist(k, s, t)) == pytest.approx(
            multinomial_max_cdf(k, s, t), abs=1e-12)


# ----------------------------------------------------------------------
# vn_step_exact
# ----------------------------------------------------------------------

def test_vn_exact_perfect_extrinsic():
    # xi at the clamp floor: dv-1 unanimous correct votes dominate
    for dv, q in [(2, 4), (3, 4), (4, 8)]:
        assert vn_step_exact(0.0, 0.1, dv, q) == pytest.approx(1.0, abs=1e-9)


def test_vn_steps_stay_probabilities_near_a_sure_win():
    # the summed win probability rounds to 1 + 2^-52 here unless clamped
    assert vn_step_exact(1e-6, 0.01, 8, 4) <= 1.0
    assert vn_step_bounded(1e-6, 0.01, 8, 4).upper <= 1.0


def test_vn_exact_reference_point_matches_brute_force():
    got = vn_step_exact(0.3, 0.12, 3, 4)
    assert got == pytest.approx(vn_oracle(0.3, 0.12, 3, 4), abs=1e-12)


@pytest.mark.parametrize("dv,q", [(2, 4), (3, 4), (3, 8), (4, 4), (5, 4)])
def test_vn_exact_matches_brute_force_grid(dv, q):
    for xi in (0.05, 0.2, 0.45):
        for eps in (0.03, 0.12, 0.3):
            got = vn_step_exact(xi, eps, dv, q)
            want = vn_oracle(xi, eps, dv, q)
            assert got == pytest.approx(want, abs=1e-12), (dv, q, xi, eps)


def test_vn_exact_integral_weight_ties():
    # engineered so D(eps) = 2 D(xi): channel vote ties two check votes
    for dv, q in [(3, 4), (4, 4), (4, 8), (6, 4)]:
        xi = 0.3
        eps = solve_eps_for_integral_w(xi, q, 2)
        got = vn_step_exact(xi, eps, dv, q)
        want = vn_oracle(xi, eps, dv, q)
        assert got == pytest.approx(want, abs=1e-10), (dv, q)


@pytest.mark.parametrize("q", [4, 8])
@pytest.mark.parametrize("dv", [2, 3, 4, 5])
def test_vn_steps_match_brute_force_in_every_weight_class(dv, q):
    # below 1, every gap (k, k + 1), every integral weight up to dv and
    # two weights past it, one integral; below dv = 6 the bounded step
    # pays every tie exactly, so both its ends meet the oracle too
    xi = 0.3
    targets = [(0.5, 0)] + [(k + 0.5, 2 * k) for k in range(1, dv)]
    targets += [(k, 2 * k - 1) for k in range(1, dv + 1)]
    targets += [(dv + 0.5, 2 * dv), (dv + 1, 2 * dv)]
    for w, w_class in targets:
        eps = solve_eps_for_integral_w(xi, q, w)
        assert weight_class(weight_ratio(q, eps, xi), dv) == w_class, w
        want = vn_oracle(xi, eps, dv, q)
        bound = vn_step_bounded(xi, eps, dv, q)
        for got in (vn_step_exact(xi, eps, dv, q), bound.lower, bound.upper):
            assert got == pytest.approx(want, abs=1e-12), (w, got, want)


def test_binom_pmf_log_space_matches_direct_product():
    # the direct product is still finite at n = 600
    n = 600
    for j, p in ((0, 0.001), (300, 0.5), (17, 0.03), (599, 0.999)):
        want = math.comb(n, j) * p ** j * (1 - p) ** (n - j)
        assert _binom_pmf(j, n, p) == pytest.approx(want, rel=1e-11), (j, p)


# Exact steps at q = 2 whose binomials take _binom_pmf's log-space
# form (n = dv - 1 > 500), frozen bit for bit: a direct product of
# powers rounds the first to 1.0 and overflows its coefficient at dv = 1100.
FROZEN_LARGE_DV_STEPS = [
    (0.1, 0.05, 502, "0x1.fffffffffff61p-1"),
    (0.45, 0.3, 600, "0x1.fcbab3a6bf6b8p-1"),
    (0.4, 0.35, 1100, "0x1.ffffffffeb9a7p-1"),
]


@pytest.mark.parametrize("xi,eps,dv,exact", FROZEN_LARGE_DV_STEPS)
def test_vn_exact_large_dv_matches_frozen_values(xi, eps, dv, exact):
    assert vn_step_exact(xi, eps, dv, 2).hex() == exact


def test_vn_exact_q2_matches_gallager_b():
    for dv in (3, 4, 5, 6):
        for xi in (0.02, 0.1, 0.3, 0.45):
            for eps in (0.03, 0.06, 0.3):
                got = vn_step_exact(xi, eps, dv, 2)
                want = gallager_b_step_oracle(xi, eps, dv)
                assert got == pytest.approx(want, abs=1e-12), (dv, xi, eps)


def test_vn_steps_reject_epsilon_at_channel_ceiling():
    with pytest.raises(ValueError):
        vn_step_exact(0.2, 0.5, 3, 2)
    with pytest.raises(ValueError):
        vn_step_bounded(0.2, 0.75, 3, 4)


# ----------------------------------------------------------------------
# vn_step_bounded
# ----------------------------------------------------------------------

def test_vn_bounded_rejects_q2():
    with pytest.raises(ValueError):
        vn_step_bounded(0.1, 0.05, 3, 2)


@pytest.mark.parametrize("dv", [2, 3, 4, 7])
@pytest.mark.parametrize("q", [4, 8])
def test_vn_bounded_sandwiches_exact(dv, q):
    wide = 0
    for i in range(1, 11):
        for j in range(1, 11):
            xi = i * 0.72 / 11
            eps = j * 0.70 / 11
            exact = vn_step_exact(xi, eps, dv, q)
            bound = vn_step_bounded(xi, eps, dv, q)
            assert bound.lower <= exact + 1e-12, (dv, q, xi, eps)
            assert exact <= bound.upper + 1e-12, (dv, q, xi, eps)
            assert bound.lower <= bound.upper
            wide += bound.lower != bound.upper
    # at dv = 7 and q = 8, five further cells can tie at generic
    # weights, so the bounds themselves are under test there
    if (dv, q) == (7, 8):
        assert wide > 0


def test_vn_bounded_tight_for_dv3_generic_weights():
    # for dv <= 6 and a non-integral weight, at most four further cells
    # can tie, and the bounded step pays such ties exactly: both ends
    # are the exact value, bit for bit
    for dv in range(3, 7):
        for q in (4, 16):
            for xi, eps in [(0.2, 0.1), (0.4, 0.05), (0.1, 0.3)]:
                bound = vn_step_bounded(xi, eps, dv, q)
                exact = vn_step_exact(xi, eps, dv, q)
                assert bound.lower == bound.upper == exact, (dv, q, xi, eps)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(dv=st.integers(2, 6), q=st.sampled_from((4, 8, 64, 512)),
       data=st.data())
def test_vn_bounded_equals_exact_below_dv7(dv, q, data):
    # below dv = 7 at most BOUNDED_EXACT_TIES + 1 further cells can
    # share the maximum at a non-integral weight, and the bounded step
    # pays those ties exactly; an integral weight lets the channel
    # symbol join a tie, and there the bounds only sandwich
    ceiling = (q - 1) / q
    w = data.draw(st.none() | st.integers(1, 3), label="w")
    if w is None:
        xi = data.draw(st.floats(0.0, ceiling), label="xi")
        eps = data.draw(st.floats(0.0, ceiling, exclude_max=True),
                        label="eps")
    else:
        xi = data.draw(st.floats(0.01, ceiling - 0.01), label="xi")
        eps = solve_eps_for_integral_w(xi, q, w)
    assume(weight_ratio(q, eps, xi).is_integer() == (w is not None))
    exact = vn_step_exact(xi, eps, dv, q)
    bound = vn_step_bounded(xi, eps, dv, q)
    if w is not None:
        assert bound.lower <= exact <= bound.upper
    else:
        assert bound.lower == bound.upper == exact


def test_vn_bounded_integral_weight_sandwich():
    xi = 0.3
    # at dv = 7 and w = 1 the sent symbol can tie the observed one while
    # a further cell ties too
    for dv, q, w in [(4, 4, 2), (5, 8, 2), (6, 4, 2), (7, 4, 1), (7, 16, 1)]:
        eps = solve_eps_for_integral_w(xi, q, w)
        exact = vn_step_exact(xi, eps, dv, q)
        bound = vn_step_bounded(xi, eps, dv, q)
        assert bound.lower <= exact + 1e-10
        assert exact <= bound.upper + 1e-10


# Frozen variable-node steps at non-integral weights: (xi, eps, dv, q,
# exact, bounded lower, bounded upper) in float hex; q = 2 has no bounded
# step. xi = 1 at q = 2 leaves the observed cell sure to hold every vote.
FROZEN_VN_STEPS = [
    (0.0, 0.1, 3, 4, "0x1.0000000000000p+0", "0x1.0000000000000p+0",
     "0x1.0000000000000p+0"),
    (1.0, 0.3, 4, 2, "0x1.6666666666666p-1", None, None),
    (0.2, 0.1, 3, 2, "0x1.db22d0e56041ap-1", None, None),
    (0.05, 0.03, 5, 2, "0x1.ff8bb0a2ca9abp-1", None, None),
    (0.3, 0.12, 3, 4, "0x1.d32617c1bda51p-1", "0x1.d32617c1bda51p-1",
     "0x1.d32617c1bda51p-1"),
    (0.15, 0.2, 5, 4, "0x1.f8b0c88a47ecep-1", "0x1.f8b0c88a47ecep-1",
     "0x1.f8b0c88a47ecep-1"),
    (0.35, 0.3, 7, 4, "0x1.dd103a7546d3ep-1", "0x1.dd103a7546d3ep-1",
     "0x1.dd103a7546d3ep-1"),
    (0.4, 0.05, 6, 64, "0x1.fc92ae6e52204p-1", "0x1.fc92ae6e52204p-1",
     "0x1.fc92ae6e52204p-1"),
    (0.1, 0.3, 7, 64, "0x1.fffad209739dcp-1", "0x1.fffad209739dcp-1",
     "0x1.fffae036d77b0p-1"),
    (0.25, 0.4, 4, 512, "0x1.e4a8bf9565801p-1", "0x1.e4a8bf9565801p-1",
     "0x1.e4a8bf9565801p-1"),
    (0.6, 0.5, 7, 512, "0x1.c2d873d4f8ebep-1", "0x1.c2d873d4f8ebep-1",
     "0x1.c2d873d4f8ebep-1"),
    (0.0, 0.2, 6, 512, "0x1.0000000000000p+0", "0x1.0000000000000p+0",
     "0x1.0000000000000p+0"),
]


@pytest.mark.parametrize("xi,eps,dv,q,exact,lower,upper", FROZEN_VN_STEPS)
def test_vn_steps_match_frozen_values(xi, eps, dv, q, exact, lower, upper):
    assert not weight_ratio(q, eps, xi).is_integer()
    assert vn_step_exact(xi, eps, dv, q).hex() == exact
    if q > 2:
        bound = vn_step_bounded(xi, eps, dv, q)
        assert (bound.lower.hex(), bound.upper.hex()) == (lower, upper)


# ----------------------------------------------------------------------
# de_run
# ----------------------------------------------------------------------

def test_de_run_noiseless_converges_immediately():
    # the channel word has converged, so the run never steps
    trace = de_run(3, 6, 4, 0.0)
    assert trace.converged
    assert trace.iterations_run == 0
    assert len(trace.records) == 1


#: One de_run per stop path and mode: (dv, dc, q, eps, mode, l_max,
#: converged, iterations_run). The (7,14) runs hold records whose xi
#: ends differ.
STOP_PATHS = [
    (3, 5, 2, 0.0, "exact", 2000, True, 0),        # at the channel word
    (3, 6, 4, 0.0, "bounded", 2000, True, 0),
    (3, 6, 4, 0.08, "exact", 2000, True, 46),      # later
    (3, 6, 4, 0.08, "bounded", 2000, True, 46),
    (3, 6, 4, 0.12, "exact", 2000, False, 1),      # stalled
    (3, 6, 4, 0.12, "bounded", 2000, False, 1),
    (3, 6, 4, 0.08, "exact", 3, False, 3),         # capped
    (3, 6, 4, 0.08, "bounded", 3, False, 3),
    (7, 14, 64, 0.10, "bounded", 2000, True, 6),
    (7, 14, 64, 0.12, "bounded", 2000, True, 13),
    (7, 14, 512, 0.08, "bounded", 2000, True, 4),
]


@pytest.mark.parametrize("dv,dc,q,eps,mode,l_max,conv,its", STOP_PATHS)
def test_de_trace_verdicts_read_its_last_record(dv, dc, q, eps, mode, l_max,
                                                conv, its):
    trace = de_run(dv, dc, q, eps, l_max=l_max, mode=mode)
    last = trace.records[-1].p0
    assert (trace.converged, trace.iterations_run) == (conv, its)
    assert trace.iterations_run == len(trace.records) - 1
    assert trace.converged == (1.0 - last.lower < DELTA_CONV)
    assert trace.converged_upper == (1.0 - last.upper < DELTA_CONV)
    assert trace.converged_upper or not trace.converged
    if not conv and its < l_max:
        # a stall: the last step raised neither trajectory
        prev = trace.records[-2].p0
        assert last.lower <= prev.lower and last.upper <= prev.upper
    for name in ("mode", "records", "iterations_run"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trace, name, getattr(trace, name))
    for name in ("converged", "converged_upper"):
        with pytest.raises(AttributeError):
            setattr(trace, name, True)


def test_de_run_below_threshold_converges():
    trace = de_run(3, 5, 4, 0.12, mode="bounded")
    assert trace.converged
    assert trace.converged_upper


def test_de_run_above_threshold_diverges():
    trace = de_run(3, 5, 4, 0.13, mode="bounded")
    assert not trace.converged
    assert not trace.converged_upper


def test_de_run_exact_matches_bounded_where_tight():
    t_exact = de_run(3, 5, 4, 0.10, mode="exact")
    t_bound = de_run(3, 5, 4, 0.10, mode="bounded")
    assert t_exact.converged and t_bound.converged
    for rec_e, rec_b in zip(t_exact.records, t_bound.records):
        assert rec_b.p0.lower <= rec_e.p0.lower + 1e-10
        assert rec_e.p0.upper <= rec_b.p0.upper + 1e-10


def test_de_run_q2_trajectory_matches_gallager_b():
    eps = 0.035
    trace = de_run(3, 6, 2, eps, mode="exact", l_max=50)
    p0 = 1 - eps
    for rec in trace.records[1:]:
        g = 2 * p0 - 1
        xi = 0.5 * (1 - g ** 5)
        p0 = gallager_b_step_oracle(xi, eps, 3)
        assert rec.p0.lower == pytest.approx(p0, abs=1e-12)


def two_step_bounded_reference(dv, dc, q, eps, l_max=2000):
    """The bounded recursion with a step at both xi ends every iteration.

    Returns (records, converged, converged_upper, iterations_run), the
    lower trajectory stepping at xi.upper and the upper one at xi.lower.
    """
    def record(p_lo, p_up):
        return IterationRecord(BoundedProb(p_lo, p_up),
                               BoundedProb(*_xi_bounds(p_lo, p_up, dc, q)))

    p_lo = p_up = 1.0 - eps
    records = [record(p_lo, p_up)]
    converged = 1.0 - p_lo < DELTA_CONV
    it = 0
    while not converged and it < l_max:
        it += 1
        xi = records[-1].xi
        lo = vn_step_bounded(xi.upper, eps, dv, q).lower
        up = vn_step_bounded(xi.lower, eps, dv, q).upper
        records.append(record(lo, up))
        converged = 1.0 - lo < DELTA_CONV
        if converged or (lo <= p_lo and up <= p_up):
            break
        p_lo, p_up = lo, up
    converged_upper = converged or 1.0 - records[-1].p0.upper < DELTA_CONV
    return records, converged, converged_upper, it


#: Paper thresholds of the rate-1/2 ensembles at q = 4, 64 and 512.
RATE_HALF_THRESHOLDS = {(3, 6): (0.089, 0.110, 0.111),
                        (4, 8): (0.081, 0.176, 0.186),
                        (5, 10): (0.081, 0.162, 0.188),
                        (6, 12): (0.074, 0.135, 0.178)}


def test_de_run_bounded_matches_two_step_reference():
    # de_run steps once while the xi interval is a point; the reference
    # always steps at both ends, so both branches must agree bit for bit.
    # Below dv = 7 every xi interval is a point; the (7,14) runs each
    # hold a record whose xi ends differ, so the two-step branch runs
    cases = [(dv, dc, q, eps)
             for (dv, dc), thresholds in RATE_HALF_THRESHOLDS.items()
             for q, thr in zip((4, 64, 512), thresholds)
             for eps in (0.95 * thr, 1.05 * thr)]
    cases += [(7, 14, 64, 0.10), (7, 14, 64, 0.12), (7, 14, 512, 0.08)]
    wide = 0
    for dv, dc, q, eps in cases:
        trace = de_run(dv, dc, q, eps, mode="bounded")
        records, conv, conv_up, its = two_step_bounded_reference(
            dv, dc, q, eps)
        where = (dv, dc, q, eps)
        assert trace.records == records, where
        assert trace.converged == conv, where
        assert trace.converged_upper == conv_up, where
        assert trace.iterations_run == its, where
        wide += sum(r.xi.lower != r.xi.upper for r in records[:-1])
    assert wide > 0


def test_de_monotone_in_epsilon():
    verdicts = [de_run(3, 6, 4, eps).converged
                for eps in (0.02, 0.05, 0.08, 0.085, 0.095, 0.12)]
    # once divergence starts it never reverts on this grid
    assert verdicts == sorted(verdicts, reverse=True)


def test_de_run_validates_inputs():
    with pytest.raises(ValueError):
        de_run(3, 5, 4, 0.8)
    with pytest.raises(ValueError):
        de_run(3, 5, 2, 0.02, mode="bounded")
    with pytest.raises(ValueError):
        de_run(1, 5, 4, 0.05)
    for dc in (2, 3):
        with pytest.raises(ValueError, match="check node degree must exceed"):
            de_run(3, dc, 4, 0.05)
    for q in (1, 0):
        with pytest.raises(ValueError, match=f"q must be at least 2, got {q}"):
            cn_step(0.9, 6, q)
    for step in (vn_step_exact, vn_step_bounded):
        with pytest.raises(ValueError, match="variable node degree must be "
                                             "at least 2, got 1"):
            step(0.1, 0.05, 1, 4)
    for func, args, message in (
            (BoundedProb, (0.5, 0.4), "lower 0.5 exceeds upper 0.4"),
            (cn_step, (0.9, 1, 4), "dc must be at least 2, got 1"),
            (cn_step, (1.5, 6, 4), "p0 must be a probability, got 1.5"),
            (cn_step, (-0.1, 6, 4), "p0 must be a probability, got -0.1"),
            (multinomial_max_cdf, (-1, 2, 1), "need k, s >= 0, got k=-1, s=2"),
            (multinomial_max_cdf, (2, -1, 1), "need k, s >= 0, got k=2, s=-1"),
            (multinomial_max_eq_count_dist, (3, 2, 0),
             "t must be at least 1, got 0"),
            (multinomial_max_eq_count_dist, (-1, 2, 1),
             "need k, s >= 0, got k=-1, s=2"),
            (multinomial_max_eq_count_dist, (2, -1, 1),
             "need k, s >= 0, got k=2, s=-1"),
            (vn_step_exact, (0.1, 0.05, 3, 1), "q must be at least 2, got 1"),
            (vn_step_exact, (1.5, 0.05, 3, 4), "xi must be in [0, 1], got 1.5"),
            (vn_step_exact, (-0.1, 0.05, 3, 4),
             "xi must be in [0, 1], got -0.1"),
            (resolve_mode, (4, "fast"), "unknown mode 'fast'"),
            (de_run, (3, 5, 1, 0.05), "q must be at least 2, got 1"),
            (de_run, (3, 5, 4, 0.05, 0), "l_max must be positive, got 0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            func(*args)


def test_bounded_prob_snaps_rejects_and_clamps():
    # a lower end above the upper one by rounding alone (<= 1e-9) snaps
    # the upper end to it; a larger gap is an error
    snapped = BoundedProb(0.5 + 5e-10, 0.5)
    assert snapped.lower == snapped.upper == 0.5 + 5e-10
    with pytest.raises(ValueError, match="exceeds upper"):
        BoundedProb(0.5 + 2e-9, 0.5)
    clamped = BoundedProb(-0.25, 1.5)
    assert (clamped.lower, clamped.upper) == (0.0, 1.0)
    # in-range ends, 0.0 and 1.0 among them, come back bit for bit
    for lo, up in ((0.0, 0.0), (-0.0, 0.0), (0.0, 1.0), (1.0, 1.0),
                   (0.25, 0.75), (5e-324, 1.0 - 2 ** -53), (0.3, 0.3)):
        ends = BoundedProb(lo, up)
        assert (ends.lower.hex(), ends.upper.hex()) == (lo.hex(), up.hex())
    # ends out of range are clamped
    for lo, up, want in (
            (-1.0, -0.5, ("0x0.0p+0", "0x0.0p+0")),
            (1.25, 1.5, ("0x1.0000000000000p+0", "0x1.0000000000000p+0")),
            (0.25, 1.5, ("0x1.0000000000000p-2", "0x1.0000000000000p+0")),
            (1.0 + 1e-10, 1.0,
             ("0x1.0000000000000p+0", "0x1.0000000000000p+0"))):
        ends = BoundedProb(lo, up)
        assert (ends.lower.hex(), ends.upper.hex()) == want, (lo, up)
    # a NaN end is rejected, whichever end it is
    nan = float("nan")
    for lo, up in ((nan, 0.5), (0.5, nan), (nan, nan), (nan, 2.0)):
        with pytest.raises(ValueError, match="NaN"):
            BoundedProb(lo, up)
