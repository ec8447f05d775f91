"""End-to-end acceptance checks against frozen reference values.

Each test prints one ``acceptance NN ...: PASS/FAIL`` line (visible
with ``pytest -s``, or on failure) and asserts its check at a fixed
tolerance. The heavy checks pin their runtime budgets; the whole
module takes about 5 s on one core of a 2-vCPU machine.

Check 04 holds the bounded density evolution interval to 1e-6 near
every tabulated threshold. Bounded DE pays ties with at most three
further symbols at the maximum exactly, so for dv <= 6 its interval
is a point except at an integral channel weight.
"""

import hashlib
import itertools
import math
import struct
import time

import numpy as np
import pytest

from oracles import gf_inv, gf_mul
import smpdec.analysis
from smpdec.analysis import find_threshold
from smpdec.channel import shannon_limit, weight_ratio
from smpdec.code import sample_code
from smpdec.de import (cn_step, de_run, multinomial_max_cdf,
                       multinomial_max_eq_count_dist, vn_step_bounded,
                       vn_step_exact)
from smpdec.galois import build_field
from smpdec.montecarlo import StopRule, simulate
from smpdec.smp import cn_update

FIELD_ORDERS = (2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Decoding thresholds for the (3,5) ensemble, one per field order.
THRESHOLDS_3_5 = (0.061, 0.123, 0.134, 0.138, 0.140,
                  0.141, 0.142, 0.142, 0.142)

#: Decoding thresholds for the rate-1/2 ensembles, one row per ensemble.
THRESHOLDS_RATE_HALF = {
    (3, 6): (0.040, 0.089, 0.104, 0.108, 0.109, 0.110, 0.111, 0.111, 0.111),
    (4, 8): (0.052, 0.081, 0.106, 0.137, 0.164, 0.176, 0.182, 0.185, 0.186),
    (5, 10): (0.042, 0.081, 0.101, 0.116, 0.136, 0.162, 0.177, 0.185,
              0.188),
    (6, 12): (0.040, 0.074, 0.101, 0.112, 0.121, 0.135, 0.156, 0.170,
              0.178),
}

#: Threshold searches frozen bit for bit, one (bracket end in float hex,
#: density-evolution runs, their total iterations, record digest) per
#: field order; every bracket of the table has width zero, so both its
#: ends equal that value. The iteration total sees a change in when a run
#: stops, which the bisection's grid of probes can hide from the bracket;
#: the digest (the first 16 hex digits of the SHA-256 of every record of
#: every run, see ``_record_bytes``) sees a change in any record's last bit.
FROZEN_BRACKETS = {
    (3, 5): (
        ("0x1.f540000000000p-5", 13, 243, "a70d1f9ccc720195"),
        ("0x1.f770000000000p-4", 13, 7373, "ee669edc86bdb0bf"),
        ("0x1.1162000000000p-3", 14, 2625, "89725ae2b1e694aa"),
        ("0x1.1af3000000000p-3", 14, 1715, "d377b2ea830142b2"),
        ("0x1.1f6a800000000p-3", 14, 1860, "7c53c14dbc85cd6c"),
        ("0x1.2197400000000p-3", 14, 1754, "0c7b533687c2b776"),
        ("0x1.22a6200000000p-3", 14, 1533, "2c8537a7dbc8a2b8"),
        ("0x1.232bb00000000p-3", 14, 1831, "a537958920c94650"),
        ("0x1.237df80000000p-3", 14, 1969, "636e1d932060f0b7"),
    ),
    (3, 6): (
        ("0x1.4340000000000p-5", 13, 132, "b5eb8c99e6357b65"),
        ("0x1.6c50000000000p-4", 13, 3013, "e7385a2236c26d2f"),
        ("0x1.a95c000000000p-4", 14, 4148, "81a5c0bba87a34d7"),
        ("0x1.b846000000000p-4", 14, 2173, "281cdd4d91397e8f"),
        ("0x1.bf71000000000p-4", 14, 1607, "bbdd4d65a06194cf"),
        ("0x1.c2f7800000000p-4", 14, 2161, "bcf1ff7ca38fcb8c"),
        ("0x1.c48fc00000000p-4", 14, 2266, "f495c4a81e560254"),
        ("0x1.c558e00000000p-4", 14, 1811, "ada25d8654c78841"),
        ("0x1.c5bcb00000000p-4", 14, 1801, "3cee960626137a09"),
    ),
    (4, 8): (
        ("0x1.a740000000000p-5", 13, 2121, "704bdcbea9953720"),
        ("0x1.4d90000000000p-4", 13, 385, "37c279bf924853fb"),
        ("0x1.b3dc000000000p-4", 14, 301, "99ba2f14b077b7f6"),
        ("0x1.18f5000000000p-3", 14, 394, "c8d70ca01e216db3"),
        ("0x1.4f7d800000000p-3", 14, 4611, "081f826c9c55c2ba"),
        ("0x1.6877400000000p-3", 14, 4055, "2a4faa76349113fa"),
        ("0x1.7461600000000p-3", 14, 4360, "cd84198e055b8518"),
        ("0x1.7a54300000000p-3", 14, 4016, "405112d381249643"),
        ("0x1.7d31080000000p-3", 14, 2918, "358de766a314b295"),
    ),
    (5, 10): (
        ("0x1.5540000000000p-5", 13, 546, "193c162d0b1c4c69"),
        ("0x1.4c10000000000p-4", 13, 1300, "e473112f60901ba8"),
        ("0x1.9c3c000000000p-4", 14, 693, "3e2a68443508653a"),
        ("0x1.dc5e000000000p-4", 14, 365, "6f471a377947337e"),
        ("0x1.16f0800000000p-3", 14, 265, "ba75d3a5798d5da6"),
        ("0x1.4a71400000000p-3", 14, 2678, "aa007b1fb5643026"),
        ("0x1.6a95200000000p-3", 14, 3431, "a15fbaaf0722d63c"),
        ("0x1.7a14700000000p-3", 14, 3274, "4e04c84c986a7c0c"),
        ("0x1.81aec80000000p-3", 14, 2948, "034c430379fbdc2c"),
    ),
    (6, 12): (
        ("0x1.44c0000000000p-5", 13, 319, "a59e7c9fb4226def"),
        ("0x1.2e70000000000p-4", 13, 324, "9bbbd233d5ae01cb"),
        ("0x1.9dfc000000000p-4", 14, 4367, "a621e8c90732d3ed"),
        ("0x1.cbba000000000p-4", 14, 1601, "a57a8d03e867770d"),
        ("0x1.ef65000000000p-4", 14, 294, "6277c0ceaecb3a0e"),
        ("0x1.14eac00000000p-3", 14, 310, "c571f86b48bb389b"),
        ("0x1.3eada00000000p-3", 14, 1599, "478b50f5f27603b8"),
        ("0x1.5cf1b00000000p-3", 14, 3185, "88a84153db107ccd"),
        ("0x1.6b99d80000000p-3", 14, 3038, "33aa381bf8830fb9"),
    ),
}

#: Shannon limits of the QSC at the two design rates, per field order.
SHANNON_RATE_04 = (0.146, 0.248, 0.319, 0.371, 0.409,
                   0.437, 0.459, 0.476, 0.489)
SHANNON_RATE_05 = (0.110, 0.189, 0.247, 0.290, 0.322,
                   0.346, 0.365, 0.381, 0.393)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"{tag}: {detail}"


def _record_bytes(trace) -> bytes:
    """Every record of a DE run, its four ends packed as float64."""
    ends = [end for rec in trace.records
            for end in (rec.p0.lower, rec.p0.upper, rec.xi.lower, rec.xi.upper)]
    return struct.pack(f"<{len(ends)}d", *ends)


class _SearchTally:
    """The DE runs of one threshold search: their total iterations and a
    digest of all their records, in run order."""

    def __init__(self) -> None:
        self.iterations = 0
        self.digest = hashlib.sha256()

    def add(self, trace) -> None:
        self.iterations += trace.iterations_run
        self.digest.update(_record_bytes(trace))

    def matches(self, res, frozen: tuple[str, int, int, str]) -> bool:
        """Whether the search reproduces its frozen bracket, runs,
        iteration total and record digest."""
        end, runs, total, digest = frozen
        return ((res.eps_star_lower.hex(), res.eps_star_upper.hex(),
                 res.evaluations, self.iterations,
                 self.digest.hexdigest()[:16])
                == (end, end, runs, total, digest))


@pytest.fixture
def de_runs(monkeypatch):
    """Starts a tally of every DE run the next threshold search makes."""
    tally = [_SearchTally()]
    de_run = smpdec.analysis.de_run

    def counting(*args, **kwargs):
        trace = de_run(*args, **kwargs)
        tally[0].add(trace)
        return trace

    def start() -> _SearchTally:
        tally[0] = _SearchTally()
        return tally[0]

    monkeypatch.setattr(smpdec.analysis, "de_run", counting)
    return start


def test_acceptance_01_threshold_table_3_5(de_runs):
    start = time.perf_counter()
    devs = []
    same = 0
    for q, want, frozen in zip(FIELD_ORDERS, THRESHOLDS_3_5,
                               FROZEN_BRACKETS[(3, 5)]):
        tally = de_runs()
        res = find_threshold(3, 5, q)
        if q == 2:
            assert res.mode == "exact"
        devs.append(abs(res.eps_star_lower - want))
        same += tally.matches(res, frozen)
    elapsed = time.perf_counter() - start
    ok = max(devs) <= 1e-3 and same == len(FIELD_ORDERS) and elapsed < 300.0
    _report("01 threshold table (3,5)", ok,
            f"max deviation {max(devs):.1e}, {same} of {len(FIELD_ORDERS)} "
            f"searches bit-identical, {elapsed:.1f}s")


def test_acceptance_02_threshold_tables_rate_half(de_runs):
    start = time.perf_counter()
    worst = ("", 0.0)
    same = cells = 0
    for (dv, dc), wants in THRESHOLDS_RATE_HALF.items():
        for q, want, frozen in zip(FIELD_ORDERS, wants,
                                   FROZEN_BRACKETS[(dv, dc)]):
            tally = de_runs()
            res = find_threshold(dv, dc, q)
            dev = abs(res.eps_star_lower - want)
            if dev > worst[1]:
                worst = (f"({dv},{dc}) q={q}", dev)
            same += tally.matches(res, frozen)
            cells += 1
    elapsed = time.perf_counter() - start
    ok = worst[1] <= 1e-3 and same == cells
    _report("02 threshold tables rate 1/2", ok,
            f"worst cell {worst[0]} deviation {worst[1]:.1e}, {same} of "
            f"{cells} searches bit-identical, {elapsed:.1f}s")


def test_acceptance_03_shannon_limit_columns():
    devs = []
    for q, want in zip(FIELD_ORDERS, SHANNON_RATE_04):
        devs.append(abs(shannon_limit(q, 0.4) - want))
    for q, want in zip(FIELD_ORDERS, SHANNON_RATE_05):
        devs.append(abs(shannon_limit(q, 0.5) - want))
    ok = max(devs) <= 1e-3
    _report("03 shannon limit columns", ok, f"max deviation {max(devs):.1e}")


def test_acceptance_04_bound_tightness_near_threshold():
    cells = [(3, 5, q, thr) for q, thr in zip(FIELD_ORDERS, THRESHOLDS_3_5)]
    for (dv, dc), thrs in THRESHOLDS_RATE_HALF.items():
        cells += [(dv, dc, q, thr) for q, thr in zip(FIELD_ORDERS, thrs)]
    worst: dict = {}
    failing = []
    for dv, dc, q, thr in cells:
        trace = de_run(dv, dc, q, thr - 0.001)
        width = max(rec.p0.upper - rec.p0.lower for rec in trace.records)
        key = (dv, dc)
        worst[key] = max(worst.get(key, 0.0), width)
        if width > 1e-6:
            failing.append(f"({dv},{dc}) q={q}: {width:.1e}")
    detail = "; ".join(f"({dv},{dc}) max width {w:.1e}"
                       for (dv, dc), w in sorted(worst.items()))
    if failing:
        detail += f" | {len(failing)} of {len(cells)} cells exceed 1e-6"
    _report("04 bound tightness near threshold", not failing, detail)


def _vn_bruteforce(xi: float, epsilon: float, dv: int, q: int) -> float:
    """P(correct VN-to-CN message) by full enumeration."""
    w = weight_ratio(q, epsilon, xi)
    channel = [(0, 1.0 - epsilon)]
    channel += [(b, epsilon / (q - 1)) for b in range(1, q)]
    total = 0.0
    for pattern in itertools.product(range(q), repeat=dv - 1):
        p_pattern = math.prod((1.0 - xi) if m == 0 else xi / (q - 1)
                              for m in pattern)
        for y, p_y in channel:
            scores = [sum(1 for m in pattern if m == b) + (w if b == y else 0)
                      for b in range(q)]
            smax = max(scores)
            tied = [b for b in range(q) if abs(scores[b] - smax) <= 1e-9]
            if 0 in tied:
                total += p_pattern * p_y / len(tied)
    return total


def test_acceptance_05_sandwich_and_bruteforce():
    violations = 0
    checked = 0
    for dv, dc in ((3, 5), (3, 6)):
        for q in (4, 8):
            ceiling = (q - 1) / q
            for eps in np.linspace(0.02, ceiling - 0.02, 10):
                for xi in np.linspace(0.01, ceiling - 0.01, 10):
                    bound = vn_step_bounded(xi, eps, dv, q)
                    exact = vn_step_exact(xi, eps, dv, q)
                    checked += 1
                    if not (bound.lower - 1e-12 <= exact
                            <= bound.upper + 1e-12):
                        violations += 1
    worst = 0.0
    # (0.1, 0.1) pins the weight to exactly 1, exercising the tie paths
    for eps, xi in itertools.product((0.05, 0.1, 0.2, 0.4),
                                     (0.03, 0.1, 0.15, 0.5)):
        diff = abs(vn_step_exact(xi, eps, 3, 4) - _vn_bruteforce(xi, eps, 3, 4))
        worst = max(worst, diff)
    ok = violations == 0 and worst <= 1e-12
    _report("05 exact/bounded sandwich + brute force", ok,
            f"{violations}/{checked} sandwich violations, "
            f"brute-force max diff {worst:.1e}")


def _gallager_b_step(xi: float, epsilon: float, dv: int) -> float:
    """Next correct-message probability of the binary hard decoder."""
    w = weight_ratio(2, epsilon, xi)
    total = 0.0
    for f0 in range(dv):
        p_f0 = math.comb(dv - 1, f0) * (1 - xi) ** f0 * xi ** (dv - 1 - f0)
        f1 = dv - 1 - f0
        for y_is_zero, p_y in ((True, 1.0 - epsilon), (False, epsilon)):
            s0 = f0 + (w if y_is_zero else 0.0)
            s1 = f1 + (0.0 if y_is_zero else w)
            if s0 > s1 + 1e-9:
                win = 1.0
            elif abs(s0 - s1) <= 1e-9:
                win = 0.5
            else:
                win = 0.0
            total += p_f0 * p_y * win
    return total


def test_acceptance_06_gallager_b_equivalence():
    worst = 0.0
    for eps in (0.035, 0.05):
        trace = de_run(3, 6, 2, eps, l_max=60)
        for prev, nxt in zip(trace.records, trace.records[1:]):
            want = _gallager_b_step(prev.xi.lower, eps, 3)
            worst = max(worst, abs(nxt.p0.lower - want))
    res = find_threshold(3, 6, 2)
    thr_dev = abs(res.eps_star_lower - 0.040)
    ok = worst <= 1e-12 and thr_dev <= 1e-3
    _report("06 binary reduction to Gallager B", ok,
            f"trajectory max diff {worst:.1e}, threshold deviation "
            f"{thr_dev:.1e}")


def test_acceptance_07_finite_length_waterfall():
    start = time.perf_counter()
    code = sample_code(60_000, 3, 6, build_field(2), seed=1)
    # Frame budgets keep this test to seconds on one core while
    # leaving both estimates meaningful: 240k symbols above the
    # threshold, 720k below. The default stop rule reaches the same
    # verdict with many more frames.
    hi = simulate(code, 0.095, l_max=200,
                  stop=StopRule(max_frames=4, target_frame_errors=None),
                  seed=2026)
    lo = simulate(code, 0.080, l_max=200,
                  stop=StopRule(max_frames=12, target_frame_errors=None),
                  seed=2026)
    elapsed = time.perf_counter() - start
    ok = hi.ser > 1e-2 and lo.ser <= hi.ser / 100 and elapsed < 600.0
    _report("07 finite-length waterfall", ok,
            f"ser(0.095)={hi.ser:.3e}, ser(0.080)={lo.ser:.3e}, "
            f"{elapsed:.0f}s")


def _compositions(k: int, s: int):
    if k == 1:
        yield (s,)
        return
    for first in range(s + 1):
        for rest in _compositions(k - 1, s - first):
            yield (first,) + rest


def _multinomial_weight(comp: tuple) -> float:
    s = sum(comp)
    return math.factorial(s) / math.prod(math.factorial(c) for c in comp)


def _max_cdf_oracle(k: int, s: int, t: int) -> float:
    total = sum(_multinomial_weight(c) for c in _compositions(k, s)
                if max(c) <= t)
    return total / k ** s


def _eq_count_oracle(k: int, s: int, t: int) -> list:
    out = [0.0] * (min(k, s // t) + 1)
    for comp in _compositions(k, s):
        if max(comp) <= t:
            out[sum(c == t for c in comp)] += _multinomial_weight(comp)
    return [x / k ** s for x in out]


def _naive_cn(code, mu: np.ndarray) -> np.ndarray:
    field = code.field
    groups: dict = {}
    for e, c in enumerate(code.edge_cn):
        groups.setdefault(int(c), []).append(e)
    out = np.empty_like(mu)
    for edges in groups.values():
        for e in edges:
            acc = 0
            for other in edges:
                if other != e:
                    acc ^= gf_mul(field, int(code.edge_label[other]),
                                  int(mu[other]))
            out[e] = gf_mul(field, gf_inv(field, int(code.edge_label[e])), acc)
    return out


def test_acceptance_08_property_suites():
    # field axioms of the decoder's vector arithmetic, full triple
    # enumeration over GF(4) and GF(8); mul_vec takes a nonzero first
    # factor, and its products match the carry-less oracle
    for m in (2, 3):
        field = build_field(m)
        mul = field.mul_vec
        nonzero = np.arange(1, field.q)
        assert np.array_equal(mul(nonzero, np.ones_like(nonzero)), nonzero)
        assert [gf_mul(field, a, b) for a, b in
                zip(nonzero.tolist(), field.inv_vec(nonzero).tolist())] \
            == [1] * (field.q - 1)
        a, b, c = (x.ravel() for x in np.meshgrid(
            nonzero, nonzero, np.arange(field.q), indexing="ij"))
        assert mul(a, c).tolist() == [gf_mul(field, x, y) for x, y in
                                      zip(a.tolist(), c.tolist())]
        assert np.array_equal(mul(a, b), mul(b, a))
        assert np.array_equal(mul(a, b ^ c), mul(a, b) ^ mul(a, c))
        assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))

    # psi rows are probability distributions for j <= 20: the chance
    # psi(j, 0) = cn_step(0, j + 1) that j nonzero symbols sum to zero
    # is a probability, and psi(j + 1, 0) = (1 - psi(j, 0)) / (q - 1)
    for q in (2, 4, 8, 64):
        for j in range(1, 21):
            zero = cn_step(0.0, j + 1, q)
            assert -1e-15 <= zero <= 1.0
            assert abs(cn_step(0.0, j + 2, q) - (1.0 - zero) / (q - 1)) \
                <= 1e-12

    # multinomial maximum statistics versus enumeration, k <= 5, s <= 8
    for k in range(1, 6):
        for s in range(9):
            for t in range(s + 2):
                want = _max_cdf_oracle(k, s, t)
                assert abs(multinomial_max_cdf(k, s, t) - want) <= 1e-12
                if t >= 1:
                    got = multinomial_max_eq_count_dist(k, s, t)
                    oracle = _eq_count_oracle(k, s, t)
                    assert len(got) == len(oracle)
                    assert max(abs(g - o) for g, o in zip(got, oracle)) \
                        <= 1e-12

    # check-node totals-minus-one update versus naive recomputation
    rng = np.random.default_rng(8)
    codes = [sample_code(12, 3, 6, build_field(2), seed=s) for s in range(5)]
    codes += [sample_code(12, 2, 4, build_field(3), seed=s) for s in range(5)]
    instances = 0
    while instances < 1000:
        for code in codes:
            mu = rng.integers(0, code.field.q,
                              size=code.n * code.dv).astype(np.int32)
            assert np.array_equal(cn_update(code, mu), _naive_cn(code, mu))
            instances += 1

    # identical results from 1 and 2 worker processes
    small = sample_code(120, 3, 6, build_field(2), seed=7)
    stop = StopRule(max_frames=5, target_frame_errors=None)
    one = simulate(small, 0.12, l_max=15, stop=stop, seed=3, workers=1)
    two = simulate(small, 0.12, l_max=15, stop=stop, seed=3, workers=2)
    assert (one.symbol_errors, one.frame_errors, one.ser, one.fer,
            one.iterations_mean, one.iterations_max) == \
        (two.symbol_errors, two.frame_errors, two.ser, two.fer,
         two.iterations_mean, two.iterations_max)

    _report("08 property suites", True,
            "field axioms, psi rows, multinomial oracles, naive CN x1000, "
            "worker determinism")
