"""Tests for the symbol message passing decoder.

The vectorized decoder is checked against scalar reference code built
here from ScoreBoard and naive per-edge check sums over carry-less field
arithmetic (``oracles``), sharing nothing with the implementation except
the documented RNG draw order and the channel weight from weight_ratio.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edge_vn, gf_inv, gf_mul
from smpdec.channel import ChannelParams, transmit, weight_D, weight_ratio
from smpdec.code import CodeGraph, sample_code
from smpdec.de import de_run, vn_step_exact
from smpdec.galois import build_field
from smpdec.smp import XiSchedule, _decision, cn_update, decode, vn_update

F2 = build_field(1)
F4 = build_field(2)
F8 = build_field(3)


@dataclass
class ScoreBoard:
    """Sparse per-symbol scores at one variable node: the scalar oracle.

    Scores are integer vote counts plus the channel weight on the
    observed symbol, and symbols tie only on equal scores; at most
    dv + 1 symbols can score above zero, so candidates are tracked
    explicitly. ``candidates`` lists the incoming message symbols in
    slot order followed by the channel symbol; tie sets preserve
    first-occurrence order along that list, which is the convention the
    vectorized decoder implements.
    """

    counts: dict
    channel_symbol: int
    channel_weight: float
    xi: float
    candidates: list

    @classmethod
    def from_votes(cls, messages, y: int, epsilon: float, xi: float,
                   q: int) -> "ScoreBoard":
        return cls(counts=dict(Counter(messages)), channel_symbol=y,
                   channel_weight=weight_ratio(q, epsilon, xi), xi=xi,
                   candidates=list(messages) + [y])

    def score(self, symbol: int, dropped: int | None = None) -> float:
        s = float(self.counts.get(symbol, 0))
        if dropped is not None and symbol == dropped:
            s -= 1.0
        if symbol == self.channel_symbol:
            s += self.channel_weight
        return s

    def tie_set(self, drop_slot: int | None = None) -> list:
        """Maximizing symbols in first-occurrence candidate order."""
        dropped = self.candidates[drop_slot] if drop_slot is not None else None
        ordered = list(dict.fromkeys(self.candidates))
        scores = {c: self.score(c, dropped) for c in ordered}
        smax = max(scores.values())
        return [c for c in ordered if scores[c] == smax]

    def argmax(self, u: float, drop_slot: int | None = None) -> int:
        """Top symbol, ties resolved by the uniform draw u in [0, 1)."""
        ties = self.tie_set(drop_slot)
        return ties[min(int(u * len(ties)), len(ties) - 1)]


def naive_cn_update(code, mu_vc):
    """Per-edge recomputation: out_e = inv(h_e) * sum_{e' != e} h_e' mu_e'."""
    out = np.zeros_like(mu_vc)
    f = code.field
    for cn in range(code.m_checks):
        edges = [e for e in range(len(code.edge_cn)) if code.edge_cn[e] == cn]
        for e in edges:
            acc = 0
            for e2 in edges:
                if e2 != e:
                    acc ^= gf_mul(f, int(code.edge_label[e2]), int(mu_vc[e2]))
            out[e] = gf_mul(f, gf_inv(f, int(code.edge_label[e])), acc)
    return out


def find_nonzero_codeword(code):
    """Solve the parity checks by Gaussian elimination over the field."""
    f = code.field
    n, m = code.n, code.m_checks
    rows = [[0] * n for _ in range(m)]
    vn = edge_vn(code)
    for e in range(len(vn)):
        rows[code.edge_cn[e]][vn[e]] = int(code.edge_label[e])
    pivots = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = gf_inv(f, rows[r][col])
        rows[r] = [gf_mul(f, inv, v) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col]:
                fac = rows[i][col]
                rows[i] = [a ^ gf_mul(f, fac, b)
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    free = next(c for c in range(n) if c not in pivots)
    x = [0] * n
    x[free] = 1
    for i, col in enumerate(pivots):
        x[col] = rows[i][free]  # char-2 field: negation is identity
    # verify against the checks directly
    for row in range(m):
        acc = 0
        for e in range(len(vn)):
            if code.edge_cn[e] == row:
                acc ^= gf_mul(f, int(code.edge_label[e]), x[vn[e]])
        assert acc == 0
    assert any(x)
    return np.array(x, dtype=np.int32)


# ----------------------------------------------------------------------
# XiSchedule
# ----------------------------------------------------------------------

def test_schedule_clamps_values():
    # values reach the decoder only through weight_ratio, which clamps
    # them into [1e-12, (q-1)/q - 1e-12]: out-of-range schedules decode
    # exactly as their clamped versions
    code = sample_code(60, 3, 6, F4, seed=59)
    y = transmit(np.zeros(60, dtype=np.int32), ChannelParams(F4, 0.1),
                 np.random.default_rng(8))
    raw = XiSchedule([0.0, 0.1, 0.9])
    clamped = XiSchedule([1e-12, 0.1, 0.75 - 1e-12])
    assert raw.value_at(1) == 0.0
    a = decode(code, y, 0.1, raw, 6, rng=3)
    b = decode(code, y, 0.1, clamped, 6, rng=3)
    assert np.array_equal(a.decided, b.decided)
    assert a.tie_events == b.tie_events


def test_schedule_repeats_last_value():
    sched = XiSchedule([0.3, 0.2])
    assert sched.value_at(2) == 0.2
    assert sched.value_at(50) == 0.2


def test_schedule_rejects_empty():
    with pytest.raises(ValueError):
        XiSchedule([])
    with pytest.raises(ValueError, match="iterations are 1-based, got 0"):
        XiSchedule([0.1]).value_at(0)


def test_schedule_from_trace():
    trace = de_run(3, 6, 4, 0.05)
    sched = XiSchedule.from_trace(trace)
    lower = [rec.xi.lower for rec in trace.records]
    assert list(sched.xi_values) == lower
    # past the trace the final value repeats
    assert sched.value_at(len(lower) + 30) == lower[-1]


# ----------------------------------------------------------------------
# ScoreBoard
# ----------------------------------------------------------------------

def test_scoreboard_channel_weight_breaks_tie():
    # counts 0:1 and 2:1 with y=0, w=0.5: score(0)=1.5 beats score(2)=1
    board = ScoreBoard(counts={0: 1, 2: 1}, channel_symbol=0,
                       channel_weight=0.5, xi=0.2, candidates=[0, 2, 0])
    for u in (0.0, 0.5, 0.99):
        assert board.argmax(u) == 0


def test_scoreboard_three_way_tie_uniform_slices():
    board = ScoreBoard(counts={1: 1, 2: 1}, channel_symbol=3,
                       channel_weight=1.0, xi=0.2, candidates=[1, 2, 3])
    assert board.tie_set() == [1, 2, 3]
    assert board.argmax(0.0) == 1
    assert board.argmax(0.34) == 2
    assert board.argmax(0.99) == 3


def test_scoreboard_tie_order_is_first_occurrence():
    board = ScoreBoard(counts={2: 1, 1: 1}, channel_symbol=3,
                       channel_weight=1.0, xi=0.2, candidates=[2, 1, 3])
    assert board.tie_set() == [2, 1, 3]


def test_scoreboard_drop_slot_is_extrinsic():
    board = ScoreBoard.from_votes([2, 2, 1], y=1, epsilon=0.3, xi=0.1, q=4)
    # w is below 1 here, so the full counts favour 2; dropping one vote
    # for 2 leaves 1 + w in front
    assert 0 < board.channel_weight < 1
    assert board.argmax(0.5) == 2
    assert board.argmax(0.5, drop_slot=0) == 1


def test_scoreboard_from_votes_weight():
    board = ScoreBoard.from_votes([0, 3], y=0, epsilon=0.1, xi=0.3, q=4)
    assert board.channel_weight == pytest.approx(weight_ratio(4, 0.1, 0.3))
    assert board.counts == {0: 1, 3: 1}


# ----------------------------------------------------------------------
# cn_update
# ----------------------------------------------------------------------

def _three_vn_code(labels):
    return CodeGraph(n=3, dv=2, dc=3, field=F4,
                     edge_cn=np.array([0, 1, 0, 1, 0, 1]),
                     edge_label=np.array(labels))


def test_cn_update_unit_labels_xor():
    code = _three_vn_code([1] * 6)
    # CN 0 sees messages (2, 2, 0) on edges 0, 2, 4
    mu = np.array([2, 3, 2, 3, 0, 3], dtype=np.int32)
    out = cn_update(code, mu)
    assert out[0] == 2  # 2 ^ 0
    assert out[2] == 2  # 2 ^ 0
    assert out[4] == 0  # 2 ^ 2
    # CN 1 sees (3, 3, 3): each extrinsic pair sums to 0
    assert out[1] == out[3] == out[5] == 0


def test_cn_update_all_zero_codeword():
    code = sample_code(12, 3, 4, F8, seed=5)
    mu = np.zeros(36, dtype=np.int32)
    assert np.all(cn_update(code, mu) == 0)


def test_cn_update_codeword_reproduces_excluded_symbol():
    code = sample_code(6, 2, 3, F4, seed=9)
    x = find_nonzero_codeword(code)
    mu = x[edge_vn(code)].astype(np.int32)
    out = cn_update(code, mu)
    assert np.array_equal(out, mu)


def test_cn_update_matches_naive_oracle():
    # GF(8) and GF(256) multiply through the product table, GF(512)
    # through the log tables
    rng = np.random.default_rng(31)
    for field in (F8, build_field(8), build_field(9)):
        code = sample_code(12, 3, 4, field, seed=7)
        for _ in range(50):
            mu = rng.integers(0, field.q, size=36).astype(np.int32)
            assert np.array_equal(cn_update(code, mu),
                                  naive_cn_update(code, mu)), field.q


# ----------------------------------------------------------------------
# vn_update
# ----------------------------------------------------------------------

def test_vn_update_unanimous():
    code = sample_code(8, 3, 4, F4, seed=3)
    y = np.full(8, 2, dtype=np.int32)
    mu_cv = y[edge_vn(code)].astype(np.int32)
    out, _ = vn_update(code, mu_cv, y, epsilon=0.1, xi=0.2,
                       rng=np.random.default_rng(0))
    assert np.all(out == 2)


def test_vn_update_matches_scoreboard_reference():
    for dv, dc, q, fld in [(3, 4, 8, F8), (2, 4, 4, F4), (4, 6, 4, F4)]:
        code = sample_code(24, dv, dc, fld, seed=11)
        rng = np.random.default_rng(17)
        mu_cv = rng.integers(0, q, size=24 * dv).astype(np.int32)
        y = rng.integers(0, q, size=24).astype(np.int32)
        out, _ = vn_update(code, mu_cv, y, epsilon=0.07, xi=0.22,
                           rng=np.random.default_rng(99))
        u = np.random.default_rng(99).random((24, dv))
        rows = mu_cv.reshape(24, dv)
        for v in range(24):
            board = ScoreBoard.from_votes(
                [int(s) for s in rows[v]], int(y[v]), 0.07, 0.22, q)
            for j in range(dv):
                want = board.argmax(u[v, j], drop_slot=j)
                assert out.reshape(24, dv)[v, j] == want, (dv, q, v, j)


def test_vn_update_reduces_to_gallager_b():
    # with 1 < w < 2 the binary rule is: keep y unless both extrinsic
    # messages disagree with it
    code = sample_code(16, 3, 4, F2, seed=2)
    eps, xi = 0.04, 0.1
    assert 1 < weight_ratio(2, eps, xi) < 2
    rows = np.array([[(i >> 2) & 1, (i >> 1) & 1, i & 1] for i in range(8)]
                    * 2, dtype=np.int32)
    y = np.array([0] * 8 + [1] * 8, dtype=np.int32)
    out, _ = vn_update(code, rows.reshape(-1), y, eps, xi,
                       rng=np.random.default_rng(4))
    out = out.reshape(16, 3)
    for v in range(16):
        for j in range(3):
            others = [rows[v, k] for k in range(3) if k != j]
            want = 1 - y[v] if others == [1 - y[v]] * 2 else y[v]
            assert out[v, j] == want


def test_vn_update_is_extrinsic():
    code = sample_code(18, 3, 6, F8, seed=21)
    rng = np.random.default_rng(5)
    mu = rng.integers(0, 8, size=54).astype(np.int32)
    y = rng.integers(0, 8, size=18).astype(np.int32)
    base, _ = vn_update(code, mu, y, 0.05, 0.15, np.random.default_rng(1))
    mu2 = mu.copy()
    edge = 13  # VN 4, slot 1
    mu2[edge] = (mu2[edge] + 3) % 8
    pert, _ = vn_update(code, mu2, y, 0.05, 0.15, np.random.default_rng(1))
    assert pert[edge] == base[edge]
    changed = np.nonzero(pert != base)[0]
    assert all(edge_vn(code)[e] == 4 for e in changed)


def test_vn_update_tie_statistics_uniform():
    # dv=2: each out-edge sees one extrinsic vote plus y=3 at weight
    # exactly 1, a two-way tie; symbol 3 can win on either edge
    code = sample_code(3000, 2, 3, F4, seed=13)
    mu = np.tile(np.array([1, 2], dtype=np.int32), 3000)
    y = np.full(3000, 3, dtype=np.int32)
    eps = xi = 0.25  # weight exactly 1
    out, _ = vn_update(code, mu, y, eps, xi, np.random.default_rng(23))
    counts = np.bincount(out, minlength=4)
    assert counts[0] == 0
    sigma_single = np.sqrt(3000 * 0.25)
    assert abs(counts[1] - 1500) < 4 * sigma_single
    assert abs(counts[2] - 1500) < 4 * sigma_single
    assert abs(counts[3] - 3000) < 4 * np.sqrt(6000 * 0.25)
    assert counts.sum() == 6000


class _FixedUniform:
    """Stands in for a Generator whose every uniform draw equals u."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self, size) -> np.ndarray:
        return np.full(size, self.u)


_FIELDS = {2: F2, 4: F4, 8: F8}


@st.composite
def _vote_cases(draw):
    """A small random graph with messages and channel symbols drawn from
    three to dv + 1 symbols (two over GF(2)). In some cases w is one of
    the weights 0.5, 1, 1.5, ..., dv + 0.5, one per interval and integer
    that the decoder's pattern tables tell apart, and w = 1 also comes
    from xi = eps exactly, so votes tie each other and the channel."""
    field = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    q = field.q
    dv = draw(st.integers(2, 6))
    dc = draw(st.integers(dv + 1, dv + 3))
    n = dc * draw(st.integers(2, 3))
    code = sample_code(n, dv, dc, field, seed=draw(st.integers(0, 1000)))
    size = draw(st.integers(min(3, q), min(q, dv + 1)))
    alphabet = draw(st.lists(st.integers(0, q - 1), min_size=size,
                             max_size=size, unique=True))
    symbols = st.sampled_from(alphabet)
    mu = draw(st.lists(symbols, min_size=n * dv, max_size=n * dv))
    y = draw(st.lists(symbols, min_size=n, max_size=n))
    xi = draw(st.floats(0.01, 0.45))
    eps = draw(st.one_of(
        st.floats(0.01, 0.3), st.just(xi),
        st.integers(1, 2 * dv + 1).map(
            lambda c: _eps_for_weight(q, xi, c / 2))))
    return (code, np.array(mu, dtype=np.int32), np.array(y, dtype=np.int32),
            eps, xi)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_vote_cases())
def test_vn_update_and_decision_match_scoreboard(case):
    code, mu, y, eps, xi = case
    n, dv, q = code.n, code.dv, code.field.q
    boards = [ScoreBoard.from_votes(mu[v * dv:(v + 1) * dv].tolist(),
                                    int(y[v]), eps, xi, q) for v in range(n)]
    edge_ties = [len(b.tie_set(j)) > 1 for b in boards for j in range(dv)]
    node_ties = [len(b.tie_set()) > 1 for b in boards]
    _, ties = vn_update(code, mu, y, eps, xi, _FixedUniform(0.0))
    assert ties == sum(edge_ties)
    _, ties = _decision(code, mu, y, eps, xi, np.zeros(n))
    assert ties == sum(node_ties)
    # u in slice i of s equal slices picks entry i of a size-s tie set.
    # Sweeping every size s <= dv + 1 lists each oracle tie set in order
    # at its own size, and a tie set of another size repeats or skips an
    # entry at one of the sizes, so equal picks mean equal tie sets.
    for size in range(1, dv + 2):
        for i in range(size):
            u = (i + 0.5) / size
            out, _ = vn_update(code, mu, y, eps, xi, _FixedUniform(u))
            assert out.tolist() == [b.argmax(u, drop_slot=j)
                                    for b in boards for j in range(dv)]
            dec, _ = _decision(code, mu, y, eps, xi, np.full(n, u))
            assert dec.tolist() == [b.argmax(u) for b in boards]


# ----------------------------------------------------------------------
# The score-tie rule shared with density evolution
# ----------------------------------------------------------------------

def _eps_for_weight(q: int, xi: float, w: float) -> float:
    """eps with D(eps) = w D(xi), by bisection (D falls as eps grows)."""
    target = w * weight_D(q, xi)
    lo, hi = 1e-12, (q - 1) / q - 1e-12
    for _ in range(200):
        mid = (lo + hi) / 2
        if weight_D(q, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _scoreboard_step(xi: float, eps: float, dv: int, q: int) -> float:
    """P(next message correct) when ScoreBoard scores every vote pattern
    under the input law of density evolution (sent symbol 0)."""
    total = 0.0
    for votes in itertools.product(range(q), repeat=dv - 1):
        p_votes = math.prod(1 - xi if m == 0 else xi / (q - 1)
                            for m in votes)
        for y in range(q):
            p_y = 1 - eps if y == 0 else eps / (q - 1)
            ties = ScoreBoard.from_votes(list(votes), y, eps, xi, q).tie_set()
            if 0 in ties:
                total += p_votes * p_y / len(ties)
    return total


def test_near_integral_weight_ties_as_in_density_evolution():
    # D(eps)/D(xi) = 1 + 5e-10: the channel symbol ties one vote
    q, xi, n = 4, 0.2, 12
    eps = _eps_for_weight(q, xi, 1 + 5e-10)
    assert 1e-10 < weight_D(q, eps) / weight_D(q, xi) - 1 <= 1e-9
    assert weight_ratio(q, eps, xi) == 1.0
    code = sample_code(n, 3, 6, F4, seed=5)
    # votes (2, 3, 3) with y = 1: both extrinsic (2, 3) views tie 1, 2, 3
    mu = np.tile(np.array([2, 3, 3], dtype=np.int32), n)
    out, ties = vn_update(code, mu, np.full(n, 1, dtype=np.int32), eps, xi,
                          _FixedUniform(0.99))
    assert ties == 2 * n
    assert out.reshape(n, 3)[:, 1:].tolist() == [[1, 1]] * n
    # votes (2, 2, 3) with y = 3: 2 and 3 both score 2 at the decision
    mu = np.tile(np.array([2, 2, 3], dtype=np.int32), n)
    _, ties = _decision(code, mu, np.full(n, 3, dtype=np.int32), eps, xi,
                        np.zeros(n))
    assert ties == n
    assert vn_step_exact(xi, eps, 3, q) == pytest.approx(
        _scoreboard_step(xi, eps, 3, q), abs=1e-12)


def test_vanishing_weight_lets_channel_symbol_win():
    # eps at the clamp below (q-1)/q: w is about 1e-12 or less, and the
    # channel symbol beats any symbol with as many votes
    q, n = 4, 12
    eps = 0.75 - 1e-12
    code = sample_code(n, 3, 6, F4, seed=5)
    for xi in (0.0, 0.01):
        assert 0 < weight_ratio(q, eps, xi) < 1e-12
        # votes (1, 2, 2) with y = 1: the (1, 2) views go to 1
        mu = np.tile(np.array([1, 2, 2], dtype=np.int32), n)
        out, ties = vn_update(code, mu, np.full(n, 1, dtype=np.int32), eps,
                              xi, _FixedUniform(0.99))
        assert ties == 0
        assert out.reshape(n, 3).tolist() == [[2, 1, 1]] * n
        # votes (1, 2, 3) with y = 1: 1 wins the decision outright
        mu = np.tile(np.array([1, 2, 3], dtype=np.int32), n)
        dec, ties = _decision(code, mu, np.full(n, 1, dtype=np.int32), eps,
                              xi, np.full(n, 0.99))
        assert ties == 0
        assert dec.tolist() == [1] * n
    assert vn_step_exact(0.01, eps, 3, q) == pytest.approx(
        _scoreboard_step(0.01, eps, 3, q), abs=1e-12)


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------

def _schedule_for(dv, dc, q, eps):
    return XiSchedule.from_trace(de_run(dv, dc, q, eps))


def test_decode_noise_free_is_fixed_point():
    code = sample_code(60, 3, 6, F4, seed=41)
    y = np.zeros(60, dtype=np.int32)
    sched = _schedule_for(3, 6, 4, 0.05)
    res = decode(code, y, epsilon=0.05, schedule=sched, l_max=20, rng=7)
    assert np.all(res.decided == 0)
    assert res.tie_events == (0,) * 20


def test_decode_deterministic_for_fixed_seed():
    code = sample_code(120, 3, 6, F4, seed=43)
    rng = np.random.default_rng(77)
    y = transmit(np.zeros(120, dtype=np.int32), ChannelParams(F4, 0.2), rng)
    sched = _schedule_for(3, 6, 4, 0.2)
    a = decode(code, y, 0.2, sched, 30, rng=123)
    b = decode(code, y, 0.2, sched, 30, rng=123)
    assert np.array_equal(a.decided, b.decided)
    # an explicit generator seeded the same way is equivalent to the seed
    c = decode(code, y, 0.2, sched, 30, rng=np.random.default_rng(123))
    assert np.array_equal(a.decided, c.decided)


def test_decode_corrects_below_threshold():
    code = sample_code(1200, 3, 6, F4, seed=47)
    params = ChannelParams(F4, 0.04)
    sched = _schedule_for(3, 6, 4, 0.04)
    zero = np.zeros(1200, dtype=np.int32)
    total_in = total_out = 0
    for seed in range(5):
        y = transmit(zero, params, np.random.default_rng(1000 + seed))
        res = decode(code, y, 0.04, sched, 60, rng=seed)
        total_in += int((y != 0).sum())
        total_out += int((res.decided != 0).sum())
    assert total_in > 100
    assert total_out < total_in / 10


def test_decode_matches_scalar_reference_pipeline():
    code = sample_code(9, 2, 3, F4, seed=29)
    rng = np.random.default_rng(301)
    y = rng.integers(0, 4, size=9).astype(np.int32)
    eps, l_max = 0.1, 3
    sched = XiSchedule([0.3, 0.2, 0.12])
    res = decode(code, y, eps, sched, l_max, rng=555)

    # scalar re-implementation with the documented draw order: one (n, dv)
    # uniform block per message iteration, one length-n block for the
    # final decision
    ref_rng = np.random.default_rng(555)
    mu_vc = y[edge_vn(code)].astype(np.int32)
    ties = []
    for it in range(1, l_max + 1):
        mu_cv = naive_cn_update(code, mu_vc)
        xi = sched.value_at(it)
        rows = mu_cv.reshape(9, 2)
        boards = [ScoreBoard.from_votes([int(s) for s in rows[v]], int(y[v]),
                                        eps, xi, 4) for v in range(9)]
        if it < l_max:
            u = ref_rng.random((9, 2))
            mu_vc = np.array([b.argmax(u[v, j], drop_slot=j)
                              for v, b in enumerate(boards)
                              for j in range(2)], dtype=np.int32)
            ties.append(sum(len(b.tie_set(j)) > 1
                            for b in boards for j in range(2)))
        else:
            u = ref_rng.random(9)
            final = np.array([b.argmax(u[v]) for v, b in enumerate(boards)],
                             dtype=np.int32)
            ties.append(sum(len(b.tie_set()) > 1 for b in boards))
    assert np.array_equal(res.decided, final)
    assert res.tie_events == tuple(ties)


def _stepwise_decode(code, y, eps, schedule, l_max, seed):
    """decode without its early exit: every update of every iteration.

    Also lists, with their tie counts, the iterations at or past the end
    of the schedule whose messages repeat the previous ones.
    """
    gen = np.random.default_rng(seed)
    mu_vc = y[edge_vn(code)]
    ties, repeats = [], []
    for it in range(1, l_max):
        sent, t = vn_update(code, cn_update(code, mu_vc), y, eps,
                            schedule.value_at(it), gen)
        ties.append(t)
        if it >= len(schedule.xi_values) and np.array_equal(sent, mu_vc):
            repeats.append((it, t))
        mu_vc = sent
    decided, t = _decision(code, cn_update(code, mu_vc), y, eps,
                           schedule.value_at(l_max), gen.random(code.n))
    ties.append(t)
    return decided, tuple(ties), repeats


@pytest.mark.parametrize("m, n, code_seed, eps, xi_values, l_max, frame", [
    # (3,6) GF(4) below threshold: the frame decodes to the codeword
    pytest.param(2, 1200, 47, 0.06, None, 46, 0, id="converged"),
    # (3,6) GF(256) above threshold: a fixed point with symbol errors
    pytest.param(8, 480, 1, 0.15, None, 100, 4, id="stalled"),
    # (3,6) GF(2) at w = 1: the messages repeat without a tie from
    # iteration 9 on, but one node's decision ties, so no exit
    pytest.param(1, 72, 17, 0.1, (0.1,), 30, 12, id="decision-tie"),
    # (3,6) GF(512), past the product-table cut, below threshold
    pytest.param(9, 240, 1, 0.06, None, 40, 0, id="gf512"),
])
def test_decode_early_exit_matches_every_iteration(m, n, code_seed, eps,
                                                   xi_values, l_max,
                                                   frame):
    field = build_field(m)
    code = sample_code(n, 3, 6, field, seed=code_seed)
    sched = XiSchedule(xi_values) if xi_values \
        else XiSchedule.from_trace(de_run(3, 6, field.q, eps, l_max=l_max))
    y = transmit(np.zeros(n, dtype=np.int32), ChannelParams(field, eps),
                 np.random.default_rng(frame))
    res = decode(code, y, eps, sched, l_max, rng=frame + 1000)
    decided, ties, repeats = _stepwise_decode(code, y, eps, sched, l_max,
                                              frame + 1000)
    assert np.array_equal(res.decided, decided)
    assert res.tie_events == ties
    fixed = [it for it, t in repeats if t == 0]
    assert fixed, "the frame reaches a tie-free message fixed point"
    if ties[-1]:
        assert res.iterations == l_max
    else:
        assert res.iterations == fixed[0] < l_max
        assert (np.count_nonzero(decided) == 0) == (eps < 0.1)


def test_decode_does_not_exit_on_repeated_tied_messages():
    # GF(2) at w = 1 with one flipped symbol: its node and each of its
    # neighbours tie, and with rng 28 iteration 1 draws the channel word
    # again; iteration 2 sees the same ties, so stopping would be wrong
    code = sample_code(12, 2, 3, F2, seed=1)
    y = np.zeros(12, dtype=np.int32)
    y[0] = 1
    sched = XiSchedule([0.1])
    res = decode(code, y, 0.1, sched, 10, rng=28)
    decided, ties, repeats = _stepwise_decode(code, y, 0.1, sched, 10, 28)
    assert repeats[0] == (1, ties[0]) and ties[0] > 0
    assert np.array_equal(res.decided, decided)
    assert res.tie_events == ties
    assert res.iterations > 1


def test_decode_coset_symmetry_is_exact():
    code = sample_code(30, 3, 6, F4, seed=53)
    c = find_nonzero_codeword(code)
    params = ChannelParams(F4, 0.15)
    sched = _schedule_for(3, 6, 4, 0.15)
    zero = np.zeros(30, dtype=np.int32)
    for seed in range(8):
        noise = transmit(zero, params, np.random.default_rng(2000 + seed))
        y_shift = np.bitwise_xor(noise, c)
        res_zero = decode(code, noise, 0.15, sched, 25, rng=seed)
        res_shift = decode(code, y_shift, 0.15, sched, 25, rng=seed)
        assert np.array_equal(res_shift.decided,
                              np.bitwise_xor(res_zero.decided, c))


def test_decode_short_schedule_repeats_final_value():
    code = sample_code(60, 3, 6, F4, seed=59)
    y = transmit(np.zeros(60, dtype=np.int32), ChannelParams(F4, 0.05),
                 np.random.default_rng(8))
    short = XiSchedule([0.3, 0.05])
    res = decode(code, y, 0.05, short, l_max=15, rng=3)
    assert res.decided.shape == (60,)
    assert len(res.tie_events) == 15


def test_decode_rejects_epsilon_at_channel_ceiling():
    # the same [0, (q-1)/q) rule as ChannelParams and density evolution
    code = sample_code(12, 3, 4, F4, seed=71)
    sched = XiSchedule([0.2])
    y = np.zeros(12, dtype=np.int32)
    with pytest.raises(ValueError):
        decode(code, y, 0.75, sched, 5, rng=0)
    decode(code, y, 0.75 - 1e-9, sched, 5, rng=0)


def test_decoder_refuses_degrees_beyond_its_tables():
    code = sample_code(18, 8, 9, F2, seed=1)
    y = np.zeros(18, dtype=np.int32)
    with pytest.raises(ValueError, match="degrees up to 7, got 8"):
        decode(code, y, 0.1, XiSchedule([0.1]), 3, rng=0)


def test_decode_validates_input_length():
    code = sample_code(12, 3, 4, F4, seed=71)
    sched = XiSchedule([0.2])
    with pytest.raises(ValueError):
        decode(code, np.zeros(11, dtype=np.int32), 0.1, sched, 5, rng=0)
    # 2**32 + 1 would wrap to symbol 1 in int32, and 0.7 truncate to 0
    y = np.zeros(12, dtype=np.int64)
    y[3] = 2 ** 32 + 1
    with pytest.raises(ValueError, match="outside the field"):
        decode(code, y, 0.1, sched, 5, rng=0)
    with pytest.raises(ValueError, match="must be integers, got float64"):
        decode(code, np.full(12, 0.7), 0.1, sched, 5, rng=0)
    with pytest.raises(ValueError, match="l_max must be positive, got 0"):
        decode(code, np.zeros(12, dtype=np.int32), 0.1, sched, 0, rng=0)
