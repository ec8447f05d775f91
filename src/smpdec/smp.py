"""Symbol message passing decoder over a labeled Tanner graph.

Messages are single field symbols. Check nodes forward the parity
completion of their inputs; variable nodes count incoming votes per
symbol, add a weight w = D(epsilon)/D(xi) to the channel observation,
and emit the highest-scoring symbol, breaking ties uniformly at random.
The per-iteration vote quality xi comes from a density-evolution
schedule. All message updates are vectorized over edges; ScoreBoard is
the scalar reference the vectorized path is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .channel import PROB_FLOOR, check_epsilon, weight_ratio
from .code import CodeGraph

__all__ = [
    "DecodeResult",
    "IterationDiag",
    "ScoreBoard",
    "XiSchedule",
    "cn_update",
    "decode",
    "vn_update",
]

#: Two scores tie iff their difference is within this fraction of
#: max(1, top score). For non-integral channel weights this coincides
#: with exact equality of (count, channel flag) pairs.
TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class XiSchedule:
    """Per-iteration extrinsic error probabilities fed to the decoder.

    Values are clamped into [PROB_FLOOR, (q-1)/q - PROB_FLOOR] at
    construction so channel weights stay finite; reads past the end
    repeat the final value (a converged schedule sits at a fixed point).
    """

    xi_values: tuple
    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"q must be at least 2, got {self.q}")
        hi = (self.q - 1) / self.q - PROB_FLOOR
        vals = tuple(min(max(float(x), PROB_FLOOR), hi) for x in self.xi_values)
        if not vals:
            raise ValueError("schedule needs at least one value")
        object.__setattr__(self, "xi_values", vals)

    @classmethod
    def from_trace(cls, trace, l_max: int, bound: str = "lower") -> "XiSchedule":
        """Build the schedule for l_max iterations from a DeTrace."""
        return cls(tuple(trace.xi_values(l_max, bound)), trace.q)

    def value_at(self, iteration: int) -> float:
        """Schedule value for a 1-based decoder iteration."""
        if iteration < 1:
            raise ValueError(f"iterations are 1-based, got {iteration}")
        return self.xi_values[min(iteration - 1, len(self.xi_values) - 1)]


@dataclass
class ScoreBoard:
    """Sparse per-symbol scores at one variable node.

    Scores are integer vote counts plus the channel weight on the
    observed symbol; at most dv + 1 symbols can score above zero, so
    candidates are tracked explicitly. ``candidates`` lists the incoming
    message symbols in slot order followed by the channel symbol; tie
    sets preserve first-occurrence order along that list, which is the
    convention the vectorized decoder implements.
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
        tol = TIE_REL_TOL * max(1.0, smax)
        return [c for c in ordered if smax - scores[c] <= tol]

    def argmax(self, u: float, drop_slot: int | None = None) -> int:
        """Top symbol, ties resolved by the uniform draw u in [0, 1)."""
        ties = self.tie_set(drop_slot)
        return ties[min(int(u * len(ties)), len(ties) - 1)]


def cn_update(code: CodeGraph, vn_to_cn: np.ndarray) -> np.ndarray:
    """Extrinsic parity completion at every check node.

    Each CN first forms the total T of its labeled inputs, then every
    edge receives inv(label) * (T - label * message): one pass instead
    of a per-edge sum, costing 2 dc - 1 additions and 2 dc products per
    CN.
    """
    f = code.field
    labeled = f.mul_vec(code.edge_label, np.asarray(vn_to_cn))
    perm = code.cn_edge_perm
    starts = np.arange(0, labeled.size, code.dc)
    totals = np.bitwise_xor.reduceat(labeled[perm], starts)
    extrinsic = np.bitwise_xor(totals[code.edge_cn], labeled)
    return f.mul_vec(f.inv_vec(code.edge_label), extrinsic).astype(np.int32)


def _vote_tables(code: CodeGraph, cn_to_vn: np.ndarray, y: np.ndarray,
                 epsilon: float, xi: float):
    """Shared VN scoring state: candidates, counts, dedup mask, weights."""
    n, dv = code.n, code.dv
    mu = np.asarray(cn_to_vn).reshape(n, dv)
    cand = np.concatenate([mu, y[:, None]], axis=1)
    counts = (cand[:, :, None] == mu[:, None, :]).sum(axis=2)
    canon = np.ones((n, dv + 1), dtype=bool)
    for i in range(1, dv + 1):
        for j in range(i):
            canon[:, i] &= cand[:, j] != cand[:, i]
    w = weight_ratio(code.field.q, epsilon, xi)
    bonus = np.where(cand == y[:, None], w, 0.0)
    return mu, cand, counts, canon, bonus


def _tie_argmax(cand: np.ndarray, scores: np.ndarray, canon: np.ndarray,
                u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise argmax over candidate slots with uniform tie-breaking.

    The tie set is scanned in slot order restricted to first occurrences
    of each symbol; entry floor(u * ntied) of that order is returned.
    """
    smax = scores.max(axis=1, keepdims=True)
    assert smax.min() > 0.0, "at least one vote plus a positive weight"
    tied = (scores >= smax - TIE_REL_TOL * np.maximum(1.0, smax)) & canon
    ntied = tied.sum(axis=1)
    pick = np.minimum((u * ntied).astype(np.int64), ntied - 1)
    chosen = tied & (np.cumsum(tied, axis=1) == (pick + 1)[:, None])
    idx = chosen.argmax(axis=1)
    picked = np.take_along_axis(cand, idx[:, None], axis=1)[:, 0]
    return picked.astype(np.int32), ntied


def vn_update(code: CodeGraph, cn_to_vn: np.ndarray, y: np.ndarray,
              epsilon: float, xi: float, rng: np.random.Generator,
              *, count_ties: bool = False):
    """Extrinsic symbol decisions at every variable node.

    Per outgoing edge the score of symbol b is its vote count among the
    other dv - 1 incoming messages plus w = D(epsilon)/D(xi) if b equals
    the channel symbol; the argmax is emitted, ties broken uniformly.
    Exactly one uniform block of shape (n, dv) is drawn from rng per
    call, one value per outgoing edge, whether or not ties occur.

    Returns the flat edge-ordered message array; with count_ties also
    the number of (edge, iteration) tie events.
    """
    n, dv = code.n, code.dv
    mu, cand, counts, canon, bonus = _vote_tables(code, cn_to_vn, y,
                                                  epsilon, xi)
    u = rng.random((n, dv))
    out = np.empty((n, dv), dtype=np.int32)
    ties = 0
    for j in range(dv):
        scores = counts - (cand == mu[:, j, None]) + bonus
        picked, ntied = _tie_argmax(cand, scores, canon, u[:, j])
        out[:, j] = picked
        ties += int((ntied > 1).sum())
    flat = out.reshape(-1)
    if count_ties:
        return flat, ties
    return flat


def _decision(code: CodeGraph, cn_to_vn: np.ndarray, y: np.ndarray,
              epsilon: float, xi: float,
              rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Non-extrinsic symbol decision: all dv votes plus the channel."""
    _, cand, counts, canon, bonus = _vote_tables(code, cn_to_vn, y,
                                                 epsilon, xi)
    picked, ntied = _tie_argmax(cand, counts + bonus, canon,
                                rng.random(code.n))
    return picked, int((ntied > 1).sum())


@dataclass(frozen=True)
class IterationDiag:
    """Diagnostics of one decoder iteration."""

    iteration: int
    tie_events: int
    symbol_errors: int | None


@dataclass
class DecodeResult:
    """Final decisions plus per-iteration diagnostics."""

    decided: np.ndarray
    iterations: int
    diagnostics: list[IterationDiag]


def decode(code: CodeGraph, y: np.ndarray, epsilon: float,
           schedule: XiSchedule, l_max: int,
           rng: np.random.Generator | int | None = None,
           *, reference: np.ndarray | None = None) -> DecodeResult:
    """Run l_max decoder iterations and take the final decision.

    Iteration 1 sends the channel word along every edge; afterwards
    check and variable updates alternate, the variable step of iteration
    l using schedule.value_at(l). The final decision aggregates all dv
    incoming votes plus the channel weight (non-extrinsic).

    When ``reference`` is given, diagnostics include per-iteration
    symbol-error counts of tentative decisions; those draw from a
    spawned child generator, so decisions are bit-identical whether or
    not a reference is supplied. A fixed rng seed makes the whole run
    deterministic.
    """
    y = np.asarray(y, dtype=np.int32)
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    if y.min() < 0 or y.max() >= code.field.q:
        raise ValueError("received symbols outside the field")
    check_epsilon(code.field.q, epsilon)
    if l_max < 1:
        raise ValueError(f"l_max must be positive, got {l_max}")
    if reference is not None:
        reference = np.asarray(reference, dtype=np.int32)
        if reference.shape != (code.n,):
            raise ValueError(f"reference word must have length {code.n}")

    gen = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(rng)
    diag_rng = gen.spawn(1)[0]

    mu_vc = y[code.edge_vn].astype(np.int32)
    diagnostics: list[IterationDiag] = []
    decided = None
    for it in range(1, l_max + 1):
        mu_cv = cn_update(code, mu_vc)
        xi = schedule.value_at(it)
        if it < l_max:
            mu_vc, ties = vn_update(code, mu_cv, y, epsilon, xi, gen,
                                    count_ties=True)
            if reference is not None:
                tentative, _ = _decision(code, mu_cv, y, epsilon, xi,
                                         diag_rng)
                errors = int((tentative != reference).sum())
            else:
                errors = None
        else:
            decided, ties = _decision(code, mu_cv, y, epsilon, xi, gen)
            errors = int((decided != reference).sum()) \
                if reference is not None else None
        diagnostics.append(IterationDiag(iteration=it, tie_events=ties,
                                         symbol_errors=errors))
    return DecodeResult(decided=decided, iterations=l_max,
                        diagnostics=diagnostics)
