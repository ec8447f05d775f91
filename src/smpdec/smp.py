"""Symbol message passing decoder over a labeled Tanner graph.

Messages are single field symbols. Check nodes forward the parity
completion of their inputs; variable nodes count incoming votes per
symbol, add a weight w = D(epsilon)/D(xi) to the channel observation,
and emit the highest-scoring symbol, breaking ties uniformly at random.
Scores tie only when equal: ``weight_ratio`` snaps a near-integral w, so
the channel symbol ties a vote count exactly where density evolution
counts the tie. The per-iteration vote quality xi comes from a
density-evolution schedule. All message updates are vectorized over edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import check_epsilon, weight_ratio
from .code import CodeGraph

__all__ = [
    "DecodeResult",
    "XiSchedule",
    "cn_update",
    "decode",
    "vn_update",
]


@dataclass(frozen=True)
class XiSchedule:
    """Per-iteration extrinsic error probabilities fed to the decoder.

    Reads past the end repeat the final value (a converged schedule
    sits at a fixed point). Values reach the decoder only through
    ``weight_ratio``, which clamps them so channel weights stay finite.
    """

    xi_values: tuple

    def __post_init__(self) -> None:
        vals = tuple(self.xi_values)
        if not vals:
            raise ValueError("schedule needs at least one value")
        object.__setattr__(self, "xi_values", vals)

    @classmethod
    def from_trace(cls, trace) -> "XiSchedule":
        """The lower xi of every record of a DeTrace."""
        return cls(tuple(rec.xi.lower for rec in trace.records))

    def value_at(self, iteration: int) -> float:
        """Schedule value for a 1-based decoder iteration."""
        if iteration < 1:
            raise ValueError(f"iterations are 1-based, got {iteration}")
        return self.xi_values[min(iteration - 1, len(self.xi_values) - 1)]


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
    tied = (scores == smax) & canon
    ntied = tied.sum(axis=1)
    pick = np.minimum((u * ntied).astype(np.int64), ntied - 1)
    chosen = tied & (np.cumsum(tied, axis=1) == (pick + 1)[:, None])
    idx = chosen.argmax(axis=1)
    picked = np.take_along_axis(cand, idx[:, None], axis=1)[:, 0]
    return picked.astype(np.int32), ntied


def vn_update(code: CodeGraph, cn_to_vn: np.ndarray, y: np.ndarray,
              epsilon: float, xi: float,
              rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Extrinsic symbol decisions at every variable node.

    Per outgoing edge the score of symbol b is its vote count among the
    other dv - 1 incoming messages plus w = D(epsilon)/D(xi) if b equals
    the channel symbol; the argmax is emitted, ties broken uniformly.
    Exactly one uniform block of shape (n, dv) is drawn from rng per
    call, one value per outgoing edge, whether or not ties occur.

    Returns the flat edge-ordered message array and the number of
    edges whose argmax was a tie.
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
    return out.reshape(-1), ties


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
class DecodeResult:
    """Final decisions plus the tie count of every iteration."""

    decided: np.ndarray
    tie_events: tuple


def decode(code: CodeGraph, y: np.ndarray, epsilon: float,
           schedule: XiSchedule, l_max: int,
           rng: np.random.Generator | int | None = None) -> DecodeResult:
    """Run l_max decoder iterations and take the final decision.

    Iteration 1 sends the channel word along every edge; afterwards
    check and variable updates alternate, the variable step of iteration
    l using schedule.value_at(l). The final decision aggregates all dv
    incoming votes plus the channel weight (non-extrinsic). Each
    iteration's tie count is reported: tied edges for the message steps,
    tied variable nodes for the final decision. A fixed rng seed makes
    the whole run deterministic.
    """
    y = np.asarray(y, dtype=np.int32)
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    if y.min() < 0 or y.max() >= code.field.q:
        raise ValueError("received symbols outside the field")
    check_epsilon(code.field.q, epsilon)
    if l_max < 1:
        raise ValueError(f"l_max must be positive, got {l_max}")

    gen = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(rng)
    mu_vc = y[code.edge_vn].astype(np.int32)
    tie_events = []
    for it in range(1, l_max):
        mu_cv = cn_update(code, mu_vc)
        mu_vc, ties = vn_update(code, mu_cv, y, epsilon,
                                schedule.value_at(it), gen)
        tie_events.append(ties)
    mu_cv = cn_update(code, mu_vc)
    decided, ties = _decision(code, mu_cv, y, epsilon,
                              schedule.value_at(l_max), gen)
    tie_events.append(ties)
    return DecodeResult(decided=decided, tie_events=tuple(tie_events))
