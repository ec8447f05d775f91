"""Symbol message passing decoder over a labeled Tanner graph.

Messages are single field symbols. Check nodes forward the parity
completion of their inputs; variable nodes count incoming votes per
symbol, add a weight w = D(epsilon)/D(xi) to the channel observation,
and emit the highest-scoring symbol, breaking ties uniformly at random.
Scores tie only when equal: ``weight_ratio`` snaps a near-integral w, so
the channel symbol ties a vote count exactly where density evolution
counts the tie. The per-iteration vote quality xi comes from a
density-evolution schedule. All message updates are vectorized over edges.

Which symbol a variable node emits depends only on which of its dv + 1
candidates (the dv incoming messages, then the channel symbol) are
equal to each other, on where w falls among the vote counts 1..dv and
on the tie draw; not on q or on the symbol values. So the variable-node
kernel keys every node by the equality pattern of its candidates and
reads the tie set of each outgoing slot, and of the final decision,
from a table that scores one representative candidate row per pattern.

A frame stops early at a tie-free fixed point. When an iteration at or
past the end of the schedule sends the same messages as the one before
it with no tie, the next iteration sees the same check messages and the
same xi, so it repeats those messages without a tie, and so does every
later one; if the decision from those check messages has no tie either,
it is the decision of the last iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

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

#: Largest variable node degree the decoder takes. A pattern table has
#: (dv + 1)! rows: 40320, or 2.9 MB, at dv = 7, and nine times as many
#: at dv = 8.
MAX_DV = 7


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
    CN. The inverse labels are computed once per graph.
    """
    f = code.field
    labeled = f.mul_vec(code.edge_label, np.asarray(vn_to_cn))
    perm = code.cn_edge_perm
    starts = np.arange(0, labeled.size, code.dc)
    totals = np.bitwise_xor.reduceat(labeled[perm], starts)
    extrinsic = np.bitwise_xor(totals[code.edge_cn], labeled)
    return f.mul_vec(code.inv_label, extrinsic)


def _weight_class(w: float, dv: int) -> int:
    """Where w > 0 falls among the vote counts 1..dv.

    Class 2k lies strictly between k and k + 1 (below 1 for k = 0,
    above dv for k = dv) and class 2k - 1 is w = k exactly.
    """
    return min(math.ceil(w) - 1, dv) + min(math.floor(w), dv)


@cache
def _pattern_table(dv: int, weight_class: int) -> np.ndarray:
    """Tie sets of every equality pattern of dv + 1 candidates.

    Row ``_pattern_key(cand)`` holds, for each extrinsic view j < dv
    (slot j's vote left out) and then for the decision (all votes), the
    tie count followed by the tied slots in slot order, counting the
    first occurrence of each symbol only. Each pattern is scored with
    its own restricted-growth string as the candidate row and the
    class's midpoint or integer as w. The weights ``weight_ratio``
    returns lie above 1e-13 and, unless integral, more than 1e-9 from
    every integer, so c + w compares with every count c' <= MAX_DV as
    the real numbers do and one table serves the whole class.
    """
    if dv > MAX_DV:
        raise ValueError(f"the decoder takes variable node degrees up to "
                         f"{MAX_DV}, got {dv}")
    rows = [[0]]
    for _ in range(dv):
        rows = [r + [b] for r in rows for b in range(max(r) + 2)]
    cand = np.array(rows)
    mu, y = cand[:, :dv], cand[:, dv]
    counts = (cand[:, :, None] == mu[:, None, :]).sum(axis=2)
    canon = np.ones(cand.shape, dtype=bool)
    for i in range(1, dv + 1):
        for j in range(i):
            canon[:, i] &= cand[:, j] != cand[:, i]
    bonus = np.where(cand == y[:, None], (weight_class + 1) / 2, 0.0)
    scores = np.stack([counts - (cand == mu[:, j, None]) + bonus
                       for j in range(dv)] + [counts + bonus], axis=1)
    tied = (scores == scores.max(axis=2, keepdims=True)) & canon[:, None, :]
    table = np.zeros((math.factorial(dv + 1), dv + 1, dv + 2), dtype=np.int8)
    key = _pattern_key(cand)
    table[key, :, 0] = tied.sum(axis=2)
    table[key, :, 1:] = np.argsort(~tied, axis=2, kind="stable")
    table.flags.writeable = False
    return table


def _pattern_key(cand: np.ndarray) -> np.ndarray:
    """Equality pattern of each row of candidates, as a table row.

    Candidate i gets the label of the first earlier candidate equal to
    it, or the next unused label; the labels a_1..a_dv (a_0 = 0) read
    as a mixed-radix number with place values i! give a key below
    (dv + 1)!.
    """
    n, size = cand.shape
    labels = [np.zeros(n, dtype=np.int8)]
    fresh = np.ones(n, dtype=np.int8)
    key = np.zeros(n, dtype=np.intp)
    for i in range(1, size):
        label = fresh.copy()
        for j in range(i):
            # branch-free np.where(equal, labels[j], label)
            label -= (cand[:, j] == cand[:, i]) * (label - labels[j])
        fresh += label == fresh
        key += label * np.intp(math.factorial(i))
        labels.append(label)
    return key


def _vote(code: CodeGraph, cn_to_vn: np.ndarray, y: np.ndarray,
          epsilon: float, xi: float, u: np.ndarray,
          rows: slice) -> tuple[np.ndarray, int]:
    """Winning symbol per VN and table row, and how many of them tied.

    ``rows`` selects the extrinsic views (``slice(0, dv)``) or the
    decision (``slice(dv, None)``) of every node's pattern-table row;
    ``u`` has one uniform draw per selected row. Of a tie set of size s,
    entry min(floor(u * s), s - 1) in slot order is returned; without a
    tie that is the first tied slot, so only ties read their draws.
    The winners are gathered from the flattened candidate array through
    one intp index array, each node's row offset plus its winning slot,
    into which the tied picks are written; an int32 index would be cast
    to a second, intp copy by the gather.
    """
    n, dv = code.n, code.dv
    cand = np.empty((n, dv + 1), dtype=np.int32)
    cand[:, :dv] = np.asarray(cn_to_vn).reshape(n, dv)
    cand[:, dv] = y
    w = weight_ratio(code.field.q, epsilon, xi)
    table = _pattern_table(dv, _weight_class(w, dv))
    entry = table.take(_pattern_key(cand), axis=0)[:, rows]
    ntied = entry[:, :, 0]
    index = entry[:, :, 1] + np.arange(0, cand.size, dv + 1)[:, None]
    tied = np.flatnonzero(ntied > 1)
    if tied.size:
        v, r = np.divmod(tied, ntied.shape[1])
        s = ntied[v, r]
        pick = np.minimum((u[v, r] * s).astype(np.int64), s - 1)
        index[v, r] = entry[v, r, 1 + pick] + v * (dv + 1)
    del entry, ntied  # freed before the output is allocated: a lower peak
    return cand.reshape(-1).take(index), tied.size


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
    u = rng.random((code.n, code.dv))
    out, ties = _vote(code, cn_to_vn, y, epsilon, xi, u, slice(0, code.dv))
    return out.reshape(-1), ties


def _decision(code: CodeGraph, cn_to_vn: np.ndarray, y: np.ndarray,
              epsilon: float, xi: float,
              u: np.ndarray) -> tuple[np.ndarray, int]:
    """Non-extrinsic symbol decision: all dv votes plus the channel.

    ``u`` holds one uniform tie draw per variable node.
    """
    out, ties = _vote(code, cn_to_vn, y, epsilon, xi, u[:, None],
                      slice(code.dv, None))
    return out[:, 0], ties


@dataclass(frozen=True)
class DecodeResult:
    """Final decisions, the tie count of every iteration, and the number
    of iterations run (below l_max when the frame stopped early)."""

    decided: np.ndarray
    tie_events: tuple
    iterations: int


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

    Variable nodes read each outgoing message from a table indexed by
    the equality pattern of their candidates (see the module docstring).
    The run stops after iteration it < l_max when it is at or past the
    end of the schedule, its messages equal those of iteration it - 1
    (the channel word for it = 1), none of them tied, and the decision
    from its check messages has no tie. Every later iteration would
    then repeat those messages without a tie, so that decision is
    returned, the remaining tie counts are zeros and ``iterations`` is
    it. The decisions and tie counts equal those of the full run; a
    Generator passed as rng is left in a different state, having made
    none of the skipped iterations' draws.
    """
    y = np.asarray(y)
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"received symbols must be integers, got {y.dtype}")
    if y.min() < 0 or y.max() >= code.field.q:
        raise ValueError("received symbols outside the field")
    y = y.astype(np.int32, copy=False)
    check_epsilon(code.field.q, epsilon)
    if l_max < 1:
        raise ValueError(f"l_max must be positive, got {l_max}")

    gen = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(rng)
    mu_vc = np.repeat(y, code.dv)
    settled = len(schedule.xi_values)
    tie_events = []
    for it in range(1, l_max):
        mu_cv = cn_update(code, mu_vc)
        xi = schedule.value_at(it)
        sent, ties = vn_update(code, mu_cv, y, epsilon, xi, gen)
        tie_events.append(ties)
        if ties == 0 and it >= settled and np.array_equal(sent, mu_vc):
            # without a tie the draws cannot matter, so none are made
            decided, ties = _decision(code, mu_cv, y, epsilon, xi,
                                      np.zeros(code.n))
            if ties == 0:
                tie_events += [0] * (l_max - it)
                return DecodeResult(decided=decided,
                                    tie_events=tuple(tie_events),
                                    iterations=it)
        mu_vc = sent
    mu_cv = cn_update(code, mu_vc)
    decided, ties = _decision(code, mu_cv, y, epsilon,
                              schedule.value_at(l_max), gen.random(code.n))
    tie_events.append(ties)
    return DecodeResult(decided=decided, tie_events=tuple(tie_events),
                        iterations=l_max)
