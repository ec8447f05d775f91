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
equal to each other, on where w falls among the vote counts 1..dv (its
class, ``channel.weight_class``) and on the tie draw; not on q or on
the symbol values. So the variable-node kernel takes the class, not w,
and keys every node by the equality pattern of its candidates and
reads the tie set of each outgoing slot, and of the final decision,
from a table that scores one representative candidate row per pattern.
The candidates of all nodes form one slot-major (dv + 1, n) block. A
node's key is the sum over its candidates i of i! times the first
candidate equal to candidate i, found in a fixed number of array passes
whatever dv is: one equality cube, a bit mask per candidate and a bit
count of its lowest set bit. As that index is at most i, the key lies
below (dv + 1)!, the table's row count. Per key the kernel also keeps
the first tied slot of each row times n, in one contiguous block, and a
flag set where some row ties: every node gathers its winners at its
key's lead offsets plus its own index, and only flagged nodes read
their table rows to pick among their ties.

A frame stops early once its messages cycle without a tie after the
weight class settles, with the decisions and tie counts of the full
run; ``decode`` states the rule and why it is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .channel import check_epsilon, weight_class, weight_ratio
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
#: at dv = 8. The gather offsets read from it take about twice as much
#: again.
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

    Each CN first forms the total T of its labeled inputs, a reduce
    over the rows of the graph's (dc, m_checks) socket block, then every
    edge receives inv(label) * (T - label * message): one pass instead
    of a per-edge sum, costing 2 dc - 1 additions and 2 dc products per
    CN. The inverse labels and the socket block are computed once per
    graph.
    """
    f = code.field
    labeled = f.mul_vec(code.edge_label, np.asarray(vn_to_cn))
    totals = np.bitwise_xor.reduce(labeled.take(code.cn_sockets), axis=0)
    extrinsic = np.bitwise_xor(totals.take(code.edge_cn), labeled)
    return f.mul_vec(code.inv_label, extrinsic)


@lru_cache(maxsize=64)
def _run_classes(schedule: XiSchedule, q: int, epsilon: float, dv: int,
                 l_max: int) -> tuple[tuple[int, ...], int]:
    """Weight class of each iteration 1..l_max, and the first iteration
    from which it stays that of l_max. Every frame of a run asks the
    same; the cache is bounded so that a long-lived process does not
    keep every schedule it has decoded with."""
    classes = tuple(
        weight_class(weight_ratio(q, epsilon, schedule.value_at(it)), dv)
        for it in range(1, l_max + 1))
    settled = l_max
    while settled > 1 and classes[settled - 2] == classes[-1]:
        settled -= 1
    return classes, settled


@cache
def _pattern_table(dv: int, weight_class: int) -> np.ndarray:
    """Tie sets of every equality pattern of dv + 1 candidates.

    The row of a pattern's key (``_pattern_key``) holds, for each
    extrinsic view j < dv (slot j's vote left out) and then for the
    decision (all votes), the tie count followed by the tied slots in
    slot order, counting the first occurrence of each symbol only. Each
    pattern is scored with its own restricted-growth string as the
    candidate row and the class's midpoint or integer as w; the rows are
    keyed by the same function as the decoder's candidates, transposed
    to its slot-major layout. Rows of no pattern stay zero. The weights
    ``weight_ratio`` returns lie above 1e-13 and, unless integral, more
    than 1e-9 from every integer, so c + w compares with every count
    c' <= MAX_DV as the real numbers do and one table serves the whole
    class.
    """
    if dv > MAX_DV:
        raise ValueError(f"the decoder takes variable node degrees up to "
                         f"{MAX_DV}, got {dv}")
    if weight_class not in range(2 * dv + 1):
        raise ValueError(f"weight class {weight_class} outside 0..{2 * dv}")
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
    key = _pattern_key(cand.T)
    table[key, :, 0] = tied.sum(axis=2)
    table[key, :, 1:] = np.argsort(~tied, axis=2, kind="stable")
    table.flags.writeable = False
    return table


@cache
def _key_weights(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit 2**j of each candidate j, and the place value i! of each
    candidate i >= 1, for ``_pattern_key`` on ``size`` candidates."""
    bits = np.left_shift(np.uint8(1), np.arange(size, dtype=np.uint8))
    places = np.array([math.factorial(i) for i in range(1, size)],
                      dtype=np.intp)
    return bits[:, None, None], places


def _pattern_key(cand: np.ndarray) -> np.ndarray:
    """Equality pattern of each column of candidates, as a table row.

    ``cand`` holds one candidate per row, one node per column. Bit j of
    candidate i's mask is set where candidate j equals it, so its lowest
    set bit is bit f_i, f_i being the first candidate equal to candidate
    i, and the bits below it count f_i. The key is the sum of i! f_i over i >= 1
    (f_0 = 0): a mixed-radix number whose digit f_i <= i, so equal
    patterns give equal keys, distinct patterns distinct keys, and every
    key is at most the sum of i! i, that is (dv + 1)! - 1. The masks fit
    in uint8 up to 8 candidates (dv = MAX_DV).
    """
    bits, places = _key_weights(cand.shape[0])
    eq = (cand[:, None] == cand[None, 1:]).view(np.uint8)
    eq *= bits
    mask = eq.sum(axis=0, dtype=np.uint8)
    del eq
    mask &= -mask  # the lowest set bit, 2**f_i
    mask -= 1
    return places @ np.bitwise_count(mask)


@lru_cache(maxsize=32)
def _gather_offsets(dv: int, weight_class: int, n: int,
                    rows: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``_vote`` reads of the selected rows of every pattern.

    Returns, per table row (pattern key), the first tied slot of each
    selected row times n, as one contiguous intp block; a flag set where
    some selected row ties; and the selected rows themselves, int8, for
    the tie picks. Only the first block depends on n. The cache is
    bounded as it is keyed by n.
    """
    # C order throughout: ``take`` copies any other layout whole first
    sel = np.ascontiguousarray(_pattern_table(dv, weight_class)[:, rows])
    lead = np.multiply(sel[:, :, 1], n, dtype=np.intp, order="C")
    return lead, (sel[:, :, 0] > 1).any(axis=1), sel


def _vote(code: CodeGraph, cn_to_vn: np.ndarray, y: np.ndarray,
          w_class: int, u: np.ndarray,
          rows: range) -> tuple[np.ndarray, int]:
    """Winning symbol per VN and table row, and how many of them tied.

    ``w_class`` picks the pattern table: the channel weight enters only
    as its class. ``rows`` selects the extrinsic views (``range(dv)``)
    or the decision (``range(dv, dv + 1)``) of every node's table row;
    ``u`` has one uniform draw per selected row. Of a tie set of size s,
    entry min(floor(u * s), s - 1) in slot order is returned; without a
    tie that is the first tied slot, so only ties read their draws.
    The candidates form one slot-major (dv + 1, n) block, so slot j of
    node v sits at flat index j * n + v. The winners are gathered
    through one intp array of such indices: each node's key takes its
    lead slots, already scaled by n, from ``_gather_offsets`` and adds
    v. Only nodes whose key is flagged as tied read their table rows:
    those rows are taken into one compacted block, and its tied rows
    read their sizes, draws and slots with 1-D takes at flat offsets and
    are written into the index with one flat scatter, row k of the block
    standing for node ``nodes[k]``. An int32 index would be cast to a
    second, intp copy by the gather.
    """
    n, dv = code.n, code.dv
    cand = np.empty((dv + 1, n), dtype=np.int32)
    cand[:dv] = np.asarray(cn_to_vn).reshape(n, dv).T
    cand[dv] = y
    lead, flag, sel = _gather_offsets(dv, w_class, n, rows)
    key = _pattern_key(cand)
    index = lead.take(key, axis=0)
    index += np.arange(n)[:, None]
    nodes = np.flatnonzero(flag.take(key))
    ties = 0
    if nodes.size:
        entry = sel.take(key.take(nodes), axis=0)
        tied = np.flatnonzero(entry[:, :, 0] > 1)
        ties = tied.size
        # tied row r of block row k is row r of node v = nodes[k]: flat
        # index k * len(rows) + r in the block's rows, v * len(rows) + r
        # in u and index
        k = tied // len(rows)
        v = nodes.take(k)
        row = tied + (v - k) * len(rows)
        at = tied * (dv + 2)  # its tie count; its tied slots follow
        flat = entry.reshape(-1)
        s = flat.take(at)
        pick = np.minimum((u.reshape(-1).take(row) * s).astype(np.intp),
                          s - 1)
        index.put(row, np.multiply(flat.take(at + 1 + pick), n,
                                   dtype=np.intp) + v)
        del entry  # freed before the output is allocated: a lower peak
    # key lives on to the return: freed here, its space would take the
    # output below the tie temporaries, which would then free at the top
    # of the heap; glibc hands that back to the system and the next call
    # faults it in again (about 600 page faults per tie-heavy call at
    # n = 60000)
    return cand.reshape(-1).take(index), ties


def vn_update(code: CodeGraph, cn_to_vn: np.ndarray, y: np.ndarray,
              w_class: int,
              rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Extrinsic symbol decisions at every variable node.

    Per outgoing edge the score of symbol b is its vote count among the
    other dv - 1 incoming messages plus w = D(epsilon)/D(xi) if b equals
    the channel symbol; the argmax is emitted, ties broken uniformly.
    That depends on w only through its class ``w_class``. Exactly one
    uniform block of shape (n, dv) is drawn from rng per call, one value
    per outgoing edge, whether or not ties occur.

    Returns the flat edge-ordered message array and the number of
    edges whose argmax was a tie.
    """
    u = rng.random((code.n, code.dv))
    out, ties = _vote(code, cn_to_vn, y, w_class, u, range(code.dv))
    return out.reshape(-1), ties


def _decision(code: CodeGraph, cn_to_vn: np.ndarray, y: np.ndarray,
              w_class: int, u: np.ndarray) -> tuple[np.ndarray, int]:
    """Non-extrinsic symbol decision: all dv votes plus the channel, whose
    weight enters only as its class ``w_class``. ``u`` holds one uniform
    tie draw per variable node."""
    out, ties = _vote(code, cn_to_vn, y, w_class, u[:, None],
                      range(code.dv, code.dv + 1))
    return out[:, 0], ties


@dataclass(frozen=True)
class DecodeResult:
    """Final decisions, the tie count of every iteration, and the number
    of iterations run (below l_max when the frame stopped early at a
    tie-free fixed point or message cycle)."""

    decided: np.ndarray
    tie_events: tuple
    iterations: int


def decode(code: CodeGraph, y: np.ndarray, epsilon: float,
           schedule: XiSchedule, l_max: int,
           rng: np.random.Generator | int | None = None) -> DecodeResult:
    """Run l_max decoder iterations and take the final decision.

    Iteration 1 sends the channel word along every edge; afterwards
    check and variable updates alternate, iteration l's variable step
    using the class of schedule.value_at(l). The final decision takes
    all dv incoming votes plus the channel weight (non-extrinsic). Each
    iteration's tie count is reported: tied edges for the message steps,
    tied variable nodes for the final decision. A fixed rng seed makes
    the whole run deterministic.

    Variable nodes read each outgoing message from a table indexed by
    the equality pattern of their candidates (see the module docstring).
    The run stops early on a message cycle. Let iteration t send the
    messages of iteration t - p (the channel word is iteration 0), with
    no tie in iterations t - p + 1 to t and the weight class of every
    iteration from t - p + 1 to l_max the same. Every later iteration
    then reads the same pattern table and repeats the one p before it
    without a tie, never reading its draws. So iteration l_max reads the
    check messages of every iteration it >= t with (l_max - it) % p ==
    0; the run stops at the first such it < l_max if the decision from
    its check messages has no tie, returning that decision with zeros
    as the remaining tie counts and it as ``iterations``. A tied
    decision would tie at l_max too and draw, so the run goes on. p = 1
    is tested against the previous iteration's messages, so a fixed
    point stops where it repeats; longer periods against one stored
    message array, moved to the current messages after 1, 2, 4, ...
    iterations and whenever an iteration ties or precedes the settled
    class (Brent's cycle detection, one message array of memory). The
    decisions and tie counts equal those of the full run; a
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
    classes, settled = _run_classes(schedule, code.field.q, epsilon,
                                    code.dv, l_max)
    # anchor: the messages of iteration at, with no tie and no class
    # change after it; it moves on after span iterations, span doubling
    anchor, at, span, period = mu_vc, 0, 1, 0
    tie_events = []
    for it in range(1, l_max):
        mu_cv = cn_update(code, mu_vc)
        sent, ties = vn_update(code, mu_cv, y, classes[it - 1], gen)
        tie_events.append(ties)
        if ties or it < settled:
            anchor, at, span = sent, it, 1
        elif not period:
            if np.array_equal(sent, mu_vc):
                period = 1
            elif np.array_equal(sent, anchor):
                period = it - at
            elif it - at == span:
                anchor, at, span = sent, it, 2 * span
        if period and (l_max - it) % period == 0:
            # mu_cv are the check messages of iteration l_max; without a
            # tie the draws cannot matter, so none are made
            decided, ties = _decision(code, mu_cv, y, classes[-1],
                                      np.zeros(code.n))
            if ties == 0:
                tie_events += [0] * (l_max - it)
                return DecodeResult(decided=decided,
                                    tie_events=tuple(tie_events),
                                    iterations=it)
            period = l_max  # the decision at l_max ties: no iteration exits
        mu_vc = sent
    mu_cv = cn_update(code, mu_vc)
    decided, ties = _decision(code, mu_cv, y, classes[-1], gen.random(code.n))
    tie_events.append(ties)
    return DecodeResult(decided=decided, tie_events=tuple(tie_events),
                        iterations=l_max)
