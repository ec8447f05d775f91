"""Density evolution for symbol message passing on the q-ary symmetric channel.

Tracks a single scalar per iteration: the probability p0 that a message
equals the sent symbol (by symmetry every wrong symbol is equally likely).
A check-node step turns p0 into the probability omega0 that the check
vote is correct (closed form), a variable-node step turns the vote
quality back into a new p0. Both variable-node flavours walk the same
vote-count events and differ only in how a score tie pays out:

* ``vn_step_exact`` averages 1/(argmax size) over the exact distribution
  of how many symbols share the maximum.
* ``vn_step_bounded`` (q > 2) takes that average over ties of at most
  BOUNDED_EXACT_TIES further cells and bounds the rarer, wider ones; for
  dv <= 6 it equals the exact step except at integral weights.

Both walk the same events per step, with ball counts cached across
calls. A bounded iteration takes one step while its xi interval is a
point, which serves both bounds, and two otherwise, one per bound.

``de_run`` iterates either flavour and reports the full trajectory, from
which decoder weight schedules and convergence thresholds are derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .channel import check_epsilon, weight_ratio
from .code import check_degrees

__all__ = [
    "BoundedProb",
    "DeTrace",
    "IterationRecord",
    "cn_step",
    "de_run",
    "multinomial_max_cdf",
    "multinomial_max_eq_count_dist",
    "resolve_mode",
    "vn_step_bounded",
    "vn_step_exact",
]

#: A run has converged once the lower p0 trajectory is within this
#: distance of 1.
DELTA_CONV = 1e-9

#: The bounded step pays ties of up to this many further cells exactly.
BOUNDED_EXACT_TIES = 3


# ----------------------------------------------------------------------
# Interval container and trace records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedProb:
    """A probability known to lie in [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        lo = min(max(self.lower, 0.0), 1.0)
        up = min(max(self.upper, 0.0), 1.0)
        if lo > up:
            if lo - up > 1e-9:
                raise ValueError(f"lower {lo} exceeds upper {up}")
            up = lo
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)


@dataclass(frozen=True)
class IterationRecord:
    """One density-evolution iteration: p0 and the check vote error rate."""

    p0: BoundedProb
    xi: BoundedProb


@dataclass(frozen=True)
class DeTrace:
    """Trajectory of a density-evolution run.

    The run's inputs stay with the caller and in the CLI's embedded
    config. records[l] holds p0 after l variable-node iterations together
    with the xi the next variable-node step would see; records[0] is the
    channel initialization. ``converged`` and ``converged_upper`` read
    the last record: whether its lower, respectively upper, p0 reached
    1 - DELTA_CONV (they coincide in exact mode). A record's lower end
    never exceeds its upper one, so ``converged`` implies
    ``converged_upper``, which the threshold search relies on to share
    its probes between the two. Above threshold ``iterations_run``
    (len(records) - 1) can move by one with the last-bit rounding of a
    step, as the run stops once ``p_new <= p`` holds exactly.
    """

    mode: str
    records: list[IterationRecord]
    iterations_run: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "iterations_run", len(self.records) - 1)

    @property
    def converged(self) -> bool:
        return 1.0 - self.records[-1].p0.lower < DELTA_CONV

    @property
    def converged_upper(self) -> bool:
        return 1.0 - self.records[-1].p0.upper < DELTA_CONV


# ----------------------------------------------------------------------
# Check-node step
# ----------------------------------------------------------------------

def cn_step(p0: float, dc: int, q: int) -> float:
    """Probability omega0 that the vote formed from dc - 1 messages is correct.

    Each incoming message is correct with probability p0 and otherwise
    uniform over the wrong symbols; edge labels preserve that shape.
    j wrong inputs sum to zero with probability
    (1 + (q - 1) (-1/(q - 1))^j) / q; averaging that over the binomial
    number of wrong inputs gives omega0 = (1 + (q - 1) g^(dc-1)) / q
    with g = (q p0 - 1) / (q - 1). A wrong vote is uniform over the
    q - 1 wrong symbols.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if dc < 2:
        raise ValueError(f"dc must be at least 2, got {dc}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be a probability, got {p0}")
    g = (q * p0 - 1.0) / (q - 1)
    return min(max((1.0 + (q - 1) * g ** (dc - 1)) / q, 0.0), 1.0)


# ----------------------------------------------------------------------
# Maximum of a uniform multinomial
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _capped_assignments(k: int, s: int, t: int) -> int:
    """Number of ways to drop s labeled balls into k cells, each cell <= t."""
    if s == 0:
        return 1
    if k <= 0 or t <= 0:
        return 0
    if t >= s:
        return k ** s
    if k * t < s:
        return 0
    # row[u] = assignments of u balls into the first i cells
    row = [0] * (s + 1)
    row[0] = 1
    for _ in range(k):
        new = [0] * (s + 1)
        for u in range(s + 1):
            acc = 0
            for x in range(min(t, u) + 1):
                acc += math.comb(u, x) * row[u - x]
            new[u] = acc
        row = new
    return row[s]


def multinomial_max_cdf(k: int, s: int, t: int) -> float:
    """P(max cell count <= t) for s balls dropped uniformly into k cells."""
    if s < 0 or k < 0:
        raise ValueError(f"need k, s >= 0, got k={k}, s={s}")
    if s == 0:
        return 1.0
    if k == 0:
        return 0.0
    return _capped_assignments(k, s, t) / k ** s


def multinomial_max_eq_count_dist(k: int, s: int, t: int) -> list[float]:
    """P(exactly r cells hold t balls, all others fewer), r = 0, 1, ...

    The returned list covers r = 0 .. min(k, s // t); its total equals
    multinomial_max_cdf(k, s, t) and entry 0 is P(max < t).
    """
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    if s < 0 or k < 0:
        raise ValueError(f"need k, s >= 0, got k={k}, s={s}")
    if k == 0:
        return [1.0] if s == 0 else [0.0]
    total = k ** s
    out = []
    for r in range(min(k, s // t) + 1):
        # fill the r chosen cells with t balls each: s! / (t!^r (s-rt)!)
        ways = (math.comb(k, r) * math.factorial(s)
                * _capped_assignments(k - r, s - r * t, t - 1)
                // (math.factorial(t) ** r * math.factorial(s - r * t)))
        out.append(ways / total)
    return out


# ----------------------------------------------------------------------
# Variable-node step
# ----------------------------------------------------------------------

def _binom_pmf(j: int, n: int, p: float) -> float:
    """Binomial pmf, exact combinatorics for small n, log-space beyond."""
    if p <= 0.0:
        return 1.0 if j == 0 else 0.0
    if p >= 1.0:
        return 1.0 if j == n else 0.0
    if n <= 500:
        return math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
    return math.exp(
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        + j * math.log(p) + (n - j) * math.log1p(-p))


def _vn_walk(xi: float, epsilon: float, dv: int, q: int,
             exact_r: int) -> tuple[float, float]:
    """(lower, upper) probability that the next message is correct.

    The outgoing message is the symbol maximizing (vote count) + w for
    the observed symbol, w = D(epsilon)/D(xi), ties broken uniformly.
    One loop per observation walks the f0 votes on the sent symbol; on a
    wrong observation an outer loop first takes the f1 votes on the
    observed cell, and f0 = f1 + w (integral w only) ties the two. At
    each event the sent symbol and c - 1 other named symbols share the
    score t, while k further cells share s votes.
    ``_tie_pay(k, s, t, c, exact_r)`` pays the event; the exact step's
    exact_r = dv pays every event exactly, and for dv <= 6 the bounded
    step's does so except at integral weights.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if dv < 2:
        raise ValueError(f"variable node degree must be at least 2, got {dv}")
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must be in [0, 1], got {xi}")
    check_epsilon(q, epsilon)
    w = weight_ratio(q, epsilon, xi)
    # weight_ratio snaps near-integral weights, so only an integral w
    # lets the channel symbol tie a vote count
    tie = w.is_integer()
    s_tot = dv - 1
    k = q - 1
    lo = up = 0.0

    # correct observation: f0 votes land on the sent symbol, the rest
    # fall uniformly on the k wrong cells; the sent symbol scores f0 + w
    for f0 in range(s_tot + 1):
        pf = _binom_pmf(f0, s_tot, 1.0 - xi) * (1.0 - epsilon)
        s = s_tot - f0
        t = f0 + math.floor(w)
        if tie:
            p_lo, p_up = _tie_pay(k, s, t, 1, exact_r)
        else:
            p_lo = p_up = multinomial_max_cdf(k, s, t)
        lo += pf * p_lo
        up += pf * p_up

    # wrong observation: one wrong cell carries the channel weight; by
    # symmetry its identity is irrelevant, so it stands for all of them
    p_cell1 = xi / k
    for f1 in range(s_tot + 1):
        pf1 = _binom_pmf(f1, s_tot, p_cell1) * epsilon
        if pf1 == 0.0:
            # adds nothing, and at q = 2, xi = 1 keeps pc from 0 / 0
            continue
        rem = s_tot - f1
        pc = (1.0 - xi) / (1.0 - p_cell1) if rem else 1.0
        for f0 in range(f1 + math.ceil(w), rem + 1):
            pf0 = _binom_pmf(f0, rem, pc) * pf1
            c = 2 if f0 == f1 + w else 1
            # the sent symbol must also beat the q - 2 remaining cells
            p_lo, p_up = _tie_pay(k - 1, rem - f0, f0, c, exact_r)
            lo += pf0 * p_lo
            up += pf0 * p_up

    # summation rounding can carry a sure win past 1
    return min(lo, 1.0), min(up, 1.0)


@lru_cache(maxsize=None)
def _tie_pay(k: int, s: int, t: int, c: int,
             exact_r: int) -> tuple[float, float]:
    """Expected 1/(argmax size) over the number r of cells also at t.

    Terms r <= exact_r are paid exactly; the tail is paid 1/(c + r_max)
    at the lower end and 1/(c + exact_r + 1) at the upper one, so both
    ends are exact when r_max = min(k, s // t) <= exact_r + 1.
    """
    dist = multinomial_max_eq_count_dist(k, s, t)
    win = sum(p / (c + r) for r, p in enumerate(dist[:exact_r + 1]))
    tail = sum(dist[exact_r + 1:])
    return win + tail / (c + len(dist) - 1), win + tail / (c + exact_r + 1)


def vn_step_exact(xi: float, epsilon: float, dv: int, q: int) -> float:
    """Exact probability that the next message is correct.

    Tie multiplicities are enumerated exactly through the distribution
    of the number of cells attaining the maximum.
    """
    return _vn_walk(xi, epsilon, dv, q, dv)[0]


def vn_step_bounded(xi: float, epsilon: float, dv: int, q: int) -> BoundedProb:
    """Upper and lower bounds on the exact variable-node update.

    A tie is paid exactly while at most BOUNDED_EXACT_TIES further cells
    share the maximum; beyond that the argmax size is bounded by the
    ball counts. For dv <= 6 both ends equal the exact step except at
    integral weights. Requires q > 2; at q = 2 the exact update is
    already cheap.
    """
    if q <= 2:
        raise ValueError("bounded update needs q > 2; use vn_step_exact")
    return BoundedProb(*_vn_walk(xi, epsilon, dv, q, BOUNDED_EXACT_TIES))


# ----------------------------------------------------------------------
# Full recursion
# ----------------------------------------------------------------------

def _xi_bounds(p_lo: float, p_up: float, dc: int, q: int) -> tuple[float, float]:
    """Range of the vote error rate when p0 ranges over [p_lo, p_up].

    omega0 is a polynomial in g = (q p0 - 1)/(q - 1) of degree dc - 1;
    for even degree its minimum over an interval straddling g = 0 sits
    at g = 0, otherwise extremes are at the endpoints.
    """
    o_lo = cn_step(p_lo, dc, q)
    o_up = cn_step(p_up, dc, q)
    o_min = min(o_lo, o_up)
    o_max = max(o_lo, o_up)
    if (dc - 1) % 2 == 0 and q * p_lo < 1.0 < q * p_up:
        o_min = min(o_min, 1.0 / q)
    return 1.0 - o_max, 1.0 - o_min


def resolve_mode(q: int, mode: str | None = None) -> str:
    """The variable-node mode for field order q.

    ``mode`` if given, else exact for q = 2 and bounded otherwise; the
    bounded step needs q > 2.
    """
    if mode is None:
        return "exact" if q == 2 else "bounded"
    if mode not in ("exact", "bounded"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "bounded" and q == 2:
        raise ValueError("bounded mode needs q > 2; use exact for q = 2")
    return mode


def de_run(dv: int, dc: int, q: int, epsilon: float, l_max: int = 2000,
           mode: str | None = None) -> DeTrace:
    """Iterate density evolution and report the trajectory.

    mode "exact" uses the exact variable-node update, "bounded" evolves
    a lower and an upper trajectory; None picks as ``resolve_mode``
    does. The run stops once the lower trajectory reaches
    1 - DELTA_CONV (converged), stops making progress, or hits l_max.
    The degrees must satisfy 2 <= dv < dc, as for a sampled code.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    check_degrees(dv, dc)
    check_epsilon(q, epsilon)
    if l_max < 1:
        raise ValueError(f"l_max must be positive, got {l_max}")
    mode = resolve_mode(q, mode)

    def make_record(p_lo: float, p_up: float) -> IterationRecord:
        xi_lo, xi_up = _xi_bounds(p_lo, p_up, dc, q)
        return IterationRecord(BoundedProb(p_lo, p_up), BoundedProb(xi_lo, xi_up))

    p_lo = p_up = 1.0 - epsilon
    records = [make_record(p_lo, p_up)]
    while len(records) <= l_max and 1.0 - p_lo >= DELTA_CONV:
        rec = records[-1]
        if mode == "exact":
            p_lo_new = p_up_new = vn_step_exact(rec.xi.lower, epsilon, dv, q)
        else:
            # each trajectory evolves on its own xi end, so each is a
            # genuine one-sided recursion rather than interval arithmetic;
            # while the xi interval is a point, one step serves both
            step = vn_step_bounded(rec.xi.upper, epsilon, dv, q)
            p_lo_new = step.lower
            if rec.xi.lower != rec.xi.upper:
                step = vn_step_bounded(rec.xi.lower, epsilon, dv, q)
            p_up_new = step.upper
        records.append(make_record(p_lo_new, p_up_new))
        if p_lo_new <= p_lo and p_up_new <= p_up:
            # monotone one-step maps: a non-increasing trajectory can
            # never converge, and a converging step raises p_lo
            break
        p_lo, p_up = p_lo_new, p_up_new
    return DeTrace(mode, records)
