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

Both walk a plan of a step's vote-count events that is built once per
weight class (``channel.weight_class``, the decoder's tie rule) and
holds each event's binomial coefficient, exponents and payout. A step
finds its class from D(xi) alone, as ``weight_ratio`` forms D(epsilon)
once per (q, epsilon), then multiplies out each binomial in its walk
loop and sums. A bounded iteration takes one step while its xi
interval is a point, which serves both bounds, and two otherwise, one
per bound; a point xi interval also takes one check-node step.

``de_run`` iterates either flavour and reports the full trajectory, from
which decoder weight schedules and convergence thresholds are derived.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .channel import check_epsilon, weight_class, weight_ratio
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
# Interval pairs, trace records and traces: plain tuples, unchecked. Each
# producer orders its pair's ends, save de_run's bounded p0, whose ends
# come from two steps and get checked there
# ----------------------------------------------------------------------

class BoundedProb(NamedTuple):
    """A probability known to lie in [lower, upper], unchecked here."""

    lower: float
    upper: float


class IterationRecord(NamedTuple):
    """One density-evolution iteration: p0 and the check vote error rate."""

    p0: BoundedProb
    xi: BoundedProb


class DeTrace(NamedTuple):
    """Trajectory of a density-evolution run.

    The run's inputs stay with the caller and in the CLI's embedded
    config. records[l] holds p0 after l variable-node iterations together
    with the xi the next variable-node step would see; records[0] is the
    channel initialization. ``iterations_run`` is len(records) - 1.
    ``converged`` and ``converged_upper`` read the last record: whether
    its lower, respectively upper, p0 reached 1 - DELTA_CONV (they
    coincide in exact mode). A record's lower p0 never exceeds its upper
    one (``de_run`` checks the one pair that could cross), so
    ``converged`` implies ``converged_upper``, which the threshold
    search relies on to share its probes between the two. Above
    threshold ``iterations_run`` can move by one with the last-bit
    rounding of a step, as the run stops once ``p_new <= p`` holds
    exactly.
    """

    mode: str
    records: list[IterationRecord]

    @property
    def iterations_run(self) -> int:
        return len(self.records) - 1

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

#: Binomials over more than this many trials take log space: their
#: coefficients overflow a float from n = 1030 on.
_LOG_SPACE_N = 500


def _binom_pmf(j: int, n: int, p: float) -> float:
    """Binomial pmf in log space, for n beyond _LOG_SPACE_N trials."""
    if p <= 0.0:
        return 1.0 if j == 0 else 0.0
    if p >= 1.0:
        return 1.0 if j == n else 0.0
    return math.exp(
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        + j * math.log(p) + (n - j) * math.log1p(-p))


@lru_cache(maxsize=None)
def _walk_plan(dv: int, q: int, exact_r: int, w_class: int) -> tuple:
    """The vote-count events of a variable-node step, paid once.

    The outgoing message is the symbol maximizing (vote count) + w for
    the observed symbol, w = D(epsilon)/D(xi), ties broken uniformly.
    Who wins an event depends on w only through its class
    (``channel.weight_class``): floor(w) = (class + 1) // 2, and an odd
    class ties the channel symbol with a vote count. Classes 2dv - 1
    and 2dv win every correct observation and no wrong one.

    Returns (right, wrong) in the step's summation order. right has a
    term (coef, j, n - j, pay_lower, pay_upper) per number f0 of the
    dv - 1 votes on the sent symbol after a correct observation; the
    others fall uniformly on the k = q - 1 wrong cells. coef is C(n, j)
    as a float (so at least 1) up to _LOG_SPACE_N trials and None
    beyond, where the walk takes ``_binom_pmf``. After a wrong
    observation one wrong cell carries the weight and, by symmetry,
    stands for all of them. wrong has a term (coef, j, n - j, events)
    per number f1 of votes on it that leaves the sent symbol a chance:
    events holds a term like right's per number f0 >= f1 + ceil(w) of
    the rem = dv - 1 - f1 other votes on the sent symbol; f0 = f1 + w
    ties the two.

    At each event the sent symbol and c - 1 other named symbols share
    the score t, while k' further cells share s votes; the event pays
    ``_tie_pay(k', s, t, c, exact_r)``, or without a tie
    ``multinomial_max_cdf`` at both ends. The exact step's exact_r = dv
    pays every event exactly, and for dv <= 6 the bounded step's does
    so except at integral weights.
    """
    s_tot = dv - 1
    k = q - 1
    floor_w = (w_class + 1) // 2
    tie = w_class % 2 == 1

    def term(n: int, j: int, *pay) -> tuple:
        coef = float(math.comb(n, j)) if n <= _LOG_SPACE_N else None
        return coef, j, n - j, *pay

    right = []
    for f0 in range(s_tot + 1):
        s, t = s_tot - f0, f0 + floor_w
        if tie:
            pay = _tie_pay(k, s, t, 1, exact_r)
        else:
            pay = (multinomial_max_cdf(k, s, t),) * 2
        right.append(term(s_tot, f0, *pay))

    wrong = []
    for f1 in range(s_tot + 1):
        rem = s_tot - f1
        # the sent symbol must also beat the q - 2 remaining cells
        events = tuple(
            term(rem, f0, *_tie_pay(k - 1, rem - f0, f0,
                                    2 if tie and f0 == f1 + floor_w else 1,
                                    exact_r))
            for f0 in range(f1 + floor_w + (not tie), rem + 1))
        if events:
            wrong.append(term(s_tot, f1, events))
    return tuple(right), tuple(wrong)


def _vn_walk(xi: float, epsilon: float, dv: int, q: int,
             exact_r: int) -> tuple[float, float]:
    """(lower, upper) probability that the next message is correct.

    Walks the cached ``_walk_plan`` of the weight class of
    w = D(epsilon)/D(xi). An event's probability is the product of its
    binomials: after a correct observation 1 - epsilon times f0 votes
    at 1 - xi; after a wrong one epsilon times f1 votes at xi/(q - 1),
    then f0 of the rest at (1 - xi)/(1 - xi/(q - 1)). A binomial at p
    is coef * p ** j * (1 - p) ** (n - j), which also holds at p = 0
    and 1, or ``_binom_pmf`` beyond _LOG_SPACE_N trials. It is formed
    in the walk loop, multiplied by its observation's probability and
    then by its pay, and the pays are summed in the order of the plan,
    so the step rounds as one that enumerates the events anew.
    """
    if dv < 2:
        raise ValueError(f"variable node degree must be at least 2, got {dv}")
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must be in [0, 1], got {xi}")
    check_epsilon(q, epsilon)
    right, wrong = _walk_plan(dv, q, exact_r,
                              weight_class(weight_ratio(q, epsilon, xi), dv))
    lo = up = 0.0
    # after a correct observation
    po = 1.0 - epsilon
    p = 1.0 - xi
    b = 1.0 - p
    for coef, j, m, p_lo, p_up in right:
        pf = (coef * p ** j * b ** m if coef
              else _binom_pmf(j, j + m, p)) * po
        lo += pf * p_lo
        up += pf * p_up

    # after a wrong one, with f1 votes on the observed symbol
    p_cell1 = xi / (q - 1)
    b1 = 1.0 - p_cell1
    # p_cell1 = 1 (q = 2, xi = 1) leaves every f1 with events no mass
    p = (1.0 - xi) / b1 if p_cell1 < 1.0 else 1.0
    b = 1.0 - p
    for coef, j, m, events in wrong:
        po = (coef * p_cell1 ** j * b1 ** m if coef
              else _binom_pmf(j, j + m, p_cell1)) * epsilon
        for coef, j, m, p_lo, p_up in events:
            pf = (coef * p ** j * b ** m if coef
                  else _binom_pmf(j, j + m, p)) * po
            lo += pf * p_lo
            up += pf * p_up

    # summation rounding can carry a sure win past 1
    return min(lo, 1.0), min(up, 1.0)


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
    integral weights. The ends are ordered and in [0, 1]: the walk sums
    nonnegative terms, caps the sum at 1, and no event's lower pay
    exceeds its upper one. Requires q > 2; at q = 2 the exact update is
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
    if p_up == p_lo:
        return 1.0 - o_lo, 1.0 - o_lo
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
    Bounded steps at two xi ends can cross by rounding: the record then
    shows p0 as [lower, lower] (xi, the stall test and the next step keep
    the raw ends), and a gap over 1e-9 or a NaN end raises ValueError.
    """
    check_degrees(dv, dc)
    check_epsilon(q, epsilon)
    if l_max < 1:
        raise ValueError(f"l_max must be positive, got {l_max}")
    mode = resolve_mode(q, mode)

    p_lo = p_up = 1.0 - epsilon
    records = [IterationRecord(BoundedProb(p_lo, p_up),
                               BoundedProb(*_xi_bounds(p_lo, p_up, dc, q)))]
    while len(records) <= l_max and 1.0 - p_lo >= DELTA_CONV:
        xi = records[-1].xi
        if mode == "exact":
            p_lo_new = p_up_new = p0_up = vn_step_exact(xi.lower, epsilon, dv, q)
        else:
            # each trajectory evolves on its own xi end, so each is a
            # genuine one-sided recursion rather than interval arithmetic;
            # while the xi interval is a point, one step serves both
            step = vn_step_bounded(xi.upper, epsilon, dv, q)
            p_lo_new = step.lower
            if xi.lower != xi.upper:
                step = vn_step_bounded(xi.lower, epsilon, dv, q)
            p_up_new = p0_up = step.upper
            # a NaN end fails both comparisons
            if not p_lo_new <= p_up_new:
                if not p_lo_new - p_up_new <= 1e-9:
                    raise ValueError(
                        f"lower {p_lo_new} exceeds upper {p_up_new}")
                p0_up = p_lo_new
        records.append(IterationRecord(
            BoundedProb(p_lo_new, p0_up),
            BoundedProb(*_xi_bounds(p_lo_new, p_up_new, dc, q))))
        if p_lo_new <= p_lo and p_up_new <= p_up:
            # monotone one-step maps: a non-increasing trajectory can
            # never converge, and a converging step raises p_lo
            break
        p_lo, p_up = p_lo_new, p_up_new
    return DeTrace(mode, records)
