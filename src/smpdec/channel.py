"""The q-ary symmetric channel: transitions, capacity, likelihood weights.

The channel keeps a symbol with probability 1 - eps and otherwise replaces
it with a uniformly random different symbol. All log-likelihood weights use
the natural logarithm; only the ratio D(eps)/D(xi) enters any decision, so
the base is a documentation choice, not a behavioral one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .galois import FieldSpec


@dataclass(frozen=True)
class ChannelParams:
    """QSC parameters: a field and an error probability.

    eps must lie in [0, (q-1)/q); the upper limit is the zero-capacity
    point where the log-likelihood weight D(eps) stops being positive.
    eps = 0 is allowed for noiseless tests; the decoder clamps it before
    forming weights.
    """

    field: FieldSpec
    epsilon: float

    def __post_init__(self):
        check_epsilon(self.field.q, self.epsilon)


def check_epsilon(q: int, epsilon: float) -> None:
    """Reject flip probabilities outside [0, (q-1)/q).

    Every entry point that runs the channel or its weights applies this
    one rule: the decoder, density evolution and ChannelParams.
    ``capacity`` alone also takes the zero-capacity endpoint (q-1)/q.
    """
    if not 0.0 <= epsilon < (q - 1) / q:
        raise ValueError(
            f"epsilon must be in [0, {(q - 1) / q}) for q={q}, got {epsilon}")


def transmit(x: np.ndarray, params: ChannelParams,
             rng: np.random.Generator) -> np.ndarray:
    """Send a symbol vector through the QSC.

    Each symbol is independently kept with probability 1 - eps, otherwise
    replaced by a uniformly random different symbol (in characteristic 2,
    adding a uniform nonzero offset realizes exactly that).

    Parameters
    ----------
    x : np.ndarray
        Input symbols, each in [0, q).
    params : ChannelParams
    rng : np.random.Generator
        Consumes a fixed number of draws regardless of content, so output
        is deterministic for a fixed generator state.
    """
    q = params.field.q
    flips = rng.random(x.size) < params.epsilon
    offsets = rng.integers(1, q, size=x.size, dtype=x.dtype)
    y = x.copy()
    y[flips] ^= offsets[flips]
    return y


def capacity(q: int, epsilon: float) -> float:
    """QSC capacity in symbols per channel use.

    C = 1 + eps*log_q(eps/(q-1)) + (1-eps)*log_q(1-eps), with 0*log(0)
    taken as 0 at eps = 0.

    Raises
    ------
    ValueError
        If epsilon is NaN or outside [0, (q-1)/q]: the decoder's range
        plus the zero-capacity endpoint.
    """
    if not 0.0 <= epsilon <= (q - 1) / q:
        raise ValueError(
            f"epsilon must be in [0, {(q - 1) / q}] for q={q}, got {epsilon}")
    if epsilon == 0:
        return 1.0
    logq = math.log(q)
    return (1.0 + epsilon * math.log(epsilon / (q - 1)) / logq
            + (1.0 - epsilon) * math.log(1.0 - epsilon) / logq)


def weight_D(q: int, p: float) -> float:
    """Log-likelihood weight D(p) = ln(1-p) - ln(p/(q-1)).

    Positive iff p < (q-1)/q, i.e. iff the channel has positive capacity.

    Raises
    ------
    ValueError
        If p is outside the open interval (0, 1).
    """
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return math.log(1.0 - p) - math.log(p / (q - 1))


def _bisect(predicate: Callable[[float], bool], lo: float, hi: float,
            tol: float) -> float:
    """Largest-good-point bisection on [lo, hi].

    ``lo`` is assumed good and ``hi`` bad; neither endpoint is
    evaluated.  Returns the midpoint of the final bracket.  The one root
    search of the package: ``shannon_limit`` and the threshold search in
    ``analysis`` both use it.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def shannon_limit(q: int, rate: float) -> float:
    """Largest eps whose capacity still reaches the given rate.

    Solves C(eps) = rate by bisection on [0, (q-1)/q], exploiting that
    the capacity is strictly decreasing; absolute tolerance 1e-6.

    Raises
    ------
    ValueError
        If rate is outside the open interval (0, 1).
    """
    if not 0 < rate < 1:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    return _bisect(lambda e: capacity(q, e) >= rate, 0.0, (q - 1) / q, 1e-6)


#: Flip probabilities are clamped to [PROB_FLOOR, (q-1)/q - PROB_FLOOR]
#: before entering weight_D, keeping weight ratios finite and positive.
PROB_FLOOR = 1e-12

#: weight_ratio returns a weight within this distance of an integer >= 1
#: as that integer, so that it ties vote counts exactly.
WEIGHT_TIE_TOL = 1e-9


def _clamped_D(q: int, p: float) -> float:
    """weight_D at p clamped into [PROB_FLOOR, (q-1)/q - PROB_FLOOR]."""
    return weight_D(q, min(max(p, PROB_FLOOR), (q - 1) / q - PROB_FLOOR))


#: D(epsilon) of a decode or a density-evolution run, formed once per
#: (q, epsilon) rather than once per weight; bounded like the decoder's
#: other per-run caches.
_channel_D = lru_cache(maxsize=64)(_clamped_D)


def weight_ratio(q: int, epsilon: float, xi: float) -> float:
    """Channel-versus-vote weight D(epsilon) / D(xi), with clamping.

    Both arguments are clamped into [PROB_FLOOR, (q-1)/q - PROB_FLOOR]
    so the ratio is finite and strictly positive even at the endpoints;
    the clamped D(epsilon) is cached per (q, epsilon). A ratio within
    WEIGHT_TIE_TOL of an integer r >= 1 is returned as exactly r. This
    is the one score-tie rule of the decoder and of density evolution:
    the channel symbol ties a vote count iff the weight is integral. A
    weight below 1 - WEIGHT_TIE_TOL is never snapped, so a vanishing
    weight still lets the channel symbol win.
    """
    w = _channel_D(q, epsilon) / _clamped_D(q, xi)
    r = round(w)
    if r >= 1 and abs(w - r) <= WEIGHT_TIE_TOL:
        return float(r)
    return w


def weight_class(w: float, dv: int) -> int:
    """Where a weight w > 0 falls among the vote counts 1..dv.

    w comes from ``weight_ratio``, so a tie is exact. Class 2k lies
    strictly between k and k + 1 (below 1 for k = 0) and class 2k - 1
    is w = k exactly; class 2dv holds every w > dv, integral or not, as
    no vote count reaches it. So floor(w) is (class + 1) // 2 below
    class 2dv, and an odd class is a tie of the channel symbol with a
    vote count. The decoder's tie tables and density evolution's step
    plans are both keyed by it.
    """
    k = math.ceil(w)
    return 2 * k - 2 + (w == k) if k <= dv else 2 * dv
