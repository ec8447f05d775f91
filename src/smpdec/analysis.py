"""Decoding threshold search and threshold table generation.

The threshold of a (dv, dc) ensemble over GF(q) is the largest channel
flip probability for which density evolution drives the symbol error
rate to zero.  ``find_threshold`` locates it by bisection on epsilon.
In bounded mode the evolution tracks an interval per iteration, so the
search produces a bracket [eps_star_lower, eps_star_upper]: the lower
value is the threshold of the pessimistic trajectory, the upper one that
of the optimistic one.  The two searches share their probes up to the
first where the trajectories disagree, so the width is the gap between
them; it is zero if they never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .channel import _bisect
from .de import de_run, resolve_mode

#: Refusing tolerances finer than the bisection can honestly deliver:
#: near the threshold the recursion needs ever more iterations, and
#: below 1e-5 the l_max cap would dominate the answer.
MIN_BISECT_TOL = 1e-5


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search for one ensemble and field order.

    ``mode`` is the resolved mode. The other inputs stay with the caller
    and in the CLI's embedded config, except q, which the bracket needs.
    """

    q: int
    eps_star_lower: float
    eps_star_upper: float
    evaluations: int
    mode: str

    def __post_init__(self) -> None:
        ceiling = (self.q - 1) / self.q
        if not 0.0 <= self.eps_star_lower <= self.eps_star_upper < ceiling:
            raise ValueError(
                "threshold bracket must satisfy "
                f"0 <= lower <= upper < {ceiling}: got "
                f"[{self.eps_star_lower}, {self.eps_star_upper}]")


def find_threshold(dv: int, dc: int, q: int, mode: str | None = None,
                   bisect_tol: float = 1e-4,
                   l_max: int = 2000) -> ThresholdResult:
    """Bisect for the decoding threshold of a (dv, dc) ensemble.

    epsilon = 0 is taken as converging and the channel ceiling
    (q-1)/q as not converging, so the search always starts from a
    valid bracket.  Each trajectory gets its own bisection from 0, over
    one cache of density-evolution runs.  A run that converges also
    converges optimistically, so both searches share every probe up to
    the first whose verdicts differ (in exact mode, all of them).
    ``bisect_tol`` must lie in [MIN_BISECT_TOL, (q-1)/q): a coarser one
    would end the search before any density-evolution run.
    """
    ceiling = (q - 1) / q
    if not MIN_BISECT_TOL <= bisect_tol < ceiling:
        raise ValueError(f"bisect_tol must be in [{MIN_BISECT_TOL}, "
                         f"{ceiling}), got {bisect_tol}")
    mode = resolve_mode(q, mode)

    cache: dict[float, tuple[bool, bool]] = {}

    def flags(eps: float) -> tuple[bool, bool]:
        if eps not in cache:
            trace = de_run(dv, dc, q, eps, mode=mode, l_max=l_max)
            cache[eps] = (trace.converged, trace.converged_upper)
        return cache[eps]

    eps_lower = _bisect(lambda e: flags(e)[0], 0.0, ceiling, bisect_tol)
    eps_upper = _bisect(lambda e: flags(e)[1], 0.0, ceiling, bisect_tol)
    return ThresholdResult(q=q, eps_star_lower=eps_lower,
                           eps_star_upper=eps_upper,
                           evaluations=len(cache), mode=mode)


def table_report(dv: int, dc: int, q_values: Sequence[int],
                 mode: str | None = None, bisect_tol: float = 1e-4,
                 l_max: int = 2000) -> list[dict]:
    """Threshold table rows of the (dv, dc) ensemble, one per field order.

    Each row carries the threshold bracket plus the Shannon limit of
    the q-ary symmetric channel at the ensemble design rate 1 - dv/dc,
    in the order of ``q_values``. The benchmark wraps this function as
    ``cli.table_report`` and wraps ``channel.shannon_limit``, which is
    therefore looked up at call time.
    """
    from .channel import shannon_limit

    rows: list[dict] = []
    for q in q_values:
        res = find_threshold(dv, dc, q, mode=mode, bisect_tol=bisect_tol,
                             l_max=l_max)
        rows.append({
            "dv": dv, "dc": dc, "q": q,
            "eps_star_lower": res.eps_star_lower,
            "eps_star_upper": res.eps_star_upper,
            # after find_threshold, whose first run refuses bad degrees
            "eps_shannon": shannon_limit(q, 1.0 - dv / dc),
        })
    return rows
