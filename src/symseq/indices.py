"""Dilation (Boyd) and fundamental indices of symmetric sequence spaces.

The upper index beta is lim (1/n) log2 ||sigma_{2^n}||; the lower index
alpha is the symmetric limit for the averaging dilations sigma_{2^-n}.
Fundamental indices mu, nu replace operator norms by sups of ratios of the
fundamental function phi(n) = ||chi_{1..n}||.  For each built-in family the
dilation norms reduce to ratio sups of one scalar profile:

  l^p          exact: ||sigma_{2^n}|| = 2^{n/p},
  lambda_q(w)  sup_j (W(2^n j)/W(j))^{1/q}, W(j) = sum_{k<=j} w_k^q from
               ``spaces._weight_sums``, in closed form for power weights
               and by a cumulative sum for array weights (l^{p,q} is the
               same profile with the pseudo-weight w_k = k^{1/p-1/q}),
  l_N          sup_k phi(2^{k+n})/phi(2^k) over the dyadic grid, where
               phi(2^k) is the Luxemburg norm of a 2^k-entry indicator,
               one scalar root of p s = k ln 2 + ln(1 + a s), s = ln phi.

For the Lorentz and Orlicz families the fundamental-index ratio sups are
literally the same expressions (phi^q is a partial sum of w^q; l_N's
ratios are of phi itself), which is exactly why these families are of
fundamental type.  ``index_report`` is the one pass over the profile
kernel and reports mu, nu as the alpha, beta points, so the Boyd and
fundamental routes cannot disagree here.  ``weight_ratio_indices`` is a
genuinely separate route for lambda_q(w): it reads dyadic weight ratios
and never touches the partial sums.

Truncations: every truncated route is a dyadic log profile read by
``_limits._ratio_sups`` -- log2 phi(2^k) for Orlicz, log2 w(2^k),
and log2 W on the chains 2^k and j_max 2^n -- so no array grows with j_max.
The inner sup grid is held constant across n, making the
truncation bias n-independent so that it cancels in the difference
extrapolation of ``estimate_rate``.  Every index is reported as an interval
whose certified side comes from the Fekete inf-characterization of the
subadditive log-norm sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._limits import _ratio_sups, estimate_rate
from .spaces import (
    Lorentz,
    Lp,
    LpQ,
    Orlicz,
    SpaceSpec,
    _PHI_LOG2_MAX,
    _PHI_RULE,
    _distinct,
    _orlicz_phi,
    _weight_sums,
)

__all__ = [
    "Interval",
    "IndexReport",
    "weight_ratio_indices",
    "index_report",
    "report_to_json",
]


@dataclass(frozen=True)
class Interval:
    """Index enclosure: extrapolated point plus the Fekete-certified side."""

    lo: float
    hi: float
    point: float
    method: str

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("interval needs lo <= hi")


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _interval(point: float, certified: float, method: str) -> Interval:
    p, c = _clamp01(point), _clamp01(certified)
    return Interval(lo=min(p, c), hi=max(p, c), point=p, method=method)


def _subgrid(n_max: int, j_max: int) -> tuple[int, int]:
    """The beta-side subgrid j <= j_small of ``_lorentz_profiles`` and the
    n_ext it runs to."""
    j_small = min(64, j_max)
    return j_small, n_max + max(0, int(round(math.log2(j_max / j_small))))


def _lorentz_profiles(space: LpQ | Lorentz, n_max: int, j_max: int):
    """U(n), L(n) = +-(1/q) log2 of the truncated partial-sum ratio sups.

    One ``spaces._weight_sums`` call reads two dyadic log chains, chain[k] =
    log2 W(2^k) and col[n] = log2 W(j_max 2^n), and ``_ratio_sups`` takes
    the inner sup over J = {2^i <= j_max} u {j_max} as the larger of its sups
    over each: for a pure power W(2^n j)/W(j) is monotone in j, so its sup
    and inf over 1..j_max sit at j = 1 and j = j_max.  L(n) uses all of J
    for n <= n_max (the alpha-side sup needs large j).  For nonincreasing
    weights the beta-side sup sits at small j, so U(n) continues to n_ext on
    the subgrid 2^0..2^6, whose largest point 64 * 2^{n_ext} is j_max *
    2^{n_max}, and falls back to all of J when the full window beats it at
    n_max.  The chain stops at the last point read, so array weights are
    read no further than the window needs.
    """
    top = int(j_max).bit_length() - 1
    _, n_ext = _subgrid(n_max, j_max)
    k_top = top + n_max if j_max <= 64 else max(top + n_max, 6 + n_ext)
    chain_pts = 1 << np.arange(k_top + 1, dtype=np.int64)
    col_pts = j_max << np.arange(n_max + 1, dtype=np.int64)
    pts = _distinct(np.concatenate((chain_pts, col_pts)))
    logw = np.log2(_weight_sums(space, pts))
    chain = logw[np.searchsorted(pts, chain_pts)]
    col = logw[np.searchsorted(pts, col_pts)]
    U, L = np.maximum(_ratio_sups(chain, n_max, window=top + 1), _ratio_sups(col, n_max, window=1))
    U, L = U / space.q, L / space.q
    if j_max <= 64:
        return U, L
    U_small = _ratio_sups(chain, n_ext, window=7)[0] / space.q
    if U[-1] - U_small[n_max - 1] > 1e-9:
        return U, L
    return U_small, L


def _check_window(space: SpaceSpec, n_max: int, j_max: int, k_max: int) -> None:
    """The one window rule of ``index_report``, checked before any grid.

    n_max >= 1, 1 <= j_max <= 2^20 and k_max >= 0; n_max + k_max <= 996,
    the range ``spaces._PHI_LOG2_MAX`` in which the Orlicz profile phi(2^k)
    is served; and for Lorentz and l^{p,q} every summed point j 2^n, the
    beta subgrid's included, stays below 2^63.  The profile reads two dyadic
    chains of at most n_ext + log2(j_max) + 2 points each, so nothing else
    needs a bound.
    """
    if n_max < 1:
        raise ValueError("index_report needs n_max >= 1")
    if not 1 <= j_max <= 1 << 20:
        raise ValueError("index_report needs 1 <= j_max <= 2^20")
    if k_max < 0:
        raise ValueError("index_report needs k_max >= 0")
    if n_max + k_max > _PHI_LOG2_MAX:
        raise ValueError(f"index_report needs n_max + k_max <= {_PHI_LOG2_MAX}: {_PHI_RULE}")
    if isinstance(space, (LpQ, Lorentz)):
        j_small, n_ext = _subgrid(n_max, j_max)
        if max(j_max << n_max, j_small << n_ext) >= 1 << 63:
            raise ValueError("index_report needs every summed point j 2^n below 2^63: "
                             "lower n_max or j_max")


def _profiles(space: SpaceSpec, n_max: int, j_max: int, k_max: int):
    """Shared kernel: per-n log ratio sups (U for beta/nu, L for alpha/mu)."""
    if isinstance(space, Lp):
        n = np.arange(1, n_max + 1, dtype=float)
        rate = 0.0 if space.p == math.inf else 1.0 / space.p
        return n * rate, -n * rate, "closed_form"
    if isinstance(space, LpQ) and space.q == math.inf:
        # phi-profile space sup a*_k k^{1/p}: dilation ratios exact
        n = np.arange(1, n_max + 1, dtype=float)
        return n / space.p, -n / space.p, "closed_form"
    if isinstance(space, (LpQ, Lorentz)):
        # l^{p,q} is the Lorentz profile of the pseudo-weight k^{1/p-1/q},
        # increasing when q > p
        quasi = isinstance(space, LpQ) and space.quasi
        U, L = _lorentz_profiles(space, n_max, j_max)
        return U, L, "truncated_sup(quasi)" if quasi else "truncated_sup"
    if isinstance(space, Orlicz):
        # log2 phi(2^k), phi(2^k) the norm of a 2^k-entry indicator
        logphi = np.log2([_orlicz_phi(space.N, math.ldexp(1.0, k))
                          for k in range(k_max + n_max + 1)])
        U, L = _ratio_sups(logphi, n_max, window=k_max + 1)
        return U, L, "truncated_sup"
    raise TypeError(f"unknown space spec {space!r}")


def weight_ratio_indices(space: Lorentz, n_max: int = 16) -> tuple[Interval, Interval]:
    """(alpha, beta) of lambda_q(w) from dyadic weight ratios alone.

    A second route, independent of the partial-sum profile that
    ``index_report`` uses.  It reads the 256-step dyadic profile
    log2 w(2^k), k <= 256, once, so it takes 2 <= n_max <= 256.  It is available when the dyadic
    weight-ratio condition holds (sup growth of w_{2^k}/w_{2^{k+n}},
    estimated at n_max, strictly below 2^{1/q}): then EX of the space is
    lattice-isomorphic to the weighted l_q model, shift norms there are
    2^{+-n/q} times plain weight-ratio sups, and

        alpha = 1/q - lim (1/n) log2 sup_k w_{2^k} / w_{2^{k+n}},
        beta  = 1/q + lim (1/n) log2 sup_k w_{2^{k+n}} / w_{2^k}.
    """
    if not 2 <= n_max <= 256:
        raise ValueError("weight_ratio_indices needs 2 <= n_max <= 256: "
                         "its dyadic weight profile log2 w(2^k) takes 256 steps")
    q = space.q
    k = np.arange(0, 257, dtype=float)
    Us, Ls = _ratio_sups(np.log2(space.w.values_at(2.0**k)), n_max)
    est, thr = float(2.0 ** (Ls[-1] / n_max)), float(2.0 ** (1.0 / q))
    if not est < thr:
        raise ValueError(
            "weight-ratio route needs the dyadic weight-ratio condition: "
            f"estimate {est:.6f} >= threshold {thr:.6f}"
        )
    eu = estimate_rate(Us)
    el = estimate_rate(Ls)
    alpha = _interval(1.0 / q - el.point, 1.0 / q - el.fekete, "truncated_sup")
    beta = _interval(1.0 / q + eu.point, 1.0 / q + eu.fekete, "truncated_sup")
    return alpha, beta


@dataclass(frozen=True)
class IndexReport:
    alpha: Interval
    beta: Interval
    mu: float
    nu: float
    f_interval: tuple[float, float]
    method: dict
    params: dict


def index_report(
    space: SpaceSpec,
    n_max: int = 16,
    j_max: int = 1 << 14,
    k_max: int = 200,
) -> IndexReport:
    """Full index report; all four indices come from one profile pass.

    This is the only route to the profile kernel.  For the Lorentz and
    Orlicz families the fundamental-function ratio sups are the dilation
    ratio sups term by term, so mu and nu are the alpha and beta points.
    """
    _check_window(space, n_max, j_max, k_max)
    U, L, method = _profiles(space, n_max, j_max, k_max)
    eu = estimate_rate(U)
    el = estimate_rate(L)
    beta = _interval(eu.point, eu.fekete, method)
    # L is subadditive, so -min_n L(n)/n certifies alpha from below
    alpha = _interval(-el.point, -el.fekete, method)
    mu, nu = alpha.point, beta.point
    lo = math.inf if beta.point == 0.0 else 1.0 / beta.point
    hi = math.inf if alpha.point == 0.0 else 1.0 / alpha.point
    return IndexReport(
        alpha=alpha,
        beta=beta,
        mu=mu,
        nu=nu,
        f_interval=(lo, hi),
        method={"alpha": method, "beta": method, "mu": method, "nu": method},
        params={
            "n_max": n_max,
            "j_max": j_max,
            "k_max": k_max,
            "dim": None,  # schema keys: the report takes no dimension or seed
            "seed": None,
        },
    )


def _num(x: float):
    return "inf" if x == math.inf else x


def report_to_json(report: IndexReport) -> dict:
    return {
        "alpha": {
            "lo": report.alpha.lo,
            "hi": report.alpha.hi,
            "point": report.alpha.point,
        },
        "beta": {
            "lo": report.beta.lo,
            "hi": report.beta.hi,
            "point": report.beta.point,
        },
        "mu": report.mu,
        "nu": report.nu,
        "f_interval": [_num(report.f_interval[0]), _num(report.f_interval[1])],
        "method": dict(report.method),
        "params": dict(report.params),
    }
