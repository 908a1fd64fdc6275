"""Dilation (Boyd) and fundamental indices of symmetric sequence spaces.

The upper index beta is lim (1/n) log2 ||sigma_{2^n}||; the lower index
alpha is the symmetric limit for the averaging dilations sigma_{2^-n}.
Fundamental indices mu, nu replace operator norms by sups of ratios of the
fundamental function phi(n) = ||chi_{1..n}||.  For each built-in family the
dilation norms reduce to ratio sups of one scalar profile:

  l^p          exact: ||sigma_{2^n}|| = 2^{n/p},
  lambda_q(w)  sup_j (W(2^n j)/W(j))^{1/q}, W(j) = sum_{k<=j} w_k^q from
               ``spaces._weight_sums``, streamed for custom weights only
               (l^{p,q} is the same profile with the pseudo-weight
               w_k = k^{1/p-1/q}),
  l_N          sup_k N^{-1}(2^{-k})/N^{-1}(2^{-k-n}) over the dyadic
               argument grid.

For the Lorentz and Orlicz families the fundamental-index ratio sups are
literally the same expressions (phi^q is a partial sum of w^q; phi(2^k)
is 1/N^{-1}(2^{-k})), which is exactly why these families are of
fundamental type.  ``index_report`` is the one pass over the profile
kernel and reports mu, nu as the alpha, beta points, so the Boyd and
fundamental routes cannot disagree here.  ``weight_ratio_indices`` is a
genuinely separate route for lambda_q(w): it reads dyadic weight ratios
and never touches the partial sums.

Truncations: every truncated route reads a dyadic profile -- N^{-1}(2^-k),
w(2^k), and W(j 2^n) with j in {2^i <= j_max} u {j_max} -- so no array
grows with j_max.  The inner sup grid is held constant across n, making the
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
    OrliczFn,
    SpaceSpec,
    _distinct,
    _orlicz_inverse_vec,
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

    W(j) is ``spaces._weight_sums`` of the space, read on the dyadic window
    J = {2^i <= j_max} u {j_max}: for a pure power W(2^n j)/W(j) is monotone
    in j, so its sup and inf over 1..j_max sit at j = 1 and j = j_max, and J
    holds both.  One pass over W serves two regimes.  The alpha-side sup
    needs large j, so L(n) uses all of J for n <= n_max.  For nonincreasing
    weights the beta-side sup sits at small j, so U(n) continues to larger n
    on the subgrid J n [1, 64] -- the largest summed point stays put
    (64 * 2^{n_ext} = j_max * 2^{n_max}) and the slow beta modes get twice
    the differencing depth for free.  Weights whose growth regime arrives
    late (the full window beats the subgrid sup at n_max) fall back to the
    full profile.
    """
    j_small, n_ext = _subgrid(n_max, j_max)
    j = _distinct(np.append(1 << np.arange(int(j_max).bit_length(), dtype=np.int64), j_max))
    js = j[j <= j_small]
    grids = [j] + [j * (1 << n) for n in range(1, n_max + 1)]
    grids += [js * (1 << n) for n in range(n_max + 1, n_ext + 1)]
    pts = _distinct(np.concatenate(grids))
    logw = np.log2(_weight_sums(space, pts))

    def at(grid, n):
        return logw[np.searchsorted(pts, grid * (1 << n))]

    base = at(j, 0)
    L = np.empty(n_max)
    U_dense = np.empty(n_max)
    U_small = np.empty(n_ext)
    for n in range(1, n_max + 1):
        d = at(j, n) - base
        U_dense[n - 1] = float(np.max(d)) / space.q
        L[n - 1] = float(-np.min(d)) / space.q
        U_small[n - 1] = float(np.max(d[: js.size])) / space.q
    for n in range(n_max + 1, n_ext + 1):
        U_small[n - 1] = float(np.max(at(js, n) - base[: js.size])) / space.q
    if U_dense[-1] - U_small[n_max - 1] > 1e-9:
        return U_dense, L
    return U_small, L


def _orlicz_profiles(N: OrliczFn, n_max: int, k_max: int):
    """U(n), L(n) from ratios of N^{-1} on the dyadic argument grid."""
    loginv = np.log2(
        _orlicz_inverse_vec(N, 2.0 ** -np.arange(0, k_max + n_max + 1, dtype=float))
    )
    L, U = _ratio_sups(loginv, n_max, window=k_max + 1)
    return U, L


def _check_window(space: SpaceSpec, n_max: int, j_max: int, k_max: int) -> None:
    """The one window rule of ``index_report``, checked before any grid.

    n_max >= 1, 1 <= j_max <= 2^20 and k_max >= 0; n_max + k_max <= 996, so
    the Orlicz inverse arguments 2^-(k_max+n_max) stay above 1e-300; and for
    Lorentz and l^{p,q} every summed point j 2^n, the beta subgrid's
    included, stays below 2^63.  The profile sums at most
    (n_ext + 1)(floor(log2 j_max) + 2) points, so nothing else needs a bound.
    """
    if n_max < 1:
        raise ValueError("index_report needs n_max >= 1")
    if not 1 <= j_max <= 1 << 20:
        raise ValueError("index_report needs 1 <= j_max <= 2^20")
    if k_max < 0:
        raise ValueError("index_report needs k_max >= 0")
    if n_max + k_max > 996:
        raise ValueError(
            "index_report needs n_max + k_max <= 996: inverse arguments "
            "2^-(k_max+n_max) underflow below 1e-300"
        )
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
        U, L = _orlicz_profiles(space.N, n_max, k_max)
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
