"""Limit estimation for subadditive log-value sequences.

Every index in this package is a limit of L(n)/n for some subadditive
sequence L (log of a sup over a multiplicative family), so lim = inf L(n)/n
by Fekete's lemma.  Raw values at n_max carry an O(1/n) bias from additive
constants inside the log; first differences remove constants, and one guarded
Aitken delta-squared step on the differences removes a geometric correction
term as well.  The Fekete minimum is reported alongside as the certified side
(up to inner sup truncation).  ``_ratio_sups`` builds the two log ratio-sup
sequences of a shift-type profile that feed ``estimate_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RateEstimate", "estimate_rate"]


@dataclass(frozen=True)
class RateEstimate:
    point: float      # extrapolated limit of L(n)/n
    fekete: float     # min_n L(n)/n, an upper bound for the true limit
    at_n_max: float   # raw L(n_max)/n_max


def estimate_rate(logvals) -> RateEstimate:
    L = np.asarray(logvals, dtype=float)
    if L.size == 0:
        raise ValueError("estimate_rate needs at least one value")
    ns = np.arange(1, L.size + 1)
    fekete = float(np.min(L / ns))
    at_n_max = float(L[-1] / ns[-1])
    if L.size == 1:
        return RateEstimate(at_n_max, fekete, at_n_max)
    D = np.diff(L)
    point = float(D[-1])
    if D.size >= 3:
        d1, d2, d3 = D[-3], D[-2], D[-1]
        denom = (d3 - d2) - (d2 - d1)
        if abs(denom) > 1e-13 * max(1.0, abs(d3)):
            cand = d3 - (d3 - d2) ** 2 / denom
            spread = max(float(D.max() - D.min()), 1e-12)
            if D.min() - spread <= cand <= D.max() + spread:
                point = float(cand)
    return RateEstimate(point, fekete, at_n_max)


def _ratio_sups(logs, n_max: int, window: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) with up[n-1] = max_k d_n(k) and down[n-1] = -min_k d_n(k),
    d_n(k) = logs[k+n] - logs[k], for n = 1..n_max.

    k runs over every index with k + n in range, or over k < ``window`` for
    every n when a fixed window is given.
    """
    logs = np.asarray(logs, dtype=float)
    up = np.empty(n_max)
    down = np.empty(n_max)
    for n in range(1, n_max + 1):
        d = logs[n:] - logs[:-n] if window is None else logs[n : n + window] - logs[:window]
        up[n - 1] = np.max(d)
        down[n - 1] = -np.min(d)
    return up, down
