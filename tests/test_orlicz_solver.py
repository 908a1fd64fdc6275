"""The Orlicz solver against the bisection loops it replaced.

The three functions below are the earlier bisection implementations, kept
verbatim as the reference: ``_luxemburg`` and ``_un_luxemburg`` stop at a
bracket of 1e-12 relative, ``_orlicz_inverse_vec`` at 1e-14.
"""

import math

import numpy as np
import pytest

from symseq import spaces
from symseq.lattices import UN, lattice_norm
from symseq.spaces import Orlicz, OrliczFn, _descending, norm
from symseq.verify import BUILTIN_SPACES

ORLICZ_FNS = [(lbl, sp.N) for lbl, sp in BUILTIN_SPACES if isinstance(sp, Orlicz)]


# reference: the bisection code the solver replaced ---------------------------


def _luxemburg(N: OrliczFn, a: np.ndarray, rel_tol: float = 1e-12) -> float:
    """Luxemburg norm of a nonnegative vector by bisection.

    Bracket: any admissible u satisfies u >= max(a) since N(1) = 1, and
    u = sum(a) is admissible by convexity (sum N(a_k/u) <= N(sum a_k / u) = 1),
    so [max(a)/2, sum(a)] brackets the infimum.
    """
    if a.size == 0:
        return 0.0
    lo, hi = float(a.max()) / 2.0, float(a.sum())
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if float(np.sum(N(a / mid))) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def _un_luxemburg(N: OrliczFn, a: np.ndarray, rel_tol: float = 1e-12) -> float:
    """inf{u > 0 : sum_k 2^(k-1) N(a_k / u) <= 1} by bisection.

    Any admissible u has 2^(k-1) N(a_k/u) <= 1 for each k, so
    u >= a_k / N^{-1}(2^(1-k)) gives a positive lower bracket; the upper
    bracket grows geometrically from there.
    """
    if a.size == 0 or not np.any(a > 0.0):
        return 0.0
    if a.size > 64:
        raise ValueError("UN norm supports at most 64 coordinates")
    weights = 2.0 ** np.arange(a.size)
    pos = a > 0.0
    inv = _orlicz_inverse_vec(N, 1.0 / weights[pos])
    lo = float(np.max(a[pos] / inv))

    def modular(u: float) -> float:
        return float(np.sum(weights * N(a / u)))

    hi = lo
    for _ in range(200):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise ValueError("UN norm bracketing failed")
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def _orlicz_inverse_vec(N: OrliczFn, s: np.ndarray) -> np.ndarray:
    """Vectorized orlicz_inverse for positive s (same bracketing scheme)."""
    s = np.asarray(s, dtype=float)
    hi = np.ones_like(s)
    for _ in range(1100):
        need = N(hi) < s
        if not np.any(need):
            break
        hi[need] *= 2.0
    lo = hi.copy()
    for _ in range(1200):
        over = N(lo) >= s
        if not np.any(over):
            break
        hi = np.where(over, lo, hi)
        lo = np.where(over, lo / 2.0, lo)
        if np.any(lo < 1e-320):
            raise ValueError("orlicz_inverse bracketing failure near underflow")
    for _ in range(200):
        mid = lo * np.sqrt(hi / lo)
        up = N(mid) >= s
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
        if np.all(hi - lo <= 1e-14 * hi):
            break
    return hi


# agreement -------------------------------------------------------------------


def test_three_orlicz_variants_are_covered():
    assert [lbl for lbl, _ in ORLICZ_FNS] == ["orlicz_t1.5", "orlicz_t3", "orlicz_t2_log"]


@pytest.mark.parametrize("label,N", ORLICZ_FNS)
def test_orlicz_norm_matches_bisection(label, N):
    rng = np.random.default_rng(41)
    sizes = np.concatenate([[1, 2, 3, 4096], rng.integers(1, 4097, 36)])
    for size in sizes:
        x = rng.standard_normal(int(size)) * 10.0 ** rng.uniform(-6, 6)
        want = _luxemburg(N, _descending(x))
        assert norm(Orlicz(N), x) == pytest.approx(want, rel=2e-12)


@pytest.mark.parametrize("label,N", ORLICZ_FNS)
def test_un_norm_matches_bisection(label, N):
    rng = np.random.default_rng(43)
    lat = UN(N)
    for size in np.concatenate([[1, 2, 64], rng.integers(1, 65, 37)]):
        a = rng.standard_normal(int(size)) * rng.choice([0.0, 1.0], int(size), p=[0.2, 0.8])
        a[rng.integers(0, a.size)] += 1.0  # keep at least one coordinate nonzero
        a *= 10.0 ** rng.uniform(-6, 6)
        want = _un_luxemburg(N, np.abs(a))
        assert lattice_norm(lat, a) == pytest.approx(want, rel=2e-12)


@pytest.mark.parametrize("label,N", ORLICZ_FNS)
def test_orlicz_inverse_matches_bisection(label, N):
    s = 2.0 ** -np.arange(0, 997, dtype=float)
    got = spaces._orlicz_inverse_vec(N, s)
    want = _orlicz_inverse_vec(N, s)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12


def test_orlicz_inverse_is_a_one_element_solve():
    N = OrliczFn.power_log(2.0, 0.6)
    for s in (1e-300, 1e-9, 0.5, 1.0, 3.0):
        assert spaces.orlicz_inverse(N, s) == spaces._orlicz_inverse_vec(N, np.array([s]))[0]
    assert spaces.orlicz_inverse(N, 0.0) == 0.0
    with pytest.raises(ValueError):
        spaces.orlicz_inverse(N, math.inf)


def test_solver_returns_the_admissible_end():
    # N(t) >= s at the returned t, and the bracket below it is tight
    N = OrliczFn.power(3.0)
    s = np.geomspace(1e-300, 1e300, 301)
    t = spaces._orlicz_inverse_vec(N, s)
    assert np.all(N(t) >= s)
    below = t * (1.0 - 4.0 * spaces._ROOT_TOL)
    assert np.all(N(below) < s)
