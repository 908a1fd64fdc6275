"""Approximate-eigenvector constructions for doubling and shift operators.

The doubling operator D satisfies ||Dx||_p^p = 2||x||_p^p, so lambda =
2^{1/p} is the natural candidate eigenvalue; summing the orbit of a dyadic
block indicator with geometric damping lambda^{1-k} produces unit vectors
v_n with ||(D - lambda)v_n||_p = (4/n)^{1/p} exactly -- the shifted operator
telescopes the orbit to its two boundary layers.  D maps dyadic block k
onto block k+1, so (D - lambda) S = S (tau_1 - lambda) for the block
embedding S: every doubling residual of a block-constant vector, in the
witnesses and the scans on every family, is one shift residual on the
block lattice EX(X), evaluated by ``lattice_norm``.

A second construction works on sequences indexed by reduced rationals in
(0,1): the base-b dilation e_q -> sum_{i<b} e_{(q+i)/b} for b = 2, 3 sends
the orbit of e_{1/6} to sums of unit coordinates whose supports are pairwise
disjoint across distinct (j,k) powers (a 2-3 divisibility argument, checked
here exhaustively in exact arithmetic).  Disjointness turns l^p norms of
orbit combinations into counting, which yields simultaneous approximate
eigenvectors u_n for both dilation bases with residuals (2/n)^{1/p};
``branching_witness`` computes them on orbit coefficients alone.
Every key of the orbit up to powers (J, K) is an integer over the single
denominator 6 2^J 3^K, so one kernel, ``_dilate``, runs the dilations on
int64 numerators: base-b dilation is (a + i*den) // b, exact because b
divides a, and equal keys are equal rationals.

The shift-side machinery: T = tau_1 - lambda has the annihilating moment
functional a -> sum lambda^k a_k; squares of geometric shift sums reduce
T^2 to three explicit terms, and the forward recurrence inverts T on its
moment-zero range.  All shift identities hold in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattices import EX, lattice_norm
from .operators import ShiftMinusLambda, _exact_scalar, apply_array
from .spaces import Lorentz, Lp, LpQ, Orlicz, SpaceSpec

__all__ = [
    "DisjointnessReport",
    "check_disjoint_supports",
    "WitnessReport",
    "doubling_orbit_witness",
    "BranchingReport",
    "branching_witness",
    "ScanPoint",
    "residual_scan",
    "shift_identity_check",
    "moment_functional",
    "solve_shift_minus_lambda",
]


# Rational-index dilations ---------------------------------------------------


def _merge(num: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys, with the coefficients of repeated keys added."""
    keys, inv = np.unique(num, return_inverse=True)
    return keys, np.bincount(inv, weights=coef, minlength=keys.size)


def _dilate(base: int, num: np.ndarray, coef: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray]:
    """e_q -> sum_{i<base} e_{(q+i)/base} on keys q = num/den, int64 numerators.

    The caller fixes ``den`` so that base divides every numerator it dilates
    (an orbit of e_{1/6} up to powers (J, K) needs den = 6 2^J 3^K); floor
    division is then exact, and key equality is rational equality.
    """
    img = (num[:, None] + np.arange(base) * den) // base
    return _merge(img.ravel(), np.repeat(coef, base))


def _orbits(j_max: int, k_max: int, den: int):
    """Yield (j, k), (numerators, coefficients) of D3^k D2^j e_{1/6}, j-major."""
    if 3 * den > np.iinfo(np.int64).max:
        raise ValueError(f"orbit denominator {den} overflows int64")
    row = (np.array([den // 6]), np.ones(1))
    for j in range(1, j_max + 1):
        row = cur = _dilate(2, *row, den)
        for k in range(1, k_max + 1):
            cur = _dilate(3, *cur, den)
            yield (j, k), cur


@dataclass(frozen=True)
class DisjointnessReport:
    ok: bool
    l_max: int
    m_max: int
    cardinalities: dict
    collision: tuple | None  # ((l,m), (l1,m1), key) for the first overlap


def check_disjoint_supports(l_max: int, m_max: int) -> DisjointnessReport:
    """Exhaustively verify the orbit-disjointness of the 2/3-dilations.

    For 1 <= l <= l_max, 1 <= m <= m_max, the iterate of e_{1/6} under l
    base-2 and m base-3 dilations must have exactly 2^l 3^m unit
    coefficients, and distinct (l,m) must have disjoint supports.  Keys are
    exact integers over den = 6 2^l_max 3^m_max.  Cardinalities are checked
    orbit by orbit, then one ``np.unique`` over all keys finds the first
    repeated key, reported as a Fraction.  Any failure is returned, not raised.
    """
    if l_max < 1 or m_max < 1:
        raise ValueError("check_disjoint_supports needs l_max, m_max >= 1")
    den = 6 * 2**l_max * 3**m_max
    cards: dict = {}
    owners, parts = [], []
    for (l, m), (num, coef) in _orbits(l_max, m_max, den):
        cards[(l, m)] = num.size
        if num.size != 2**l * 3**m or np.any(coef != 1):
            return DisjointnessReport(False, l_max, m_max, cards, ((l, m), (l, m), None))
        owners += [(l, m)] * num.size
        parts.append(num)
    keys = np.concatenate(parts)
    uniq, first = np.unique(keys, return_index=True)
    repeat = np.ones(keys.size, dtype=bool)
    repeat[first] = False
    if repeat.any():
        i = int(np.argmax(repeat))  # the earliest key seen before
        earlier = owners[first[np.searchsorted(uniq, keys[i])]]
        key = _exact_scalar(int(keys[i])) / den
        return DisjointnessReport(False, l_max, m_max, cards, (earlier, owners[i], key))
    return DisjointnessReport(True, l_max, m_max, cards, None)


# Doubling-orbit witnesses ---------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    lam: float
    n: int
    residual: float
    predicted: float | None
    support: int
    norm_value: float


def _block_residual(lat: EX, lam: float, a: np.ndarray):
    """||(tau_1 - lam) a|| / ||a|| in the block lattice, and ||a||.

    D maps dyadic block k onto block k+1, so (D - lam) S = S (tau_1 - lam):
    the residual of a block-constant vector S a is this lattice ratio, and
    ``lattice_norm`` alone decides how each family evaluates it.  Takes one
    coefficient row (floats out) or a stack of rows (one entry per row).
    """
    den = lattice_norm(lat, a)
    return lattice_norm(lat, apply_array(ShiftMinusLambda(lam), a)) / den, den


def doubling_orbit_witness(space: SpaceSpec, p: float, n: int) -> WitnessReport:
    """Residual of the damped doubling orbit v_n against lambda = 2^{1/p}.

    v_n = n^{-1/p} sum_{k=1}^{n} 2^{(1-k)/p} D^{k-1} e_1 runs through dyadic
    block indicators, so v_n = S a with a_k = n^{-1/p} 2^{(1-k)/p} and the
    residual is evaluated in EX(space) on n + 1 block coordinates; no
    2^n-entry vector is built.  So n is capped per family before anything
    is built: 62 on Lorentz and l^{p,q} (block run ends stay below 2^63),
    63 on Orlicz (the Luxemburg block norm takes 64 coordinates) and 2^20
    on l^p.  For l^p with p matching the space the residual is exactly
    (4/n)^{1/p}.
    """
    if n < 1:
        raise ValueError("doubling_orbit_witness needs n >= 1")
    if not 1 <= p < math.inf:
        raise ValueError("doubling_orbit_witness needs 1 <= p < inf")
    cap = 62 if isinstance(space, (LpQ, Lorentz)) else 63 if isinstance(space, Orlicz) else 1 << 20
    if n > cap:
        raise ValueError(f"doubling_orbit_witness needs n <= {cap} on {type(space).__name__}")
    lam = 2.0 ** (1.0 / p)
    k = np.arange(1, n + 1, dtype=float)
    a = n ** (-1.0 / p) * 2.0 ** ((1.0 - k) / p)
    residual, den = _block_residual(EX(space), lam, a)
    predicted = (4.0 / n) ** (1.0 / p) if space == Lp(p) else None
    return WitnessReport(
        lam=lam,
        n=n,
        residual=float(residual),
        predicted=predicted,
        support=(1 << n) - 1,
        norm_value=float(den),
    )


# Branching (2- and 3-dilation) witnesses ------------------------------------


@dataclass(frozen=True)
class BranchingReport:
    p: float
    n: int
    norm_value: float
    d2_residual: float
    d3_residual: float
    d2_predicted: float
    d3_predicted: float
    support: int
    # always False, since no route materializes u_n; kept because the
    # benchmark tracer (perfbench/tracing.py) reads it off every witness
    materialized: bool


def _orbit_norm_p(coef: np.ndarray, p: float) -> float:
    """l^p norm of sum c_{jk} (2/3-dilation orbit of e_{1/6}).

    Rows/cols are powers j, k >= 1; disjoint unit-coefficient supports of
    cardinality 2^j 3^k turn the norm into weighted counting.
    """
    j = np.arange(1, coef.shape[0] + 1, dtype=float)[:, None]
    k = np.arange(1, coef.shape[1] + 1, dtype=float)[None, :]
    mass = np.abs(coef) ** p * 2.0**j * 3.0**k
    return float(np.sum(mass) ** (1.0 / p))


def branching_witness(p: float, n: int) -> BranchingReport:
    """Simultaneous approximate eigenvector for both rational dilations.

    u_n = n^{-2/p} sum_{j,k=1}^{n} 2^{-j/p} 3^{-k/p} (orbit at powers (j,k)).
    Returns ||2^{-1/p} D2 u_n - u_n|| and ||3^{-1/p} D3 u_n - u_n|| in l^p;
    the telescoping boundary layers make both equal (2/n)^{1/p} exactly.
    Everything is computed on the n x n orbit coefficients: by disjointness
    D2 and D3 bump the orbit powers j and k, and an l^p norm is a count
    weighted by the orbit cardinalities 2^j 3^k.  The tests hold this route
    to a reference that materializes u_n on its rational supports and
    applies D2, D3 as written.  n is capped at 256: the smallest atom mass
    |c|^p = n^-2 2^-n 3^-n leaves the normal floats near n = 388, and the
    coefficient arrays and the support sum grow as n^2.
    """
    if not 1 <= n <= 256:
        raise ValueError("branching_witness needs 1 <= n <= 256")
    if not 1 <= p < math.inf:
        raise ValueError("branching_witness needs 1 <= p < inf")
    predicted = (2.0 / n) ** (1.0 / p)
    support = sum(2**j * 3**k for j in range(1, n + 1) for k in range(1, n + 1))
    j = np.arange(1, n + 1, dtype=float)
    coef = float(n) ** (-2.0 / p) * np.outer(2.0 ** (-j / p), 3.0 ** (-j / p))

    def residual(axis: int, base: float) -> float:
        # base^{-1/p} (orbit powers bumped by one along axis) - u_n
        pad = [(0, 0), (0, 0)]
        pad[axis] = (1, 0)
        bumped = np.pad(base ** (-1.0 / p) * coef, pad)
        pad[axis] = (0, 1)
        return _orbit_norm_p(bumped - np.pad(coef, pad), p)

    return BranchingReport(
        p=p,
        n=n,
        norm_value=_orbit_norm_p(coef, p),
        d2_residual=residual(0, 2.0),
        d3_residual=residual(1, 3.0),
        d2_predicted=predicted,
        d3_predicted=predicted,
        support=support,
        materialized=False,
    )


# Residual scans over lambda -------------------------------------------------


@dataclass(frozen=True)
class ScanPoint:
    lam: float
    estimate: float
    method: str
    params: dict
    dim: int


def _orbit_family_residual(lam: float, p: float, m: np.ndarray) -> np.ndarray:
    """Residual of the damped orbit a_k = lam^{1-k}, k <= m, in l^p blocks.

    (tau_1 - lam) telescopes a to -lam e_1 + lam^{1-m} e_{m+1}, and the
    block norms sum to residual^p = lam^p (2^t - 1) coth(m t ln2 / 2) with
    t = 1 - p log2 lam (4/m at t = 0).  That is taken in log2 from |t|
    alone, so no two large logs cancel and m may reach 2^20 and beyond.
    """
    u = math.log2(lam)
    m = np.asarray(m, dtype=float)
    t = 1.0 - p * u
    if t == 0.0:
        return (4.0 / m) ** (1.0 / p)
    a = abs(t) * math.log(2)
    log_p = p * u + max(t, 0.0) + math.log2(-math.expm1(-a)) - np.log2(np.tanh(m * a / 2.0))
    return 2.0 ** (log_p / p)


# coarse rho stacks: l^p optima can sit well above 1 (near 1.57 at dim = 2);
# the other families keep their fixed candidates beside 1/lambda
_LP_RHOS = np.linspace(0.05, 2.05, 21)
_GENERAL_RHOS = np.linspace(0.1, 1.2, 12)
# zoom: the first bracket is rho +- the coarse spacing, each next one a
# quarter as wide, down to 0.1 / 4^9 ~ 3.8e-7; so no candidate passes the
# coarse stack's top by more than 0.1 (1 + 1/4 + ...) = 0.1 * 4/3
_ZOOMS = 9
_ZOOM_HALF_WIDTH, _ZOOM_SHRINK = 0.1, 4.0
_ZOOM_REACH = _ZOOM_HALF_WIDTH * _ZOOM_SHRINK / (_ZOOM_SHRINK - 1.0)


def _search_rho(lat: EX, lam: float, ms, rhos: np.ndarray) -> tuple[float, dict]:
    """The best window a_k = rho^{k-1}, k <= m, over m in ms and rho near rhos.

    Coarse step: every (m, rho) pair is one row of a stack, zero-padded to
    the longest m, in one block residual call; ties go to the first pair.
    Zoom step: at the best pair's m, each round evaluates 9 rho spread over
    rho +- h (kept above 1e-3) as one stack and moves to the best, then h
    shrinks by 4.  On a unimodal profile the optimum stays inside the
    bracket, and the estimate never rises above the coarse one.
    """
    ms = np.asarray(ms)
    k = np.arange(ms.max(), dtype=float)
    rows = np.where(k < ms[:, None, None], rhos[:, None] ** k, 0.0)
    res = _block_residual(lat, lam, rows.reshape(-1, k.size))[0]
    i = int(np.argmin(res))
    best, m, rho = float(res[i]), int(ms[i // rhos.size]), float(rhos[i % rhos.size])
    h = _ZOOM_HALF_WIDTH
    for _ in range(_ZOOMS):
        cand = np.linspace(max(rho - h, 1e-3), rho + h, 9)
        res = _block_residual(lat, lam, cand[:, None] ** np.arange(m, dtype=float))[0]
        j = int(np.argmin(res))
        if res[j] < best:
            best, rho = float(res[j]), float(cand[j])
        h /= _ZOOM_SHRINK
    return best, {"m": m, "rho": rho}


def _search_plan(lam: float, lat: EX, dim: int) -> tuple:
    """Block counts and coarse rho of the search a scan point runs, and
    whether the closed-form orbit family (finite-p l^p) runs beside it."""
    base = lat.base
    if isinstance(base, Lp) and base.p != math.inf:
        return [min(dim, 64)], _LP_RHOS, True
    blocks = max(1, int(dim).bit_length() - 1)
    return range(1, blocks + 1), np.concatenate(([1.0 / lam], _GENERAL_RHOS)), False


def _search_overflows(lam: float, plan: tuple) -> bool:
    """Whether a row rho^{k-1}, k <= m, of the search, lam times it, or a
    block norm of either can overflow, for any rho the zoom can reach.

    A norm of a block vector on m blocks is at most its max times
    phi(2^m) <= 2^m, so every value stays below 2^bits.
    """
    ms, rhos, _ = plan
    top = float(np.max(rhos)) + _ZOOM_REACH
    if not math.isfinite(top):
        return True
    m = max(ms)
    bits = (m - 1) * max(0.0, math.log2(top)) + max(0.0, math.log2(lam)) + m + 2
    return bits > 1020


def _scan_point(lam: float, lat: EX, dim: int, plan: tuple) -> tuple[float, str, dict]:
    ms, rhos, orbit = plan
    est, params = _search_rho(lat, lam, ms, rhos)
    if not orbit:
        return est, "operator_search", params
    mgrid = 2 ** np.arange(0, int(dim).bit_length())
    fam = _orbit_family_residual(lam, lat.base.p, mgrid)
    i = int(np.argmin(fam))
    # the zoom ends within ~4e-7 of a stationary rho: a win under 1e-12
    # relative is rounding in the block norms, not a better witness
    if est < fam[i] * (1.0 - 1e-12):
        return est, "operator_search", params
    return float(fam[i]), "closed_form", {"m": int(mgrid[i]), "rho": 1.0 / lam}


def residual_scan(space: SpaceSpec, lambda_grid, dim: int = 1 << 14) -> list[ScanPoint]:
    """Upper estimates of inf_{||x||=1} ||(D - lambda)x|| over a lambda grid.

    Every value is an upper estimate of the infimum (a witness was found
    achieving it); no spectral-gap lower bounds are claimed anywhere.  Every
    witness is block-constant, S a with a_k = rho^{k-1} on m blocks, and its
    residual is evaluated in EX(space) by ``_block_residual`` on every
    family.  One deterministic search, ``_search_rho``, serves every family
    (a coarse (m, rho) stack, then a zoom in rho); the family supplies only
    its data.  For l^p, ``dim`` counts blocks: the damped-orbit family runs
    in closed form on m = 1, 2, 4, ... <= dim, and the search on m =
    min(dim, 64) from 21 rho over [0.05, 2.05].  For other spaces the search
    takes m = 1..log2(dim), so ``dim`` bounds the support 2^m - 1, and rho
    in {1/lambda} and 12 points over [0.1, 1.2].  A ``dim`` of 2^63 or more
    (past int64 block positions) is refused at once.  No value depends on a
    seed, on the grid order or on how the grid is split.
    """
    grid = [float(g) for g in lambda_grid]
    if not grid or not all(0 < g < math.inf for g in grid):
        raise ValueError("lambda grid entries must be positive and finite")
    if not 1 <= dim < 1 << 63:
        raise ValueError("residual_scan needs 1 <= dim < 2^63: block positions must stay below 2^63")
    lat = EX(space)
    plans = [_search_plan(lam, lat, dim) for lam in grid]
    for lam, plan in zip(grid, plans):
        if _search_overflows(lam, plan):
            raise ValueError(f"residual_scan cannot take lambda = {lam!r} on {type(space).__name__} "
                             f"at dim = {dim}: its search rows or their images would overflow")
    return [ScanPoint(lam, *_scan_point(lam, lat, dim, plan), dim=dim)
            for lam, plan in zip(grid, plans)]


# Exact shift machinery ------------------------------------------------------


def _geometric_shift_sum(lam, n: int, xs: list) -> list:
    """(sum_{i=0}^{n} lam^{-i} tau_1^i) applied to a coefficient list."""
    out = [lam * 0] * (len(xs) + n)
    damp = lam**0  # Fraction(1) for exact lam, 1.0 for float
    for i in range(n + 1):
        for pos, v in enumerate(xs):
            out[pos + i] += v / damp
        damp = damp * lam
    return out


def shift_identity_check(lam, n: int, j: int) -> bool:
    """Verify (tau_1 - lam)^2 (sum_{i<=n} lam^-i tau_1^i)^2 e_j telescopes.

    The expected value is lam^2 e_j - 2 lam^{1-n} e_{j+n+1} + lam^{-2n}
    e_{j+2n+2}; additionally the squared geometric sum must dominate
    n lam^{-n} e_{j+n} (its e_{j+n} coefficient is (n+1) lam^{-n}).
    Exact for rational lam; 1e-10 relative for floats.
    """
    if n < 1 or j < 1:
        raise ValueError("shift_identity_check needs n, j >= 1")
    rational = _exact_scalar(lam)
    exact = rational is not None
    lam = rational if exact else float(lam)
    e_j = [0] * (j - 1) + [1 if exact else 1.0]
    a = _geometric_shift_sum(lam, n, _geometric_shift_sum(lam, n, e_j))
    op = ShiftMinusLambda(lam)
    got = apply_array(op, apply_array(op, a)).tolist()
    want = [0] * (j + 2 * n + 2)
    want[j - 1] = lam**2
    want[j + n] = -2 * lam ** (1 - n)
    want[j + 2 * n + 1] = lam ** (-2 * n)
    if len(got) < len(want):
        got = got + [0] * (len(want) - len(got))
    edge = a[j + n - 1]  # e_{j+n} coefficient of the squared sum
    if exact:
        return got == want and edge == (n + 1) * lam**-n and edge >= n * lam**-n
    scale = max(abs(v) for v in want)
    close = all(abs(g - w) <= 1e-10 * scale for g, w in zip(got, want))
    return close and abs(edge - (n + 1) * lam**-n) <= 1e-10 * abs(edge)


def moment_functional(lam, a):
    """sum_k lam^k a_k over the finite support (Horner from the top).

    Annihilates the image of (tau_1 - lam): the functional of e_{k+1} -
    lam e_k vanishes term by term.  Exact (an int or a Fraction) when lam
    and every entry are, else a float.
    """
    entries = list(a)
    acc = 0
    for v in reversed(entries):
        acc = acc * lam + v
    return acc * lam


def solve_shift_minus_lambda(lam, b):
    """The finitely supported a with (tau_1 - lam) a = b, when one exists.

    Forward recurrence a_1 = -b_1/lam, a_k = (a_{k-1} - b_k)/lam; the result
    is finitely supported exactly when the moment functional of b vanishes
    (the recurrence telescopes to lam^k a_k = -(1/lam) sum_{i<=k} lam^i b_i).
    b is any finite iterable of numbers; the result is always a list.
    """
    entries = list(b)
    while entries and entries[-1] == 0:
        entries.pop()
    moment = moment_functional(lam, entries)
    rational = _exact_scalar(lam)
    exact = rational is not None and all(_exact_scalar(v) is not None for v in entries)
    if exact:
        lam = rational  # keep the recurrence divisions exact
        if moment != 0:
            raise ValueError(
                f"moment sum lam^k b_k = {moment} != 0: b is not in the image of (shift - lam)"
            )
    else:
        scale = moment_functional(abs(lam), [abs(v) for v in entries])
        if abs(moment) > 1e-10 * max(1.0, abs(scale)):
            raise ValueError(
                f"moment sum lam^k b_k = {moment} is nonzero at float tolerance: "
                "b is not in the image of (shift - lam)"
            )
    a: list = []
    prev = 0
    for bk in entries:
        prev = (prev - bk) / lam
        a.append(prev)
    if a:
        if exact:
            if a[-1] != 0:
                raise AssertionError("telescoping failed despite zero moment")
            a.pop()
        else:
            a.pop()  # telescoped tail; only float dust remains there
    return a
