"""Dilation, shift, doubling and block operators on finite sequences.

Operators act lazily on dense coefficient vectors; nothing is ever stored as
a matrix, so applying any of them to vectors with 2^20 entries stays cheap.
One kernel, ``apply_array``, does the index arithmetic for every operator.
Float input runs in float64; input with a ``fractions.Fraction`` entry runs
on an object array of Fractions, so the identity checks stay exact.

Conventions (1-based index k):

* ``DilateUp(m)``      (sigma_m x)_k    = x_ceil(k/m)      -- each entry m times;
* ``DilateDown(m)``    (sigma_1/m x)_k  = mean of block k of length m;
* ``Shift(n)``         tau_n: prepend n zeros (n > 0) / drop |n| entries (n < 0);
* ``Doubling``         D = tau_1 sigma_2: (Dx)_1 = 0, (Dx)_k = x_floor(k/2);
* ``DoublingInverse``  D^-1 = sigma_1/2 tau_-1, a left inverse of D;
* ``BlockEmbed``       S x = sum_k x_k * indicator of block k = [2^(k-1), 2^k - 1];
* ``AvgProject``       Q: average over each dyadic block (norm-1 projection);
* ``AvgProjectN(n)``   R_n: average over consecutive blocks of length 2^n;
* ``ShiftMinusLambda`` T_lambda = tau_1 - lambda I;
* ``DoublingMinusLambda`` D_lambda = D - lambda I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .seq import Seq
from .spaces import SpaceSpec, norm

__all__ = [
    "DilateUp",
    "DilateDown",
    "Shift",
    "Doubling",
    "DoublingInverse",
    "BlockEmbed",
    "AvgProject",
    "AvgProjectN",
    "ShiftMinusLambda",
    "DoublingMinusLambda",
    "OperatorSpec",
    "apply",
    "apply_array",
    "parse_operator",
    "operator_norm_lower",
    "NormSearchResult",
    "spectral_radius_estimate",
    "SpectralRadiusEstimate",
]


@dataclass(frozen=True)
class DilateUp:
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("DilateUp needs m >= 1")


@dataclass(frozen=True)
class DilateDown:
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("DilateDown needs m >= 1")


@dataclass(frozen=True)
class Shift:
    n: int


@dataclass(frozen=True)
class Doubling:
    pass


@dataclass(frozen=True)
class DoublingInverse:
    pass


@dataclass(frozen=True)
class BlockEmbed:
    pass


@dataclass(frozen=True)
class AvgProject:
    pass


@dataclass(frozen=True)
class AvgProjectN:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("AvgProjectN needs n >= 0")


@dataclass(frozen=True)
class ShiftMinusLambda:
    lam: object  # float or Fraction


@dataclass(frozen=True)
class DoublingMinusLambda:
    lam: object


OperatorSpec = (
    DilateUp
    | DilateDown
    | Shift
    | Doubling
    | DoublingInverse
    | BlockEmbed
    | AvgProject
    | AvgProjectN
    | ShiftMinusLambda
    | DoublingMinusLambda
)


def _block_count(length: int) -> int:
    """Number of dyadic blocks needed to cover the first `length` positions."""
    k = 0
    while (1 << k) - 1 < length:
        k += 1
    return k


def _vector(x) -> np.ndarray:
    """Object array of Fractions if any entry is a Fraction, else float."""
    arr = np.asarray(x)
    if arr.dtype == object:
        # scan everything: exact lists often lead with plain-int zeros
        exact = [isinstance(v, Fraction) for v in arr]
        if all(exact):
            return arr
        if any(exact):
            return np.array([Fraction(v) for v in arr], dtype=object)
    return np.asarray(x, dtype=float)


def _exact_scalar(v) -> Fraction | None:
    """``v`` as a Fraction if it is an int or a Fraction, else None."""
    return Fraction(v) if isinstance(v, (int, Fraction)) else None


def _zeros(n: int | tuple, like: np.ndarray) -> np.ndarray:
    if like.dtype == object:
        return np.full(n, Fraction(0), dtype=object)
    return np.zeros(n)


def apply_array(op: OperatorSpec, x) -> np.ndarray:
    """Apply an operator to a vector (vectorized).

    Float input runs in float64.  If any entry is a ``Fraction`` the vector
    becomes an object array of Fractions and every result entry is an exact
    Fraction, padding included.
    """
    x = _vector(x)
    n = x.size
    if isinstance(op, DilateUp):
        return np.repeat(x, op.m)
    if isinstance(op, DilateDown):
        m = op.m
        xp = np.concatenate([x, _zeros((-n) % m, x)])
        return xp.reshape(-1, m).sum(axis=1) / m
    if isinstance(op, Shift):
        if op.n >= 0:
            return np.concatenate([_zeros(op.n, x), x])
        return x[-op.n :]
    if isinstance(op, Doubling):
        return apply_array(Shift(1), apply_array(DilateUp(2), x))
    if isinstance(op, DoublingInverse):
        return apply_array(DilateDown(2), apply_array(Shift(-1), x))
    if isinstance(op, BlockEmbed):
        if n > 24:
            raise ValueError("BlockEmbed input longer than 24 blocks (2^24 cap)")
        return np.repeat(x, 1 << np.arange(n))
    if isinstance(op, AvgProject):
        blocks = _block_count(n)
        total = (1 << blocks) - 1
        xp = np.concatenate([x, _zeros(total - n, x)])
        out = np.empty(total, dtype=x.dtype)
        for k in range(blocks):
            size = 1 << k
            start = size - 1
            out[start : start + size] = xp[start : start + size].sum() / size
        return out
    if isinstance(op, AvgProjectN):
        size = 1 << op.n
        xp = np.concatenate([x, _zeros((-n) % size, x)])
        return np.repeat(xp.reshape(-1, size).sum(axis=1) / size, size)
    if isinstance(op, ShiftMinusLambda):
        # along the last axis, so a stack of rows shifts row by row
        lam = op.lam if x.dtype == object else float(op.lam)
        zero = _zeros(x.shape[:-1] + (1,), x)
        return np.concatenate([zero, x], axis=-1) - lam * np.concatenate([x, zero], axis=-1)
    if isinstance(op, DoublingMinusLambda):
        lam = op.lam if x.dtype == object else float(op.lam)
        dbl = apply_array(Doubling(), x)
        dbl[:n] -= lam * x
        return dbl
    raise TypeError(f"unknown operator {op!r}")


def apply(op: OperatorSpec, x: Seq) -> Seq:
    """Apply an operator to a Seq (float semantics)."""
    return Seq(apply_array(op, x.array))


_OP_GRAMMAR = (
    "sigma_up:m | sigma_down:m | tau:n | doubling | doubling_inv | S | Q | "
    "R:n | T:lambda | Dl:lambda"
)


def parse_operator(text: str) -> OperatorSpec:
    """Parse the CLI operator grammar (see _OP_GRAMMAR)."""
    name, _, arg = text.partition(":")
    try:
        if name == "sigma_up":
            return DilateUp(int(arg))
        if name == "sigma_down":
            return DilateDown(int(arg))
        if name == "tau":
            return Shift(int(arg))
        if name == "doubling":
            return Doubling()
        if name == "doubling_inv":
            return DoublingInverse()
        if name == "S":
            return BlockEmbed()
        if name == "Q":
            return AvgProject()
        if name == "R":
            return AvgProjectN(int(arg))
        if name == "T":
            return ShiftMinusLambda(float(arg))
        if name == "Dl":
            return DoublingMinusLambda(float(arg))
    except ValueError as exc:
        raise ValueError(f"bad operator argument in {text!r}: {exc}") from exc
    raise ValueError(f"unknown operator {text!r}; grammar: {_OP_GRAMMAR}")


_SUPPORT_GROWING = (DilateUp, Doubling, DoublingMinusLambda, BlockEmbed)


@dataclass(frozen=True)
class NormSearchResult:
    """Certified lower bound for an operator norm with its witness vector."""

    value: float
    witness: Seq
    strategy: str
    dim: int
    truncation_note: str = ""


def _structured_candidates(dim: int) -> list[np.ndarray]:
    cands: list[np.ndarray] = [np.ones(1)]
    j = 1
    while j <= dim:
        cands.append(np.ones(j))
        j *= 2
    if dim >= 3:
        cands.append(np.ones(3 * max(1, dim // 4)))
    for r in (0.1, 0.25, 0.5, 0.7, 0.85, 0.95, 0.99):
        k = np.arange(min(dim, max(8, int(-36.0 / math.log(r)) + 1)))
        cands.append(r**k)
    # dyadic block indicators chi_[2^(k-1), 2^k - 1]
    k = 1
    while (1 << k) - 1 <= dim:
        v = np.zeros((1 << k) - 1)
        v[(1 << (k - 1)) - 1 :] = 1.0
        cands.append(v)
        k += 1
    return [c for c in cands if c.size <= dim]


def _random_candidates(dim: int, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    cands = []
    for _ in range(count):
        size = int(rng.integers(1, dim + 1))
        v = np.abs(rng.standard_normal(size))
        cands.append(v)
        cands.append(np.sort(v)[::-1])
    return cands


def _ratio(space: SpaceSpec, op: OperatorSpec, v: np.ndarray) -> float:
    denom = norm(space, v)
    if denom == 0.0:
        return 0.0
    return norm(space, apply_array(op, v)) / denom


def operator_norm_lower(
    space: SpaceSpec,
    op: OperatorSpec,
    dim: int = 4096,
    strategy: str = "structured",
    seed: int = 7,
    restarts: int = 16,
    iters: int = 500,
) -> NormSearchResult:
    """Largest found value of ||op x|| / ||x||: always a certified lower bound.

    Strategies: "structured" (indicators, geometric tails, dyadic blocks),
    "random" (seeded nonnegative Gaussian draws and their rearrangements) and
    "optimize" (projected coordinate ascent over the nonincreasing cone,
    parametrized by cumulative sums of nonnegative increments with step
    halving and seeded restarts).  Outputs of support-growing operators are
    never clipped, so the reported ratio is exact for the witness.
    """
    if dim < 1:
        raise ValueError("operator_norm_lower needs dim >= 1")
    rng = np.random.default_rng(seed)
    best, best_v = 0.0, np.ones(1)

    def consider(v: np.ndarray):
        nonlocal best, best_v
        r = _ratio(space, op, v)
        if r > best:
            best, best_v = r, v

    if strategy in ("structured", "optimize"):
        for v in _structured_candidates(dim):
            consider(v)
    if strategy == "random":
        for v in _random_candidates(dim, rng, 64):
            consider(v)
    if strategy == "optimize":
        size = min(dim, 512)
        for _ in range(restarts):
            incr = np.abs(rng.standard_normal(size))
            step = 1.0
            cur = _ratio(space, op, np.cumsum(incr[::-1])[::-1])
            for _ in range(iters):
                j = int(rng.integers(size))
                trial = incr.copy()
                trial[j] = max(0.0, trial[j] + step * rng.standard_normal())
                v = np.cumsum(trial[::-1])[::-1]
                r = _ratio(space, op, v)
                if r > cur:
                    cur, incr = r, trial
                else:
                    step = max(step * 0.5, 1e-4)
            consider(np.cumsum(incr[::-1])[::-1])
    if strategy not in ("structured", "random", "optimize"):
        raise ValueError(f"unknown strategy {strategy!r}")

    note = ""
    if isinstance(op, _SUPPORT_GROWING) and np.count_nonzero(best_v) > dim // 2:
        note = (
            "witness support exceeds dim/2; image evaluated without clipping, "
            "larger dim may improve the bound"
        )
    return NormSearchResult(
        value=float(best),
        witness=Seq(best_v),
        strategy=strategy,
        dim=dim,
        truncation_note=note,
    )


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """min_n ||op^n||^(1/n) from norm lower bounds: neither side certified.

    Each ||op^n|| is only searched from below, while ||op^n||^(1/n) only
    converges to the radius from above; the two estimates bracket heuristics,
    not guarantees, hence the caveat field.
    """

    value: float
    at_n_max: float
    per_n: tuple[float, ...]
    caveat: str = (
        "norm lower bounds feed an upper characterization; two-sided error"
    )


def spectral_radius_estimate(
    space: SpaceSpec,
    op: OperatorSpec,
    n_max: int = 10,
    dim: int = 4096,
    seed: int = 7,
) -> SpectralRadiusEstimate:
    """Estimate the spectral radius via min over n of ||op^n||^(1/n)."""
    if n_max < 1:
        raise ValueError("spectral_radius_estimate needs n_max >= 1")
    per_n = []
    for n in range(1, n_max + 1):
        # op^n as a lazy composition; candidate supports shrink so that
        # support-growing operators stay exact.
        best = 0.0
        for v in _structured_candidates(max(1, dim >> n if isinstance(op, _SUPPORT_GROWING) else dim)):
            cur = v
            for _ in range(n):
                cur = apply_array(op, cur)
            denom = norm(space, v)
            if denom > 0.0:
                best = max(best, norm(space, cur) / denom)
        per_n.append(best ** (1.0 / n))
    return SpectralRadiusEstimate(
        value=float(min(per_n)), at_n_max=float(per_n[-1]), per_n=tuple(per_n)
    )
