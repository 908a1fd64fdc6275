"""Weighted lattices derived from symmetric spaces via dyadic blocks.

``EX(base)`` carries the norm ||a||_E = ||S a||_X where S spreads coordinate
k over the dyadic block [2^(k-1), 2^k - 1]; its unit vector norms are the
fundamental function of the base at dyadic arguments, s_k = phi_X(2^(k-1)).
``WeightedLq(q, mu)`` is the plain weighted l_q lattice, and ``UN(N)`` is the
weighted Orlicz lattice with block cardinalities 2^(k-1) as weights; these
are the concrete models to which EX of a Lorentz or Orlicz base is
equivalent, with explicit constants checked by ``dyadic_equivalence_report``.

Shift operators on these lattices have norms governed by the unit-norm
ratios; ``shift_exponents`` estimates the limits k_plus/k_minus of
||tau_{+-n}||^(1/n), which bracket all approximate eigenvalues of the shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._limits import RateEstimate, estimate_rate
from .operators import BlockEmbed, apply_array
from .seq import Seq
from .spaces import (
    Lorentz,
    Lp,
    Orlicz,
    OrliczFn,
    SpaceSpec,
    WeightSeq,
    _luxemburg,
    _orlicz_from_json,
    _orlicz_inverse_vec,
    _orlicz_to_json,
    _weights_from_json,
    fundamental_function,
    norm,
    space_from_json,
    space_to_json,
)

__all__ = [
    "EX",
    "WeightedLq",
    "UN",
    "LatticeSpec",
    "block_weights_from_lorentz",
    "lattice_norm",
    "unit_norms",
    "ShiftExponents",
    "shift_exponents",
    "sandwich_ratio",
    "EquivalenceReport",
    "dyadic_equivalence_report",
    "WeightRatioCondition",
    "weight_ratio_condition",
    "random_decreasing",
    "lattice_from_json",
    "lattice_to_json",
]


@dataclass(frozen=True)
class EX:
    """Block lattice of a symmetric space; norms via the block embedding."""

    base: SpaceSpec
    cap: int = 24  # materialization cap: len(a) blocks -> 2^cap - 1 entries


@dataclass(frozen=True)
class WeightedLq:
    """l_q with positive weights mu (vectorized callable on 1-based k).

    ``descriptor`` optionally carries the JSON form that built mu, so the
    lattice can be serialized back; lattices built from raw callables cannot.
    """

    q: float
    mu: Callable[[np.ndarray], np.ndarray]
    descriptor: dict | None = None

    def __post_init__(self):
        if not (1.0 <= self.q < math.inf):
            raise ValueError("WeightedLq needs q in [1, inf)")
        # probe only k = 1, 2 so finite weight tables stay constructible;
        # range errors beyond a table surface at evaluation time
        probe = np.asarray(self.mu(np.arange(1.0, 3.0)), dtype=float)
        if not np.all(np.isfinite(probe)) or np.any(probe <= 0):
            raise ValueError("weights mu must be finite and positive")


@dataclass(frozen=True)
class UN:
    """Orlicz lattice with dyadic block cardinalities as modular weights."""

    N: OrliczFn


LatticeSpec = Union[EX, WeightedLq, UN]


def block_weights_from_lorentz(q: float, w: WeightSeq) -> Callable[[np.ndarray], np.ndarray]:
    """mu_k = 2^((k-1)/q) w(2^(k-1)): the weights making WeightedLq model EX."""

    def mu(k: np.ndarray, q=q, w=w) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        return 2.0 ** ((k - 1.0) / q) * w.values_at(2.0 ** (k - 1.0))

    return mu


def _ex_norm_lp(p: float, a: np.ndarray) -> float:
    """||S a||_p in closed form: block k contributes |a_k|^p 2^(k-1)."""
    a = np.abs(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0
    if p == math.inf:
        return float(a.max())
    k = np.arange(a.size, dtype=float)
    # log-domain sum: the 2^(k-1) block cardinalities overflow beyond k ~ 1023
    nz = a > 0.0
    if not np.any(nz):
        return 0.0
    logs = p * np.log2(a[nz]) + k[nz]
    m = float(np.max(logs))
    return float(2.0 ** (m / p) * np.sum(2.0 ** (logs - m)) ** (1.0 / p))


def lattice_norm(lat: LatticeSpec, a) -> float:
    """Norm of the coordinate vector a in the lattice."""
    arr = a.array if isinstance(a, Seq) else np.asarray(a, dtype=float)
    if arr.size == 0:
        return 0.0
    if isinstance(lat, EX):
        if isinstance(lat.base, Lp):
            return _ex_norm_lp(lat.base.p, arr)
        if arr.size > lat.cap:
            raise ValueError(
                f"EX norm materializes 2^len - 1 entries; len {arr.size} "
                f"exceeds the cap {lat.cap}"
            )
        return norm(lat.base, apply_array(BlockEmbed(), arr))
    if isinstance(lat, WeightedLq):
        mu = np.asarray(lat.mu(np.arange(1.0, arr.size + 1.0)), dtype=float)
        return float(np.sum((np.abs(arr) * mu) ** lat.q) ** (1.0 / lat.q))
    if isinstance(lat, UN):
        if arr.size > 64:
            raise ValueError("UN norm supports at most 64 coordinates")
        return _luxemburg(lat.N, np.abs(arr), weights=2.0 ** np.arange(arr.size))
    raise TypeError(f"unknown lattice spec {lat!r}")


def unit_norms(lat: LatticeSpec, k_max: int) -> np.ndarray:
    """s_k = ||e_k|| for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("unit_norms needs k_max >= 1")
    if isinstance(lat, EX):
        base = lat.base
        if isinstance(base, Lorentz) and k_max > 26:
            raise ValueError(
                "EX over a Lorentz base sums 2^(k-1) weights per unit norm; "
                "k_max > 26 is not materializable"
            )
        return np.array(
            [fundamental_function(base, 1 << (k - 1)) for k in range(1, k_max + 1)]
        )
    if isinstance(lat, WeightedLq):
        return np.asarray(lat.mu(np.arange(1.0, k_max + 1.0)), dtype=float)
    if isinstance(lat, UN):
        k = np.arange(1, k_max + 1)
        return 1.0 / _orlicz_inverse_vec(lat.N, 2.0 ** (1.0 - k))
    raise TypeError(f"unknown lattice spec {lat!r}")


@dataclass(frozen=True)
class ShiftExponents:
    """Shift norm growth rates: k_plus for tau_n, k_minus for tau_{-n}.

    ``point`` fields are difference-extrapolated estimates; ``inf_char``
    fields are the min-over-n of the defining ratios (the certified side up
    to k_max truncation of the inner sup); ``at_n_max`` is the raw value.
    """

    k_plus: float
    k_minus: float
    k_plus_at_n_max: float
    k_minus_at_n_max: float
    k_plus_inf_char: float
    k_minus_inf_char: float
    n_max: int
    k_max: int


def shift_exponents(lat: LatticeSpec, n_max: int = 16, k_max: int = 64) -> ShiftExponents:
    """Estimate k_plus = lim ||tau_n||^(1/n) and k_minus = lim ||tau_-n||^(1/n).

    On a weighted lattice with unit norms s_k the shift norms are unit-norm
    ratio sups: ||tau_n|| = sup_{k>n} s_k/s_{k-n} and
    ||tau_-n|| = sup_k s_k/s_{k+n}.
    """
    if n_max < 2 or k_max <= n_max:
        raise ValueError("shift_exponents needs n_max >= 2 and k_max > n_max")
    s = unit_norms(lat, k_max)
    logs = np.log2(s)
    up = np.empty(n_max)
    down = np.empty(n_max)
    for n in range(1, n_max + 1):
        up[n - 1] = np.max(logs[n:] - logs[:-n])
        down[n - 1] = np.max(logs[:-n] - logs[n:])
    eu: RateEstimate = estimate_rate(up)
    ed: RateEstimate = estimate_rate(down)
    return ShiftExponents(
        k_plus=float(2.0**eu.point),
        k_minus=float(2.0**ed.point),
        k_plus_at_n_max=float(2.0**eu.at_n_max),
        k_minus_at_n_max=float(2.0**ed.at_n_max),
        k_plus_inf_char=float(2.0**eu.fekete),
        k_minus_inf_char=float(2.0**ed.fekete),
        n_max=n_max,
        k_max=k_max,
    )


def sandwich_ratio(base: SpaceSpec, x) -> float:
    """||sum_k x*_{2^k} e_{k+1}||_EX divided by ||x||_base; lies in [1, 5].

    The lower bound is domination of x* by the block-spread dyadic samples;
    the upper bound costs one triangle inequality and two dyadic dilations.
    """
    xs = x if isinstance(x, Seq) else Seq(x)
    if xs.is_zero():
        raise ValueError("sandwich_ratio needs a nonzero vector")
    star = np.sort(np.abs(xs.array))[::-1]
    ln = star.size
    coords = []
    k = 0
    while (1 << k) <= ln:
        coords.append(star[(1 << k) - 1])
        k += 1
    return lattice_norm(EX(base), np.array(coords)) / norm(base, star)


@dataclass(frozen=True)
class EquivalenceReport:
    """Observed rhs/lhs ratio envelope for the dyadic-sample equivalence."""

    kind: str
    trials: int
    ratio_min: float
    ratio_max: float
    bound_lo: float
    bound_hi: float
    max_len: int
    seed: int


def random_decreasing(rng: np.random.Generator, size: int) -> np.ndarray:
    """Nonincreasing positive test vector: reversed cumulative |gaussian| sums."""
    inc = np.abs(rng.standard_normal(size))
    v = np.cumsum(inc)[::-1]
    top = v[0] if v[0] > 0 else 1.0
    return v / top


def dyadic_equivalence_report(
    kind: str,
    *,
    q: float | None = None,
    w: WeightSeq | None = None,
    N: OrliczFn | None = None,
    trials: int = 200,
    max_len: int = 4096,
    seed: int = 7,
) -> EquivalenceReport:
    """Compare ||x|| with the lattice norm of its dyadic samples (x*_{2^k})_k.

    kind "lorentz": rhs in WeightedLq with mu_k = 2^((k-1)/q) w(2^(k-1));
    the modular chain gives rhs/lhs in [1, 4^(1/q)].  kind "orlicz": rhs in
    UN(N); the chain gives rhs/lhs in [1, 4].
    """
    rng = np.random.default_rng(seed)
    if kind == "lorentz":
        if q is None or w is None:
            raise ValueError("lorentz equivalence needs q and w")
        space: SpaceSpec = Lorentz(q, w)
        lat: LatticeSpec = WeightedLq(q, block_weights_from_lorentz(q, w))
        bound_lo, bound_hi = 1.0, 4.0 ** (1.0 / q)
    elif kind == "orlicz":
        if N is None:
            raise ValueError("orlicz equivalence needs N")
        space = Orlicz(N)
        lat = UN(N)
        bound_lo, bound_hi = 1.0, 4.0
    else:
        raise ValueError(f"unknown equivalence kind {kind!r}")

    lo, hi = math.inf, 0.0
    for _ in range(trials):
        size = int(rng.integers(2, max_len + 1))
        x = random_decreasing(rng, size)
        coords = []
        k = 0
        while (1 << k) <= size:
            coords.append(x[(1 << k) - 1])
            k += 1
        rhs = lattice_norm(lat, np.array(coords))
        lhs = norm(space, x)
        r = rhs / lhs
        lo, hi = min(lo, r), max(hi, r)
    return EquivalenceReport(
        kind=kind,
        trials=trials,
        ratio_min=float(lo),
        ratio_max=float(hi),
        bound_lo=bound_lo,
        bound_hi=bound_hi,
        max_len=max_len,
        seed=seed,
    )


@dataclass(frozen=True)
class WeightRatioCondition:
    """Dyadic weight regularity: lim (sup_k w(2^k)/w(2^(k+n)))^(1/n) < 2^(1/q).

    When it holds, EX of the Lorentz space is lattice-isomorphic to the
    weighted l_q model and the simplified index formulas apply.
    """

    holds: bool
    margin: float
    estimate_at_n_max: float
    threshold: float
    n_max: int
    k_max: int


def weight_ratio_condition(
    q: float, w: WeightSeq, n_max: int = 16, k_max: int = 256
) -> WeightRatioCondition:
    k_eff = min(k_max, 1000 - n_max)
    k = np.arange(0, k_eff + 1, dtype=float)
    logw = np.log2(w.values_at(2.0**k))
    n = n_max
    est = float(2.0 ** (np.max(logw[:-n] - logw[n:]) / n))
    thr = float(2.0 ** (1.0 / q))
    return WeightRatioCondition(
        holds=est < thr,
        margin=thr - est,
        estimate_at_n_max=est,
        threshold=thr,
        n_max=n_max,
        k_max=k_eff,
    )


# JSON descriptors ------------------------------------------------------------


def _mu_from_json(q: float, obj) -> tuple:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ValueError('wlq weights must be {"form": ...}')
    form = obj["form"]
    if form == "geometric":
        r = float(obj["ratio"])
        if not 0.0 < r < math.inf:
            raise ValueError("geometric weights need ratio > 0")

        def mu(k, r=r):
            return r ** (np.asarray(k, dtype=float) - 1.0)

        return mu, {"form": "geometric", "ratio": r}
    if form == "array":
        vals = obj.get("values")
        if not isinstance(vals, list) or len(vals) < 2:
            raise ValueError('array weights need "values" with at least 2 entries')
        table = np.asarray([float(v) for v in vals])

        def mu(k, table=table):
            idx = np.asarray(k, dtype=np.int64)
            if np.any(idx < 1) or np.any(idx > table.size):
                raise ValueError(f"array weights cover only k <= {table.size}")
            return table[idx - 1]

        return mu, {"form": "array", "values": [float(v) for v in vals]}
    if form == "lorentz_blocks":
        w = _weights_from_json(obj.get("weights"))
        desc = {"form": "lorentz_blocks", "weights": dict(obj["weights"])}
        return block_weights_from_lorentz(q, w), desc
    raise ValueError(f"unknown wlq weights form {form!r}")


def lattice_from_json(obj) -> LatticeSpec:
    """Build a lattice from a parsed JSON object (see README for the schema)."""
    if not isinstance(obj, dict):
        raise ValueError("lattice descriptor must be a JSON object")
    kind = obj.get("kind")
    if kind == "ex":
        base = space_from_json(obj["base"])
        return EX(base=base, cap=int(obj.get("cap", 24)))
    if kind == "wlq":
        q = float(obj["q"])
        mu, desc = _mu_from_json(q, obj["weights"])
        return WeightedLq(q=q, mu=mu, descriptor=desc)
    if kind == "un":
        return UN(N=_orlicz_from_json(obj["orlicz"]))
    raise KeyError(f"unknown lattice kind {kind!r}")


def lattice_to_json(lat: LatticeSpec) -> dict:
    if isinstance(lat, EX):
        return {"kind": "ex", "base": space_to_json(lat.base), "cap": lat.cap}
    if isinstance(lat, WeightedLq):
        if lat.descriptor is None:
            raise ValueError("cannot serialize a wlq lattice built from a raw callable")
        return {"kind": "wlq", "q": lat.q, "weights": dict(lat.descriptor)}
    if isinstance(lat, UN):
        return {"kind": "un", "orlicz": _orlicz_to_json(lat.N)}
    raise TypeError(f"unknown lattice spec {lat!r}")
