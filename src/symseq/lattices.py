"""Weighted lattices derived from symmetric spaces via dyadic blocks.

``EX(base)`` carries the norm ||a||_E = ||S a||_X where S spreads coordinate
k over the dyadic block [2^(k-1), 2^k - 1]; its unit vector norms are the
fundamental function of the base at dyadic arguments, s_k = phi_X(2^(k-1)).
``WeightedLq`` is the plain weighted l_q lattice, and ``UN(N)`` is the
weighted Orlicz lattice with block cardinalities 2^(k-1) as weights; these
are the concrete models to which EX of a Lorentz or Orlicz base is
equivalent, with explicit constants checked by ``dyadic_equivalence_report``.
Every lattice is a closed form of plain numbers that a JSON descriptor names
(see README), so it compares by value and survives a JSON round trip.

Shift operators on these lattices have norms governed by the unit-norm
ratios; ``shift_exponents`` estimates the limits k_plus/k_minus of
||tau_{+-n}||^(1/n), which bracket all approximate eigenvalues of the shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._limits import RateEstimate, _ratio_sups, estimate_rate
from .spaces import (
    Lorentz,
    Lp,
    LpQ,
    Orlicz,
    OrliczFn,
    SpaceSpec,
    WeightSeq,
    _PHI_LOG2_MAX,
    _PHI_RULE,
    _SUM_BITS,
    _distinct,
    _json_float,
    _luxemburg,
    _orlicz_from_json,
    _orlicz_phi,
    _orlicz_to_json,
    _weight_sums,
    _weights_from_json,
    fundamental_function,
    norm,
    power_weights,
    space_from_json,
    space_to_json,
)

__all__ = [
    "EX",
    "WeightedLq",
    "UN",
    "LatticeSpec",
    "lattice_norm",
    "unit_norms",
    "ShiftExponents",
    "shift_exponents",
    "sandwich_ratio",
    "EquivalenceReport",
    "dyadic_equivalence_report",
    "random_decreasing",
    "lattice_from_json",
    "lattice_to_json",
]


@dataclass(frozen=True)
class EX:
    """Block lattice of a symmetric space, ||a||_E = ||S a||_X; ``lattice_norm``
    takes it in closed form on every base and never materializes S a."""

    base: SpaceSpec


@dataclass(frozen=True)
class WeightedLq:
    """l_q with positive weights mu_k, k >= 1: exactly one of three JSON forms.

    ``ratio`` (geometric) mu_k = r^(k-1); ``values`` (array) mu_k for
    k <= len(values) only; ``theta`` (lorentz_blocks) mu_k = 2^((k-1)/q)
    (2^(k-1))^(-theta).  Equality and hashing are by value.  Construction
    probes mu_1, mu_2, so a short table still builds; ``weights`` checks
    the rest where a norm reads them.
    """

    q: float
    ratio: float | None = None
    values: tuple[float, ...] | None = None
    theta: float | None = None

    def __post_init__(self):
        forms = (self.ratio, self.values, self.theta)
        if any(map(callable, (self.q, *forms))):
            raise TypeError("WeightedLq takes q and one of ratio, values and theta, not a callable")
        if sum(v is not None for v in forms) != 1:
            raise ValueError("WeightedLq needs exactly one of ratio, values and theta")
        if self.ratio is not None and not 0.0 < self.ratio < math.inf:
            raise ValueError("geometric weights need ratio > 0")
        if self.values is not None:
            object.__setattr__(self, "values", tuple(map(float, self.values)))
            if len(self.values) < 2:
                raise ValueError('array weights need "values" with at least 2 entries')
        if self.theta is not None:
            power_weights(self.theta)  # theta >= 0, positive through k = 2^20 + 1
        if not (1.0 <= self.q < math.inf):
            raise ValueError("WeightedLq needs q in [1, inf)")
        # probe only k = 1, 2 so finite weight tables stay constructible;
        # the weights past them are checked where a norm reads them
        self.weights(2)

    @staticmethod
    def lorentz_blocks(q: float, w: WeightSeq) -> "WeightedLq":
        """The EX(Lorentz(q, w)) model mu_k = 2^((k-1)/q) w(2^(k-1)); w must be power weights."""
        if w.theta is None:
            raise ValueError('wlq weights form "lorentz_blocks" reads w(2^(k-1)) at every '
                             'block k, so it needs "power" weights, not "array"')
        return WeightedLq(q, theta=w.theta)

    def weights(self, n: int) -> np.ndarray:
        """mu_1..mu_n; one that overflows, underflows to 0 or is not positive
        is refused with the constructor's message, never used."""
        k = np.arange(1.0, n + 1.0)
        with np.errstate(all="ignore"):
            if self.ratio is not None:
                mu = self.ratio ** (k - 1.0)
            elif self.values is not None:
                if n > len(self.values):
                    raise ValueError(f"array weights cover only k <= {len(self.values)}")
                mu = np.asarray(self.values[:n], dtype=float)
            else:
                mu = 2.0 ** ((k - 1.0) / self.q) * np.power(2.0 ** (k - 1.0), -self.theta)
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise ValueError("weights mu must be finite and positive")
        return mu


@dataclass(frozen=True)
class UN:
    """Orlicz lattice with dyadic block cardinalities as modular weights."""

    N: OrliczFn


LatticeSpec = Union[EX, WeightedLq, UN]


def _ex_norm_lp(p: float, rows: np.ndarray) -> np.ndarray:
    """||S a||_p of each row in closed form: block k adds a_k^p 2^(k-1).

    The sum runs in the log domain, scaled by the row max: the block sizes
    overflow past k ~ 1023.  A row sums its nonzero entries alone (zeros
    would regroup the pairwise sum), and rows with equally many share one
    array pass.  The closing 2^(m/p) s^(1/p) is scalar pow, row by row:
    array pow rounds an ulp away from it on some inputs.  s >= 1, so a row
    whose 2^(m/p) passes the float range has norm inf.
    """
    if p == math.inf:
        return rows.max(axis=1, initial=0.0)
    live = rows > 0.0
    counts = np.add.reduce(live, axis=1)
    out = np.zeros(rows.shape[0])
    for c in set(counts.tolist()) - {0}:
        sel = counts == c
        if c == rows.shape[1]:  # rows free of zeros need no compacting
            v, k = rows[sel], np.arange(c)
        else:
            i, k = np.nonzero(live & sel[:, None])
            v, k = rows[i, k].reshape(-1, c), k.reshape(-1, c)
        logs = p * np.log2(v) + k
        m = logs.max(axis=1)
        s = np.add.reduce(2.0 ** (logs - m[:, None]), axis=1)
        out[sel] = [2.0 ** (mi / p) * si ** (1.0 / p) if mi / p < 1024.0 else math.inf
                    for mi, si in zip(m.tolist(), s.tolist())]
    return out


def _ex_norm_sorted(base: LpQ | Lorentz, rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """||S a|| of each row for a Lorentz or l^{p,q} base, in closed form.

    Block k holds 2^(k-1) entries, so S a sorted runs through the sorted
    row, c_1 >= c_2 >= ..., run i ending at P_i < 2^63: the norm is (sum c_i^q
    (W(P_i) - W(P_{i-1})))^(1/q), or max c_i P_i^(1/p) for q = inf.  Rows
    are scaled by their maxima m as in ``_descending``, and all of them
    share one ``_weight_sums`` call.  The sum is below 2^q W(P_last), so
    past q + log2 W(P_last) > 1023 (``spaces._SUM_BITS``) each row is
    scaled by its max itself and c <= 1.
    """
    if rows.shape[1] > 63:
        raise ValueError("EX norm needs at most 63 blocks (run ends below 2^63)")
    order = np.argsort(-rows, axis=1, kind="stable")
    scale = np.ldexp(1.0, np.frexp(m)[1] - 1)
    c = np.take_along_axis(rows, order, axis=1) / scale[:, None]
    ends = np.cumsum(np.left_shift(1, order), axis=1)
    if base.q == math.inf:
        return scale * np.max(c * ends ** (1.0 / base.p), axis=1, initial=0.0)
    live = c > 0.0  # zeros sort last and add nothing
    pts = _distinct(ends[live])
    w = np.zeros(c.shape)
    sums = _weight_sums(base, pts)  # increasing, so W(P_last) = sums[-1]
    w[live] = sums[np.searchsorted(pts, ends[live])]
    if sums.size and base.q + math.log2(sums[-1]) > _SUM_BITS:
        top = np.where(m > 0.0, m / scale, 1.0)  # c[:, 0], or 1 on a zero row
        c, scale = c / top[:, None], scale * top
    s = np.sum(c**base.q * np.diff(w, axis=1, prepend=0.0), axis=1)
    return scale * s ** (1.0 / base.q)


# 2^(k-1), k = 1..64: the dyadic block cardinalities
_BLOCK_SIZES = 2.0 ** np.arange(64)


def _ex_norm_orlicz(N: OrliczFn, rows: np.ndarray, m: np.ndarray) -> list:
    """||S a|| of each row for an Orlicz base: block k holds 2^(k-1) equal
    entries, so the modular of S a weights a_k by 2^(k-1) (the UN norm).
    One Luxemburg solve per row, handed its max from m."""
    if rows.shape[1] > 64:
        raise ValueError("UN norm supports at most 64 coordinates")
    w = _BLOCK_SIZES[: rows.shape[1]]
    return [_luxemburg(N, rows[i], w, mi) for i, mi in enumerate(m.tolist())]


def lattice_norm(lat: LatticeSpec, a):
    """Norm of the coordinate vector a in the lattice.

    |a| is read once, as C-contiguous rows along its last axis: a vector or
    a scalar gives a float, a stack one norm per row (shape a.shape[:-1]),
    each bit-identical to its 1-D call.  The row maxima m are taken once.
    Each family takes all rows in one kernel: closed forms for EX over l^p,
    l^{p,q} and Lorentz and for WeightedLq, one Luxemburg root per row for
    Orlicz and UN.  NaN or inf anywhere raises ValueError: max propagates
    NaN, so one max of m tests all.
    """
    arr = np.abs(np.asarray(a, dtype=float, order="C"))
    rows = arr.reshape(1, -1) if arr.ndim < 2 else arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1])
    m = np.maximum.reduce(rows, axis=1, initial=0.0)
    if m.size and not math.isfinite(np.maximum.reduce(m)):
        raise ValueError("norm input must be finite")
    # UN(N) is EX(Orlicz(N)), so a UN stands for its own Orlicz base
    base = lat.base if isinstance(lat, EX) else lat if isinstance(lat, UN) else None
    if isinstance(base, Lp):
        out = _ex_norm_lp(base.p, rows)
    elif isinstance(base, (LpQ, Lorentz)):
        with np.errstate(over="ignore"):  # the closing scale * ... is inf past the float range
            out = _ex_norm_sorted(base, rows, m)
    elif isinstance(base, (Orlicz, UN)):
        out = _ex_norm_orlicz(base.N, rows, m)
    elif isinstance(lat, WeightedLq):
        # each row of mu |a| is scaled as in _descending before the power,
        # so no term over- or underflows where the norm is representable (inf
        # past it); past the spaces._SUM_BITS rule, by its max as in _max_scaled
        with np.errstate(over="ignore"):
            v = rows * lat.weights(rows.shape[1])
            top = v.max(axis=1, initial=0.0)
            if lat.q + 63.0 > _SUM_BITS and lat.q + math.log2(max(v.shape[1], 1)) > _SUM_BITS:
                scale = np.where((top > 0.0) & (top < math.inf), top, 1.0)
            else:
                scale = np.ldexp(1.0, np.frexp(top)[1] - 1)
            s = np.add.reduce((v / scale[:, None]) ** lat.q, axis=1)
        out = [c * t ** (1.0 / lat.q) for c, t in zip(scale.tolist(), s.tolist())]
    else:
        raise TypeError(f"unknown lattice spec {lat!r}")
    return float(out[0]) if arr.ndim < 2 else np.reshape(out, arr.shape[:-1])


def unit_norms(lat: LatticeSpec, k_max: int) -> np.ndarray:
    """s_k = ||e_k|| for k = 1..k_max: phi(2^(k-1)) of an EX base, mu_k on
    WeightedLq.  UN(N) is EX(Orlicz(N)), where s_k is the moment root
    ``spaces._orlicz_phi``, bit-identical to the UN norm of e_k; it takes
    k_max <= 997, the Orlicz phi range, checked before any solve.  On a
    Lorentz or finite-q l^{p,q} base phi(2^(k-1)) = W(2^(k-1))^(1/q) is a
    weight partial sum, all k_max of them from one ``_weight_sums`` call; it
    takes k_max <= 63, the 63-block cap of ``_ex_norm_sorted``, so the
    positions stay below 2^63."""
    if k_max < 1:
        raise ValueError("unit_norms needs k_max >= 1")
    base = lat.base if isinstance(lat, EX) else lat if isinstance(lat, UN) else None
    if isinstance(base, (LpQ, Lorentz)) and base.q != math.inf:
        if k_max > 63:
            raise ValueError(f"unit_norms on a Lorentz or l^{{p,q}} base needs k_max <= 63, "
                             f"got {k_max}: the 63-block cap of _ex_norm_sorted (positions below 2^63)")
        # fundamental_function's scalar pow per entry: array pow can round apart
        sums = _weight_sums(base, np.left_shift(1, np.arange(k_max)))
        return np.array([float(s ** (1.0 / base.q)) for s in sums])
    if isinstance(base, (Orlicz, UN)):
        if k_max > _PHI_LOG2_MAX + 1:
            raise ValueError(f"unit_norms on an Orlicz base needs k_max <= {_PHI_LOG2_MAX + 1}, "
                             f"got {k_max}: s_k = phi(2^(k-1)), and {_PHI_RULE}")
        return np.array([_orlicz_phi(base.N, math.ldexp(1.0, k)) for k in range(k_max)])
    if isinstance(lat, EX):
        return np.array([fundamental_function(lat.base, 1 << k) for k in range(k_max)])
    if isinstance(lat, WeightedLq):
        return lat.weights(k_max)
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
    ||tau_-n|| = sup_k s_k/s_{k+n}.  EX over a Lorentz or finite-q l^{p,q}
    base needs k_max <= 63, the 63-block cap of ``_ex_norm_sorted``, which
    ``unit_norms`` enforces; the default 64 serves the other lattices.
    """
    if n_max < 2 or k_max <= n_max:
        raise ValueError("shift_exponents needs n_max >= 2 and k_max > n_max")
    up, down = _ratio_sups(np.log2(unit_norms(lat, k_max)), n_max)
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


def _dyadic_samples(v: np.ndarray) -> np.ndarray:
    """(v_{2^k})_k, 1-based, for every 2^k <= len(v)."""
    return v[(1 << np.arange(v.size.bit_length())) - 1]


def sandwich_ratio(base: SpaceSpec, x) -> float:
    """||sum_k x*_{2^k} e_{k+1}||_EX divided by ||x||_base; lies in [1, 5].

    The lower bound is domination of x* by the block-spread dyadic samples;
    the upper bound costs one triangle inequality and two dyadic dilations.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sandwich_ratio input must be finite")
    support = np.flatnonzero(arr)
    if support.size == 0:
        raise ValueError("sandwich_ratio needs a nonzero vector")
    # trailing zeros are not coordinates: they would add dyadic samples of 0
    star = np.sort(np.abs(arr[: support[-1] + 1]))[::-1]
    return lattice_norm(EX(base), _dyadic_samples(star)) / norm(base, star)


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
    space: Lorentz | Orlicz, *, trials: int = 200, max_len: int = 4096, seed: int = 7
) -> EquivalenceReport:
    """Compare ||x|| with the lattice norm of its dyadic samples (x*_{2^k})_k.

    Lorentz(q, w): rhs in ``WeightedLq.lorentz_blocks(q, w)``, which refuses
    array weights before any draw; the modular chain gives rhs/lhs in
    [1, 4^(1/q)].  Orlicz(N): rhs in UN(N); the chain gives rhs/lhs in
    [1, 4].  Other spaces raise TypeError.
    """
    if isinstance(space, Lorentz):
        lat: LatticeSpec = WeightedLq.lorentz_blocks(space.q, space.w)
        kind, bound_hi = "lorentz", 4.0 ** (1.0 / space.q)
    elif isinstance(space, Orlicz):
        lat, kind, bound_hi = UN(space.N), "orlicz", 4.0
    else:
        raise TypeError(f"dyadic equivalence models Lorentz and Orlicz spaces, not {space!r}")
    if trials < 1:
        raise ValueError(f"dyadic_equivalence_report needs trials >= 1, got {trials}")
    if max_len < 2:
        raise ValueError(f"dyadic_equivalence_report needs max_len >= 2, got {max_len}")
    rng = np.random.default_rng(seed)
    lo, hi = math.inf, 0.0
    for _ in range(trials):
        size = int(rng.integers(2, max_len + 1))
        x = random_decreasing(rng, size)
        r = lattice_norm(lat, _dyadic_samples(x)) / norm(space, x)
        lo, hi = min(lo, r), max(hi, r)
    return EquivalenceReport(
        kind=kind,
        trials=trials,
        ratio_min=float(lo),
        ratio_max=float(hi),
        bound_lo=1.0,
        bound_hi=bound_hi,
        max_len=max_len,
        seed=seed,
    )


# JSON descriptors ------------------------------------------------------------


def lattice_from_json(obj) -> LatticeSpec:
    """Build a lattice from a parsed JSON object (see README for the schema)."""
    if not isinstance(obj, dict):
        raise ValueError("lattice descriptor must be a JSON object")
    kind = obj.get("kind")
    if kind == "ex":
        return EX(base=space_from_json(obj["base"]))
    if kind == "wlq":
        q, w = _json_float(obj["q"], "q"), obj["weights"]
        if not isinstance(w, dict) or "form" not in w:
            raise ValueError('wlq weights must be {"form": ...}')
        if w["form"] == "geometric":
            return WeightedLq(q, ratio=_json_float(w["ratio"], "ratio"))
        if w["form"] == "array":
            vals = w.get("values")
            if not isinstance(vals, list):
                raise ValueError('array weights need "values" with at least 2 entries')
            return WeightedLq(q, values=[_json_float(v, f"values[{i}]") for i, v in enumerate(vals)])
        if w["form"] == "lorentz_blocks":
            return WeightedLq.lorentz_blocks(q, _weights_from_json(w.get("weights")))
        raise ValueError(f"unknown wlq weights form {w['form']!r}")
    if kind == "un":
        return UN(N=_orlicz_from_json(obj["orlicz"]))
    raise KeyError(f"unknown lattice kind {kind!r}")


def lattice_to_json(lat: LatticeSpec) -> dict:
    if isinstance(lat, EX):
        return {"kind": "ex", "base": space_to_json(lat.base)}
    if isinstance(lat, WeightedLq):
        weights = ({"form": "geometric", "ratio": lat.ratio} if lat.ratio is not None
                   else {"form": "array", "values": list(lat.values)} if lat.values is not None
                   else {"form": "lorentz_blocks", "weights": {"form": "power", "theta": lat.theta}})
        return {"kind": "wlq", "q": lat.q, "weights": weights}
    if isinstance(lat, UN):
        return {"kind": "un", "orlicz": _orlicz_to_json(lat.N)}
    raise TypeError(f"unknown lattice spec {lat!r}")
