"""Symmetric sequence space descriptions and their norms.

Four families are supported, all rearrangement invariant:

* ``Lp(p)``            -- (sum |x_k|^p)^(1/p), max |x_k| for p = infinity;
* ``LpQ(p, q)``        -- (sum (x*_k)^q k^(q/p-1))^(1/q), a quasi-norm when
                          q > p (no renorming is applied);
* ``Lorentz(q, w)``    -- (sum (x*_k w_k)^q)^(1/q) for a nonincreasing
                          positive weight w;
* ``Orlicz(N)``        -- the Luxemburg norm inf{u > 0 : sum N(|x_k|/u) <= 1}
                          for a normalized convex Orlicz function N.

Here x* denotes the decreasing rearrangement.  Every norm evaluates the
rearrangement first, so permutation invariance is exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .seq import Seq

__all__ = [
    "WeightSeq",
    "power_weights",
    "OrliczFn",
    "Lp",
    "LpQ",
    "Lorentz",
    "Orlicz",
    "SpaceSpec",
    "norm",
    "fundamental_function",
    "orlicz_inverse",
    "delta2_margin",
    "space_to_json",
    "space_from_json",
]

# Probe used to validate weight monotonicity cheaply: dense small indices
# plus powers of two with neighbors up to 2**20.
_WEIGHT_PROBE = np.unique(
    np.concatenate(
        [
            np.arange(1, 65, dtype=np.int64),
            2 ** np.arange(0, 21, dtype=np.int64),
            2 ** np.arange(1, 21, dtype=np.int64) - 1,
            2 ** np.arange(1, 21, dtype=np.int64) + 1,
        ]
    )
)


@dataclass(frozen=True)
class WeightSeq:
    """Weight sequence, generator-backed or an explicit finite array.

    The generator form takes a vectorized callable mapping an integer index
    array (1-based) to weights and supports arbitrarily large indices; the
    array form is restricted to norm evaluation within its length, and
    index-estimation routines reject it.
    """

    kind: str  # "generator" | "array"
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    data: tuple[float, ...] | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind == "generator":
            if self.fn is None:
                raise ValueError("generator WeightSeq needs a callable")
            probe = self.values_at(_WEIGHT_PROBE.astype(float))
        elif self.kind == "array":
            if not self.data:
                raise ValueError("array WeightSeq needs at least one value")
            probe = np.asarray(self.data, dtype=float)
        else:
            raise ValueError(f"unknown WeightSeq kind {self.kind!r}")
        if not np.all(np.isfinite(probe)) or np.any(probe <= 0.0):
            raise ValueError("weights must be finite and positive")
        # Spot check: nonincreasing within floating-point slack.
        if np.any(np.diff(probe) > 1e-12 * probe[:-1]):
            raise ValueError("weights must be nonincreasing")

    def __len__(self) -> int:
        if self.kind != "array":
            raise TypeError("generator-backed WeightSeq has no length")
        return len(self.data)

    def values(self, n: int) -> np.ndarray:
        """First n weights w_1..w_n."""
        if self.kind == "array":
            if n > len(self.data):
                raise ValueError(
                    f"array-backed weights of length {len(self.data)} cannot "
                    f"serve index {n}; use a generator-backed WeightSeq"
                )
            return np.asarray(self.data[:n], dtype=float)
        return self.values_at(np.arange(1, n + 1, dtype=float))

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        """Weights at the given (possibly huge) 1-based float indices."""
        if self.kind != "generator":
            raise ValueError(
                "index-estimation routines need a generator-backed WeightSeq"
            )
        out = np.asarray(self.fn(np.asarray(idx, dtype=float)), dtype=float)
        if out.shape != np.shape(idx):
            raise ValueError("weight generator must be vectorized")
        return out


def power_weights(theta: float) -> WeightSeq:
    """w_k = k^(-theta); nonincreasing for theta >= 0."""
    if not 0.0 <= theta:
        raise ValueError("power weights need theta >= 0")
    return WeightSeq(
        kind="generator",
        fn=lambda k, theta=theta: np.power(k, -theta),
        label=f"power:{theta}",
    )


_ORLICZ_GRID = np.geomspace(1e-9, 1.0, 1024)


@dataclass(frozen=True)
class OrliczFn:
    """Normalized Orlicz function: N(0) = 0, N convex nondecreasing, N(1) = 1.

    The callable must be numpy-vectorized.  Construction probes a fixed
    1024-point geometric grid on [1e-9, 1] for monotonicity and midpoint
    convexity and aborts on any violation; this is a spot check, not a proof,
    and it keeps malformed profiles out of every downstream computation.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __post_init__(self):
        v0 = float(self.fn(np.array([0.0]))[0])
        if v0 != 0.0:
            raise ValueError("Orlicz function must satisfy N(0) = 0")
        g = _ORLICZ_GRID
        vals = self(g)
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise ValueError("Orlicz function must be finite and nonnegative")
        if np.any(np.diff(vals) < -1e-15 * vals[1:]):
            raise ValueError("Orlicz function must be nondecreasing")
        if abs(float(self(np.array([1.0]))[0]) - 1.0) > 1e-12:
            raise ValueError("Orlicz function must be normalized to N(1) = 1")
        mid = self((g[:-1] + g[1:]) / 2.0)
        bound = (vals[:-1] + vals[1:]) / 2.0
        if np.any(mid > bound + 1e-12 * np.maximum(1.0, bound)):
            raise ValueError("Orlicz function failed midpoint convexity probe")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)

    @staticmethod
    def power(p: float) -> "OrliczFn":
        """N(t) = t^p, p >= 1."""
        if p < 1.0:
            raise ValueError("power Orlicz profile needs p >= 1")
        return OrliczFn(
            fn=lambda t, p=p: np.power(t, p), label=f"power:{p}"
        )

    @staticmethod
    def power_log(p: float, a: float) -> "OrliczFn":
        """N(t) = t^p (1 + a |ln t|); already N(1) = 1.

        Convex on (0, 1] only for a <= p(p-1)/(2p-1); the constructor's grid
        probe rejects anything beyond that.
        """

        def f(t: np.ndarray, p=p, a=a) -> np.ndarray:
            t = np.asarray(t, dtype=float)
            out = np.zeros_like(t)
            pos = t > 0.0
            tp = t[pos]
            out[pos] = tp**p * (1.0 + a * np.abs(np.log(tp)))
            return out

        return OrliczFn(fn=f, label=f"power_log:{p}:{a}")


@dataclass(frozen=True)
class Lp:
    p: float

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"Lp needs p in [1, inf], got {self.p}")


@dataclass(frozen=True)
class LpQ:
    p: float
    q: float

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"LpQ needs p in (1, inf), got p={self.p}")
        if not (self.q >= 1.0):
            raise ValueError(f"LpQ needs q in [1, inf], got q={self.q}")

    @property
    def quasi(self) -> bool:
        """True when q > p: the functional is only a quasi-norm."""
        return self.q > self.p


@dataclass(frozen=True)
class Lorentz:
    q: float
    w: WeightSeq

    def __post_init__(self):
        if not (1.0 <= self.q < math.inf):
            raise ValueError(f"Lorentz needs q in [1, inf), got {self.q}")


@dataclass(frozen=True)
class Orlicz:
    N: OrliczFn


SpaceSpec = Union[Lp, LpQ, Lorentz, Orlicz]


def _descending(x) -> np.ndarray:
    if isinstance(x, Seq):
        arr = x.array
    else:
        arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr
    if not np.all(np.isfinite(arr)):
        raise ValueError("norm input must be finite")
    out = np.sort(np.abs(arr))[::-1]
    nz = np.nonzero(out)[0]
    return out[: nz[-1] + 1] if nz.size else out[:0]


# Relative distance a step keeps from either end of a bracket; the solver
# stops once a bracket is at most twice this wide.
_ROOT_TOL = 4.0 * np.finfo(float).eps


def _bracketed_root(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Solve f(t) = 0 for each entry, returning the admissible end of its bracket.

    f maps positive t to a residual, one independent equation per entry,
    that increases with t and is nonnegative exactly where t is admissible;
    lo and hi are positive and every hi is admissible by construction.  Each
    pass takes an Illinois regula falsi step (Dowell & Jarratt 1971) in
    log t, where power-type residuals are nearly linear, measured from the
    nearer end so that rounding cannot carry it out of the bracket.  A
    non-finite residual or bracket width falls back to the geometric
    midpoint, and every step keeps a relative distance of _ROOT_TOL from
    both ends so that one-sided convergence cannot stall.
    """
    # non-finite residuals (log 0, overflow in N) are expected and handled
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        flo = f(lo)
        fhi = np.maximum(f(hi), 0.0)
        hi = np.where(flo >= 0.0, lo, hi)
        was_up = was_down = np.zeros(hi.shape, dtype=bool)
        for _ in range(200):
            live = hi - lo > 2.0 * _ROOT_TOL * hi
            if not live.any():
                break
            w = np.log(hi / lo)
            d_lo = w * flo / (flo - fhi)  # secant point is lo e^d_lo = hi e^-d_hi
            d_hi = w * fhi / (fhi - flo)
            t = np.where(d_lo < d_hi, lo * np.exp(d_lo), hi * np.exp(-d_hi))
            t = np.where(np.isfinite(d_lo + d_hi), t, np.sqrt(lo) * np.sqrt(hi))
            t = np.minimum(np.maximum(t, lo * (1.0 + _ROOT_TOL)), hi * (1.0 - _ROOT_TOL))
            ft = f(t)
            up = live & (ft >= 0.0)
            down = live ^ up
            # Illinois: an end kept twice in a row has its residual halved
            flo = np.where(up & was_up, 0.5 * flo, np.where(down, ft, flo))
            fhi = np.where(down & was_down, 0.5 * fhi, np.where(up, ft, fhi))
            lo = np.where(down, t, lo)
            hi = np.where(up, t, hi)
            was_up, was_down = up, down
    return hi


def _luxemburg(N: OrliczFn, a: np.ndarray, weights: np.ndarray | None = None) -> float:
    """inf{u > 0 : sum_k w_k N(a_k / u) <= 1} for nonnegative a, weights w_k >= 1.

    The weights default to 1 (the Orlicz norm); ``UN`` passes 2^(k-1).  With
    m = max(a) and b = a/m the norm is m v for v in [1, sum w_k b_k]: v < 1
    gives N(1/v) > 1 at the largest coordinate, and v = sum w_k b_k is
    admissible because convexity gives N(t) <= t on [0, 1].
    """
    m = float(a.max()) if a.size else 0.0
    if m == 0.0:
        return 0.0
    b = a / m
    w = 1.0 if weights is None else weights

    def residual(v: np.ndarray) -> np.ndarray:
        return -np.log(np.sum(w * N(b / v[:, None]), axis=1))

    return m * float(_bracketed_root(residual, np.ones(1), np.array([np.sum(w * b)]))[0])


def norm(space: SpaceSpec, x) -> float:
    """Norm of x in the given space (quasi-norm for LpQ with q > p)."""
    a = _descending(x)
    if a.size == 0:
        return 0.0
    if isinstance(space, Lp):
        if space.p == math.inf:
            return float(a[0])
        return float(np.sum(a ** space.p) ** (1.0 / space.p))
    if isinstance(space, LpQ):
        k = np.arange(1, a.size + 1, dtype=float)
        if space.q == math.inf:
            return float(np.max(a * k ** (1.0 / space.p)))
        s = np.sum(a ** space.q * k ** (space.q / space.p - 1.0))
        return float(s ** (1.0 / space.q))
    if isinstance(space, Lorentz):
        w = space.w.values(a.size)
        return float(np.sum((a * w) ** space.q) ** (1.0 / space.q))
    if isinstance(space, Orlicz):
        return _luxemburg(space.N, a)
    raise TypeError(f"unknown space spec {space!r}")


def orlicz_inverse(N: OrliczFn, s: float) -> float:
    """t >= 0 with N(t) = s: a t with N(t) >= s, within ~1e-15 relative of
    the least one.

    That implies the absolute guarantee |N(t) - s| <= 1e-13 max(1, s).
    """
    if s < 0.0 or not math.isfinite(s):
        raise ValueError("orlicz_inverse needs finite s >= 0")
    if s == 0.0:
        return 0.0
    return float(_orlicz_inverse_vec(N, np.array([s]))[0])


def _orlicz_inverse_vec(N: OrliczFn, s: np.ndarray) -> np.ndarray:
    """N^{-1}(s) for positive s, elementwise.

    Normalized convex N has N(t) <= t on [0, 1] and N(t) >= t beyond, so the
    inverse lies between s and 1.
    """
    s = np.asarray(s, dtype=float)

    def residual(t: np.ndarray) -> np.ndarray:
        return np.log(N(t) / s)

    return _bracketed_root(residual, np.minimum(s, 1.0), np.maximum(s, 1.0))


def fundamental_function(space: SpaceSpec, n: int) -> float:
    """phi(n) = norm of the indicator of {1..n}; closed forms per family."""
    if n < 1:
        raise ValueError("fundamental_function needs n >= 1")
    if isinstance(space, Lp):
        return 1.0 if space.p == math.inf else float(n) ** (1.0 / space.p)
    if isinstance(space, LpQ):
        if space.q == math.inf:
            return float(n) ** (1.0 / space.p)
        k = np.arange(1, n + 1, dtype=float)
        s = np.sum(k ** (space.q / space.p - 1.0))
        return float(s ** (1.0 / space.q))
    if isinstance(space, Lorentz):
        w = space.w.values(n)
        return float(np.sum(w ** space.q) ** (1.0 / space.q))
    if isinstance(space, Orlicz):
        return 1.0 / orlicz_inverse(space.N, 1.0 / n)
    raise TypeError(f"unknown space spec {space!r}")


def delta2_margin(N: OrliczFn, u_min: float, samples: int = 256) -> float:
    """max N(2u)/N(u) over a log grid on [u_min, 1/2].

    A bounded value as u_min -> 0 witnesses the doubling condition at zero
    (hence separability of the Orlicz sequence space); blow-up witnesses its
    failure.
    """
    if not (0.0 < u_min <= 0.5):
        raise ValueError("delta2_margin needs 0 < u_min <= 1/2")
    u = np.geomspace(u_min, 0.5, samples)
    vals = N(u)
    if np.any(vals == 0.0):
        raise ValueError("N vanished on the probe grid")
    return float(np.max(N(2.0 * u) / vals))


# JSON descriptors ----------------------------------------------------------

def _weights_from_json(obj) -> WeightSeq:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ValueError('weights must be {"form": ...}')
    form = obj["form"]
    if form == "power":
        return power_weights(float(obj["theta"]))
    if form == "array":
        vals = obj.get("values")
        if not isinstance(vals, list) or not vals:
            raise ValueError('array weights need "values": [..]')
        return WeightSeq(kind="array", data=tuple(float(v) for v in vals))
    raise ValueError(f"unknown weights form {form!r}")


def _orlicz_from_json(obj) -> OrliczFn:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ValueError('orlicz must be {"form": ...}')
    form = obj["form"]
    if form == "power":
        return OrliczFn.power(float(obj["p"]))
    if form == "power_log":
        return OrliczFn.power_log(float(obj["p"]), float(obj["a"]))
    raise ValueError(f"unknown orlicz form {form!r}")


def space_from_json(obj) -> SpaceSpec:
    """Build a space from a parsed JSON object (see README for the schema)."""
    if not isinstance(obj, dict):
        raise ValueError("space descriptor must be a JSON object")
    kind = obj.get("kind")
    if kind == "lp":
        p = obj["p"]
        return Lp(math.inf if p in ("inf", "infinity") else float(p))
    if kind == "lpq":
        q = obj["q"]
        q = math.inf if q in ("inf", "infinity") else float(q)
        return LpQ(float(obj["p"]), q)
    if kind == "lorentz":
        return Lorentz(float(obj["q"]), _weights_from_json(obj["weights"]))
    if kind == "orlicz":
        return Orlicz(_orlicz_from_json(obj["orlicz"]))
    raise KeyError(f"unknown space kind {kind!r}")


def space_to_json(space: SpaceSpec) -> dict:
    if isinstance(space, Lp):
        return {"kind": "lp", "p": "inf" if space.p == math.inf else space.p}
    if isinstance(space, LpQ):
        return {
            "kind": "lpq",
            "p": space.p,
            "q": "inf" if space.q == math.inf else space.q,
        }
    if isinstance(space, Lorentz):
        w = space.w
        if w.kind == "array":
            weights = {"form": "array", "values": list(w.data)}
        elif w.label.startswith("power:"):
            weights = {"form": "power", "theta": float(w.label.split(":")[1])}
        else:
            raise ValueError("cannot serialize a custom weight generator")
        return {"kind": "lorentz", "q": space.q, "weights": weights}
    if isinstance(space, Orlicz):
        return {"kind": "orlicz", "orlicz": _orlicz_to_json(space.N)}
    raise TypeError(f"unknown space spec {space!r}")


def _orlicz_to_json(N: OrliczFn) -> dict:
    parts = N.label.split(":")
    if parts[0] == "power":
        return {"form": "power", "p": float(parts[1])}
    if parts[0] == "power_log":
        return {"form": "power_log", "p": float(parts[1]), "a": float(parts[2])}
    raise ValueError("cannot serialize a custom Orlicz callable")
