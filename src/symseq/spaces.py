"""Symmetric sequence space descriptions and their norms.

Four families are supported, all rearrangement invariant:

* ``Lp(p)``            -- (sum |x_k|^p)^(1/p), max |x_k| for p = infinity;
* ``LpQ(p, q)``        -- (sum (x*_k)^q k^(q/p-1))^(1/q), a quasi-norm when
                          q > p (no renorming is applied);
* ``Lorentz(q, w)``    -- (sum (x*_k w_k)^q)^(1/q) for a nonincreasing
                          positive weight w;
* ``Orlicz(N)``        -- the Luxemburg norm inf{u > 0 : sum N(|x_k|/u) <= 1}
                          for a normalized convex Orlicz function N.

Here x* denotes the decreasing rearrangement.  Only the l^{p,q} and Lorentz
norms weight x*_k by its position, so only they sort, and they are exactly
permutation invariant.  The l^p sum and the Orlicz modular read |x| in input
order, so a permutation moves them by rounding in the pairwise sums alone:
the tests bound it by 1e-15 relative.  The l^inf norm is a max and does not
move.

Every space is a closed form that a JSON descriptor names (see README):
weights are power weights k^(-theta) or a finite array (``WeightSeq``), and
an Orlicz function is N(t) = t^p (1 + a |ln t|) (``OrliczFn``), a = 0 for
t^p.  For that form the Luxemburg modular collapses to a scalar function of
two moments of the vector, so a norm is one vector pass and a scalar Newton
solve (``_moment_root``) and never evaluates N.  The fundamental function
phi(n) is the norm of an n-entry indicator, whose moments are n and 0, so
``fundamental_function`` solves it with the same kernel and no vector pass.

Partial sums W(n) of w_k^q (k^(q/p-1) for l^{p,q}) give phi(n) = W(n)^(1/q),
the index profiles and the Lorentz and l^{p,q} block-lattice norms; their one
producer ``_weight_sums`` sums pure powers in closed form (a head up to 2^12
and an Euler-Maclaurin tail) and array weights by a cumulative sum.  The
power tables k^s behind the Lorentz and l^{p,q} norms and that head depend
only on the space and are cached per exponent (``_powers``).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

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
    "space_to_json",
    "space_from_json",
]


# k^(-theta) must be a positive float through this index: past theta ~ 53.7
# it underflows to 0 there.
_POWER_TOP = float(2**20 + 1)


@dataclass(frozen=True)
class WeightSeq:
    """Nonincreasing positive weights: power weights k^(-theta) or a finite array.

    Exactly one of ``theta`` and ``data`` is set.  ``power_weights(theta)``
    serves every index, and ``_weight_sums`` sums k^(-theta q) in closed
    form; ``data = (w_1, ..., w_n)`` serves indices k <= n only, partial
    sums included.  Both hold plain numbers, so equality is by value.
    """

    theta: float | None = None
    data: tuple[float, ...] | None = None

    def __post_init__(self):
        if callable(self.theta) or callable(self.data):
            raise TypeError("WeightSeq takes theta or a tuple of values, not a callable")
        if (self.theta is None) == (self.data is None):
            raise ValueError("WeightSeq needs exactly one of theta and data")
        if self.theta is not None:
            theta = float(self.theta)
            if not 0.0 <= theta:
                raise ValueError("power weights need theta >= 0")
            if not np.power(_POWER_TOP, -theta) > 0.0:
                raise ValueError("weights must be finite and positive")
            object.__setattr__(self, "theta", theta)
            return
        data = tuple(float(v) for v in self.data)
        if not data:
            raise ValueError("array WeightSeq needs at least one value")
        probe = np.asarray(data)
        if not np.all(np.isfinite(probe)) or np.any(probe <= 0.0):
            raise ValueError("weights must be finite and positive")
        # nonincreasing within floating-point slack
        if np.any(np.diff(probe) > 1e-12 * probe[:-1]):
            raise ValueError("weights must be nonincreasing")
        object.__setattr__(self, "data", data)

    def values(self, n: int) -> np.ndarray:
        """First n weights w_1..w_n."""
        if self.theta is not None:
            return self.values_at(np.arange(1, n + 1, dtype=float))
        if n > len(self.data):
            raise ValueError(f"array weights hold {len(self.data)} values, but this request "
                             f"reads w_k at k = {n}; use power weights or a longer array")
        return np.asarray(self.data[:n], dtype=float)

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        """Power weights at the given (possibly huge) 1-based float indices;
        array weights are read only as a prefix, by ``values``."""
        if self.theta is None:
            raise ValueError(f"array weights ({len(self.data)} values) are read only as a prefix "
                             "w_1..w_n; this request reads scattered positions: use power weights")
        return np.power(np.asarray(idx, dtype=float), -self.theta)


def power_weights(theta: float) -> WeightSeq:
    """w_k = k^(-theta); nonincreasing for theta >= 0."""
    return WeightSeq(theta=theta)


@dataclass(frozen=True)
class OrliczFn:
    """Normalized Orlicz function N(t) = t^p (1 + a |ln t|), with N(0) = 0.

    ``power(p)`` builds t^p (a = 0) and ``power_log(p, a)`` the log-factor
    form; both are plain numbers, so equality is by value.  Construction
    needs finite p >= 1 and 0 <= a < p, so N'(t) = t^{p-1}(p - a + pa|ln t|)
    below t = 1 and t^{p-1}(p + a + pa ln t) above it are positive: N is
    finite, nonnegative and increasing.  N is convex exactly when a <=
    p(p-1)/(2p-1): below 1, N''(t) = t^{p-2}[(p-1)(p-a) - pa + p(p-1)a|ln t|]
    is smallest as t -> 1-; above 1, N'' > 0; and the kink at 1 is convex
    (N'(1-) = p - a <= p + a = N'(1+)).  The constructor checks that exact
    rule.  Its edge is the float quotient p*(p-1)/(2p-1): p - 1 and 2p - 1
    are exact and the product and the division round to nearest, so the
    edge is within two units in the last place of the exact bound (at p = 2
    it is 0.6666666666666666, the float 2/3, just below 2/3).  Luxemburg
    norms and the fundamental function come from moments of the vector (see
    ``_luxemburg``) without calling N.
    """

    p: float
    a: float = 0.0

    def __post_init__(self):
        if callable(self.p) or callable(self.a):
            raise TypeError("OrliczFn takes the numbers p and a, not a callable")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "a", float(self.a))
        if not (1.0 <= self.p < math.inf and 0.0 <= self.a < self.p):
            raise ValueError(f"OrliczFn needs a finite p >= 1 and 0 <= a < p, "
                             f"got p = {self.p!r}, a = {self.a!r}")
        a_max = self.p * (self.p - 1.0) / (2.0 * self.p - 1.0)
        if self.a > a_max:
            raise ValueError(f"t^p (1 + a |ln t|) fails convexity at p = {self.p!r}, a = {self.a!r}: "
                             f"it needs a <= p(p-1)/(2p-1) = {a_max!r}")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """N evaluated entrywise.  No kernel in the package calls it; the
        tests use it as the reference N, and the benchmark tracer
        (``perfbench/tracing.py``) wraps it to count evaluations."""
        t = np.asarray(t, dtype=float)
        if self.a == 0.0:
            return np.asarray(np.power(t, self.p), dtype=float)
        out = np.zeros_like(t)
        pos = t > 0.0
        tp = t[pos]
        out[pos] = tp**self.p * (1.0 + self.a * np.abs(np.log(tp)))
        return out

    @staticmethod
    def power(p: float) -> "OrliczFn":
        """N(t) = t^p, finite p >= 1 (t^inf is infinite past 1)."""
        return OrliczFn(p)

    @staticmethod
    def power_log(p: float, a: float) -> "OrliczFn":
        """N(t) = t^p (1 + a |ln t|); already N(1) = 1.

        Convex only for a <= p(p-1)/(2p-1); the constructor checks that
        exact rule and refuses anything beyond it.  p must be finite.
        """
        return OrliczFn(p, a)


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


def _magnitudes(x) -> tuple[np.ndarray, float]:
    """(|x|, max |x|): the input read once, in its own order, for the families
    whose norm does not depend on it (l^p and Orlicz).

    |x| is a fresh array.  np.maximum.reduce propagates NaN and inf, so one
    test of the max rejects any non-finite input; an empty x has max 0.0.
    Anything but a 1-D vector raises ValueError.
    """
    a = np.abs(np.asarray(x, dtype=float))
    if a.ndim != 1:
        raise ValueError(f"norm input must be a 1-D vector, got shape {a.shape}")
    m = float(np.maximum.reduce(a, initial=0.0))
    if not math.isfinite(m):
        raise ValueError("norm input must be finite")
    return a, m


def _descending(x) -> tuple[np.ndarray, float]:
    """(b, scale): |x| sorted nonincreasing, trailing zeros dropped, as b = |x| / scale.

    scale = 2^e with 2^e <= max|x| < 2^(e+1), so b lies in [0, 2): powers of
    b cannot overflow, and since dividing by a power of two is exact, norms
    computed on b and multiplied back by scale round exactly as the unscaled
    sums would wherever those are representable.  An entry far below the
    largest can underflow to 0.0 in b and then adds nothing.  Sorting puts
    NaN and inf in the last slot, so one test of that entry rejects any
    non-finite input.  Anything but a 1-D vector raises ValueError.

    b is a fresh C-contiguous array with a positive stride: the division by
    scale writes the reversed sort into it, so the power passes of the
    callers run on numpy's contiguous (SIMD) loops, not its strided ones.
    """
    out = np.abs(np.asarray(x, dtype=float))  # a fresh array: sorted in place
    if out.ndim != 1:
        raise ValueError(f"norm input must be a 1-D vector, got shape {out.shape}")
    out.sort()
    if out.size and not math.isfinite(out[-1]):
        raise ValueError("norm input must be finite")
    nz = np.count_nonzero(out)  # zeros sort first
    if nz == 0:
        return out[:0], 1.0
    scale = math.ldexp(1.0, math.frexp(out[-1])[1] - 1)
    return out[::-1][:nz] / scale, scale


# Tables of k^s, k = 1..n, one per exponent s: the power weights of Lorentz
# and l^{p,q} norms and the head of the power-sum kernel depend only on the
# space.  Each table is read-only and grows geometrically; the cache keeps the
# _TABLE_EXPONENTS exponents filled most recently, and requests longer than
# _TABLE_LEN entries (512 KiB) are computed per call.
_TABLE_EXPONENTS = 32
_TABLE_LEN = 1 << 16
_power_tables: dict[float, np.ndarray] = {}
_power_heads: dict[float, np.ndarray] = {}


def _keep(cache: dict, s: float, arr: np.ndarray) -> np.ndarray:
    """Store arr read-only under s, evicting the oldest exponent past the bound."""
    arr.flags.writeable = False
    cache.pop(s, None)
    if len(cache) >= _TABLE_EXPONENTS:
        del cache[next(iter(cache))]
    cache[s] = arr
    return arr


def _powers(s: float, n: int) -> np.ndarray:
    """k^s for k = 1..n, a read-only slice of the cached table for s."""
    table = _power_tables.get(s)
    if table is not None and table.size >= n:
        return table[:n]
    if n > _TABLE_LEN:
        return np.power(np.arange(1, n + 1, dtype=float), s)
    size = min(max(n, 0 if table is None else 2 * table.size), _TABLE_LEN)
    return _keep(_power_tables, s, np.power(np.arange(1, size + 1, dtype=float), s))[:n]


# A sum of n terms v^q with every v < 2 stays below 2^1023, and finite, while
# q + log2(n) <= _SUM_BITS: the power-of-two scale of ``_descending`` serves
# those sums.  Past the rule a norm scales by the largest term itself
# (``_max_scaled``).  Arrays hold n < 2^63 entries, so the rule holds at
# every length while q + 63 <= _SUM_BITS, and the norms test that first.
_SUM_BITS = 1023.0


def _max_scaled(v: np.ndarray, q: float, top: float) -> float:
    """(sum v_k^q)^(1/q) for v >= 0 with max v = top > 0, as top (sum
    (v_k/top)^q)^(1/q): the sum lies in [1, len v], so no term overflows
    and the largest one is exact, at any q."""
    return top * float(np.add.reduce((v / top) ** q) ** (1.0 / q))


# Newton in ln v stops once a step is at most this long.
_ROOT_TOL = 4.0 * np.finfo(float).eps
# v^p = e^(p ln v) stays finite while p ln v is at most this.
_LOG_FLOAT_MAX = 709.0


def _luxemburg(
    N: OrliczFn, a: np.ndarray, weights: np.ndarray | None = None, m: float | None = None
) -> float:
    """inf{u > 0 : sum_k w_k N(a_k / u) <= 1} for nonnegative a, weights w_k >= 1.

    The weights default to 1 (the Orlicz norm); ``UN`` passes 2^(k-1).  m is
    max(a), taken here unless the caller has it (``norm`` and
    ``lattices.lattice_norm`` do).  With b = a/m, divided once, the norm is
    m v for v in [1, sum w_k b_k]: v < 1 gives N(1/v) > 1 at the largest
    coordinate, and v = sum w_k b_k is admissible because convexity gives
    N(t) <= t on [0, 1].  The returned v is admissible (the modular at it
    is at most 1 up to rounding) and within a few _ROOT_TOL of the least
    admissible v.  The sums run over a in the order given, so no
    rearrangement is needed.

    For N(t) = t^p (1 + a |ln t|), b <= 1 <= v gives |ln(b/v)| = ln v - ln b,
    so the modular is v^-p (A + B ln v) with S0 = sum w b^p,
    S1 = sum w b^p ln b <= 0, A = S0 - a S1 >= 1, B = a S0; ``_moment_root``
    solves it without evaluating N.  For t^p (a = 0), A = S0 - 0 S1 = S0 and
    B = 0 exactly, so S1 and its logarithm are not taken.  Zeros of b (zero
    coordinates, or entries that underflow in a/m) are compacted out of the
    sums only when there are any, so a zero-free b and the same b with zeros
    give bit-identical sums.  Takes finite a, as ``norm`` and
    ``lattices.lattice_norm`` check it.
    """
    if m is None:
        m = float(np.maximum.reduce(a, initial=0.0))
    if m == 0.0:
        return 0.0
    b = a / m
    w = weights
    if np.count_nonzero(b) < b.size:
        pos = b > 0.0
        b = b[pos]
        if weights is not None:
            w = w[pos]
    wbp = b**N.p if weights is None else w * b**N.p
    s0 = float(np.add.reduce(wbp))
    if N.a == 0.0:
        return m * _moment_root(N.p, s0, 0.0)
    s1 = float(np.dot(wbp, np.log(b)))
    return m * _moment_root(N.p, s0 - N.a * s1, N.a * s0)


def _moment_root(p: float, A: float, B: float) -> float:
    """Least v >= 1 with A + B ln v <= v^p, to within a few _ROOT_TOL and on
    the admissible side, for A >= 1, B >= 0 and B < p A.

    Newton on h(s) = ln(A + B s) - p s in s = ln v, from s = 0: h(0) = ln A
    >= 0, h' <= B/A - p < 0 and h is concave, so the first step lands on the
    admissible side (h <= 0) and every later step decreases monotonically to
    the root; with B = 0 the first step is the closed form v = A^(1/p).  The
    iterate is kept as v and h is evaluated as ln((A + B ln v) / v^p), so no
    precision is lost to the size of ln v.  g = A + B ln v is A itself at
    the start (v = 1) and whenever B = 0, and then ln v is not taken.  A
    bounded nextafter guard moves the float result onto the admissible side.

    The first step s1 = ln A / (p - c), c = B/A, overshoots the root, and
    for a huge A (phi(2^k) at large k) v^p = e^(p s1) leaves the float
    range.  Only then does the solve start from s2 = (ln A + ln(1 + c s1))/p
    instead: h(s1) <= 0 gives s2 <= s1, so h(s2) = ln((1 + c s2)/(1 + c s1))
    <= 0 and s2 is admissible too, with p s2 = ln A + ln(1 + c s1) in range.
    A norm never takes that start: c <= a < p/2 gives p s1 < 2 ln A, and
    A <= sum w <= 2^64.
    """
    log, exp = math.log, math.exp
    v, g = 1.0, A
    step = log(A) / (p - B / A)
    if p * step > _LOG_FLOAT_MAX:
        step = (log(A) + math.log1p(B / A * step)) / p
    for _ in range(64):
        v *= exp(step)
        if abs(step) <= _ROOT_TOL:
            break
        if B:
            g = A + B * log(v)
        step = log(g / v**p) / (p - B / g)
    for _ in range(16):
        if (A + B * log(v) if B else A) <= v**p:
            break
        v = math.nextafter(v, math.inf)
    return v


# phi(2^k) of an Orlicz space is served for k <= _PHI_LOG2_MAX.  Its root s
# = ln phi has p s = k ln 2 + ln(1 + a s) with a < p/2, so p s < 697 and
# every Newton iterate of ``_moment_root`` keeps v^p finite.
_PHI_LOG2_MAX = 996
_PHI_RULE = f"the Orlicz fundamental function phi(2^k) is served for k <= {_PHI_LOG2_MAX}"


def norm(space: SpaceSpec, x) -> float:
    """Norm of x in the given space (quasi-norm for LpQ with q > p).

    l^{p,q} and Lorentz norms weight x*_k by its position, so they evaluate
    the scaled rearrangement b = |x|* / scale of ``_descending`` and
    multiply back; their power weights (Lorentz with ``theta``, l^{p,q})
    come from the cached k^s tables of ``_powers``.  l^p and Orlicz norms
    do not depend on the order of x: they read |x| in input order through
    ``_magnitudes``, with one max pass and no sort.  l^p sums
    (|x| / scale)^p for the same power of two scale, and l^inf is the max;
    Orlicz hands the max to ``_luxemburg``.  Either way wide-magnitude
    inputs stay finite.

    Sums of powers q of entries below 2 stay finite while q + log2(len x)
    <= 1023, ``_SUM_BITS`` (q + max(1, q/p) log2(len x) for l^{p,q}, whose
    weights sum to at most len^max(1, q/p)).  Past that rule the terms are
    scaled by the largest of them instead (``_max_scaled``), the l^{p,q}
    weights folded in first as (b_k k^(1/p-1/q))^q.  Lorentz array weights
    are taken over the power of two below w_1, which joins the scale, and
    the rule counts q max(1, log2 v_1) bits for them, v_1 = b_1 w_1 < 4.
    """
    if isinstance(space, (LpQ, Lorentz)):
        b, scale = _descending(x)
        if b.size == 0:
            return 0.0
        if isinstance(space, LpQ):
            if space.q == math.inf:
                return scale * float(np.max(b * _powers(1.0 / space.p, b.size)))
            q, p = space.q, space.p
            # max(1, q/p) <= q, so below q = _SUM_BITS/64 the rule holds at every length
            if 64.0 * q > _SUM_BITS and q + max(1.0, q / p) * math.log2(b.size) > _SUM_BITS:
                v = b * _powers(1.0 / p - 1.0 / q, b.size)
                return scale * _max_scaled(v, q, float(np.max(v)))
            s = np.add.reduce(b**q * _powers(q / p - 1.0, b.size))
            return scale * float(s ** (1.0 / q))
        theta = space.w.theta
        w = space.w.values(b.size) if theta is None else _powers(-theta, b.size)
        if theta is None:  # array weights: over the power of two below w_1, which joins the scale
            f = math.ldexp(1.0, math.frexp(w[0])[1] - 1)
            w, scale = w / f, scale * f
        v = b * w  # nonincreasing, so v[0] = b_1 w_1 is the largest term, below 4 (2 if w_1 = 1)
        bits = space.q if theta is not None else space.q * max(1.0, math.log2(v[0]))  # v^q <= 2^bits
        if bits + 63.0 > _SUM_BITS and bits + math.log2(b.size) > _SUM_BITS:
            return scale * _max_scaled(v, space.q, float(v[0]))
        return scale * float(np.add.reduce(v ** space.q) ** (1.0 / space.q))
    a, m = _magnitudes(x)
    if isinstance(space, Orlicz):
        return _luxemburg(space.N, a, m=m)
    if not isinstance(space, Lp):
        raise TypeError(f"unknown space spec {space!r}")
    if m == 0.0 or space.p == math.inf:
        return m
    if space.p + 63.0 > _SUM_BITS and space.p + math.log2(a.size) > _SUM_BITS:
        return _max_scaled(a, space.p, m)
    scale = math.ldexp(1.0, math.frexp(m)[1] - 1)
    a /= scale
    return scale * float(np.add.reduce(a**space.p) ** (1.0 / space.p))


# Head length of the power-sum kernel, summed term by term; past it, Euler-Maclaurin.
_EM_HEAD = 1 << 12
# B_2/2!, B_4/4!, B_6/6! and B_8/8!
_EM_COEF = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


def _falling(s: float, m: int) -> float:
    """s (s-1) ... (s-m+1): the m-th derivative of x^s is this times x^(s-m)."""
    return math.prod(s - i for i in range(m))


def _em_odd_terms(s: float, x):
    """sum_{j=1..3} B_2j/(2j)! f^(2j-1)(x) for f(x) = x^s."""
    return sum(
        c * _falling(s, 2 * j + 1) * x ** (s - 2 * j - 1)
        for j, c in enumerate(_EM_COEF[:3])
    )


def _em_remainder_bound(s: float, n):
    """2 |B_8|/8! |f^(7)(n) - f^(7)(M)|: bounds the error of the B_6-truncated tail."""
    m = np.float64(_EM_HEAD)
    return 2.0 * abs(_EM_COEF[3] * _falling(s, 7)) * np.abs(n ** (s - 7.0) - m ** (s - 7.0))


def _power_partial_sums(s: float, pts: np.ndarray) -> np.ndarray:
    """sum_{k<=n} k^s at positive int positions n, any order, without streaming.

    Positions up to M = _EM_HEAD read a term-by-term cumulative sum, built once
    per s from the ``_powers`` table and cached read-only.  Past M the
    tail sum_{M<k<=n} f(k), f(x) = x^s, is the Euler-Maclaurin expansion
    (DLMF 2.10.1) with B_2..B_6 terms,

        int_M^n f + (f(n) - f(M))/2 + sum_j B_2j/(2j)! (f^(2j-1)(n) - f^(2j-1)(M)),

    whose remainder is at most 2 |B_8|/8! |f^(7)(n) - f^(7)(M)|, since
    f^(8) keeps one sign on [M, n].  Sums that overflow (s beyond ~30 at the
    default window, or k^s itself in the head) or a bound above 1e-16
    relative raise ValueError.  The integral takes the expm1 form near
    s = -1 so that nothing cancels.
    """
    pts = np.asarray(pts, dtype=np.int64)
    head = _power_heads.get(s)
    if head is None:
        with np.errstate(over="ignore"):  # k^s past the float range: inf, refused where read
            head = _keep(_power_heads, s, np.cumsum(_powers(s, _EM_HEAD)))
    out = head[np.minimum(pts, _EM_HEAD) - 1]
    far = pts > _EM_HEAD
    bounded = True
    if far.any():
        m = np.float64(_EM_HEAD)
        n = pts[far].astype(float)
        t = s + 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan sum is refused below
            if abs(t) < 0.25:
                log_ratio = np.log(n / m)
                integral = log_ratio if t == 0.0 else m**t * np.expm1(t * log_ratio) / t
            else:
                integral = (n**t - m**t) / t
            out[far] += integral + (n**s - m**s) / 2.0 + _em_odd_terms(s, n) - _em_odd_terms(s, m)
            bounded = np.all(_em_remainder_bound(s, n) < 1e-16 * out[far])
    if not (np.all(np.isfinite(out)) and bounded):
        raise ValueError(
            f"partial sums of k^{s} overflow or exceed the 1e-16 Euler-Maclaurin bound"
        )
    return out


def _weight_sums(space: LpQ | Lorentz, pts) -> np.ndarray:
    """W(n) = sum_{k<=n} omega_k at int positions 1 <= n < 2^63, in any order
    and with repeats, where omega_k = w_k^q (Lorentz) or k^(q/p-1) (l^{p,q},
    finite q): pure powers in closed form, array weights by a cumsum."""
    pts = np.asarray(pts)
    if pts.size and int(pts.max()) >= 1 << 63:
        raise ValueError("weight partial sums need positions below 2^63")
    pts = pts.astype(np.int64, copy=False)
    if isinstance(space, LpQ):
        try:
            return _power_partial_sums(space.q / space.p - 1.0, pts)
        except ValueError as exc:
            raise ValueError(f"l^{{p,q}} weight sums at p = {space.p!r}, q = {space.q!r} "
                             f"through n = {int(pts.max())}: {exc}") from None
    w, q = space.w, space.q
    if w.theta is not None:
        return _power_partial_sums(-w.theta * q, pts)
    return np.cumsum(w.values(int(pts.max(initial=0))) ** q)[pts - 1]


def fundamental_function(space: SpaceSpec, n):
    """phi(n) = norm of the indicator of {1..n}, at one position n (a float)
    or at each of a sequence of them (an array, each entry its scalar read).

    The one producer of phi and of its dyadic profile phi(2^k): n^(1/p) on
    l^p and l^{p,inf}, W(n)^(1/q) by ``_weight_sums`` on Lorentz and l^{p,q},
    and on Orlicz ``_moment_root(p, n, a n)``, the Luxemburg norm of an
    n-entry indicator (moments S0 = n, S1 = 0), bit-identical to ``norm``
    of ``np.ones(n)``.  Positions are integers n >= 1 that a float holds;
    the range rule, n < 2^63 for W and ``_PHI_RULE``, is checked on the
    largest before anything is evaluated.
    """
    scalar = not hasattr(n, "__iter__")
    try:
        pts = [operator.index(v) for v in ([n] if scalar else n)]
    except TypeError:
        pts = [0]
    if min(pts, default=1) < 1:
        raise ValueError(f"fundamental_function needs integer positions n >= 1, got n = {n!r}")
    top = max(pts, default=1)
    if isinstance(space, Orlicz) and top > 1 << _PHI_LOG2_MAX:
        raise ValueError(f"fundamental_function on an Orlicz space needs n <= 2^{_PHI_LOG2_MAX}: "
                         f"{_PHI_RULE}")
    if top > sys.float_info.max:
        raise ValueError(f"fundamental_function needs positions n that a float holds, "
                         f"got n = 2^{top.bit_length() - 1} or more")
    if isinstance(space, Lp) or isinstance(space, LpQ) and space.q == math.inf:
        out = [float(v) ** (1.0 / space.p) for v in pts]  # 1/inf = 0: l^inf has phi = 1
    elif isinstance(space, (LpQ, Lorentz)):
        out = [s ** (1.0 / space.q) for s in _weight_sums(space, pts).tolist()]
    elif isinstance(space, Orlicz):
        out = [_moment_root(space.N.p, x, space.N.a * x) for x in map(float, pts)]
    else:
        raise TypeError(f"unknown space spec {space!r}")
    return out[0] if scalar else np.array(out)


# JSON descriptors ----------------------------------------------------------

_JSON_TYPES = {type(None): "null", bool: "a boolean", list: "an array", dict: "an object"}


def _json_float(v, key: str) -> float:
    """A descriptor number: a JSON number or a string that float() reads.
    null, booleans, arrays and objects are refused, naming the key."""
    if type(v) in _JSON_TYPES:
        raise ValueError(f"descriptor key {key!r} must be a number, not {_JSON_TYPES[type(v)]}")
    return float(v)


def _weights_from_json(obj) -> WeightSeq:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ValueError('weights must be {"form": ...}')
    form = obj["form"]
    if form == "power":
        return power_weights(_json_float(obj["theta"], "theta"))
    if form == "array":
        vals = obj.get("values")
        if not isinstance(vals, list) or not vals:
            raise ValueError('array weights need "values": [..]')
        data = tuple(_json_float(v, f"values[{i}]") for i, v in enumerate(vals))
        return WeightSeq(data=data)
    raise ValueError(f"unknown weights form {form!r}")


def _orlicz_from_json(obj) -> OrliczFn:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ValueError('orlicz must be {"form": ...}')
    form = obj["form"]
    if form == "power":
        return OrliczFn.power(_json_float(obj["p"], "p"))
    if form == "power_log":
        return OrliczFn.power_log(_json_float(obj["p"], "p"), _json_float(obj["a"], "a"))
    raise ValueError(f"unknown orlicz form {form!r}")


def space_from_json(obj) -> SpaceSpec:
    """Build a space from a parsed JSON object (see README for the schema)."""
    if not isinstance(obj, dict):
        raise ValueError("space descriptor must be a JSON object")
    kind = obj.get("kind")
    if kind == "lp":
        p = obj["p"]
        return Lp(math.inf if p in ("inf", "infinity") else _json_float(p, "p"))
    if kind == "lpq":
        q = obj["q"]
        q = math.inf if q in ("inf", "infinity") else _json_float(q, "q")
        return LpQ(_json_float(obj["p"], "p"), q)
    if kind == "lorentz":
        return Lorentz(_json_float(obj["q"], "q"), _weights_from_json(obj["weights"]))
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
        if w.theta is None:
            weights = {"form": "array", "values": list(w.data)}
        else:
            weights = {"form": "power", "theta": w.theta}
        return {"kind": "lorentz", "q": space.q, "weights": weights}
    if isinstance(space, Orlicz):
        return {"kind": "orlicz", "orlicz": _orlicz_to_json(space.N)}
    raise TypeError(f"unknown space spec {space!r}")


def _orlicz_to_json(N: OrliczFn) -> dict:
    if N.a == 0.0:
        return {"form": "power", "p": N.p}
    return {"form": "power_log", "p": N.p, "a": N.a}
