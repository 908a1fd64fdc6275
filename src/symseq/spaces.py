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
``_orlicz_phi`` solves it with the same kernel and no vector pass.

Partial sums W(n) of w_k^q (k^(q/p-1) for l^{p,q}) give phi(n) = W(n)^(1/q),
the index profiles and the Lorentz and l^{p,q} block-lattice norms; their one
producer ``_weight_sums`` sums pure powers in closed form (a head up to 2^12
and an Euler-Maclaurin tail) and array weights by a cumulative sum.  The
power tables k^s behind the Lorentz and l^{p,q} norms and that head depend
only on the space and are cached per exponent (``_powers``).
"""

from __future__ import annotations

import math
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


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of ``a``, the array ``np.unique`` returns.

    By sort and a neighbour mask, because numpy's first ``unique`` call
    imports ``numpy.ma`` (~13 ms), which the import of symseq and the index
    and block-norm paths then need not pay.
    """
    s = np.sort(a, axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


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


def _orlicz_phi(N: OrliczFn, n: float) -> float:
    """phi(n) = ||e_1 + ... + e_n|| in Orlicz(N), 1 <= n <= 2^_PHI_LOG2_MAX.

    The one producer of the Orlicz fundamental function: the Luxemburg norm
    of an n-entry indicator, whose moments are S0 = n and S1 = 0, so it is
    ``_moment_root(p, n, a n)`` and bit-identical to
    ``norm(Orlicz(N), np.ones(n))``.  Callers check the range.
    """
    return _moment_root(N.p, n, N.a * n)


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
    """
    if isinstance(space, (LpQ, Lorentz)):
        b, scale = _descending(x)
        if b.size == 0:
            return 0.0
        if isinstance(space, LpQ):
            if space.q == math.inf:
                return scale * float(np.max(b * _powers(1.0 / space.p, b.size)))
            s = np.add.reduce(b ** space.q * _powers(space.q / space.p - 1.0, b.size))
            return scale * float(s ** (1.0 / space.q))
        theta = space.w.theta
        w = space.w.values(b.size) if theta is None else _powers(-theta, b.size)
        return scale * float(np.add.reduce((b * w) ** space.q) ** (1.0 / space.q))
    a, m = _magnitudes(x)
    if isinstance(space, Orlicz):
        return _luxemburg(space.N, a, m=m)
    if not isinstance(space, Lp):
        raise TypeError(f"unknown space spec {space!r}")
    if m == 0.0 or space.p == math.inf:
        return m
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
    """sum_{k<=n} k^s at sorted positive int positions n, without streaming.

    Positions up to M = _EM_HEAD read a term-by-term cumulative sum, built once
    per s from the ``_powers`` table and cached read-only.  Past M the
    tail sum_{M<k<=n} f(k), f(x) = x^s, is the Euler-Maclaurin expansion
    (DLMF 2.10.1) with B_2..B_6 terms,

        int_M^n f + (f(n) - f(M))/2 + sum_j B_2j/(2j)! (f^(2j-1)(n) - f^(2j-1)(M)),

    whose remainder is at most 2 |B_8|/8! |f^(7)(n) - f^(7)(M)|, since
    f^(8) keeps one sign on [M, n].  Sums that overflow (s beyond ~30 at the
    default window) or a bound above 1e-16 relative raise ValueError.  The
    integral takes the expm1 form near s = -1 so that nothing cancels.
    """
    pts = np.asarray(pts, dtype=np.int64)
    head = _power_heads.get(s)
    if head is None:
        head = _keep(_power_heads, s, np.cumsum(_powers(s, _EM_HEAD)))
    out = head[np.minimum(pts, _EM_HEAD) - 1]
    far = pts > _EM_HEAD
    if not far.any():
        return out
    m = np.float64(_EM_HEAD)
    n = pts[far].astype(float)
    t = s + 1.0
    if abs(t) < 0.25:
        log_ratio = np.log(n / m)
        integral = log_ratio if t == 0.0 else m**t * np.expm1(t * log_ratio) / t
    else:
        integral = (n**t - m**t) / t
    out[far] += integral + (n**s - m**s) / 2.0 + _em_odd_terms(s, n) - _em_odd_terms(s, m)
    sums = out[far]
    if not (np.all(np.isfinite(sums)) and np.all(_em_remainder_bound(s, n) < 1e-16 * sums)):
        raise ValueError(
            f"partial sums of k^{s} overflow or exceed the 1e-16 Euler-Maclaurin bound"
        )
    return out


def _weight_sums(space: LpQ | Lorentz, pts) -> np.ndarray:
    """W(n) = sum_{k<=n} omega_k at sorted int positions 1 <= n < 2^63, where
    omega_k = w_k^q (Lorentz) or k^(q/p-1) (l^{p,q}, finite q): pure powers in
    closed form, array weights by a cumsum."""
    if len(pts) and pts[-1] >= 1 << 63:
        raise ValueError("weight partial sums need positions below 2^63")
    pts = np.asarray(pts, dtype=np.int64)
    if isinstance(space, LpQ):
        return _power_partial_sums(space.q / space.p - 1.0, pts)
    w, q = space.w, space.q
    if w.theta is not None:
        return _power_partial_sums(-w.theta * q, pts)
    return np.cumsum(w.values(int(pts.max(initial=0))) ** q)[pts - 1]


def fundamental_function(space: SpaceSpec, n: int) -> float:
    """phi(n) = norm of the indicator of {1..n}; closed forms per family."""
    if n < 1:
        raise ValueError("fundamental_function needs n >= 1")
    if isinstance(space, Lp):
        return 1.0 if space.p == math.inf else float(n) ** (1.0 / space.p)
    if isinstance(space, LpQ) and space.q == math.inf:
        return float(n) ** (1.0 / space.p)
    if isinstance(space, (LpQ, Lorentz)):
        return float(_weight_sums(space, [n])[0] ** (1.0 / space.q))
    if isinstance(space, Orlicz):
        if n > 1 << _PHI_LOG2_MAX:
            raise ValueError(f"fundamental_function on an Orlicz space needs n <= 2^{_PHI_LOG2_MAX}: "
                             f"{_PHI_RULE}")
        return _orlicz_phi(space.N, float(n))
    raise TypeError(f"unknown space spec {space!r}")


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
