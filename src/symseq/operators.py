"""Dilation, shift, doubling and block operators on finite sequences.

Operators act lazily on dense coefficient vectors; nothing is ever stored as
a matrix, so applying any of them to vectors with 2^20 entries stays cheap.
One entry point, ``apply_array``, applies every operator.  Float input runs
in float64.  Exact input runs on integer numerators over one positive
common denominator (``_Exact``): the index operators (``DilateUp``,
``Shift``, ``Doubling``, ``BlockEmbed``) move and repeat numerators exactly
as they move floats, through the same code, and the dividing and lambda
operators scale the denominator instead of dividing entries.  Input with a
``fractions.Fraction`` entry converts to that form at entry and back to
Fractions at exit; the identity checks pass ``_Exact`` vectors and build no
Fraction.  Numerators are int64 while a bound on them fits, Python ints
past it, so none wraps.

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
from typing import NamedTuple

import numpy as np


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
    "apply_array",
    "parse_operator",
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


_INT64_MAX = (1 << 63) - 1


class _Exact(NamedTuple):
    """Rationals ``num / den`` on one positive common denominator.

    ``den`` is a Python int and ``peak`` a Python int bound on ``|num|``.
    ``num`` is an int64 array while ``peak`` fits in int64, else an object
    array of Python ints.  Nothing reduces the fractions: dividing operators
    scale ``den`` instead of dividing entries, every step multiplies
    ``peak`` by the most it can grow an entry, and ``_grow`` moves ``num``
    to Python ints before that bound could pass int64, so nothing wraps.
    """

    num: np.ndarray
    den: int
    peak: int

    @classmethod
    def of_ints(cls, nums: list, den: int) -> _Exact:
        """Python int numerators over ``den > 0``."""
        peak = max(map(abs, nums), default=0)
        return cls(np.array(nums, dtype=np.int64 if peak <= _INT64_MAX else object), den, peak)

    @classmethod
    def of(cls, values) -> _Exact:
        """Entries that are Fractions, ints or floats, converted exactly."""
        fracs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
        den = math.lcm(*(v.denominator for v in fracs))
        return cls.of_ints([v.numerator * (den // v.denominator) for v in fracs], den)

    def fractions(self) -> np.ndarray:
        """The entries as an object array of reduced Fractions."""
        out = np.empty(self.num.size, dtype=object)
        out[:] = [Fraction(v, self.den) for v in self.num.tolist()]
        return out

    def pad_equal(self, other: _Exact) -> bool:
        """Equal as rationals after padding the shorter vector with zeros.

        Compares cross-multiplied numerators, so no Fraction is built.
        """
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        a = _grow(self.num, self.peak, fa)[0] * fa
        b = _grow(other.num, other.peak, fb)[0] * fb
        n = max(a.size, b.size)
        return bool(np.array_equal(_pad(a, n - a.size), _pad(b, n - b.size)))


def _grow(num: np.ndarray, peak: int, factor: int) -> tuple[np.ndarray, int]:
    """``num`` ready for entries up to ``peak * factor``, and that bound.

    Past int64 the numerators become Python ints.  The bound is at least
    ``factor``, which numpy must also fit in int64 to multiply by it.
    """
    bound = max(peak, 1) * factor
    if bound > _INT64_MAX and num.dtype != object:
        num = num.astype(object)
    return num, bound


def _pad(x: np.ndarray, extra: int) -> np.ndarray:
    """``x`` followed by ``extra`` zeros of its own dtype."""
    return np.concatenate([x, np.zeros(extra, dtype=x.dtype)])


def _vector(x) -> np.ndarray | _Exact:
    """An ``_Exact`` vector if any entry is a Fraction, else float64."""
    arr = np.asarray(x)
    # scan everything: exact lists often lead with plain-int zeros
    if arr.dtype == object and any(isinstance(v, Fraction) for v in arr):
        return _Exact.of(arr)
    return np.asarray(x, dtype=float)


def _exact_scalar(v) -> Fraction | None:
    """``v`` as a Fraction if it is an int or a Fraction, else None."""
    return Fraction(v) if isinstance(v, (int, Fraction)) else None


def _move(op: OperatorSpec, x: np.ndarray) -> np.ndarray | None:
    """Apply an index operator, which only moves and repeats entries.

    Returns None for the operators that divide or take lambda.
    """
    if isinstance(op, DilateUp):
        return np.repeat(x, op.m)
    if isinstance(op, Shift):
        if op.n >= 0:
            return np.concatenate([np.zeros(op.n, dtype=x.dtype), x])
        return x[-op.n :]
    if isinstance(op, Doubling):
        return np.concatenate([np.zeros(1, dtype=x.dtype), np.repeat(x, 2)])
    if isinstance(op, BlockEmbed):
        if x.size > 24:
            raise ValueError("BlockEmbed input longer than 24 blocks (2^24 cap)")
        return np.repeat(x, 1 << np.arange(x.size))
    return None


def _block_sums(x: np.ndarray, m: int) -> np.ndarray:
    """Sums over consecutive blocks of length m, the last one zero-padded."""
    return _pad(x, (-x.size) % m).reshape(-1, m).sum(axis=1)


def _apply_float(op: OperatorSpec, x: np.ndarray) -> np.ndarray:
    moved = _move(op, x)
    if moved is not None:
        return moved
    n = x.size
    if isinstance(op, DilateDown):
        return _block_sums(x, op.m) / op.m
    if isinstance(op, DoublingInverse):
        return _apply_float(DilateDown(2), x[1:])
    if isinstance(op, AvgProject):
        blocks = n.bit_length()  # dyadic blocks covering the first n positions
        total = (1 << blocks) - 1
        xp = _pad(x, total - n)
        out = np.empty(total)
        for k in range(blocks):
            size = 1 << k
            start = size - 1
            out[start : start + size] = xp[start : start + size].sum() / size
        return out
    if isinstance(op, AvgProjectN):
        size = 1 << op.n
        return np.repeat(_block_sums(x, size) / size, size)
    if isinstance(op, ShiftMinusLambda):
        # along the last axis, so a stack of rows shifts row by row
        lam = float(op.lam)
        zero = np.zeros(x.shape[:-1] + (1,))
        return np.concatenate([zero, x], axis=-1) - lam * np.concatenate([x, zero], axis=-1)
    if isinstance(op, DoublingMinusLambda):
        dbl = _move(Doubling(), x)
        dbl[:n] -= float(op.lam) * x
        return dbl
    raise TypeError(f"unknown operator {op!r}")


def _apply_exact(op: OperatorSpec, x: _Exact) -> _Exact:
    """The exact kernel: numerators move like floats, divisors go to ``den``."""
    num, den, peak = x
    moved = _move(op, num)
    if moved is not None:
        return _Exact(moved, den, peak)
    n = num.size
    if isinstance(op, DilateDown):
        num, peak = _grow(num, peak, op.m)
        return _Exact(_block_sums(num, op.m), den * op.m, peak)
    if isinstance(op, DoublingInverse):
        return _apply_exact(DilateDown(2), _Exact(num[1:], den, peak))
    if isinstance(op, AvgProject):
        # block k (2^k entries) sums to s_k; its mean s_k / 2^k is
        # s_k 2^(B-1-k) over den 2^(B-1)
        blocks = n.bit_length()
        if blocks == 0:
            return x
        sizes = 1 << np.arange(blocks)
        num, peak = _grow(num, peak, 1 << (blocks - 1))
        num = _pad(num, (1 << blocks) - 1 - n)
        sums = np.add.reduceat(num, sizes - 1)
        scales = sizes[::-1].astype(num.dtype)
        return _Exact(np.repeat(sums * scales, sizes), den << (blocks - 1), peak)
    if isinstance(op, AvgProjectN):
        size = 1 << op.n
        num, peak = _grow(num, peak, size)
        return _Exact(np.repeat(_block_sums(num, size), size), den << op.n, peak)
    if isinstance(op, (ShiftMinusLambda, DoublingMinusLambda)):
        # lam = p/q: (lead - lam x) = (q lead - p x) / q, lead = tau_1 x or D x
        lam = Fraction(op.lam)
        p, q = lam.numerator, lam.denominator
        num, peak = _grow(num, peak, abs(p) + q)
        if isinstance(op, ShiftMinusLambda):
            # along the last axis, so a stack of rows shifts row by row
            zero = np.zeros(num.shape[:-1] + (1,), dtype=num.dtype)
            out = np.concatenate([zero, num], axis=-1) * q
            out[..., :-1] -= p * num
        else:
            out = _move(Doubling(), num) * q
            out[:n] -= p * num
        return _Exact(out, den * q, peak)
    raise TypeError(f"unknown operator {op!r}")


def apply_array(op: OperatorSpec, x) -> np.ndarray | _Exact:
    """Apply an operator to a vector (vectorized).

    Float input runs in float64.  If any entry is a ``Fraction`` the input
    goes to one common denominator, runs on integer numerators, and comes
    back as an object array in which every entry is a reduced Fraction,
    padding included; a float lambda counts at its exact binary value.  An
    ``_Exact`` input skips both conversions and returns an ``_Exact``.
    """
    if isinstance(x, _Exact):
        return _apply_exact(op, x)
    x = _vector(x)
    if isinstance(x, _Exact):
        return _apply_exact(op, x).fractions()
    return _apply_float(op, x)


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

