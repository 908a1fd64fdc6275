"""Dilation, shift, doubling and block operators on finite sequences.

Operators act lazily on dense coefficient vectors; nothing is ever stored as
a matrix, so applying any of them to vectors with 2^20 entries stays cheap.
The kernel refuses (``ValueError``) before numpy allocates an image, or an
input padded to whole blocks, past 2^24 entries (``S`` on 24 blocks).
One entry point, ``apply_array``, applies every operator through one
kernel, on numerators over one positive common denominator (``_Exact``).
Float input is float64 numerators over 1; exact input is integer
numerators.  The index operators (``DilateUp``, ``Shift``, ``Doubling``,
``BlockEmbed``) move and repeat numerators; the dividing and lambda
operators scale the denominator instead of dividing entries, so float
output is divided once, on the way out.  Input with a
``fractions.Fraction`` entry converts to integer numerators at entry and
back to Fractions at exit; the identity checks pass ``_Exact`` vectors and
build no Fraction.  Integer numerators are int64 while a bound on them
fits, Python ints past it, so none wraps.

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
_MAX_IMAGE = 1 << 24  # the most entries one application builds; S on 24 blocks makes 2^24 - 1


class _Exact(NamedTuple):
    """Rationals ``num / den`` on one positive common denominator.

    ``den`` is a Python int and ``peak`` a Python int bound on ``|num|``.
    ``num`` is an int64 array while ``peak`` fits in int64, else an object
    array of Python ints.  Nothing reduces the fractions: dividing
    operators scale ``den`` instead of dividing entries, every step
    multiplies ``peak`` by the most it can grow an entry, and ``_grow``
    moves ``num`` to Python ints before that bound could pass int64, so
    nothing wraps.  The kernel also carries float64 numerators over
    ``den = 1``; their ``peak`` is never read.
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
    Float numerators never change type.
    """
    bound = max(peak, 1) * factor
    if bound > _INT64_MAX and num.dtype == np.int64:
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


def _doubled(x: np.ndarray) -> np.ndarray:
    """``D x``: a zero, then each entry twice."""
    return np.concatenate([np.zeros(1, dtype=x.dtype), np.repeat(x, 2)])


def _block_sums(x: np.ndarray, m: int) -> np.ndarray:
    """Sums over consecutive blocks of length m, the last one zero-padded (none on empty x)."""
    return _pad(x, (-x.size) % m).reshape(-1, m).sum(axis=1) if x.size else x


def _check_size(op: OperatorSpec, n: int, count: int) -> None:
    """Refuse ``op`` on n entries before numpy allocates, if it would build
    ``count`` > 2^24 entries (its image, or its input padded to whole blocks)."""
    if count > _MAX_IMAGE:
        shown = count if count.bit_length() <= 64 else f"at least 2^{count.bit_length() - 1}"
        raise ValueError(f"operator {op!r} on {n} entries would build {shown} entries, "
                         "past the 2^24-entry cap")


def _apply(op: OperatorSpec, x: _Exact) -> _Exact:
    """The one kernel: numerators move, divisors go to ``den``.

    Numerators are integers over ``den`` (exact input) or floats over
    ``den = 1`` (float input); every operator runs one body for both.
    Each branch first counts what it builds (``_check_size``); so an
    argument past the cap reaches numpy only with an empty input.
    """
    num, den, peak = x
    n = num.size
    asked = op
    if isinstance(op, DoublingInverse):  # D^-1 = sigma_1/2 tau_-1
        op, num = DilateDown(2), num[1:]
    if isinstance(op, DilateUp):
        _check_size(asked, n, n * op.m)
        num = np.repeat(num, op.m) if n else num
    elif isinstance(op, Shift):
        _check_size(asked, n, n + max(op.n, 0))
        num = np.concatenate([np.zeros(op.n, dtype=num.dtype), num]) if op.n >= 0 else num[-op.n :]
    elif isinstance(op, Doubling):
        _check_size(asked, n, 2 * n + 1)
        num = _doubled(num)
    elif isinstance(op, BlockEmbed):
        _check_size(asked, n, (1 << n) - 1)
        num = np.repeat(num, 1 << np.arange(n))
    elif isinstance(op, DilateDown):
        _check_size(asked, n, -(-num.size // op.m) * op.m)
        num, peak = _grow(num, peak, op.m)
        num, den = _block_sums(num, op.m), den * op.m
    elif isinstance(op, AvgProjectN):
        size = 1 << min(op.n, 64)  # past 2^24 one block is refused on any input
        _check_size(asked, n, -(-n // size) * size)
        num, peak = _grow(num, peak, size)
        num, den = np.repeat(_block_sums(num, size), size) if n else num, den * size
    elif isinstance(op, AvgProject):
        blocks = n.bit_length()  # dyadic blocks covering the entries
        if blocks == 0:
            return x
        top = 1 << (blocks - 1)
        _check_size(asked, n, 2 * top - 1)
        num, peak = _grow(num, peak, top)
        num = _pad(num, 2 * top - 1 - n)
        floats = num.dtype == float
        # block k (2^k entries, one pairwise sum s_k) has mean s_k / 2^k: on
        # integers s_k 2^(B-1-k) over den 2^(B-1); on floats, where that
        # scaling can overflow, the quotient itself
        sums = [np.add.reduce(num[(1 << k) - 1 : (2 << k) - 1]) for k in range(blocks)]
        means = [s / (1 << k) if floats else s * (top >> k) for k, s in enumerate(sums)]
        num = np.repeat(np.array(means, dtype=num.dtype), 1 << np.arange(blocks))
        if not floats:
            den *= top
    elif isinstance(op, (ShiftMinusLambda, DoublingMinusLambda)):
        # lam = p/q: (lead - lam x) = (q lead - p x) / q, lead = tau_1 x or D x;
        # a float lambda on exact input counts at its exact binary value
        shift = isinstance(op, ShiftMinusLambda)  # tau_1 adds one entry per row of a stack
        _check_size(asked, n, n + math.prod(num.shape[:-1]) if shift else 2 * n + 1)
        p, q = (float(op.lam), 1) if num.dtype == float else Fraction(op.lam).as_integer_ratio()
        num, peak = _grow(num, peak, abs(p) + q)
        lead = num * q if q != 1 else num
        if shift:
            # along the last axis, so a stack of rows shifts row by row
            zero = np.zeros(num.shape[:-1] + (1,), dtype=num.dtype)
            num = np.concatenate([zero, lead], axis=-1) - p * np.concatenate([num, zero], axis=-1)
        else:
            out = _doubled(lead)
            out[: num.size] -= p * num
            num = out
        den *= q
    else:
        raise TypeError(f"unknown operator {op!r}")
    return _Exact(num, den, peak)


def apply_array(op: OperatorSpec, x) -> np.ndarray | _Exact:
    """Apply an operator to a vector (vectorized).

    Every input runs through one kernel as numerators over a common
    denominator.  Float input is float64 numerators over 1; it comes back
    as float64, divided once at the end when the operator divides.  If any
    entry is a ``Fraction`` the input goes to one common denominator, runs
    on integer numerators, and comes back as an object array in which every
    entry is a reduced Fraction, padding included; a float lambda counts at
    its exact binary value.  An ``_Exact`` input skips both conversions and
    returns an ``_Exact``.
    """
    if isinstance(x, _Exact):
        return _apply(op, x)
    x = _vector(x)
    if isinstance(x, _Exact):
        return _apply(op, x).fractions()
    num, den, _ = _apply(op, _Exact(x, 1, 0))
    return num / den if den != 1 else num


_OP_GRAMMAR = (
    "sigma_up:m | sigma_down:m | tau:n | doubling | doubling_inv | S | Q | "
    "R:n | T:lambda | Dl:lambda"
)


# name -> (operator class, argument type); None takes no argument
_OPERATORS = {
    "sigma_up": (DilateUp, int),
    "sigma_down": (DilateDown, int),
    "tau": (Shift, int),
    "doubling": (Doubling, None),
    "doubling_inv": (DoublingInverse, None),
    "S": (BlockEmbed, None),
    "Q": (AvgProject, None),
    "R": (AvgProjectN, int),
    "T": (ShiftMinusLambda, float),
    "Dl": (DoublingMinusLambda, float),
}


def parse_operator(text: str) -> OperatorSpec:
    """Parse the CLI operator grammar (see _OP_GRAMMAR)."""
    name, _, arg = text.partition(":")
    if name not in _OPERATORS:
        raise ValueError(f"unknown operator {text!r}; grammar: {_OP_GRAMMAR}")
    cls, kind = _OPERATORS[name]
    try:
        if kind is None:
            if arg:
                raise ValueError(f"{name} takes no argument")
            return cls()
        value = kind(arg)
        if kind is float and not math.isfinite(value):
            raise ValueError("lambda must be finite")
        return cls(value)
    except ValueError as exc:
        raise ValueError(f"bad operator argument in {text!r}: {exc}") from exc
