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

from dataclasses import dataclass
from fractions import Fraction

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
        blocks = n.bit_length()  # dyadic blocks covering the first n positions
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

