"""Finitely supported real sequences as an immutable value type.

A sequence is stored densely: entry ``coeffs[k]`` is the (k+1)-th term, and
everything past ``len(coeffs)`` is zero.  Trailing zeros are stripped on
construction, so two ``Seq`` values are equal exactly when they denote the
same infinite sequence; the zero sequence is the empty tuple.

No numeric routine needs a ``Seq``: norms and operators read array-likes,
and a ``Seq`` converts to one through numpy's sequence protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["Seq"]


def _canonical(values: Iterable[float]) -> tuple[float, ...]:
    out = []
    for v in values:
        f = float(v)
        if not math.isfinite(f):
            raise ValueError(f"sequence entries must be finite, got {v!r}")
        out.append(f)
    while out and out[-1] == 0.0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Seq:
    """Immutable finitely supported sequence of floats."""

    coeffs: tuple[float, ...] = ()

    def __init__(self, coeffs: Iterable[float] = ()):
        object.__setattr__(self, "coeffs", _canonical(coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, k: int) -> float:
        return self.coeffs[k]

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def is_zero(self) -> bool:
        return not self.coeffs

