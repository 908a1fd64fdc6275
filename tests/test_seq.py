"""Canonicalization of finite sequences."""

import math

import numpy as np
import pytest

from symseq.seq import Seq


def test_trailing_zeros_are_stripped():
    assert len(Seq([1.0, 0.0, 2.0, 0.0, 0.0])) == 3
    assert Seq([0.0, 0.0]).is_zero()
    assert Seq([]).is_zero()


def test_interior_zeros_survive():
    s = Seq([1.0, 0.0, 2.0])
    assert s[1] == 0.0 and s[2] == 2.0


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        Seq([1.0, math.inf])
    with pytest.raises(ValueError):
        Seq([math.nan])


def test_array_view_matches_iteration():
    s = Seq([3.0, -1.0, 2.0])
    assert np.array_equal(s.array, np.array([3.0, -1.0, 2.0]))
