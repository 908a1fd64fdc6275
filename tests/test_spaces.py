"""Norm evaluation against hand-computed values and structural laws.

Oracle values below were computed independently of the library (direct
partial-sum formulas on hand-sorted data) and frozen here.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symseq.spaces import (
    Lorentz,
    Lp,
    LpQ,
    Orlicz,
    OrliczFn,
    WeightSeq,
    delta2_margin,
    fundamental_function,
    norm,
    orlicz_inverse,
    power_weights,
    space_from_json,
    space_to_json,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite, min_size=1, max_size=30)

NORMED_SPACES = [
    Lp(1.0),
    Lp(2.0),
    Lp(math.inf),
    LpQ(3.0, 2.0),
    Lorentz(2.0, power_weights(0.25)),
    Orlicz(OrliczFn.power(1.5)),
]


# hand values ----------------------------------------------------------------


def test_lp_hand_values():
    assert norm(Lp(1.0), [3.0, -4.0]) == 7.0
    assert norm(Lp(2.0), [3.0, -4.0]) == 5.0
    assert norm(Lp(math.inf), [3.0, -4.0]) == 4.0
    assert abs(norm(Lp(3.0), [1.0, 1.0]) - 2.0 ** (1 / 3)) < 1e-15


def test_lorentz_hand_value():
    # x = [3,1,2], w_k = k^{-1/4}, q = 2: sorted magnitudes (3,2,1), so the
    # value is sqrt(9 + 4/sqrt(2) + 1/sqrt(3))
    sp = Lorentz(2.0, power_weights(0.25))
    assert abs(norm(sp, [3.0, 1.0, 2.0]) - 3.5221836116159273) < 1e-13


def test_lpq_reduces_to_lp_on_flat_vectors():
    # on an indicator of n coordinates every symmetric norm equals phi(n)
    for n in (1, 2, 5, 17):
        x = np.ones(n)
        got = norm(LpQ(3.0, 2.0), x)
        want = fundamental_function(LpQ(3.0, 2.0), n)
        assert abs(got - want) < 1e-12 * want


def test_orlicz_power_matches_lp_exactly():
    rng = np.random.default_rng(5)
    for p in (1.0, 1.5, 2.0, 3.0):
        sp, ref = Orlicz(OrliczFn.power(p)), Lp(p)
        for _ in range(40):
            x = rng.standard_normal(int(rng.integers(1, 30)))
            a, b = norm(sp, x), norm(ref, x)
            assert abs(a - b) < 1e-8 * max(1.0, b)


# structural laws ------------------------------------------------------------


@settings(max_examples=60)
@given(vectors, st.floats(min_value=0.01, max_value=100.0))
def test_homogeneity(xs, c):
    x = np.asarray(xs)
    for sp in NORMED_SPACES:
        assert norm(sp, c * x) == pytest.approx(c * norm(sp, x), rel=1e-10, abs=1e-12)


@settings(max_examples=60)
@given(vectors, vectors)
@example(
    xs=[0, 10678, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1.5],
    ys=[0, 10689, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1.5],
)
def test_triangle_inequality(xs, ys):
    n = max(len(xs), len(ys))
    x = np.pad(np.asarray(xs), (0, n - len(xs)))
    y = np.pad(np.asarray(ys), (0, n - len(ys)))
    for sp in NORMED_SPACES:
        assert norm(sp, x + y) <= norm(sp, x) + norm(sp, y) + 1e-9


@settings(max_examples=60)
@given(vectors)
def test_symmetry_under_permutation_and_sign(xs):
    rng = np.random.default_rng(11)
    x = np.asarray(xs)
    y = rng.permutation(x) * rng.choice([-1.0, 1.0], size=x.size)
    for sp in NORMED_SPACES:
        assert norm(sp, x) == pytest.approx(norm(sp, y), rel=1e-12, abs=1e-14)


def test_monotone_in_rearranged_magnitudes():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = np.sort(np.abs(rng.standard_normal(20)))[::-1]
        y = x * rng.uniform(0.0, 1.0, 20)
        for sp in NORMED_SPACES:
            assert norm(sp, y) <= norm(sp, x) + 1e-12


def test_quasi_norm_can_break_the_triangle():
    # q > p: subadditivity fails; witness found by randomized search, frozen
    sp = LpQ(2.0, 4.0)
    x = np.array([0.21, 0.29])
    y = np.array([0.43, 0.35])
    assert norm(sp, x + y) > 1.018 * (norm(sp, x) + norm(sp, y))


def test_orlicz_norm_of_a_subnormal():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm(Orlicz(OrliczFn.power(1.5)), [5e-324]) == 5e-324


def test_zero_vector():
    for sp in NORMED_SPACES:
        assert norm(sp, np.zeros(4)) == 0.0
        assert norm(sp, []) == 0.0


# fundamental functions ------------------------------------------------------


def test_fundamental_function_closed_forms():
    ns = np.array([1, 2, 3, 10, 100])
    for p in (1.0, 2.0, 3.5):
        got = np.array([fundamental_function(Lp(p), int(n)) for n in ns])
        assert np.allclose(got, ns ** (1.0 / p), rtol=1e-12)
    assert fundamental_function(Lp(math.inf), 7) == 1.0
    # Lorentz: phi(n)^q = W(n)
    w = power_weights(0.3)
    for n in (1, 4, 9):
        want = np.sum(w.values(n) ** 1.0)
        assert abs(fundamental_function(Lorentz(1.0, w), n) - want) < 1e-12
    # Orlicz: phi(n) = 1 / N^{-1}(1/n); for t^p that is n^{1/p}
    for n in (1, 2, 8):
        got = fundamental_function(Orlicz(OrliczFn.power(2.0)), n)
        assert abs(got - n**0.5) < 1e-10


def test_fundamental_function_matches_indicator_norm():
    spaces = NORMED_SPACES + [LpQ(2.0, 4.0)]
    for sp in spaces:
        for n in (1, 2, 3, 8, 31):
            assert fundamental_function(sp, n) == pytest.approx(
                norm(sp, np.ones(n)), rel=1e-10
            )


def test_orlicz_inverse_inverts():
    N = OrliczFn.power_log(2.0, 0.6)
    for u in np.geomspace(1e-8, 1.0, 64):
        s = float(N(np.array([u]))[0])
        assert orlicz_inverse(N, s) == pytest.approx(u, rel=1e-9)


# doubling margins (independent closed forms) --------------------------------


def test_delta2_margin_power_is_two_to_p():
    assert abs(delta2_margin(OrliczFn.power(1.5), 1e-8) - 2.8284271247461903) < 1e-12
    assert abs(delta2_margin(OrliczFn.power(3.0), 1e-8) - 8.0) < 1e-12


def test_delta2_margin_power_log_bounded_by_four():
    # N(t) = t^2 (1 + 0.6|ln t|): ratio increases toward 2^p = 4 as u -> 0
    N = OrliczFn.power_log(2.0, 0.6)
    m6 = delta2_margin(N, 1e-6)
    m9 = delta2_margin(N, 1e-9)
    assert m6 < m9 < 4.0
    assert abs(m6 - 3.8209173889426347) < 1e-6
    assert abs(m9 - 3.8761680625078987) < 1e-6


# weights and constructors ---------------------------------------------------


def test_power_weights_values():
    w = power_weights(0.5)
    assert np.allclose(w.values(4), [1.0, 2**-0.5, 3**-0.5, 0.5])


def test_weight_and_parameter_validation():
    with pytest.raises(ValueError):
        Lp(0.5)
    with pytest.raises(ValueError):
        LpQ(0.0, 1.0)
    with pytest.raises(ValueError):
        OrliczFn.power(0.5)
    with pytest.raises(ValueError):
        # normalization N(1) = 1 enforced
        OrliczFn(fn=lambda t: 2.0 * np.asarray(t))
    with pytest.raises(ValueError):
        # nonincreasing-weight requirement
        Lorentz(1.0, WeightSeq(kind="array", data=(1.0, 2.0)))


# JSON codecs ----------------------------------------------------------------


ROUND_TRIP_OBJS = [
    {"kind": "lp", "p": 2.0},
    {"kind": "lp", "p": "inf"},
    {"kind": "lpq", "p": 3.0, "q": 2.0},
    {"kind": "lorentz", "q": 2.0, "weights": {"form": "power", "theta": 0.25}},
    {"kind": "lorentz", "q": 1.0,
     "weights": {"form": "array", "values": [1.0, 0.9, 0.7, 0.4]}},
    {"kind": "orlicz", "orlicz": {"form": "power", "p": 1.5}},
    {"kind": "orlicz", "orlicz": {"form": "power_log", "p": 2.0, "a": 0.6}},
]


@pytest.mark.parametrize("obj", ROUND_TRIP_OBJS)
def test_space_json_round_trip(obj):
    sp = space_from_json(obj)
    again = space_from_json(space_to_json(sp))
    x = np.array([2.0, 0.7, 1.3, 0.1])
    assert norm(sp, x) == pytest.approx(norm(again, x), rel=1e-12)


def test_space_json_errors():
    with pytest.raises(KeyError, match="unknown space kind"):
        space_from_json({"kind": "mystery"})
    with pytest.raises(KeyError):
        space_from_json({"kind": "lp"})
    with pytest.raises(ValueError):
        space_from_json({"kind": "lorentz", "q": 1.0, "weights": {"form": "odd"}})
    with pytest.raises(ValueError):
        space_from_json("not a dict")
    # custom callables cannot serialize
    custom = Orlicz(OrliczFn(fn=lambda t: np.asarray(t, dtype=float)))
    with pytest.raises(ValueError, match="cannot serialize"):
        space_to_json(custom)


def test_space_json_is_plain_data():
    for obj in ROUND_TRIP_OBJS:
        json.dumps(space_to_json(space_from_json(obj)))
