"""Norm evaluation against hand-computed values and structural laws.

Oracle values below were computed independently of the library (direct
partial-sum formulas on hand-sorted data) and frozen here.
"""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symseq import spaces
from symseq.lattices import EX, lattice_norm
from symseq.spaces import (
    Lorentz,
    Lp,
    LpQ,
    Orlicz,
    OrliczFn,
    WeightSeq,
    fundamental_function,
    norm,
    power_weights,
    space_from_json,
    space_to_json,
)
from symseq.verify import BUILTIN_SPACES

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
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=20),
    st.floats(min_value=-300.0, max_value=300.0),
)
def test_homogeneity_across_the_float_range(xs, log10_c):
    x = np.asarray(xs)
    c = 10.0**log10_c
    for label, sp in BUILTIN_SPACES:
        assert norm(sp, c * x) == pytest.approx(c * norm(sp, x), rel=1e-12), label


def test_wide_magnitude_norms_stay_finite():
    for m in (1e200, 1e-200):
        assert norm(Lp(2.0), [m, m]) == pytest.approx(math.sqrt(2.0) * m, rel=1e-15)
        assert norm(LpQ(3.0, 2.0), [m, m]) == pytest.approx(
            fundamental_function(LpQ(3.0, 2.0), 2) * m, rel=1e-15
        )
        sp = Lorentz(2.0, power_weights(0.25))
        assert norm(sp, [m, m]) == pytest.approx(fundamental_function(sp, 2) * m, rel=1e-15)
        # blocks 1 and 2 hold three equal entries
        for base in (LpQ(3.0, 2.0), sp):
            got = lattice_norm(EX(base), [m, m])
            assert math.isfinite(got)
            assert got == pytest.approx(fundamental_function(base, 3) * m, rel=1e-15)


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
        rhs = norm(sp, x) + norm(sp, y)
        # rounding allowance in ulps of the sum: the Orlicz root sits up to
        # 8 eps relative (16 ulps) above the true norm, then a few roundings
        assert norm(sp, x + y) <= rhs + 32 * np.spacing(rhs)


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


# non-finite input -------------------------------------------------------------

EVERY_FAMILY = [sp for _, sp in BUILTIN_SPACES] + [
    LpQ(3.0, math.inf),
    Lorentz(2.0, WeightSeq(data=(1.0, 0.8, 0.5, 0.5, 0.3, 0.2, 0.1, 0.1))),
    Lorentz(1.0, WeightSeq(data=tuple(1.0 / np.log1p(np.arange(1.0, 9.0))))),
    Orlicz(OrliczFn.power(2.0)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_norm_rejects_non_finite_entries_on_every_family(bad):
    base = np.array([0.0, 3.0, -1.0, 0.0, 2.0, 0.5, 0.0, -4.0])
    for sp in EVERY_FAMILY:
        for pos in (0, 3, 4, base.size - 1):  # first, a zero slot, middle, last
            x = base.copy()
            x[pos] = bad
            with pytest.raises(ValueError, match="finite"):
                norm(sp, x)
        with pytest.raises(ValueError, match="finite"):
            norm(sp, [bad])
        with pytest.raises(ValueError, match="finite"):
            norm(sp, [0.0, bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            norm(sp, [1.0, math.nan, bad, 2.0])


@pytest.mark.parametrize("x", [3.0, [[1.0, 2.0], [3.0, 4.0]], [[1.0], [2.0]], np.ones((1, 3))],
                         ids=["scalar", "2x2", "column", "row"])
def test_norm_rejects_non_vector_input(x):
    for sp in EVERY_FAMILY:
        with pytest.raises(ValueError, match="1-D vector"):
            norm(sp, x)


# the scaled rearrangement ------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 16, 4096])
def test_descending_is_contiguous_nonincreasing_and_drops_zeros(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    x[rng.random(n) < 0.25] = 0.0
    x[: n // 2 : 5] = 0.0
    b, scale = spaces._descending(x)
    # a positive-stride C-contiguous array keeps b**p on numpy's SIMD loop;
    # numpy gives an empty array whatever stride its input had (0 here)
    assert b.flags.c_contiguous and (b.size == 0 or b.strides == (8,))
    assert not np.shares_memory(b, x)
    assert np.all(np.diff(b) <= 0.0)
    assert b.size == np.count_nonzero(x) and np.all(b > 0.0)
    assert np.array_equal(b * scale, np.sort(np.abs(x))[::-1][: b.size])
    for bad in (math.nan, math.inf, -math.inf):
        for pos in (0, n // 2, n):
            with pytest.raises(ValueError, match="finite"):
                spaces._descending(np.insert(x, pos, bad))


def test_entries_that_underflow_in_the_rearrangement_add_nothing():
    # 1e-300 / 2^996 underflows to 0.0 inside b; Orlicz norms must keep it
    # out of log, every family must add nothing for it
    b, _ = spaces._descending([1e300, 1e-300])
    assert b.size == 2 and b[1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label, sp in BUILTIN_SPACES:
            assert norm(sp, [1e300, 1e-300]) == norm(sp, [1e300]), label
            assert norm(sp, [1e-300, 0.0, 1e300]) == norm(sp, [1e300]), label


# order-free norms -----------------------------------------------------------------

# l^p and Orlicz norms do not depend on the order of x, so they read |x| as
# given; the custom N is a (p, a) pair that no built-in space holds, at the
# convexity edge a = p(p-1)/(2p-1)
_CUSTOM_N = OrliczFn.power_log(2.0, 2.0 / 3.0)
ORDER_FREE = {
    **{f"lp_{p}": Lp(p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)},
    "orlicz_t1.5": Orlicz(OrliczFn.power(1.5)),
    "orlicz_t3": Orlicz(OrliczFn.power(3.0)),
    "orlicz_t2_log": Orlicz(OrliczFn.power_log(2.0, 0.6)),
    "orlicz_custom": Orlicz(_CUSTOM_N),
}


def test_lp_and_orlicz_norms_never_sort(monkeypatch):
    rng = np.random.default_rng(23)
    vecs = [rng.standard_normal(n) * 10.0**e for n, e in ((1, 0), (16, 200), (300, -200), (4096, 0))]
    vecs[2][::7] = 0.0
    want = {label: [norm(sp, x) for x in vecs] for label, sp in ORDER_FREE.items()}

    def no_sort(x):
        raise AssertionError("_descending was called")

    monkeypatch.setattr(spaces, "_descending", no_sort)
    for label, sp in ORDER_FREE.items():
        assert [norm(sp, x) for x in vecs] == want[label], label
        assert norm(sp, np.zeros(3)) == norm(sp, []) == 0.0
    # the position-weighted families read x*
    for sp in (LpQ(3.0, 2.0), LpQ(3.0, math.inf), Lorentz(2.0, power_weights(0.25))):
        with pytest.raises(AssertionError, match="_descending"):
            norm(sp, vecs[1])


@pytest.mark.parametrize("N", [OrliczFn.power(1.5), OrliczFn.power_log(2.0, 0.6)], ids=["power", "power_log"])
def test_luxemburg_compaction_path_is_bit_identical_to_the_zero_free_path(N):
    rng = np.random.default_rng(29)
    a = rng.uniform(0.1, 3.0, 40)
    w = 2.0 ** np.arange(40)
    at = [0, 5, 5, 17, 40]
    with_zeros = np.insert(a, at, 0.0)
    assert spaces._luxemburg(N, with_zeros) == spaces._luxemburg(N, a)
    # the weights at zero coordinates are dropped with them
    w_zeros = np.insert(w, at, 7.0)
    assert spaces._luxemburg(N, with_zeros, weights=w_zeros) == spaces._luxemburg(N, a, weights=w)
    # 1e-300 / 1e300 underflows to 0.0 in b = a / max a
    for tiny in ([1e300, 1e-300], [1e-300, 1e300, 0.0], [1e300, 5e-324, 1e-300]):
        assert spaces._luxemburg(N, np.array(tiny)) == spaces._luxemburg(N, np.array([1e300]))
    # a caller that has the max passes it
    assert spaces._luxemburg(N, with_zeros, m=float(a.max())) == spaces._luxemburg(N, a)


# Rounding bound for a reordered input: the pairwise sums of the l^p and
# moment-form kernels move by rounding alone (<= 6.8e-16 relative measured
# over 13 sweeps like this one).  l^inf is a max and does not move at all.
ORDER_RTOL = {"lp_inf": 0.0}


@pytest.mark.parametrize("label", ORDER_FREE)
def test_reordered_input_moves_order_free_norms_within_the_stated_bound(label):
    sp, tol = ORDER_FREE[label], ORDER_RTOL.get(label, 1e-15)
    rng = np.random.default_rng(31)
    for n in (2, 17, 1000, 4096, 20000):
        for log10_c in (-200.0, 0.0, 200.0):
            x = rng.standard_normal(n) * 10.0**log10_c
            x[rng.random(n) < 0.05] = 0.0
            want = norm(sp, x)
            for _ in range(3):
                y = rng.permutation(x) * rng.choice([-1.0, 1.0], size=n)
                assert abs(norm(sp, y) - want) <= tol * want, (n, log10_c)


def _fsum_norm(space, x) -> float:
    """l^p and l^{p,q} norms by math.fsum of math.pow terms, scaled by a power of two."""
    a = sorted((abs(v) for v in x if v != 0.0), reverse=True)
    scale = math.ldexp(1.0, math.frexp(a[0])[1] - 1)
    c = [v / scale for v in a]
    if isinstance(space, Lp):
        return scale * math.pow(math.fsum(math.pow(v, space.p) for v in c), 1.0 / space.p)
    s = space.q / space.p - 1.0
    terms = (math.pow(v, space.q) * math.pow(k, s) for k, v in enumerate(c, start=1))
    return scale * math.pow(math.fsum(terms), 1.0 / space.q)


def test_lp_and_lpq_norms_agree_with_an_fsum_reference():
    rng = np.random.default_rng(77)
    for sp in [Lp(1.0), Lp(1.5), Lp(2.0), Lp(3.0), Lp(6.0), LpQ(2.0, 4.0)]:
        for n in (1, 2, 17, 256, 1000, 4096):
            for log10_c in rng.uniform(-250.0, 250.0, 4).tolist() + [-250.0, 250.0]:
                x = rng.standard_normal(n) * 10.0**log10_c
                want = _fsum_norm(sp, x.tolist())
                assert abs(norm(sp, x) - want) <= 1e-15 * want, (sp, n, log10_c)


# power tables -----------------------------------------------------------------

GROWTH_LENGTHS = [1, 2, 3, 4, 5, 15, 16, 17, 100, 255, 256, 257, 1000, 4095, 4096, 4097,
                  8192, 8193, 40000, spaces._TABLE_LEN, spaces._TABLE_LEN + 1]


def _uncached_norm(space, x) -> float:
    """The power-weight norms with k^s computed afresh, as before the tables."""
    b, scale = spaces._descending(x)
    k = np.arange(1, b.size + 1, dtype=float)
    if isinstance(space, Lorentz):
        w = np.power(k, -space.w.theta)
        return scale * float(np.add.reduce((b * w) ** space.q) ** (1.0 / space.q))
    if space.q == math.inf:
        return scale * float(np.max(b * np.power(k, 1.0 / space.p)))
    s = np.add.reduce(b**space.q * np.power(k, space.q / space.p - 1.0))
    return scale * float(s ** (1.0 / space.q))


TABLE_SPACES = [Lorentz(q, power_weights(theta)) for theta in (0.1, 0.25, 0.3, 0.4) for q in (1.0, 2.0)] + [
    LpQ(3.0, 2.0), LpQ(2.0, 4.0), LpQ(2.5, 2.0), LpQ(2.0, 1.0), LpQ(3.0, math.inf),
]


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_cached_power_tables_match_the_uncached_formula(order, monkeypatch):
    monkeypatch.setattr(spaces, "_power_tables", {})
    rng = np.random.default_rng(41)
    lengths = GROWTH_LENGTHS if order == "increasing" else GROWTH_LENGTHS[::-1]
    for n in lengths:
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.1] = 0.0
        for sp in TABLE_SPACES:
            assert norm(sp, x) == _uncached_norm(sp, x)


def test_power_sum_head_matches_the_uncached_cumsum(monkeypatch):
    monkeypatch.setattr(spaces, "_power_tables", {})
    monkeypatch.setattr(spaces, "_power_heads", {})
    pts = np.array([1, 2, 17, 4095, 4096])
    for s in (-0.25, -0.5, -1.0 / 3.0, 1.0):
        spaces._powers(s, 16)  # a short table first: the head must grow it
        head = np.cumsum(np.arange(1, spaces._EM_HEAD + 1, dtype=float) ** s)
        for _ in range(2):  # built, then read back from the cache
            assert np.array_equal(spaces._power_partial_sums(s, pts), head[pts - 1])


def test_cached_tables_are_read_only():
    table = spaces._powers(-0.25, 64)
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 2.0
    spaces._power_partial_sums(-0.5, np.array([3]))
    with pytest.raises(ValueError, match="read-only"):
        spaces._power_heads[-0.5][0] = 2.0


def test_distinct_is_what_np_unique_returns():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 50, 1000):
        a = rng.integers(1, 40, size).astype(np.int64)
        want = np.unique(a)
        got = spaces._distinct(a)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_import_builds_no_power_table():
    code = (
        "import symseq, symseq.cli, symseq.verify\n"
        "from symseq import spaces\n"
        "assert not spaces._power_tables and not spaces._power_heads\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_power_tables_keep_a_bounded_number_of_exponents(monkeypatch):
    monkeypatch.setattr(spaces, "_power_tables", {})
    monkeypatch.setattr(spaces, "_power_heads", {})
    for s in np.linspace(-0.9, 0.9, 1000).tolist():
        assert np.array_equal(spaces._powers(s, 20), np.power(np.arange(1, 21, dtype=float), s))
        spaces._power_partial_sums(s, np.array([5, 5000]))
        assert len(spaces._power_tables) <= spaces._TABLE_EXPONENTS
        assert len(spaces._power_heads) <= spaces._TABLE_EXPONENTS
    assert all(t.size <= spaces._TABLE_LEN for t in spaces._power_tables.values())


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
    # Orlicz: phi(n) = 1 / N^{-1}(1/n), the norm of an indicator; for t^p
    # that is n^{1/p}
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
    # N^{-1}(s) = 1 / phi(1/s)
    N = OrliczFn.power_log(2.0, 0.6)
    for u in np.geomspace(1e-8, 1.0, 64):
        s = float(N(np.array([u]))[0])
        assert 1.0 / spaces._orlicz_phi(N, 1.0 / s) == pytest.approx(u, rel=1e-9)


@pytest.mark.parametrize("N", [OrliczFn.power(1.0), OrliczFn.power(1.5), OrliczFn.power(3.0),
                               OrliczFn.power_log(2.0, 0.6), OrliczFn.power_log(2.0, 2.0 / 3.0)],
                         ids=["t", "t1.5", "t3", "t2_log", "edge"])
def test_orlicz_phi_is_the_norm_of_an_indicator(N):
    # moments S0 = n and S1 = 0: the same Newton solve, bit for bit
    for n in [*range(1, 41), 1000, 4096, 12345]:
        assert fundamental_function(Orlicz(N), n) == norm(Orlicz(N), np.ones(n)), n
    top = fundamental_function(Orlicz(N), 1 << 996)
    assert math.isfinite(top) and top == spaces._orlicz_phi(N, 2.0**996)
    with pytest.raises(ValueError, match=r"needs n <= 2\^996: .* served for k <= 996"):
        fundamental_function(Orlicz(N), (1 << 996) + 1)


# weights and constructors ---------------------------------------------------


def test_power_weights_values():
    w = power_weights(0.5)
    assert np.allclose(w.values(4), [1.0, 2**-0.5, 3**-0.5, 0.5])
    assert w.theta == 0.5


def test_weight_seq_holds_theta_or_an_array():
    assert WeightSeq(theta=1) == power_weights(1.0) and WeightSeq(data=[1, 0.5]).data == (1.0, 0.5)
    for both_or_none in ({}, {"theta": 0.5, "data": (1.0,)}):
        with pytest.raises(ValueError, match="exactly one of theta and data"):
            WeightSeq(**both_or_none)
    for theta in (-0.1, math.nan):
        with pytest.raises(ValueError, match="power weights need theta >= 0"):
            power_weights(theta)
    # k^(-theta) must stay a positive float through k = 2^20 + 1
    assert power_weights(53.0).values_at(np.array([2.0**20 + 1]))[0] > 0.0
    for theta in (60.0, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            power_weights(theta)
    with pytest.raises(ValueError, match="at least one value"):
        WeightSeq(data=())


def test_weight_and_parameter_validation():
    with pytest.raises(ValueError):
        Lp(0.5)
    with pytest.raises(ValueError):
        LpQ(0.0, 1.0)
    with pytest.raises(ValueError):
        OrliczFn.power(0.5)
    with pytest.raises(ValueError):
        # t^p (1 + a |ln t|) needs 0 <= a < p
        OrliczFn(2.0, 2.5)
    with pytest.raises(ValueError):
        # nonincreasing-weight requirement
        Lorentz(1.0, WeightSeq(data=(1.0, 2.0)))


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_orlicz_powers_refuse_a_non_finite_p(p):
    # t^inf is infinite past 1: no Orlicz function
    with pytest.raises(ValueError, match=f"OrliczFn needs a finite p >= 1 and 0 <= a < p, got p = {p}, a = 0.0"):
        OrliczFn.power(p)
    with pytest.raises(ValueError, match=f"OrliczFn needs a finite p >= 1 and 0 <= a < p, got p = {p}, a = 0.6"):
        OrliczFn.power_log(p, 0.6)


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


# The space grammar is closed: every space the library builds is a JSON form.
def test_every_builtin_space_and_json_form_round_trips():
    specs = [sp for _, sp in BUILTIN_SPACES] + [space_from_json(obj) for obj in ROUND_TRIP_OBJS]
    specs += [Lorentz(2.0, WeightSeq(data=(1, 0.5))), Orlicz(OrliczFn.power_log(2.0, 0.0))]
    for sp in specs:
        assert space_from_json(space_to_json(sp)) == sp, sp
    for obj in ROUND_TRIP_OBJS:
        assert space_to_json(space_from_json(obj)) == obj
    # equality is by value, and the values hash
    assert power_weights(0.25) == power_weights(0.25) and OrliczFn.power(2.0) == OrliczFn(2)
    assert len({OrliczFn.power_log(2.0, 0.6), OrliczFn.power_log(2.0, 0.6), OrliczFn.power(2.0)}) == 2


def test_array_weights_refuse_scattered_reads_at_every_index():
    # values_at serves power weights only; in range or not, an array refuses it
    w = WeightSeq(data=(1.0, 0.5, 0.25))
    for idx in ([1.0], [1.0, 2.0], [2.0**40]):
        with pytest.raises(ValueError, match="array weights \\(3 values\\) are read only as a prefix") as e:
            w.values_at(np.array(idx))
        assert "use power weights" in str(e.value) and "hold 3 values, but" not in str(e.value)
    assert w.values(3).tolist() == [1.0, 0.5, 0.25]


def test_weights_and_orlicz_functions_refuse_a_callable():
    for make in (lambda: WeightSeq(lambda k: k**-0.5), lambda: WeightSeq(data=lambda k: k),
                 lambda: OrliczFn(lambda t: t**2), lambda: OrliczFn(2.0, a=lambda t: t)):
        with pytest.raises(TypeError, match="not a callable"):
            make()


def test_space_json_is_plain_data():
    for obj in ROUND_TRIP_OBJS:
        json.dumps(space_to_json(space_from_json(obj)))
