"""Dilation and fundamental indices: closed forms, convergence, reports.

Pinned regression values (the power_log family) were produced once at the
parameters shown and frozen; the slowly-varying factor moves both indices
toward 1/2 as the profile window grows, which the drift assertions track.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symseq import indices, spaces
from symseq._limits import estimate_rate
from symseq.indices import (
    Interval,
    _check_window,
    _lorentz_profiles,
    _subgrid,
    index_report,
    report_to_json,
    weight_ratio_indices,
)
from symseq.spaces import (
    _EM_HEAD,
    Lorentz,
    Lp,
    LpQ,
    Orlicz,
    OrliczFn,
    WeightSeq,
    _em_remainder_bound,
    _power_partial_sums,
    power_weights,
)

LIGHT = dict(n_max=12, j_max=1 << 12, k_max=120)


def alpha_beta(space, **kw):
    rep = index_report(space, **kw)
    return rep.alpha, rep.beta


# closed forms ---------------------------------------------------------------


def test_lp_indices_are_one_over_p():
    for p in (1.0, 1.5, 2.0, 3.0, 10.0):
        a, b = alpha_beta(Lp(p))
        assert a.point == pytest.approx(1.0 / p, abs=1e-12)
        assert b.point == pytest.approx(1.0 / p, abs=1e-12)
        assert a.method == "closed_form"


def test_lp_infinity_indices_vanish():
    a, b = alpha_beta(Lp(math.inf))
    assert a.point == 0.0 and b.point == 0.0


def test_f_interval_lp():
    for p in (1.0, 2.0, 3.0):
        rep = index_report(Lp(p))
        lo, hi = rep.f_interval
        assert lo == pytest.approx(p, rel=1e-9)
        assert hi == pytest.approx(p, rel=1e-9)
    rep = index_report(Lp(math.inf))
    assert rep.f_interval == (math.inf, math.inf)


def test_lpq_indices_depend_on_p_only():
    for p, q in ((2.0, 1.0), (3.0, 2.0), (2.0, 4.0)):
        a, b = alpha_beta(LpQ(p, q), **LIGHT)
        assert a.point == pytest.approx(1.0 / p, abs=2e-3)
        assert b.point == pytest.approx(1.0 / p, abs=2e-3)


def test_quasi_variant_is_tagged():
    a, b = alpha_beta(LpQ(2.0, 4.0), **LIGHT)
    assert a.method.endswith("(quasi)")
    assert b.method.endswith("(quasi)")


def test_lorentz_power_weight_indices():
    # w = k^{-theta}: both indices equal (1 - theta q)/q
    for q, theta in ((1.0, 0.3), (2.0, 0.25), (2.0, 0.4)):
        a, b = alpha_beta(Lorentz(q, power_weights(theta)), **LIGHT)
        want = (1.0 - theta * q) / q
        assert a.point == pytest.approx(want, abs=5e-3)
        assert b.point == pytest.approx(want, abs=5e-3)


def test_orlicz_power_indices_exact():
    for p in (1.5, 2.0, 3.0):
        a, b = alpha_beta(Orlicz(OrliczFn.power(p)), n_max=20)
        assert a.point == pytest.approx(1.0 / p, abs=1e-10)
        assert b.point == pytest.approx(1.0 / p, abs=1e-10)


# interval semantics ----------------------------------------------------------


def test_intervals_bracket_their_point():
    spaces = [
        Lp(2.0),
        LpQ(3.0, 2.0),
        Lorentz(2.0, power_weights(0.25)),
        Orlicz(OrliczFn.power_log(2.0, 0.6)),
    ]
    for sp in spaces:
        a, b = alpha_beta(sp, **LIGHT)
        for iv in (a, b):
            assert 0.0 <= iv.lo <= iv.point <= iv.hi <= 1.0


def test_index_ordering_chain():
    spaces = [
        Lp(1.5),
        LpQ(3.0, 2.0),
        Lorentz(2.0, power_weights(0.25)),
        Orlicz(OrliczFn.power(2.0)),
    ]
    for sp in spaces:
        rep = index_report(sp, **LIGHT)
        assert rep.alpha.point <= rep.mu + 1e-6
        assert rep.mu <= rep.nu + 1e-6
        assert rep.nu <= rep.beta.point + 1e-6


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(lo=0.5, hi=0.4, point=0.45, method="closed_form")


# routes agree ----------------------------------------------------------------


def test_fundamental_and_dilation_routes_coincide():
    # one profile pass serves both routes: mu, nu are the alpha, beta points
    for sp in (Lp(2.0), Lorentz(2.0, power_weights(0.25)), Orlicz(OrliczFn.power(1.5))):
        rep = index_report(sp, **LIGHT)
        assert rep.mu == rep.alpha.point and rep.nu == rep.beta.point


def test_lorentz_simplified_route_matches_direct():
    # the weight-ratio route hits the index (1 - theta q)/q of w = k^{-theta}
    # and agrees with the partial-sum profile, except at theta = 0.49, q = 2,
    # just inside the condition theta < 1/q, where the profile converges slowly
    for q, theta in ((1.0, 0.3), (2.0, 0.25), (2.0, 0.49)):
        space = Lorentz(q, power_weights(theta))
        a2, b2 = weight_ratio_indices(space, n_max=12)
        want = (1.0 - theta * q) / q
        assert a2.point == pytest.approx(want, abs=1e-9)
        assert b2.point == pytest.approx(want, abs=1e-9)
        if theta != 0.49:
            a1, b1 = alpha_beta(space, n_max=12, j_max=1 << 12)
            assert a1.point == pytest.approx(a2.point, abs=2e-3)
            assert b1.point == pytest.approx(b2.point, abs=2e-3)


@pytest.mark.parametrize("n_max", [1, 257, 500, 900])
def test_lorentz_simplified_route_refuses_n_max_past_its_profile(n_max):
    # the dyadic profile has 256 steps: past them every ratio is empty
    with pytest.raises(ValueError, match="2 <= n_max <= 256"):
        weight_ratio_indices(Lorentz(2.0, power_weights(0.25)), n_max=n_max)


def test_lorentz_simplified_route_takes_n_max_256():
    a, b = weight_ratio_indices(Lorentz(2.0, power_weights(0.25)), n_max=256)
    assert a.point == pytest.approx(0.25, abs=1e-9) and b.point == pytest.approx(0.25, abs=1e-9)


def test_lorentz_simplified_route_refuses_irregular_weights():
    # w = k^{-theta}: the dyadic ratio limit 2^theta must stay below 2^{1/q}
    for q, theta in ((2.0, 0.7), (3.0, 0.5), (1.0, 1.2)):
        with pytest.raises(ValueError, match="weight-ratio route"):
            weight_ratio_indices(Lorentz(q, power_weights(theta)), n_max=8)


# regression pins -------------------------------------------------------------


def test_power_log_regression_pins():
    sp = Orlicz(OrliczFn.power_log(2.0, 0.6))
    a, b = alpha_beta(sp, n_max=12, k_max=120)
    assert a.point == pytest.approx(0.5051620178451088, abs=1e-12)
    assert b.point == pytest.approx(0.5239244574720514, abs=1e-12)
    assert a.method == "truncated_sup"
    # slowly-varying factor: true indices are 1/2, truncation drifts upward
    assert abs(a.point - 0.5) < 0.03 and abs(b.point - 0.5) < 0.03
    rep = index_report(sp, n_max=12, k_max=120)
    assert rep.f_interval[0] == pytest.approx(1.9086721105272026, abs=1e-9)
    assert rep.f_interval[1] == pytest.approx(1.9795629217448742, abs=1e-9)


def test_power_log_window_growth_tightens():
    sp = Orlicz(OrliczFn.power_log(2.0, 0.6))
    _, b_small = alpha_beta(sp, n_max=10, k_max=120)
    _, b_big = alpha_beta(sp, n_max=20, k_max=200)
    assert abs(b_big.point - 0.5) < abs(b_small.point - 0.5)


# report serialization ---------------------------------------------------------


LORENTZ = Lorentz(2.0, power_weights(0.25))
ORLICZ = Orlicz(OrliczFn.power(1.5))


@pytest.mark.parametrize("space, window", [
    (Lp(2.0), dict(n_max=0)),
    (LORENTZ, dict(j_max=0)),
    (LORENTZ, dict(j_max=(1 << 20) + 1)),
    (ORLICZ, dict(k_max=-1)),
    (Lp(2.0), dict(n_max=990, k_max=7)),
    (ORLICZ, dict(n_max=797)),
    (LORENTZ, dict(n_max=60)),
    (LpQ(3.0, 2.0), dict(n_max=62, j_max=2)),
    # 95 2^56 < 2^63, but the beta subgrid rounds 95 up to 128 = 64 2^1
    (LORENTZ, dict(n_max=56, j_max=95)),
])
def test_index_window_rule_refuses_before_any_grid(space, window):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="index_report needs"):
            index_report(space, **window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_index_window_rule_admits_its_edges():
    # checked without building the grids: the second and third cases reach
    # the largest point 2^62
    for space, n_max, j_max, k_max in [
        (LORENTZ, 15, (1 << 18) - 64, 0),
        (LpQ(3.0, 2.0), 62, 1, 0),
        (LORENTZ, 55, 95, 0),
        (ORLICZ, 796, 1, 200),
        (Lp(2.0), 1, 1 << 20, 995),
    ]:
        _check_window(space, n_max, j_max, k_max)
    assert index_report(Lp(2.0), n_max=996, k_max=0).alpha.point == 0.5


@pytest.mark.parametrize("space, window", [
    (LORENTZ, dict(n_max=15, j_max=1 << 18)),
    (LpQ(3.0, 2.0), dict(n_max=42, j_max=1 << 20)),
    (LORENTZ, {}),
    (LpQ(3.0, 2.0), {}),
])
def test_lorentz_profile_memory_does_not_grow_with_j_max(space, window):
    # the profile reads W on {2^i <= j_max} u {j_max} only, so the largest
    # admitted j_max costs no more than the default window
    tracemalloc.start()
    try:
        rep = index_report(space, **window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rep.alpha.lo <= rep.alpha.point <= rep.alpha.hi


def _sup_loop_profiles(space, n_max, j_max, j):
    """``_lorentz_profiles`` as per-n sup loops over the sorted inner grid j:
    every j <= j_max is the dense reference for the dyadic window, and the
    dyadic window itself (the loops ``_lorentz_profiles`` ran before it read
    two chains) the reference for the chains."""
    j_small, n_ext = _subgrid(n_max, j_max)
    js = j[j <= j_small]
    grids = [j] + [j * (1 << n) for n in range(1, n_max + 1)]
    grids += [js * (1 << n) for n in range(n_max + 1, n_ext + 1)]
    pts = np.unique(np.concatenate(grids))
    logw = np.log2(spaces._weight_sums(space, pts))

    def at(grid, n):
        return logw[np.searchsorted(pts, grid * (1 << n))]

    base = at(j, 0)
    L = np.empty(n_max)
    U_dense = np.empty(n_max)
    U_small = np.empty(n_ext)
    for n in range(1, n_max + 1):
        d = at(j, n) - base
        U_dense[n - 1] = float(np.max(d)) / space.q
        L[n - 1] = float(-np.min(d)) / space.q
        U_small[n - 1] = float(np.max(d[: js.size])) / space.q
    for n in range(n_max + 1, n_ext + 1):
        U_small[n - 1] = float(np.max(at(js, n) - base[: js.size])) / space.q
    if U_dense[-1] - U_small[n_max - 1] > 1e-9:
        return U_dense, L
    return U_small, L


def _dense_lorentz_profiles(space, n_max, j_max):
    return _sup_loop_profiles(space, n_max, j_max, np.arange(1, j_max + 1, dtype=np.int64))


def _reference_lorentz_profiles(space, n_max, j_max):
    window = np.append(1 << np.arange(int(j_max).bit_length(), dtype=np.int64), j_max)
    return _sup_loop_profiles(space, n_max, j_max, np.unique(window))


# the built-in and benchmark-drawn power profiles, W(j) = sum k^s with s != 0
POWER_PROFILES = [
    *(Lorentz(q, power_weights(th)) for q, th in ((1.0, 0.3), (2.0, 0.1), (2.0, 0.25),
                                                   (2.0, 0.3), (2.0, 0.4))),
    *(LpQ(p, q) for p, q in ((2.0, 1.0), (3.0, 2.0), (2.0, 4.0), (2.5, 2.0), (4.0, 2.0),
                             (5.0, 2.0), (6.0, 2.0))),
]
PROFILE_WINDOWS = [(16, 1 << 14), (12, 1 << 12), (9, 1000)] + [
    (16, j_max) for j_max in (1, 2, 63, 64, 65, 95, 1000)
]


@pytest.mark.parametrize("n_max, j_max", PROFILE_WINDOWS)
def test_dyadic_lorentz_profile_matches_the_dense_one(n_max, j_max):
    # a pure-power ratio W(2^n j)/W(j) is monotone in j, so its extremes over
    # 1..j_max sit at j = 1 and j = j_max, which the dyadic window holds
    for space in POWER_PROFILES:
        U, L = _lorentz_profiles(space, n_max, j_max)
        U_ref, L_ref = _dense_lorentz_profiles(space, n_max, j_max)
        assert np.array_equal(U, U_ref) and np.array_equal(L, L_ref), (space, n_max, j_max)
    # s = 0: the ratio is 2^n at every j, so rounding alone picks the extreme
    for space in (Lorentz(1.0, power_weights(0.0)), Lorentz(3.0, power_weights(0.0)),
                  LpQ(2.0, 2.0)):
        U, L = _lorentz_profiles(space, n_max, j_max)
        U_ref, L_ref = _dense_lorentz_profiles(space, n_max, j_max)
        assert np.max(np.abs(U - U_ref)) <= 4e-15 and np.max(np.abs(L - L_ref)) <= 4e-15


def _reference_orlicz_profiles(N, n_max, k_max):
    """The Orlicz profile as ratios of N^{-1}(2^-k) = 1 / phi(2^k), with U
    and L swapped: the reference for the log2 phi(2^k) profile.  phi(2^k)
    is the moment root of a 2^k-entry indicator, S0 = 2^k and S1 = 0."""
    loginv = -np.log2([spaces._moment_root(N.p, 2.0**k, N.a * 2.0**k)
                       for k in range(k_max + n_max + 1)])
    L, U = indices._ratio_sups(loginv, n_max, window=k_max + 1)
    return U, L


# every power profile shape: s = 0 (theta = 0, l^{p,p}), s < 0, and the
# increasing pseudo-weights of the quasi l^{p,q} (q > p)
CHAIN_POWER_SPACES = [
    *(Lorentz(q, power_weights(th / 10)) for q in (1.0, 1.5, 2.0, 3.0) for th in range(10)),
    *(LpQ(p, q) for p in (1.5, 2.0, 3.0, 4.0, 6.0) for q in (1.0, 2.0, 4.0, p)),
]
CHAIN_POWER_WINDOWS = [(16, 1 << 14), (12, 1 << 12), (9, 1000), (9, 3000), (42, 1 << 20),
                       (20, 1 << 20), (3, 5)] + [
    (16, j_max) for j_max in (1, 2, 63, 64, 65, 95, 1000)
]
# array weights hold every term up to the last point read, so their windows
# stay within 2^16 terms; the first two are irregular profiles sampled there
_IRREGULAR_K = np.arange(1.0, (1 << 16) + 1.0)
IRREGULAR_SPACES = [
    Lorentz(2.0, WeightSeq(data=tuple((1.0 + 1.0 / _IRREGULAR_K) * _IRREGULAR_K**-0.25))),
    Lorentz(1.5, WeightSeq(data=tuple(1.0 / np.log2(_IRREGULAR_K + 1.0)))),
    Lorentz(2.0, WeightSeq(data=tuple(
        np.sort(np.random.default_rng(3).uniform(0.05, 1.0, 1 << 16))[::-1]))),
]
IRREGULAR_WINDOWS = [(3, 1), (8, 2), (5, 63), (6, 64), (4, 65), (6, 95), (5, 1000),
                     (2, 3000), (10, 17), (1, 1 << 15)]


def test_chain_profiles_are_bit_identical_to_the_sup_loops(monkeypatch):
    # the same points summed (the profile reads them as its two chains
    # fall, the reference sorted and distinct), and a max over the union of
    # J is the max of the two chain maxes
    calls = []
    real = spaces._weight_sums

    def recording(space, pts):
        calls.append(np.asarray(pts).copy())
        return real(space, pts)

    monkeypatch.setattr(spaces, "_weight_sums", recording)
    monkeypatch.setattr(indices, "_weight_sums", recording)
    corpus = [(sp, w) for sp in CHAIN_POWER_SPACES for w in CHAIN_POWER_WINDOWS]
    corpus += [(sp, w) for sp in IRREGULAR_SPACES for w in IRREGULAR_WINDOWS]
    assert len(corpus) >= 800
    for space, (n_max, j_max) in corpus:
        _check_window(space, n_max, j_max, 0)
        calls.clear()
        U, L = _lorentz_profiles(space, n_max, j_max)
        U_ref, L_ref = _reference_lorentz_profiles(space, n_max, j_max)
        assert np.array_equal(np.unique(calls[0]), calls[1]), (space, n_max, j_max)
        assert np.array_equal(U, U_ref) and np.array_equal(L, L_ref), (space, n_max, j_max)


@pytest.mark.parametrize("n_max, k_max", [(16, 200), (12, 120), (20, 200), (1, 0), (5, 10),
                                          (40, 956)])
def test_orlicz_log_phi_profile_is_bit_identical_to_the_inverse_ratios(n_max, k_max):
    # log2 N^{-1}(2^-k) = -log2 phi(2^k) of the one phi producer: negation
    # is exact, so the sups of phi are the swapped sups of N^{-1} bit for bit
    for N in (OrliczFn.power(1.5), OrliczFn.power(3.0), OrliczFn.power(1.0),
              OrliczFn.power_log(2.0, 0.6), OrliczFn.power_log(3.0, 0.3)):
        U, L, _ = indices._profiles(Orlicz(N), n_max, 1, k_max)
        U_ref, L_ref = _reference_orlicz_profiles(N, n_max, k_max)
        assert np.array_equal(U, U_ref) and np.array_equal(L, L_ref), (N, n_max, k_max)


def test_report_to_json_shape():
    rep = index_report(Lp(2.0))
    obj = report_to_json(rep)
    assert obj["alpha"]["point"] == pytest.approx(0.5)
    assert obj["f_interval"] == [2.0, 2.0]
    assert set(obj["method"]) == {"alpha", "beta", "mu", "nu"}
    obj_inf = report_to_json(index_report(Lp(math.inf)))
    assert obj_inf["f_interval"] == ["inf", "inf"]


# kernels ----------------------------------------------------------------------


def _compensated_cumsum(x: np.ndarray, hi: float, lo: float):
    """Prefix sums of (hi + lo) + x_1 + x_2 + ..., carrying every rounding error.

    Each step of the running sum loses an error that TwoSum recovers exactly;
    the errors are summed apart in ``lo`` and added back at each position, so
    the running total stays within ~1 ulp however long it runs.  Returns the
    prefix sums and the (hi, lo) pair after the last term.
    """
    run = np.cumsum(np.concatenate(([hi], x)))
    prev, cur = run[:-1], run[1:]
    back = cur - prev
    low = lo + np.cumsum((prev - (cur - back)) + (x - back))
    return cur + low, float(cur[-1]), float(low[-1])


def partial_sums_at(term, points: np.ndarray, chunk: int = 1 << 22) -> np.ndarray:
    """Partial sums sum_{k<=p} term(k) at sorted positive int positions.

    The reference for the closed-form power sums: it streams 1..max(points)
    in chunks, sums each stretch between requested positions pairwise and
    compensates the running total over the stretches, so no error builds up
    along the stream.
    """
    pts = np.asarray(points, dtype=np.int64)
    out = np.empty(pts.size)
    hi = lo = 0.0
    top = int(pts[-1])
    for start in range(1, top + 1, chunk):
        end = min(start + chunk - 1, top)
        terms = term(np.arange(start, end + 1, dtype=float))
        first = np.searchsorted(pts, start, side="left")
        last = np.searchsorted(pts, end, side="right")
        # stretch i ends at the i-th point of the chunk; a tail past the last
        # point only feeds the running total
        cuts = pts[first:last] - start + 1
        heads = np.concatenate(([0], cuts[cuts < terms.size]))
        sums, hi, lo = _compensated_cumsum(np.add.reduceat(terms, heads), hi, lo)
        out[first:last] = sums[: cuts.size]
    return out


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=1, max_value=100000), min_size=1, max_size=30))
def test_partial_sums_at_matches_direct_cumsum(points):
    pts = np.unique(np.asarray(points, dtype=np.int64))
    fn = lambda k: np.asarray(k, dtype=float) ** -0.5
    got = partial_sums_at(fn, pts)
    want = np.array([np.sum(fn(np.arange(1, p + 1))) for p in pts])
    assert np.allclose(got, want, rtol=1e-10)


def test_partial_sums_at_does_not_drift():
    # a sequential cumsum of the squares drifted 3.3e-12 relative by 2^23
    pts = np.array([1 << k for k in range(24)])
    want = np.array([float(n * (n + 1) * (2 * n + 1) // 6) for n in pts.tolist()])
    got = partial_sums_at(lambda k: k * k, pts)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-15


def test_partial_sums_at_carries_the_total_across_chunks():
    # small chunks put many stretch ends, chunk ends and carries in one stream
    vals = np.random.default_rng(4).random(10000)
    pts = np.array([1, 2, 3, 999, 1000, 1001, 2500, 5000, 9999])
    got = partial_sums_at(lambda k: vals[k.astype(np.int64) - 1], pts, chunk=1000)
    want = np.array([math.fsum(vals[:p]) for p in pts.tolist()])
    assert np.all(np.abs(got - want) <= np.spacing(want))


# Exponents of every built-in profile shape: both sides of s = -1 (where the
# integral turns logarithmic), the constant, and increasing powers.
EM_EXPONENTS = (-1.2, -1.0, -1.0 + 1e-9, -0.8, -0.5, -1.0 / 3.0, 0.0, 0.5, 2.0)
EM_POINTS = np.unique(
    np.concatenate(
        [
            np.arange(1, 70),
            _EM_HEAD + np.arange(-3, 4),
            np.geomspace(1 << 13, 1 << 24, 40).astype(np.int64),
            [1 << 24],
        ]
    )
)


@pytest.mark.parametrize("s", EM_EXPONENTS)
def test_power_partial_sums_match_the_stream(s):
    got = _power_partial_sums(s, EM_POINTS)
    if s == 2.0:
        # squares are integers: their exact sums are at hand
        want = np.array([float(n * (n + 1) * (2 * n + 1) // 6) for n in EM_POINTS.tolist()])
    else:
        want = partial_sums_at(lambda k: k**s, EM_POINTS)
    assert np.max(np.abs(got / want - 1.0)) < 2e-13


@pytest.mark.parametrize("s", EM_EXPONENTS)
def test_power_partial_sums_head_is_the_cumsum(s):
    head = np.cumsum(np.arange(1, _EM_HEAD + 1, dtype=float) ** s)
    pts = EM_POINTS[EM_POINTS <= _EM_HEAD]
    assert np.array_equal(_power_partial_sums(s, pts), head[pts - 1])


@pytest.mark.parametrize("s", EM_EXPONENTS)
def test_power_partial_sums_remainder_bound(s):
    far = EM_POINTS[EM_POINTS > _EM_HEAD]
    sums = _power_partial_sums(s, far)
    assert np.all(_em_remainder_bound(s, far.astype(float)) < 1e-16 * sums)


def test_power_partial_sums_of_ones_count_exactly():
    assert np.array_equal(_power_partial_sums(0.0, EM_POINTS), EM_POINTS.astype(float))


POWER_PROFILE_SPACES = [
    Lorentz(2.0, power_weights(0.25)),
    Lorentz(1.0, power_weights(0.3)),
    LpQ(3.0, 2.0),
    LpQ(2.0, 4.0),
]


def test_power_profiles_never_stream(monkeypatch):
    # the default window reads W(2^30): every sum is the closed form, in
    # memory that does not grow with the positions read
    tops = []
    closed = spaces._power_partial_sums

    def recording(s, pts):
        tops.append(int(pts[-1]))
        return closed(s, pts)

    monkeypatch.setattr(spaces, "_power_partial_sums", recording)
    for sp in POWER_PROFILE_SPACES:
        tops.clear()
        tracemalloc.start()
        try:
            rep = index_report(sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.alpha.method.startswith("truncated_sup")
        assert max(tops) >= 1 << 30 and peak < 1 << 20, (sp, peak)


def test_array_weights_are_summed_by_one_cumsum():
    # 1/(1 + ln k) as an array: the window reads W at 2^8 2^8 = 2^16 at most
    k = np.arange(1.0, (1 << 16) + 1.0)
    w = WeightSeq(data=tuple(1.0 / (1.0 + np.log(k))))
    rep = index_report(Lorentz(2.0, w), n_max=8, j_max=1 << 8)
    # the values an exactly rounded (math.fsum) profile gives; the sequential
    # cumsum puts beta.point 2.0e-13 below its value
    assert rep.alpha.point == pytest.approx(0.269723531772476, abs=1e-12)
    assert rep.alpha.lo == pytest.approx(0.21258402081148384, abs=1e-12)
    assert rep.beta.point == pytest.approx(0.44314307038596307, abs=1e-12)
    assert rep.beta.lo == pytest.approx(0.29504300342113154, abs=1e-12)
    # one value short, the refusal names the array length and the position
    with pytest.raises(ValueError, match=r"hold 65535 values, but this request reads w_k at "
                                         r"k = 65536; use power weights or a longer array"):
        index_report(Lorentz(2.0, WeightSeq(data=w.data[:-1])), n_max=8, j_max=1 << 8)


def test_estimate_rate_geometric_decay_converges():
    # L(n) = c n + r^n noise: the point estimate recovers c
    n = np.arange(1, 17, dtype=float)
    L = 0.37 * n + 0.8**n
    est = estimate_rate(L)
    assert est.point == pytest.approx(0.37, abs=1e-3)
    assert est.fekete >= 0.37 - 1e-12  # fekete minimum upper-bounds the limit


def test_estimate_rate_exact_linear():
    L = 0.25 * np.arange(1, 11, dtype=float)
    est = estimate_rate(L)
    assert est.point == pytest.approx(0.25, abs=1e-13)
    assert est.at_n_max == pytest.approx(0.25, abs=1e-13)
