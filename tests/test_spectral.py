"""Witness constructions, residual scans and the exact shift machinery.

The scan oracle below is a dense SVD: for p = 2 the true minimum of
||(D - lambda)x||_2 over unit vectors supported on the first d coordinates
is the smallest singular value of the associated (2d+2) x d matrix.  Scan
estimates must stay above it (they exhibit a witness, never beat the
optimum) and within a modest factor of it (frozen after an oracle run).

``rational_dilation`` below is the earlier Fraction-keyed orbit kernel, kept
verbatim as the exact reference for the int64 kernel ``_dilate``; likewise
``ambient_vn`` and ``ambient_scan_residual`` are the earlier materialized
doubling-orbit witness and scan evaluation, the references for the
block-coordinate residual; ``materialized_un`` is the earlier materialized
branch of ``branching_witness``, the reference for its orbit-coefficient
route; ``reference_ex_norm_lp`` is the earlier scalar l^p block norm, the
reference for the row-wise one.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symseq import lattices, spaces, spectral
from symseq.lattices import EX, lattice_norm
from symseq.operators import Doubling, DoublingMinusLambda, apply_array
from symseq.seq import Seq
from symseq.spaces import Lorentz, Lp, LpQ, Orlicz, OrliczFn, norm, power_weights
from symseq.spectral import (
    WitnessReport,
    _dilate,
    _merge,
    _orbits,
    branching_witness,
    check_disjoint_supports,
    doubling_orbit_witness,
    moment_functional,
    residual_scan,
    shift_identity_check,
    solve_shift_minus_lambda,
)
from symseq.verify import BUILTIN_SPACES

lam_fracs = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=9)
coef_fracs = st.fractions(min_value=-30, max_value=30, max_denominator=10)


# rational dilation ------------------------------------------------------------


def rational_dilation(base: int, x: dict) -> dict:
    """e_q -> sum_{i=0}^{base-1} e_{(q+i)/base} on Fraction-keyed vectors.

    Keys stay inside (0,1); Fraction keys are kept reduced automatically, so
    support disjointness is literal key inequality.  Colliding keys add.
    """
    if base < 2:
        raise ValueError("rational_dilation needs base >= 2")
    out: dict = {}
    for q, c in x.items():
        if not 0 < q < 1:
            raise ValueError(f"index {q} outside (0,1)")
        for i in range(base):
            key = Fraction(q + i, base)
            out[key] = out.get(key, 0) + c
    return out


def _on_kernel(base: int, x: dict, den: int) -> dict:
    """Run a Fraction-keyed vector through the int64 kernel and read it back."""
    num = np.array([int(q * den) for q in x], dtype=np.int64)
    coef = np.array([float(c) for c in x.values()])
    keys, out = _dilate(base, num, coef, den)
    return {Fraction(int(a), den): c for a, c in zip(keys, out)}


def test_rational_dilation_splits_mass():
    out = _on_kernel(2, {Fraction(1, 2): Fraction(3)}, 4)
    assert out == {Fraction(1, 4): Fraction(3), Fraction(3, 4): Fraction(3)}


def test_rational_dilation_merges_collisions():
    x = {Fraction(1, 3): Fraction(1), Fraction(2, 3): Fraction(2)}
    out = _on_kernel(3, x, 9)
    # 1/9,4/9,7/9 from the first atom; 2/9,5/9,8/9 from the second
    assert len(out) == 6 and out[Fraction(4, 9)] == Fraction(1)


def test_kernel_adds_repeated_keys():
    keys, coef = _dilate(3, np.array([3, 3]), np.array([1.0, 2.0]), 9)
    assert keys.tolist() == [1, 4, 7] and coef.tolist() == [3.0, 3.0, 3.0]


def test_kernel_orbits_match_the_fraction_reference():
    # every orbit up to (3, 3), keys read back as Fractions over one den
    den = 6 * 2**3 * 3**3
    got = {jk: orbit for jk, orbit in _orbits(3, 3, den)}
    row = {Fraction(1, 6): 1}
    for j in range(1, 4):
        row = cur = rational_dilation(2, row)
        for k in range(1, 4):
            cur = rational_dilation(3, cur)
            num, coef = got[(j, k)]
            assert [Fraction(int(a), den) for a in num] == sorted(cur)
            assert coef.tolist() == [cur[q] for q in sorted(cur)]


def test_disjoint_supports_small_grid():
    rep = check_disjoint_supports(3, 3)
    assert rep.ok and rep.collision is None
    assert rep.cardinalities[(2, 2)] == 4 * 9  # |orbit(l, m)| = 2^l 3^m


def test_disjoint_supports_refuses_int64_overflow():
    # keys over 6 2^1 3^40 would wrap in int64 instead of growing
    with pytest.raises(ValueError, match="int64"):
        check_disjoint_supports(1, 40)


def test_disjoint_supports_reports_the_first_shared_key(monkeypatch):
    real = spectral._orbits

    def overlapping(j_max, k_max, den):
        seen = {}
        for jk, (num, coef) in real(j_max, k_max, den):
            seen[jk] = num
            if jk == (2, 1):
                num = np.concatenate((seen[(1, 1)][:1], num[1:]))
            yield jk, (num, coef)

    monkeypatch.setattr(spectral, "_orbits", overlapping)
    rep = check_disjoint_supports(3, 3)
    assert not rep.ok
    assert rep.collision == ((1, 1), (2, 1), Fraction(1, 36))


# doubling-orbit witness ---------------------------------------------------------


def test_vn_residual_closed_form():
    for p in (1.0, 2.0, 3.0):
        for n in (1, 2, 4, 16, 64, 256):
            rep = doubling_orbit_witness(Lp(p), p, n)
            assert rep.norm_value == pytest.approx(1.0, abs=1e-12)
            assert rep.residual == pytest.approx((4.0 / n) ** (1.0 / p), abs=1e-11)
            assert rep.predicted == pytest.approx((4.0 / n) ** (1.0 / p), abs=1e-13)
            assert rep.lam == pytest.approx(2.0 ** (1.0 / p))


# The earlier ambient branch of doubling_orbit_witness, kept verbatim: it runs
# D n times on the materialized orbit and takes space norms.
_AMBIENT_CAP = 1 << 20


def ambient_vn(space, p, n, seed=None):
    if seed is not None and not isinstance(seed, Seq):
        seed = Seq(seed)
    lam = 2.0 ** (1.0 / p)
    default_seed = seed is None or seed == Seq((1.0,))
    seed = Seq((1.0,)) if seed is None else seed
    if seed.is_zero() or any(v < 0 for v in seed):
        raise ValueError("seed must be nonnegative and nonzero")
    y = seed.array
    if len(seed) << max(n - 1, 0) > _AMBIENT_CAP:
        raise ValueError(
            f"orbit support ~2^{n - 1} * {len(seed)} exceeds the ambient cap {_AMBIENT_CAP}"
        )
    parts = []
    for _ in range(n):
        parts.append(y)
        y = apply_array(Doubling(), y)
    v = np.zeros(parts[-1].size)
    for k, yk in enumerate(parts, start=1):
        v[: yk.size] += 2.0 ** ((1.0 - k) / p) * yk
    v *= n ** (-1.0 / p)
    den = norm(space, v)
    residual = norm(space, apply_array(DoublingMinusLambda(lam), v)) / den
    predicted = None
    if isinstance(space, Lp) and space.p == p and default_seed:
        predicted = (4.0 / n) ** (1.0 / p)
    return WitnessReport(
        lam=lam,
        n=n,
        residual=float(residual),
        predicted=predicted,
        support=int(np.count_nonzero(v)),
        norm_value=float(den),
    )


# The earlier candidate evaluation of the general scan, kept verbatim.
def ambient_scan_residual(space, lam, rho, m):
    k = np.arange(1, m + 1, dtype=float)
    a = rho ** (k - 1.0)
    v = np.repeat(a, 2 ** np.arange(m))
    den = norm(space, v)
    return norm(space, apply_array(DoublingMinusLambda(lam), v)) / den


ORLICZ_BUILTINS = [sp for _, sp in BUILTIN_SPACES if isinstance(sp, Orlicz)]
EXACT_SPACES = [Lp(2.0), Lp(math.inf), LpQ(3.0, 2.0), LpQ(2.0, 4.0), Lorentz(2.0, power_weights(0.25))]


def test_vn_block_residual_matches_the_ambient_orbit():
    for space in EXACT_SPACES + ORLICZ_BUILTINS:
        for p in (1.0, 1.5, 2.0, 3.0):
            for n in (1, 2, 3, 7, 12, 16):
                got, want = doubling_orbit_witness(space, p, n), ambient_vn(space, p, n)
                assert (got.lam, got.n, got.support) == (want.lam, want.n, want.support)
                assert got.predicted == want.predicted
                if space == Lp(math.inf):
                    assert got == want, (space, p, n)
                else:
                    # UN's solver, the closed l^p block sum and the sorted
                    # Lorentz and l^{p,q} run sums round differently
                    assert got.residual == pytest.approx(want.residual, rel=1e-14, abs=0)
                    assert got.norm_value == pytest.approx(want.norm_value, rel=1e-14, abs=0)


def test_scan_points_match_the_ambient_residual():
    for space in EXACT_SPACES + ORLICZ_BUILTINS:
        # l^p runs the closed-form family and the rho search: keep m small
        # enough to materialize every reported witness
        lp = isinstance(space, Lp) and space.p != math.inf
        for pt in residual_scan(space, [1.2, 1.5], dim=16 if lp else 1 << 10):
            want = ambient_scan_residual(space, pt.lam, pt.params["rho"], pt.params["m"])
            if space == Lp(math.inf):
                assert pt.estimate == want, (space, pt)
            else:
                assert pt.estimate == pytest.approx(want, rel=1e-12 if lp else 1e-14, abs=0)


def test_vn_limits_are_the_lattice_limits(monkeypatch):
    # the residual has n + 1 blocks, whose run ends must stay below 2^63
    for space in (Lorentz(2.0, power_weights(0.25)), LpQ(3.0, 2.0)):
        for n in (22, 40, 62):
            rep = doubling_orbit_witness(space, 2.0, n)
            assert rep.support == (1 << n) - 1 and 0.0 < rep.residual < 2.0
    # each cap is stated in n and refused before any block norm: UN allows
    # 64 coordinates, so Orlicz takes n <= 63
    monkeypatch.setattr(spectral, "lattice_norm", None)
    for space, cap in ((Lorentz(2.0, power_weights(0.25)), 62), (LpQ(3.0, 2.0), 62),
                       (ORLICZ_BUILTINS[0], 63), (Lp(2.0), 1 << 20)):
        with pytest.raises(ValueError, match=f"n <= {cap} on {type(space).__name__}"):
            doubling_orbit_witness(space, 1.5, cap + 1)


def test_vn_and_scan_on_orlicz_never_take_space_norms(monkeypatch):
    def no_norm(*args, **kwargs):
        raise AssertionError("an Orlicz block residual took an ambient norm")

    for mod in (spaces, lattices, spectral):
        monkeypatch.setattr(mod, "norm", no_norm, raising=False)
    orlicz = Orlicz(OrliczFn.power(1.5))
    assert len(residual_scan(orlicz, [1.2, 1.5], dim=1 << 10)) == 2
    assert doubling_orbit_witness(orlicz, 1.5, 16).residual > 0.0


def test_vn_on_non_lp_space_runs_in_block_coordinates():
    sp = Lorentz(2.0, power_weights(0.25))
    rep = doubling_orbit_witness(sp, 2.0, 3)
    assert rep.norm_value > 0.0 and rep.residual > 0.0
    assert rep.predicted is None


# branching witness ---------------------------------------------------------------


def test_un_residuals_and_norm():
    for p in (1.0, 2.0, 3.0):
        for n in (1, 2, 3, 5, 8):
            rep = branching_witness(p, n)
            want = (2.0 / n) ** (1.0 / p)
            assert rep.norm_value == pytest.approx(1.0, abs=1e-11)
            assert rep.d2_residual == pytest.approx(want, abs=1e-11)
            assert rep.d3_residual == pytest.approx(want, abs=1e-11)
            assert rep.d2_predicted == rep.d3_predicted == pytest.approx(want)


# The earlier materialized branch of branching_witness, kept verbatim: it
# builds u_n on its rational supports, as int64 numerators over one
# denominator, and applies D2, D3 as written.
def materialized_un(p: float, n: int) -> tuple[float, float, float, int]:
    """(norm, D2 residual, D3 residual, support size) of the materialized u_n."""
    scale = float(n) ** (-2.0 / p)
    # keys over den = 6 2^{n+1} 3^{n+1}, so D2 u and D3 u stay exact too
    den = 6 * 2 ** (n + 1) * 3 ** (n + 1)
    nums, coefs = [], []
    for (j, k), (num, coef) in _orbits(n, n, den):
        nums.append(num)
        coefs.append(scale * 2.0 ** (-j / p) * 3.0 ** (-k / p) * coef)
    u_num, u = _merge(np.concatenate(nums), np.concatenate(coefs))
    res = []
    for base in (2, 3):
        d_num, d = _dilate(base, u_num, u, den)
        damped = base ** (-1.0 / p) * d
        diff = _merge(np.concatenate((d_num, u_num)), np.concatenate((damped, -u)))[1]
        res.append(float(np.sum(np.abs(diff) ** p) ** (1.0 / p)))
    return float(np.sum(u**p) ** (1.0 / p)), res[0], res[1], u_num.size


def test_un_orbit_and_materialized_paths_agree():
    for p in (1.0, 1.5, 2.0, 3.0):
        for n in range(1, 6):
            rep = branching_witness(p, n)
            norm_value, d2, d3, support = materialized_un(p, n)
            assert not rep.materialized
            assert rep.support == support
            assert rep.norm_value == pytest.approx(norm_value, rel=1e-15, abs=0.0)
            assert rep.d2_residual == pytest.approx(d2, rel=1e-15, abs=0.0)
            assert rep.d3_residual == pytest.approx(d3, rel=1e-15, abs=0.0)


def test_un_holds_its_closed_form_up_to_the_cap():
    # every atom mass n^-2 2^-j 3^-k is still a normal float at n = 256
    for p in (1.0, 2.0, 3.0):
        rep = branching_witness(p, 256)
        want = (2.0 / 256) ** (1.0 / p)
        assert rep.norm_value == pytest.approx(1.0, rel=1e-12)
        assert rep.d2_residual == pytest.approx(want, rel=1e-12)
        assert rep.d3_residual == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="n <= 256"):
        branching_witness(1.0, 257)


def test_un_support_counts_orbit_atoms():
    rep = branching_witness(2.0, 3)
    # disjoint (j, k) atoms over the full square 1..n x 1..n
    want = sum(2**j * 3**k for j in range(1, 4) for k in range(1, 4))
    assert rep.support == want == 546


# residual scan --------------------------------------------------------------------


def _svd_floor(lam: float, d: int) -> float:
    M = np.zeros((2 * d + 2, d))
    for j in range(1, d + 1):
        M[2 * j - 1, j - 1] = 1.0
        M[2 * j, j - 1] = 1.0
    M[:d, :d] -= lam * np.eye(d)
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def test_scan_respects_the_svd_floor():
    for m in (4, 6, 8):
        d = (1 << m) - 1
        for lam in (1.0, 2.0**0.5, 1.9):
            est = residual_scan(Lp(2.0), [lam], dim=m)[0].estimate
            floor = _svd_floor(lam, d)
            assert est >= floor - 1e-9
            assert est <= 1.5 * floor  # sharpness, frozen from the oracle run


def test_scan_minimum_sits_at_two_to_inv_p():
    for p in (1.0, 2.0):
        lamstar = 2.0 ** (1.0 / p)
        grid = [lamstar + 0.1 * s for s in range(-4, 5)]
        pts = residual_scan(Lp(p), grid, dim=1 << 10)
        best = min(pts, key=lambda t: t.estimate)
        assert abs(best.lam - lamstar) <= 0.05 + 1e-12
        assert best.estimate == pytest.approx((4.0 / (1 << 10)) ** (1.0 / p), rel=0.5)


def test_scan_points_carry_provenance():
    # near lambda* the closed-form family wins; off it the rho search can
    at_star, off = residual_scan(Lp(2.0), [2.0**0.5, 1.3], dim=64)
    assert at_star.method == "closed_form"
    assert off.method in ("closed_form", "operator_search")
    for pt in (at_star, off):
        assert pt.dim == 64 and pt.params["m"] >= 1


def test_scan_general_space_path():
    sp = Lorentz(2.0, power_weights(0.25))
    pts = residual_scan(sp, [1.2, 1.4], dim=256)
    assert all(pt.method == "operator_search" for pt in pts)
    assert all(0.0 < pt.estimate < 2.5 for pt in pts)


def test_scan_validates_grid():
    with pytest.raises(ValueError):
        residual_scan(Lp(2.0), [])
    with pytest.raises(ValueError):
        residual_scan(Lp(2.0), [1.0, -0.5])
    with pytest.raises(ValueError):
        residual_scan(Lp(2.0), [1.0], dim=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            residual_scan(Lp(2.0), [1.0, bad])


@pytest.mark.parametrize("space, dim, runs, refused", [
    (Lp(2.0), 4, 1e304, 1e305),
    (Lp(2.0), 1 << 14, 1e265, 1e266),
    (Lorentz(2.0, power_weights(0.25)), 4, 1e-305, 1e-306),
    (Lorentz(2.0, power_weights(0.25)), 4, 1e305, 1e306),
    (Lorentz(2.0, power_weights(0.25)), 1 << 14, 1e-23, 1e-24),
    (Lorentz(2.0, power_weights(0.25)), 1 << 14, 1e300, 1e301),
])
def test_scan_refuses_a_lambda_whose_search_could_overflow(space, dim, runs, refused, monkeypatch):
    # rows rho^{k-1} over every rho the zoom reaches (1/lambda on the
    # general families), lambda times them, and their block norms: past the
    # edge one of them could overflow; inside it the point runs warning-free
    pt, = residual_scan(space, [runs], dim=dim)
    assert math.isfinite(pt.estimate) and pt.estimate > 0.0
    monkeypatch.setattr(spectral, "lattice_norm", None)  # refused before any norm
    with pytest.raises(ValueError) as err:
        residual_scan(space, [runs, refused], dim=dim)
    msg = str(err.value)
    assert f"lambda = {refused!r}" in msg and type(space).__name__ in msg and f"dim = {dim}" in msg


@pytest.mark.parametrize("p", [1.0, 2.0, 10.0, 100.0])
def test_scan_takes_a_lambda_near_zero(p):
    # t = 1 - p log2(lambda) passes 1024 here, where 2^t overflows; the
    # residual tends to ||D|| = 2^{1/p} as lambda -> 0, and the closed-form
    # orbit, which cancels no m t sized logs, reaches it to rounding
    pts = residual_scan(Lp(p), [1e-300, 1e-31, 1e-5])
    for pt in pts:
        assert math.isfinite(pt.estimate)
        assert pt.estimate <= 2.0 ** (1.0 / p) * (1.0 + 1e-12)
    assert pts[0].estimate == pytest.approx(2.0 ** (1.0 / p), rel=1e-15)


def _mp_orbit_residual(lam, p, m):
    """The damped-orbit residual from its definition, at the working
    precision: boundary layers lam^p + lam^{(1-m)p} 2^m over the geometric
    block sum."""
    L, P = mpmath.mpf(lam), mpmath.mpf(p)
    q = 2 / L**P
    den = m if q == 1 else (q**m - 1) / (q - 1)
    return ((L**P + L ** ((1 - m) * P) * mpmath.mpf(2) ** m) / den) ** (1 / P)


def _orbit_errors(lam, p):
    """Relative errors of the closed form against 50 digits on m = 2^0..2^14,
    and kappa = |d ln r / d ln lambda| at each m."""
    ms = 2.0 ** np.arange(15)
    got = spectral._orbit_family_residual(lam, p, ms)
    with mpmath.workdps(50):
        h = mpmath.mpf(10) ** -20
        out = []
        for g, m in zip(got, ms.astype(int).tolist()):
            r = _mp_orbit_residual(lam, p, m)
            up, down = (_mp_orbit_residual(mpmath.mpf(lam) * (1 + s * h), p, m) for s in (1, -1))
            out.append((float(abs(g / r - 1)), float(abs(mpmath.log(up / down)) / (2 * h))))
    return got, out


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0, 100.0])
def test_orbit_family_residual_matches_mpmath(p):
    # the coth form takes log2 from |t| alone, so no m t sized logs cancel.
    # Near lambda = 2^{1/p} the residual at m t ~ 1 is ill-conditioned in
    # lambda: one rounding of log2(lambda) moves it by ~kappa 2^-52.
    c = 2.0 ** (1.0 / p)
    far = np.geomspace(1e-300, 1e100, 33).tolist()
    near = [c * (1.0 + s * 10.0**-k) for k in (1, 4, 8, 12, 15) for s in (1, -1)] + [c]
    for lam in far + near:
        got, errs = _orbit_errors(lam, p)
        slack = 0.0 if lam in far else 2.0**-52
        assert all(err <= 2e-13 + kappa * slack for err, kappa in errs), lam
        # ||D x|| = 2^{1/p} ||x|| in l^p, so no residual of D - lambda falls
        # below |2^{1/p} - lambda|
        floor = abs(2 ** (1 / mpmath.mpf(p)) - lam)
        assert float(np.min(got)) >= floor * (1 - 2e-13), lam


@pytest.mark.parametrize("k", [49, 53, 63])
def test_scan_blocks_stay_within_dim_just_below_a_power_of_two(k):
    # floor(log2(2^k - 1)) = k - 1, which float log2 rounds up to k from k = 49
    dim = (1 << k) - 1
    for space, m_max in ((Lp(2.0), dim), (Lorentz(2.0, power_weights(0.25)), k - 1)):
        for pt in residual_scan(space, [1.0, 2.0**0.5], dim=dim):
            assert math.isfinite(pt.estimate) and 1 <= pt.params["m"] <= m_max


# The earlier scalar l^p block norm, kept verbatim as the reference for the
# row-wise one.
def reference_ex_norm_lp(p: float, a: np.ndarray) -> float:
    """||S a||_p in closed form: block k contributes |a_k|^p 2^(k-1)."""
    a = np.abs(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0
    if p == math.inf:
        return float(a.max())
    k = np.arange(a.size, dtype=float)
    # log-domain sum: the 2^(k-1) block cardinalities overflow beyond k ~ 1023
    nz = a > 0.0
    if not np.any(nz):
        return 0.0
    logs = p * np.log2(a[nz]) + k[nz]
    m = float(np.max(logs))
    return float(2.0 ** (m / p) * np.sum(2.0 ** (logs - m)) ** (1.0 / p))


# Estimates of the seeded search that the one rho search replaced, at its
# default seed 7: 4 lambda around 2^index on each family, at dim 64 and 2^14.
# An estimate exhibits a witness, so the deterministic search may only fall.
PINNED_SCANS = [
    (Lp(1.5), [1.29, 1.49, 1.69, 1.89], {
        64: [0.353332978414468, 0.19753096781082166, 0.20961215684682374, 0.37668498771317854],
        1 << 14: [0.353332978414468, 0.19753096781082166, 0.20961215684682374, 0.37668498771317854],
    }),
    (LpQ(3.0, 2.0), [0.96, 1.16, 1.36, 1.56], {
        64: [0.7627380389779735, 0.793872478008589, 0.8565538780883949, 0.9385395883602824],
        1 << 14: [0.5696920077527563, 0.5556192783814002, 0.5768802490878349, 0.6645053532516861],
    }),
    (Lorentz(2.0, power_weights(0.25)), [0.89, 1.09, 1.29, 1.49], {
        64: [0.7362291667024994, 0.7921894747712172, 0.8577233137380813, 0.9434381303575073],
        1 << 14: [0.5517458954964354, 0.5418199124894785, 0.5925752147849349, 0.680202836713034],
    }),
    (Orlicz(OrliczFn.power(1.5)), [1.29, 1.49, 1.69, 1.89], {
        64: [0.7747813560955763, 0.7527582299380583, 0.799255407194758, 0.9154888769270204],
        1 << 14: [0.5516365542624909, 0.4596123527849635, 0.4775398070595801, 0.6001360226439784],
    }),
]


@pytest.mark.parametrize("space, grid, pinned", PINNED_SCANS)
def test_scan_estimates_never_rise_above_the_seeded_search(space, grid, pinned):
    for dim, want in pinned.items():
        got = [pt.estimate for pt in residual_scan(space, grid, dim=dim)]
        for g, w, lam in zip(got, want, grid):
            assert g <= w * (1.0 + 1e-6), (space, dim, lam, g, w)


def test_row_wise_lp_block_norms_are_the_one_row_norms():
    rng = np.random.default_rng(11)
    # scales stay where the norm itself is finite, as the scalar pow needs
    rows = rng.standard_normal((9, 40)) * 10.0 ** rng.integers(-200, 150, (9, 1))
    rows[1, 3] = 0.0  # an exact zero keeps the masked 1-D sum
    rows[2, ::2] = 0.0
    rows[3] = 0.0
    rows[4, 0] = 0.0
    rows[5] = np.geomspace(1.0, 1e-300, 40)
    # block weights 2^(k-1) overflow a float past k ~ 1024
    long_rows = np.abs(rng.standard_normal((3, 1100))) * 2.0**-200
    long_rows[1, 1050] = 0.0
    for p in (1.0, 1.25, 2.0, 3.0, 6.0, math.inf):
        lat = EX(Lp(p))
        for stack in (rows, long_rows):
            got = lattice_norm(lat, stack)
            one = np.array([lattice_norm(lat, r) for r in stack])
            ref = np.array([reference_ex_norm_lp(p, r) for r in stack])
            assert got.tobytes() == one.tobytes() == ref.tobytes(), p
            assert lattices._ex_norm_lp(p, np.abs(stack)).tobytes() == got.tobytes()
    assert lattice_norm(EX(Lp(2.0)), np.zeros((2, 0))).tolist() == [0.0, 0.0]
    assert lattices._ex_norm_lp(2.0, np.zeros((2, 0))).tolist() == [0.0, 0.0]
    assert lattice_norm(EX(Lp(2.0)), np.zeros(0)) == 0.0
    assert type(lattice_norm(EX(Lp(2.0)), rows[0])) is float
    assert lattice_norm(EX(Lp(2.0)), -3.0) == 3.0


def test_lp_scan_point_batches_its_block_norms(monkeypatch):
    # ~1,700 block norms per point when every candidate took its own call
    calls = []
    real = lattices._ex_norm_lp

    def counting(p, rows):
        calls.append(np.shape(rows))
        return real(p, rows)

    monkeypatch.setattr(lattices, "_ex_norm_lp", counting)
    residual_scan(Lp(2.0), [1.3], dim=1 << 14)
    assert 0 < len(calls) < 200


def test_scan_is_partition_invariant():
    grid = [0.9, 1.2, 1.5]
    whole = residual_scan(Lp(2.0), grid, dim=128)
    solo = [residual_scan(Lp(2.0), [g], dim=128)[0] for g in grid]
    assert [p.estimate for p in whole] == [p.estimate for p in solo]


# exact shift machinery --------------------------------------------------------------


@settings(max_examples=40)
@given(lam_fracs, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4))
def test_shift_identity_exact(lam, n, j):
    assert shift_identity_check(lam, n, j)


@pytest.mark.parametrize("lam", [0.4, 0.9, 1.0, 1.3, 2.5, np.float64(1.7)])
@pytest.mark.parametrize("n, j", [(1, 1), (3, 2), (6, 4)])
def test_shift_identity_float(lam, n, j):
    # a float lam takes the 1e-10 relative branch
    assert shift_identity_check(lam, n, j)


def test_shift_identity_float_detects_a_wrong_identity(monkeypatch):
    # (tau_1 - lam)^2 applied 1e-6 off telescopes to the wrong vector
    real = spectral.apply_array
    monkeypatch.setattr(spectral, "apply_array", lambda op, a: real(op, a) * (1.0 + 1e-6))
    for lam, n, j in ((0.9, 3, 2), (1.3, 1, 1), (2.5, 6, 4)):
        assert not shift_identity_check(lam, n, j)


@settings(max_examples=60)
@given(lam_fracs, st.lists(coef_fracs, min_size=1, max_size=12))
def test_moment_annihilates_solvable_data(lam, a):
    # b = (tau_1 - lam) a lies in the image, so its moment vanishes exactly
    b = [-lam * a[0]] + [a[i - 1] - lam * a[i] for i in range(1, len(a))] + [a[-1]]
    assert moment_functional(lam, b) == 0


@settings(max_examples=60)
@given(lam_fracs, st.lists(coef_fracs, min_size=1, max_size=12))
def test_solve_round_trip_exact(lam, a):
    b = [-lam * a[0]] + [a[i - 1] - lam * a[i] for i in range(1, len(a))] + [a[-1]]
    got = solve_shift_minus_lambda(lam, b)
    want = list(a)
    while want and want[-1] == 0:
        want.pop()
    assert got == want


def test_solve_rejects_off_image_data():
    with pytest.raises(ValueError, match="moment"):
        solve_shift_minus_lambda(Fraction(2), [Fraction(1)])


def test_solve_float_path_round_trips():
    rng = np.random.default_rng(6)
    lam = 1.37
    for _ in range(50):
        a = rng.standard_normal(int(rng.integers(1, 10)))
        b = np.concatenate(([-lam * a[0]], a[:-1] - lam * a[1:], [a[-1]]))
        got = solve_shift_minus_lambda(lam, list(b))
        assert np.allclose(got, a, rtol=1e-9, atol=1e-9)


def test_solve_accepts_seq_input():
    lam = Fraction(3, 2)
    a = [Fraction(2), Fraction(-1)]
    b = [-lam * a[0], a[0] - lam * a[1], a[1]]
    out = solve_shift_minus_lambda(lam, Seq([float(v) for v in b]))
    assert type(out) is list
    assert out == pytest.approx([2.0, -1.0])
