"""End-to-end verification suite: one check per advertised guarantee.

Each check exercises a documented constant, rate, or exactness claim of the
library at its stated tolerance.  Its body returns ``(passed, detail)`` and
nothing else; the ``_check`` decorator owns the criterion id, the name, the
clock and the optional wall-clock budget, and turns the pair into the one
``CheckResult``.  The CLI ``verify`` subcommand prints one line per check,
and the acceptance tests wrap the same functions one-to-one.  Checks are
deterministic: every random draw derives from a fixed master seed, shifted
by the ``seed`` argument that ``run_checks`` hands to each check whose
signature takes one.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattices import (
    EX,
    dyadic_equivalence_report,
    lattice_norm,
    shift_exponents,
    sandwich_ratio,
)
from .operators import (
    AvgProject,
    BlockEmbed,
    DilateDown,
    DilateUp,
    Doubling,
    DoublingMinusLambda,
    ShiftMinusLambda,
    _Exact,
    apply_array,
)
from .indices import index_report, weight_ratio_indices
from .spaces import (
    Lorentz,
    Lp,
    LpQ,
    Orlicz,
    OrliczFn,
    norm,
    power_weights,
)
from .spectral import (
    branching_witness,
    check_disjoint_supports,
    doubling_orbit_witness,
    moment_functional,
    residual_scan,
    shift_identity_check,
    solve_shift_minus_lambda,
)

__all__ = ["CheckResult", "ALL_CHECKS", "run_checks"]

_MASTER_SEED = 20260815

# Space variants the JSON schema can name.  The quasi-normed l^{p,q} with
# q > p has no triangle inequality, so constants whose proofs need one
# (contractivity, doubling bounds, the dyadic sandwich) are asserted on the
# normed variants only; the quasi variant still participates in symmetry,
# monotonicity and index checks.
BUILTIN_SPACES = [
    ("lp_1", Lp(1.0)),
    ("lp_1.5", Lp(1.5)),
    ("lp_2", Lp(2.0)),
    ("lp_3", Lp(3.0)),
    ("lp_10", Lp(10.0)),
    ("lp_inf", Lp(math.inf)),
    ("lpq_2_1", LpQ(2.0, 1.0)),
    ("lpq_3_2", LpQ(3.0, 2.0)),
    ("lpq_2_4_quasi", LpQ(2.0, 4.0)),
    ("lorentz_q1_th0.3", Lorentz(1.0, power_weights(0.3))),
    ("lorentz_q2_th0.25", Lorentz(2.0, power_weights(0.25))),
    ("lorentz_q2_th0.4", Lorentz(2.0, power_weights(0.4))),
    ("orlicz_t1.5", Orlicz(OrliczFn.power(1.5))),
    ("orlicz_t3", Orlicz(OrliczFn.power(3.0))),
    ("orlicz_t2_log", Orlicz(OrliczFn.power_log(2.0, 0.6))),
]

TRIANGLE_SPACES = [(lbl, sp) for lbl, sp in BUILTIN_SPACES if lbl != "lpq_2_4_quasi"]

# Observed Lorentz dyadic-equivalence envelopes (trials=200, max_len=4096,
# seed=7), pinned after the first certified run; the proven enclosure is
# [1, 4^(1/q)].
LORENTZ_ENVELOPE_PINS: dict[str, tuple[float, float]] = {
    "q1_th0.3": (1.3545783020015816, 1.4797127349201158),
    "q2_th0.25": (1.161093878013032, 1.203431343732897),
}


@dataclass(frozen=True)
class CheckResult:
    crit_id: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _check(crit_id: int, name: str, budget: float | None = None):
    """Make a body returning (passed, detail) into a check returning a CheckResult.

    The harness times the whole body.  A passing body that ran ``budget``
    seconds or more fails with its runtime as the detail.
    """

    def harness(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            if passed and budget is not None and elapsed >= budget:
                passed, detail = False, f"runtime {elapsed:.1f}s exceeds {budget:g}s"
            return CheckResult(crit_id, name, passed, detail, elapsed)

        check.crit_id, check.check_name = crit_id, name
        return check

    return harness


def _rng(seed: int, offset: int) -> np.random.Generator:
    """Stream `offset` of the checks run under `seed` (0: the master seed).

    Every assertion drawn from it is a theorem about the drawn vectors, not
    a property of one stream.  The envelope pins keep their own frozen seed.
    """
    return np.random.default_rng([_MASTER_SEED, seed, offset])


def _rand_vec(rng, max_len: int, signed: bool = True) -> np.ndarray:
    n = int(rng.integers(1, max_len + 1))
    v = rng.standard_normal(n)
    return v if signed else np.abs(v)


def _rand_pairs(rng, max_len: int, span: int = 20, max_den: int = 12) -> list:
    """(numerator, denominator) pairs, each drawn in that order."""
    n = int(rng.integers(1, max_len + 1))
    return [
        (int(rng.integers(-span, span + 1)), int(rng.integers(1, max_den + 1)))
        for _ in range(n)
    ]


def _rand_fracs(rng, max_len: int = 10) -> list:
    return [Fraction(a, d) for a, d in _rand_pairs(rng, max_len)]


def _rand_exact(rng, max_len: int) -> _Exact:
    """The draws of ``_rand_fracs`` as integer numerators over their lcm."""
    pairs = _rand_pairs(rng, max_len)
    den = math.lcm(*(d for _, d in pairs))
    return _Exact.of_ints([a * (den // d) for a, d in pairs], den)


@_check(1, "symmetry+monotonicity")
def check_symmetry_and_monotonicity(seed: int = 0):
    """Permutation invariance, lattice monotonicity, homogeneity: 1e-12."""
    rng = _rng(seed, 1)
    worst = 0.0
    for label, sp in BUILTIN_SPACES:
        for _ in range(500):
            v = _rand_vec(rng, 1 << 10)
            base = norm(sp, v)
            perm = norm(sp, rng.permutation(v))
            worst = max(worst, abs(perm - base) / base)
            if abs(perm - base) > 1e-12 * base:
                return False, f"{label}: permutation moved the norm by {abs(perm-base)/base:.2e}"
            smaller = v * rng.uniform(0.0, 1.0, v.size)
            if norm(sp, smaller) > base * (1 + 1e-12):
                return False, f"{label}: |u| <= |v| but ||u|| > ||v||"
            c = float(rng.uniform(0.1, 10.0))
            if abs(norm(sp, c * v) - c * base) > 1e-12 * c * base:
                return False, f"{label}: homogeneity off"
    return True, f"{len(BUILTIN_SPACES)} variants x 500 vectors, worst rel dev {worst:.1e}"


@_check(2, "operator constants")
def check_operator_constants(seed: int = 0):
    """||sigma_{1/m}|| <= 1, ||sigma_m|| <= m, ||Q|| <= 1, Q^2 = Q, D in [1,2]."""
    rng = _rng(seed, 2)
    tol = 1e-12
    ratio_lo, ratio_hi = math.inf, 0.0
    for label, sp in TRIANGLE_SPACES:
        for _ in range(200):
            v = _rand_vec(rng, 1 << 10)
            nv = norm(sp, v)
            for m in (2, 3, 4):
                if norm(sp, apply_array(DilateDown(m), v)) > nv * (1 + tol):
                    return False, f"{label}: block averaging expanded a norm"
                if norm(sp, apply_array(DilateUp(m), v)) > m * nv * (1 + tol):
                    return False, f"{label}: ||sigma_{m} x|| > {m}||x||"
            if norm(sp, apply_array(AvgProject(), v)) > nv * (1 + tol):
                return False, f"{label}: ||Qx|| > ||x||"
            r = norm(sp, apply_array(Doubling(), v)) / nv
            ratio_lo, ratio_hi = min(ratio_lo, r), max(ratio_hi, r)
            if not (1 - 1e-9) <= r <= 2 * (1 + 1e-9):
                return False, f"{label}: ||Dx||/||x|| = {r}"
    for _ in range(200):
        once = apply_array(AvgProject(), _rand_exact(rng, max_len=16))
        if not apply_array(AvgProject(), once).pad_equal(once):
            return False, "Q^2 != Q on a rational vector"
    return True, f"observed ||Dx||/||x|| in [{ratio_lo:.6f}, {ratio_hi:.6f}], Q idempotent on rationals"


@_check(3, "dyadic sandwich")
def check_dyadic_sandwich(seed: int = 0):
    """Dyadic resampling ratio within [1, 5] on 500 vectors per variant."""
    rng = _rng(seed, 3)
    lo, hi = math.inf, 0.0
    for label, sp in TRIANGLE_SPACES:
        for _ in range(500):
            v = _rand_vec(rng, 1 << 12)
            r = sandwich_ratio(sp, v)
            lo, hi = min(lo, r), max(hi, r)
            if not (1 - 1e-9) <= r <= 5 * (1 + 1e-9):
                return False, f"{label}: ratio {r} outside [1, 5]"
    return True, f"observed envelope [{lo:.4f}, {hi:.4f}] within [1, 5]"


@_check(4, "intertwining exact")
def check_intertwining_exact(seed: int = 0):
    """(D-lam)S = S(shift-lam) and Q(D-lam) = (D-lam)Q, exact rationals.

    Vectors stay integer numerators over one denominator from draw to
    comparison; Fractions are built only to report a failure.
    """
    rng = _rng(seed, 4)
    for _ in range(1000):
        lam = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        a = _rand_exact(rng, max_len=8)
        lhs = apply_array(DoublingMinusLambda(lam), apply_array(BlockEmbed(), a))
        rhs = apply_array(BlockEmbed(), apply_array(ShiftMinusLambda(lam), a))
        if not lhs.pad_equal(rhs):
            return False, f"(D-{lam})S != S(shift-{lam}) on {a.fractions().tolist()}"
        x = _rand_exact(rng, max_len=16)
        lhs = apply_array(AvgProject(), apply_array(DoublingMinusLambda(lam), x))
        rhs = apply_array(DoublingMinusLambda(lam), apply_array(AvgProject(), x))
        if not lhs.pad_equal(rhs):
            return False, f"Q(D-{lam}) != (D-{lam})Q on {x.fractions().tolist()}"
    return True, "both identities exact on 1000 rational vectors each"


@_check(5, "index round trips", budget=60)
def check_index_round_trips():
    """Known index values across all families within stated tolerances."""
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, 10.0):
        rep = index_report(Lp(p))
        want = 1.0 / p
        e = max(abs(rep.alpha.point - want), abs(rep.beta.point - want))
        worst = max(worst, e)
        if e > 1e-6:
            return False, f"l^{p}: index error {e:.2e} > 1e-6"
        # 1e-6 on the indices propagates to ~p^2 * 1e-6 on the reciprocals
        if max(abs(rep.f_interval[0] - p), abs(rep.f_interval[1] - p)) > 1e-4:
            return False, f"l^{p}: exponent interval {rep.f_interval} != [{p}, {p}]"
    for q, th in ((1.0, 0.3), (2.0, 0.25), (2.0, 0.4)):
        want = (1 - th * q) / q
        w = power_weights(th)
        rep = index_report(Lorentz(q, w))
        e_full = max(abs(rep.alpha.point - want), abs(rep.beta.point - want))
        a2, b2 = weight_ratio_indices(Lorentz(q, w))
        e_simp = max(abs(a2.point - want), abs(b2.point - want))
        worst = max(worst, e_full, e_simp)
        if e_full > 1e-3 or e_simp > 1e-3:
            return False, f"lorentz q={q} theta={th}: full {e_full:.2e} / simplified {e_simp:.2e} vs 1e-3"
    for p in (1.5, 2.0, 3.0):
        rep = index_report(Orlicz(OrliczFn.power(p)), n_max=20)
        e = max(abs(rep.alpha.point - 1 / p), abs(rep.beta.point - 1 / p))
        worst = max(worst, e)
        if e > 1e-8:
            return False, f"orlicz t^{p}: error {e:.2e} > 1e-8"
    return True, f"all families on target, worst error {worst:.1e}, within 60s budget"


@_check(6, "index ordering chain")
def check_index_ordering_chain():
    """lower <= mu <= nu <= upper on every report; route gaps < 5e-3."""
    slack = 1e-6
    kw = dict(n_max=12, j_max=1 << 12, k_max=120)
    for label, sp in BUILTIN_SPACES:
        rep = index_report(sp, **kw)
        chain = (
            -slack <= rep.alpha.point
            and rep.alpha.point <= rep.mu + slack
            and rep.mu <= rep.nu + slack
            and rep.nu <= rep.beta.point + slack
            and rep.beta.point <= 1.0 + slack
        )
        if not chain:
            return False, (f"{label}: chain violated: alpha={rep.alpha.point} mu={rep.mu} "
                           f"nu={rep.nu} beta={rep.beta.point}")
        alpha_mu_gap, nu_beta_gap = rep.alpha.point - rep.mu, rep.nu - rep.beta.point
        if not (abs(alpha_mu_gap) < 5e-3 and abs(nu_beta_gap) < 5e-3):
            return False, f"{label}: route gaps {alpha_mu_gap:.2e}/{nu_beta_gap:.2e} >= 5e-3"
    return True, f"chain and route agreement hold on all {len(BUILTIN_SPACES)} variants"


@_check(7, "shift exponent bridge")
def check_shift_exponent_bridge(seed: int = 0):
    """Block-lattice shift exponents equal 2^(+-1/p); dilation chains vector-wise."""
    rng = _rng(seed, 7)
    for p in (1.0, 2.0, 4.0):
        ex = shift_exponents(EX(Lp(p)))
        if abs(ex.k_plus - 2 ** (1 / p)) > 1e-6 or abs(ex.k_minus - 2 ** (-1 / p)) > 1e-6:
            return False, f"p={p}: k+={ex.k_plus}, k-={ex.k_minus}"
        if 1.0 / ex.k_minus > ex.k_plus * (1 + 1e-9):
            return False, f"p={p}: 1/k- > k+"
    lat = {p: EX(Lp(p)) for p in (1.0, 2.0, 4.0)}
    for _ in range(200):
        p = float(rng.choice((1.0, 2.0, 4.0)))
        a = np.abs(_rand_vec(rng, 12, signed=False))
        na = lattice_norm(lat[p], a)
        if na == 0.0:
            continue
        for n in (1, 2, 3, 4):
            up = lattice_norm(lat[p], np.concatenate((np.zeros(n), a)))
            # forward shift on block coordinates = dilation by 2^n after embed
            sa = apply_array(BlockEmbed(), a)
            dil = norm(Lp(p), apply_array(DilateUp(1 << n), sa))
            if abs(up - dil) > 1e-12 * dil:
                return False, f"p={p} n={n}: ||tau_n a|| != ||sigma_(2^n) S a||"
            if up > 2.0 ** (n / p) * na * (1 + 1e-12):
                return False, f"p={p} n={n}: forward chain violated"
            down = lattice_norm(lat[p], a[n:])
            if down > 2.0 * 2.0 ** (-n / p) * na * (1 + 1e-12):
                return False, f"p={p} n={n}: backward chain violated"
            if dil > 2.0 ** ((n + 1) / p) * norm(Lp(p), sa) * (1 + 1e-12):
                return False, f"p={p} n={n}: dilation-vs-shift chain violated"
    return True, "exponents exact and all dilation chains hold on 200 vectors"


@_check(8, "witness rates")
def check_witness_rates():
    """Orbit witness rates: (4/n)^(1/p) at 1e-9; branching rates (2/n)^(1/p) at 1e-10."""
    for p in (1.0, 2.0, 3.0):
        n = 1
        while n <= 1024:
            w = doubling_orbit_witness(Lp(p), p, n)
            want = (4.0 / n) ** (1.0 / p)
            if abs(w.residual - want) > 1e-9:
                return False, f"orbit witness p={p} n={n}: residual {w.residual} vs {want}"
            n *= 2
    for p in (1.0, 2.0, 3.0):
        for n in range(1, 11):
            r = branching_witness(p, n)
            if abs(r.norm_value - 1.0) > 1e-10:
                return False, f"branching witness p={p} n={n}: ||u_n|| = {r.norm_value}"
            want = (2.0 / n) ** (1.0 / p)
            for base, got in ((2, r.d2_residual), (3, r.d3_residual)):
                if abs(got - want) > 1e-10:
                    return False, (f"branching witness p={p} n={n}: base-{base} residual "
                                   f"{got!r} vs expected {want!r}")
    return True, "all witness rates on target"


@_check(9, "orbit disjointness", budget=10)
def check_orbit_disjointness():
    """Exhaustive support disjointness with exact cardinalities."""
    rep = check_disjoint_supports(4, 4)
    ok = rep.ok and all(
        rep.cardinalities[(l, m)] == 2**l * 3**m
        for l in range(1, 5)
        for m in range(1, 5)
    )
    if not ok:
        return False, f"collision or wrong cardinality: {rep.collision}"
    return True, "16 orbits pairwise disjoint, cardinalities 2^l 3^m, within 10s budget"


@_check(10, "shift machinery")
def check_shift_machinery(seed: int = 0):
    """Identities, annihilation, and solve round-trips in exact arithmetic."""
    rng = _rng(seed, 10)
    for _ in range(50):
        lam = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        n = int(rng.integers(1, 7))
        j = int(rng.integers(1, 6))
        if not shift_identity_check(lam, n, j):
            return False, f"identity failed at lam={lam}, n={n}, j={j}"
    for _ in range(500):
        lam = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        a = _rand_fracs(rng)
        b = apply_array(ShiftMinusLambda(lam), a).tolist()
        if moment_functional(lam, b) != 0:
            return False, f"moment of (shift-{lam})a nonzero"
        back = solve_shift_minus_lambda(lam, b)
        while a and a[-1] == 0:
            a.pop()
        if back != a:
            return False, f"solve round-trip mismatch at lam={lam}"
    return True, "50 identities, 500 annihilations and solve round-trips exact"


@_check(11, "equivalence envelopes")
def check_equivalence_envelopes():
    """Orlicz block model within [1, 4]; Lorentz envelope pinned."""
    for p in (1.5, 2.0, 3.0):
        rep = dyadic_equivalence_report(Orlicz(OrliczFn.power(p)))
        if rep.ratio_min < 1 - 1e-10 or rep.ratio_max > 4 + 1e-10:
            return False, (f"orlicz t^{p}: observed [{rep.ratio_min}, {rep.ratio_max}] "
                           "escapes [1, 4]")
    seen = {}
    for key, q, th in (("q1_th0.3", 1.0, 0.3), ("q2_th0.25", 2.0, 0.25)):
        rep = dyadic_equivalence_report(Lorentz(q, power_weights(th)))
        if not (math.isfinite(rep.ratio_min) and math.isfinite(rep.ratio_max)):
            return False, f"lorentz {key}: envelope not finite"
        if rep.ratio_min < 1 - 1e-10 or rep.ratio_max > 4.0 ** (1.0 / q) + 1e-10:
            return False, (f"lorentz {key}: observed [{rep.ratio_min}, {rep.ratio_max}] "
                           f"escapes [1, 4^(1/{q})]")
        seen[key] = (rep.ratio_min, rep.ratio_max)
        pin = LORENTZ_ENVELOPE_PINS[key]
        if abs(rep.ratio_min - pin[0]) > 1e-9 or abs(rep.ratio_max - pin[1]) > 1e-9:
            return False, (f"lorentz {key}: envelope drifted from pinned {pin} to "
                           f"({rep.ratio_min}, {rep.ratio_max})")
    return True, "orlicz within [1, 4]; lorentz envelopes " + ", ".join(
        f"{k}=[{v[0]:.6f}, {v[1]:.6f}]" for k, v in sorted(seen.items()))


@_check(12, "scan coherence")
def check_scan_coherence():
    """Scan minimum at 2^(1/p); witness < 0.1 at 2^14 coords; 5x off-peak."""
    for p in (1.0, 2.0, 3.0):
        lamstar = 2.0 ** (1.0 / p)
        grid = [lamstar + 0.05 * s for s in range(-8, 9)]
        pts = residual_scan(Lp(p), grid, dim=1 << 14)
        best = min(pts, key=lambda q: q.estimate)
        if abs(best.lam - lamstar) > 0.05 / 2:
            return False, f"p={p}: minimum at {best.lam}, not {lamstar}"
        at_star = next(q for q in pts if q.lam == lamstar)
        if at_star.estimate >= 0.1:
            return False, f"p={p}: estimate {at_star.estimate} at the matched lambda >= 0.1"
        for off in (lamstar - 0.4, lamstar + 0.4):
            if off <= 0:
                continue
            est = next(q for q in pts if abs(q.lam - off) < 1e-12).estimate
            if est <= 5 * at_star.estimate:
                return False, f"p={p}: off-peak estimate {est} within 5x of {at_star.estimate}"
    return True, "minima at 2^(1/p), matched estimates < 0.1, off-peak > 5x"


ALL_CHECKS = [
    (fn.crit_id, fn.check_name, fn)
    for fn in (
        check_symmetry_and_monotonicity,
        check_operator_constants,
        check_dyadic_sandwich,
        check_intertwining_exact,
        check_index_round_trips,
        check_index_ordering_chain,
        check_shift_exponent_bridge,
        check_witness_rates,
        check_orbit_disjointness,
        check_shift_machinery,
        check_equivalence_envelopes,
        check_scan_coherence,
    )
]


def run_checks(only: list[int] | None = None, seed: int | None = None) -> list[CheckResult]:
    """Run the selected checks; `seed` shifts every random stream they draw."""
    seed = 0 if seed is None else int(seed)
    return [
        fn(seed=seed) if "seed" in inspect.signature(fn).parameters else fn()
        for cid, _, fn in ALL_CHECKS
        if only is None or cid in only
    ]
