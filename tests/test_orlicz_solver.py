"""The Orlicz moment solver against the bisection loops it replaced.

The three functions below are the earlier bisection implementations, kept
verbatim as the reference: ``_luxemburg`` and ``_un_luxemburg`` stop at a
bracket of 1e-12 relative, ``_orlicz_inverse_vec`` at 1e-14.  The moment
path is checked against ``_modular_luxemburg``, a bisection of the modular
itself that evaluates N at every step, and the fundamental function
phi(n) = 1 / N^{-1}(1/n) against ``_orlicz_inverse_vec``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from symseq import spaces
from symseq.indices import index_report
from symseq.lattices import EX, UN, lattice_norm, shift_exponents, unit_norms
from symseq.spaces import (
    Orlicz,
    OrliczFn,
    fundamental_function,
    norm,
    space_from_json,
    space_to_json,
)
from symseq.verify import BUILTIN_SPACES

ORLICZ_FNS = [(lbl, sp.N) for lbl, sp in BUILTIN_SPACES if isinstance(sp, Orlicz)]


# reference: the bisection code the solver replaced ---------------------------


def _luxemburg(N: OrliczFn, a: np.ndarray, rel_tol: float = 1e-12) -> float:
    """Luxemburg norm of a nonnegative vector by bisection.

    Bracket: any admissible u satisfies u >= max(a) since N(1) = 1, and
    u = sum(a) is admissible by convexity (sum N(a_k/u) <= N(sum a_k / u) = 1),
    so [max(a)/2, sum(a)] brackets the infimum.
    """
    if a.size == 0:
        return 0.0
    lo, hi = float(a.max()) / 2.0, float(a.sum())
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if float(np.sum(N(a / mid))) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def _un_luxemburg(N: OrliczFn, a: np.ndarray, rel_tol: float = 1e-12) -> float:
    """inf{u > 0 : sum_k 2^(k-1) N(a_k / u) <= 1} by bisection.

    Any admissible u has 2^(k-1) N(a_k/u) <= 1 for each k, so
    u >= a_k / N^{-1}(2^(1-k)) gives a positive lower bracket; the upper
    bracket grows geometrically from there.
    """
    if a.size == 0 or not np.any(a > 0.0):
        return 0.0
    if a.size > 64:
        raise ValueError("UN norm supports at most 64 coordinates")
    weights = 2.0 ** np.arange(a.size)
    pos = a > 0.0
    inv = _orlicz_inverse_vec(N, 1.0 / weights[pos])
    lo = float(np.max(a[pos] / inv))

    def modular(u: float) -> float:
        return float(np.sum(weights * N(a / u)))

    hi = lo
    for _ in range(200):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise ValueError("UN norm bracketing failed")
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def _orlicz_inverse_vec(N: OrliczFn, s: np.ndarray) -> np.ndarray:
    """Vectorized orlicz_inverse for positive s (same bracketing scheme)."""
    s = np.asarray(s, dtype=float)
    hi = np.ones_like(s)
    for _ in range(1100):
        need = N(hi) < s
        if not np.any(need):
            break
        hi[need] *= 2.0
    lo = hi.copy()
    for _ in range(1200):
        over = N(lo) >= s
        if not np.any(over):
            break
        hi = np.where(over, lo, hi)
        lo = np.where(over, lo / 2.0, lo)
        if np.any(lo < 1e-320):
            raise ValueError("orlicz_inverse bracketing failure near underflow")
    for _ in range(200):
        mid = lo * np.sqrt(hi / lo)
        up = N(mid) >= s
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
        if np.all(hi - lo <= 1e-14 * hi):
            break
    return hi


def _modular_luxemburg(N: OrliczFn, a: np.ndarray, weights: np.ndarray | None = None) -> float:
    """inf{u > 0 : sum_k w_k N(a_k / u) <= 1} for nonnegative a: geometric
    bisection of v in [1, sum w_k b_k] on the modular of b = a / max(a),
    evaluating N at every step, to a bracket of 2 _ROOT_TOL relative."""
    m = float(np.maximum.reduce(a, initial=0.0))
    if m == 0.0:
        return 0.0
    b = a / m
    w = 1.0 if weights is None else weights
    lo, hi = 1.0, float(np.sum(w * b))
    while hi - lo > 2.0 * spaces._ROOT_TOL * hi:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if np.sum(w * N(b / mid)) <= 1.0:
            hi = mid
        else:
            lo = mid
    return m * hi


# agreement -------------------------------------------------------------------


def test_three_orlicz_variants_are_covered():
    assert [lbl for lbl, _ in ORLICZ_FNS] == ["orlicz_t1.5", "orlicz_t3", "orlicz_t2_log"]


@pytest.mark.parametrize("label,N", ORLICZ_FNS)
def test_orlicz_norm_matches_bisection(label, N):
    rng = np.random.default_rng(41)
    sizes = np.concatenate([[1, 2, 3, 4096], rng.integers(1, 4097, 36)])
    for size in sizes:
        x = rng.standard_normal(int(size)) * 10.0 ** rng.uniform(-6, 6)
        want = _luxemburg(N, np.sort(np.abs(x))[::-1])
        assert norm(Orlicz(N), x) == pytest.approx(want, rel=2e-12)


@pytest.mark.parametrize("label,N", ORLICZ_FNS)
def test_un_norm_matches_bisection(label, N):
    rng = np.random.default_rng(43)
    lat = UN(N)
    for size in np.concatenate([[1, 2, 64], rng.integers(1, 65, 37)]):
        a = rng.standard_normal(int(size)) * rng.choice([0.0, 1.0], int(size), p=[0.2, 0.8])
        a[rng.integers(0, a.size)] += 1.0  # keep at least one coordinate nonzero
        a *= 10.0 ** rng.uniform(-6, 6)
        want = _un_luxemburg(N, np.abs(a))
        assert lattice_norm(lat, a) == pytest.approx(want, rel=2e-12)


def _phi(N: OrliczFn) -> np.ndarray:
    """phi(2^k) for k <= 996, the whole range the Orlicz phi rule serves."""
    return np.array([spaces._orlicz_phi(N, math.ldexp(1.0, k)) for k in range(spaces._PHI_LOG2_MAX + 1)])


@pytest.mark.parametrize("label,N", ORLICZ_FNS)
def test_orlicz_inverse_matches_bisection(label, N):
    # 1 / phi(2^k) is N^{-1}(2^-k); the bisection reference is only 1e-14
    # tight, so the bound is its bracket plus the solver's 4 _ROOT_TOL
    got = 1.0 / _phi(N)
    want = _orlicz_inverse_vec(N, 2.0 ** -np.arange(0, spaces._PHI_LOG2_MAX + 1, dtype=float))
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14 + 4.0 * spaces._ROOT_TOL


def _phi_sweep():
    """p from 1 to 50 with a = 0, half and 0.999 of the convexity bound
    p(p-1)/(2p-1), and two log factors whose first Newton step overflowed."""
    for p in (1.0, 1.01, 1.5, 2.0, 3.0, 6.0, 20.0, 50.0):
        a_max = p * (p - 1.0) / (2.0 * p - 1.0)
        for a in sorted({0.0, 0.5 * a_max, 0.999 * a_max}):
            yield OrliczFn.power_log(p, a) if a else OrliczFn.power(p)
    yield OrliczFn.power_log(2.0, 0.6)
    yield OrliczFn.power_log(1.2, 0.12)


def test_solver_returns_the_admissible_end():
    # 2^k N(1/phi(2^k)) <= 1 at every k <= 996, and phi (1 - 8 _ROOT_TOL)
    # is not admissible; the sweep takes the guarded start wherever the
    # first Newton step would put v^p past the float range
    guarded = 0
    for N in _phi_sweep():
        phi, n = _phi(N), 2.0 ** np.arange(0, spaces._PHI_LOG2_MAX + 1)
        assert np.all(n * N(1.0 / phi) <= 1.0 + 1e-14), N
        assert np.all(n * N(1.0 / (phi * (1.0 - 8.0 * spaces._ROOT_TOL))) > 1.0), N
        first = N.p * np.log(n) / (N.p - N.a)  # p s1 for A = n, B = a n
        guarded += np.count_nonzero(first > spaces._LOG_FLOAT_MAX)
    assert guarded > 1000


# the moment path of the built-in functions -----------------------------------


def _moment_cases(seed: int, count: int):
    """(N, x, weights): p in [1, 6], a up to the convexity bound p(p-1)/(2p-1),
    Orlicz vectors of 1-3000 entries and UN vectors of up to 64 coordinates
    with zeros, at magnitudes 1e-200 to 1e200."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = float(rng.choice([1.0, 6.0])) if i < 8 else rng.uniform(1.0, 6.0)
        a_max = p * (p - 1.0) / (2.0 * p - 1.0)
        a = [0.0, a_max][i % 2] if i < 8 else rng.uniform(0.0, a_max) * (i % 3 != 0)
        N = OrliczFn.power_log(p, a) if a else OrliczFn.power(p)
        if i % 2:
            size = int([1, 3000][i % 4 // 2]) if i < 8 else int(rng.integers(1, 3001))
            x = rng.standard_normal(size)
            weights = None
        else:
            size = int([1, 64][i % 4 // 2]) if i < 8 else int(rng.integers(1, 65))
            x = rng.standard_normal(size) * rng.choice([0.0, 1.0], size, p=[0.3, 0.7])
            x[rng.integers(0, size)] += 1.0
            weights = 2.0 ** np.arange(size)
        yield N, x * 10.0 ** rng.uniform(-200.0, 200.0), weights


def _solve(N: OrliczFn, x: np.ndarray, weights) -> float:
    return norm(Orlicz(N), x) if weights is None else lattice_norm(UN(N), x)


def test_moment_path_matches_the_bracketed_path():
    worst = 0.0
    for N, x, weights in _moment_cases(47, 400):
        got, want = _solve(N, x, weights), _modular_luxemburg(N, np.abs(x), weights)
        worst = max(worst, abs(got / want - 1.0))
    assert worst <= 1e-14


def test_moment_path_is_admissible_and_tight():
    for N, x, weights in _moment_cases(53, 400):
        w = 1.0 if weights is None else weights
        u = _solve(N, x, weights)
        assert np.sum(w * N(np.abs(x) / u)) <= 1.0 + 1e-14
        assert np.sum(w * N(np.abs(x) / (u * (1.0 - 8.0 * spaces._ROOT_TOL)))) > 1.0


@pytest.mark.parametrize("label,N", ORLICZ_FNS)
def test_builtin_norms_never_evaluate_N(label, N, monkeypatch):
    calls = []
    evaluate = OrliczFn.__call__

    def counting(self, t):
        calls.append(np.size(t))
        return evaluate(self, t)

    monkeypatch.setattr(OrliczFn, "__call__", counting)
    rng = np.random.default_rng(59)
    x = rng.standard_normal(100)
    a = np.concatenate([[0.0, 1.0], rng.standard_normal(30)])
    assert N(np.ones(1))[0] == 1.0 and calls == [1]  # the counter is live
    calls.clear()
    norm(Orlicz(N), x)
    lattice_norm(UN(N), a)
    lattice_norm(EX(Orlicz(N)), a)
    index_report(Orlicz(N))
    fundamental_function(Orlicz(N), 1000)
    unit_norms(UN(N), 64)
    unit_norms(EX(Orlicz(N)), 64)
    shift_exponents(UN(N))
    assert calls == []


def test_every_orlicz_root_is_a_moment_root(monkeypatch):
    # norms, the fundamental function, unit norms and the index profile:
    # one _moment_root call per value
    solves = []

    def counting(p, A, B):
        solves.append(A)
        return moment_root(p, A, B)

    moment_root = spaces._moment_root
    monkeypatch.setattr(spaces, "_moment_root", counting)
    for N in (OrliczFn.power(3.0), OrliczFn.power_log(3.0, 0.3)):
        solves.clear()
        norm(Orlicz(N), [3.0, 4.0])
        lattice_norm(UN(N), [1.0, 0.0, 2.0])
        lattice_norm(EX(Orlicz(N)), [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [5.0, 1.0, 0.0]])
        assert len(solves) == 4  # the zero row takes no solve
        solves.clear()
        fundamental_function(Orlicz(N), 12)
        unit_norms(UN(N), 5)
        assert solves == [12.0, 1.0, 2.0, 4.0, 8.0, 16.0]
        solves.clear()
        index_report(Orlicz(N), n_max=2, k_max=3)
        assert solves == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    N = OrliczFn.power(3.0)
    assert norm(Orlicz(N), [3.0, 4.0]) == pytest.approx(91.0 ** (1 / 3), rel=1e-14)
    assert lattice_norm(UN(N), [1.0, 0.0, 2.0]) == pytest.approx(33.0 ** (1 / 3), rel=1e-14)


def test_power_functions_take_no_logarithm(monkeypatch):
    # a = 0 makes A = S0 and B = 0 exactly, so the log moment S1 is not taken
    rng = np.random.default_rng(61)
    stack = rng.standard_normal((6, 12)) * 10.0 ** rng.integers(-100, 101, (6, 1))
    stack[1, 3] = 0.0
    stack[4] = 0.0

    def solve(N):
        return norm(Orlicz(N), stack[0]), lattice_norm(UN(N), stack[0]), lattice_norm(UN(N), stack).tobytes()

    Ns = [OrliczFn.power(p) for p in (1.0, 1.5, 3.0)]
    before = [solve(N) for N in Ns]
    with_log = OrliczFn.power_log(2.0, 0.6)
    logs = []
    real_log = np.log
    monkeypatch.setattr(np, "log", lambda *a, **k: logs.append(1) or real_log(*a, **k))
    assert [solve(N) for N in Ns] == before
    assert logs == []
    solve(with_log)
    # the counter is live: t^p (1 + a |ln t|) takes S1 once per nonzero row,
    # one for each 1-D call and five for the stack (row 4 is zero)
    assert len(logs) == 7


def _descriptor_n(p: float, a: float):
    """N of a JSON descriptor, written out apart from ``OrliczFn``: ``power``
    as ``np.power``, ``power_log`` as t**p (1 + a |ln t|) off zero."""
    if a == 0.0:
        return lambda t: np.power(t, p)

    def n(t):
        out = np.zeros_like(t)
        pos = t > 0.0
        out[pos] = t[pos] ** p * (1.0 + a * np.abs(np.log(t[pos])))
        return out

    return n


def test_moment_form_must_match_the_callable():
    # the (p, a) the moment path reads is the N that calling it evaluates,
    # bit for bit, on zero, a wide geometric grid and uniform draws
    t = np.concatenate([[0.0, 5e-324], np.geomspace(1e-300, 1.0, 2001),
                        np.random.default_rng(67).random(2000), [1.5, 1e10]])
    for p in (1.0, 1.5, 2.0, 3.0, 6.0):
        a_max = p * (p - 1.0) / (2.0 * p - 1.0)
        for a in {0.0, 0.5 * a_max, a_max}:
            N = OrliczFn.power_log(p, a) if a else OrliczFn.power(p)
            assert (N.p, N.a) == (p, a)
            assert N(t).tobytes() == _descriptor_n(p, a)(t).tobytes(), (p, a)
    for p, a in ((0.5, 0.0), (2.0, -0.1), (2.0, 2.0), (math.inf, 0.0), (math.nan, 0.0),
                 (2.0, math.nan)):
        with pytest.raises(ValueError, match="finite p >= 1 and 0 <= a < p"):
            OrliczFn(p, a)
    with pytest.raises(ValueError, match="convexity"):
        OrliczFn.power_log(2.0, 0.7)


# (p, a) just under the largest a that the earlier 1024-point convexity
# probe accepted, found by bisecting it: each N is non-convex just below
# t = 1, and each is now refused, as is the midpoint of each gap
_PROBE_ADMITTED = [(1.0, 1.969e-8), (1.01, 0.0099029), (1.5, 0.376424), (2.0, 0.671179),
                   (3.0, 1.214676), (6.0, 2.803876), (20.0, 10.769694), (50.0, 32.114055)]


@pytest.mark.parametrize("p", [1.0, 1.01, 1.5, 2.0, 3.0, 6.0, 20.0, 50.0])
def test_convexity_rule_holds_its_edge_to_one_step(p):
    # the edge is the float quotient p(p-1)/(2p-1); at these p it rounds to
    # at or below the exact bound, so every accepted a is convex exactly
    edge = p * (p - 1.0) / (2.0 * p - 1.0)
    exact = Fraction(p) * (Fraction(p) - 1) / (2 * Fraction(p) - 1)
    assert Fraction(edge) <= exact < Fraction(math.nextafter(edge, math.inf))
    assert OrliczFn.power_log(p, edge).a == edge
    below = math.nextafter(edge, -math.inf)
    if below >= 0.0:
        assert OrliczFn.power_log(p, below).a == below
    else:  # p = 1: the edge is a = 0, and below it the range rule refuses
        with pytest.raises(ValueError, match="0 <= a < p"):
            OrliczFn.power_log(p, below)
    above = math.nextafter(edge, math.inf)
    with pytest.raises(ValueError, match="convexity") as err:
        OrliczFn.power_log(p, above)
    assert f"p = {p!r}, a = {above!r}" in str(err.value) and f"= {edge!r}" in str(err.value)


def test_convexity_rule_refuses_what_the_grid_probe_let_through():
    for p, probe_max in _PROBE_ADMITTED:
        for a in (probe_max, (probe_max + p * (p - 1.0) / (2.0 * p - 1.0)) / 2.0):
            with pytest.raises(ValueError, match="convexity"):
                OrliczFn.power_log(p, a)
    with pytest.raises(ValueError, match="convexity"):
        OrliczFn.power_log(1.0, 5e-324)


def test_builtin_orlicz_spaces_round_trip_through_json():
    for label, N in ORLICZ_FNS:
        desc = space_to_json(Orlicz(N))
        assert space_to_json(space_from_json(desc)) == desc
        assert (desc["orlicz"]["form"] == "power_log") == ("log" in label)
        assert space_from_json(desc) == Orlicz(N)
