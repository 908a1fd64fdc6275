"""Correctness oracles for symseq outputs, computed apart from symseq.

Nothing here imports symseq.  Norms come from sorted-sum formulas evaluated
in scaled form (so the oracle stays right across the whole float range),
Luxemburg norms from ``scipy.optimize.brentq`` on the modular, operators from
the index conventions written out again below, and witness and index targets
from their closed forms.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.  The tolerances are module constants so the tests can
perturb an output just past them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

# relative tolerance for l^p, l^{p,q} and Lorentz norms (sorted-sum formulas)
SUM_NORM_RTOL = 1e-12
# relative tolerance for Luxemburg norms against brentq on the modular
ORLICZ_RTOL = 1e-10
# relative tolerance for a scan estimate against its rebuilt witness
SCAN_RTOL = 1e-9
# doubling-orbit witness residual on l^p: (4/n)^(1/p), criterion 8's tolerance
VN_ATOL = 1e-9
# two-branch witness norm and residuals, criterion 8's tolerance
UN_ATOL = 1e-10
# index targets: criterion 5's tolerances per family
INDEX_ATOL = {"lorentz": 1e-3, "lpq": 1e-3, "orlicz": 1e-8, "lp": 1e-14}
# alpha <= beta up to criterion 6's slack: where the two indices are equal,
# the reported points can cross by ~1e-8 (see CHANGES.md)
ORDER_SLACK = 1e-6


# ---------------------------------------------------------------------------
# Orlicz functions, written out independently


def orlicz_fn(desc: dict):
    """N as a numpy callable from its JSON descriptor."""
    if desc["form"] == "power":
        p = float(desc["p"])
        return lambda t: np.power(t, p)
    if desc["form"] == "power_log":
        p, a = float(desc["p"]), float(desc["a"])

        def n(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros_like(t)
            pos = t > 0
            out[pos] = t[pos] ** p * (1.0 + a * np.abs(np.log(t[pos])))
            return out

        return n
    raise ValueError(f"unknown orlicz form {desc['form']!r}")


def _fnum(v) -> float:
    return math.inf if v in ("inf", "infinity") else float(v)


# ---------------------------------------------------------------------------
# operators (1-based conventions of the package README)


def doubling(x: np.ndarray) -> np.ndarray:
    """(Dx)_1 = 0, (Dx)_k = x_floor(k/2) for k >= 2."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(2 * x.size + 1)
    for k in range(2, out.size + 1):
        out[k - 1] = x[k // 2 - 1]
    return out


def doubling_minus(lam: float, x: np.ndarray) -> np.ndarray:
    out = doubling(x)
    out[: x.size] -= lam * np.asarray(x, dtype=float)
    return out


def dilate_up(m: int, x: np.ndarray) -> np.ndarray:
    """(sigma_m x)_k = x_ceil(k/m)."""
    x = np.asarray(x, dtype=float)
    return np.array([x[(k - 1) // m] for k in range(1, m * x.size + 1)])


def dilate_down(m: int, x: np.ndarray) -> np.ndarray:
    """(sigma_{1/m} x)_k = mean of x over positions (k-1)m+1 .. km."""
    x = list(np.asarray(x, dtype=float))
    x += [0.0] * ((-len(x)) % m)
    return np.array([math.fsum(x[i : i + m]) / m for i in range(0, len(x), m)])


def block_average(x: np.ndarray) -> np.ndarray:
    """Q: mean over each dyadic block [2^(k-1), 2^k - 1]."""
    x = list(np.asarray(x, dtype=float))
    out = []
    size = 1
    while len(out) < len(x):
        block = x[size - 1 : 2 * size - 1]
        mean = math.fsum(block) / size
        out.extend([mean] * size)
        size *= 2
    return np.array(out)


def apply_op(text: str | None, x: np.ndarray) -> np.ndarray:
    """The CLI operator grammar, for the operators the benchmark uses."""
    if text is None:
        return np.asarray(x, dtype=float)
    name, _, arg = text.partition(":")
    if name == "doubling":
        return doubling(x)
    if name == "sigma_up":
        return dilate_up(int(arg), x)
    if name == "sigma_down":
        return dilate_down(int(arg), x)
    if name == "Q":
        return block_average(x)
    raise ValueError(f"oracle has no operator {text!r}")


# ---------------------------------------------------------------------------
# norms


def _star(x) -> np.ndarray:
    a = np.sort(np.abs(np.asarray(x, dtype=float)))[::-1]
    return a[a > 0]


def _scaled_power_sum(a: np.ndarray, weights, r: float) -> float:
    """(sum (a_k w_k)^r)^(1/r), scaled by the largest term so nothing overflows."""
    terms = a * weights
    top = float(np.max(terms))
    return top * math.fsum((terms / top) ** r) ** (1.0 / r)


def sum_norm(space: dict, x) -> float:
    """l^p, l^{p,q} and Lorentz (power weights) norms from their formulas."""
    a = _star(x)
    if a.size == 0:
        return 0.0
    k = np.arange(1, a.size + 1, dtype=float)
    kind = space["kind"]
    if kind == "lp":
        p = _fnum(space["p"])
        if p == math.inf:
            return float(a[0])
        return _scaled_power_sum(a, np.ones_like(a), p)
    if kind == "lpq":
        p, q = float(space["p"]), _fnum(space["q"])
        if q == math.inf:
            return float(np.max(a * k ** (1.0 / p)))
        return _scaled_power_sum(a, k ** (1.0 / p - 1.0 / q), q)
    if kind == "lorentz":
        w = space["weights"]
        if w["form"] != "power":
            raise ValueError("oracle handles power weights only")
        return _scaled_power_sum(a, k ** -float(w["theta"]), float(space["q"]))
    raise ValueError(f"sum_norm does not handle {kind!r}")


def _modular_root(modular, lo: float) -> float:
    """The u > 0 where the decreasing modular crosses 0, starting above lo."""
    hi = 2.0 * lo
    while modular(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    return brentq(modular, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)


def orlicz_norm(desc: dict, x) -> float:
    """Luxemburg norm inf{u : sum N(|x_k|/u) <= 1}, by brentq."""
    a = _star(x)
    if a.size == 0:
        return 0.0
    n = orlicz_fn(desc)
    # N(1) = 1 and N(2) >= 2 by convexity: the modular is positive at max/2
    return _modular_root(lambda u: math.fsum(n(a / u)) - 1.0, float(a[0]) / 2.0)


def un_norm(desc: dict, coords) -> float:
    """UN lattice norm inf{u : sum 2^(k-1) N(|a_k|/u) <= 1}, by brentq."""
    a = np.abs(np.asarray(coords, dtype=float))
    if not np.any(a > 0):
        return 0.0
    n = orlicz_fn(desc)
    w = 2.0 ** np.arange(a.size)
    return _modular_root(lambda u: math.fsum(w * n(a / u)) - 1.0, float(a.max()) / 2.0)


def space_norm(space: dict, x) -> float:
    if space["kind"] == "orlicz":
        return orlicz_norm(space["orlicz"], x)
    return sum_norm(space, x)


def _rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want)) or want == 0.0:
        return math.inf
    return abs(got - want) / abs(want)


def check_norm(task: dict, got: float) -> list[str]:
    """One norm-batch evaluation against the oracle for its family."""
    x = np.asarray(task["x"], dtype=float) * task.get("scale", 1.0)
    if "lattice" in task:
        want = un_norm(task["lattice"]["orlicz"], x)
        tol = ORLICZ_RTOL
    else:
        space = task["space"]
        want = space_norm(space, apply_op(task.get("op"), x))
        tol = ORLICZ_RTOL if space["kind"] == "orlicz" else SUM_NORM_RTOL
    err = _rel_err(float(got), want)
    if err > tol:
        return [f"norm {task['label']}: got {got!r}, oracle {want!r} (rel err {err:.2e} > {tol:.0e})"]
    return []


def check_doubling_identity(p: float, norm_x: float, norm_dx: float) -> list[str]:
    """On l^p, ||Dx|| = 2^(1/p) ||x|| exactly in theory."""
    want = 2.0 ** (1.0 / p) * norm_x
    err = _rel_err(norm_dx, want)
    if err > SUM_NORM_RTOL:
        return [f"l^{p}: ||Dx|| = {norm_dx!r} vs 2^(1/p)||x|| = {want!r} (rel err {err:.2e})"]
    return []


# ---------------------------------------------------------------------------
# index reports


def index_target(space: dict) -> tuple[float, float] | None:
    """(closed-form alpha = beta, tolerance) for the families with one."""
    kind = space["kind"]
    if kind == "lp":
        p = _fnum(space["p"])
        return (0.0 if p == math.inf else 1.0 / p), INDEX_ATOL["lp"]
    if kind == "lpq":
        return 1.0 / float(space["p"]), INDEX_ATOL["lpq"]
    if kind == "lorentz" and space["weights"]["form"] == "power":
        q, th = float(space["q"]), float(space["weights"]["theta"])
        return 1.0 / q - th, INDEX_ATOL["lorentz"]
    if kind == "orlicz" and space["orlicz"]["form"] == "power":
        return 1.0 / float(space["orlicz"]["p"]), INDEX_ATOL["orlicz"]
    return None


def _recip(x: float) -> float:
    return math.inf if x == 0.0 else 1.0 / x


def _check_points(space: dict, alpha: float, beta: float, f_interval) -> list[str]:
    bad = []
    if not alpha <= beta + ORDER_SLACK:
        bad.append(f"alpha {alpha} > beta {beta} + {ORDER_SLACK:.0e}")
    want_f = [_recip(beta), _recip(alpha)]
    got_f = [_fnum(v) for v in f_interval]
    if got_f != want_f:
        bad.append(f"f_interval {got_f} != [1/beta, 1/alpha] = {want_f}")
    target = index_target(space)
    if target is not None:
        want, tol = target
        for name, got in (("alpha", alpha), ("beta", beta)):
            if not abs(got - want) <= tol:
                bad.append(f"{name} {got!r} vs closed form {want!r} (tol {tol:.0e})")
    return bad


def check_index(space: dict, out: dict) -> list[str]:
    """`symseq index` payload: enclosures, ordering, f_interval, closed form."""
    bad = []
    for name in ("alpha", "beta"):
        iv = out[name]
        if not iv["lo"] <= iv["point"] <= iv["hi"]:
            bad.append(f"{name}: point {iv['point']} outside [{iv['lo']}, {iv['hi']}]")
    bad += _check_points(space, out["alpha"]["point"], out["beta"]["point"], out["f_interval"])
    return bad


def check_fset(space: dict, out: dict) -> list[str]:
    """`symseq fset` payload: f_interval = [1/beta, 1/alpha], closed form."""
    return _check_points(space, out["alpha"], out["beta"], out["f_interval"])


# ---------------------------------------------------------------------------
# residual scans


def _log2_sum(logs: np.ndarray) -> float:
    top = float(np.max(logs))
    return top + math.log2(math.fsum(2.0 ** (logs - top)))


def lp_block_residual(p: float, lam: float, rho: float, m: int) -> float:
    """||(D - lam) S a|| / ||S a|| in l^p for a_k = rho^(k-1), k <= m.

    S spreads coordinate k over the dyadic block [2^(k-1), 2^k - 1] and
    (D - lam) S = S (tau_1 - lam), so the residual lives in block
    coordinates, where block k weighs 2^(k-1).  Evaluated in log2 so m may
    reach 2^14: t_1 = -lam, t_k = rho^(k-2) (1 - lam rho) for 2 <= k <= m,
    t_{m+1} = rho^(m-1).
    """
    lr = math.log2(rho)
    k = np.arange(1, m + 1, dtype=float)
    den = _log2_sum(p * (k - 1.0) * lr + (k - 1.0))
    num = [p * math.log2(lam), p * (m - 1.0) * lr + m]
    gap = abs(1.0 - lam * rho)
    if gap > 0.0 and m >= 2:
        kk = np.arange(2, m + 1, dtype=float)
        num.extend(p * ((kk - 2.0) * lr + math.log2(gap)) + (kk - 1.0))
    return 2.0 ** ((_log2_sum(np.array(num)) - den) / p)


def orbit_window(rho: float, m: int) -> np.ndarray:
    """The materialized scan witness: rho^(k-1) on dyadic block k, k <= m."""
    return np.repeat(rho ** np.arange(m, dtype=float), 2 ** np.arange(m))


def ambient_residual(space: dict, lam: float, v: np.ndarray) -> float:
    return space_norm(space, doubling_minus(lam, v)) / space_norm(space, v)


def check_scan(space: dict, out: dict) -> list[str]:
    """Rebuild each point's witness from (m, rho); its residual must match."""
    bad = []
    pts = out["points"]
    for pt in pts:
        lam, est = pt["lambda"], pt["residual_estimate"]
        m, rho = int(pt["params"]["m"]), float(pt["params"]["rho"])
        if space["kind"] == "lp":
            want = lp_block_residual(_fnum(space["p"]), lam, rho, m)
        else:
            want = ambient_residual(space, lam, orbit_window(rho, m))
        err = _rel_err(est, want)
        if err > SCAN_RTOL:
            bad.append(f"scan lambda={lam}: estimate {est!r}, rebuilt witness {want!r} "
                       f"(rel err {err:.2e})")
    if space["kind"] == "lp" and pts:
        star = 2.0 ** (1.0 / _fnum(space["p"]))
        nearest = min(pts, key=lambda q: abs(q["lambda"] - star))
        lowest = min(pts, key=lambda q: q["residual_estimate"])
        if lowest is not nearest:
            bad.append(f"scan minimum at lambda={lowest['lambda']}, not at "
                       f"{nearest['lambda']} nearest 2^(1/p) = {star}")
    return bad


# ---------------------------------------------------------------------------
# witnesses


def check_vn_lp(p: float, n: int, out: dict) -> list[str]:
    bad = []
    want = (4.0 / n) ** (1.0 / p)
    if not abs(out["residual"] - want) <= VN_ATOL:
        bad.append(f"vn p={p} n={n}: residual {out['residual']!r} vs (4/n)^(1/p) = {want!r}")
    if not abs(out["norm_value"] - 1.0) <= VN_ATOL:
        bad.append(f"vn p={p} n={n}: norm {out['norm_value']!r} != 1")
    if out["support"] != 2**n - 1:
        bad.append(f"vn p={p} n={n}: support {out['support']} != 2^n - 1")
    return bad


def check_un(p: float, n: int, out: dict) -> list[str]:
    bad = []
    want = (2.0 / n) ** (1.0 / p)
    if not abs(out["norm_value"] - 1.0) <= UN_ATOL:
        bad.append(f"un p={p} n={n}: ||u_n|| = {out['norm_value']!r} != 1")
    for key in ("d2_residual", "d3_residual"):
        if not abs(out[key] - want) <= UN_ATOL:
            bad.append(f"un p={p} n={n}: {key} {out[key]!r} vs (2/n)^(1/p) = {want!r}")
    support = sum(2**j * 3**k for j in range(1, n + 1) for k in range(1, n + 1))
    if out["support"] != support:
        bad.append(f"un p={p} n={n}: support {out['support']} != sum 2^j 3^k = {support}")
    return bad


def vn_orbit(p: float, n: int) -> np.ndarray:
    """v_n = n^(-1/p) sum_{k<=n} 2^((1-k)/p) D^(k-1) e_1, built with `doubling`."""
    y = np.array([1.0])
    v = np.zeros(0)
    for k in range(1, n + 1):
        v = np.pad(v, (0, y.size - v.size))
        v += 2.0 ** ((1.0 - k) / p) * y
        y = np.trim_zeros(doubling(y), "b")
    return v * n ** (-1.0 / p)


def check_vn_space(space: dict, p: float, n: int, out: dict) -> list[str]:
    """A vn witness on any space, re-evaluated from the orbit it describes."""
    v = vn_orbit(p, n)
    lam = 2.0 ** (1.0 / p)
    bad = []
    for key, want in (("norm_value", space_norm(space, v)),
                      ("residual", ambient_residual(space, lam, v))):
        err = _rel_err(out[key], want)
        if err > ORLICZ_RTOL:
            bad.append(f"vn on {space['kind']} n={n}: {key} {out[key]!r} vs {want!r} "
                       f"(rel err {err:.2e})")
    if out["support"] != int(np.count_nonzero(v)):
        bad.append(f"vn on {space['kind']} n={n}: support {out['support']} != {np.count_nonzero(v)}")
    return bad


# ---------------------------------------------------------------------------
# verify


def check_verify(ids: list[int], returncode: int, stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    want = f"{len(ids)}/{len(ids)} checks passed"
    bad = []
    if returncode != 0:
        bad.append(f"verify --suite {ids}: exit code {returncode}")
    if not lines or lines[-1] != want:
        bad.append(f"verify --suite {ids}: last line {lines[-1] if lines else ''!r}, want {want!r}")
    return bad
