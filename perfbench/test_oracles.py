"""The benchmark's oracles accept right answers and reject near misses.

Run with ``python3 -m pytest perfbench/test_oracles.py``.  Each checker is
fed an output built from the closed form, then the same output perturbed
just past the checker's tolerance, which it must reject.  None of this
imports symseq.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import sessions  # noqa: E402

LORENTZ = {"kind": "lorentz", "q": 2.0, "weights": {"form": "power", "theta": 0.25}}
LPQ = {"kind": "lpq", "p": 3.0, "q": 2.0}
ORLICZ = {"kind": "orlicz", "orlicz": {"form": "power", "p": 1.5}}
ORLICZ_LOG = {"kind": "orlicz", "orlicz": {"form": "power_log", "p": 2.0, "a": 0.6}}


def _index_out(alpha: float, beta: float) -> dict:
    return {
        "alpha": {"lo": alpha, "hi": alpha + 1e-3, "point": alpha},
        "beta": {"lo": beta, "hi": beta + 1e-3, "point": beta},
        "f_interval": [1.0 / beta, 1.0 / alpha],
    }


# --- index reports ---------------------------------------------------------


@pytest.mark.parametrize("space, target, tol", [
    (LORENTZ, 0.25, 1e-3),
    (LPQ, 1.0 / 3.0, 1e-3),
    (ORLICZ, 2.0 / 3.0, 1e-8),
    ({"kind": "lp", "p": 3.0}, 1.0 / 3.0, 1e-14),
])
def test_index_closed_form_tolerance(space, target, tol):
    inside = target + 0.5 * tol
    assert oracles.check_index(space, _index_out(inside, inside)) == []
    off = target + 2.0 * tol
    assert oracles.check_index(space, _index_out(target, off))
    assert oracles.check_fset(space, {"alpha": off, "beta": off,
                                      "f_interval": [1.0 / off, 1.0 / off]})


def test_index_lorentz_off_by_2e3_rejected():
    assert oracles.check_index(LORENTZ, _index_out(0.25 + 2e-3, 0.25 + 2e-3))


def test_index_structure_rejected():
    out = _index_out(0.25, 0.25)
    out["alpha"]["lo"] = 0.2501
    assert any("outside" in p for p in oracles.check_index(LORENTZ, out))
    out = _index_out(0.2504, 0.2499)
    assert any("alpha" in p and "> beta" in p for p in oracles.check_index(LORENTZ, out))
    # a crossing inside criterion 6's slack passes, one just past it fails
    assert oracles.check_index(LORENTZ, _index_out(0.25 + 1e-8, 0.25)) == []
    out = _index_out(0.25 + 2e-6, 0.25)
    assert any("alpha" in p and "> beta" in p for p in oracles.check_index(LORENTZ, out))
    out = _index_out(0.25, 0.25)
    out["f_interval"][0] = math.nextafter(4.0, 5.0)
    assert any("f_interval" in p for p in oracles.check_index(LORENTZ, out))


def test_index_without_closed_form_checks_structure_only():
    assert oracles.check_index(ORLICZ_LOG, _index_out(0.503, 0.519)) == []


# --- norms -----------------------------------------------------------------


def _norm_task(space, x, op=None, scale=None):
    task = {"label": "t", "space": space, "x": list(x), "op": op}
    if scale is not None:
        task["scale"] = scale
    return task


@pytest.mark.parametrize("space", [{"kind": "lp", "p": 2.0}, LPQ, LORENTZ])
def test_sum_norm_tolerance(space):
    x = np.random.default_rng(3).standard_normal(500)
    want = oracles.sum_norm(space, x)
    assert oracles.check_norm(_norm_task(space, x), want) == []
    assert oracles.check_norm(_norm_task(space, x), want * (1 + 2e-12))


def test_sum_norm_formulas():
    x = [3.0, -4.0]
    assert oracles.sum_norm({"kind": "lp", "p": 2.0}, x) == 5.0
    # l^{2,2} is l^2; Lorentz with theta = 0 is l^q
    assert oracles.sum_norm({"kind": "lpq", "p": 2.0, "q": 2.0}, x) == 5.0
    lor = {"kind": "lorentz", "q": 2.0, "weights": {"form": "power", "theta": 0.0}}
    assert oracles.sum_norm(lor, x) == 5.0
    # l^{p,q}: (sum x*_k^q k^(q/p-1))^(1/q) = (16 + 9 * 2^(-1/3))^(1/2) at p=3, q=2
    assert math.isclose(oracles.sum_norm(LPQ, x), (16 + 9 * 2 ** (-1 / 3)) ** 0.5, rel_tol=1e-15)


def test_orlicz_norm_tolerance():
    x = np.random.default_rng(4).standard_normal(300)
    want = oracles.orlicz_norm(ORLICZ["orlicz"], x)
    # N(t) = t^p makes the Luxemburg norm the l^p norm
    assert math.isclose(want, oracles.sum_norm({"kind": "lp", "p": 1.5}, x), rel_tol=1e-13)
    assert oracles.check_norm(_norm_task(ORLICZ, x), want * (1 + 5e-11)) == []
    assert oracles.check_norm(_norm_task(ORLICZ, x), want * (1 + 1e-9))


def test_un_norm_tolerance():
    a = np.abs(np.random.default_rng(5).standard_normal(12))
    desc = {"form": "power", "p": 2.0}
    want = math.fsum(2.0 ** np.arange(a.size) * a**2) ** 0.5
    got = oracles.un_norm(desc, a)
    assert math.isclose(got, want, rel_tol=1e-13)
    task = {"label": "u", "lattice": {"kind": "un", "orlicz": desc}, "x": a.tolist()}
    assert oracles.check_norm(task, got) == []
    assert oracles.check_norm(task, got * (1 + 2e-10))


def test_wide_magnitude_inputs_fail_as_the_fault_predicts():
    for task in sessions.wide_tasks():
        x = np.asarray(task["x"]) * task["scale"]
        want = oracles.sum_norm(task["space"], x)
        assert math.isfinite(want) and want > 0
        assert math.isclose(want, task["scale"] * oracles.sum_norm(task["space"], task["x"]),
                            rel_tol=1e-14)
        assert oracles.check_norm(task, want) == []
        assert oracles.check_norm(task, math.inf if task["scale"] > 1 else 0.0)


def test_doubling_identity_tolerance():
    x = np.random.default_rng(6).standard_normal(64)
    nx = oracles.sum_norm({"kind": "lp", "p": 3.0}, x)
    ndx = oracles.sum_norm({"kind": "lp", "p": 3.0}, oracles.doubling(x))
    assert oracles.check_doubling_identity(3.0, nx, ndx) == []
    assert oracles.check_doubling_identity(3.0, nx, ndx * (1 + 2e-12))


def test_operators_by_hand():
    x = [1.0, 2.0, 3.0, 4.0]
    assert oracles.doubling(x).tolist() == [0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert oracles.dilate_up(2, x).tolist() == [1, 1, 2, 2, 3, 3, 4, 4]
    assert oracles.dilate_down(3, x).tolist() == [2.0, 4.0 / 3.0]
    # the last block [4, 7] holds x_4 and three zeros of padding
    assert oracles.block_average(x).tolist() == [1.0, 2.5, 2.5, 1.0, 1.0, 1.0, 1.0]
    wrong = oracles.block_average(x) + np.array([0, 0, 0, 0, 0, 0, 1e-9])
    task = _norm_task({"kind": "lp", "p": 2.0}, x, op="Q")
    assert oracles.check_norm(task, oracles.sum_norm({"kind": "lp", "p": 2.0}, wrong))


# --- scans -----------------------------------------------------------------


def test_block_residual_matches_materialized_witness():
    for p, lam, rho, m in ((2.0, 1.4, 0.7, 6), (1.0, 2.0, 0.5, 9), (3.0, 1.1, 1.2, 4)):
        v = oracles.orbit_window(rho, m)
        want = oracles.ambient_residual({"kind": "lp", "p": p}, lam, v)
        assert math.isclose(oracles.lp_block_residual(p, lam, rho, m), want, rel_tol=1e-13)


def _lp_scan(p: float, lams) -> dict:
    star = 2.0 ** (1.0 / p)
    pts = []
    for lam in lams:
        m, rho = (1 << 14, 1.0 / lam) if abs(lam - star) < 1e-12 else (64, 0.8 / lam)
        est = oracles.lp_block_residual(p, lam, rho, m)
        pts.append({"lambda": lam, "residual_estimate": est, "params": {"m": m, "rho": rho}})
    return {"points": pts}


def test_lp_scan_rebuild_tolerance_and_minimum():
    space = {"kind": "lp", "p": 2.0}
    star = 2.0**0.5
    out = _lp_scan(2.0, [star - 0.1, star, star + 0.1])
    assert oracles.check_scan(space, out) == []
    out["points"][0]["residual_estimate"] *= 1 + 2e-9
    assert oracles.check_scan(space, out)
    out = _lp_scan(2.0, [star - 0.1, star, star + 0.1])
    out["points"][0]["residual_estimate"] = out["points"][1]["residual_estimate"] / 2
    out["points"][0]["params"] = {"m": 1, "rho": 1.0}
    problems = oracles.check_scan(space, out)
    assert any("minimum" in p for p in problems)


def test_general_scan_rebuild_tolerance():
    lam, rho, m = 1.6, 0.63, 8
    est = oracles.ambient_residual(ORLICZ, lam, oracles.orbit_window(rho, m))
    out = {"points": [{"lambda": lam, "residual_estimate": est, "params": {"m": m, "rho": rho}}]}
    assert oracles.check_scan(ORLICZ, out) == []
    out["points"][0]["residual_estimate"] = est * (1 + 2e-9)
    assert oracles.check_scan(ORLICZ, out)


# --- witnesses -------------------------------------------------------------


def test_vn_lp_tolerance():
    p, n = 2.0, 64
    good = {"residual": (4.0 / n) ** 0.5, "norm_value": 1.0, "support": 2**n - 1}
    assert oracles.check_vn_lp(p, n, good) == []
    assert oracles.check_vn_lp(p, n, dict(good, residual=good["residual"] + 2e-9))
    assert oracles.check_vn_lp(p, n, dict(good, support=2**n))


def test_vn_orbit_is_the_doubling_orbit():
    p, n = 3.0, 10
    v = oracles.vn_orbit(p, n)
    lp = {"kind": "lp", "p": p}
    assert v.size == 2**n - 1
    assert math.isclose(oracles.sum_norm(lp, v), 1.0, rel_tol=1e-14)
    assert math.isclose(oracles.ambient_residual(lp, 2 ** (1 / p), v), (4 / n) ** (1 / p),
                        rel_tol=1e-13)


def test_vn_orlicz_tolerance():
    p, n = 1.5, 8
    v = oracles.vn_orbit(p, n)
    good = {"norm_value": oracles.orlicz_norm(ORLICZ["orlicz"], v),
            "residual": oracles.ambient_residual(ORLICZ, 2 ** (1 / p), v),
            "support": 2**n - 1}
    assert oracles.check_vn_space(ORLICZ, p, n, good) == []
    assert oracles.check_vn_space(ORLICZ, p, n, dict(good, residual=good["residual"] * (1 + 1e-9)))


def test_un_tolerance():
    p, n = 2.0, 5
    want = (2.0 / n) ** 0.5
    support = sum(2**j * 3**k for j in range(1, 6) for k in range(1, 6))
    good = {"norm_value": 1.0, "d2_residual": want, "d3_residual": want, "support": support}
    assert oracles.check_un(p, n, good) == []
    assert oracles.check_un(p, n, dict(good, d3_residual=want + 1e-9))
    assert oracles.check_un(p, n, dict(good, norm_value=1.0 + 1e-9))
    assert oracles.check_un(p, n, dict(good, support=support - 1))


# --- verify ----------------------------------------------------------------


def test_verify_summary():
    ok = "[ 4] PASS a\n[ 9] PASS b\n[10] PASS c\n3/3 checks passed\n"
    assert oracles.check_verify([4, 9, 10], 0, ok) == []
    assert oracles.check_verify([4, 9, 10], 1, ok)
    assert oracles.check_verify([4, 9, 10], 0, ok.replace("3/3", "2/3"))
