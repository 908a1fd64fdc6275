"""Acceptance gate: one test per advertised guarantee, strict tolerances.

Each test drives the corresponding end-to-end check and asserts its verdict,
so `pytest -v` prints one pass/fail line per criterion.  The check's detail
string (observed vs expected) surfaces in the assertion message on failure.
"""

import dataclasses

import numpy as np
import pytest

from symseq import indices, operators, spectral, verify


def _gate(check_fn):
    r = check_fn()
    status = "PASS" if r.passed else "FAIL"
    print(f"[{r.crit_id:2d}] {status} {r.name}: {r.detail}")
    assert r.passed, f"criterion {r.crit_id} ({r.name}): {r.detail}"


def test_criterion_01_symmetry_and_monotonicity():
    _gate(verify.check_symmetry_and_monotonicity)


def test_criterion_02_operator_constants():
    _gate(verify.check_operator_constants)


def test_criterion_03_dyadic_sandwich():
    _gate(verify.check_dyadic_sandwich)


def test_criterion_04_intertwining_exact():
    _gate(verify.check_intertwining_exact)


def _break_exact_kernel(monkeypatch, kind, fault):
    """Route every exact ``kind`` application through ``fault``."""
    real = operators._apply

    def patched(op, x):
        out = real(op, x)
        return fault(op, x, out) if isinstance(op, kind) else out

    monkeypatch.setattr(operators, "_apply", patched)


def test_criterion_04_detects_a_broken_intertwining(monkeypatch):
    def lambda_one_late(op, x, out):
        # (D - lam)x = (q Dx - p x) / q: subtract the p x term one entry later
        p, n = op.lam.numerator, x.num.size
        num = out.num.copy()
        num[:n] += p * x.num
        num[1 : n + 1] -= p * x.num
        return out._replace(num=num)

    _break_exact_kernel(monkeypatch, operators.DoublingMinusLambda, lambda_one_late)
    r = verify.check_intertwining_exact()
    assert not r.passed
    assert "S != S(shift-" in r.detail


def test_criterion_04_detects_a_broken_block_scaling(monkeypatch):
    def first_block_doubled(op, x, out):
        # block 0 scaled by 2^B, one factor of 2 past its 2^(B-1)
        num = out.num.copy()
        num[0] *= 2
        return out._replace(num=num)

    _break_exact_kernel(monkeypatch, operators.AvgProject, first_block_doubled)
    r = verify.check_intertwining_exact()
    assert not r.passed
    assert r.detail.startswith("Q(D-")


def test_criterion_05_index_round_trips():
    _gate(verify.check_index_round_trips)


def test_criterion_05_detects_a_drifting_index_profile(monkeypatch):
    # W (1 + 1e-3 log2 n): every Lorentz partial sum drifts with log n, which
    # moves the Lorentz indices by ~1.4e-3, past the 1e-3 round-trip tolerance
    real = indices._weight_sums

    def drifting(space, pts):
        return real(space, pts) * (1.0 + 1e-3 * np.log2(np.asarray(pts, dtype=float)))

    monkeypatch.setattr(indices, "_weight_sums", drifting)
    r = verify.check_index_round_trips()
    assert not r.passed
    assert r.detail.startswith("lorentz")


def test_criterion_05_detects_a_drifting_orlicz_profile(monkeypatch):
    # phi(2^k) (1 + 1e-6 k): the log phi profile gains ~1.44e-6 k, which
    # moves the Orlicz indices past the 1e-8 round-trip tolerance
    real = indices.fundamental_function

    def drifting(space, n):
        return real(space, n) * (1.0 + 1e-6 * np.log2(np.asarray(n, dtype=float)))

    monkeypatch.setattr(indices, "fundamental_function", drifting)
    r = verify.check_index_round_trips()
    assert not r.passed
    assert r.detail.startswith("orlicz")


def test_criterion_06_index_ordering_chain():
    _gate(verify.check_index_ordering_chain)


def test_criterion_07_shift_exponent_bridge():
    _gate(verify.check_shift_exponent_bridge)


def test_criterion_08_witness_rates():
    # orbit residuals (4/n)^{1/p}; branching witness of unit norm with base-2
    # and base-3 residuals (2/n)^{1/p}, each at 1e-10
    _gate(verify.check_witness_rates)


def test_criterion_08_detects_base3_residual_offset(monkeypatch):
    real = verify.branching_witness

    def off_by_1e9(p, n):
        r = real(p, n)
        return dataclasses.replace(r, d3_residual=r.d3_residual + 1e-9)

    monkeypatch.setattr(verify, "branching_witness", off_by_1e9)
    r = verify.check_witness_rates()
    assert not r.passed
    assert "base-3 residual" in r.detail


def test_criterion_09_orbit_disjointness():
    _gate(verify.check_orbit_disjointness)


def test_criterion_09_detects_colliding_images(monkeypatch):
    # without the i*den offset all base images of a key coincide
    def no_offset(base, num, coef, den):
        return spectral._merge(np.repeat(num // base, base), np.repeat(coef, base))

    monkeypatch.setattr(spectral, "_dilate", no_offset)
    r = verify.check_orbit_disjointness()
    assert not r.passed
    assert "((1, 1), (1, 1), None)" in r.detail


def test_criterion_10_shift_machinery():
    _gate(verify.check_shift_machinery)


def test_criterion_11_equivalence_envelopes():
    _gate(verify.check_equivalence_envelopes)


def test_criterion_12_scan_coherence():
    _gate(verify.check_scan_coherence)
