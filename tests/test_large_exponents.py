"""Norms at exponents whose powers leave the float range, against mpmath.

Every family sums powers q of entries scaled below 2, which stays finite
while q + log2(length) <= 1023; past that rule the norms scale by the
largest term.  Each case below either lands within 1e-14 relative of a
50-digit mpmath value or raises a ValueError naming the exponent; none may
give inf, nan, 0 or a warning.

The inputs are M v with v = 1 (flat) or v_k = 2^-(bit_length(k) - 1)
(dyadic steps), so every entry is exactly M times a power of two, and the
reference is M times the norm of v, computed once per (lattice, q, length,
shape) from runs of equal entries.

EX over l^p is held to 1e-14 plus 1.5e-16 |log2 M|: its kernel sums in the
log domain from log2 of the unscaled entries, which costs ~|log2 M| units in
the last place at any exponent (7.5e-14 at M = 5e-200).  It never overflows
and is not changed here, since every witness and scan residual runs on it.
"""

import functools
import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from symseq.cli import parse_args, run
from symseq.lattices import EX, UN, WeightedLq, lattice_norm
from symseq.spaces import Lorentz, Lp, LpQ, Orlicz, OrliczFn, norm, power_weights

EXPONENTS = [961.0, 1023.0, 1100.0, 2000.0, 1e6]
LENGTHS = [1, 2, 1000]
MAXIMA = [c * 10.0**e for c in (3.0, 5.0, 7.9) for e in (0, 200, -200)]
THETA = 0.1


def _shape(kind: str, n: int) -> list:
    """Exponents j of v_k = 2^-j, k = 1..n (nonincreasing v)."""
    return [0] * n if kind == "flat" else [k.bit_length() - 1 for k in range(1, n + 1)]


@functools.lru_cache(maxsize=None)
def _head_sums(s: float) -> list:
    """[sum_{k <= P} k^s for P = 0..1000] in mpmath."""
    out = [mpmath.mpf(0)]
    for k in range(1, 1001):
        out.append(out[-1] + mpmath.mpf(k) ** s)
    return out


def _power_sum(s: float, top: int):
    """sum_{k <= top} k^s: from the head up to 1000, by Hurwitz zeta past it (s < -1)."""
    if top <= 1000:
        return _head_sums(s)[top]
    assert s < -1, "no reference for a divergent power sum this long"
    return mpmath.zeta(-s) - mpmath.zeta(-s, top + 1)


def _runs_norm(q: float, js: list, ends: list, s: float):
    """(sum_i 2^(-q j_i) (W(P_i) - W(P_{i-1})))^(1/q), W(P) = sum_{k<=P} k^s:
    the norm of a nonincreasing rearrangement whose value 2^-j_i runs
    through position P_i."""
    total, prev = mpmath.mpf(0), mpmath.mpf(0)
    for j, end in zip(js, ends):
        w = _power_sum(s, end)
        total += mpmath.mpf(2) ** (-q * j) * (w - prev)
        prev = w
    return total ** (1 / mpmath.mpf(q))


@functools.lru_cache(maxsize=None)
def _reference(family: str, q: float, n: int, kind: str):
    """The norm of v (not of M v) in 50 digits."""
    with mpmath.workdps(50):
        js = _shape(kind, n)
        q_mp = mpmath.mpf(q)
        if family in ("lp", "orlicz"):
            return mpmath.fsum(mpmath.mpf(2) ** (-q_mp * j) for j in js) ** (1 / q_mp)
        if family in ("ex_lp", "un", "ex_orlicz"):  # block k holds 2^(k-1) entries
            return mpmath.fsum(mpmath.mpf(2) ** (k - q_mp * j) for k, j in enumerate(js)) ** (1 / q_mp)
        if family == "wlq":  # mu_k = 2^-(k-1)
            return mpmath.fsum(mpmath.mpf(2) ** (-q_mp * (k + j)) for k, j in enumerate(js)) ** (1 / q_mp)
        s = -THETA * q if family in ("lorentz", "ex_lorentz") else q / 2.0 - 1.0
        if family in ("lorentz", "lpq"):
            return _runs_norm(q, js, list(range(1, n + 1)), s)
        return _runs_norm(q, js, [(1 << k) - 1 for k in range(1, n + 1)], s)  # EX: S a


def _cases(q: float):
    """(family, callable on a vector, lengths): every space, wlq and every EX/UN."""
    spaces = {
        "lp": Lp(q),
        "lpq": LpQ(2.0, q),
        "lorentz": Lorentz(q, power_weights(THETA)),
        "orlicz": Orlicz(OrliczFn.power(q)),
    }
    yield from ((f, functools.partial(norm, sp), LENGTHS) for f, sp in spaces.items())
    yield "wlq", functools.partial(lattice_norm, WeightedLq(q, ratio=0.5)), LENGTHS
    yield "ex_lp", functools.partial(lattice_norm, EX(spaces["lp"])), LENGTHS
    # 2^63 - 1 entries at most under S, and 64 Luxemburg block weights
    yield "ex_lpq", functools.partial(lattice_norm, EX(spaces["lpq"])), [1, 2, 63]
    yield "ex_lorentz", functools.partial(lattice_norm, EX(spaces["lorentz"])), [1, 2, 63]
    yield "ex_orlicz", functools.partial(lattice_norm, EX(spaces["orlicz"])), [1, 2, 64]
    yield "un", functools.partial(lattice_norm, UN(OrliczFn.power(q))), [1, 2, 64]


@pytest.mark.parametrize("q", EXPONENTS, ids=repr)
def test_large_exponent_norms_match_mpmath(q):
    refused = []
    for family, evaluate, lengths in _cases(q):
        for n in lengths:
            for kind in ("flat", "dyadic"):
                v = np.ldexp(1.0, [-j for j in _shape(kind, n)])
                for big in MAXIMA:
                    where = f"{family} q={q!r} n={n} {kind} max={big!r}"
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            got = evaluate(big * v)
                        except ValueError as exc:
                            assert repr(q) in str(exc), f"{where}: {exc}"
                            refused.append(family)
                            continue
                    assert math.isfinite(got) and got > 0.0, f"{where}: {got!r}"
                    with mpmath.workdps(50):
                        want = mpmath.mpf(big) * _reference(family, q, n, kind)
                        err = abs((mpmath.mpf(got) - want) / want)
                    tol = 1e-14 + (1.5e-16 * abs(math.log2(big)) if family == "ex_lp" else 0.0)
                    assert err <= tol, f"{where}: {got!r} against {want}, {float(err):.2e} relative"
    # only EX over l^{2,q} refuses: its weight sums W(n) = sum k^(q/2-1) leave the float range
    assert set(refused) <= {"ex_lpq"}


def test_lpq_weights_past_the_float_range_fold_into_the_entries():
    # k^49 overflows by k = 2^21, the sum of k^49 does not once it is taken to the 1/100
    with mpmath.workdps(50):
        n = mpmath.mpf(2) ** 21
        want = ((mpmath.bernpoly(50, n + 1) - mpmath.bernpoly(50, 1)) / 50) ** (mpmath.mpf(1) / 100)
        got = norm(LpQ(2.0, 100.0), np.ones(2**21))
        assert abs((mpmath.mpf(got) - want) / want) <= 1e-14


@pytest.mark.parametrize("space, want", [
    ('{"kind":"lp","p":1100}', 7.9),
    ('{"kind":"lpq","p":2,"q":1e6}', 7.9),
])
def test_cli_norm_at_a_large_exponent_is_the_max(space, want, capsys):
    code = run(parse_args(["norm", "--space", space, "--vector", "[7.9]"]))
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == want
