"""Dyadic-block lattices: closed-form norms, shift exponents, equivalences."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from symseq import lattices, spaces
from symseq.lattices import (
    EX,
    UN,
    WeightedLq,
    dyadic_equivalence_report,
    lattice_from_json,
    lattice_norm,
    lattice_to_json,
    sandwich_ratio,
    shift_exponents,
    unit_norms,
)
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
)
from symseq.operators import BlockEmbed, apply_array
from symseq.seq import Seq
from symseq.verify import BUILTIN_SPACES


# norms ------------------------------------------------------------------------


def test_ex_lp_norm_matches_materialized_embedding():
    rng = np.random.default_rng(21)
    for p in (1.0, 2.0, 3.0):
        lat = EX(Lp(p))
        for _ in range(40):
            a = np.abs(rng.standard_normal(int(rng.integers(1, 14))))
            want = norm(Lp(p), apply_array(BlockEmbed(), a))
            assert lattice_norm(lat, a) == pytest.approx(want, rel=1e-12)


def test_ex_lp_closed_form_on_units():
    # ||e_k||_EX = phi(2^{k-1}) = 2^{(k-1)/p}
    for p in (1.0, 2.0, 4.0):
        lat = EX(Lp(p))
        for k in (1, 2, 5, 30):
            e = np.zeros(k)
            e[-1] = 1.0
            assert lattice_norm(lat, e) == pytest.approx(
                2.0 ** ((k - 1) / p), rel=1e-12
            )


def test_ex_handles_large_supports_without_materializing():
    # 2^59 ambient entries would never fit; the block path must stay closed form
    lat = EX(Lp(2.0))
    a = np.ones(60)
    want = math.sqrt(sum(2.0 ** (k - 1) for k in range(1, 61)))
    assert lattice_norm(lat, a) == pytest.approx(want, rel=1e-12)


# Reference for the closed form: spread a over its blocks and take the norm.
SORTED_BASES = {
    "lorentz_q2_th0.25": Lorentz(2.0, power_weights(0.25)),
    "lorentz_q1_th0.3": Lorentz(1.0, power_weights(0.3)),
    "lorentz_q1.5_array": Lorentz(
        1.5, WeightSeq(data=tuple(1.0 / np.sqrt(np.arange(1.0, 5000.0))))
    ),
    "lpq_2_1": LpQ(2.0, 1.0),
    "lpq_3_2": LpQ(3.0, 2.0),
    "lpq_2_4_quasi": LpQ(2.0, 4.0),
    "lpq_3_inf": LpQ(3.0, math.inf),
}


@pytest.mark.parametrize("base", SORTED_BASES.values(), ids=SORTED_BASES.keys())
def test_ex_sorted_norm_matches_the_materialized_embedding(base):
    rng = np.random.default_rng(29)
    for _ in range(30):
        a = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 13))))
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.3] = -0.75  # ties across blocks
        got = lattice_norm(EX(base), a)
        for row, value in zip(a, got):
            assert lattice_norm(EX(base), row) == value  # the stack changes nothing
            want = norm(base, apply_array(BlockEmbed(), row))
            assert value == pytest.approx(want, rel=1e-14, abs=0)


def test_ex_sorted_norm_refuses_block_positions_past_2_63():
    for base in (LpQ(3.0, 2.0), Lorentz(2.0, power_weights(0.25))):
        # 63 blocks end at 2^63 - 1; a 64th would pass int64
        assert lattice_norm(EX(base), np.ones(63)) == pytest.approx(
            fundamental_function(base, (1 << 63) - 1), rel=1e-14
        )
        with pytest.raises(ValueError, match="2\\^63"):
            lattice_norm(EX(base), np.ones(64))
        # unit norms reach phi(2^63) at the default k_max = 64
        with pytest.raises(ValueError, match="2\\^63"):
            shift_exponents(EX(base))


def test_unit_norms_refuse_k_max_past_63_before_evaluating(monkeypatch):
    for base in (LpQ(3.0, 2.0), Lorentz(2.0, power_weights(0.25))):
        assert np.isfinite(shift_exponents(EX(base), k_max=63).k_plus)
        assert unit_norms(EX(base), 63).size == 63

    def no_sum(s, pts):
        raise AssertionError("a unit norm was evaluated past the cap")

    # phi(2^63) is past the producer's rule, refused before any partial sum
    monkeypatch.setattr(spaces, "_power_partial_sums", no_sum)
    for base in (LpQ(3.0, 2.0), Lorentz(2.0, power_weights(0.25))):
        for call in (lambda: unit_norms(EX(base), 64), lambda: shift_exponents(EX(base))):
            with pytest.raises(ValueError, match=r"^weight partial sums need positions below 2\^63$"):
                call()


def test_ex_norms_past_the_float_range_are_inf():
    # block 61 holds 2^60 entries: a norm past the float range is inf, with
    # no numpy overflow warning and no OverflowError from a scalar pow
    a = np.zeros(61)
    a[-1] = 1e308
    bases = (Lp(1.0), Lp(2.0), LpQ(3.0, 2.0), LpQ(3.0, math.inf), Lorentz(2.0, power_weights(0.25)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in bases:
            assert lattice_norm(EX(base), a) == math.inf, base
            inf, finite = lattice_norm(EX(base), np.vstack([a, a * 1e-300]))
            assert inf == math.inf and finite == lattice_norm(EX(base), a * 1e-300) < math.inf, base


def test_ex_orlicz_norm_is_the_un_norm():
    rng = np.random.default_rng(23)
    for N in (OrliczFn.power(1.5), OrliczFn.power_log(2.0, 0.6)):
        ex, un = EX(Orlicz(N)), UN(N)
        for _ in range(40):
            a = rng.standard_normal(int(rng.integers(1, 13)))
            got = lattice_norm(ex, a)
            assert got == lattice_norm(un, a)
            spread = norm(Orlicz(N), apply_array(BlockEmbed(), a))
            assert got == pytest.approx(spread, rel=1e-13)
        # 2^29 entries per block at the top: UN's 64-coordinate limit applies
        a = rng.standard_normal(30)
        assert lattice_norm(ex, a) == lattice_norm(un, a) > 0.0
        with pytest.raises(ValueError, match="64 coordinates"):
            lattice_norm(ex, np.ones(65))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_ex_lp_and_un_norms_reject_non_finite_input(bad):
    rng = np.random.default_rng(31)
    stack = rng.uniform(0.1, 2.0, (4, 6))
    lats = [EX(Lp(p)) for p in (1.0, 2.0, 3.0, math.inf)]
    lats += [UN(OrliczFn.power(2.0)), UN(OrliczFn.power_log(2.0, 0.6)), EX(Orlicz(OrliczFn.power(1.5)))]
    lats += [WeightedLq.lorentz_blocks(2.0, power_weights(0.25)),
             EX(Lorentz(2.0, power_weights(0.25))), EX(LpQ(3.0, 2.0))]
    for lat in lats:
        for pos in (0, 2, 5):
            row = stack[1].copy()
            row[pos] = bad
            with pytest.raises(ValueError, match="norm input must be finite"):
                lattice_norm(lat, row)
            with pytest.raises(ValueError, match="norm input must be finite"):
                lattice_norm(lat, np.vstack([stack, row]))
        with pytest.raises(ValueError, match="norm input must be finite"):
            lattice_norm(lat, [0.0, bad, 0.0])
        with pytest.raises(ValueError, match="norm input must be finite"):
            lattice_norm(lat, [math.nan, bad, 1.0])
    with pytest.raises(ValueError, match="norm input must be finite"):
        lattice_norm(UN(OrliczFn.power(2.0)), [1.0, bad])


# One row contract for every lattice: the custom N is a (p, a) pair that no
# built-in space holds, at the convexity edge a = p(p-1)/(2p-1).
_CUSTOM_N = OrliczFn.power_log(2.0, 2.0 / 3.0)
_ROW_NS = {
    "power": OrliczFn.power(1.5),
    "power_log": OrliczFn.power_log(2.0, 0.6),
    "custom": _CUSTOM_N,
}
_ARRAY_W = WeightSeq(data=tuple(1.0 / np.sqrt(np.arange(1.0, 5000.0))))
ROW_LATTICES = {
    **{f"ex_l{p}": EX(Lp(p)) for p in (1.0, 2.0, 3.0, math.inf)},
    "ex_l3_2": EX(LpQ(3.0, 2.0)),
    "ex_l3_inf": EX(LpQ(3.0, math.inf)),
    "ex_lorentz_power": EX(Lorentz(2.0, power_weights(0.25))),
    "ex_lorentz_array": EX(Lorentz(1.5, _ARRAY_W)),
    **{f"ex_orlicz_{k}": EX(Orlicz(N)) for k, N in _ROW_NS.items()},
    **{f"un_{k}": UN(N) for k, N in _ROW_NS.items()},
    "wlq_geometric": lattice_from_json({"kind": "wlq", "q": 2.0, "weights": {"form": "geometric", "ratio": 1.3}}),
    "wlq_array": lattice_from_json(
        {"kind": "wlq", "q": 1.5, "weights": {"form": "array", "values": [1.0 + k / 4 for k in range(16)]}}
    ),
    "wlq_lorentz_blocks": lattice_from_json(
        {"kind": "wlq", "q": 2.0, "weights": {"form": "lorentz_blocks", "weights": {"form": "power", "theta": 0.25}}}
    ),
}


@pytest.mark.parametrize("lat", ROW_LATTICES.values(), ids=ROW_LATTICES.keys())
def test_every_row_of_a_stack_is_its_one_row_norm(lat):
    rng = np.random.default_rng(37)
    stack = rng.standard_normal((7, 12)) * 10.0 ** rng.integers(-100, 101, (7, 1))
    stack[1, 4] = 0.0
    stack[2] = 0.0
    stack[3, ::2] = 0.0
    stack[4, [0, 11]] = 0.0
    stack[5, :11] = 0.0
    got = lattice_norm(lat, stack)
    assert got.shape == (7,) and got[2] == 0.0
    one = np.array([lattice_norm(lat, row) for row in stack])
    assert got.tobytes() == one.tobytes()
    assert lattice_norm(lat, stack.reshape(7, 1, 12)).tobytes() == got.tobytes()
    for row in stack:
        assert type(lattice_norm(lat, row)) is float
    value = lattice_norm(lat, -2.5)
    assert type(value) is float and value == lattice_norm(lat, [2.5])
    assert lattice_norm(lat, np.zeros(0)) == 0.0
    assert lattice_norm(lat, np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert lattice_norm(lat, np.zeros((0, 12))).shape == (0,)


@pytest.mark.parametrize("lat", ROW_LATTICES.values(), ids=ROW_LATTICES.keys())
def test_a_fortran_ordered_stack_is_read_as_c_contiguous_rows(lat):
    # a row's sums run along contiguous memory only in C order; on a
    # Fortran-ordered stack they would round apart from the one-row call
    stack = np.asfortranarray(np.random.default_rng(43).standard_normal((9, 12)))
    stack[3, 5] = 0.0
    one = np.array([lattice_norm(lat, row) for row in stack])
    assert lattice_norm(lat, stack).tobytes() == one.tobytes()


@pytest.mark.parametrize("N", _ROW_NS.values(), ids=_ROW_NS.keys())
def test_un_and_ex_orlicz_unit_norms_are_the_norms_of_unit_vectors(N):
    # s_k = ||e_k|| = phi(2^(k-1)), bit for bit on all three routes
    un = unit_norms(UN(N), 64)
    ex = unit_norms(EX(Orlicz(N)), 64)
    eye = lattice_norm(UN(N), np.eye(64))
    phi = np.array([fundamental_function(Orlicz(N), 1 << k) for k in range(64)])
    assert un.tobytes() == ex.tobytes() == eye.tobytes() == phi.tobytes()
    for k in (1, 2, 7, 63):
        assert unit_norms(UN(N), k).tobytes() == lattice_norm(UN(N), np.eye(k)).tobytes()


def test_orlicz_unit_norms_refuse_k_max_past_997_before_any_solve(monkeypatch):
    # s_997 = phi(2^996), the last value of the Orlicz phi range
    N = OrliczFn.power_log(2.0, 0.6)
    s = unit_norms(UN(N), 997)
    assert np.all(np.isfinite(s)) and np.all(np.diff(s) > 0.0) and s[-1] > 1e150
    assert s.tobytes() == unit_norms(EX(Orlicz(N)), 997).tobytes()

    def no_solve(p, A, B):
        raise AssertionError("phi was solved past the range")

    # phi(2^997) is past the producer's rule, refused before any solve
    monkeypatch.setattr(spaces, "_moment_root", no_solve)
    for lat in (UN(N), EX(Orlicz(N))):
        for call in (lambda: unit_norms(lat, 998), lambda: shift_exponents(lat, k_max=1100)):
            with pytest.raises(ValueError, match=r"needs n <= 2\^996: .* served for k <= 996"):
                call()


def test_a_space_is_not_a_lattice():
    # UN stands for its own Orlicz base; a bare space stands for nothing
    for space in (Lp(2.0), Orlicz(OrliczFn.power(2.0)), Lorentz(2.0, power_weights(0.25))):
        with pytest.raises(TypeError, match="unknown lattice spec"):
            lattice_norm(space, [1.0, 2.0])
        with pytest.raises(TypeError, match="unknown lattice spec"):
            unit_norms(space, 4)


def test_unit_norms_are_fundamental_values():
    # s_k = phi(2^(k-1)) to the last bit, whichever route each side takes
    for base in (Lp(1.0), Lp(2.0), Lp(3.0), Lp(math.inf), LpQ(3.0, 2.0), LpQ(3.0, math.inf),
                 Lorentz(2.0, power_weights(0.25)), Orlicz(OrliczFn.power_log(2.0, 0.6))):
        s = unit_norms(EX(base), 40)
        want = np.array([fundamental_function(base, 2 ** (k - 1)) for k in range(1, 41)])
        assert s.dtype == want.dtype and s.tobytes() == want.tobytes(), base


def test_unit_norms_of_power_bases_never_stream(monkeypatch):
    # phi(2^0), ..., phi(2^39) of a finite-q l^{p,q} or power-weight Lorentz
    # base come from one closed-form partial-sum call over all 40 positions;
    # q = inf has a closed form of its own
    assert unit_norms(EX(LpQ(3.0, math.inf)), 64)[-1] == pytest.approx(2.0 ** (63 / 3.0))
    tops = []
    closed = spaces._power_partial_sums

    def recording(s, pts):
        tops.append(int(pts[-1]))
        return closed(s, pts)

    monkeypatch.setattr(spaces, "_power_partial_sums", recording)
    for base in (LpQ(3.0, 2.0), Lorentz(2.0, power_weights(0.25))):
        tops.clear()
        s = unit_norms(EX(base), 40)
        assert s.size == 40 and np.all(np.diff(s) > 0.0)
        assert tops == [1 << 39]
        # the batch is fundamental_function's value at every k, bit for bit
        want = np.array([fundamental_function(base, 1 << k) for k in range(40)])
        assert s.tobytes() == want.tobytes()


def test_weighted_lq_norm_definition():
    lat = WeightedLq(q=2.0, values=(1.0, 2.0))
    # ||a|| = (sum |a_k mu_k|^q)^(1/q)
    assert lattice_norm(lat, [1.0, 1.0]) == pytest.approx(math.sqrt(5.0))


def _exact_wlq2(mu, a) -> float:
    """(sum (mu_k a_k)^2)^(1/2) from the exact rational sum, one rounding before sqrt."""
    s = sum((Fraction(float(m)) * Fraction(float(v))) ** 2 for m, v in zip(mu, a))
    k = (s.numerator.bit_length() - s.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(s / Fraction(4) ** k), k)


def test_weighted_lq_rows_are_scaled_before_the_power():
    # neither (1e200)^2 nor (1e-200)^2 is a float; the norms are
    geo = lattice_from_json({"kind": "wlq", "q": 2.0, "weights": {"form": "geometric", "ratio": 1.3}})
    lats = [geo, lattice_from_json({"kind": "wlq", "q": 1.5, "weights": {"form": "geometric", "ratio": 1.1}}),
            WeightedLq.lorentz_blocks(2.0, power_weights(0.25))]
    rng = np.random.default_rng(43)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lattice_norm(geo, [1e200, 1.0]) == 1e200
        assert lattice_norm(geo, [1e-200]) == 1e-200
        for n in (1, 2, 7, 30):
            x = rng.standard_normal(n)
            mu = geo.weights(n)
            for e in (-250, 0, 250):
                want = _exact_wlq2(mu, x * 10.0**e)
                assert abs(lattice_norm(geo, x * 10.0**e) - want) <= 1e-15 * want
            # scaling by a power of two is exact, so the norm scales exactly
            for lat in lats:
                one = lattice_norm(lat, x)
                for k in (-900, -300, 300, 900):
                    assert lattice_norm(lat, x * 2.0**k) == one * 2.0**k, (lat, k)


def test_un_norm_power_is_weighted_lp():
    # N(t) = t^p turns the Luxemburg functional into a weighted l^p norm
    p = 2.0
    lat = UN(OrliczFn.power(p))
    a = np.array([0.5, 0.25, 0.125])
    card = 2.0 ** np.arange(3)
    want = float(np.sum(card * np.abs(a) ** p) ** (1.0 / p))
    assert lattice_norm(lat, a) == pytest.approx(want, rel=1e-9)


# shift exponents ----------------------------------------------------------------


def test_shift_exponents_ex_lp_closed_form():
    for p in (1.0, 2.0, 4.0):
        se = shift_exponents(EX(Lp(p)))
        assert se.k_plus == pytest.approx(2.0 ** (1.0 / p), rel=1e-9)
        assert se.k_minus == pytest.approx(2.0 ** (-1.0 / p), rel=1e-9)


def test_shift_exponent_bridge_inequality():
    # 1/k_minus <= k_plus on every lattice tried; the Lorentz EX runs with a
    # small window because its unit norms sum 2^{k-1} weights each
    lats = [
        (EX(Lp(1.5)), {}),
        (EX(Lorentz(2.0, power_weights(0.25))), dict(n_max=8, k_max=24)),
        (WeightedLq.lorentz_blocks(2.0, power_weights(0.25)), {}),
        (UN(OrliczFn.power(2.0)), {}),
    ]
    for lat, kw in lats:
        se = shift_exponents(lat, **kw)
        # tau_{-n} tau_n = I makes the raw per-n product exactly >= 1 ...
        assert se.k_plus_at_n_max * se.k_minus_at_n_max >= 1.0 - 1e-12
        # ... while the extrapolated points can cross by truncation error
        assert 1.0 / se.k_minus <= se.k_plus + 5e-4


def test_shift_exponents_validation():
    with pytest.raises(ValueError):
        shift_exponents(EX(Lp(2.0)), n_max=1)
    with pytest.raises(ValueError):
        shift_exponents(EX(Lp(2.0)), n_max=16, k_max=16)


# sandwich -----------------------------------------------------------------------


def test_sandwich_ratio_window():
    rng = np.random.default_rng(17)
    bases = [Lp(1.0), Lp(2.0), Lp(math.inf), Lorentz(2.0, power_weights(0.25))]
    for base in bases:
        for _ in range(60):
            x = rng.standard_normal(int(rng.integers(1, 1 << 10)))
            if not np.any(x):
                continue
            r = sandwich_ratio(base, x)
            assert 1.0 - 1e-9 <= r <= 5.0 + 1e-9


def test_sandwich_ratio_rejects_zero():
    with pytest.raises(ValueError):
        sandwich_ratio(Lp(2.0), np.zeros(3))


def test_sandwich_ratio_reads_any_array_like():
    # trailing zeros past a power of two would add a dyadic sample if kept
    x = np.array([0.3, -2.0, 0.0, 1.25, 0.7, -0.1, 0.0, 0.05, 0.9])
    padded = np.concatenate([x, np.zeros(31)])
    bases = [Lp(2.0), Lorentz(2.0, power_weights(0.25)), Orlicz(OrliczFn.power_log(2.0, 0.6))]
    for base in bases:
        want = sandwich_ratio(base, x)
        for form in (x.tolist(), Seq(x), padded):
            assert sandwich_ratio(base, form) == want
        # norms read a Seq through numpy's sequence protocol
        assert norm(base, Seq(x)) == norm(base, x)
        assert lattice_norm(EX(base), Seq(x)) == lattice_norm(EX(base), x)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            sandwich_ratio(Lp(2.0), [1.0, bad, 0.5])


# equivalence reports -------------------------------------------------------------


def test_lorentz_equivalence_envelope_small():
    rep = dyadic_equivalence_report(
        Lorentz(2.0, power_weights(0.25)), trials=40, max_len=512, seed=3
    )
    assert rep.kind == "lorentz"
    assert 1.0 - 1e-10 <= rep.ratio_min <= rep.ratio_max <= 4.0**0.5 + 1e-10
    assert rep.bound_lo == 1.0 and rep.bound_hi == pytest.approx(4.0**0.5)
    assert rep.trials == 40


def test_orlicz_equivalence_envelope_small():
    rep = dyadic_equivalence_report(Orlicz(OrliczFn.power(2.0)), trials=40, max_len=512, seed=3)
    assert rep.kind == "orlicz"
    assert 1.0 - 1e-10 <= rep.ratio_min <= rep.ratio_max <= 4.0 + 1e-10


def test_equivalence_report_is_deterministic():
    kw = dict(trials=25, max_len=256, seed=11)
    a = dyadic_equivalence_report(Lorentz(2.0, power_weights(0.3)), **kw)
    b = dyadic_equivalence_report(Lorentz(2.0, power_weights(0.3)), **kw)
    assert (a.ratio_min, a.ratio_max) == (b.ratio_min, b.ratio_max)


def test_equivalence_report_rejects_unknown_kind():
    # the model comes from the type of the space: only Lorentz and Orlicz have one
    for space in (Lp(2.0), LpQ(2.0, 3.0)):
        with pytest.raises(TypeError, match="Lorentz and Orlicz"):
            dyadic_equivalence_report(space, trials=1)


@pytest.mark.parametrize("counts, message", [
    (dict(trials=0), "trials >= 1"),
    (dict(trials=-3), "trials >= 1"),
    (dict(max_len=1), "max_len >= 2"),
    (dict(max_len=0), "max_len >= 2"),
])
def test_equivalence_report_refuses_counts_that_make_no_envelope(counts, message):
    # no trial leaves ratio_min = inf above ratio_max = 0; a length below 2
    # leaves no size to draw
    with pytest.raises(ValueError, match=message):
        dyadic_equivalence_report(Orlicz(OrliczFn.power(2.0)), **counts)


def test_lorentz_block_weights_values():
    lat = WeightedLq.lorentz_blocks(2.0, power_weights(0.25))
    assert lat == WeightedLq(2.0, theta=0.25)
    k = np.array([1.0, 2.0, 3.0])
    want = 2.0 ** ((k - 1.0) / 2.0) * (2.0 ** (k - 1.0)) ** -0.25
    assert np.allclose(lat.weights(3), want, rtol=1e-12)
    # bit for bit the expression of the mu_k = 2^((k-1)/q) w(2^(k-1)) closure
    k = np.arange(1.0, 65.0)
    for q, theta in ((2.0, 0.25), (1.0, 0.3), (1.5, 0.1), (3.0, 0.0)):
        closure = 2.0 ** ((k - 1.0) / q) * power_weights(theta).values_at(2.0 ** (k - 1.0))
        assert WeightedLq(q, theta=theta).weights(64).tobytes() == closure.tobytes()


def test_lorentz_block_model_refuses_array_weights_before_any_draw(monkeypatch):
    # w(2^(k-1)) is read at every block k: an array cannot serve it, even
    # when its length covers the first blocks
    def no_draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(lattices, "random_decreasing", no_draw)
    for w in (WeightSeq(data=(1.0, 0.5, 0.25)), WeightSeq(data=(1.0,) * 64)):
        with pytest.raises(ValueError, match='so it needs "power" weights, not "array"'):
            dyadic_equivalence_report(Lorentz(2.0, w))
        with pytest.raises(ValueError, match='so it needs "power" weights, not "array"'):
            WeightedLq.lorentz_blocks(2.0, w)


# JSON codecs ----------------------------------------------------------------------


LATTICE_OBJS = [
    {"kind": "ex", "base": {"kind": "lp", "p": 2.0}},
    {"kind": "ex", "base": {"kind": "lorentz", "q": 2.0,
                            "weights": {"form": "power", "theta": 0.25}}},
    {"kind": "wlq", "q": 2.0, "weights": {"form": "geometric", "ratio": 1.3}},
    {"kind": "wlq", "q": 1.0, "weights": {"form": "array", "values": [1.0, 2.0, 4.0]}},
    {"kind": "wlq", "q": 2.0,
     "weights": {"form": "lorentz_blocks",
                 "weights": {"form": "power", "theta": 0.25}}},
    {"kind": "un", "orlicz": {"form": "power", "p": 1.5}},
]


@pytest.mark.parametrize("obj", LATTICE_OBJS)
def test_lattice_json_round_trip(obj):
    lat = lattice_from_json(obj)
    again = lattice_from_json(lattice_to_json(lat))
    a = np.array([1.0, 0.5, 0.25])
    assert lattice_norm(lat, a) == pytest.approx(lattice_norm(again, a), rel=1e-12)


def test_lattice_json_errors():
    with pytest.raises(KeyError, match="unknown lattice kind"):
        lattice_from_json({"kind": "qqq"})
    with pytest.raises(KeyError):
        lattice_from_json({"kind": "wlq", "q": 2.0})
    with pytest.raises(ValueError):
        lattice_from_json({"kind": "wlq", "q": 2.0, "weights": {"form": "odd"}})
    # the descriptor's checks are the constructor's: a library caller meets them too
    for kwargs, message in [(dict(ratio=0.0), "ratio > 0"), (dict(ratio=math.inf), "ratio > 0"),
                            (dict(ratio=math.nan), "ratio > 0"), (dict(values=(1.0,)), "at least 2"),
                            (dict(values=()), "at least 2"), (dict(theta=-0.5), "theta >= 0"),
                            (dict(theta=60.0), "finite and positive"), ({}, "exactly one"),
                            (dict(ratio=2.0, theta=0.25), "exactly one")]:
        with pytest.raises(ValueError, match=message):
            WeightedLq(2.0, **kwargs)
    for q in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="q in \\[1, inf\\)"):
            WeightedLq(q, ratio=2.0)


@pytest.mark.parametrize("weights", [
    dict(values=(1.0, 1.0, -1.0)),
    dict(values=(1.0, 1.0, 0.0)),
    dict(ratio=1e-300),
    dict(ratio=1e300),
], ids=["negative", "zero", "underflow", "overflow"])
def test_wlq_weights_past_the_probe_are_checked_where_read(weights):
    lat = WeightedLq(2.0, **weights)
    assert lattice_norm(lat, [1.0, 2.0]) > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (lambda: lattice_norm(lat, [1.0, 2.0, 3.0]), lambda: unit_norms(lat, 3)):
            with pytest.raises(ValueError, match="weights mu must be finite and positive"):
                read()


def test_wlq_array_weights_report_their_range():
    lat = lattice_from_json(
        {"kind": "wlq", "q": 1.0, "weights": {"form": "array", "values": [1.0, 2.0]}}
    )
    with pytest.raises(ValueError, match="cover only k <= 2"):
        lattice_norm(lat, [1.0, 1.0, 1.0])


# The lattice grammar is closed: every lattice the library builds is a JSON form.
def test_every_lattice_form_round_trips():
    lats = [WeightedLq(2.0, ratio=1.3), WeightedLq(1.0, values=(1.0, 2.0, 4.0)),
            WeightedLq(1.5, theta=0.25), WeightedLq.lorentz_blocks(2.0, power_weights(0.0))]
    lats += [EX(sp) for _, sp in BUILTIN_SPACES]
    lats += [UN(sp.N) for _, sp in BUILTIN_SPACES if isinstance(sp, Orlicz)]
    lats += [lattice_from_json(obj) for obj in LATTICE_OBJS]
    assert sum(isinstance(lat, UN) for lat in lats) == 4  # three built-ins, one descriptor
    for lat in lats:
        assert lattice_from_json(lattice_to_json(lat)) == lat, lat
    for obj in LATTICE_OBJS:
        assert lattice_to_json(lattice_from_json(obj)) == obj
    # equal descriptors build equal lattices, and the lattices hash
    for obj in LATTICE_OBJS:
        assert lattice_from_json(obj) == lattice_from_json(json.loads(json.dumps(obj)))
    assert len({lattice_from_json(obj) for obj in LATTICE_OBJS + LATTICE_OBJS}) == len(LATTICE_OBJS)
    assert WeightedLq(2, ratio=2) == WeightedLq(2.0, ratio=2.0)
    assert WeightedLq(2.0, values=[1, 2]) == WeightedLq(2.0, values=(1.0, 2.0))


def test_wlq_refuses_a_callable():
    for make in (lambda: WeightedLq(2.0, lambda k: k), lambda: WeightedLq(2.0, values=lambda k: k),
                 lambda: WeightedLq(2.0, theta=lambda k: k), lambda: WeightedLq(lambda k: 2.0, ratio=2.0)):
        with pytest.raises(TypeError, match="not a callable"):
            make()


def test_a_non_canonical_lorentz_blocks_descriptor_echoes_its_value():
    obj = {"kind": "wlq", "q": 2, "weights": {"form": "lorentz_blocks",
                                              "weights": {"form": "power", "theta": "0.25", "junk": 1}}}
    assert lattice_to_json(lattice_from_json(obj)) == {
        "kind": "wlq", "q": 2.0,
        "weights": {"form": "lorentz_blocks", "weights": {"form": "power", "theta": 0.25}}}
