"""Dilation, shift and doubling operators: exact identities and norm bounds.

The Lorentz dilation-norm pins were computed by an independent script
(direct cumulative sums of w^q, maximum over j, achievability confirmed by
random decreasing vectors) and frozen here; the values under test are read
off the index kernel's partial-sum profile.

``apply_list`` below is the earlier pure-Python operator kernel, kept
verbatim as the exact reference for ``apply_array``.  ``_apply_float`` is
the earlier float64 kernel with its helpers, kept verbatim as the
bit-for-bit reference for float input.
"""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symseq import operators
from symseq.operators import (
    AvgProject,
    AvgProjectN,
    BlockEmbed,
    DilateDown,
    DilateUp,
    Doubling,
    DoublingInverse,
    DoublingMinusLambda,
    Shift,
    ShiftMinusLambda,
    _Exact,
    apply_array,
    parse_operator,
)
from symseq.indices import _lorentz_profiles
from symseq.seq import Seq
from symseq.spaces import Lorentz, Lp, norm, power_weights

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
# block embedding blows coordinate k up to 2^{k-1} ambient entries, so keep
# exact vectors short
frac_vectors = st.lists(fracs, min_size=1, max_size=9)


# reference: the list kernel apply_array replaced ------------------------------


def _zero_of(xs):
    # scan everything: exact lists often lead with plain-int zeros
    return Fraction(0) if any(isinstance(v, Fraction) for v in xs) else 0.0


def _block_count(length: int) -> int:
    """Number of dyadic blocks needed to cover the first `length` positions."""
    k = 0
    while (1 << k) - 1 < length:
        k += 1
    return k


def apply_list(op, xs: list) -> list:
    """Apply an operator to a plain list; exact for Fraction entries."""
    zero = _zero_of(xs)
    n = len(xs)
    if isinstance(op, DilateUp):
        return [xs[i // op.m] for i in range(n * op.m)]
    if isinstance(op, DilateDown):
        m = op.m
        return [sum(xs[k * m : (k + 1) * m], zero) / m for k in range((n + m - 1) // m)]
    if isinstance(op, Shift):
        if op.n >= 0:
            return [zero] * op.n + list(xs)
        return list(xs[-op.n :])
    if isinstance(op, Doubling):
        return apply_list(Shift(1), apply_list(DilateUp(2), xs))
    if isinstance(op, DoublingInverse):
        return apply_list(DilateDown(2), apply_list(Shift(-1), xs))
    if isinstance(op, BlockEmbed):
        out = []
        for k, v in enumerate(xs):
            out.extend([v] * (1 << k))
        return out
    if isinstance(op, AvgProject):
        blocks = _block_count(n)
        out = []
        for k in range(blocks):
            size = 1 << k
            start = size - 1
            mean = sum(xs[start : start + size], zero) / size
            out.extend([mean] * size)
        return out
    if isinstance(op, AvgProjectN):
        size = 1 << op.n
        out = []
        for k in range((n + size - 1) // size):
            mean = sum(xs[k * size : (k + 1) * size], zero) / size
            out.extend([mean] * size)
        return out
    if isinstance(op, ShiftMinusLambda):
        shifted = [zero] + list(xs)
        lam = op.lam
        return [s - lam * x for s, x in zip(shifted, list(xs) + [zero])]
    if isinstance(op, DoublingMinusLambda):
        dbl = apply_list(Doubling(), xs)
        lam = op.lam
        padded = list(xs) + [zero] * (len(dbl) - n)
        return [d - lam * x for d, x in zip(dbl, padded)]
    raise TypeError(f"unknown operator {op!r}")


# reference: the float kernel the numerator kernel replaced -------------------


def _pad(x: np.ndarray, extra: int) -> np.ndarray:
    """``x`` followed by ``extra`` zeros of its own dtype."""
    return np.concatenate([x, np.zeros(extra, dtype=x.dtype)])


def _move(op, x: np.ndarray) -> np.ndarray | None:
    """Apply an index operator, which only moves and repeats entries.

    Returns None for the operators that divide or take lambda.
    """
    if isinstance(op, DilateUp):
        return np.repeat(x, op.m)
    if isinstance(op, Shift):
        if op.n >= 0:
            return np.concatenate([np.zeros(op.n, dtype=x.dtype), x])
        return x[-op.n :]
    if isinstance(op, Doubling):
        return np.concatenate([np.zeros(1, dtype=x.dtype), np.repeat(x, 2)])
    if isinstance(op, BlockEmbed):
        if x.size > 24:
            raise ValueError("BlockEmbed input longer than 24 blocks (2^24 cap)")
        return np.repeat(x, 1 << np.arange(x.size))
    return None


def _block_sums(x: np.ndarray, m: int) -> np.ndarray:
    """Sums over consecutive blocks of length m, the last one zero-padded."""
    return _pad(x, (-x.size) % m).reshape(-1, m).sum(axis=1)


def _apply_float(op, x: np.ndarray) -> np.ndarray:
    moved = _move(op, x)
    if moved is not None:
        return moved
    n = x.size
    if isinstance(op, DilateDown):
        return _block_sums(x, op.m) / op.m
    if isinstance(op, DoublingInverse):
        return _apply_float(DilateDown(2), x[1:])
    if isinstance(op, AvgProject):
        blocks = n.bit_length()  # dyadic blocks covering the first n positions
        total = (1 << blocks) - 1
        xp = _pad(x, total - n)
        out = np.empty(total)
        for k in range(blocks):
            size = 1 << k
            start = size - 1
            out[start : start + size] = xp[start : start + size].sum() / size
        return out
    if isinstance(op, AvgProjectN):
        size = 1 << op.n
        return np.repeat(_block_sums(x, size) / size, size)
    if isinstance(op, ShiftMinusLambda):
        # along the last axis, so a stack of rows shifts row by row
        lam = float(op.lam)
        zero = np.zeros(x.shape[:-1] + (1,))
        return np.concatenate([zero, x], axis=-1) - lam * np.concatenate([x, zero], axis=-1)
    if isinstance(op, DoublingMinusLambda):
        dbl = _move(Doubling(), x)
        dbl[:n] -= float(op.lam) * x
        return dbl
    raise TypeError(f"unknown operator {op!r}")


def _pad_eq(u, v):
    n = max(len(u), len(v))
    return list(u) + [0] * (n - len(u)) == list(v) + [0] * (n - len(v))


# elementwise definitions ------------------------------------------------------


def test_dilate_up_repeats_entries():
    assert apply_array(DilateUp(3), [1, 2]).tolist() == [1, 1, 1, 2, 2, 2]


def test_dilate_down_block_means():
    assert apply_array(DilateDown(2), [Fraction(1), Fraction(2), Fraction(5)]).tolist() == [
        Fraction(3, 2),
        Fraction(5, 2),
    ]


def test_shift_both_directions():
    assert apply_array(Shift(2), [7, 8]).tolist() == [0, 0, 7, 8]
    assert apply_array(Shift(-1), [7, 8, 9]).tolist() == [8, 9]


def test_doubling_definition():
    # (Dx)_1 = 0, (Dx)_k = x_{floor(k/2)}
    assert apply_array(Doubling(), [5, 6]).tolist() == [0, 5, 5, 6, 6]


def test_doubling_inverse_inverts():
    x = [Fraction(3), Fraction(1, 2), Fraction(4)]
    assert apply_array(DoublingInverse(), apply_array(Doubling(), x)).tolist() == x


def test_block_embed_dyadic_blocks():
    # a_k spreads over coordinates [2^{k-1}, 2^k - 1]
    out = apply_array(BlockEmbed(), [Fraction(1), Fraction(2), Fraction(3)])
    assert out.tolist() == [1, 2, 2, 3, 3, 3, 3]


def test_avg_project_is_idempotent_and_block_constant():
    x = [Fraction(k) for k in range(1, 8)]
    qx = apply_array(AvgProject(), x).tolist()
    assert qx[1] == qx[2] and qx[3] == qx[4] == qx[5] == qx[6]
    assert apply_array(AvgProject(), qx).tolist() == qx


def test_avg_project_n_length_2n_blocks():
    rn = AvgProjectN(1)  # blocks of length 2
    out = apply_array(rn, [Fraction(1), Fraction(3), Fraction(2)])
    assert out.tolist() == [Fraction(2), Fraction(2), Fraction(1), Fraction(1)]


ALL_OPS = [DilateUp(2), DilateDown(3), Shift(2), Shift(-1), Doubling(),
           DoublingInverse(), BlockEmbed(), AvgProject(), AvgProjectN(2),
           ShiftMinusLambda(Fraction(1, 2)), DoublingMinusLambda(Fraction(2))]


@settings(max_examples=80)
@given(frac_vectors)
def test_apply_list_and_array_agree(xs):
    x = np.array([float(v) for v in xs])
    for op in ALL_OPS:
        exact = apply_list(op, list(xs))
        got = apply_array(op, list(xs)).tolist()
        assert got == exact and all(type(v) is Fraction for v in got), op
        fast = apply_array(op, x)
        ref = np.array([float(v) for v in exact])
        n = max(ref.size, fast.size)
        a = np.pad(ref, (0, n - ref.size))
        b = np.pad(fast, (0, n - fast.size))
        assert fast.dtype == np.float64
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12), op


def test_exact_path_starts_at_any_fraction_entry():
    # plain-int zeros ahead of the first Fraction still yield Fractions
    out = apply_array(AvgProject(), [0, 0, Fraction(1, 3)])
    assert out.tolist() == [0, Fraction(1, 6), Fraction(1, 6)]
    assert all(type(v) is Fraction for v in out)
    assert apply_array(AvgProject(), [0, 0, 1]).dtype == np.float64


@settings(max_examples=80)
@given(st.integers(0, 3), frac_vectors)
def test_integer_numerators_match_the_fraction_path(zeros, xs):
    # plain-int zeros may lead; _Exact in gives _Exact out, never a Fraction
    xs = [0] * zeros + xs
    for op in ALL_OPS + [Shift(-3), DilateDown(1), AvgProjectN(0)]:
        out = apply_array(op, _Exact.of(xs))
        assert isinstance(out, _Exact) and out.den > 0
        assert out.num.dtype == np.int64
        assert max(map(abs, out.num.tolist()), default=0) <= out.peak
        got = [Fraction(v, out.den) for v in out.num.tolist()]
        assert got == apply_array(op, xs).tolist() == apply_list(op, xs), op


def test_numerators_past_int64_become_python_ints_instead_of_wrapping():
    # each input fits in int64; each result needs more than 63 bits
    xs = [Fraction(2**62), Fraction(2**62 - 1), Fraction(3)]
    ex = _Exact.of(xs)
    assert ex.num.dtype == np.int64
    assert int(np.array([2**62, 2**62 - 1, 3], dtype=np.int64).sum()) < 0  # what int64 would do
    for op in (DilateDown(3), AvgProject(), AvgProjectN(2), ShiftMinusLambda(Fraction(-3, 2)),
               DoublingMinusLambda(Fraction(5, 2)), DoublingInverse()):
        out = apply_array(op, ex)
        assert out.num.dtype == object, op
        assert [Fraction(v, out.den) for v in out.num.tolist()] == apply_list(op, xs), op
    assert apply_array(DilateDown(3), xs).tolist() == [Fraction(2**63 + 2, 3)]
    # a lambda past int64 on a zero vector: no OverflowError from numpy
    zero = apply_array(ShiftMinusLambda(Fraction(2**70, 3)), _Exact.of([Fraction(0)] * 2))
    assert zero.num.tolist() == [0, 0, 0]


def _float_inputs(rng):
    """Random, wide-magnitude, zero-holding and empty float vectors."""
    for n in (0, 1, 2, 3, 7, 16, 24, 100, 777, 3000):
        for scale in (1.0, 1e300, 1e-300, 1e305, 1e-320):
            x = rng.standard_normal(n) * scale
            yield x
            x = x.copy()
            x[rng.random(n) < 0.3] = 0.0
            x[rng.random(n) < 0.2] = -0.0
            yield x


def test_float_input_matches_the_float_kernel_bit_for_bit():
    # float numerators over den 1: same bytes, dtype and shape as _apply_float
    rng = np.random.default_rng(20)
    ops = [DilateUp(1), DilateUp(3), DilateDown(1), DilateDown(2), DilateDown(7), Shift(0),
           Shift(2), Shift(-1), Shift(-5), Doubling(), DoublingInverse(), BlockEmbed(),
           AvgProject(), AvgProjectN(0), AvgProjectN(1), AvgProjectN(3)]
    compared = 0
    for x in _float_inputs(rng):
        lam = float(rng.uniform(0.1, 4.0))
        frac = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        lam_ops = [cls(v) for cls in (ShiftMinusLambda, DoublingMinusLambda)
                   for v in (lam, -lam, frac)]
        for op in ops + lam_ops:
            if isinstance(op, BlockEmbed) and x.size > 24:
                continue
            got, want = apply_array(op, x.copy()), _apply_float(op, x.copy())
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (op, x.size)
            assert got.tobytes() == want.tobytes(), (op, x.size)
            compared += 1
    for rows in ((1, 1), (3, 5), (4, 300), (2, 0)):
        stack = rng.standard_normal(rows) * 1e300
        for lam in (1.5, -0.75, Fraction(7, 3)):
            got = apply_array(ShiftMinusLambda(lam), stack)
            want = _apply_float(ShiftMinusLambda(lam), stack)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (lam, rows)
            compared += 1
    assert compared > 2000


def test_pad_equal_compares_rationals_across_denominators():
    a = _Exact.of([Fraction(1, 2), Fraction(1, 3)])
    b = _Exact.of([Fraction(3, 6), Fraction(2, 6), Fraction(0), 0])
    assert a.den != b.den or a.num.size != b.num.size
    assert a.pad_equal(b) and b.pad_equal(a)
    assert not a.pad_equal(_Exact.of([Fraction(1, 2), Fraction(1, 3), Fraction(1, 9)]))
    # 5 * 2^62 wraps to 2^62 in int64, which would make 2^62 equal 2^62 / 5
    assert not _Exact.of_ints([2**62], 1).pad_equal(_Exact.of_ints([2**62], 5))


def test_apply_on_seq_round_trips():
    # a Seq reaches apply_array through numpy's sequence protocol
    s = Seq([1.0, 2.0, 3.0])
    assert apply_array(Doubling(), s).tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]


# exact intertwining -----------------------------------------------------------


@settings(max_examples=60)
@given(frac_vectors, st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8))
def test_doubling_block_embed_intertwining(xs, lam):
    # (D - lam) S = S (tau_1 - lam) exactly
    left = apply_array(DoublingMinusLambda(lam), apply_array(BlockEmbed(), xs))
    right = apply_array(BlockEmbed(), apply_array(ShiftMinusLambda(lam), xs))
    assert _pad_eq(left, right)


@settings(max_examples=60)
@given(frac_vectors, st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8))
def test_avg_project_commutes_with_doubling(xs, lam):
    left = apply_array(AvgProject(), apply_array(DoublingMinusLambda(lam), xs))
    right = apply_array(DoublingMinusLambda(lam), apply_array(AvgProject(), xs))
    assert _pad_eq(left, right)


# norms and constants -----------------------------------------------------------


def test_dilation_constants_on_lp():
    rng = np.random.default_rng(4)
    for p in (1.0, 2.0, 3.0):
        sp = Lp(p)
        for _ in range(60):
            x = rng.standard_normal(int(rng.integers(1, 64)))
            nx = norm(sp, x)
            if nx == 0.0:
                continue
            for m in (2, 3, 4):
                up = norm(sp, apply_array(DilateUp(m), x)) / nx
                assert up == pytest.approx(m ** (1.0 / p), rel=1e-12)
                down = norm(sp, apply_array(DilateDown(m), x)) / nx
                assert down <= 1.0 + 1e-12


def test_doubling_norm_window():
    # 1 <= ||Dx|| / ||x|| <= 2 on every variant; equality 2^{1/p} on l^p
    rng = np.random.default_rng(9)
    for p in (1.0, 1.7, 2.0, 5.0):
        sp = Lp(p)
        for _ in range(50):
            x = rng.standard_normal(int(rng.integers(1, 40)))
            nx = norm(sp, x)
            if nx == 0.0:
                continue
            r = norm(sp, apply_array(Doubling(), x)) / nx
            assert r == pytest.approx(2.0 ** (1.0 / p), rel=1e-12)
            assert 1.0 - 1e-12 <= r <= 2.0 + 1e-12


def test_avg_project_contracts_on_lp():
    rng = np.random.default_rng(13)
    for p in (1.0, 2.0, 4.0):
        sp = Lp(p)
        for _ in range(50):
            x = rng.standard_normal(int(rng.integers(1, 100)))
            assert norm(sp, apply_array(AvgProject(), x)) <= norm(sp, x) + 1e-12


# Lorentz dilation norms (oracle pins) ------------------------------------------


def lorentz_dilation_norm(q, w, n, j_max=4096):
    """sup_{j <= j_max} (W(2^n j) / W(j))^(1/q), read off the index profile."""
    U, _ = _lorentz_profiles(Lorentz(q, w), n, j_max)
    return 2.0 ** U[n - 1]


def test_lorentz_dilation_norm_flat_weights():
    w = power_weights(0.0)
    assert lorentz_dilation_norm(1.0, w, 1) == pytest.approx(2.0, abs=1e-12)


def test_lorentz_dilation_norm_pins():
    assert lorentz_dilation_norm(2.0, power_weights(0.5), 1) == pytest.approx(
        1.224744871391589, abs=1e-12
    )
    assert lorentz_dilation_norm(2.0, power_weights(0.25), 3) == pytest.approx(
        2.090798125104979, abs=1e-12
    )


def test_lorentz_dilation_norm_achievable():
    # the sup value is attained by an actual vector ratio (here j = 1)
    sp = Lorentz(2.0, power_weights(0.25))
    x = np.ones(1)
    got = norm(sp, apply_array(DilateUp(8), x)) / norm(sp, x)
    assert got == pytest.approx(2.090798125104979, abs=1e-12)


# the 2^24-entry cap ------------------------------------------------------------


# (operator, input shape, entries it builds: its image, or its input padded
# to whole blocks where that is longer)
SIZED = [
    (DilateUp(3), (5,), 15), (Shift(4), (5,), 9), (Shift(-3), (5,), 5), (Doubling(), (5,), 11),
    (DoublingInverse(), (6,), 6), (DoublingInverse(), (5,), 4), (BlockEmbed(), (5,), 31),
    (DilateDown(4), (5,), 8), (DilateDown(5), (5,), 5), (AvgProjectN(2), (5,), 8),
    (AvgProjectN(0), (5,), 5), (AvgProject(), (5,), 7), (AvgProject(), (8,), 15),
    (ShiftMinusLambda(1.5), (5,), 6), (ShiftMinusLambda(1.5), (3, 4), 15),
    (DoublingMinusLambda(0.5), (5,), 11),
]


def test_image_cap_bounds_every_operator_and_padded_block(monkeypatch):
    # a small cap stands in for 2^24: exactly `count` entries pass, one fewer refuses
    for op, shape, count in SIZED:
        x = np.arange(1.0, math.prod(shape) + 1).reshape(shape)
        for vec in [x] if len(shape) > 1 else [x, [Fraction(int(v), 3) for v in x]]:
            monkeypatch.setattr(operators, "_MAX_IMAGE", count)
            assert apply_array(op, vec).size <= count, op
            monkeypatch.setattr(operators, "_MAX_IMAGE", count - 1)
            with pytest.raises(ValueError, match=rf"operator {re.escape(repr(op))} on {x.size} "
                                                 rf"entries would build {count} entries, past"):
                apply_array(op, vec)


# each refused at 2^24 on one or two entries, S on 25: a missing cap would
# allocate from 128 MiB to terabytes
@pytest.mark.parametrize("op, n, count", [
    (DilateUp(2**40), 1, 2**40), (Shift(10**12), 1, 10**12 + 1), (DilateDown(2**40), 1, 2**40),
    (DilateDown(2**40), 2, 2**40), (DilateUp(8388609), 2, 16777218), (Shift(16777215), 2, 16777217),
    (AvgProjectN(25), 2, 1 << 25), (AvgProjectN(10**8), 2, "at least 2^64"),
    (BlockEmbed(), 25, (1 << 25) - 1), (Doubling(), 1 << 23, (1 << 24) + 1),
])
def test_apply_array_refuses_past_the_cap_before_allocating(op, n, count):
    x = np.broadcast_to(1.0, (n,))  # n entries in one float
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            apply_array(op, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (f"operator {op!r} on {n} entries would build {count} entries, "
                              "past the 2^24-entry cap")
    assert peak < 1 << 20


def test_an_empty_input_takes_any_argument():
    for op in (DilateUp(10**20), DilateDown(10**20), AvgProjectN(10**8), Shift(-(10**20))):
        assert apply_array(op, []).size == 0
        assert apply_array(op, _Exact.of([])).num.size == 0


# grammar ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("sigma_up:3", DilateUp(3)),
        ("sigma_down:2", DilateDown(2)),
        ("tau:-4", Shift(-4)),
        ("doubling", Doubling()),
        ("doubling_inv", DoublingInverse()),
        ("S", BlockEmbed()),
        ("Q", AvgProject()),
        ("R:5", AvgProjectN(5)),
        ("T:1.5", ShiftMinusLambda(1.5)),
        ("Dl:2", DoublingMinusLambda(2.0)),
    ],
)
def test_parse_operator_grammar(text, expected):
    assert parse_operator(text) == expected


@pytest.mark.parametrize("text", ["", "sigma_up", "sigma_up:0", "tau:x", "huh:3", "R:-1"])
def test_parse_operator_rejects(text):
    with pytest.raises(ValueError):
        parse_operator(text)


@pytest.mark.parametrize("text", ["doubling:7", "doubling_inv:1", "S:2", "Q:junk"])
def test_parse_operator_rejects_an_argument_where_none_is_taken(text):
    with pytest.raises(ValueError, match="bad operator argument in"):
        parse_operator(text)
    # an empty argument is no argument
    assert parse_operator(text.partition(":")[0] + ":") == parse_operator(text.partition(":")[0])


@pytest.mark.parametrize("text", ["T:inf", "T:nan", "Dl:-inf", "Dl:1e999"])
def test_parse_operator_rejects_a_non_finite_lambda(text):
    with pytest.raises(ValueError, match="bad operator argument in .*lambda must be finite"):
        parse_operator(text)

