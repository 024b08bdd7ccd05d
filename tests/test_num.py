"""_num.exact_sum against the standard library's math.fsum, and _num.mod1
against numpy's remainder, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from thinprimes import _num
from thinprimes._num import exact_sum, frac_mul_vec, mod1

# finite terms whose running sums cannot overflow, subnormals included
TERMS = st.lists(st.floats(min_value=-2.0 ** 1000, max_value=2.0 ** 1000), max_size=60)


def _same(a: float, b: float) -> bool:
    """Equal bits, counting every nan as one value."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _check_real(xs):
    got = exact_sum((np.array(xs, dtype=np.float64),))
    want = math.fsum(xs)
    assert _same(got.real, want), (got.real, want)
    assert _same(got.imag, 0.0)


@pytest.mark.parametrize("xs", [[], [0.0], [0.0, 0.0, 0.0], [-0.0], [-0.0, -0.0],
                                [0.0, -0.0], [5e-324], [-5e-324, 5e-324],
                                [2.0 ** -1074, 2.0 ** 1000, -2.0 ** 1000],
                                [1.0, 2.0 ** -53, 2.0 ** -1074],
                                [1.0, 2.0 ** -53, -2.0 ** -1074],
                                [0.1] * 10, [1e300, 1e-300, -1e300]])
def test_edge_cases_match_fsum(xs):
    _check_real(xs)


def test_no_blocks_is_zero():
    assert _same(exact_sum(()).real, math.fsum([]))
    assert _same(exact_sum(()).imag, 0.0)


@settings(max_examples=300, deadline=None)
@given(TERMS, st.randoms(use_true_random=False))
def test_matches_fsum_with_cancellation(xs, rnd):
    # every term and its negation, shuffled, around a few survivors
    ys = xs + [-x for x in xs[: len(xs) // 2 * 2]] + xs[:3]
    rnd.shuffle(ys)
    _check_real(xs)
    _check_real(ys)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-1074, 1000), st.floats(-1.0, 1.0)), max_size=80))
def test_matches_fsum_across_every_exponent(pairs):
    _check_real([math.ldexp(m, e) for e, m in pairs])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(TERMS, TERMS), min_size=1, max_size=4))
def test_complex_streams_round_each_part_once(parts):
    blocks, re, im = [], [], []
    for a, b in parts:
        n = min(len(a), len(b))
        blocks.append(np.array(a[:n]) + 1j * np.array(b[:n]))
        blocks.append(np.array(a[n:]))      # a real block adds to the real part
        re += a
        im += b[:n]
    got = exact_sum(iter(blocks))
    assert _same(got.real, math.fsum(re)) and _same(got.imag, math.fsum(im))


@pytest.mark.parametrize("pass_rows", [1, 2, 3, 7])
def test_pass_boundary(monkeypatch, pass_rows):
    monkeypatch.setattr(_num, "_PASS", pass_rows)
    rng = np.random.default_rng(pass_rows)
    for n in range(0, 3 * pass_rows + 2):
        x = np.ldexp(rng.standard_normal(n), rng.integers(-1074, 1000, n))
        _check_real(x.tolist())
        z = x + 1j * x[::-1]
        got = exact_sum((z,))
        assert _same(got.real, math.fsum(x)) and _same(got.imag, math.fsum(x[::-1]))


def test_full_pass_of_largest_halves_stays_exact():
    # one bin takes a whole pass of the largest mantissas, plus one more pass
    n = _num._PASS + 5
    for v in (np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 1.0 - 2.0 ** -27):
        x = np.full(n, v)
        x[::3] = np.nextafter(v, 0.0)
        _check_real(x.tolist())


def test_random_arrays_match_fsum():
    rng = np.random.default_rng(20)
    for i in range(300):
        n = int(rng.integers(0, 400))
        x = np.ldexp(rng.standard_normal(n), rng.integers(-1074 + 60 * (i % 3), 1000, n))
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        w = np.concatenate([y, -y[: n // 2], rng.standard_normal(3) * 1e-300])
        rng.shuffle(w)
        for xs in (x, y, w):
            _check_real(xs.tolist())


@pytest.mark.parametrize("xs", [[math.inf, 1.0], [-math.inf, 2.0, -math.inf],
                                [math.nan, 1.0], [math.inf, math.nan],
                                [1e308, math.inf, 1e-300]])
def test_non_finite_returns_like_fsum(xs):
    _check_real(xs)
    z = np.zeros(len(xs), dtype=np.complex128)
    z.imag = xs
    got = exact_sum((z,))
    assert _same(got.real, 0.0) and _same(got.imag, math.fsum(xs))


def test_inf_minus_inf_raises_like_fsum():
    xs = [math.inf, 1.0, -math.inf]
    with pytest.raises(ValueError):
        math.fsum(xs)
    with pytest.raises(ValueError):
        exact_sum((np.array(xs),))


@pytest.mark.parametrize("xs", [[1.7e308, 1.7e308],
                                [np.finfo(float).max, np.finfo(float).max * 2.0 ** -53]])
def test_sum_past_float_range_raises_overflow(xs):
    with pytest.raises(OverflowError):
        math.fsum(xs)
    with pytest.raises(OverflowError):
        exact_sum((np.array(xs),))


# every float64: +-0, subnormals, |x| >= 2^52, +-inf and nan
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -2.0 ** -1022, 1e-17, -1e-17,
         0.5, -0.5, 1.0, -1.0, 1.0 - 2.0 ** -53, -1.0 + 2.0 ** -53, 2.0 ** 52 - 0.5,
         -(2.0 ** 52) + 0.5, 2.0 ** 52, -(2.0 ** 52), 2.0 ** 53 + 2, -(2.0 ** 60),
         1.7e308, -1.7e308, math.inf, -math.inf, math.nan, -math.nan]
FLOATS = st.lists(st.floats(width=64), min_size=1, max_size=40)


def _bits(x) -> list[int]:
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(FLOATS)
@example(EDGES)
def test_mod1_is_the_remainder_bit_for_bit(xs):
    x = np.array(xs, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        want = _bits(x % 1.0)
        assert _bits(mod1(x)) == want
        y = x.copy()
        assert mod1(y, out=y) is y and _bits(y) == want


@settings(max_examples=300, deadline=None)
@given(st.floats(width=64), FLOATS)
@example(0.123456789, EDGES)
@example(-math.inf, EDGES)
@example(2.0 ** 60 + 2.0 ** 8, [3.0, -3.0, 2.0 ** 51 + 1])
def test_frac_mul_vec_is_the_remainder_route_bit_for_bit(xi, ws):
    w = np.array(ws, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _bits(frac_mul_vec(xi, w)) == _bits(oracles.frac_mul_vec(xi, w))
