"""Dynamical systems, ergodic averages and oscillation diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from thinprimes.ergodic import (
    AverageSeries,
    CircleRotation,
    FiniteCycle,
    average_series,
    oscillation_sum,
    zeps_grid,
)
from thinprimes.errors import (
    EmptySet,
    InvalidBreaks,
    ParameterOutOfRange,
    RangeBeyondTable,
    ThinPrimesError,
)
from thinprimes.expsum import IntPolynomial
from thinprimes.sieve import ThinPrimeSet, enumerate_thin_primes
from thinprimes.thinfn import make_thin_function

W_LIN = IntPolynomial([0, 1])
W_SQ = IntPolynomial([0, 0, 1])

F2 = [1.0, -1.0]   # delta_0 - delta_1 on Z_2


def average(sys, f, x, tps, pt, W, n, weighted=False):
    """The ergodic average at one cutoff n: a series of one checkpoint."""
    return average_series(sys, f, x, tps, pt, W, [n], weighted).values[0]


def test_one_point_space(tps_identity, pt20):
    v = average(FiniteCycle(1), [3.5 + 0j], 0, tps_identity, pt20,
                W_LIN, 1000)
    assert v == pytest.approx(3.5)


def test_finite_cycle_two_hand_count(tps_identity, pt20):
    # only p = 2 lands on the even residue: value (2 - pi(N))/pi(N)
    for n in (100, 4096):
        v = average(FiniteCycle(2), F2, 0, tps_identity, pt20, W_LIN, n)
        piN = pt20.pi(n)
        assert v.real == pytest.approx((2 - piN) / piN, rel=1e-12)
        assert v.imag == 0.0


def test_finite_cycle_measure_preservation(tps_identity, pt20):
    # averaging the observable over the whole space commutes with the shift
    m = 5
    rng = np.random.default_rng(0)
    f = rng.random(m)
    shifted = np.roll(f, -1)       # f o T
    assert np.mean(f) == pytest.approx(np.mean(shifted), abs=0)


def test_linearity(tps95, pt20):
    m = 7
    rng = np.random.default_rng(1)
    f = rng.random(m) + 1j * rng.random(m)
    g = rng.random(m)
    a, b = 2.0, -1.5
    va = average(FiniteCycle(m), f, 3, tps95, pt20, W_SQ, 4096)
    vb = average(FiniteCycle(m), g, 3, tps95, pt20, W_SQ, 4096)
    vab = average(FiniteCycle(m), a * f + b * g, 3, tps95, pt20,
                  W_SQ, 4096)
    assert vab == pytest.approx(a * va + b * vb, abs=1e-12)


def test_identity_matches_direct_prime_average(tps_identity, pt20):
    """gamma=1 average equals the plain prime average by an independent loop."""
    m, x, n = 6, 2, 5000
    rng = np.random.default_rng(2)
    f = rng.random(m)
    v = average(FiniteCycle(m), f, x, tps_identity, pt20, W_LIN, n)
    ps = pt20.primes_in(1, n)
    direct = sum(f[(x + int(p)) % m] for p in ps) / len(ps)
    assert v.real == pytest.approx(direct, abs=1e-12)


def test_weighted_average(tps_identity, pt20):
    n = 4096
    v = average(FiniteCycle(1), [1.0], 0, tps_identity, pt20, W_LIN,
                n, weighted=True)
    # one-point space: weighted average is the kernel mass theta(N)/N
    ps, ws = tps_identity.prefix(n)
    assert v.real == pytest.approx(float(np.sum(ws)) / n, rel=1e-12)


def test_circle_rotation_exact_modular(tps_identity, pt20):
    # frequency-1 character: the average is the normalized exponential sum
    alpha = math.sqrt(2) - 1
    n = 2048
    v = average(CircleRotation(alpha), [(1, 1.0)], 0.0, tps_identity,
                pt20, W_LIN, n)
    ps = pt20.primes_in(1, n)
    expect = np.mean(np.exp(2j * np.pi * ((ps * alpha) % 1.0)))
    assert v == pytest.approx(expect, abs=1e-9)


def test_circle_rotation_equidistribution_trend(tps95, pt20):
    alpha = math.sqrt(2) - 1
    v_small = average(CircleRotation(alpha), [(1, 1.0)], 0.0, tps95,
                      pt20, W_LIN, 2 ** 12)
    v_large = average(CircleRotation(alpha), [(1, 1.0)], 0.0, tps95,
                      pt20, W_LIN, 2 ** 20)
    assert abs(v_large) < abs(v_small)


def test_series_and_convergence_report(tps_identity, pt20):
    series = average_series(FiniteCycle(2), F2, 0, tps_identity, pt20, W_LIN,
                            [2 ** j for j in range(4, 21)])
    gaps = [gap for _, _, _, gap in series.csv_rows()][1:]
    assert all(g >= 0 for g in gaps)
    assert gaps[-1] < gaps[0]
    assert abs(series.values[-1] + 1.0) < 1e-2


def test_constant_series_gaps_zero():
    series = AverageSeries([16, 32, 64, 128], [1 + 0j] * 4)
    assert [gap for _, _, _, gap in series.csv_rows()] == [0.0] * 4


def test_range_guard(tps_identity, pt20):
    with pytest.raises(RangeBeyondTable):
        average(FiniteCycle(2), F2, 0, tps_identity, pt20, W_LIN,
                (1 << 20) + 2)


def test_empty_average(pt20):
    from thinprimes.sieve import enumerate_thin_primes
    from thinprimes.thinfn import make_thin_function
    tf = make_thin_function("h3", Cc=1.0)
    tps = enumerate_thin_primes(tf, pt20, 100)
    with pytest.raises(EmptySet):
        average(FiniteCycle(2), F2, 0, tps, pt20, W_LIN, 2)


def test_zeps_grid_enumeration():
    assert zeps_grid(0.5, 60).tolist() == [1, 2, 3, 5, 7, 11, 17, 25, 38, 57]
    for eps in (0.0, math.nan, math.inf, 1e-20, 1e-9):
        with pytest.raises(ParameterOutOfRange):
            zeps_grid(eps, 10)
    # the powers must pass upper, 1 among them: (1 + 1e-15)^n stays below 2
    # for about 7e14 steps
    with pytest.raises(ParameterOutOfRange):
        zeps_grid(1e-15, 1)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 4.0), st.integers(0, 10 ** 6))
@example(1e-5, 2 ** 16)
@example(0.5, 2 ** 20)
@example(1e-3, 0)
def test_zeps_grid_matches_the_power_loop(eps, upper):
    got = zeps_grid(eps, upper)
    assert got.dtype == np.int64
    assert got.tolist() == oracles.zeps_grid_loop(eps, upper)


def test_oscillation_one_point_oracle(tps_identity, pt20):
    breaks = [2 ** (2 * j) for j in range(2, 9)]
    val = oscillation_sum(FiniteCycle(1), [1.0], 0, tps_identity, pt20,
                          W_LIN, breaks, 0.5)
    # independent oracle: weighted normalization wobble per block
    ps, ws = tps_identity.prefix(breaks[-1])
    cum = np.cumsum(ws)

    def mass(n):
        c = int(np.searchsorted(ps, n, side="right"))
        return (float(cum[c - 1]) if c else 0.0) / n

    expect = 0.0
    zg = zeps_grid(0.5, breaks[-1])
    for a, b in zip(breaks, breaks[1:]):
        expect += max((abs(mass(n) - mass(a)) for n in zg if a < n <= b),
                      default=0.0)
    assert val == pytest.approx(expect, rel=1e-12)


def test_oscillation_block_trend(tps_identity, pt20):
    alpha = math.sqrt(2) - 1
    f = [(1, 1.0)]

    def value_per_block(j_count):
        breaks = [4 ** j for j in range(1, j_count + 2)]
        breaks = [b for b in breaks if b <= 1 << 20]
        v = oscillation_sum(CircleRotation(alpha), f, 0.0, tps_identity, pt20,
                            W_LIN, breaks, 0.5)
        return v / (len(breaks) - 1)

    v8 = value_per_block(8)
    v9 = value_per_block(9)
    assert v9 <= v8 * 1.5


def test_invalid_breaks(tps_identity, pt20):
    with pytest.raises(InvalidBreaks):
        oscillation_sum(FiniteCycle(1), [1.0], 0, tps_identity, pt20, W_LIN,
                        [16, 24], 0.5)
    with pytest.raises(InvalidBreaks):
        oscillation_sum(FiniteCycle(1), [1.0], 0, tps_identity, pt20, W_LIN,
                        [16], 0.5)


OSC_LIMIT = 1 << 15


@pytest.fixture(scope="module")
def osc_sets(pt20):
    """The thin sets at gamma 1, 0.95 and 0.9, enumerated to OSC_LIMIT."""
    return {g: enumerate_thin_primes(make_thin_function("power", gamma=g),
                                     pt20, OSC_LIMIT) for g in (1.0, 0.95, 0.9)}


def _outcome(fn, *args):
    """fn(*args) as the bits of its float, or the type of what it raised."""
    try:
        return np.float64(fn(*args)).view(np.int64)
    except (ThinPrimesError, ArithmeticError, ValueError) as exc:
        return type(exc)


@st.composite
def oscillation_inputs(draw):
    b = [draw(st.integers(1, 64))]
    for _ in range(draw(st.integers(1, 5))):
        nxt = 2 * b[-1] + 1 + draw(st.integers(0, 3 * b[-1]))
        if nxt > OSC_LIMIT:
            break
        b.append(nxt)
    if len(b) < 2:
        b.append(2 * b[0] + 1)
    W = IntPolynomial(draw(st.sampled_from([[0, 1], [3, 1], [0, 0, 1], [1, 2, 1]])))
    if draw(st.booleans()):
        m = draw(st.integers(1, 12))
        parts = st.floats(-1e3, 1e3)
        table = [complex(draw(parts), draw(parts)) for _ in range(m)]
        return FiniteCycle(m), table, draw(st.integers(0, 50)), W, b
    alpha = draw(st.floats(-2.0, 2.0))
    f = [(draw(st.integers(-3, 3)), complex(draw(st.floats(-2.0, 2.0)),
                                             draw(st.floats(-2.0, 2.0))))
         for _ in range(draw(st.integers(1, 3)))]
    return CircleRotation(alpha), f, draw(st.floats(0.0, 1.0)), W, b


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # nan, inf
@settings(max_examples=200, deadline=None)
@given(oscillation_inputs(), st.floats(1e-4, 4.0), st.sampled_from([1.0, 0.95, 0.9]),
       st.booleans())
@example((FiniteCycle(2), F2, 0, W_LIN, [16, 64, 256]), 1e-4, 0.9, True)
@example((FiniteCycle(1), [1.0], 0, W_LIN, [1, 3, 7]), 4.0, 1.0, False)
@example((FiniteCycle(3), [math.nan, 1.0, math.inf], 0, W_LIN, [4, 16, 64]),
         0.5, 0.95, False)
def test_oscillation_sum_matches_the_per_point_scan(pt20, osc_sets, inputs, eps,
                                                    gamma, hole):
    """Bit for bit the nested loop's sum; with hole the set is cut to its
    primes above the first break, so A^1 reads 0 there and below."""
    sys_, f, x, W, breaks = inputs
    tps = osc_sets[gamma]
    if hole:
        k = tps.count(breaks[0])
        tps = ThinPrimeSet(tps.tf, tps.limit, tps.primes[k:], tps.weights[k:])
    args = (sys_, f, x, tps, pt20, W, breaks, eps)
    assert _outcome(oscillation_sum, *args) == _outcome(oracles.oscillation_sum, *args)


def test_weighted_unweighted_consistency(tps95, pt20):
    """Renormalized weighted averages track the unweighted ones."""
    checkpoints = [2 ** j for j in range(6, 21, 2)]
    m = 4
    rng = np.random.default_rng(5)
    f = rng.random(m)
    sysm = FiniteCycle(m)
    diffs = []
    for n in checkpoints:
        a = average(sysm, f, 1, tps95, pt20, W_LIN, n)
        a1 = average(sysm, f, 1, tps95, pt20, W_LIN, n, weighted=True)
        ps, ws = tps95.prefix(n)
        mass = float(np.sum(ws))
        diffs.append(abs(a - a1 * (n / mass)))
    assert diffs[-1] <= diffs[0]


def test_finite_cycle_degree_seven_matches_int_oracle(tps95, pt20):
    # k^7 passes 2^62 from k = 512 on: indices must stay exact mod m
    m, x, n = 10007, 4321, 4096
    W = IntPolynomial([0, 0, 0, 0, 0, 0, 0, 1])
    rng = np.random.default_rng(7)
    f = rng.random(m) + 1j * rng.random(m)
    checkpoints = [16, 256, n]
    series = average_series(FiniteCycle(m), f, x, tps95, pt20, W, checkpoints)
    ps, _ = tps95.prefix(n)
    cum = np.cumsum(f[[(x + int(p) ** 7) % m for p in ps]])
    expect = [complex(cum[tps95.count(c) - 1]) / tps95.count(c)
              for c in checkpoints]
    assert series.values == expect


def test_rotation_angle_must_be_finite():
    CircleRotation(0.25)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ParameterOutOfRange):
            CircleRotation(alpha)


def test_finite_cycle_size_bound():
    FiniteCycle(1 << 31)
    for m in (0, (1 << 31) + 1):
        with pytest.raises(ParameterOutOfRange):
            FiniteCycle(m)
