"""Dynamical systems, ergodic averages and oscillation diagnostics."""

import math

import numpy as np
import pytest

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
)
from thinprimes.expsum import IntPolynomial

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
    series = AverageSeries([16, 32, 64, 128], [1 + 0j] * 4, False)
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
    assert zeps_grid(0.5, 60) == [1, 2, 3, 5, 7, 11, 17, 25, 38, 57]
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterOutOfRange):
            zeps_grid(eps, 10)


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
