"""Acceptance criteria, one test per criterion, each printing a PASS line.

Expected values come from exact oracles computed inside the tests (brute
force loops, independent counts) or are pinned integers; tolerances are the
stated ones, never loosened.
"""

import math
import time

import numpy as np
import pytest

from thinprimes.averages import (
    SparseSignal,
    build_kernel,
    lr_norm,
    maximal_function,
    weighted_maximal_compare,
)
from thinprimes.ergodic import CircleRotation, FiniteCycle, average_series
from thinprimes.expsum import (
    IntPolynomial,
    PhaseSpec,
    bilinear_sum_bound,
    formlem_decay,
    lambda_exp_sum,
    vaughan_split,
    vdc_bound_check,
)
from thinprimes.goldbach import parseval_check, rep_counts
from thinprimes.sieve import build_prime_table, density_profile, enumerate_thin_primes
from thinprimes.thinfn import derivative_ratio_report, make_thin_function

W_LIN = IntPolynomial([0, 1])


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_01_vaughan_exactness(pt20):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    tfs = {g: make_thin_function("power", gamma=g) for g in (0.95, 0.97, 1.0)}
    worst = 0.0
    for _ in range(50):
        gamma = float(rng.choice([0.95, 0.97, 1.0]))
        P = int(rng.integers(10 ** 3, 10 ** 5 + 1))
        m = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        spec = PhaseSpec(float(rng.random()), W_LIN, m, tfs[gamma], P, 2 * P)
        res = vaughan_split(pt20, spec)
        direct = lambda_exp_sum(pt20, spec)
        rel = res.residual / (1.0 + abs(direct))
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    report(1, f"50 splits, worst relative residual {worst:.2e}, {elapsed:.1f}s")


def test_02_weighted_sum_gap_decay(pt20, tps99):
    t0 = time.perf_counter()
    prof = formlem_decay(pt20, W_LIN, 256, 1 << 20, tps=tps99)
    assert prof.fitted_exponent is not None
    assert prof.fitted_exponent < 1.0
    tail = [norm for _, _, norm in prof.entries[-4:]]
    for a, b in zip(tail, tail[1:]):
        assert b <= 1.15 * a
    assert tail[-1] < tail[0]
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    report(2, f"fitted exponent {prof.fitted_exponent:.3f} < 1, "
              f"tail {['%.5f' % t for t in tail]}, {elapsed:.1f}s")


def test_03_identity_collapse(pt20, tps_identity):
    t0 = time.perf_counter()
    prof = formlem_decay(pt20, W_LIN, 128, 1 << 18, tps=tps_identity)
    assert prof.exact_zero
    assert all(gap == 0.0 for _, gap, _ in prof.entries)
    for n in (2 ** 8, 2 ** 12, 2 ** 16):
        k1 = build_kernel("K1", tps_identity, pt20, W_LIN, n)
        k2 = build_kernel("K2", tps_identity, pt20, W_LIN, n)
        assert k1.atoms == k2.atoms
    # R(N) = r(N) for all odd N <= 2000 by exact brute force
    primes = pt20.primes_in(1, 2000).astype(np.int64)
    ind = np.zeros(2001, dtype=bool)
    ind[primes] = True
    for n in range(7, 2001, 2):
        ps = primes[primes <= n]
        brute = 0
        for p1 in ps:
            rem = n - int(p1) - ps
            ok = rem >= 2
            brute += int(np.count_nonzero(ind[rem[ok]]))
        direct, spectral = rep_counts(tps_identity, tps_identity,
                                      tps_identity, n, n)
        assert direct[0] == spectral[0] == brute
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    report(3, f"gap identically 0, K1=K2, R=r on odd N<=2000, {elapsed:.1f}s")


def test_04_parseval_exactness(pt20, tps_identity, tps95, tps99):
    t0 = time.perf_counter()
    lhs, rhs = parseval_check(tps_identity, 100, weighted=False)
    assert rhs == 25.0
    assert lhs == pytest.approx(25.0, rel=1e-8)
    rng = np.random.default_rng(4)
    sources = [tps_identity, tps95, tps99, pt20]
    for _ in range(20):
        src = sources[int(rng.integers(len(sources)))]
        n = int(rng.integers(64, 8193))
        lhs, rhs = parseval_check(src, n, weighted=bool(rng.integers(2)))
        assert lhs == pytest.approx(rhs, rel=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    report(4, f"20 random checks at 1e-8; gamma=1 N=100 gives exactly 25, "
              f"{elapsed:.1f}s")


def test_05_goldbach_cross_method(pt20, tps_identity, tps95, tps99):
    t0 = time.perf_counter()
    direct, spectral = rep_counts(tps_identity, tps_identity, tps_identity, 9, 9)
    assert (direct[0], spectral[0]) == (4, 4)
    direct, spectral = rep_counts(tps_identity, tps_identity, tps_identity, 7, 7)
    assert (direct[0], spectral[0]) == (3, 3)
    triples = [
        (tps_identity,) * 3,
        (tps_identity, tps_identity, tps95),
        (tps99,) * 3,
    ]
    for sets in triples:
        for n in range(7, 2001, 2):
            direct, spectral = rep_counts(*sets, n, n)
            assert direct[0] == spectral[0]
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    report(5, f"direct == spectral on odd N<=2000 for 3 gamma triples, "
              f"{elapsed:.1f}s")


def test_06_density_sanity(pt20, tps95):
    t0 = time.perf_counter()
    assert pt20.pi(10 ** 6) == 78498
    rows = density_profile(tps95, [10 ** 4, 10 ** 6])
    r4, r6 = rows[0][2], rows[1][2]
    assert 0.5 < r6 < 2.0
    assert abs(r6 - 1.0) < abs(r4 - 1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    report(6, f"pi(1e6)=78498; gamma=0.95 ratio {r6:.4f} at 1e6 vs {r4:.4f} "
              f"at 1e4, {elapsed:.1f}s")


def test_07_maximal_diagnostics(tps95):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    # invariants on 100 random signals
    for _ in range(100):
        idx = rng.choice(512, size=48, replace=False)
        f = SparseSignal({int(i): float(v) for i, v in
                          zip(idx[:32], rng.random(32))})
        g = SparseSignal({int(i): float(v) for i, v in
                          zip(idx[16:], rng.random(32))})
        mf = maximal_function(f, tps95, W_LIN, 2 ** 10)
        mg = maximal_function(g, tps95, W_LIN, 2 ** 10)
        mfg = maximal_function(f + g, tps95, W_LIN, 2 ** 10)
        for x in mfg.support():
            assert mfg[x].real <= mf[x].real + mg[x].real + 1e-10
        c = -2.5
        mcf = maximal_function(f.scale(c), tps95, W_LIN, 2 ** 10)
        for x in mcf.support():
            assert mcf[x].real == pytest.approx(abs(c) * mf[x].real, rel=1e-12)
        for x in mf.support():
            assert mf[x].real <= mfg[x].real + 1e-10
    # l2 operator ratio growth under support doubling
    sups = []
    for logs in range(10, 15):
        best = 0.0
        for seed in range(8):
            r2 = np.random.default_rng(1000 * logs + seed)
            idx = r2.choice(1 << logs, size=(1 << logs) // 4, replace=False)
            f = SparseSignal({int(i): 1.0 for i in idx})
            mf = maximal_function(f, tps95, W_LIN, 2 ** 14)
            best = max(best, lr_norm(mf, 2) / lr_norm(f, 2))
        sups.append(best)
    for a, b in zip(sups, sups[1:]):
        assert b < 2.0 * a
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    report(7, f"invariants on 100 signals; l2 ratios {['%.3f' % s for s in sups]}"
              f" grow < 2x per doubling, {elapsed:.1f}s")


def test_08_weighted_maximal_comparison(pt20, tps95):
    t0 = time.perf_counter()
    weights = {int(p): float(w) for p, w in zip(tps95.primes, tps95.weights)}
    w1 = lambda x: weights[x]
    w2 = lambda x: 1.0
    rng = np.random.default_rng(8)
    zs = [2 ** j for j in range(2, 13)]
    for _ in range(20):
        idx = rng.choice(512, size=64, replace=False)
        f = SparseSignal({int(i): float(v) for i, v in zip(idx, rng.random(64))})
        rmax, csup = weighted_maximal_compare(tps95.primes, w1, w2, f,
                                              W_LIN, zs)
        assert rmax <= 1.0 + 2.0 * csup + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    report(8, f"20 signals dominated at 1+2*C_sup (last C_sup {csup:.3f}), "
              f"{elapsed:.1f}s")


def test_09_ergodic_checks(tf_identity, tf95, pt20, tps95):
    t0 = time.perf_counter()
    pt22 = build_prime_table(1 << 22, threads=4)
    tps22 = enumerate_thin_primes(tf_identity, pt22, 1 << 22)
    v = average_series(FiniteCycle(2), [1.0, -1.0], 0, tps22, pt22, W_LIN,
                       [1 << 22]).values[0]
    assert abs(v - (-1.0)) < 1e-2
    # oracle equality at gamma=1: direct loop over the sieve
    m, x, n = 6, 2, 4096
    rng = np.random.default_rng(9)
    f = rng.random(m)
    va = average_series(FiniteCycle(m), f, x, tps22, pt22, W_LIN, [n]).values[0]
    ps = pt22.primes_in(1, n)
    direct = sum(f[(x + int(p)) % m] for p in ps) / len(ps)
    assert va.real == pytest.approx(direct, abs=1e-12)
    alpha = math.sqrt(2) - 1
    a12 = average_series(CircleRotation(alpha), [(1, 1.0)], 0.0, tps95,
                         pt20, W_LIN, [1 << 12]).values[0]
    a20 = average_series(CircleRotation(alpha), [(1, 1.0)], 0.0, tps95,
                         pt20, W_LIN, [1 << 20]).values[0]
    assert abs(a20) < abs(a12)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    report(9, f"cycle limit -1 ({abs(v + 1):.1e}); oracle equality; rotation "
              f"{abs(a12):.4f} -> {abs(a20):.4f}, {elapsed:.1f}s")


def test_10_derivative_ratio_limits():
    t0 = time.perf_counter()
    x = 1e8
    cases = [
        make_thin_function("power", gamma=0.8),
        make_thin_function("h1", c=1.25, A=0.1),
        make_thin_function("h2", c=1.25, A=0.1, B=0.3),
        make_thin_function("h3", Cc=1.0),
        make_thin_function("h4", Cc=0.2, B=0.5),
        make_thin_function("h5", m=1),
    ]
    checked = 0
    for tf in cases:
        ns = (1, 2, 3) if tf.c > 1 else (2, 3)
        for n in ns:
            rows = [r for r in derivative_ratio_report(tf, n, [x])
                    if r.side == "h"]
            assert abs(rows[0].ratio - rows[0].limit) < 1e-2, (tf.family, n)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    report(10, f"{checked} family/order ratios within 1e-2 at x=1e8, "
               f"{elapsed:.1f}s")


def test_11_vdc_and_bilinear_constants(tf95):
    t0 = time.perf_counter()
    quad = vdc_bound_check(lambda n: 1e-4 * n * n, 10 ** 4, 2, 2e-4, 1.0)
    cubic = vdc_bound_check(lambda n: 1e-6 * n ** 3, 10 ** 4, 3, 6e-6, 1.0)
    assert quad.constant <= 100
    assert cubic.constant <= 100
    spec32 = PhaseSpec(0.3, W_LIN, 1, tf95, 1024, 2048)
    ones = bilinear_sum_bound(np.ones(32), np.ones(32), spec32)
    assert ones.constant <= 1e3
    spec64 = PhaseSpec(0.3, W_LIN, 1, tf95, 4096, 8192)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d1 = np.exp(2j * np.pi * rng.random(64))
        d2 = np.exp(2j * np.pi * rng.random(64))
        res = bilinear_sum_bound(d1, d2, spec64)
        worst = max(worst, res.constant)
        assert res.constant <= 1e3
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    report(11, f"vdc constants {quad.constant:.3f}/{cubic.constant:.3f} <= 100; "
               f"bilinear worst {worst:.2e} <= 1e3, {elapsed:.1f}s")
