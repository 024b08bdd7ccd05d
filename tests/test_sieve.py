"""Sieve correctness against trial division and thin set enumeration oracles."""

import decimal
import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from thinprimes import sieve, thinfn
from thinprimes.errors import LimitMismatch, LimitTooLarge, ParameterOutOfRange
from thinprimes.sieve import build_prime_table, density_profile, enumerate_thin_primes
from thinprimes.thinfn import make_thin_function

from oracles import (
    floor_criterion_threshold,
    floor_neg_phi_vec,
    mobius,
    thin_membership,
    von_mangoldt,
)


def trial_pi(n: int) -> int:
    """Independent prime counter by trial division."""
    count = 0
    for k in range(2, n + 1):
        for d in range(2, int(math.isqrt(k)) + 1):
            if k % d == 0:
                break
        else:
            count += 1
    return count


def test_spf_against_trial_division():
    pt = build_prime_table(10 ** 4)
    assert pt.pi(10 ** 4) == trial_pi(10 ** 4)
    for n in (4, 9, 91, 9991):
        p = int(pt.spf[n])
        assert n % p == 0
        assert all(n % d for d in range(2, p))
    for n in (2, 97):                 # primes are marked 0
        assert pt.spf[n] == 0


def smallest_factors(N: int) -> np.ndarray:
    """spf(n) for 0 <= n <= N by trial division, ascending over every d,
    vectorised over the n that are still unresolved (0 for n < 2, n for a
    prime n)."""
    out = np.arange(N + 1, dtype=np.int64)
    out[:2] = 0
    rest = np.arange(4, N + 1, dtype=np.int64)
    for d in range(2, math.isqrt(N) + 1):
        hit = rest % d == 0
        out[rest[hit]] = d
        rest = rest[~hit]
        rest = rest[rest >= (d + 1) ** 2]     # below that, n is prime
    return out


def test_spf_table_matches_trial_division():
    # three segments, so two segment boundaries, serially and on 3 workers;
    # the table marks a prime with 0
    N = (1 << 21) + 5
    want = smallest_factors(N)
    want[want == np.arange(N + 1)] = 0
    for threads in (1, 3):
        pt = build_prime_table(N, threads=threads)
        assert np.array_equal(pt.spf.astype(np.int64), want), threads


def test_limits():
    with pytest.raises(LimitTooLarge):
        build_prime_table(1)
    with pytest.raises(LimitTooLarge):
        build_prime_table((1 << 34) + 1)


@pytest.mark.parametrize("n,expected", [(1, 1), (12, 0), (10, 1), (7, -1),
                                        (30, -1), (4, 0)])
def test_mu_values(pt20, n, expected):
    assert mobius(pt20, n) == expected


def test_lambda_values(pt20):
    assert von_mangoldt(pt20, 16) == pytest.approx(math.log(2))
    assert von_mangoldt(pt20, 15) == 0.0
    assert von_mangoldt(pt20, 13) == pytest.approx(math.log(13))
    assert von_mangoldt(pt20, 1) == 0.0


def test_mu_array_matches_pointwise(pt20):
    arr = pt20.mu_array(500)
    assert all(arr[n] == mobius(pt20, n) for n in range(1, 501))


def test_lambda_array_matches_pointwise(pt20):
    arr = pt20.lambda_array(300)
    assert all(arr[n] == pytest.approx(von_mangoldt(pt20, n)) for n in range(1, 301))


def test_pi_1e6(pt20):
    assert pt20.pi(10 ** 6) == 78498


def test_table_prefix_is_the_primes_and_their_logs(pt20):
    for x in (1, 2, 1000, 1 << 20):
        ps, ws = pt20.prefix(x)
        assert np.array_equal(ps, pt20.primes_in(1, x))
        assert ws.tolist() == [math.log(p) for p in ps.tolist()]
    with pytest.raises(LimitMismatch):
        pt20.prefix((1 << 20) + 1)


def test_threaded_build_identical(pt20):
    pt4 = build_prime_table(1 << 20, threads=4)
    assert np.array_equal(pt4.spf, pt20.spf)


def test_identity_enumeration(pt20, tf_identity):
    tps = enumerate_thin_primes(tf_identity, pt20, 10)
    assert tps.primes.tolist() == [2, 3, 5, 7]
    assert tps.weights == pytest.approx([math.log(p) for p in (2, 3, 5, 7)])


def brute_force_members(gamma: float, N: int) -> list[int]:
    """Thin set members by 50-digit evaluation of the defining floors."""
    with mp.workdps(50):
        c = 1.0 / gamma   # same binary64 exponent the library uses
        members = set()
        n = 1
        while True:
            p = int(mp.floor(mp.mpf(n) ** c))
            if p > N:
                break
            members.add(p)
            n += 1
    sieve_ok = [x for x in sorted(members)
                if x >= 2 and all(x % d for d in range(2, int(math.isqrt(x)) + 1))]
    return sieve_ok


def test_gamma09_members_against_brute_force(pt20):
    tf = make_thin_function("power", gamma=0.9)
    tps = enumerate_thin_primes(tf, pt20, 100)
    assert tps.primes.tolist() == brute_force_members(0.9, 100)


def test_weights_positive_finite(tps95):
    assert np.all(np.isfinite(tps95.weights))
    assert np.all(tps95.weights > 0)


def test_membership_identity(pt20, tf_identity):
    for mode in ("direct", "floor_criterion", "cross_check"):
        assert thin_membership(tf_identity, 17, mode)


def test_membership_unknown_mode_is_typed(tf_identity):
    with pytest.raises(ParameterOutOfRange, match="bogus"):
        thin_membership(tf_identity, 17, "bogus")


def test_membership_gamma09_p2(pt20):
    tf = make_thin_function("power", gamma=0.9)
    assert thin_membership(tf, 2, "direct")
    assert math.floor(2 ** (1 / 0.9)) == 2   # witness n = 2


def test_membership_matches_enumeration(pt20, tf95, tps95):
    members = set(int(p) for p in tps95.primes)
    rng = np.random.default_rng(3)
    for p in rng.choice(pt20.primes_in(10 ** 3, 10 ** 5), 300, replace=False):
        assert thin_membership(tf95, int(p), "direct") == (int(p) in members)


@pytest.mark.parametrize("gamma", [0.9, 0.95, 0.99])
def test_floor_criterion_equivalence(pt20, gamma):
    """direct and floor-difference membership agree on (10^3, 10^6]."""
    tf = make_thin_function("power", gamma=gamma)
    ps = pt20.primes_in(10 ** 3, 10 ** 6).astype(np.float64)
    # vectorized floor(-phi(p)), escalating near-integer values
    def neg_floor(xs):
        phis = tf.phi_vec(xs)
        out = np.floor(-phis)
        frac = np.minimum(phis % 1.0, (-phis) % 1.0)
        for i in np.flatnonzero(frac < 1e-9):
            out[i] = floor_neg_phi_vec(tf, [xs[i]])[0]
        return out.astype(np.int64)
    crit = (neg_floor(ps) - neg_floor(ps + 1.0)) == 1
    tps = enumerate_thin_primes(tf, pt20, 10 ** 6)
    members = tps.indicator(10 ** 6)
    direct = members[ps.astype(np.int64)]
    disagreements = np.flatnonzero(crit != direct)
    assert disagreements.size == 0, ps[disagreements][:10]


def test_floor_criterion_threshold_measured(pt20):
    """No crossover below 3000 for these families: full agreement."""
    for tf in (make_thin_function("power", gamma=0.9),
               make_thin_function("h3", Cc=1.0),
               make_thin_function("h5", m=2)):
        assert floor_criterion_threshold(tf, pt20, 3000) is None


def former_threshold(tf, pt, limit):
    """floor_criterion_threshold as it was: two membership calls per prime."""
    worst = None
    for p in pt.primes_in(int(math.ceil(tf.h_x0)) - 1, limit):
        p = int(p)
        d = thin_membership(tf, p, "direct")
        c = thin_membership(tf, p, "floor_criterion")
        if d != c:
            worst = p
    return worst


@pytest.mark.parametrize("family,kw", [
    ("power", {"gamma": 0.9}), ("power", {"gamma": 0.95}),
    ("power", {"gamma": 0.99}), ("power", {"gamma": 0.99, "Ch": 0.5}),
    ("h1", {"c": 1.25, "A": 0.1}), ("h2", {"c": 1.25, "A": 0.1, "B": 0.3}),
    ("h3", {"Cc": 1.0}), ("h4", {"Cc": 0.2, "B": 0.5}), ("h5", {"m": 2})])
def test_floor_criterion_threshold_matches_former_loop(pt20, family, kw):
    tf = make_thin_function(family, **kw)
    got = floor_criterion_threshold(tf, pt20, 3000)
    assert got == former_threshold(tf, pt20, 3000)
    if "Ch" in kw:       # h' < 1: the criterion fails, up to the limit
        assert got == 2999


def test_cross_check_mode_random_sample(pt20, tf95, tps95):
    rng = np.random.default_rng(4)
    for p in rng.choice(pt20.primes_in(10 ** 3, 10 ** 6), 200, replace=False):
        thin_membership(tf95, int(p), "cross_check")   # must not raise


def test_near_integer_boundary_case(pt20):
    # gamma=0.9 in binary64: h(512) = 2^(9/0.9...) lands ~2e-13 from 1024;
    # the escalation path must resolve it and both membership modes agree
    tf = make_thin_function("power", gamma=0.9)
    v = tf.h(512.0)
    assert abs(v - 1024.0) < 1e-9
    fl = tf.floor_h(512)
    with mp.workdps(50):
        expect = int(mp.floor(mp.mpf(512) ** (1.0 / 0.9)))
    assert fl == expect
    for p in (1021, 1031):
        thin_membership(tf, p, "cross_check")


def test_enumeration_deterministic_across_threads(pt20, tf95):
    a = enumerate_thin_primes(tf95, pt20, 10 ** 6, threads=1)
    b = enumerate_thin_primes(tf95, pt20, 10 ** 6, threads=4)
    assert np.array_equal(a.primes, b.primes)
    assert np.array_equal(a.weights, b.weights)


def test_enumeration_deduplicates(pt20):
    # h3 = x log x has h' > 1, so no floor value repeats: this checks the
    # ascending order only; repeated values are exercised by the test below
    tf = make_thin_function("h3", Cc=1.0)
    tps = enumerate_thin_primes(tf, pt20, 10 ** 4)
    assert np.all(np.diff(tps.primes) > 0)


@pytest.mark.parametrize("threads", [1, 2])
def test_enumeration_dedups_across_unit_boundaries(pt20, monkeypatch, threads):
    # Ch = 1/2 gives h' < 1, so consecutive n share floor(h(n)) (8947 repeats
    # below n = 20000); with units of 101 values of n, 9 prime values come
    # from n on both sides of a unit boundary, where only the merge can
    # see the repeat
    monkeypatch.setattr(sieve, "SEGMENT", 101)
    tf = make_thin_function("power", gamma=0.99, Ch=0.5)
    N = 10 ** 4
    tps = enumerate_thin_primes(tf, pt20, N, threads=threads)
    floors = {tf.floor_h(n)
              for n in range(math.ceil(tf.x0), math.floor(tf.phi(N + 1.0)) + 2)}
    prime = set(pt20.primes.tolist())
    expect = [p for p in sorted(floors) if 2 <= p <= N and p in prime]
    assert tps.primes.tolist() == expect


def test_limit_mismatch(pt20, tf95):
    with pytest.raises(LimitMismatch):
        enumerate_thin_primes(tf95, pt20, (1 << 20) + 2)


def test_density_checkpoint_beyond_limit(tps_identity):
    with pytest.raises(LimitMismatch):
        density_profile(tps_identity, [10, tps_identity.limit + 1])


def test_density_identity(pt20, tps_identity):
    rows = density_profile(tps_identity, [10, 10 ** 6])
    assert rows[0][1] == 4
    assert rows[1][1] == 78498
    assert rows[1][2] == pytest.approx(78498 * math.log(10 ** 6) / 10 ** 6)


def test_density_gamma95_trend(pt20, tps95):
    rows = density_profile(tps95, [10 ** 4, 10 ** 6])
    r4, r6 = rows[0][2], rows[1][2]
    assert 0.5 < r6 < 2.0
    assert abs(r6 - 1.0) < abs(r4 - 1.0)


def test_thinness(pt20, tps95):
    fracs = [tps95.count(x) / pt20.pi(x) for x in (10 ** 4, 10 ** 5, 10 ** 6)]
    assert fracs[0] > fracs[1] > fracs[2]


def unchunked_enumeration(tf, pt, N):
    """The former single-pass enumeration: one array over every n."""
    n_lo = math.ceil(tf.x0)
    if tf.h_x0 < 2.0:
        n_lo = max(n_lo, math.ceil(tf.phi(2.0) - 1e-9))
    ns = np.arange(n_lo, math.floor(tf.phi(float(N + 1))) + 2, dtype=np.int64)
    ps = tf.floor_h_vec(ns)
    ps = ps[(ps >= 2) & (ps <= N)]
    uniq = np.unique(ps[np.isin(ps, pt.primes)])
    return uniq, tf.weight_vec(uniq.astype(np.float64))


@pytest.mark.parametrize("family,kw", [("power", {"gamma": 0.95}),
                                       ("power", {"gamma": 1.0}),
                                       ("h3", {"Cc": 1.0})])
def test_chunked_enumeration_matches_unchunked(pt20, monkeypatch, family, kw):
    # units of 997 values of n, each evaluated in blocks of 101, so both the
    # merge boundaries and the inner block edges are crossed
    tf = make_thin_function(family, **kw)
    N = 2 * 10 ** 5
    want = unchunked_enumeration(tf, pt20, N)
    monkeypatch.setattr(sieve, "SEGMENT", 997)
    monkeypatch.setattr(sieve, "THIN_BLOCK", 101)
    for threads in (1, 2):
        got = enumerate_thin_primes(tf, pt20, N, threads=threads)
        for a, b in zip((got.primes, got.weights), want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_enumeration_with_no_candidates(pt20):
    tf = make_thin_function("h3", Cc=1.0)     # smallest member is 3
    tps = enumerate_thin_primes(tf, pt20, 2)
    assert tps.primes.size == tps.weights.size == 0


@pytest.mark.parametrize("N", [2, 3, 2 ** 20 - 1, 2 ** 20 + 1, 2 ** 21 + 5])
def test_table_primes_match_spf_fixed_points(N):
    # the primes gathered segment by segment are those of a dense sieve and
    # the zeros of spf past 1; every other entry past 1 is a proper divisor
    pt = build_prime_table(N)
    want = sieve._base_primes(N)
    assert pt.primes.dtype == np.int64 and np.array_equal(pt.primes, want)
    assert np.array_equal(np.flatnonzero(pt.spf[2:] == 0) + 2, want)
    assert np.all(pt.spf[:2] == 0)
    ns = np.arange(N + 1)
    comp = pt.spf != 0
    assert np.all(ns[comp] % pt.spf[comp] == 0) and np.all(pt.spf[comp] < ns[comp])


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_enumeration_peak_memory(tf95):
    N = 1 << 23
    pt = build_prime_table(N)
    assert traced_peak(enumerate_thin_primes, tf95, pt, N) <= 20 * 2 ** 20


def test_table_peak_memory():
    # the 16 MiB uint16 table and the segment-wise primes, with no
    # full-length temporary beside them
    assert traced_peak(build_prime_table, 1 << 23) <= 28 * 2 ** 20


def test_table_is_uint16_of_two_bytes_per_entry():
    N = 2 ** 20 + 1
    pt = build_prime_table(N)
    assert pt.spf.dtype == np.uint16 and pt.spf.nbytes == 2 * (N + 1)


def test_largest_sieving_prime_below_2_32_fits_uint16():
    # every composite n < 2^32 has a prime factor at most isqrt(2^32 - 1)
    base = sieve._base_primes(math.isqrt(2 ** 32 - 1))
    assert base[-1] == 65521 <= np.iinfo(np.uint16).max


def test_threaded_escalations_keep_mpmath_precision(pt20, tf95, monkeypatch):
    # every floor decision escalates to 40 digits, in chunks of 97 values of
    # n spread over more workers than cores; mpmath's working precision and
    # the calling thread's decimal context must come back unchanged, and the
    # set must not move
    want = enumerate_thin_primes(tf95, pt20, 20000)
    monkeypatch.setattr(thinfn, "NEAR_INT_GUARD", 1.0)
    monkeypatch.setattr(sieve, "SEGMENT", 97)
    prec, interval = mp.mp.prec, sys.getswitchinterval()
    ctx = decimal.getcontext()
    state = repr(ctx)
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = enumerate_thin_primes(tf95, pt20, 20000, threads=4)
            assert mp.mp.prec == prec
            assert decimal.getcontext() is ctx and repr(ctx) == state
            assert np.array_equal(got.primes, want.primes)
            assert np.array_equal(got.weights, want.weights)
    finally:
        sys.setswitchinterval(interval)
