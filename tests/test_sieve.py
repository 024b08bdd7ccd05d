"""Sieve correctness against trial division and thin set enumeration oracles."""

import decimal
import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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


def on_each_route(monkeypatch):
    """Yield "n" and then "primes", with enumerate_thin_primes held to that
    route whatever the choice rule would take."""
    for route in ("n", "primes"):
        monkeypatch.setattr(sieve, "_takes_primes_side",
                            lambda *args, side=route == "primes": side)
        yield route


@pytest.fixture(scope="module")
def pt23():
    return build_prime_table(1 << 23)


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


def test_enumeration_deterministic_across_threads(pt20, tf95, monkeypatch):
    for route in on_each_route(monkeypatch):
        a = enumerate_thin_primes(tf95, pt20, 10 ** 6, threads=1)
        b = enumerate_thin_primes(tf95, pt20, 10 ** 6, threads=4)
        assert np.array_equal(a.primes, b.primes), route
        assert np.array_equal(a.weights, b.weights), route


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
    # see the repeat.  The primes' side tests each prime once, in units of
    # 101 primes.
    monkeypatch.setattr(sieve, "SEGMENT", 101)
    tf = make_thin_function("power", gamma=0.99, Ch=0.5)
    N = 10 ** 4
    floors = {tf.floor_h(n)
              for n in range(math.ceil(tf.x0), math.floor(tf.phi(N + 1.0)) + 2)}
    prime = set(pt20.primes.tolist())
    expect = [p for p in sorted(floors) if 2 <= p <= N and p in prime]
    for route in on_each_route(monkeypatch):
        tps = enumerate_thin_primes(tf, pt20, N, threads=threads)
        assert tps.primes.tolist() == expect, route


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


@pytest.mark.parametrize("family,kw,N", [
    pytest.param("power", {"gamma": 0.95}, 2 * 10 ** 5, id="power-kw0"),
    pytest.param("power", {"gamma": 1.0}, 2 * 10 ** 5, id="power-kw1"),
    pytest.param("h3", {"Cc": 1.0}, 2 * 10 ** 5, id="h3-kw2"),
    pytest.param("power", {"gamma": 0.95}, 2 ** 22 + 2 ** 20, id="power-across-2^22"),
    pytest.param("power", {"gamma": 0.99}, 2 ** 22 + 2 ** 20, id="power-0.99-across-2^22")])
def test_chunked_enumeration_matches_unchunked(pt20, monkeypatch, family, kw, N):
    # units of 997 values of n (or primes), each evaluated in blocks of 101,
    # so both the merge boundaries and the inner block edges are crossed;
    # from 2^21 on the floor guard is GUARD_ULPS spacings of a block's
    # largest value, and one block of n has h cross 2^22, where that
    # spacing doubles.  h3's Newton phi is a guess within the window too.
    tf = make_thin_function(family, **kw)
    pt = pt20 if N <= pt20.limit else build_prime_table(N)
    want = unchunked_enumeration(tf, pt, N)
    monkeypatch.setattr(sieve, "SEGMENT", 997)
    monkeypatch.setattr(sieve, "THIN_BLOCK", 101)
    if N > 2 ** 22:
        n_lo, n_cross = math.ceil(tf.x0), math.ceil(tf.phi(2.0 ** 22))
        assert tf.h(n_cross - 1) < 2 ** 22 <= tf.h(n_cross)
        assert (n_cross - n_lo) % 997 % 101 != 0      # inside a block
    for route in on_each_route(monkeypatch):
        for threads in (1, 2):
            got = enumerate_thin_primes(tf, pt, N, threads=threads)
            for a, b in zip((got.primes, got.weights), want):
                assert a.dtype == b.dtype and np.array_equal(a, b), route


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


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("N", [2, 3, 4, 5, 2 ** 20 - 1, 2 ** 20 + 1, 2 ** 21 + 5])
def test_table_primes_and_is_prime_match_dense_sieve(N, threads):
    # odd and even N, and the segment edges of the odd table, serially and
    # on two workers: the primes and the primality of every n <= N
    pt = build_prime_table(N, threads=threads)
    want = sieve._base_primes(N)
    assert pt.primes.dtype == np.int64 and np.array_equal(pt.primes, want)
    prime = np.zeros(N + 1, dtype=bool)
    prime[want] = True
    assert np.array_equal(pt.is_prime(np.arange(N + 1)), prime)


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_enumeration_peak_memory(tf95, pt23, monkeypatch):
    N = 1 << 23
    for route in on_each_route(monkeypatch):
        assert traced_peak(enumerate_thin_primes, tf95, pt23, N) <= 8 * 2 ** 20, route


def test_table_peak_memory():
    # the 4 MiB table of odd primality bytes and the segment-wise primes,
    # with no full-length temporary beside them and no spf
    assert traced_peak(build_prime_table, 1 << 23) <= 16 * 2 ** 20


@pytest.mark.parametrize("N", [2 ** 20, 2 ** 20 + 1])
def test_table_is_one_byte_per_odd_number(N):
    pt = build_prime_table(N)
    assert pt.odd.dtype == np.bool_ and pt.odd.nbytes == N // 2 + 1
    assert "spf" not in pt.__dict__


def test_spf_once_built_is_uint16_of_two_bytes_per_entry():
    N = 2 ** 20 + 1
    pt = build_prime_table(N)
    assert pt.spf.dtype == np.uint16 and pt.spf.nbytes == 2 * (N + 1)
    assert pt.spf is pt.spf


def test_largest_sieving_prime_below_2_32_fits_uint16():
    # every composite n < 2^32 has a prime factor at most isqrt(2^32 - 1)
    base = sieve._base_primes(math.isqrt(2 ** 32 - 1))
    assert base[-1] == 65521 <= np.iinfo(np.uint16).max


@pytest.mark.parametrize("threads", [1, 2])
def test_merged_units_are_already_in_order(pt20, monkeypatch, threads):
    # the units merge in index order, so the dedup by predecessor needs no
    # sort: h increases, which makes the n side's merge nondecreasing (with
    # repeats at Ch = 1/2), and the primes' side tests ascending primes
    monkeypatch.setattr(sieve, "SEGMENT", 101)
    tf = make_thin_function("power", gamma=0.99, Ch=0.5)
    N = 10 ** 4
    n_lo, n_hi = sieve._n_range(tf, N)
    for route, least in ((sieve._n_route, 0), (sieve._primes_route, 1)):
        units = route(tf, pt20, N, n_lo, n_hi, threads)
        steps = np.diff(np.concatenate(units))
        assert len(units) > 10 and steps.min() >= least, route.__name__
    for route in on_each_route(monkeypatch):
        ps = enumerate_thin_primes(tf, pt20, N, threads=threads).primes
        assert np.all(np.diff(ps) > 0), route


def test_threaded_escalations_keep_mpmath_precision(pt20, tf95, monkeypatch):
    # every floor decision escalates to 40 digits, in chunks of 97 values of
    # n, or of primes, spread over more workers than cores; mpmath's working
    # precision and the calling thread's decimal context must come back
    # unchanged, and the set must not move
    want = enumerate_thin_primes(tf95, pt20, 20000)
    monkeypatch.setattr(thinfn, "NEAR_INT_GUARD", 1.0)
    monkeypatch.setattr(sieve, "SEGMENT", 97)
    prec, interval = mp.mp.prec, sys.getswitchinterval()
    ctx = decimal.getcontext()
    state = repr(ctx)
    sys.setswitchinterval(1e-6)
    try:
        for route in on_each_route(monkeypatch):
            for _ in range(3):
                got = enumerate_thin_primes(tf95, pt20, 20000, threads=4)
                assert mp.mp.prec == prec
                assert decimal.getcontext() is ctx and repr(ctx) == state
                assert np.array_equal(got.primes, want.primes), route
                assert np.array_equal(got.weights, want.weights), route
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(0.5, 1.0, exclude_min=True),
       Ch=st.sampled_from([0.5, 0.75, 1.0, 3.0]),
       N=st.integers(2, 2 ** 16))
@example(gamma=0.8, Ch=1.0, N=2 ** 16)
@example(gamma=0.8, Ch=0.5, N=2 ** 16)
@example(gamma=2 / 3, Ch=1.0, N=2 ** 16)
@example(gamma=2 / 3, Ch=3.0, N=2 ** 16)
@example(gamma=1.0, Ch=1.0, N=2 ** 16)
@example(gamma=0.95, Ch=0.75, N=2 ** 16)
@example(gamma=0.75, Ch=3.0, N=2)
def test_routes_agree_with_unchunked(pt20, gamma, Ch, N):
    # the n side and the primes' side against one pass over every n, over
    # the power family's gamma range; gamma = 1 is in the family only as the
    # identity, since its h'' must be positive
    assume(1.0 / gamma < 2.0)
    tf = make_thin_function("power", gamma=gamma, Ch=1.0 if gamma == 1.0 else Ch)
    want, _ = unchunked_enumeration(tf, pt20, N)
    n_lo, n_hi = sieve._n_range(tf, N)
    for route in (sieve._n_route, sieve._primes_route):
        got = np.unique(np.concatenate(route(tf, pt20, N, n_lo, n_hi, 1)))
        assert np.array_equal(got, want), route.__name__


@pytest.mark.parametrize("family,kw,primes_side", [
    ("power", {"gamma": 0.95}, True),
    ("power", {"gamma": 0.7}, False),
    ("power", {"gamma": 1.0}, False),
    ("h3", {"Cc": 1.0}, False)])
def test_route_choice(pt23, family, kw, primes_side):
    # at N = 2^23: 2 pi(N) = 1128326 against 3.78M values of n at gamma
    # 0.95 and 70k at 0.7; the identity's n side evaluates no h, and h3's
    # phi is a Newton run, never a cheap guess
    N = 1 << 23
    tf = make_thin_function(family, **kw)
    assert sieve._takes_primes_side(tf, pt23, N, *sieve._n_range(tf, N)) is primes_side


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("gamma,Ch,N", [
    (1.0, 1.0, 2 ** 16), (0.95, 1.0, 2 ** 20), (0.99, 3.0, 2 ** 18), (2 / 3, 0.5, 2 ** 16)])
def test_guess_window_absorbs_half_a_window(pt20, monkeypatch, gamma, Ch, N, sign):
    # every guess of phi moved by half the window still gives the set: the
    # neighbours of a near-integer guess are tried.  At gamma = 1 every
    # guess is an integer, so the +1/2 move puts every ceiling one too high
    tf = make_thin_function("power", gamma=gamma, Ch=Ch)
    n_lo, n_hi = sieve._n_range(tf, N)
    want = np.unique(np.concatenate(sieve._n_route(tf, pt20, N, n_lo, n_hi, 1)))
    phi_vec = tf.phi_vec
    moved = lambda x: phi_vec(x) * (1.0 + sign * sieve.GUESS_WINDOW / 2)
    if gamma == 1.0 and sign > 0:
        assert np.all(np.ceil(moved(want)) == want + 1)
    monkeypatch.setattr(tf, "phi_vec", moved)
    got = np.concatenate(sieve._primes_route(tf, pt20, N, n_lo, n_hi, 1))
    assert np.array_equal(got, want)


def test_primes_side_rejects_the_recorded_phi_defect(tf95):
    # at gamma 0.95 phi is (x/Ch)^gamma, not (x/Ch)^(1/c) with c = fl(1/gamma):
    # floor(h(14451346)) = k - 1 and floor(h(14451347)) > k, yet the floor
    # criterion on that phi takes k; the primes' side decides by floor(h)
    k, n = 34414826, 14451346
    assert tf95.floor_h(n) == k - 1 and tf95.floor_h(n + 1) > k
    assert thin_membership(tf95, k, "floor_criterion")
    n_lo, n_hi = sieve._n_range(tf95, k + 1)
    ks = np.array([k - 1, k, k + 1], dtype=np.int64)
    assert sieve._floor_values_among(tf95, ks, n_lo, n_hi).tolist() == [k - 1]


@settings(max_examples=30, deadline=None)
@given(gamma=st.sampled_from([0.55, 2 / 3, 0.8, 0.9, 0.95, 0.99, 1.0]),
       Ch=st.sampled_from([0.5, 1.0, 3.0]),
       n_lo=st.integers(1, 3000), width=st.integers(0, 3000))
def test_floor_values_among_a_range_of_n(gamma, Ch, n_lo, width):
    # every integer k, prime or not, on both sides of the range's values:
    # k is kept exactly when some n in [n_lo, n_hi] has floor(h(n)) = k
    tf = make_thin_function("power", gamma=gamma, Ch=1.0 if gamma == 1.0 else Ch)
    n_lo = max(n_lo, math.ceil(tf.x0))
    n_hi = n_lo + width
    want = np.unique(tf.floor_h_vec(np.arange(n_lo, n_hi + 1)))
    ks = np.arange(2, tf.floor_h(n_hi + 2) + 1, dtype=np.int64)
    got = sieve._floor_values_among(tf, ks, n_lo, n_hi)
    assert np.array_equal(got, want[want >= 2])


@settings(max_examples=25, deadline=None)
@given(gamma=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
       Ch=st.sampled_from([2.5, 3.0, 7.3]),
       x0=st.sampled_from([None, 2.0, 5.0, 17.5]),
       N=st.integers(2, 3000))
@example(gamma=0.95, Ch=2.5, x0=None, N=100)
@example(gamma=0.9, Ch=7.3, x0=None, N=3000)
@example(gamma=0.99, Ch=3.0, x0=5.0, N=3000)
@example(gamma=0.8, Ch=0.4, x0=None, N=3000)
def test_sets_start_at_h_x0(pt20, gamma, Ch, x0, N):
    # a Ch or x0 that puts h(x0) above 2 starts the set at the least prime
    # not below h(x0), whose weight phi can take; floor(h(ceil(x0))) may lie
    # below it.  Both routes against the membership oracle
    tf = make_thin_function("power", gamma=gamma, Ch=Ch, x0=x0)
    want = [p for p in pt20.primes_in(1, N).tolist()
            if p >= tf.h_x0 * (1 - 1e-12) and thin_membership(tf, p, "direct")]
    with pytest.MonkeyPatch.context() as mp:
        for route in on_each_route(mp):
            tps = enumerate_thin_primes(tf, pt20, N)
            assert tps.primes.tolist() == want, route
            assert np.all(np.isfinite(tps.weights) & (tps.weights > 0))


@settings(max_examples=25, deadline=None)
@given(gamma=st.sampled_from([0.75, 0.8, 0.9, 0.95, 0.99]),
       Ch=st.floats(0.005, 0.2),
       x0=st.floats(200.0, 5000.0),
       offset=st.integers(-20, 300))
@example(gamma=0.95, Ch=0.01, x0=2460.0, offset=3)
@example(gamma=0.9, Ch=0.05, x0=1000.0, offset=-30)
@example(gamma=0.75, Ch=0.2, x0=5000.0, offset=100)
def test_least_member_above_the_first_primes(pt20, gamma, Ch, x0, offset):
    # a small Ch and a large x0 put h(x0), and so the least member, above
    # 2, 3 and 5; N near h(x0), on either side of it, leaves a few members
    # or none.  Both routes against the membership oracle
    tf = make_thin_function("power", gamma=gamma, Ch=Ch, x0=x0)
    assume(tf.h_x0 > 5)
    N = max(2, math.floor(tf.h_x0) + offset)
    want = [p for p in pt20.primes_in(1, N).tolist()
            if p >= tf.h_x0 * (1 - 1e-12) and thin_membership(tf, p, "direct")]
    with pytest.MonkeyPatch.context() as mp:
        for route in on_each_route(mp):
            tps = enumerate_thin_primes(tf, pt20, N)
            assert tps.primes.tolist() == want, route
            assert np.all(np.isfinite(tps.weights) & (tps.weights > 0))
