"""Representation counts, singular series, and Parseval quadrature."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinprimes import cli, goldbach
from thinprimes.cli import main
from thinprimes.errors import (
    CutoffTooSmall,
    LimitMismatch,
    LimitTooLarge,
    ParameterOutOfRange,
    SpectralMismatch,
)
from thinprimes.goldbach import (
    _exact_triple_coeff,
    check_cutoff,
    goldbach_reports,
    parseval_check,
    rep_counts,
    singular_series,
)
from thinprimes.sieve import ThinPrimeSet, enumerate_thin_primes
from thinprimes.thinfn import admissibility_check, make_thin_function

import oracles
from oracles import direct_counts, goldbach_main_term


def brute_force_r(N: int, primes: list[int]) -> int:
    """Ordered triple count by an independent triple loop."""
    ps = [p for p in primes if p <= N]
    pset = set(ps)
    count = 0
    for a in ps:
        for b in ps:
            c = N - a - b
            if c in pset:
                count += 1
    return count


def test_config_validation(tps_identity):
    for n in (8, 5):
        with pytest.raises(ParameterOutOfRange):
            rep_counts(tps_identity, tps_identity, tps_identity, n, n)


def test_r9_and_r7(tps_identity, pt20):
    for n, want in ((9, 4), (7, 3)):
        direct, spectral = rep_counts(tps_identity, tps_identity,
                                      tps_identity, n, n)
        assert (direct[0], spectral[0]) == (want, want)


def test_identity_counts_match_brute_force(tps_identity, pt20):
    primes = [int(p) for p in pt20.primes_in(1, 401)]
    for n in range(7, 402, 2):
        direct, spectral = rep_counts(tps_identity, tps_identity,
                                      tps_identity, n, n)
        assert direct[0] == spectral[0] == brute_force_r(n, primes)


def test_mixed_cross_method(tps_identity, tps95, pt20):
    direct, spectral = rep_counts(tps_identity, tps_identity, tps95,
                                  10 ** 4 + 1, 10 ** 4 + 1)
    assert direct[0] == spectral[0]


def test_permutation_symmetry(tps_identity, tps95, tps99, pt20):
    sets = {"i": tps_identity, "a": tps95, "b": tps99}
    orders = [("i", "a", "b"), ("b", "a", "i"), ("a", "i", "b")]
    counts = [rep_counts(*(sets[k] for k in o), 2001, 2001)[0][0]
              for o in orders]
    assert counts[0] == counts[1] == counts[2]


def test_exact_escalation_path(tps_identity):
    ind = tps_identity.indicator(101)
    assert _exact_triple_coeff(ind, ind, ind, 101) == 210


INDICATOR = st.lists(st.booleans(), min_size=1, max_size=60).map(np.array)


@settings(max_examples=150, deadline=None)
@given(INDICATOR, INDICATOR, INDICATOR, st.integers(0, 200))
@example(np.ones(10, bool), np.ones(10, bool), np.ones(19, bool), 18)   # 100 = |S1||S2|
@example(np.zeros(3, bool), np.ones(3, bool), np.ones(3, bool), 2)
def test_exact_triple_coeff_is_the_triple_count(i1, i2, i3, n):
    """The decimal route against a loop over the member pairs, whose count
    |S1| * |S2| is the coefficient's bound, reached in the first example."""
    s3 = set(np.flatnonzero(i3).tolist())
    want = sum(n - x - y in s3 for x in np.flatnonzero(i1).tolist()
               for y in np.flatnonzero(i2).tolist())
    assert _exact_triple_coeff(i1, i2, i3, n) == want


def test_singular_series_n3_degenerate():
    s_paper, s_classical, tail = oracles.singular_series(3, 1000)
    assert s_paper == 0.0          # the p=2 factor (1 - 1/1) kills it
    assert s_classical > 0
    assert tail == pytest.approx(5e-7)


def test_singular_series_classical_exceeds_one():
    _, s_classical, _ = oracles.singular_series(35, 10 ** 5)
    assert s_classical > 1.0


def test_singular_series_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        check_cutoff(50)
    with pytest.raises(LimitTooLarge):     # a sieve past the hull guard
        check_cutoff(1 << 40)


def test_singular_series_oracle_small_cutoff():
    # independent evaluation of both products at cutoff 100
    _, s_classical, _ = oracles.singular_series(9, 100)
    primes = [p for p in range(2, 101)
              if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
    expect = 1.0
    for p in primes:
        if 9 % p == 0:
            expect *= 1 - 1 / (p - 1) ** 2
        else:
            expect *= 1 + 1 / (p - 1) ** 3
    assert s_classical == pytest.approx(expect, rel=1e-12)


def test_report_identity(tps_identity, pt20, tf_identity):
    N = 4097 * 2 + 1
    rep, = goldbach_reports([tf_identity] * 3, [tps_identity] * 3, N, N, pt=pt20)
    n, R, S_paper, S_classical, main_term, ratio, flags = rep
    assert R > 0
    assert S_paper == 0.0
    assert "degenerate" in flags
    assert ratio > 0
    # phi = id: main term reduces to S N^2 / log^3 N
    assert main_term == pytest.approx(S_classical * n ** 2 / math.log(n) ** 3)


def test_report_thin(tps95, pt20, tf95):
    (_, R, _, _, _, ratio, _), = goldbach_reports([tf95] * 3, [tps95] * 3,
                                                  2001, 2001, pt=pt20)
    assert ratio > 0 or R == 0


@pytest.mark.parametrize("gammas", [(1.0, 0.99, 0.95), (0.95, 0.95, 0.99)])
def test_report_main_terms_are_the_per_target_formula(sets_by_gamma, pt20,
                                                      gammas):
    sets = [sets_by_gamma[g] for g in gammas]
    tfs = [s.tf for s in sets]
    for n, R, S_paper, S_classical, main_term, ratio, _ in goldbach_reports(
            tfs, sets, 1001, 3001, pt20):
        s_used = S_classical if S_paper == 0.0 else S_paper
        assert (main_term, ratio) == goldbach_main_term(tfs, n, s_used, R)


def test_zero_count_threshold_recorded(pt20, tps99):
    """Largest odd N <= 1e5 with no representation, for gamma = 0.99.

    One full convolution of the indicator vector with itself (three-fold)
    gives every count at once; spot values are cross-checked against
    rep_counts and the rounding margin is verified for the whole vector.
    """
    n_max = 10 ** 5
    ind = tps99.indicator(n_max).astype(np.float64)
    M = 1
    while M < 3 * n_max + 1:
        M <<= 1
    spec = np.fft.rfft(ind, M)
    counts = np.fft.irfft(spec * spec * spec, M)[: n_max + 1]
    rounded = np.rint(counts)
    assert float(np.max(np.abs(counts - rounded))) < 0.25
    odd = np.arange(7, n_max + 1, 2)
    zeros = odd[rounded[odd] == 0]
    largest = int(zeros.max()) if zeros.size else None
    print(f"gamma=0.99: largest odd N <= 1e5 with R(N) = 0: {largest} "
          f"({zeros.size} zero-count values)")
    for n in (7, 9, 5001, 99999):
        direct, _ = rep_counts(tps99, tps99, tps99, n, n)
        assert direct[0] == int(rounded[n])
    if largest is not None:
        assert np.all(rounded[odd[odd > largest]] > 0)


@pytest.mark.parametrize("gs,expect_pass,lhs0", [
    ((1.0, 1.0, 1.0), True, 0.0),
    ((0.999, 0.999, 0.999), True, 0.044),
    ((0.9, 1.0, 1.0), False, 1.6),
])
def test_admissibility(gs, expect_pass, lhs0):
    ok, lhs = admissibility_check(*gs)
    assert ok is expect_pass
    assert lhs[0] == pytest.approx(lhs0, abs=1e-12)


def test_parseval_identity_n100(tps_identity):
    lhs, rhs = parseval_check(tps_identity, 100, weighted=False)
    assert rhs == 25.0
    assert lhs == pytest.approx(25.0, rel=1e-8)


def test_parseval_empty(pt20):
    tf = make_thin_function("h3", Cc=1.0)
    tps = enumerate_thin_primes(tf, pt20, 100)
    lhs, rhs = parseval_check(tps, 2, weighted=False)
    assert lhs == rhs == 0.0


def test_parseval_weighted_full_side(pt20):
    lhs, rhs = parseval_check(pt20, 4096, weighted=True)
    ps = pt20.primes_in(1, 4096)
    expect = float(np.sum(np.log(ps.astype(float)) ** 2))
    assert rhs == pytest.approx(expect, rel=1e-12)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_parseval_random_configs(pt20, tps_identity, tps95, tps99):
    rng = np.random.default_rng(17)
    sources = [tps_identity, tps95, tps99, pt20]
    for _ in range(20):
        src = sources[int(rng.integers(len(sources)))]
        n = int(rng.integers(50, 4097))
        weighted = bool(rng.integers(2))
        lhs, rhs = parseval_check(src, n, weighted)
        assert lhs == pytest.approx(rhs, rel=1e-8)


# -- one pass over a range of targets ---------------------------------------

def per_target_rep_count(N, tps1, tps2, tps3):
    """The per-target count made before ranges (oracle).

    A pair loop over p1 and four FFTs of size next_pow2(4N) per target.
    """
    ind = [t.indicator(N) for t in (tps1, tps2, tps3)]
    p1s = tps1.primes[tps1.primes <= N]
    p2s = tps2.primes[tps2.primes <= N]
    direct = 0
    for p1 in p1s:
        rem = N - int(p1) - p2s
        ok = rem >= 2
        direct += int(np.count_nonzero(ind[2][rem[ok]]))
    M = 1
    while M < 4 * N:
        M <<= 1
    vecs = []
    for a in ind:
        v = np.zeros(M, dtype=np.float64)
        v[: len(a)] = a
        vecs.append(v)
    spec = np.fft.rfft(vecs[0]) * np.fft.rfft(vecs[1]) * np.fft.rfft(vecs[2])
    val = float(np.fft.irfft(spec, M)[N])
    spectral = round(val)
    if abs(val - spectral) >= 0.25:
        spectral = _exact_triple_coeff(ind[0], ind[1], ind[2], N)
    return direct, spectral


@pytest.fixture(scope="module")
def sets_by_gamma(tps_identity, tps95, tps99):
    return {1.0: tps_identity, 0.99: tps99, 0.95: tps95}


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.sampled_from([1.0, 0.99, 0.95])] * 3),
       st.integers(3, 1499), st.integers(0, 100))
@example((1.0, 1.0, 1.0), 3, 0)
@example((0.95, 0.99, 1.0), 1399, 100)
def test_range_matches_per_target_loop(sets_by_gamma, gammas, half, width):
    N = 2 * half + 1
    N_end = min(N + 2 * width, 3000)
    sets = [sets_by_gamma[g] for g in gammas]
    direct, spectral = rep_counts(*sets, N, N_end)
    want = [per_target_rep_count(n, *sets) for n in range(N, N_end + 1, 2)]
    assert list(zip(direct.tolist(), spectral.tolist())) == want


@st.composite
def subset_ranges(draw):
    """(N, N_end, sets): a range that starts at N = 7 (so n - 4 = 3), one
    whose odd grid bound V = 3A - t0 + 1 is 2^k or 2^k + 1, or a free one;
    and per set whether 2 is in it, the least odd member and a density,
    with a seed for the draw of its odd members."""
    kind = draw(st.sampled_from(["seven", "edge", "free"]))
    if kind == "seven":
        N, N_end = 7, 7 + draw(st.integers(0, 60))
    elif kind == "edge":
        edge = draw(st.integers(0, 1))
        V = (1 << draw(st.integers(4, 11))) + edge
        # the targets t0..A-1 number V - 1 - 2A, of the parity of V - 1
        K = 2 * draw(st.integers(0, min(15, ((V - 5) // 3 - 1 - edge) // 2))) \
            + 1 + edge
        A = (V - 1 - K) // 2
        N, N_end = 2 * (A - K) + 3, 2 * A + 1 + draw(st.integers(0, 1))
        assert 3 * ((N_end - 1) // 2) - (N - 3) // 2 + 1 == V
    else:
        N = 2 * draw(st.integers(2, 1499)) + 3
        N_end = N + draw(st.integers(0, 80))
    sets = [(draw(st.booleans()), draw(st.sampled_from([3, 5, 13])),
             draw(st.sampled_from([0.3, 0.7, 1.0])),
             draw(st.integers(0, 2 ** 32 - 1))) for _ in range(3)]
    return N, N_end, sets


@settings(max_examples=50, deadline=None)
@given(subset_ranges())
@example((7, 7, [(True, 3, 1.0, 0)] * 3))
@example((7, 31, [(False, 3, 1.0, 0)] * 3))
@example((7, 41, [(True, 3, 1.0, 0), (False, 5, 1.0, 1), (True, 13, 0.7, 2)]))
@example((2045, 2047, [(True, 3, 1.0, 0), (True, 3, 0.3, 1), (False, 5, 0.7, 2)]))
@example((2047, 2048, [(False, 3, 1.0, 0), (True, 13, 1.0, 1), (True, 3, 1.0, 2)]))
def test_odd_reduction_matches_full_length_oracle(pt20, tf_identity, case):
    # random prime subsets, not thin sets: 2 in all three sets, in none or
    # in some, and a least odd member that may sit above 3
    N, N_end, draws = case
    ps = pt20.primes_in(2, N_end)
    sets = []
    for has2, least, density, seed in draws:
        rng = np.random.default_rng(seed)
        odd = ps[(ps >= least) & (rng.random(len(ps)) < density)]
        members = np.concatenate([[2] if has2 else [], odd]).astype(np.int64)
        sets.append(ThinPrimeSet(tf_identity, N_end, members,
                                 np.ones(len(members))))
    direct, spectral = rep_counts(*sets, N, N_end)
    want = [per_target_rep_count(n, *sets) for n in range(N, N_end + 1, 2)]
    assert list(zip(direct.tolist(), spectral.tolist())) == want


def _record_transforms(monkeypatch):
    calls = []
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)

        def spy(*args, _real=real, **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    return calls


@pytest.mark.parametrize("K", [1, 7, 120])
def test_range_takes_at_most_four_transforms(tps_identity, tps95, K,
                                             monkeypatch):
    calls = _record_transforms(monkeypatch)
    N = 5001
    direct, spectral = rep_counts(tps_identity, tps95, tps95, N, N + 2 * (K - 1))
    assert len(direct) == len(spectral) == K
    assert len(calls) == 3      # one rfft per distinct set, one irfft


@pytest.mark.parametrize("names,transforms", [
    ("iii", 2), ("iaa", 3), ("aia", 3), ("iab", 4)])
def test_one_transform_per_distinct_set(tps_identity, tps95, tps99, names,
                                        transforms, monkeypatch):
    calls = _record_transforms(monkeypatch)
    by_name = {"i": tps_identity, "a": tps95, "b": tps99}
    direct, spectral = rep_counts(*(by_name[c] for c in names), 3001, 3041)
    assert len(calls) == transforms
    assert direct.tolist() == spectral.tolist()


# the grid holds the odd problem: M = next_pow2(3A - t0 + 1) with
# A = (N_end - 1)//2 and t0 = (N - 3)/2, that is (3*N_end - N)/2 + 1 for odd
# N and N_end, so the grid is either exactly that many points (2^k) or
# nearly twice it (2^k + 1)
@pytest.mark.parametrize("N,N_end,M", [
    (4089, 4093, 1 << 12), (33, 2741, 1 << 12),
    (4087, 4093, 1 << 13), (31, 2741, 1 << 13)])
def test_grid_at_power_of_two_edges(tps_identity, tps95, tps99, N, N_end, M,
                                    monkeypatch):
    sizes = []
    real = np.fft.irfft

    def spy(a, n=None, *args, **kwargs):
        sizes.append(n)
        return real(a, n, *args, **kwargs)
    monkeypatch.setattr(np.fft, "irfft", spy)
    sets = (tps_identity, tps99, tps95)
    direct, spectral = rep_counts(*sets, N, N_end)
    assert sizes == [M]
    assert 3 * ((N_end - 1) // 2) - (N - 3) // 2 + 1 in (M, M // 2 + 1)
    for j, n in ((0, N), (-1, N_end)):
        assert (direct[j], spectral[j]) == per_target_rep_count(n, *sets)


# -- the two pair-count tables against the per-point gather ----------------

@st.composite
def pair_count_cases(draw):
    """Sets of halves a = (p - 1)/2 in [1, L] with L + 1 = 0, 1 or 63 mod
    64 (an empty S2 drawn on purpose) and a range of consecutive targets
    t0..t1 that may be a single one; rep_counts passes t1 = L - 1 and a1s
    up to L."""
    L = 64 * draw(st.integers(1, 6)) + draw(st.sampled_from([-1, 0, 62]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = st.sampled_from([0.0, 0.02, 0.3, 1.0])

    def subset(p):
        return 1 + np.flatnonzero(rng.random(L) < p)
    s1, s2 = subset(draw(density)), subset(draw(density))
    i3 = np.zeros(L + 1, dtype=bool)
    i3[subset(draw(density))] = True
    t1 = draw(st.sampled_from([L - 1, L - 2, L // 2]))
    t0 = t1 - draw(st.integers(0, t1 - 2))
    return s1[s1 <= t1 + 1], s2, i3, t0, t1


@settings(max_examples=150, deadline=None)
@given(pair_count_cases())
@example((np.array([1, 2]), np.array([], dtype=np.int64),
          np.array([0, 1, 1, 1], dtype=bool), 2, 2))
def test_pair_tables_match_per_point_gather(case):
    a1s, a2s, i3, t0, t1 = case
    want = direct_counts(a1s, a2s, i3, np.arange(t0, t1 + 1))
    ms = goldbach._needed_points(a1s, t0, t1, len(i3))
    by_popcount = goldbach._pair_counts_by_popcount(a2s, i3, ms)
    by_shifts = goldbach._pair_counts_by_shifts(a2s, i3)
    assert by_popcount[ms].tolist() == by_shifts[ms].tolist()
    for table in (by_popcount, by_shifts):
        got = goldbach._sum_over_first(a1s, table, t0, t1)
        assert got.tolist() == want.tolist()
    assert goldbach._direct_counts(a1s, a2s, i3, t0, t1).tolist() == \
        want.tolist()


def _record_pair_table_sides(monkeypatch):
    sides = []
    for side in ("popcount", "shifts"):
        real = getattr(goldbach, f"_pair_counts_by_{side}")

        def spy(*args, _real=real, _side=side):
            sides.append(_side)
            return _real(*args)
        monkeypatch.setattr(goldbach, f"_pair_counts_by_{side}", spy)
    return sides


def test_thin_wide_range_takes_shifted_adds(pt20, monkeypatch):
    tps = enumerate_thin_primes(make_thin_function("power", gamma=0.7), pt20,
                                1 << 18)
    sides = _record_pair_table_sides(monkeypatch)
    direct, _ = rep_counts(tps, tps, tps, 7, (1 << 18) - 1)
    assert sides == ["shifts"]
    zeros = np.flatnonzero(direct == 0)
    assert zeros.size == 305 and 7 + 2 * zeros[-1] == 4155


def test_dense_single_target_takes_popcounts(tps_identity, monkeypatch):
    sides = _record_pair_table_sides(monkeypatch)
    rep_counts(tps_identity, tps_identity, tps_identity, 200001, 200001)
    assert sides == ["popcount"]


def test_thin_margin_escalates_only_its_target(tps_identity, tps95,
                                                monkeypatch):
    N, N_end, bad = 2001, 2101, 2041
    want = [per_target_rep_count(n, tps_identity, tps95, tps95)[0]
            for n in range(N, N_end + 1, 2)]
    real_irfft = np.fft.irfft

    def nudged(*args, **kwargs):
        vals = real_irfft(*args, **kwargs)
        vals[(bad - 3) // 2] += 0.5     # the grid index of n is (n - 3)/2
        return vals
    escalated = []

    def spy(i1, i2, i3, n):
        escalated.append(n)
        return _exact_triple_coeff(i1, i2, i3, n)
    monkeypatch.setattr(np.fft, "irfft", nudged)
    monkeypatch.setattr(goldbach, "_exact_triple_coeff", spy)
    direct, spectral = rep_counts(tps_identity, tps95, tps95, N, N_end)
    assert escalated == [(bad - 3) // 2]
    assert direct.tolist() == spectral.tolist() == want


def test_escalation_near_the_single_band_agrees(tps_identity, monkeypatch):
    """A target near 200001 nudged off its integer is recounted exactly, in
    decimal, to the direct route's count."""
    N, N_end, bad = 199991, 200001, 199997
    real_irfft = np.fft.irfft

    def nudged(*args, **kwargs):
        vals = real_irfft(*args, **kwargs)
        vals[(bad - 3) // 2] += 0.5
        return vals
    escalated = []

    def spy(i1, i2, i3, n):
        escalated.append(n)
        return _exact_triple_coeff(i1, i2, i3, n)
    monkeypatch.setattr(np.fft, "irfft", nudged)
    monkeypatch.setattr(goldbach, "_exact_triple_coeff", spy)
    direct, spectral = rep_counts(tps_identity, tps_identity, tps_identity,
                                  N, N_end)
    assert escalated == [(bad - 3) // 2]
    assert direct.tolist() == spectral.tolist()


def test_mismatch_names_the_target(tps_identity, monkeypatch):
    real_irfft = np.fft.irfft

    def shifted(*args, **kwargs):
        vals = real_irfft(*args, **kwargs)
        vals[(1005 - 3) // 2] += 1.0
        return vals
    monkeypatch.setattr(np.fft, "irfft", shifted)
    with pytest.raises(SpectralMismatch, match="N=1005"):
        rep_counts(tps_identity, tps_identity, tps_identity, 1001, 1011)


def test_range_validation(tps_identity, pt20, tf_identity):
    sets = (tps_identity,) * 3
    with pytest.raises(ParameterOutOfRange):
        rep_counts(*sets, 1001, 999)
    with pytest.raises(ParameterOutOfRange):
        rep_counts(*sets, 1000, 1001)
    short = enumerate_thin_primes(tf_identity, pt20, 1000)
    with pytest.raises(LimitMismatch):
        rep_counts(short, tps_identity, tps_identity, 1001, 1001)


@pytest.mark.parametrize("cutoff", [100, 101, 1000, 10 ** 4])
def test_singular_series_sieved_once_is_bitwise(pt20, cutoff):
    # 10807 = 101 * 107 and 11021 = 103 * 107 iterate their set of primes
    # out of ascending order; 1009091 = 97 * 101 * 103; one target and
    # three, where most primes divide none
    for N, N_end in ((3, 1001), (10801, 11101), (15001, 15031),
                     (44995, 45095), (999901, 1000001), (1009001, 1009201),
                     (10807, 10807), (199999, 200003)):
        got = singular_series(pt20, N, N_end, cutoff).tolist()
        want = [oracles.singular_series(n, cutoff)[1]
                for n in range(N, N_end + 1, 2)]
        assert got == want


def _body(argv, tmp_path):
    out = tmp_path / "g.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]


def test_cli_range_body_is_the_single_bodies(tmp_path):
    gammas = ["--gammas", "1,0.99,0.95"]
    sweep = _body(["goldbach", *gammas, "--N", "3001", "--N-end", "3041"], tmp_path)
    singles = [_body(["goldbach", *gammas, "--N", str(n)], tmp_path)
               for n in range(3001, 3042, 2)]
    assert sweep[0] == singles[0][0]
    assert sweep[1:] == [row for body in singles for row in body[1:]]


def test_cli_enumerates_each_distinct_gamma_once(tmp_path, pt20, monkeypatch):
    N, N_end = 2001, 2041
    sets = [enumerate_thin_primes(make_thin_function("power", gamma=1.0),
                                  pt20, N_end) for _ in range(3)]
    want = [",".join(map(str, row))
            for row in goldbach_reports([s.tf for s in sets], sets, N, N_end,
                                        pt20)]
    calls = []
    real = cli.enumerate_thin_primes

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, "enumerate_thin_primes", spy)
    body = _body(["goldbach", "--gammas", "1,1,1", "--N", str(N),
                  "--N-end", str(N_end)], tmp_path)
    assert len(calls) == 1
    assert body[1:] == want
