"""Kernels, convolution, maximal operators and the weighted comparison."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinprimes.averages import (
    SparseSignal,
    _running_sums,
    abel_summation,
    build_kernel,
    lr_norm,
    maximal_function,
    weighted_maximal_compare,
)
from thinprimes.errors import (
    EmptySet,
    HypothesisViolated,
    LimitTooLarge,
    ParameterOutOfRange,
)
from thinprimes.expsum import IntPolynomial, formlem_decay
from thinprimes.sieve import enumerate_thin_primes

from oracles import abel_summation_per_n, von_mangoldt

W_LIN = IntPolynomial([0, 1])
W_SQ = IntPolynomial([0, 0, 1])


def values(f):
    """{n: f(n)} over the support of f, in ascending n."""
    return {n: f[n] for n in f.support()}


def random_signal(rng, size, span, nonneg=True):
    idx = rng.choice(span, size=size, replace=False)
    vals = rng.random(size) + (0.0 if nonneg else -0.5)
    return SparseSignal({int(i): float(v) for i, v in zip(idx, vals) if v != 0})


def test_kernel_identity_n10(tps_identity, pt20):
    k = build_kernel("Kh", tps_identity, pt20, W_LIN, 10)
    assert k.atoms == {2: 0.25, 3: 0.25, 5: 0.25, 7: 0.25}
    assert k.mass == pytest.approx(1.0, abs=1e-12)


def test_kernel_square_image(tps_identity, pt20):
    k = build_kernel("Kh", tps_identity, pt20, W_SQ, 10)
    assert k.atoms == {4: 0.25, 9: 0.25, 25: 0.25, 49: 0.25}


def test_k1_equals_k2_identity(tps_identity, pt20):
    for n in (10, 1000, 2 ** 14):
        a = build_kernel("K1", tps_identity, pt20, W_LIN, n)
        b = build_kernel("K2", tps_identity, pt20, W_LIN, n)
        assert a.atoms == b.atoms


def test_kernel_masses(tps95, pt20):
    for n in (2 ** 14, 2 ** 16, 2 ** 18, 2 ** 20):
        m1 = build_kernel("K1", tps95, pt20, W_LIN, n).mass
        m2 = build_kernel("K2", tps95, pt20, W_LIN, n).mass
        assert 0.5 < m1 < 1.5 and 0.5 < m2 < 1.5
    d1 = [abs(build_kernel("K1", tps95, pt20, W_LIN, n).mass - 1.0)
          for n in (2 ** 14, 2 ** 17, 2 ** 20)]
    d2 = [abs(build_kernel("K2", tps95, pt20, W_LIN, n).mass - 1.0)
          for n in (2 ** 14, 2 ** 17, 2 ** 20)]
    assert d1[0] > d1[-1] and d2[0] > d2[-1]


def test_kernel_atoms_accumulate(tps_identity, pt20):
    even = IntPolynomial([0, 0, 2])    # W(p) = 2p^2, collisions impossible,
    k = build_kernel("Kh", tps_identity, pt20, even, 10)
    assert k.mass == pytest.approx(1.0, abs=1e-12)
    square = IntPolynomial([4, -4, 1])  # (p-2)^2: W(1)=W(3) would collide
    k2 = build_kernel("Kh", tps_identity, pt20, square, 10)
    assert k2.mass == pytest.approx(1.0, abs=1e-12)


def test_empty_kernel(pt20):
    from thinprimes.thinfn import make_thin_function
    tf = make_thin_function("h3", Cc=1.0)   # smallest member is 3
    tps = enumerate_thin_primes(tf, pt20, 100)
    with pytest.raises(EmptySet):
        build_kernel("Kh", tps, pt20, W_LIN, 2)


def test_hull_guard_raises_before_allocating(tps95, pt20):
    # W = k^3 up to 2^20: a 2^60-entry hull, far past MAX_HULL_BYTES
    cube = IntPolynomial([0, 0, 0, 1])
    with pytest.raises(LimitTooLarge, match="kernel K1"):
        build_kernel("K1", tps95, pt20, cube, 1 << 20)
    with pytest.raises(LimitTooLarge, match="running sum"):
        maximal_function(SparseSignal({0: 1.0}), tps95, cube, 1 << 20)


def test_hull_guard_counts_the_layer_pairs(tps_identity):
    # a 1.1M-entry hull, but about 38k atoms in the last layer times 2^16
    # nonzeros: the (atom, nonzero) pairs alone pass MAX_HULL_BYTES
    f = SparseSignal.from_dense(np.ones(1 << 16))
    with pytest.raises(LimitTooLarge, match="running sum"):
        maximal_function(f, tps_identity, W_LIN, 1 << 20)


def test_positions_beyond_int64_raise_limit_too_large(tps95, pt20):
    # W = k^7 at p near 1024 is about 2^70: no int64 position exists
    w7 = IntPolynomial([0] * 7 + [1])
    with pytest.raises(LimitTooLarge, match="int64"):
        build_kernel("Kh", tps95, pt20, w7, 1024)
    with pytest.raises(LimitTooLarge, match="int64"):
        maximal_function(SparseSignal({0: 1.0}), tps95, w7, 1024)
    with pytest.raises(LimitTooLarge, match="int64"):
        weighted_maximal_compare(tps95.primes, lambda x: 1.0, lambda x: 1.0,
                                 SparseSignal({0: 1.0}), w7, [1024])


def test_signal_hulls_checked_before_allocating():
    with pytest.raises(LimitTooLarge, match="signal needs"):
        SparseSignal({0: 1.0, 2 ** 40: 1.0})
    with pytest.raises(LimitTooLarge, match="signal sum"):
        SparseSignal({0: 1.0}) + SparseSignal({2 ** 40: 1.0})


def kh_convolve(tps, N, f):
    """K_{Kh,N} * f at linear W as {x: value}, from the running sum that
    maximal_function reads at its level N."""
    ps, _ = tps.prefix(N)
    weights = [np.ones(len(ps)) / len(ps)]
    *_, (_, _, _, (acc,), _) = _running_sums(f, ps, ps, weights, [N])
    return values(SparseSignal.from_dense(acc, f.offset + int(ps.min())))


def test_convolution_identity(tps_identity, pt20):
    k = build_kernel("Kh", tps_identity, pt20, W_LIN, 10)
    out = kh_convolve(tps_identity, 10, SparseSignal({0: 1.0}))
    assert out == {a: complex(w) for a, w in k.atoms.items()}


def test_convolution_linearity(tps_identity):
    out = kh_convolve(tps_identity, 10, SparseSignal({0: 1.0, 1: 1.0}))
    shifted = kh_convolve(tps_identity, 10, SparseSignal({1: 1.0}))
    base = kh_convolve(tps_identity, 10, SparseSignal({0: 1.0}))
    assert out == values(SparseSignal(base) + SparseSignal(shifted))


def test_convolution_shift(tps_identity):
    out = kh_convolve(tps_identity, 10, SparseSignal({2: 1.0}))
    assert sorted(out) == [4, 5, 7, 9]
    assert all(v == pytest.approx(0.25) for v in out.values())


def test_lr_norm_trivia():
    assert lr_norm(SparseSignal({0: 1.0}), 1) == 1.0
    assert lr_norm(SparseSignal({0: 1.0}), 2) == 1.0
    assert lr_norm(SparseSignal({0: 1.0}), math.inf) == 1.0
    assert lr_norm(SparseSignal({0: 1, 1: 1}), 2) == pytest.approx(math.sqrt(2))
    with pytest.raises(ParameterOutOfRange):
        lr_norm(SparseSignal({0: 1.0}), 0.5)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(-50, 50),
                       st.floats(min_value=-5, max_value=5), max_size=20))
def test_lr_norm_nesting(d):
    f = SparseSignal(d)
    assert lr_norm(f, math.inf) <= lr_norm(f, 2) + 1e-12
    assert lr_norm(f, 2) <= lr_norm(f, 1) + 1e-12


def test_maximal_dominates_each_level(tps95, pt20):
    rng = np.random.default_rng(0)
    f = random_signal(rng, 64, 512)
    mf = maximal_function(f, tps95, W_LIN, 2 ** 12)
    for n in (2 ** 10, 2 ** 12):
        k = build_kernel("Kh", tps95, pt20, W_LIN, n)
        cv = dict_convolve(k.atoms, DictSignal(values(f)))
        assert all(mf[x].real >= abs(v) - 1e-12 for x, v in cv.data.items())


def test_maximal_delta(tps_identity):
    mf = maximal_function(SparseSignal({0: 1.0}), tps_identity, W_LIN, 16)
    # max over dyadic N of the kernel weight at each atom
    assert mf[2].real == pytest.approx(1.0)          # N=2: single atom
    assert mf[13].real == pytest.approx(1.0 / 6.0)   # only present at N=16


def test_maximal_invariants(tps95):
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = random_signal(rng, 40, 256)
        g = random_signal(rng, 40, 256)
        mf = maximal_function(f, tps95, W_LIN, 2 ** 10)
        mg = maximal_function(g, tps95, W_LIN, 2 ** 10)
        mfg = maximal_function(f + g, tps95, W_LIN, 2 ** 10)
        for x in mfg.support():
            assert mfg[x].real <= mf[x].real + mg[x].real + 1e-10
        c = 2.5
        mcf = maximal_function(f.scale(c), tps95, W_LIN, 2 ** 10)
        for x in mcf.support():
            assert mcf[x].real == pytest.approx(c * mf[x].real, rel=1e-12)
        # monotonicity: f <= f + g pointwise for nonnegative g
        for x in mf.support():
            assert mf[x].real <= mfg[x].real + 1e-10


def test_maximal_peak_memory(tps95):
    # quadratic W at N = 2^11 over 256 of 1024 points: the hull has 4158535
    # entries, and the result (complex128) with the sup (float64) take
    # 95.2 MiB; the running sum, 31.7 MiB more, is freed before the result
    # is built
    rng = np.random.default_rng(5)
    f = SparseSignal({int(i): 1.0 for i in rng.choice(1024, 256, replace=False)})
    tracemalloc.start()
    try:
        mf = maximal_function(f, tps95, W_SQ, 2 ** 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mf.values.size == 4158535
    assert peak <= 100 * 2 ** 20


def test_maximal_l2_ratio(tps95):
    rng = np.random.default_rng(9)
    f = SparseSignal({int(i): 1.0 for i in rng.choice(2 ** 10, 256,
                                                      replace=False)})
    mf = maximal_function(f, tps95, W_LIN, 2 ** 14)
    assert lr_norm(mf, 2) / lr_norm(f, 2) <= 10.0


def test_lr_ratio_stability_under_support_doubling(tps95):
    """Measured operator ratios grow by < 2x when support doubles;
    r = 1 is reported only (no boundedness claim at the endpoint)."""
    rng = np.random.default_rng(31)

    def sup_ratio(r, logs):
        best = 0.0
        for _ in range(20):
            idx = rng.choice(1 << logs, size=(1 << logs) // 4, replace=False)
            f = SparseSignal({int(i): 1.0 for i in idx})
            mf = maximal_function(f, tps95, W_LIN, 2 ** 12)
            best = max(best, lr_norm(mf, r) / lr_norm(f, r))
        return best

    for r in (1.5, 2.0, 4.0):
        small, large = sup_ratio(r, 8), sup_ratio(r, 9)
        assert large < 2.0 * small
    r1_small, r1_large = sup_ratio(1.0, 8), sup_ratio(1.0, 9)
    print(f"r=1 measured ratios (reported, not asserted): "
          f"{r1_small:.3f} -> {r1_large:.3f}")


def test_abel_trivial():
    ns = np.arange(1, 11, dtype=np.float64)
    lhs, rhs, resid = abel_summation(np.zeros(10), ns * ns)
    assert lhs == rhs == 0.0
    lhs, rhs, resid = abel_summation(np.ones(10), ns)
    assert lhs == pytest.approx(55.0)
    assert resid <= 1e-10
    assert abel_summation(np.empty(0), np.empty(0)) == (0.0, 0.0, 0.0)


def test_abel_lambda_over_log(pt20):
    N = 10 ** 4
    lhs, rhs, resid = abel_summation(pt20.lambda_array(N)[3:],
                                     1.0 / np.log(np.arange(3, N + 1)))
    assert resid <= 1e-8 * abs(lhs)


@pytest.mark.parametrize("N", [3, 4, 1000, 1 << 14])
def test_abel_arrays_are_the_per_n_route(pt20, N):
    """The abel command's arrays give the bits of one call of Lambda and
    1/log per n."""
    got = abel_summation(pt20.lambda_array(N)[3:],
                         1.0 / np.log(np.arange(3, N + 1)))
    assert got == abel_summation_per_n(lambda n: von_mangoldt(pt20, n),
                                       lambda x: 1.0 / math.log(x), 2, N)


def test_weighted_compare_equal_weights(tps95, pt20):
    rng = np.random.default_rng(1)
    f = random_signal(rng, 50, 300)
    w = lambda x: 1.0 + 1.0 / x
    rmax, csup = weighted_maximal_compare(tps95.primes, w, w, f, W_LIN,
                                          [2 ** j for j in range(2, 11)])
    assert rmax == pytest.approx(1.0, abs=1e-9)
    assert csup == pytest.approx(1.0, abs=1e-12)


def test_weighted_compare_paper_instantiation(tf95, tps95, pt20):
    weights = {int(p): float(w) for p, w in zip(tps95.primes, tps95.weights)}
    w1 = lambda x: weights[x]          # log(p)/phi'(p)
    w2 = lambda x: 1.0
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = random_signal(rng, 60, 400)
        rmax, csup = weighted_maximal_compare(
            tps95.primes, w1, w2, f, W_LIN, [2 ** j for j in range(2, 13)])
        assert rmax <= 1.0 + 2.0 * csup + 1e-9


def test_weighted_compare_decreasing_case(tps_identity, pt20):
    rng = np.random.default_rng(3)
    f = random_signal(rng, 60, 400)
    rmax, csup = weighted_maximal_compare(
        tps_identity.primes, lambda x: float(x), lambda x: 1.0, f, W_LIN,
        [2 ** j for j in range(2, 12)])
    # decreasing ratio over a dyadic range: domination up to the mass
    # doubling of W1 (measured constant, not asserted sharp)
    assert rmax <= 4.0
    assert csup <= 1.0 + 1e-12


def test_weighted_compare_increasing_case_full_range(tps_identity, pt20):
    # hypothesis (ii) over Z = all integers: the 1 + 2 C_sup bound is exact
    rng = np.random.default_rng(8)
    f = random_signal(rng, 40, 200)
    rmax, csup = weighted_maximal_compare(
        tps_identity.primes, lambda x: 1.0, lambda x: math.log(x), f, W_LIN,
        list(range(3, 1025)))
    assert rmax <= 1.0 + 2.0 * csup + 1e-9


def test_weighted_compare_rejects_nonmonotone(tps_identity, pt20):
    f = SparseSignal({0: 1.0})
    wobble = lambda x: 2.0 + math.sin(x)
    with pytest.raises(HypothesisViolated):
        weighted_maximal_compare(tps_identity.primes, lambda x: 1.0, wobble,
                                 f, W_LIN, [16, 64, 256])


def test_weighted_compare_domination_failure_is_typed():
    # the bound ratio_max <= 1 + 2 C_sup holds for every nonnegative f; a
    # signed signal that passes the sign check breaks it, and the re-check
    # must raise inside the ThinPrimesError hierarchy
    class Unchecked(SparseSignal):
        def is_nonnegative(self):
            return True
    with pytest.raises(HypothesisViolated, match="domination failed"):
        weighted_maximal_compare([2, 3, 5, 7, 11, 13], lambda x: 1.0,
                                 lambda x: float(x * x),
                                 Unchecked({0: 1.0, 1: -0.99}), W_LIN, [16])


def test_weighted_compare_rejects_signed_signal(tps_identity, pt20):
    with pytest.raises(ParameterOutOfRange):
        weighted_maximal_compare(tps_identity.primes, lambda x: 1.0,
                                 lambda x: 1.0, SparseSignal({0: -1.0}),
                                 W_LIN, [16])


def kernel_gaps(tps, pt, N):
    """sup over xi = j/64 of |K1^(xi) - K2^(xi)| at dyadic n <= N: the
    gap_over_N column of the decay profile."""
    prof = formlem_decay(pt, W_LIN, 64, N, tps=tps)
    return {n: norm for n, _, norm in prof.entries}


def test_kernel_gap_identity_zero(tps_identity, pt20):
    assert kernel_gaps(tps_identity, pt20, 2 ** 12)[2 ** 12] == 0.0


def test_kernel_gap_trend(tps99, pt20):
    gaps = kernel_gaps(tps99, pt20, 2 ** 16)
    small, large = gaps[2 ** 12], gaps[2 ** 16]
    assert large < 1.0
    assert large < small


# -- differential tests: the dense storage against the former dict code ----
# The oracles below are the dict-based SparseSignal, the per-atom kernel
# loop, the double-loop convolution, the former layer loop of
# maximal_function and weighted_maximal_compare (np.add.at and np.convolve),
# the dict-based lr_norm that the array storage replaced, and a pure-Python
# loop that sums the running sums in the order _running_sums documents.

class DictSignal:
    def __init__(self, data=None):
        self.data = {int(k): complex(v) for k, v in (data or {}).items()
                     if v != 0}

    @classmethod
    def from_dense(cls, arr, offset=0):
        return cls({int(i) + offset: arr[i] for i in np.flatnonzero(arr)})

    def support(self):
        return sorted(self.data)

    def __add__(self, other):
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0j) + v
        return DictSignal(out)

    def scale(self, c):
        return DictSignal({k: c * v for k, v in self.data.items()})

    def is_nonnegative(self):
        return all(v.imag == 0 and v.real >= 0 for v in self.data.values())

    def dense(self):
        lo, hi = min(self.data), max(self.data)
        arr = np.zeros(hi - lo + 1, dtype=np.complex128)
        for k, v in self.data.items():
            arr[k - lo] = v
        return arr, lo


def dict_lr_norm(f, r):
    if not f.data:
        return 0.0
    mags = np.abs(np.fromiter(f.data.values(), dtype=np.complex128))
    if r == math.inf:
        return float(mags.max())
    return float(np.sum(mags ** r) ** (1.0 / r))


def dict_kernel_atoms(ps, ws, W):
    atoms = {}
    for pos, w in zip(W.eval_vec(ps), ws):
        atoms[int(pos)] = atoms.get(int(pos), 0.0) + float(w)
    return atoms, math.fsum(atoms.values())


def dict_convolve(atoms, f):
    out = {}
    for a, wa in atoms.items():
        for x, v in f.data.items():
            out[x + a] = out.get(x + a, 0j) + wa * v
    return DictSignal(out)


def add_at_running_sums(fdense, positions, keys, weights, cutoffs):
    """The former layer loop: np.add.at into zeroed layers, per cutoff."""
    alo = int(positions.min())
    size = len(fdense) + int(positions.max()) - alo
    accs = [np.zeros(size, dtype=fdense.dtype) for _ in weights]
    bests, prev = [np.zeros(size) for _ in weights], 0
    for N in cutoffs:
        hi = int(np.searchsorted(keys, N, side="right"))
        if hi > prev:
            pos = positions[prev:hi]
            llo, lhi = int(pos.min()), int(pos.max())
            for acc, w in zip(accs, weights):
                layer = np.zeros(lhi - llo + 1)
                np.add.at(layer, pos - llo, w[prev:hi])
                conv = np.convolve(fdense, layer)
                acc[llo - alo:llo - alo + len(conv)] += conv
            prev = hi
        yield N, prev, accs, bests, alo


def dict_maximal(f, ps, ws, W, N_max):
    """The former maximal_function, ending in the dict of from_dense."""
    fdense, flo = f.dense()
    positions = np.asarray(W.eval_vec(ps), dtype=np.int64)
    cutoffs = [2 ** j for j in range(1, N_max.bit_length())]
    for _, k, (acc,), (best,), alo in add_at_running_sums(
            fdense, positions, ps, [ws], cutoffs):
        if k:
            np.maximum(best, np.abs(acc) / float(k), out=best)
    return DictSignal.from_dense(best, flo + alo)


def pair_order_sums(f, positions, keys, weights, cutoffs):
    """Running sums in _running_sums' documented order, in Python floats:
    per layer of new atoms, atoms ascending and then f's nonzeros ascending
    are summed from 0.0 into a layer total, which is then added to the
    running sum.  Yields (N, k, accs), accs[j] = {x: [real, imag]}."""
    items = list(values(f).items())
    accs, prev = [{} for _ in weights], 0
    for N in cutoffs:
        hi = int(np.searchsorted(keys, N, side="right"))
        for acc, w in zip(accs, weights):
            layer = {}
            for i in range(prev, hi):
                for n, v in items:
                    x = int(positions[i]) + n
                    part = layer.setdefault(x, [0.0, 0.0])
                    part[0] += float(w[i]) * v.real
                    part[1] += float(w[i]) * v.imag
            for x, (re, im) in layer.items():
                part = acc.setdefault(x, [0.0, 0.0])
                part[0] += re
                part[1] += im
        prev = max(prev, hi)
        yield N, prev, accs


def pair_order_maximal(f, ps, W, N_max):
    """maximal_function of a real f over pair_order_sums, as a DictSignal:
    the sup over every level of |sum| / k at every point it has reached."""
    positions = np.asarray(W.eval_vec(ps), dtype=np.int64)
    cutoffs = [2 ** j for j in range(1, N_max.bit_length())]
    best = {}
    for _, k, (acc,) in pair_order_sums(f, positions, ps, [np.ones(len(ps))],
                                        cutoffs):
        for x, (re, _) in acc.items():   # empty while k = 0
            best[x] = max(best.get(x, 0.0), abs(re) / float(k))
    return DictSignal(dict(sorted(best.items())))


def dict_signals(max_size=20):
    parts = st.floats(-5, 5) | st.just(0.0)
    return st.dictionaries(st.integers(-60, 60),
                           st.builds(complex, parts, parts) | parts,
                           max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(dict_signals(), dict_signals(), st.floats(-3, 3),
       st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)))
def test_signal_matches_dict_oracle(d1, d2, a, c):
    f, g = SparseSignal(d1), SparseSignal(d2)
    fo, go = DictSignal(d1), DictSignal(d2)
    assert list(values(f).items()) == sorted(fo.data.items(),
                                             key=lambda kv: kv[0])
    assert f.support() == fo.support() and len(f) == len(fo.data)
    assert [f[n] for n in range(-70, 71)] == \
        [fo.data.get(n, 0j) for n in range(-70, 71)]
    assert values(f + g) == (fo + go).data
    assert values(g + f) == (go + fo).data
    assert values(f.scale(a)) == fo.scale(a).data
    assert values(f.scale(c)) == fo.scale(c).data
    assert f.is_nonnegative() == fo.is_nonnegative()
    if fo.data:
        arr_o, lo_o = fo.dense()
        assert f.offset == lo_o and np.array_equal(f.values, arr_o)
    else:
        assert f.values.size == 0


def test_atoms_are_a_read_only_view(tps_identity, pt20):
    k = build_kernel("Kh", tps_identity, pt20, IntPolynomial([10, -1]), 10)
    assert list(k.atoms) == [3, 5, 7, 8]
    with pytest.raises(TypeError):
        k.atoms[0] = 1.0
    assert SparseSignal().support() == [] and SparseSignal({3: 0.0}).support() == []
    assert SparseSignal.from_dense(np.array([0.0, 0.0])).support() == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 5) | st.just(0.0), min_size=1, max_size=300),
       st.integers(-1000, 1000))
def test_lr_norm_of_from_dense_is_bit_equal(vals, offset):
    arr = np.array(vals)
    f, fo = SparseSignal.from_dense(arr, offset), DictSignal.from_dense(arr, offset)
    for r in (1, 1.5, 2, 3, 4, math.inf):
        assert lr_norm(f, r) == dict_lr_norm(fo, r)


# (p-2)(p-5)(p-11) puts three primes on one atom, where the order of the
# additions shows in the last bits; p^2 - 10p puts 3 and 7 on one atom
@pytest.mark.parametrize("coeffs", [[0, 1], [0, 0, 1], [0, -10, 1], [3, -2],
                                    [0, 0, 2], [-110, 87, -18, 1]])
@pytest.mark.parametrize("variant", ["Kh", "K1", "K2"])
def test_kernel_atoms_and_mass_bit_equal(tps95, pt20, variant, coeffs):
    W = IntPolynomial(coeffs)
    # the weights are dense over the hull of W(p), about n^deg entries
    sizes = {2: (10, 97, 2 ** 10, 2 ** 13), 3: (10, 97, 2 ** 8), 4: (10, 97)}
    for n in sizes[len(coeffs)]:
        if variant == "Kh":
            ps, _ = tps95.prefix(n)
            ws = np.ones(len(ps)) / len(ps)
        elif variant == "K1":
            ps, ws = tps95.prefix(n)
            ws = ws / n
        else:
            ps = pt20.primes_in(1, n)
            ws = np.log(ps.astype(np.float64)) / n
        k = build_kernel(variant, tps95, pt20, W, n)
        atoms, mass = dict_kernel_atoms(ps, ws, W)
        assert k.atoms == atoms and list(k.atoms) == sorted(atoms)
        assert k.mass == mass


# 0/1 signals give integer sums, equal to the former np.convolve pipeline
# in any order; the random values of odd seeds take the pair order.
# (p-2)(p-5)(p-11) puts three primes on one atom.
@pytest.mark.parametrize("coeffs", [[0, 1], [3, -2], [0, 1, 1], [0, 0, 0, 1],
                                    [-110, 87, -18, 1]])
def test_maximal_ratio_matches_dict_pipeline(tps95, coeffs):
    W = IntPolynomial(coeffs)
    n = {2: 2 ** 10, 3: 2 ** 7, 4: 2 ** 5}[len(coeffs)]
    ps, _ = tps95.prefix(n)
    ws = np.ones(len(ps))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        idx = rng.choice(256, size=64, replace=False)
        d = {int(i): 1.0 for i in idx}
        if seed % 2:
            d = {i: float(v) for i, v in zip(d, rng.random(64))}
        f, fo = SparseSignal(d), DictSignal(d)
        mf = maximal_function(f, tps95, W, n)
        if seed % 2 == 0:
            mo = dict_maximal(fo, ps, ws, W, n)
        else:
            mo = pair_order_maximal(f, ps, W, n)
        assert list(values(mf).items()) == list(mo.data.items())
        for r in (1.0, 1.5, 2.0, 4.0, math.inf):
            if seed % 2 == 0:
                assert lr_norm(mf, r) / lr_norm(f, r) == \
                    dict_lr_norm(mo, r) / dict_lr_norm(fo, r)
            else:
                assert lr_norm(mf, r) == dict_lr_norm(mo, r)


# (p-17)(p-19)(p-29) puts three primes of one dyadic layer on one atom,
# where the order of the log-weight additions shows in the last bits
@pytest.mark.parametrize("coeffs", [[0, 1], [3, -2], [0, 0, 1],
                                    [-9367, 1367, -65, 1]])
def test_weighted_compare_matches_add_at_loop(tps95, pt20, coeffs):
    W = IntPolynomial(coeffs)
    Z = [2 ** j for j in range(2, {2: 11, 3: 9, 4: 7}[len(coeffs)])]
    S = tps95.primes[tps95.primes <= Z[-1]]
    w1v = np.ones(len(S))
    w2v = np.log(S.astype(np.float64))
    W1c, W2c = np.cumsum(w1v), np.cumsum(w2v)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        f = random_signal(rng, 60, 400)
        rmax, _ = weighted_maximal_compare(S, lambda x: 1.0, math.log, f, W, Z)
        positions = np.asarray(W.eval_vec(S), dtype=np.int64)
        b1, b2 = {}, {}
        for _, k, (a1, a2) in pair_order_sums(f, positions, S, [w1v, w2v], Z):
            for x in a1:   # empty while k = 0
                b1[x] = max(b1.get(x, 0.0), a1[x][0] / W1c[k - 1])
                b2[x] = max(b2.get(x, 0.0), a2[x][0] / W2c[k - 1])
        assert rmax == max(b2[x] / b1[x] for x in b1 if b1[x] > 0)


@pytest.mark.parametrize("coeffs", [[0, 1], [3, -2], [-9367, 1367, -65, 1]])
def test_running_sums_match_add_at_loop(tps95, coeffs):
    W = IntPolynomial(coeffs)
    S = tps95.primes[tps95.primes <= 64]
    positions = np.asarray(W.eval_vec(S), dtype=np.int64)
    weights = [np.log(S.astype(np.float64)), np.ones(len(S)) / 3]
    cutoffs = [2 ** j for j in range(1, 7)]
    rng = np.random.default_rng(4)
    for fdense in (rng.random(50), rng.random(50) + 1j * rng.random(50)):
        f = SparseSignal.from_dense(fdense, -7)
        x0 = f.offset + int(positions.min())
        steps = zip(_running_sums(f, positions, S, weights, cutoffs),
                    pair_order_sums(f, positions, S, weights, cutoffs))
        before = None
        for (N, k, win, accs, sups), (N_o, k_o, accs_o) in steps:
            assert (N, k) == (N_o, k_o)
            for a, b in zip(accs, accs_o):
                assert a.dtype == (np.complex128 if fdense.dtype.kind == "c"
                                   else np.float64)
                want = np.zeros(a.size, dtype=a.dtype)
                for x, (re, im) in b.items():
                    want[x - x0] = complex(re, im) if a.dtype.kind == "c" else re
                assert np.array_equal(a, want)
            # the sums change only inside the layer's window
            outside = np.ones(accs[0].size, dtype=bool)
            outside[win] = False
            if before is not None:
                for a, a_prev in zip(accs, before):
                    assert np.array_equal(a[outside], a_prev[outside])
            before = [a.copy() for a in accs]
            assert all(not s.any() for s in sups)


# W of degree 1 to 3, with repeated atoms and negative positions drawn too
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=4)
       .filter(lambda c: c[-1] != 0),
       st.sets(st.integers(-40, 40), min_size=1, max_size=30),
       st.sampled_from([2, 4, 8, 16, 32]))
def test_maximal_of_indicators_matches_convolve_pipeline(tps95, coeffs, idx, n):
    W = IntPolynomial(coeffs)
    ps, _ = tps95.prefix(n)
    d = {i: 1.0 for i in idx}
    if not len(ps):
        with pytest.raises(EmptySet):
            maximal_function(SparseSignal(d), tps95, W, n)
        return
    mf = maximal_function(SparseSignal(d), tps95, W, n)
    mo = dict_maximal(DictSignal(d), ps, np.ones(len(ps)), W, n)
    assert list(values(mf).items()) == list(mo.data.items())
