"""Exponential sums: phase exactness, the four-way split, and the bounds."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinprimes import expsum
from thinprimes._num import (
    e2pi,
    frac_mul_exact,
    frac_mul_int_vec,
    frac_mul_vec,
)
from thinprimes.errors import (
    HypothesisViolated,
    ParameterOutOfRange,
    RangeBeyondTable,
    RegimeViolation,
)
from thinprimes.expsum import (
    IntPolynomial,
    PhaseSpec,
    VaughanSplit,
    bilinear_sum_bound,
    default_v,
    formlem_decay,
    lambda_exp_sum,
    phase_fracs,
    pi_v_array,
    vaughan_split,
    vdc_bound_check,
    xi_v_array,
)
from thinprimes.sieve import enumerate_thin_primes
from thinprimes.thinfn import make_thin_function

from oracles import fsum_complex, mobius, von_mangoldt, weighted_prime_sums

W_LIN = IntPolynomial([0, 1])
W_SQ = IntPolynomial([0, 0, 1])


def test_polynomial_validation():
    with pytest.raises(ParameterOutOfRange):
        IntPolynomial([5])
    with pytest.raises(ParameterOutOfRange):
        IntPolynomial([1, 0])


def test_polynomial_exact_bigints():
    w = IntPolynomial([3, -2, 0, 7])
    assert w(10 ** 7) == 3 - 2 * 10 ** 7 + 7 * 10 ** 21
    vals = w.eval_vec(np.array([10 ** 7], dtype=np.int64))
    assert list(vals)[0] == w(10 ** 7)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(-10 ** 18, 10 ** 18))
def test_frac_mul_exact_matches_fractions(xi, w):
    expect = Fraction(xi) * w
    expect = expect - math.floor(expect)
    assert frac_mul_exact(xi, w) == pytest.approx(float(expect), abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.lists(st.integers(-2 ** 50, 2 ** 50), min_size=1, max_size=20))
def test_frac_mul_vec_matches_exact(xi, ws):
    arr = np.array(ws, dtype=np.int64)
    fast = frac_mul_int_vec(xi, arr)
    slow = np.array([frac_mul_exact(xi, int(w)) for w in ws])
    assert np.allclose((fast - slow + 0.5) % 1.0 - 0.5, 0.0, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.lists(st.integers(-2 ** 53, 2 ** 53), min_size=1, max_size=20))
def test_frac_mul_int_vec_routes_each_entry_alone(xi, ws):
    """Entries straddling 2^52: each value is the one it gets on its own."""
    ws = ws + [2 ** 52 - 1, 2 ** 52, -(2 ** 52)]
    alone = [frac_mul_vec(xi, np.array([float(w)]))[0] if abs(w) < 2 ** 52
             else frac_mul_exact(xi, w) for w in ws]
    assert frac_mul_int_vec(xi, np.array(ws, dtype=np.int64)).tolist() == alone
    big = np.array(ws + [2 ** 70 + 3], dtype=object)
    assert frac_mul_int_vec(xi, big).tolist() == alone + [frac_mul_exact(xi, 2 ** 70 + 3)]


def test_phase_spec_validation(tf95):
    with pytest.raises(ParameterOutOfRange):
        PhaseSpec(1.5, W_LIN, 0, tf95, 10, 20)
    with pytest.raises(ParameterOutOfRange):
        PhaseSpec(0.5, W_LIN, 0, tf95, 10, 30)


def test_lambda_sum_zero_phase(pt20, tf_identity):
    s = lambda_exp_sum(pt20, PhaseSpec(0.0, W_LIN, 0, tf_identity, 10, 20))
    expect = math.log(11) + math.log(13) + math.log(2) + math.log(17) + math.log(19)
    assert s.imag == 0.0
    assert s.real == pytest.approx(expect, rel=1e-14)


def test_lambda_sum_two_terms(pt20, tf_identity):
    s = lambda_exp_sum(pt20, PhaseSpec(0.5, W_LIN, 0, tf_identity, 2, 4))
    assert s.real == pytest.approx(-math.log(3) + math.log(2), abs=1e-13)
    assert abs(s.imag) < 1e-13


def test_lambda_sum_against_mpmath_reference(pt20, tf95):
    """High-precision re-summation of the same terms, 40 digits."""
    spec = PhaseSpec(0.3, W_SQ, 2, tf95, 2 ** 12, 2 ** 13)
    s = lambda_exp_sum(pt20, spec)
    ks, lams = pt20.prime_powers_in(2 ** 12, 2 ** 13)
    with mp.workdps(40):
        total = mp.mpc(0)
        g = mp.mpf(0.95)   # phi(k) = k^gamma for the power family
        for k, lam in zip(ks, lams):
            phase = mp.mpf(0.3) * int(k) ** 2 + 2 * mp.mpf(int(k)) ** g
            total += mp.mpf(lam) * mp.expjpi(2 * mp.frac(phase))
        ref = complex(total)
    assert abs(s - ref) < 1e-9


def test_lambda_sum_range_guard(pt20, tf95):
    with pytest.raises(RangeBeyondTable):
        lambda_exp_sum(pt20, PhaseSpec(0.1, W_LIN, 0, tf95, 2 ** 20, 2 ** 21))


def test_extended_precision_m_phi_path(tf95):
    """Huge m pushes m*phi past 2^40: the escalated path must match a
    50-digit oracle where the plain float product cannot."""
    from thinprimes.expsum import _frac_m_phi
    m = 1 << 41
    ks = np.array([1009, 4001, 65537], dtype=np.int64)
    got = _frac_m_phi(tf95, m, ks)
    with mp.workdps(50):
        g = mp.mpf(0.95)
        for i, k in enumerate(ks):
            v = mp.mpf(m) * mp.mpf(int(k)) ** g
            expect = float(v - mp.floor(v))
            assert abs(got[i] - expect) < 1e-9 or \
                abs(abs(got[i] - expect) - 1.0) < 1e-9


def test_huge_polynomial_phase_exact(tf_identity):
    """|W(k)| beyond 2^52 must route through exact integer reduction."""
    from thinprimes.expsum import phase_fracs
    W = IntPolynomial([0, 1 << 40, 0, 1])
    ks = np.array([300000, 2 ** 21 - 1], dtype=np.int64)
    got = phase_fracs(0.637, W, 0, tf_identity, ks)
    for i, k in enumerate(ks):
        expect = Fraction(0.637) * W(int(k))
        expect = float(expect - math.floor(expect))
        assert abs(got[i] - expect) < 1e-12 or \
            abs(abs(got[i] - expect) - 1.0) < 1e-12


def test_pi_xi_trivial_values(pt20):
    assert pi_v_array(pt20, 5, 10)[1] == 0.0
    assert xi_v_array(pt20, 1, 10)[1] == 0.0
    assert pi_v_array(pt20, 2, 8)[4] == pytest.approx(-math.log(2))
    assert xi_v_array(pt20, 1, 4)[2] == -1.0


def test_pi_v_pointwise_oracle(pt20):
    """Direct double loop over the defining convolution."""
    v = 7.0
    arr = pi_v_array(pt20, v, 60)
    for l in range(1, 61):
        total = 0.0
        for r in range(1, 8):
            if l % r == 0 and l // r <= 7:
                total += von_mangoldt(pt20, r) * mobius(pt20, l // r)
        assert arr[l] == pytest.approx(total, abs=1e-12)


def test_xi_v_pointwise_oracle(pt20):
    v = 3.0
    arr = xi_v_array(pt20, v, 60)
    for l in range(1, 61):
        total = sum(mobius(pt20, d) for d in range(4, l + 1) if l % d == 0)
        assert arr[l] == total


@pytest.mark.parametrize("v,upto", [(25.1, 16000), (8.6, 23000), (0.5, 100), (3, 2), (2, 0)])
def test_xi_v_matches_large_divisor_sieve(pt20, v, upto):
    """The Moebius-inverted array equals the sieve over the divisors d > v."""
    want = np.zeros(upto + 1)
    mu = pt20.mu_array(upto)
    for d in range(int(v) + 1, upto + 1):
        if mu[d]:
            want[d::d] += mu[d]
    assert xi_v_array(pt20, v, upto).tobytes() == want.tobytes()


def test_vaughan_split_examples(pt20, tf95):
    spec = PhaseSpec(0.17, W_LIN, 1, tf95, 1000, 2000)
    res = vaughan_split(pt20, spec, v=2000 ** 0.2)
    direct = lambda_exp_sum(pt20, spec)
    assert res.residual <= 1e-8 * (1 + abs(direct))
    recomb = res.S1 - res.S21 - res.S22 + res.S3
    assert abs(direct - recomb) == res.residual


def test_vaughan_split_regime_violation(pt20, tf95):
    spec = PhaseSpec(0.1, W_LIN, 1, tf95, 4, 8)
    with pytest.raises(RegimeViolation):
        vaughan_split(pt20, spec, v=5.0)


def test_vaughan_split_random_configs(pt20):
    rng = np.random.default_rng(42)
    tfs = {g: make_thin_function("power", gamma=g) for g in (0.95, 0.97, 1.0)}
    for _ in range(10):
        gamma = rng.choice([0.95, 0.97, 1.0])
        P = int(rng.integers(10 ** 3, 10 ** 4))
        P1 = 2 * P
        m = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        spec = PhaseSpec(float(rng.random()), W_LIN, m, tfs[float(gamma)], P, P1)
        res = vaughan_split(pt20, spec)
        direct = lambda_exp_sum(pt20, spec)
        assert res.residual <= 1e-8 * (1 + abs(direct))


def _split_per_l(pt, spec):
    """The split with one phase_fracs call per l: a bit-for-bit oracle for
    the one-table split."""
    P, P1 = spec.P, spec.P1
    v = default_v(P1, spec.W.degree)
    vi = int(v)
    lam = pt.lambda_array(P1)
    mu = pt.mu_array(vi)
    piv = pi_v_array(pt, v, min(vi * vi, P1))
    xiv = xi_v_array(pt, v, int(P1 / v))

    def krange(l, lo=None):
        a = int(P // l)
        if lo is not None:
            a = max(a, lo)
        return np.arange(a + 1, int(P1 // l) + 1, dtype=np.int64)

    def terms_for(l, ks, coeffs):
        return coeffs * e2pi(phase_fracs(spec.xi, spec.W, spec.m, spec.tf, ks * l))

    s1, s21, s22, s3 = [], [], [], []
    for l in range(1, vi + 1):
        ml, pl = int(mu[l]), float(piv[l])
        ks = krange(l)
        if (ml == 0 and pl == 0.0) or ks.size == 0:
            continue
        base = e2pi(phase_fracs(spec.xi, spec.W, spec.m, spec.tf, ks * l))
        if ml != 0:
            s1.append(ml * np.log(ks.astype(np.float64)) * base)
        if pl != 0.0:
            s21.append(pl * base)
    for l in range(vi + 1, min(vi * vi, P1) + 1):
        pl = float(piv[l])
        ks = krange(l)
        if pl != 0.0 and ks.size:
            s22.append(terms_for(l, ks, pl))
    for l in range(vi + 1, int(P1 / v) + 1):
        xl = float(xiv[l])
        ks = krange(l, lo=vi)
        if xl == 0.0 or ks.size == 0:
            continue
        coeffs = lam[ks]
        nz = coeffs != 0.0
        if nz.any():
            s3.append(terms_for(l, ks[nz], xl * coeffs[nz]))
    S1, S21, S22, S3 = (fsum_complex(np.concatenate(p)) if p else 0j
                        for p in (s1, s21, s22, s3))
    direct = lambda_exp_sum(pt, spec)
    return VaughanSplit(S1, S21, S22, S3, abs(direct - (S1 - S21 - S22 + S3)), direct)


def _bilinear_per_l(delta1, delta2, spec):
    """The bilinear value with one phase_fracs call per l (oracle)."""
    L, K = len(delta1), len(delta2)
    ks = np.arange(K + 1, 2 * K + 1, dtype=np.int64)
    parts = []
    for i, l in enumerate(range(L + 1, 2 * L + 1)):
        prod = ks * l
        mask = (prod > spec.P) & (prod <= spec.P1)
        if mask.any():
            phases = e2pi(phase_fracs(spec.xi, spec.W, spec.m, spec.tf, prod[mask]))
            parts.append(delta1[i] * delta2[mask] * phases)
    return fsum_complex(np.concatenate(parts)) if parts else 0j


_TFS = {"power-0.95": ("power", {"gamma": 0.95}), "power-1": ("power", {"gamma": 1.0}),
        "h3": ("h3", {"Cc": 1.0})}
_CONFIGS = list(itertools.product(sorted(_TFS), ([0, 1], [3, -2, 5]), (-2, 1)))


_BILINEAR_CONFIGS = [c for c in _CONFIGS if c[0] != "power-1"]   # gamma=1 fails its hypotheses


def _config_id(c):
    return f"{c[0]}-W{','.join(map(str, c[1]))}-m{c[2]}"


@pytest.mark.parametrize("block", [None, 777])
@pytest.mark.parametrize("fam,W,m", _CONFIGS, ids=map(_config_id, _CONFIGS))
def test_vaughan_split_matches_per_l_loop_bitwise(pt20, fam, W, m, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(expsum, "PAIR_BLOCK", block)
    name, kw = _TFS[fam]
    tf = make_thin_function(name, **kw)
    i = _CONFIGS.index((fam, W, m))
    P = 2000 + 250 * i
    spec = PhaseSpec(0.1234567 + 0.05 * i, IntPolynomial(W), m, tf, P, 2 * P)
    got, want = vaughan_split(pt20, spec), _split_per_l(pt20, spec)
    for field in VaughanSplit._fields:
        assert getattr(got, field) == getattr(want, field), field


def test_vaughan_split_bitwise_where_w_crosses_2_52(pt20, tf95):
    """W = k^3 crosses 2^52 inside (P, P1]: table and per-l calls agree."""
    spec = PhaseSpec(0.123456789, IntPolynomial([0, 0, 0, 1]), 0, tf95, 82600, 165200)
    got, want = vaughan_split(pt20, spec), _split_per_l(pt20, spec)
    for field in VaughanSplit._fields:
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("block", [None, 777])
@pytest.mark.parametrize("fam,W,m", _BILINEAR_CONFIGS, ids=map(_config_id, _BILINEAR_CONFIGS))
def test_bilinear_matches_per_l_loop_bitwise(fam, W, m, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(expsum, "PAIR_BLOCK", block)
    name, kw = _TFS[fam]
    tf = make_thin_function(name, **kw)
    K, L = 200, 150
    rng = np.random.default_rng(len(fam) + m)
    d1 = np.exp(2j * np.pi * rng.random(L))
    d2 = np.exp(2j * np.pi * rng.random(K))
    spec = PhaseSpec(0.3, IntPolynomial(W), m, tf, K * L, 2 * K * L)
    assert bilinear_sum_bound(d1, d2, spec).value == _bilinear_per_l(d1, d2, spec)


def _count_phase_calls(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(len(args[4]))
        return phase_fracs(*args)
    monkeypatch.setattr(expsum, "phase_fracs", spy)
    return calls


@pytest.mark.parametrize("P", [2000, 10 ** 5, 2 * 10 ** 5])
def test_vaughan_split_evaluates_the_phases_once(pt20, tf95, P, monkeypatch):
    calls = _count_phase_calls(monkeypatch)
    vaughan_split(pt20, PhaseSpec(0.17, W_LIN, 1, tf95, P, 2 * P))
    assert len(calls) <= 2


@pytest.mark.parametrize("block", [None, 5000])
def test_bilinear_one_phase_call_per_block(tf95, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(expsum, "PAIR_BLOCK", block)
    calls = _count_phase_calls(monkeypatch)
    K, L = 700, 500
    spec = PhaseSpec(0.3, W_LIN, 1, tf95, K * L, 2 * K * L)
    bilinear_sum_bound(np.ones(L), np.ones(K), spec)
    n = np.arange(L + 1, 2 * L + 1)[:, None] * np.arange(K + 1, 2 * K + 1)[None, :]
    pairs = int(np.count_nonzero((n > spec.P) & (n <= spec.P1)))
    assert sum(calls) == pairs
    assert len(calls) <= -(-pairs // expsum.PAIR_BLOCK)


def test_vaughan_split_peak_memory(pt20, tf95):
    spec = PhaseSpec(0.17, W_LIN, 1, tf95, 2 * 10 ** 5, 4 * 10 ** 5)
    tracemalloc.start()
    try:
        vaughan_split(pt20, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, f"peak {peak / 1e6:.1f} MB"


PAIR_ROWS = st.lists(st.tuples(st.integers(1, 10 ** 6), st.integers(-20, 40),
                               st.integers(-20, 40)), max_size=40)


@pytest.mark.parametrize("block", [1, 7, 2 ** 16])
@settings(max_examples=100, deadline=None)
@given(rows=PAIR_ROWS)
def test_pair_blocks_match_nested_loops(block, rows):
    """Same pairs in the same order as a loop over l and then k, with empty
    and negative ranges, and no block longer than PAIR_BLOCK."""
    ls, lo, hi = (np.array([r[i] for r in rows], dtype=np.int64) for i in range(3))
    want = [(l, k) for l, a, b in rows for k in range(a + 1, b + 1)]
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expsum, "PAIR_BLOCK", block)
        for l, k in expsum._pair_blocks(ls, lo, hi):
            assert 0 < len(l) == len(k) <= block
            assert l.dtype == k.dtype == np.int64
            got.extend(zip(l.tolist(), k.tolist()))
    assert got == want


def test_vaughan_split_forms_only_nonzero_s3_pairs(pt20, tf95, monkeypatch):
    """S3 forms exactly the (l, k) with Xi_v(l) != 0 and Lambda(k) != 0, and
    the split reads no dense Lambda table."""
    P, P1 = 2 * 10 ** 5, 4 * 10 ** 5
    formed = []
    real = expsum._pair_blocks

    def spy(ls, lo, hi):
        formed.append(0)
        for l, k in real(ls, lo, hi):
            formed[-1] += len(l)
            yield l, k

    def no_table(self, b):
        raise AssertionError("lambda_array called")
    monkeypatch.setattr(expsum, "_pair_blocks", spy)
    monkeypatch.setattr(type(pt20), "lambda_array", no_table)
    vaughan_split(pt20, PhaseSpec(0.17, W_LIN, 1, tf95, P, P1))
    monkeypatch.undo()
    v = default_v(P1, 1)
    vi = int(v)
    xiv = xi_v_array(pt20, v, int(P1 / v))
    lam_count = np.cumsum(pt20.lambda_array(P1) != 0)
    want = sum(int(lam_count[P1 // l] - lam_count[max(P // l, vi)])
               for l in range(vi + 1, int(P1 / v) + 1) if xiv[l] != 0)
    assert len(formed) == 4
    assert formed[3] == want


def test_default_v_formula():
    assert default_v(2000, 1) == pytest.approx(2000 ** (2 / 8))
    assert default_v(2 ** 16, 2) == pytest.approx((2 ** 16) ** (6 / 34))


def test_vdc_degenerate_contract():
    with pytest.raises(ParameterOutOfRange):
        vdc_bound_check(lambda n: 0.5 * n, 100, 2, 0.0, 1.0)
    with pytest.raises(ParameterOutOfRange):
        vdc_bound_check(lambda n: n, 100, 1, 1.0, 1.0)


def test_vdc_quadratic():
    res = vdc_bound_check(lambda n: 1e-4 * n * n, 10 ** 4, 2, 2e-4, 1.0)
    assert res.constant <= 100


def test_vdc_cubic():
    res = vdc_bound_check(lambda n: 1e-6 * n ** 3, 10 ** 4, 3, 6e-6, 1.0)
    assert res.constant <= 100


@pytest.mark.parametrize("F, k, eta", [(lambda n: 1e-4 * n * n, 2, 2e-4),
                                       (lambda n: 1e-6 * n ** 3, 3, 6e-6)],
                         ids=["quadratic", "cubic"])
def test_vdc_sum_does_not_depend_on_the_blocking(monkeypatch, F, k, eta):
    whole = vdc_bound_check(F, 10 ** 4, k, eta, 1.0)
    monkeypatch.setattr(expsum, "VDC_BLOCK", 7)
    assert vdc_bound_check(F, 10 ** 4, k, eta, 1.0) == whole


def test_vdc_peak_memory():
    tracemalloc.start()
    try:
        vdc_bound_check(lambda n: 1e-12 * n * n, 2 ** 22, 2, 2e-12, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64e6, f"peak {peak / 1e6:.1f} MB"


def test_bilinear_zero_sequence(tf95):
    spec = PhaseSpec(0.3, W_LIN, 1, tf95, 32 * 32, 2 * 32 * 32)
    res = bilinear_sum_bound(np.zeros(32), np.ones(32), spec)
    assert res.value == 0j and res.constant == 0.0


def test_bilinear_ones(tf95):
    spec = PhaseSpec(0.3, W_LIN, 1, tf95, 1024, 2048)
    res = bilinear_sum_bound(np.ones(32), np.ones(32), spec)
    assert res.constant <= 1e3
    # oracle: direct double loop
    total = 0j
    g = 0.95
    for l in range(33, 65):
        for k in range(33, 65):
            if 1024 < k * l <= 2048:
                ph = (frac_mul_exact(0.3, k * l) + (k * l) ** g) % 1.0
                total += complex(math.cos(2 * math.pi * ph),
                                 math.sin(2 * math.pi * ph))
    assert abs(res.value - total) < 1e-9


def test_bilinear_random_unit(tf95):
    spec = PhaseSpec(0.3, W_LIN, 1, tf95, 64 * 64, 2 * 64 * 64)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d1 = np.exp(2j * np.pi * rng.random(64))
        d2 = np.exp(2j * np.pi * rng.random(64))
        res = bilinear_sum_bound(d1, d2, spec)
        assert res.constant <= 1e3


def test_bilinear_hypothesis_violations(tf95, tf_identity):
    spec = PhaseSpec(0.3, W_LIN, 0, tf95, 1024, 2048)
    with pytest.raises(HypothesisViolated):
        bilinear_sum_bound(np.ones(32), np.ones(32), spec)
    # sigma = 0 for the exact identity: size hypothesis fails
    spec_id = PhaseSpec(0.3, W_LIN, 1, tf_identity, 1024, 2048)
    with pytest.raises(HypothesisViolated):
        bilinear_sum_bound(np.ones(32), np.ones(32), spec_id)
    # moment condition violated by a huge sequence
    spec_ok = PhaseSpec(0.3, W_LIN, 1, tf95, 1024, 2048)
    with pytest.raises(HypothesisViolated):
        bilinear_sum_bound(1e6 * np.ones(32), np.ones(32), spec_ok)


def test_weighted_sums_identity_collapse(pt20, tps_identity):
    for xi in (0.0, 0.123, 0.77):
        g, f = weighted_prime_sums(tps_identity, pt20, W_LIN, xi, 2 ** 18)
        assert g == f                      # bitwise, not approximately


def test_weighted_sums_zero_phase_real(pt20, tps95):
    g, f = weighted_prime_sums(tps95, pt20, W_LIN, 0.0, 10 ** 4)
    assert g.imag == 0.0 and f.imag == 0.0
    assert g.real == pytest.approx(float(np.sum(tps95.prefix(10 ** 4)[1])), rel=1e-12)


def test_weighted_sums_gap_small(pt20):
    tf = make_thin_function("power", gamma=0.97)
    tps = enumerate_thin_primes(tf, pt20, 2 ** 16)
    g, f = weighted_prime_sums(tps, pt20, W_LIN, 0.3, 2 ** 16)
    assert abs(g - f) < 2 ** 16


def test_conjugation_symmetry(pt20, tf95):
    # xi chosen dyadic so that 1 - xi is its exact binary64 complement;
    # otherwise the two float inputs are not complements to begin with
    for xi, m in ((0.25, 1), (0.375, 2), (0.0625, -3)):
        a = lambda_exp_sum(pt20, PhaseSpec(xi, W_LIN, m, tf95, 10 ** 4, 2 * 10 ** 4))
        b = lambda_exp_sum(pt20, PhaseSpec(1.0 - xi, W_LIN, -m, tf95,
                                           10 ** 4, 2 * 10 ** 4))
        assert abs(a - b.conjugate()) < 1e-10


def test_decay_profile_identity_exact_zero(pt20, tps_identity):
    prof = formlem_decay(pt20, W_LIN, 64, 2 ** 16, tps=tps_identity)
    assert prof.exact_zero
    assert prof.fitted_exponent is None
    assert all(gap == 0.0 for _, gap, _ in prof.entries)


def test_decay_profile_gamma99(pt20, tps99):
    prof = formlem_decay(pt20, W_LIN, 64, 2 ** 16, tps=tps99)
    assert prof.fitted_exponent is not None
    assert prof.fitted_exponent < 1.0


def test_decay_grid_refinement_monotone(pt20, tps99):
    coarse = formlem_decay(pt20, W_LIN, 64, 2 ** 14, tps=tps99)
    fine = formlem_decay(pt20, W_LIN, 128, 2 ** 14, tps=tps99)
    for (n1, g1, _), (n2, g2, _) in zip(coarse.entries, fine.entries):
        assert n1 == n2
        assert g2 >= g1 * 0.99    # nested grids: sup can only grow


def test_decay_validation(pt20, tps99):
    with pytest.raises(ParameterOutOfRange):
        formlem_decay(pt20, W_LIN, 32, 2 ** 14, tps=tps99)
    with pytest.raises(ParameterOutOfRange):
        formlem_decay(pt20, W_LIN, 64, 1000, tps=tps99)
    with pytest.raises(RangeBeyondTable):
        formlem_decay(pt20, W_LIN, 64, 2 ** 21, tps=tps99)
    with pytest.raises(ParameterOutOfRange):
        formlem_decay(pt20, W_LIN, 2 ** 31 + 1, 2 ** 14, tps=tps99)


def _decay_gaps_by_xi_loop(tps, pt, W, G, N_max):
    """Reference sweep: one fsum per xi = j/G and dyadic N, exact phases.

    The phase of p at xi = j/G is ((j * (W(p) mod G)) mod G) / G, with W(p)
    evaluated in Python integers.
    """
    thin_p, thin_w = tps.prefix(N_max)
    full_p = pt.primes_in(1, N_max)
    ps = np.concatenate([thin_p, full_p])
    ws = np.concatenate([thin_w, -np.log(full_p.astype(np.float64))])
    rs = np.array([W(int(p)) % G for p in ps], dtype=np.int64)
    gaps = []
    n = 16
    while n <= N_max:
        inside = ps <= n
        c, r = ws[inside], rs[inside]
        best = 0.0
        for j in range(G):
            t = 2.0 * np.pi * ((j * r) % G) / G
            best = max(best, abs(complex(math.fsum(c * np.cos(t)),
                                         math.fsum(c * np.sin(t)))))
        gaps.append(best)
        n *= 2
    return gaps


@pytest.mark.parametrize("coeffs,G", [
    ([0, 1], 100),                          # G not a power of two
    ([5, -3, 0, 2, 0, 0, 1, 1], 64),        # degree 7: W(p) beyond int64
    ([3, -2, 5], 128),
])
def test_decay_gaps_match_xi_loop(pt20, tps99, coeffs, G):
    W = IntPolynomial(coeffs)
    N_max = 2 ** 12
    prof = formlem_decay(pt20, W, G, N_max, tps=tps99)
    want = _decay_gaps_by_xi_loop(tps99, pt20, W, G, N_max)
    assert [n for n, _, _ in prof.entries] == [16 * 2 ** i for i in range(len(want))]
    for (_, gap, _), ref in zip(prof.entries, want):
        assert abs(gap - ref) <= 1e-12 * ref
