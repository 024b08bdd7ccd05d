"""Function-family construction, inverses, diagnostics and exponent tables."""

import math
import os
import subprocess
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thinprimes
from thinprimes import thinfn
from thinprimes.errors import (
    DomainError,
    MonotonicityUnattainable,
    NoConvergence,
    ParameterOutOfRange,
    PrecisionExhausted,
)
from thinprimes.thinfn import (
    admissible_params,
    derivative_ratio_report,
    make_thin_function,
)

import oracles
from oracles import floor_neg_phi_vec, thin_membership

# converged parameter choices; ratios checked numerically below
H1 = dict(c=1.25, A=0.1)
H2 = dict(c=1.25, A=0.1, B=0.3)
H4 = dict(Cc=0.2, B=0.5)


def test_identity_function():
    tf = make_thin_function("power", gamma=1.0)
    assert tf.c == 1.0 and tf.x0 == 1.0
    assert tf.h(17.0) == 17.0
    assert tf.phi(17.0) == 17.0
    assert tf.floor_h(7) == 7
    # the route of every other member is exact here, where c = Ch = 1.0
    rng = np.random.default_rng(0)
    ns = np.concatenate([[1, 2, 3, 2 ** 33 + 1, 2 ** 34 - 1, 2 ** 34],
                         rng.integers(1, 2 ** 34, 1000)])
    xs = ns.astype(np.float64)
    assert np.array_equal(tf.h_vec(ns), xs)
    assert np.array_equal(tf.h1_vec(ns), np.ones_like(xs))
    assert np.array_equal(tf.phi_vec(ns), xs)
    assert np.array_equal(tf.weight_vec(ns), np.log(xs))
    for x in xs[:50].tolist():
        assert [tf.h_deriv(x, n) for n in range(5)] == [x, 1.0, 0.0, 0.0, 0.0]
        assert tf.theta(x) == 0.0
    assert all(tf.phi_mp(n) == Decimal(n) for n in ns.tolist())


def test_power_gamma_forces_c():
    tf = make_thin_function("power", gamma=0.9)
    assert tf.c == pytest.approx(1.0 / 0.9)
    assert tf.x0 == 1.0
    assert make_thin_function("power", gamma=0.9, c=1.0 / 0.9).c == tf.c
    with pytest.raises(ParameterOutOfRange):
        make_thin_function("power", gamma=0.95, c=1.5)


def test_power_phi_closed_form():
    tf = make_thin_function("power", gamma=0.9)
    assert tf.phi(1024.0) == pytest.approx(1024.0 ** 0.9, rel=1e-15)


def test_gamma_out_of_range():
    with pytest.raises(ParameterOutOfRange):
        make_thin_function("power", gamma=0.5)   # c = 2
    with pytest.raises(ParameterOutOfRange):
        make_thin_function("power", gamma=1.2)
    for zero_or_inf in (dict(gamma=0.0), dict(c=0.0), dict(c=math.inf),
                        dict(gamma=0.0, c=1.0)):
        with pytest.raises(ParameterOutOfRange):
            make_thin_function("power", **zero_or_inf)


OWN = {"power": dict(gamma=0.9), "h1": H1, "h2": H2, "h3": dict(Cc=1.0),
       "h4": H4, "h5": dict(m=2)}
FOREIGN = dict(gamma=0.9, c=1.5, A=0.2, B=0.4, Cc=2.0, m=3)


@pytest.mark.parametrize("family,name", [
    (family, name) for family in OWN for name in FOREIGN
    if name not in thinfn.FAMILIES[family]])
def test_parameter_outside_family_refused(family, name):
    with pytest.raises(ParameterOutOfRange, match=f"^{name}=.* not a parameter "
                                                  f"of family {family}$"):
        make_thin_function(family, **OWN[family], **{name: FOREIGN[name]})


def test_family_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        make_thin_function("h2", c=1.2, A=1.0, B=1.5)
    with pytest.raises(ParameterOutOfRange):
        make_thin_function("h3", Cc=-1.0)
    with pytest.raises(ParameterOutOfRange):
        make_thin_function("h5", m=0)
    with pytest.raises(ParameterOutOfRange):
        make_thin_function("nope")


def test_h1_negative_A_is_not_convex_below_scan_ceiling():
    # h = x^1.05 log^-2 x has h'' < 0 on (~20, ~8.7e16): finite differences
    # of the closed form at x=1e4 witness the concavity, so no x0 <= 1e6
    # can satisfy the convexity requirement
    c, A = 1.05, -2.0
    def h(x):
        return x ** c * math.log(x) ** A
    x, d = 1e4, 1.0
    fd2 = (h(x + d) - 2 * h(x) + h(x - d)) / (d * d)
    assert fd2 < 0
    with pytest.raises(MonotonicityUnattainable):
        make_thin_function("h1", c=c, A=A)


def test_auto_x0_recorded_and_valid():
    tf = make_thin_function("h1", **H1)
    assert tf.x0 >= 1.0
    assert tf.h(tf.x0) >= 1.0 - 1e-12
    # explicit bad x0 for a c=1 family: vartheta must be positive there
    with pytest.raises((MonotonicityUnattainable, ParameterOutOfRange)):
        make_thin_function("h5", m=2, x0=2.0)


def test_h3_phi_solves_h():
    tf = make_thin_function("h3", Cc=1.0)
    y = tf.phi(100.0)
    assert y * math.log(y) == pytest.approx(100.0, rel=1e-12)


def test_domain_errors():
    tf = make_thin_function("h3", Cc=1.0)
    with pytest.raises(DomainError):
        tf.h(tf.x0 * 0.5)
    with pytest.raises(DomainError):
        tf.phi(tf.h_x0 * 0.5)


@pytest.mark.parametrize("factory", [
    lambda: make_thin_function("power", gamma=0.9),
    lambda: make_thin_function("h1", **H1),
    lambda: make_thin_function("h2", **H2),
    lambda: make_thin_function("h3", Cc=1.0),
    lambda: make_thin_function("h4", **H4),
    lambda: make_thin_function("h5", m=2),
])
def test_inverse_consistency(factory):
    tf = factory()
    rng = np.random.default_rng(11)
    xs = np.exp(rng.uniform(math.log(tf.h_x0 + 1.0), math.log(1e10), 1000))
    phis = tf.phi_vec(xs)
    assert np.all(np.abs(tf.h_vec(phis) - xs) <= 1e-12 * xs)
    ys = np.exp(rng.uniform(math.log(tf.x0 + 1.0), math.log(1e8), 1000))
    back = tf.phi_vec(tf.h_vec(ys))
    assert np.all(np.abs(back - ys) <= 1e-12 * ys)


@pytest.mark.parametrize("factory", [
    lambda: make_thin_function("power", gamma=0.95),
    lambda: make_thin_function("h3", Cc=1.0),
    lambda: make_thin_function("h1", **H1),
])
def test_implicit_phi_derivatives_match_finite_differences(factory):
    tf = factory()
    for x in np.geomspace(max(100.0, 2 * tf.h_x0), 1e8, 9):
        d1 = x * 1e-6
        fd1 = (tf.phi(x + d1) - tf.phi(x - d1)) / (2 * d1)
        assert tf.phi_deriv(x, 1) == pytest.approx(fd1, rel=1e-6)
        d2 = x * 1e-4   # eps^(1/4) step balances truncation and roundoff
        fd2 = (tf.phi(x + d2) - 2 * tf.phi(x) + tf.phi(x - d2)) / (d2 * d2)
        assert tf.phi_deriv(x, 2) == pytest.approx(fd2, rel=1e-6)


@pytest.mark.parametrize("factory", [
    lambda: make_thin_function("power", gamma=0.9),
    lambda: make_thin_function("h3", Cc=1.0),
])
def test_third_phi_derivative_matches_finite_differences(factory):
    tf = factory()
    for x in (1e4, 1e6):
        d = x * 1e-3
        fd3 = (tf.phi(x + 2 * d) - 2 * tf.phi(x + d)
               + 2 * tf.phi(x - d) - tf.phi(x - 2 * d)) / (2 * d ** 3)
        assert tf.phi_deriv(x, 3) == pytest.approx(fd3, rel=1e-4)


def test_slow_variation_of_ell_h():
    tf = make_thin_function("h1", **H1)
    eps = 0.01
    vals = [x ** (-eps) * tf.h(x) / (tf.Ch * x ** tf.c)
            for x in (1e4, 1e6, 1e8, 1e10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("factory", [
    lambda: make_thin_function("power", gamma=0.9),
    lambda: make_thin_function("h3", Cc=1.0),
    lambda: make_thin_function("h2", **H2),
])
def test_phi_doubling(factory):
    tf = factory()
    for x in np.geomspace(max(10.0, 2 * tf.h_x0), 1e9, 40):
        r = tf.phi(2 * x) / tf.phi(x)
        assert 1.0 <= r <= 2.0
        if x >= 1e6:
            assert r <= 2 ** tf.gamma * 1.01


def test_monotone_mass():
    tf = make_thin_function("power", gamma=0.9)
    for delta in (0.5, 1.0, tf.c - 0.05):
        vals = [x * tf.phi(x) ** (-delta) for x in np.geomspace(10, 1e9, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_power_ratio_exact():
    tf = make_thin_function("power", gamma=0.8)
    rows = [r for r in derivative_ratio_report(tf, 2, [1e6]) if r.side == "h"]
    assert rows[0].ratio == pytest.approx(1.25 * 0.25, abs=1e-12)
    assert rows[0].limit == pytest.approx(0.3125)


def test_h3_second_ratio_exact():
    # closed form: h'' = 1/x and vartheta = 1/log x make the ratio exactly 1
    tf = make_thin_function("h3", Cc=1.0)
    rows = [r for r in derivative_ratio_report(tf, 2, [1e8]) if r.side == "h"]
    assert rows[0].ratio == pytest.approx(1.0, abs=1e-10)


def test_h1_first_ratio_near_c():
    tf = make_thin_function("h1", **H1)
    rows = [r for r in derivative_ratio_report(tf, 1, [1e8]) if r.side == "h"]
    # independent closed form: x h'/h = c + A/log x
    expect = H1["c"] + H1["A"] / math.log(1e8)
    assert rows[0].ratio == pytest.approx(expect, rel=1e-10)
    assert abs(rows[0].ratio - rows[0].limit) < 1e-2


def test_ratio_report_grid_below_domain():
    tf = make_thin_function("h3", Cc=1.0)
    with pytest.raises(DomainError):
        derivative_ratio_report(tf, 2, [0.5])


def test_vartheta_closed_forms():
    tf3 = make_thin_function("h3", Cc=2.0)
    assert tf3.vartheta(1e6) == pytest.approx(2.0 / math.log(1e6), rel=1e-12)
    tf5 = make_thin_function("h5", m=2)
    x = 1e6
    assert tf5.vartheta(x) == pytest.approx(
        1.0 / (math.log(x) * math.log(math.log(x))), rel=1e-12)
    # cross-check against the defining ratio x h'/h - c
    for tf in (tf3, tf5):
        lhs = x * tf.h_deriv(x, 1) / tf.h(x) - tf.c
        assert lhs == pytest.approx(tf.vartheta(x), rel=1e-9)


def test_sigma_conventions():
    tf95 = make_thin_function("power", gamma=0.95)
    assert tf95.sigma(1e6) == 1.0
    tf3 = make_thin_function("h3", Cc=1.0)
    s = tf3.sigma(1e6)
    assert s > 0 and s == pytest.approx(-tf3.theta(1e6))
    assert tf3.sigma(1e6) > tf3.sigma(1e8)   # decreasing


def test_theta_identity_zero():
    tf = make_thin_function("power", gamma=1.0)
    assert tf.theta(100.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=2.0, max_value=1e12))
def test_power_inverse_roundtrip_property(x):
    tf = make_thin_function("power", gamma=0.9)
    assert abs(tf.h(tf.phi(x)) - x) <= 1e-12 * x


def test_admissible_params_q1():
    ap = admissible_params(1, 1.0)
    assert ap.chi_max == pytest.approx(1.0 / 28.0)
    assert ap.c_q == Fraction(16, 15)


def test_admissible_params_boundary():
    ap = admissible_params(1, 15.0 / 16.0)
    assert ap.chi_max == pytest.approx(0.0, abs=1e-15)


def test_admissible_params_q2():
    ap = admissible_params(2, 1.0)
    assert ap.chi_max == pytest.approx(1.0 / 120.0)
    assert ap.c_q == Fraction(66, 65)


def test_admissible_params_clamped():
    assert admissible_params(1, 0.5).chi_max == 0.0
    with pytest.raises(ParameterOutOfRange):
        admissible_params(0, 1.0)
    with pytest.raises(ParameterOutOfRange):
        admissible_params(1, 0.0)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_chi_max_positive_iff_gamma_above_reciprocal_cq(q):
    cq = admissible_params(q, 1.0).c_q
    for gamma in np.linspace(0.9, 1.0, 41):
        ap = admissible_params(q, float(gamma))
        assert (ap.chi_max > 0) == (gamma > 1.0 / float(cq))


@pytest.mark.parametrize("factory", [
    lambda: make_thin_function("h3", Cc=1.0),
    lambda: make_thin_function("h4", Cc=0.2, B=0.5),
    lambda: make_thin_function("h5", m=2),
])
def test_c1_families_x_over_h_decreasing(factory):
    tf = factory()
    xs = np.geomspace(max(tf.x0 * 4, 20.0), 1e9, 30)
    vals = xs / tf.h_vec(xs)
    assert np.all(vals < 1.0)
    assert np.all(np.diff(vals) < 0)


def test_phi_cache_concurrent_reads_consistent():
    from concurrent.futures import ThreadPoolExecutor
    tf = make_thin_function("h3", Cc=1.0)
    xs = [float(x) for x in np.geomspace(10, 1e6, 200)] * 4
    serial = {x: tf.phi(x) for x in set(xs)}
    tf2 = make_thin_function("h3", Cc=1.0)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(tf2.phi, xs))
    assert all(r == serial[x] for x, r in zip(xs, results))


def test_phi_cache_consistency():
    tf = make_thin_function("h3", Cc=1.0)
    a = tf.phi(12345.0)
    b = tf.phi(12345.0)
    assert a == b


def _closed_form(tf):
    """h as one mpmath expression of the exact binary64 parameters."""
    f, num = tf.family, mp.mpf
    def L(t):
        if f == "power":
            return 1
        if f in ("h1", "h3"):
            return t ** num(tf.A if f == "h1" else tf.Cc)
        if f in ("h2", "h4"):
            return mp.exp(num(tf.A if f == "h2" else tf.Cc) * t ** num(tf.B))
        for _ in range(tf.m - 1):
            t = mp.log(t)
        return t
    return lambda x: num(tf.Ch) * x ** num(tf.c) * L(mp.log(x))


@pytest.mark.parametrize("family,params,h_ulps", [
    ("power", dict(gamma=0.95), 2),
    ("power", dict(gamma=0.99), 2),
    ("h1", H1, 4),
    ("h2", H2, 4),
    ("h3", dict(Cc=1.0), 4),
    ("h4", H4, 4),
    ("h5", dict(m=2), 4),
])
def test_derivatives_match_50_digit_closed_form(family, params, h_ulps):
    tf = make_thin_function(family, **params)
    f = _closed_form(tf)
    xs = np.geomspace(max(1.5 * tf.x0, 20.0), 2.0 ** 36, 40)
    hv = tf.h_vec(xs)
    for x, hx in zip(xs, hv):
        with mp.workdps(50):
            exact = list(mp.diffs(f, mp.mpf(float(x)), 4))
            ulp = np.spacing(float(exact[0]))
            for got in (hx, tf.h(float(x))):
                assert abs(mp.mpf(float(got)) - exact[0]) <= h_ulps * ulp
            for n in range(1, 5):
                got = mp.mpf(tf.h_deriv(float(x), n))
                assert abs(got / exact[n] - 1) <= 1e-13, (x, n)


def test_power_095_keeps_52600393():
    # h(21624175) = 52600393.99999922 at c = 1/0.95 in binary64; a 15-digit
    # copy of c puts the binary64 value above 52600394
    tf = make_thin_function("power", gamma=0.95)
    assert tf.floor_h(21624175) == 52600393
    assert thin_membership(tf, 52600393, "direct")
    assert thin_membership(tf, 52600393, "floor_criterion")


FLOOR_TFS = [make_thin_function(family, **params) for family, params in (
    ("power", dict(gamma=0.9)), ("power", dict(gamma=0.95)),
    ("power", dict(gamma=0.99)), ("power", dict(gamma=0.99, Ch=0.5)),
    ("h1", H1), ("h2", H2), ("h3", dict(Cc=1.0)), ("h4", H4), ("h5", dict(m=2)))]


def _floor50(v):
    """floor of a 50-digit value that no integer comes close to."""
    assert abs(v - mp.nint(v)) > mp.mpf(10) ** -30
    return int(mp.floor(v))


def _phi50(tf, x):
    """phi at 50 digits: the power family's formula, else the root of h = x."""
    if tf.family == "power":
        return (x / mp.mpf(tf.Ch)) ** mp.mpf(tf.gamma)
    f = _closed_form(tf)
    return mp.findroot(lambda y: f(y) - x, mp.mpf(tf.phi(float(x))))


# h(512) ~ 1024 + 3e-13 and phi(1024) ~ 512 + 8e-14 at gamma 0.9 escalate;
# h(21624175) = 52600393.99999922 at gamma 0.95 sits just below an integer
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FLOOR_TFS),
       st.lists(st.integers(2, 2 * 10 ** 6), min_size=1, max_size=8))
@example(FLOOR_TFS[0], [512, 1024])
@example(FLOOR_TFS[1], [21624175, 52600394])
def test_vector_floors_match_50_digits(tf, draws):
    ns = [max(n, math.ceil(tf.x0) + 1) for n in draws]
    xs = [max(x, math.ceil(tf.h_x0) + 1) for x in draws]
    got_h, got_phi = tf.floor_h_vec(ns), floor_neg_phi_vec(tf, xs)
    with mp.workdps(50):
        f = _closed_form(tf)
        assert got_h.tolist() == [_floor50(f(mp.mpf(n))) for n in ns]
        assert got_phi.tolist() == [_floor50(-_phi50(tf, mp.mpf(x))) for x in xs]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FLOOR_TFS), st.floats(2.0, 2.0 ** 40),
       st.sampled_from([-1, 3, 1 << 41]))
@example(FLOOR_TFS[0], 512.0, -1)
def test_mp_routes_match_50_digits(tf, x, m):
    n, y = max(x, tf.x0 + 1.0), max(x, tf.h_x0 + 1.0)
    with mp.workdps(50):
        h, p = _closed_form(tf)(mp.mpf(n)), _phi50(tf, mp.mpf(y))
        assert abs(mp.mpf(str(tf.h_mp(n))) / h - 1) <= mp.mpf(10) ** -30
        assert abs(mp.mpf(str(tf.phi_mp(y))) / p - 1) <= mp.mpf(10) ** -30
        # {m phi} is as exact as phi_mp's Newton stop (1e-35 relative) allows
        want = mp.frac(m * p)
        tol = max(mp.mpf(10) ** -15, abs(m * p) * mp.mpf(10) ** -34)
        got = tf.frac_m_phi_mp(m, y)
        assert min(abs(got - want), 1 - abs(got - want)) <= tol


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0, 2.0 ** 60), st.floats(-3.0, 3.0))
@example(2.0 ** 34, 1 / 0.95)
@example(4.0, 1.5)
def test_decimal_pow_matches_50_digits(u, a):
    # the escalated route's u^a is exp(a ln u); its relative error grows
    # with |a ln u| <= 125 here, so 1e-36 leaves a factor of ten
    with localcontext(Context(prec=thinfn.MP_DPS)):
        got = thinfn._MP.pow(Decimal(u), Decimal(a))
    with mp.workdps(50):
        want = mp.mpf(u) ** mp.mpf(a)
        assert abs(mp.mpf(str(got)) / want - 1) <= mp.mpf(10) ** -36


def test_scalar_floor_is_the_one_element_vector_floor(tf95, monkeypatch):
    # binary64 h and h_vec can round differently (libm against numpy's SIMD
    # kernels: 1140 of these 20000 n under numpy 2.4's AVX-512 dispatch,
    # none under AVX2).  So that the test does not depend on the host, h is
    # also made to miss by one ulp, towards the integer, at the n whose bulk
    # value is nearest one.  A one-element h_vec is the bulk value, so
    # scalar and bulk floors agree everywhere.
    ns = np.arange(10 ** 6, 10 ** 6 + 2 * 10 ** 4)
    bulk = tf95.h_vec(ns)
    ints = np.rint(bulk)
    chosen = np.argsort(np.abs(bulk - ints))[:8]
    missed = {int(ns[i]): float(np.nextafter(bulk[i], ints[i])) for i in chosen}
    scalar_h = tf95.h
    monkeypatch.setattr(tf95, "h", lambda x: missed.get(int(x)) or scalar_h(x))
    differ = [n for n, v in zip(ns.tolist(), bulk) if tf95.h(float(n)) != v]
    assert differ
    floors = tf95.floor_h_vec(ns)
    for n in differ:
        assert tf95.h_vec([n])[0] == bulk[n - ns[0]]
    assert [tf95.floor_h(n) for n in ns.tolist()] == floors.tolist()


def test_scalar_h_is_the_one_element_array_h():
    # numpy takes an array's ** 0.5 as sqrt and a float's ** 0.5 as libm's
    # pow.  They round log n apart at these n, where a scalar route of h2
    # and h4 (B = 0.5) split from h_vec at 41 and 25 of them
    ns = np.arange(1000, 101000, dtype=np.float64)
    logs = np.log(ns)
    split = ns[logs ** 0.5 != np.array([v ** 0.5 for v in logs.tolist()])]
    assert split.size >= 25
    for tf in (make_thin_function("power", gamma=0.95),
               make_thin_function("h1", **H1),
               make_thin_function("h2", c=1.25, A=0.1, B=0.5),
               make_thin_function("h3", Cc=1.0),
               make_thin_function("h4", **H4),
               make_thin_function("h5", m=2)):
        bulk, bulk1 = tf.h_vec(split).tolist(), tf.h1_vec(split).tolist()
        for x, v, v1 in zip(split.tolist(), bulk, bulk1):
            assert tf.h(x) == tf.h_vec(np.array([x]))[0] == v, (tf, x)
            assert tf.h_deriv(x, 1) == v1, (tf, x)
    # phi_deriv and theta read h's jets at phi(x), vartheta at x.  Over x in
    # [2000, 42000), a float route of them split from the array route at up
    # to 28 x for h4 and 21 for h2 (B = 0.5), all in split below
    def splits(v):
        lv = np.log(v)
        return lv ** 0.5 != np.array([u ** 0.5 for u in lv.tolist()])
    xs = np.arange(2000, 42000, dtype=np.float64)
    for tf in (make_thin_function("h2", c=1.25, A=0.1, B=0.5),
               make_thin_function("h4", **H4)):
        split = xs[splits(xs) | splits(tf.phi_vec(xs))]
        assert split.size >= 50
        ys = tf.phi_vec(split)
        _, d1, d2, d3 = tf._derivs(ys, 3)
        bulk = zip(split.tolist(), (1.0 / d1).tolist(),
                   (-d2 / d1 ** 3).tolist(),
                   ((3.0 * d2 * d2 - d3 * d1) / d1 ** 5).tolist(),
                   (1.0 / (tf.c + tf.vartheta(ys)) - tf.gamma).tolist(),
                   tf.vartheta(split).tolist())
        for x, p1, p2, p3, th, vt in bulk:
            assert [tf.phi_deriv(x, n) for n in (1, 2, 3)] == [p1, p2, p3], (tf, x)
            assert tf.theta(x) == th and tf.vartheta(x) == vt, (tf, x)


def test_phi_mp_raises_at_the_newton_cap(monkeypatch):
    tf = make_thin_function("h3", Cc=1.0)
    x = 1e6 + 0.5
    with localcontext(Context(prec=thinfn.MP_DPS)):
        err = abs(tf.h_mp(tf.phi_mp(x)) - Decimal(x))
        assert err <= Decimal(10) ** -30 * Decimal(x)
    monkeypatch.setattr(thinfn, "MP_NEWTON_STEPS", 1)
    with pytest.raises(NoConvergence):
        tf.phi_mp(x)


def test_import_does_not_load_sympy():
    # nor mpmath: it serves the 50-digit oracles of the tests only
    src = os.path.dirname(os.path.dirname(thinprimes.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("thinprimes", "thinprimes.cli"):
        subprocess.run([sys.executable, "-c",
                        f"import {module}, sys; "
                        "assert not {'sympy', 'mpmath'} & set(sys.modules)"],
                       env=env, check=True)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_cli_import_starts_no_blas_pool():
    # the command line pins OpenBLAS to one thread before numpy loads,
    # unless the user's environment already says otherwise
    src = os.path.dirname(os.path.dirname(thinprimes.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import os, thinprimes.cli; print(len(os.listdir('/proc/self/task')))"

    def threads(**extra):
        res = subprocess.run([sys.executable, "-c", probe], env={**env, **extra},
                             capture_output=True, text=True, check=True)
        return int(res.stdout)
    assert threads() == 1
    # OpenBLAS caps its pool at the CPUs this process may run on
    if len(os.sched_getaffinity(0)) >= 2:
        assert threads(OPENBLAS_NUM_THREADS="2") >= 2


def test_floor_guard_scales_with_magnitude():
    # one spacing above k near 2^24 is 3.7e-9 from k, outside the 1e-9
    # absolute guard but inside four spacings, so the exact value decides
    k = 2 ** 24 + 3
    v = np.array([np.nextafter(float(k), np.inf)])
    below = lambda a: Decimal(k) - Decimal("1e-20")
    got = thinfn._certified_floor(v, below, np.array([7]), "h")
    assert got.tolist() == [k - 1]


def _dyadic_floor(c, Ch, n):
    """floor(Ch * n^c) for c = 5/4 or 3/2, in integer arithmetic: the floor of
    a b-th root is the floor of the root of the floor."""
    p, q = Ch.as_integer_ratio()
    if c == 1.25:
        return math.isqrt(math.isqrt(p ** 4 * n ** 5 // q ** 4))
    return math.isqrt(p ** 2 * n ** 3 // q ** 2)


@pytest.mark.parametrize("gamma", [0.8, 2 / 3])
@pytest.mark.parametrize("Ch", [1.0, 0.75, 1 / 3, 3.0])
def test_dyadic_exponents_certify_exact_integer_values(gamma, Ch):
    # c = 1/gamma is 5/4 or 3/2 exactly, so h(r^4) or h(r^2) is Ch * r^5 or
    # Ch * r^3: an integer for Ch = 1, 0.75 (r even) and 3, which 40 digits
    # cannot tell from one, and within 1e-13 of one for Ch = fl(1/3)
    tf = make_thin_function("power", gamma=gamma, Ch=Ch)
    ns = list(range(math.ceil(tf.x0), 20001))
    assert tf.floor_h_vec(ns).tolist() == [_dyadic_floor(tf.c, Ch, n) for n in ns]


def test_integer_h_certifies_only_exact_integer_values():
    tf = make_thin_function("power", gamma=0.8, Ch=0.75)
    assert [tf.integer_h(n) for n in (1, 16, 81, 256, 17)] == [None, 24, None, 768, None]
    # c = 1/0.95 has denominator 2^52: only n = 1 is a perfect power of it
    tf95 = make_thin_function("power", gamma=0.95)
    assert [tf95.integer_h(n) for n in (1, 2, 2 ** 52)] == [1, None, None]
    assert make_thin_function("h3", Cc=1.0).integer_h(16) is None
    assert thinfn._exact_root(3 ** 64, 64) == 3 and thinfn._exact_root(3 ** 64 + 1, 64) is None


def test_a_near_integer_without_a_certificate_raises():
    # the 40-digit value is an integer at n = 17, which is no fourth power;
    # at n = 16 the certificate decides, and without one the call raises
    tf = make_thin_function("power", gamma=0.8)
    v, at_32 = np.array([32.0]), lambda a: Decimal(32)
    with pytest.raises(PrecisionExhausted, match=r"h\(17\) within 1e-25"):
        thinfn._certified_floor(v, at_32, np.array([17]), "h", tf.integer_h)
    with pytest.raises(PrecisionExhausted, match=r"h\(16\) within 1e-25"):
        thinfn._certified_floor(v, at_32, np.array([16]), "h")
    assert thinfn._certified_floor(v, at_32, np.array([16]), "h",
                                   tf.integer_h).tolist() == [32]


def _binade_value(e, m, steps, sign):
    """sign * (an integer of [2^e, 2^(e+1)) moved `steps` floats away)."""
    v = float(2 ** e + m % 2 ** e)
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.copysign(math.inf, steps))
    return sign * v


_NEAR_INTEGERS = st.builds(_binade_value, st.integers(0, 60), st.integers(0, 2 ** 60),
                           st.integers(-6, 6), st.sampled_from([1.0, -1.0]))
_ANY_VALUES = st.builds(lambda x, sign: sign * x, st.floats(1.0, 2.0 ** 60),
                        st.sampled_from([1.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_NEAR_INTEGERS, _ANY_VALUES), min_size=1, max_size=16),
       st.sampled_from([-1, 1]))
@example([2.0 ** 24 + 3, float(np.nextafter(2.0 ** 24 + 3, np.inf)), 5.5], -1)
@example([1.0 - 1e-9 + 3.0, 2.0 ** 21 + 0.5], 1)
def test_one_guard_per_call_contains_the_per_entry_guard(values, side):
    # the exact value lies half a spacing (at most 1/4) off each float, on
    # one side: an entry's floor is right only if it was escalated or lay
    # farther than that from an integer; every entry that the per-entry rule
    # escalates (all |v| >= 1 here) must be escalated by the one guard too
    v = np.array(values)
    half = [min(Fraction(float(np.spacing(abs(x)))) / 2, Fraction(1, 4))
            for x in values]
    exact_values = [Fraction(x) + side * h for x, h in zip(values, half)]
    want = [math.floor(x) for x in exact_values]
    seen = {"call": set(), "entry": set()}

    def exact(key):
        def f(i):
            seen[key].add(i)
            x = exact_values[i]
            return Decimal(x.numerator) / Decimal(x.denominator)
        return f
    args = np.arange(len(values))
    got = thinfn._certified_floor(v, exact("call"), args, "v")
    ref = oracles.certified_floor_per_entry(v, exact("entry"), args, "v")
    assert got.tolist() == ref.tolist() == want
    assert seen["entry"] <= seen["call"]


def test_numpy_dispatch_is_pinned_in_the_tests():
    # conftest imports thinprimes.cli before numpy loads, so the tests run
    # under the command line's dispatch: no AVX-512 kernels, whose float64
    # power is not libm's (57^0.95 is one of the points where they differ)
    from numpy._core._multiarray_umath import __cpu_features__
    assert not __cpu_features__.get("X86_V4", False)
    assert (np.array([57.0]) ** 0.95)[0] == 57.0 ** 0.95


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FLOOR_TFS + [make_thin_function("power", gamma=1.0)]),
       st.lists(st.floats(0.0, 28.0), min_size=1, max_size=12))
# h4 where a scalar h and an array h once rounded apart inside the Newton steps
@example(make_thin_function("h4", **H4), [math.log(1758919.4238727093)])
def test_phi_is_one_route(tf, logs):
    # scalar phi, one-element phi_vec and a whole array give the same bits,
    # within the Newton stop of h on the same route
    xs = np.maximum(np.exp(logs), tf.h_x0)
    ys = tf.phi_vec(xs)
    for x, y in zip(xs.tolist(), ys.tolist()):
        assert tf.phi(x) == tf.phi_vec(np.array([x]))[0] == y
    assert np.all(np.abs(tf.h_vec(ys) - xs) <= 1e-14 * xs)


def test_phi_vec_raises_at_the_step_cap(monkeypatch):
    tf = make_thin_function("h3", Cc=1.0)
    monkeypatch.setattr(thinfn, "PHI_STEPS", 1)
    with pytest.raises(NoConvergence):
        tf.phi_vec(np.array([1e6 + 0.5]))


@pytest.mark.parametrize("tf", FLOOR_TFS, ids=repr)
def test_h_vec_error_is_inside_the_floor_guard(tf):
    # the binary64 floor guard is GUARD_ULPS spacings of h's value; the
    # largest errors measured against 50 digits are 0.51 spacings (power)
    # and 2.7 (h1-h5), over 5*10^5 n per family up to 2^34
    rng = np.random.default_rng(5)
    ns = np.unique(np.exp(rng.uniform(math.log(tf.x0 + 1.0), 34 * math.log(2.0),
                                      2000)).astype(np.int64))
    got = tf.h_vec(ns)
    with mp.workdps(50):
        f = _closed_form(tf)
        err = [float(abs(mp.mpf(v) - f(mp.mpf(n))))
               for n, v in zip(ns.tolist(), got.tolist())]
    assert np.all(np.array(err) < thinfn.GUARD_ULPS * np.spacing(got))
