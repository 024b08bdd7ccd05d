"""Prime exponential sums: direct, Vaughan-decomposed, and their bounds.

All sums carry phases exp(2*pi*i*(xi*W(k) + m*phi(k))) with an integer
polynomial W.  The xi*W(k) part is reduced mod 1 exactly (integer W(k),
binary-rational xi); the m*phi(k) part goes through a two-product and is
taken at 40 digits by ThinFunction.frac_m_phi_mp once |m*phi(k)| crosses
2^40.  Sums are exactly rounded (_num.exact_sum: terms binned by binary
exponent into one exact integer, rounded once), so split/recombine
residuals measure the identity, not the accumulator, and each sum is the
float math.fsum would give.  Mod 1 is taken by floor subtraction
(_num.mod1), which keeps the bits of %.  A Vaughan split evaluates each
phase once, in one table over (P, P1], and forms only the (l, k) pairs
with a nonzero coefficient, so S3 runs over prime powers k; split and
bilinear sums stream their pairs through exact_sum in blocks of at most
PAIR_BLOCK.  Sweeps over the grid xi = j/G take one exact DFT per cutoff
(grid_sup_gaps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._num import (
    _check_hull,
    dyadic,
    e2pi,
    exact_sum,
    frac_mul_int_vec,
    frac_mul_vec,
    mod1,
)
from .errors import (
    HypothesisViolated,
    LimitTooLarge,
    ParameterOutOfRange,
    RangeBeyondTable,
    RegimeViolation,
)
from .sieve import MAX_LIMIT, PrimeTable, ThinPrimeSet
from .thinfn import ThinFunction

# |m*phi(k)| above which the product is formed in extended precision
EXTENDED_PHASE_LIMIT = float(2 ** 40)


class IntPolynomial:
    """Integer-coefficient polynomial, constant coefficient first.

    Values W(k) are computed in exact (arbitrary width) integer arithmetic;
    the vector path uses int64 only when a bound check proves no overflow.
    """

    def __init__(self, coefficients):
        coeffs = [int(c) for c in coefficients]
        if len(coeffs) < 2 or coeffs[-1] == 0:
            raise ParameterOutOfRange(
                "polynomial needs degree >= 1 with nonzero leading coefficient")
        self.coeffs = tuple(coeffs)
        self.degree = len(coeffs) - 1

    def __call__(self, k: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * k + c
        return acc

    def abs_bound(self, kmax: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * kmax + abs(c)
        return acc

    def eval_vec(self, k: np.ndarray):
        """Exact values; int64 array when safe, else list of Python ints."""
        k = np.asarray(k, dtype=np.int64)
        kmax = int(np.abs(k).max(initial=0))
        if self.abs_bound(kmax) < 2 ** 62:
            acc = np.zeros_like(k)
            for c in reversed(self.coeffs):
                acc = acc * k + c
            return acc
        return [self(int(v)) for v in k]

    def mod_vec(self, k: np.ndarray, G: int) -> np.ndarray:
        """Exact W(k) mod G as int64: Horner on k mod G, exact for G <= 2^31."""
        k = np.asarray(k, dtype=np.int64) % G
        acc = np.zeros_like(k)
        for c in reversed(self.coeffs):
            acc = (acc * k + c % G) % G
        return acc

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


@dataclass(frozen=True)
class PhaseSpec:
    """Phase data xi*W(k) + m*phi(k) on the dyadic-ish range (P, P1]."""
    xi: float
    W: IntPolynomial
    m: int
    tf: ThinFunction
    P: int
    P1: int

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise ParameterOutOfRange("xi must lie in [0, 1]")
        if not self.P < self.P1 <= 2 * self.P:
            raise ParameterOutOfRange("need P < P1 <= 2P")


def _frac_m_phi(tf: ThinFunction, m: int, ks: np.ndarray) -> np.ndarray:
    """Fractional parts of m*phi(k), escalating big products to 40 digits."""
    phis = tf.phi_vec(ks.astype(np.float64))
    f = frac_mul_vec(m, phis)
    big = np.flatnonzero(np.abs(np.float64(m) * phis) > EXTENDED_PHASE_LIMIT)
    for i in big:
        f[i] = tf.frac_m_phi_mp(m, int(ks[i]))
    return f


def phase_fracs(xi: float, W: IntPolynomial, m: int, tf: ThinFunction,
                ks: np.ndarray) -> np.ndarray:
    """{xi*W(k) + m*phi(k)} for an integer array k, in [0, 1)."""
    t = frac_mul_int_vec(xi, W.eval_vec(ks))
    if m != 0:
        t += _frac_m_phi(tf, m, ks)
        mod1(t, out=t)
    return t


def phase_terms(spec: PhaseSpec, ks: np.ndarray) -> np.ndarray:
    return e2pi(phase_fracs(spec.xi, spec.W, spec.m, spec.tf, ks))


def default_v(P1: int, q: int) -> float:
    """Split point of the decomposition: P1^((2^(q+1)-2)/(2^(2q+1)+2^q-2))."""
    return float(P1) ** ((2 ** (q + 1) - 2) / (2 ** (2 * q + 1) + 2 ** q - 2))


def lambda_exp_sum(pt: PrimeTable, spec: PhaseSpec) -> complex:
    """Direct sum of Lambda(k) e(xi W(k) + m phi(k)) over P < k <= P1."""
    if spec.P1 > pt.limit:
        raise RangeBeyondTable(f"P1={spec.P1} beyond table limit {pt.limit}")
    ks, lams = pt.prime_powers_in(spec.P, spec.P1)
    if ks.size == 0:
        return 0j
    return exact_sum((lams * phase_terms(spec, ks),))


def pi_v_array(pt: PrimeTable, v: float, upto: int) -> np.ndarray:
    """Pi_v(l) = sum over rs=l, r<=v, s<=v of Lambda(r) mu(s), for l <= upto."""
    out = np.zeros(upto + 1, dtype=np.float64)
    vi = int(v)
    if vi < 1:
        return out
    rs, lambdas = pt.prime_powers_in(0, min(vi, upto))
    mu = pt.mu_array(vi)
    svals = np.flatnonzero(mu != 0)
    musv = mu[svals].astype(np.float64)
    for r, lr in zip(rs, lambdas):
        prod = int(r) * svals
        mask = prod <= upto
        np.add.at(out, prod[mask], lr * musv[mask])
    return out


def xi_v_array(pt: PrimeTable, v: float, upto: int) -> np.ndarray:
    """Xi_v(l) = sum over d|l, d>v of mu(d) = [l=1] - sum over d|l, d<=v of
    mu(d) (Moebius inversion), for l <= upto."""
    out = np.zeros(upto + 1, dtype=np.float64)
    out[1:2] = 1.0
    mu = pt.mu_array(max(0, min(int(v), upto)))
    for d in np.flatnonzero(mu):
        out[d::d] -= mu[d]
    return out


# Most (l, k) pairs in one block of a split or bilinear sum.
PAIR_BLOCK = 2 ** 16


def _pair_blocks(ls: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Pairs (l, k) with l = ls[i] and lo[i] < k <= hi[i], as two aligned
    int64 arrays per block of at most PAIR_BLOCK pairs, in the order of i
    and then k.  A block may cut through one l's range: two searches find
    its first and last l, whose counts are clipped to the block."""
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    starts = ends - counts
    shift = hi + 1 - ends      # k = pair index + shift of its l
    total = int(ends[-1]) if ends.size else 0
    for a in range(0, total, PAIR_BLOCK):
        b = min(a + PAIR_BLOCK, total)
        first = int(np.searchsorted(ends, a, side="right"))
        last = int(np.searchsorted(ends, b - 1, side="right")) + 1
        reps = np.minimum(ends[first:last], b) - np.maximum(starts[first:last], a)
        yield (np.repeat(ls[first:last], reps),
               np.arange(a, b, dtype=np.int64) + np.repeat(shift[first:last], reps))


class VaughanSplit(NamedTuple):
    S1: complex
    S21: complex
    S22: complex
    S3: complex
    residual: float
    direct: complex


def vaughan_split(pt: PrimeTable, spec: PhaseSpec, v: float | None = None) -> VaughanSplit:
    """Four-way decomposition of the direct Lambda sum, with its residual.

    The identity behind the split holds pointwise for n > v (verified by
    brute force; the source statement's "v > n" is a typo), so the range
    (P, P1] is valid whenever P >= v; we require P > v.  Each summand is
    c(l, k) e(phase(kl)) with P < kl <= P1: S1 has c = mu(l) log k (l <= v),
    S21 and S22 c = Pi_v(l) (l <= v, v < l <= v^2), S3 c = Xi_v(l) Lambda(k)
    (l, k > v).  Only pairs with c != 0 are formed: l runs over the nonzero
    mu(l), Pi_v(l) or Xi_v(l), and S3's k over the prime powers, as an
    index range into the sorted prime powers up to P1/v for each l.  The
    phases are one table over (P, P1] that every summand reads, and the
    pairs of all four sums stream through exact_sum in blocks.  direct, the
    Lambda sum read from the same table, equals lambda_exp_sum(pt, spec);
    residual is |direct - (S1 - S21 - S22 + S3)| and must sit at
    accumulation noise, <= 1e-8 * (1 + |direct|).
    """
    P, P1 = spec.P, spec.P1
    if P1 > pt.limit:
        raise RangeBeyondTable(f"P1={P1} beyond table limit {pt.limit}")
    q = spec.W.degree
    if v is None:
        v = default_v(P1, q)
    v = float(v)
    check_split_point(P, v)
    vi, l3 = int(v), int(P1 / v)
    mu = pt.mu_array(vi)
    piv = pi_v_array(pt, v, min(vi * vi, P1))
    xiv = xi_v_array(pt, v, l3)
    base = phase_terms(spec, np.arange(P + 1, P1 + 1, dtype=np.int64))

    def support(per_l, l_lo, l_hi):
        """The l with l_lo < l <= l_hi and per_l[l] != 0."""
        return np.flatnonzero(per_l[l_lo + 1:l_hi + 1]) + (l_lo + 1)

    def split_sum(ls, lo, hi, coeff, ks=None):
        """Sum of coeff(l, j) e(phase(kl)) over lo[i] < j <= hi[i] for each
        l = ls[i], where k is j, or ks[j] when ks is given."""
        def terms(l, j):
            k = j if ks is None else ks[j]
            return coeff(l, j) * base[k * l - (P + 1)]
        return exact_sum(terms(l, j) for l, j in _pair_blocks(ls, lo, hi))

    ls = support(mu, 0, vi)
    S1 = split_sum(ls, P // ls, P1 // ls,
                   lambda l, k: mu[l] * np.log(k.astype(np.float64)))
    ls = support(piv, 0, vi)
    S21 = split_sum(ls, P // ls, P1 // ls, lambda l, k: piv[l])
    ls = support(piv, vi, min(vi * vi, P1))
    S22 = split_sum(ls, P // ls, P1 // ls, lambda l, k: piv[l])
    # max(P//l, vi) < k <= P1//l for each l as a range of indices into the
    # prime powers k <= P1/v, whose Lambda(k) = lk are lambda_array's values
    kp, lk = pt.prime_powers_in(0, l3)
    ls = support(xiv, vi, l3)
    S3 = split_sum(ls, np.searchsorted(kp, np.maximum(P // ls, vi), side="right") - 1,
                   np.searchsorted(kp, P1 // ls, side="right") - 1,
                   lambda l, j: xiv[l] * lk[j], ks=kp)
    ks, lams = pt.prime_powers_in(P, P1)
    direct = exact_sum((lams * base[ks - (P + 1)],))
    residual = abs(direct - (S1 - S21 - S22 + S3))
    return VaughanSplit(S1, S21, S22, S3, residual, direct)


def check_split_point(P: int, v: float) -> None:
    """vaughan_split's rule for its split point v."""
    if not v >= 2:     # nan too
        raise ParameterOutOfRange("v must be >= 2")
    if P <= v:
        raise RegimeViolation(f"P={P} <= v={v}: identity regime needs n > v")


class VdcCheck(NamedTuple):
    sum_abs: float
    bound: float
    constant: float


def check_vdc_args(N: int, k: int, log_eta: float, r: float) -> None:
    """vdc_bound_check's rules for N, the derivative order and the bracket.

    eta is passed as its natural log (-inf when eta <= 0), so an eta such
    as k! beta that would overflow a float is refused before it is formed.
    N^k max(eta, 1) <= e^709 keeps N^k, eta and N^k eta finite floats, and
    N is held to the prime table's memory guard, as the sum takes O(N)."""
    if N > MAX_LIMIT:
        raise LimitTooLarge(f"N={N} exceeds the 2^34 memory guard")
    if k < 2:
        raise ParameterOutOfRange("k must be >= 2")
    if not log_eta > -math.inf:
        raise ParameterOutOfRange("eta must be positive (derivative bracket)")
    if r < 1:
        raise ParameterOutOfRange("r must be >= 1")
    if k > (709.0 - max(log_eta, 0.0)) / math.log(max(N, 2)):
        raise ParameterOutOfRange(f"N^k eta overflows a float (N={N}, k={k})")


# Most n in one block of a vdc_bound_check sum.
VDC_BLOCK = 2 ** 20


def vdc_bound_check(F: Callable, N: int, k: int, eta: float, r: float) -> VdcCheck:
    """Measured |sum_{1<=n<=N} e(F(n))| against the k-th derivative bound.

    The caller certifies eta <= |F^(k)| <= r*eta on [1, N].  F is applied
    elementwise to float64 arrays of n, block by block (at most VDC_BLOCK
    n at a time), and the terms stream through exact_sum, so memory stays
    bounded in N and the sum does not depend on the blocking.  bound is
    r*N*(eta^(1/(2^k-2)) + N^(-2/2^k) + (N^k eta)^(-2/2^k)) with implied
    constant 1; constant = sum_abs / bound is the empirical constant.
    """
    check_vdc_args(N, k, math.log(eta) if eta > 0 else -math.inf, r)

    def terms():
        for a in range(1, N + 1, VDC_BLOCK):
            vals = F(np.arange(a, min(a + VDC_BLOCK, N + 1), dtype=np.float64))
            yield e2pi(mod1(np.asarray(vals, dtype=np.float64)))
    s = exact_sum(terms())
    sum_abs = abs(s)
    bound = r * N * (eta ** (1.0 / (2 ** k - 2)) + N ** (-2.0 / 2 ** k)
                     + (float(N) ** k * eta) ** (-2.0 / 2 ** k))
    return VdcCheck(sum_abs, bound, sum_abs / bound)


class BilinearBound(NamedTuple):
    value: complex
    bound: float
    constant: float


def check_bilinear_sizes(K: int, L: int, m: int) -> None:
    """bilinear_sum_bound's rules for the block sizes and the frequency m."""
    if L < 2 or K < 2:
        raise ParameterOutOfRange("need L, K >= 2")
    _check_hull(K + L, np.complex128, "bilinear weight pair")
    if m == 0:
        raise HypothesisViolated("m=0: the bilinear estimate needs m != 0")


def bilinear_sum_bound(delta1: np.ndarray, delta2: np.ndarray,
                       spec: PhaseSpec) -> BilinearBound:
    """Bilinear form over (L,2L] x (K,2K] restricted to P < kl <= P1.

    delta1 lives on l = L+1..2L (so L = len(delta1)), delta2 on
    k = K+1..2K.  The two size hypotheses and the moment conditions of the
    bilinear estimate are checked numerically before summation and a
    HypothesisViolated names the failing one with both sides.  The pairs
    stream through exact_sum in blocks, with one phase_fracs call per block.
    """
    delta1 = np.asarray(delta1, dtype=np.complex128)
    delta2 = np.asarray(delta2, dtype=np.complex128)
    L, K = len(delta1), len(delta2)
    m, tf = spec.m, spec.tf
    check_bilinear_sizes(K, L, m)
    q = spec.W.degree
    mn = min(K, L)
    e1 = (2 ** (2 * q + 1) + 2 ** q - 2) / (2 ** (q + 1) - 2)
    phiKL = tf.phi(float(K) * L)
    if not phiKL <= mn ** e1:
        raise HypothesisViolated(
            f"phi(KL)={phiKL:.6g} > min(K,L)^{e1:.6g}={mn ** e1:.6g}")
    e2 = (2 ** (q + 1) - 2) / 2 ** q
    sKL = tf.sigma(float(K) * L) * phiKL
    lhs2, rhs2 = abs(m) * mn ** e2, sKL ** e2
    if not lhs2 <= rhs2:
        raise HypothesisViolated(
            f"|m| min^((2^(q+1)-2)/2^q)={lhs2:.6g} > (sigma phi)^(...)={rhs2:.6g}")
    mom1 = float(np.sum(np.abs(delta1) ** 2))
    mom2 = float(np.sum(np.abs(delta2) ** 2))
    cap1, cap2 = 100 * L * math.log(L) ** 3, 100 * K * math.log(K) ** 3
    if mom1 > cap1:
        raise HypothesisViolated(f"sum|Delta1|^2={mom1:.6g} > 100 L log^3 L={cap1:.6g}")
    if mom2 > cap2:
        raise HypothesisViolated(f"sum|Delta2|^2={mom2:.6g} > 100 K log^3 K={cap2:.6g}")

    ls = np.arange(L + 1, 2 * L + 1, dtype=np.int64)
    value = exact_sum(
        delta1[l - L - 1] * delta2[k - K - 1]
        * e2pi(phase_fracs(spec.xi, spec.W, m, tf, k * l))
        for l, k in _pair_blocks(ls, np.maximum(K, spec.P // ls),
                                 np.minimum(2 * K, spec.P1 // ls)))
    e3 = (2 ** (q + 1) - 2) / (2 ** q * (2 ** (q + 2) - 2))
    bound = (abs(m) ** (1.0 / (2 ** (q + 2) - 2)) * math.log(L) ** 2
             * math.log(K) ** 2 * sKL ** (-e3) * mn ** e3 * K * L)
    return BilinearBound(value, bound, abs(value) / bound)


@dataclass
class DecayProfile:
    """Sup-over-xi gap between the two prime sums at dyadic N, with a fit."""
    entries: list              # (N, gap, gap / N)
    fitted_exponent: float | None
    xi_grid_size: int

    @property
    def exact_zero(self) -> bool:
        return all(gap == 0.0 for _, gap, _ in self.entries)


DYADIC_START = 16
MAX_XI_GRID = 2 ** 31      # W(p) mod G by int64 Horner is exact up to here


def grid_sup_gaps(thin_p: np.ndarray, thin_w: np.ndarray, full_p: np.ndarray,
                  full_w: np.ndarray, W: IntPolynomial, G: int,
                  cutoffs) -> np.ndarray:
    """sup over xi = j/G of |thin sum - full sum| at each ascending cutoff N.

    Each sum is sum w(p) e(xi W(p)) over ascending p <= N.  At xi = j/G the
    phase depends only on r = W(p) mod G, reduced exactly, so the difference
    is the DFT of the weights bucketed by r, thin minus full; one running
    bucket vector takes each cutoff's new primes.  The buckets are real, so
    the rfft half of the spectrum holds every magnitude.
    """
    if not 1 <= G <= MAX_XI_GRID:
        raise ParameterOutOfRange(f"xi grid size must lie in [1, 2^31], got {G}")
    r_thin, r_full = W.mod_vec(thin_p, G), W.mod_vec(full_p, G)
    ends_thin = np.searchsorted(thin_p, cutoffs, side="right")
    ends_full = np.searchsorted(full_p, cutoffs, side="right")
    d = np.zeros(G)
    gaps = np.empty(len(ends_thin))
    a = b = 0
    for i, (a1, b1) in enumerate(zip(ends_thin, ends_full)):
        d += np.bincount(r_thin[a:a1], thin_w[a:a1], minlength=G)
        d -= np.bincount(r_full[b:b1], full_w[b:b1], minlength=G)
        gaps[i] = np.abs(np.fft.rfft(d)).max()
        a, b = a1, b1
    return gaps


def check_decay_args(xi_grid_size: int, N_max: int) -> None:
    """formlem_decay's rules for its grid size and largest level."""
    if not 64 <= xi_grid_size <= MAX_XI_GRID:
        raise ParameterOutOfRange("xi grid must have between 64 and 2^31 points")
    # the bucket vector (G floats) and its rfft (G/2 + 1 complex values)
    _check_hull(xi_grid_size, np.complex128, "xi grid")
    if N_max < DYADIC_START or N_max & (N_max - 1):
        raise ParameterOutOfRange("N_max must be a power of two >= 16")


def formlem_decay(pt: PrimeTable, W: IntPolynomial, xi_grid_size: int,
                  N_max: int, tps: ThinPrimeSet) -> DecayProfile:
    """gap(N) = sup over xi = j/G of |G_tilde - F_tilde|, N dyadic.

    Dyadic N runs from 16 to N_max and G = xi_grid_size; tps is the thin
    set, enumerated to N_max.  xi is the exact rational j/G and each
    gap is one DFT (grid_sup_gaps).
    """
    check_decay_args(xi_grid_size, N_max)
    if N_max > pt.limit:
        raise RangeBeyondTable(f"N_max={N_max} beyond table limit {pt.limit}")
    levels = dyadic(DYADIC_START, N_max)
    full_p = pt.primes_in(1, N_max)
    sup = grid_sup_gaps(tps.primes, tps.weights, full_p,
                        np.log(full_p.astype(np.float64)), W, xi_grid_size,
                        levels)
    entries = [(n, float(g), float(g) / n) for n, g in zip(levels, sup)]
    pos = [(n, g) for n, g, _ in entries if g > 0.0]
    fitted = None
    if len(pos) >= 2:
        lx = np.log([n for n, _ in pos])
        ly = np.log([g for _, g in pos])
        fitted = float(np.polyfit(lx, ly, 1)[0])
    return DecayProfile(entries, fitted, xi_grid_size)
