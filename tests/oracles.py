"""Reference implementations that tests compare the library against.

Each is an independent or slower route to a value a command computes:
membership of one prime by scanning n or by the floor-difference
criterion on the certified floor(-phi), the crossover of the two over a
range, the singular series at one target by trial division, the Goldbach
main term at one target from scalar phi and math.log, the exactly
rounded complex sum by the standard library's math.fsum, the two
weighted prime sums at one xi, the direct Goldbach counts by one
gather per pair-count point, the Moebius and von Mangoldt functions at
one n by factoring through the prime table's spf, Abel summation with one
call of u and g per n, the two-product's fractional parts reduced by
numpy's remainder, and the oscillation sum by a scan of Z_eps per block
with one Python complex average per point.
"""

from __future__ import annotations

import math

import numpy as np

from thinprimes._num import e2pi, exact_sum, frac_mul_int_vec, two_prod
from thinprimes.ergodic import _orbit_values, zeps_grid
from thinprimes.errors import (
    DomainError,
    EmptySet,
    LimitMismatch,
    ParameterOutOfRange,
    RangeBeyondTable,
)
from thinprimes.expsum import IntPolynomial
from thinprimes.sieve import PrimeTable, ThinPrimeSet, enumerate_thin_primes
from thinprimes.thinfn import ThinFunction, _certified_floor

CROSS_CHECK_BELOW = 10 ** 4


def floor_neg_phi_vec(tf: ThinFunction, xs) -> np.ndarray:
    """floor(-phi(x)) as int64, certified by thinfn._certified_floor."""
    xs = np.asarray(xs, dtype=np.float64)
    if tf.is_identity:
        return np.floor(-xs).astype(np.int64)
    return _certified_floor(-tf.phi_vec(xs), lambda x: -tf.phi_mp(x), xs, "phi")


def thin_membership(tf: ThinFunction, p: int, mode: str | None = None) -> bool:
    """Is the prime p a value floor(h(n))?

    direct          scans n in [ceil(phi(p))-1, floor(phi(p+1))+1]
    floor_criterion checks floor(-phi(p)) - floor(-phi(p+1)) == 1
    cross_check     runs both and raises AssertionError on mismatch

    The floor criterion is only guaranteed for sufficiently large p, so the
    default mode cross-checks below p = 10^4 and uses the fast criterion
    above (the crossover is measured per function, see
    floor_criterion_threshold).
    """
    if mode is None:
        mode = "cross_check" if p < CROSS_CHECK_BELOW else "floor_criterion"
    if p < tf.h_x0 * (1 - 1e-12):
        raise DomainError(f"p={p} below h(x0)={tf.h_x0}")
    if mode not in ("direct", "floor_criterion", "cross_check"):
        raise ParameterOutOfRange(f"unknown mode {mode!r}")
    direct = criterion = None
    if mode in ("direct", "cross_check"):
        lo = math.ceil(tf.phi(float(p))) - 1
        hi = math.floor(tf.phi(float(p + 1))) + 1
        lo = max(lo, math.ceil(tf.x0))
        # float pre-filter: only n with h(n) near [p, p+1) can floor to p
        direct = any(p - 0.5 < tf.h(float(n)) < p + 1.5 and tf.floor_h(n) == p
                     for n in range(lo, hi + 1))
        if mode == "direct":
            return direct
    a, b = floor_neg_phi_vec(tf, [p, p + 1])
    criterion = bool(a - b == 1)
    if mode == "floor_criterion":
        return criterion
    if direct != criterion:
        raise AssertionError(
            f"p={p}: direct={direct} floor_criterion={criterion}")
    return direct


def floor_criterion_threshold(tf: ThinFunction, pt: PrimeTable, limit: int) -> int | None:
    """Largest prime <= limit where the two membership tests disagree.

    The floor-difference criterion only holds for sufficiently large p; this
    measures the crossover for a concrete ThinFunction.  None means full
    agreement over the scanned range.  Direct membership is read from the
    enumerated set, and the criterion is two bulk floor(-phi) calls.
    """
    ps = pt.primes_in(int(math.ceil(tf.h_x0)) - 1, limit)
    xs = ps.astype(np.float64)
    crit = floor_neg_phi_vec(tf, xs) - floor_neg_phi_vec(tf, xs + 1.0) == 1
    direct = enumerate_thin_primes(tf, pt, limit).indicator(limit)[ps]
    bad = np.flatnonzero(crit != direct)
    return int(ps[bad[-1]]) if bad.size else None


def singular_series(N: int, cutoff: int) -> tuple[float, float, float]:
    """(S_paper, S_classical, tail_bound) for the ternary problem at N, with
    its own sieve and trial division.

    S_paper follows the displayed product prod_p (1 - 1/(p-1)^3) *
    prod_{p|N} (1 - 1/(p^2-3p+3)); its p=2 factor is (1 - 1/1) = 0, so the
    printed form vanishes identically and is reported verbatim.
    S_classical is the Vinogradov form prod_{p|N} (1 - 1/(p-1)^2) *
    prod_{p not | N} (1 + 1/(p-1)^3), one factor per prime up to the cutoff
    in ascending order, then one per prime divisor above the cutoff in the
    iteration order of the set of N's distinct primes.
    tail_bound = 1/(2 cutoff^2).
    """
    sieve = bytearray(b"\x01") * (cutoff + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(cutoff) + 1):
        if sieve[i]:
            sieve[i * i:: i] = b"\x00" * ((cutoff - i * i) // i + 1)
    divisors = set()
    n = N
    d = 2
    while d * d <= n:
        if n % d == 0:
            divisors.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        divisors.add(n)
    s_paper_all = 1.0
    s_classical = 1.0
    for p in range(2, cutoff + 1):
        if not sieve[p]:
            continue
        s_paper_all *= 1.0 - 1.0 / (p - 1) ** 3
        if p in divisors:
            s_classical *= 1.0 - 1.0 / (p - 1) ** 2
        else:
            s_classical *= 1.0 + 1.0 / (p - 1) ** 3
    for p in divisors:
        s_paper_all *= 1.0 - 1.0 / (p * p - 3 * p + 3)
    for p in [p for p in divisors if p > cutoff]:
        s_classical *= (1.0 - 1.0 / (p - 1) ** 2) / (1.0 + 1.0 / (p - 1) ** 3)
    return s_paper_all, s_classical, 1.0 / (2.0 * cutoff * cutoff)


def goldbach_main_term(tfs, n: int, s_used: float, R: int) -> tuple[float, float]:
    """(main_term, ratio) of goldbach_reports at one target n, from the
    scalar phi of each function and math.log: S(n) phi1 phi2 phi3 /
    (n log^3 n), and R over it."""
    phis = [t.phi(float(n)) for t in tfs]
    main = s_used * phis[0] * phis[1] * phis[2] / (n * math.log(n) ** 3)
    return main, (R / main if main > 0 else math.inf)


def factorize(pt: PrimeTable, n: int) -> list[tuple[int, int]]:
    """[(p, e)] for n's prime powers in ascending p, through pt's spf."""
    if not 2 <= n <= pt.limit:
        raise LimitMismatch(f"{n} outside table range")
    out = []
    while n > 1:
        p = int(pt.spf[n]) or n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def mobius(pt: PrimeTable, n: int) -> int:
    """Moebius mu(n) from n's factorization in pt: the scalar oracle of
    PrimeTable.mu_array."""
    if n == 1:
        return 1
    sign = 1
    for _, e in factorize(pt, n):
        if e >= 2:
            return 0
        sign = -sign
    return sign


def von_mangoldt(pt: PrimeTable, n: int) -> float:
    """von Mangoldt Lambda(n), log p when n = p^m and else 0, from n's
    smallest prime factor in pt: the scalar oracle of PrimeTable.lambda_array."""
    if n < 2:
        return 0.0
    if n > pt.limit:
        raise LimitMismatch(f"{n} outside table range")
    p = int(pt.spf[n]) or n
    while n % p == 0:
        n //= p
    return math.log(p) if n == 1 else 0.0


def abel_summation_per_n(u, g, a: float, b: float) -> tuple[float, float, float]:
    """averages.abel_summation over a < n <= b, with u and g callables
    evaluated one n at a time and g(b) taken at b itself."""
    n_lo, n_hi = math.floor(a) + 1, math.floor(b)
    if n_hi < n_lo:
        return 0.0, 0.0, 0.0
    ns = np.arange(n_lo, n_hi + 1)
    uv = np.array([float(u(int(n))) for n in ns])
    gv = np.array([float(g(int(n))) for n in ns])
    lhs = exact_sum((uv * gv,)).real
    U = np.cumsum(uv)
    g_ends = np.append(gv[1:], float(g(b)))
    rhs = float(U[-1]) * float(g(b)) - exact_sum((U * (g_ends - gv),)).real
    return lhs, rhs, abs(lhs - rhs)


def direct_counts(p1s: np.ndarray, p2s: np.ndarray, i3: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
    """Exact R(n) per target from one table of pair counts C23(m).

    C23(m) sums over p2 <= m - 2 only (so m - p2 >= 2 indexes i3 directly),
    and is evaluated at the points m = n - p1 that some target needs, one
    gather of i3 per point.
    """
    k1 = np.searchsorted(p1s, targets, side="right")
    need = np.zeros(len(i3), dtype=bool)
    for n, k in zip(targets.tolist(), k1.tolist()):
        need[n - p1s[:k]] = True
    ms = np.flatnonzero(need)
    k2 = np.searchsorted(p2s, ms - 2, side="right")
    c23 = np.zeros(len(i3), dtype=np.int64)
    for m, k in zip(ms.tolist(), k2.tolist()):
        c23[m] = np.count_nonzero(i3[m - p2s[:k]])
    return np.array([c23[n - p1s[:k]].sum()
                     for n, k in zip(targets.tolist(), k1.tolist())],
                    dtype=np.int64)


def fsum_complex(terms) -> complex:
    """Exactly rounded sum of a complex array: math.fsum on each part."""
    t = np.asarray(terms, dtype=np.complex128)
    return complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist()))


def weighted_prime_sums(tps: ThinPrimeSet, pt: PrimeTable, W: IntPolynomial,
                        xi: float, N: int) -> tuple[complex, complex]:
    """(G_tilde, F_tilde): weighted thin-prime and log-weighted full sums.

    G_tilde = sum over thin p <= N of w(p) e(xi W(p)); F_tilde the same
    with log p over all primes <= N.  Ascending p, fsum accumulation.
    """
    if N > tps.limit or N > pt.limit:
        raise RangeBeyondTable(f"N={N} beyond enumerated or sieved limit")
    thin_p, thin_w = tps.prefix(N)
    g = 0j
    if thin_p.size:
        g = fsum_complex(thin_w * e2pi(frac_mul_int_vec(xi, W.eval_vec(thin_p))))
    full_p = pt.primes_in(1, N)
    f = 0j
    if full_p.size:
        logs = np.log(full_p.astype(np.float64))
        f = fsum_complex(logs * e2pi(frac_mul_int_vec(xi, W.eval_vec(full_p))))
    return g, f


def frac_mul_vec(xi: float, w: np.ndarray) -> np.ndarray:
    """_num.frac_mul_vec with each reduction mod 1 taken by % 1.0."""
    p, e = two_prod(np.float64(xi), w)
    return ((p % 1.0) + (e % 1.0)) % 1.0


def oscillation_sum(sys, f, x, tps: ThinPrimeSet, pt: PrimeTable,
                    W: IntPolynomial, breaks, eps: float) -> float:
    """ergodic.oscillation_sum by a scan of Z_eps per block: A^1 at each
    point is a Python complex divided by N, and each block's sup is
    max(sup, abs(A^1_N - A^1_{N_j})) from 0.0."""
    nmax = breaks[-1]
    if nmax > tps.limit or nmax > pt.limit:
        raise RangeBeyondTable("breaks beyond enumerated or sieved limit")
    ps, ws = tps.prefix(nmax)
    if ps.size == 0:
        raise EmptySet("no thin primes below the last break")
    cum = np.cumsum(ws * _orbit_values(sys, f, x, ps, W))

    def a1(n: int) -> complex:
        cnt = int(np.searchsorted(ps, n, side="right"))
        return (complex(cum[cnt - 1]) if cnt else 0j) / n

    zgrid = zeps_grid(eps, nmax)
    total = []
    for nj, nj1 in zip(breaks, breaks[1:]):
        base = a1(nj)
        sup = 0.0
        for n in zgrid:
            if nj < n <= nj1:
                sup = max(sup, abs(a1(n) - base))
        total.append(sup)
    return exact_sum((total,)).real
