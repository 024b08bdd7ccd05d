"""Reference implementations that tests compare the library against.

Each is an independent or slower route to a value a command computes:
membership of one prime by scanning n or by the floor-difference
criterion on the certified floor(-phi), the crossover of the two over a
range, the singular series at one target by trial division, the two
weighted prime sums at one xi, the direct Goldbach counts by one
gather per pair-count point, and the Moebius function at one n by
factoring through the prime table.
"""

from __future__ import annotations

import math

import numpy as np

from thinprimes._num import e2pi, frac_mul_int_vec, fsum_complex
from thinprimes.errors import DomainError, ParameterOutOfRange, RangeBeyondTable
from thinprimes.expsum import IntPolynomial
from thinprimes.goldbach import SingularSeries
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
    """(S_paper, S_classical, tail_bound) for the ternary problem at N.

    S_paper follows the displayed product prod_p (1 - 1/(p-1)^3) *
    prod_{p|N} (1 - 1/(p^2-3p+3)); its p=2 factor is (1 - 1/1) = 0, so the
    printed form vanishes identically and is reported verbatim.
    S_classical is the Vinogradov form prod_{p|N} (1 - 1/(p-1)^2) *
    prod_{p not | N} (1 + 1/(p-1)^3).  tail_bound = 1/(2 cutoff^2).
    One N is factored by trial division; a run over many targets builds one
    SingularSeries and factors each target through its prime table.
    """
    series = SingularSeries(cutoff)
    divisors = []
    n = N
    d = 2
    while d * d <= n:
        if n % d == 0:
            divisors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        divisors.append(n)
    return series(divisors)


def mobius(pt: PrimeTable, n: int) -> int:
    """Moebius mu(n) from n's factorization in pt: the scalar oracle of
    PrimeTable.mu_array."""
    if n == 1:
        return 1
    sign = 1
    for _, e in pt.factorize(n):
        if e >= 2:
            return 0
        sign = -sign
    return sign


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
