"""Segmented smallest-prime-factor sieve and thin prime set enumeration.

The PrimeTable stores spf(n) for 2 <= n <= N, built segment by segment
(2^20 entries per segment) so the marking loops stay cache resident.  The
pointwise queries (factorization, von Mangoldt) factor through spf in
O(log n).  Thin prime sets are enumerated from the defining floor values
floor(h(n)); every floor decision here is a call of ThinFunction's
certified floor route.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LimitMismatch, LimitTooLarge
from .thinfn import ThinFunction

SEGMENT = 1 << 20
MAX_LIMIT = 1 << 34


def _base_primes(n: int) -> np.ndarray:
    """Dense sieve of Eratosthenes up to n inclusive."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).astype(np.int64)


class PrimeTable:
    """Smallest-prime-factor table for 2..limit with arithmetic queries."""

    def __init__(self, limit: int, spf: np.ndarray, primes: np.ndarray):
        self.limit = int(limit)
        self.spf = spf
        self.primes = primes.astype(np.int64, copy=False)

    def pi(self, x: int) -> int:
        if x > self.limit:
            raise LimitMismatch(f"pi({x}) beyond table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))

    def primes_in(self, a: int, b: int) -> np.ndarray:
        """Primes p with a < p <= b."""
        if b > self.limit:
            raise LimitMismatch(f"range ({a}, {b}] beyond table limit")
        ps = self.primes
        return ps[np.searchsorted(ps, a, side="right"):
                  np.searchsorted(ps, b, side="right")]

    def factorize(self, n: int) -> list[tuple[int, int]]:
        if not 2 <= n <= self.limit:
            raise LimitMismatch(f"{n} outside table range")
        out = []
        while n > 1:
            p = int(self.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def lambda_(self, n: int) -> float:
        """von Mangoldt: log p when n = p^m, else 0."""
        if n < 2:
            return 0.0
        if n > self.limit:
            raise LimitMismatch(f"{n} outside table range")
        p = int(self.spf[n])
        while n % p == 0:
            n //= p
        return math.log(p) if n == 1 else 0.0

    def prime_powers_in(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """All k with a < k <= b and Lambda(k) != 0, with their log p values."""
        if b > self.limit:
            raise LimitMismatch(f"range ({a}, {b}] beyond table limit")
        ks = [self.primes_in(a, b).astype(np.int64)]
        vals = [np.log(ks[0].astype(np.float64))]
        for p in self.primes_in(1, math.isqrt(b)):
            p = int(p)
            q = p * p
            lp = math.log(p)
            while q <= b:
                if q > a:
                    ks.append(np.array([q], dtype=np.int64))
                    vals.append(np.array([lp]))
                q *= p
        k = np.concatenate(ks)
        v = np.concatenate(vals)
        order = np.argsort(k, kind="stable")
        return k[order], v[order]

    def lambda_array(self, b: int) -> np.ndarray:
        """Dense Lambda(n) for 0 <= n <= b."""
        ks, vals = self.prime_powers_in(0, b)
        out = np.zeros(b + 1, dtype=np.float64)
        out[ks] = vals
        return out

    def mu_array(self, b: int) -> np.ndarray:
        """Dense mu(n) for 0 <= n <= b via a divisor sieve."""
        if b > self.limit:
            raise LimitMismatch(f"mu range {b} beyond table limit")
        mu = np.ones(b + 1, dtype=np.int64)
        mu[0] = 0
        for p in self.primes_in(1, b):
            p = int(p)
            mu[p::p] *= -1
            if p * p <= b:
                mu[p * p:: p * p] = 0
        return mu


def _in_order(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on `threads` workers if there are several."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _fill_segment(spf, lo, hi, base):
    """Mark spf for indices [lo, hi); base primes descending, so the
    smallest prime factor writes last."""
    for p in base[::-1].tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            spf[start:hi:p] = p


def build_prime_table(N: int, threads: int = 1) -> PrimeTable:
    """Sieve spf for 2..N in 2^20-entry segments.

    Queries factorize(n) and lambda_(n) then run in O(log n) through spf.
    Segments are independent and may be filled in parallel.
    """
    if N < 2:
        raise LimitTooLarge("N must be at least 2")
    if N > MAX_LIMIT:
        raise LimitTooLarge(f"N={N} exceeds the 2^34 memory guard")
    dtype = np.uint32 if N < (1 << 32) else np.int64
    spf = np.zeros(N + 1, dtype=dtype)
    base = _base_primes(math.isqrt(N))
    _in_order(lambda lo: _fill_segment(spf, lo, min(lo + SEGMENT, N + 1), base),
              range(2, N + 1, SEGMENT), threads)
    primes = np.flatnonzero(spf[2:] == 0) + 2    # unmarked means prime
    spf[primes] = primes
    return PrimeTable(N, spf, primes)


@dataclass
class ThinPrimeSet:
    """Enumerated thin primes up to limit with canonical weights.

    weights[i] = log(p_i) / phi'(p_i); witnesses[i] is the smallest n with
    floor(h(n)) = p_i.
    """
    tf: ThinFunction
    limit: int
    primes: np.ndarray
    weights: np.ndarray
    witnesses: np.ndarray

    def count(self, x: int | None = None) -> int:
        if x is None:
            return len(self.primes)
        return int(np.searchsorted(self.primes, x, side="right"))

    def prefix(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        k = self.count(x)
        return self.primes[:k], self.weights[:k]

    def indicator(self, upto: int) -> np.ndarray:
        """Boolean membership array of length upto+1."""
        arr = np.zeros(upto + 1, dtype=bool)
        arr[self.primes[: self.count(upto)]] = True
        return arr


def _thin_chunk(tf: ThinFunction, pt: PrimeTable, N: int, lo: int, hi: int):
    """(primes, witnesses) among floor(h(n)) for n in [lo, hi), in n order."""
    ns = np.arange(lo, hi, dtype=np.int64)
    ps = tf.floor_h_vec(ns)
    keep = (ps >= 2) & (ps <= N)
    ps, ns = ps[keep], ns[keep]
    # spf lookup needs int indexing; ps fits the table by construction
    prime_mask = pt.spf[ps] == ps.astype(pt.spf.dtype)
    return ps[prime_mask], ns[prime_mask]


def enumerate_thin_primes(tf: ThinFunction, pt: PrimeTable, N: int,
                          threads: int = 1) -> ThinPrimeSet:
    """All primes p <= N of the form floor(h(n)), with weights attached.

    Iterates n from ceil(x0) to floor(phi(N+1)) + 1, deduplicates colliding
    floor values (consecutive n share floor(h(n)) wherever h' < 1, as for
    Ch < 1) and keeps the smallest witness n per prime.  n is taken in
    chunks of SEGMENT values, mapped serially or over `threads` workers; the
    chunks are merged in index order, so the set and its witnesses do not
    depend on thread count.
    """
    if N > pt.limit:
        raise LimitMismatch(f"N={N} beyond table limit {pt.limit}")
    n_lo = math.ceil(tf.x0)
    if N + 1 < tf.h_x0 or N < 2:
        return ThinPrimeSet(tf, N, np.empty(0, np.int64), np.empty(0),
                            np.empty(0, np.int64))
    if tf.h_x0 < 2.0:
        # values h(n) < 2 cannot produce a prime; skipping them keeps exact
        # integer hits like h(1) = 1 away from the floor guard
        n_lo = max(n_lo, math.ceil(tf.phi(2.0) - 1e-9))
    n_hi = math.floor(tf.phi(float(N + 1))) + 1
    parts = _in_order(
        lambda lo: _thin_chunk(tf, pt, N, lo, min(lo + SEGMENT, n_hi + 1)),
        range(n_lo, n_hi + 1, SEGMENT), threads)
    ps, wit = (np.concatenate(col) for col in zip(*parts))
    uniq, first = np.unique(ps, return_index=True)
    wit = wit[first]
    weights = tf.weight_vec(uniq.astype(np.float64))
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise DomainError("nonpositive or nonfinite weight encountered")
    return ThinPrimeSet(tf, N, uniq, weights, wit)


def check_checkpoints(checkpoints, limit: int) -> None:
    """density_profile's rule: no checkpoint lies beyond the limit."""
    for x in checkpoints:
        if x > limit:
            raise LimitMismatch(f"checkpoint {x} beyond limit {limit}")


def density_profile(tps: ThinPrimeSet, checkpoints) -> list[tuple[int, int, float]]:
    """Rows (x, pi_h(x), pi_h(x) * log x / phi(x)) for the given checkpoints."""
    checkpoints = [int(x) for x in checkpoints]
    check_checkpoints(checkpoints, tps.limit)
    rows = []
    for x in checkpoints:
        cnt = tps.count(x)
        ratio = cnt * math.log(x) / tps.tf.phi(float(x)) if x >= tps.tf.h_x0 else float("nan")
        rows.append((x, cnt, ratio))
    return rows
