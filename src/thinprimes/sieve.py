"""Segmented smallest-prime-factor sieve and thin prime set enumeration.

The PrimeTable stores spf(n) for composite n <= N and 0 for primes (and for
0 and 1), built segment by segment (2^20 entries per segment) so the marking
loops stay cache resident.  A composite n <= N has a prime factor at most
isqrt(N), so below N = 2^32 the table is uint16, 2(N+1) bytes, and uint32,
4(N+1) bytes, above.  Factoring through spf takes O(log n) steps per number,
or per vector pass over many.  Thin prime sets are enumerated from the
defining floor values floor(h(n)), in units of SEGMENT values of n that are
each evaluated THIN_BLOCK values at a time, so the vector passes stay in
cache; every floor decision here is a call of ThinFunction's certified floor
route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LimitMismatch, LimitTooLarge
from .thinfn import ThinFunction

SEGMENT = 1 << 20
THIN_BLOCK = 1 << 16
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
    """Smallest-prime-factor table for 2..limit with arithmetic queries.

    spf[n] is the smallest prime factor of a composite n and 0 for a prime
    n (and for n < 2); see build_prime_table for its dtype and size.
    """

    def __init__(self, limit: int, spf: np.ndarray, primes: np.ndarray):
        self.limit = int(limit)
        self.spf = spf
        self.primes = primes.astype(np.int64, copy=False)

    def pi(self, x: int) -> int:
        if x > self.limit:
            raise LimitMismatch(f"pi({x}) beyond table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))

    def prefix(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """The primes p <= x and their weights log p."""
        ps = self.primes[:self.pi(x)]
        return ps, np.log(ps.astype(np.float64))

    def primes_in(self, a: int, b: int) -> np.ndarray:
        """Primes p with a < p <= b."""
        if b > self.limit:
            raise LimitMismatch(f"range ({a}, {b}] beyond table limit")
        ps = self.primes
        return ps[np.searchsorted(ps, a, side="right"):
                  np.searchsorted(ps, b, side="right")]

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
    """[fn(x) for x in items], on `threads` workers if there are several.

    fn must stay inside sieve and thinfn: the command line loads its other
    modules lazily, and a lazy module's first load is not thread-safe."""
    if threads > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor   # pulls in logging
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _fill_segment(spf, lo, hi, base) -> np.ndarray:
    """Mark spf for indices [lo, hi) and return the primes among them, the
    entries left 0; base primes descending, so the smallest prime factor
    writes last."""
    for p in base[::-1].tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            spf[start:hi:p] = p
    return np.flatnonzero(spf[lo:hi] == 0) + lo


def build_prime_table(N: int, threads: int = 1) -> PrimeTable:
    """Sieve spf for 2..N in 2^20-entry segments.

    The table is uint16 below N = 2^32 and uint32 up to MAX_LIMIT; a table
    that cannot be allocated raises LimitTooLarge with its byte count.
    A number then factors through spf in O(log n) steps.
    Segments are independent and may be filled in parallel; each returns
    its primes, concatenated in segment order.
    """
    if N < 2:
        raise LimitTooLarge("N must be at least 2")
    if N > MAX_LIMIT:
        raise LimitTooLarge(f"N={N} exceeds the 2^34 memory guard")
    dtype = np.dtype(np.uint16 if N < (1 << 32) else np.uint32)
    try:
        spf = np.zeros(N + 1, dtype=dtype)
    except MemoryError:
        raise LimitTooLarge(f"N={N}: the spf table of {(N + 1) * dtype.itemsize} "
                            "bytes could not be allocated") from None
    base = _base_primes(math.isqrt(N))
    parts = _in_order(
        lambda lo: _fill_segment(spf, lo, min(lo + SEGMENT, N + 1), base),
        range(2, N + 1, SEGMENT), threads)
    return PrimeTable(N, spf, np.concatenate(parts))


@dataclass
class ThinPrimeSet:
    """Enumerated thin primes up to limit with canonical weights.

    primes ascend, and weights[i] = log(p_i) / phi'(p_i).
    """
    tf: ThinFunction
    limit: int
    primes: np.ndarray
    weights: np.ndarray

    def count(self, x: int | None = None) -> int:
        if x is None:
            return len(self.primes)
        return int(np.searchsorted(self.primes, x, side="right"))

    def prefix(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """The thin primes p <= x and their weights."""
        k = self.count(x)
        return self.primes[:k], self.weights[:k]

    def indicator(self, upto: int) -> np.ndarray:
        """Boolean membership array of length upto+1."""
        arr = np.zeros(upto + 1, dtype=bool)
        arr[self.primes[: self.count(upto)]] = True
        return arr


def _thin_chunk(tf: ThinFunction, pt: PrimeTable, N: int, lo: int, hi: int):
    """The primes among floor(h(n)) for n in [lo, hi), in n order,
    evaluated THIN_BLOCK values of n at a time."""
    parts = []
    for b in range(lo, hi, THIN_BLOCK):
        ps = tf.floor_h_vec(np.arange(b, min(b + THIN_BLOCK, hi), dtype=np.int64))
        ps = ps[(ps >= 2) & (ps <= N)]
        parts.append(ps[pt.spf[ps] == 0])   # ps fits the table by construction
    return np.concatenate(parts)


def enumerate_thin_primes(tf: ThinFunction, pt: PrimeTable, N: int,
                          threads: int = 1) -> ThinPrimeSet:
    """All primes p <= N of the form floor(h(n)), with weights attached.

    Iterates n from ceil(x0) to floor(phi(N+1)) + 1 and deduplicates
    colliding floor values (consecutive n share floor(h(n)) wherever h' < 1,
    as for Ch < 1).  n is taken in chunks of SEGMENT values, mapped serially
    or over `threads` workers and each evaluated in blocks of THIN_BLOCK
    values; the chunks are merged in index order, so the set does not
    depend on thread count.  The merged floors, nondecreasing already, are
    sorted in place (a stable sort, linear on sorted input) and compared
    with their predecessors: numpy 2.4's np.unique takes a hash route.
    """
    if N > pt.limit:
        raise LimitMismatch(f"N={N} beyond table limit {pt.limit}")
    n_lo = math.ceil(tf.x0)
    if N + 1 < tf.h_x0 or N < 2:
        return ThinPrimeSet(tf, N, np.empty(0, np.int64), np.empty(0))
    if tf.h_x0 < 2.0:
        # values h(n) < 2 cannot produce a prime; skipping them keeps exact
        # integer hits like h(1) = 1 away from the floor guard
        n_lo = max(n_lo, math.ceil(tf.phi(2.0) - 1e-9))
    n_hi = math.floor(tf.phi(float(N + 1))) + 1
    parts = _in_order(
        lambda lo: _thin_chunk(tf, pt, N, lo, min(lo + SEGMENT, n_hi + 1)),
        range(n_lo, n_hi + 1, SEGMENT), threads)
    ps = np.concatenate(parts)
    del parts       # the per-unit copies, before the dedup and the weights
    ps.sort(kind="stable")
    new = np.ones(len(ps), dtype=bool)
    np.not_equal(ps[1:], ps[:-1], out=new[1:])
    ps = ps[new]
    weights = tf.weight_vec(ps.astype(np.float64))
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise DomainError("nonpositive or nonfinite weight encountered")
    return ThinPrimeSet(tf, N, ps, weights)


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
