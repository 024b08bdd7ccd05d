"""Segmented smallest-prime-factor sieve and thin prime set enumeration.

The PrimeTable stores spf(n) for 2 <= n <= N, built segment by segment
(2^20 entries per segment) so the marking loops stay cache resident.  All
arithmetic queries (primality, Mobius, von Mangoldt) factor through spf in
O(log n).  Thin prime sets are enumerated from the defining floor values
floor(h(n)), with the near-integer escalation path of ThinFunction guarding
every floor decision.
"""

from __future__ import annotations

import math
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    CriterionDisagreement,
    DomainError,
    LimitMismatch,
    LimitTooLarge,
)
from .thinfn import NEAR_INT_GUARD, ThinFunction

SEGMENT = 1 << 20
MAX_LIMIT = 1 << 34
CACHE_MAGIC = b"TPLB1"
# mpmath's precision is process-wide: one escalated floor decision at a time
_MP_LOCK = threading.Lock()


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

    def __init__(self, limit: int, spf: np.ndarray, primes=None):
        self.limit = int(limit)
        self.spf = spf
        if primes is None:      # the n >= 2 with spf(n) == n
            idx = np.arange(2, self.limit + 1, dtype=spf.dtype)
            primes = np.flatnonzero(spf[2:] == idx) + 2
        self.primes = primes.astype(np.int64, copy=False)

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            return False
        return int(self.spf[n]) == n

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

    def mu(self, n: int) -> int:
        if n == 1:
            return 1
        sign = 1
        for _, e in self.factorize(n):
            if e >= 2:
                return 0
            sign = -sign
        return sign

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

    # -- binary cache ------------------------------------------------------

    def save_cache(self, path) -> None:
        """Magic "TPLB1", little-endian uint64 limit, then int64 spf deltas."""
        deltas = np.diff(self.spf.astype(np.int64), prepend=np.int64(0))
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<Q", self.limit))
            fh.write(deltas.astype("<i8").tobytes())

    @classmethod
    def load_cache(cls, path) -> "PrimeTable":
        with open(path, "rb") as fh:
            magic = fh.read(5)
            if magic != CACHE_MAGIC:
                raise LimitMismatch(f"bad cache magic {magic!r}")
            (limit,) = struct.unpack("<Q", fh.read(8))
            deltas = np.frombuffer(fh.read(), dtype="<i8")
        spf = np.cumsum(deltas).astype(np.int64)
        if spf.size != limit + 1:
            raise LimitMismatch("cache truncated")
        return cls(int(limit), spf)


def _in_order(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on `threads` workers if there are several."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _fill_segment(spf, lo, hi, base):
    """Mark spf for indices [lo, hi); base primes ascending so first mark wins."""
    for p in base:
        p = int(p)
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start >= hi:
            continue
        sl = spf[start:hi:p]
        sl[sl == 0] = p


def build_prime_table(N: int, threads: int = 1) -> PrimeTable:
    """Sieve spf for 2..N in 2^20-entry segments.

    Queries prime?(n), mu(n), lambda(n) then run in O(log n) through spf
    factorization.  Segments are independent and may be filled in parallel.
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

    def to_csv_rows(self):
        for p, n, w in zip(self.primes, self.witnesses, self.weights):
            yield int(p), int(n), float(w)


CROSS_CHECK_BELOW = 10 ** 4


def thin_membership(tf: ThinFunction, p: int, mode: str | None = None) -> bool:
    """Is the prime p a value floor(h(n))?

    direct          scans n in [ceil(phi(p))-1, floor(phi(p+1))+1]
    floor_criterion checks floor(-phi(p)) - floor(-phi(p+1)) == 1
    cross_check     runs both and raises CriterionDisagreement on mismatch

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
        raise ValueError(f"unknown mode {mode!r}")
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
    criterion = tf.floor_neg_phi(float(p)) - tf.floor_neg_phi(float(p + 1)) == 1
    if mode == "floor_criterion":
        return criterion
    if direct != criterion:
        raise CriterionDisagreement(
            f"p={p}: direct={direct} floor_criterion={criterion}")
    return direct


def floor_criterion_threshold(tf: ThinFunction, pt: PrimeTable, limit: int) -> int | None:
    """Largest prime <= limit where the two membership tests disagree.

    The floor-difference criterion only holds for sufficiently large p; this
    measures the crossover for a concrete ThinFunction.  None means full
    agreement over the scanned range.
    """
    worst = None
    for p in pt.primes_in(int(math.ceil(tf.h_x0)) - 1, limit):
        p = int(p)
        d = thin_membership(tf, p, "direct")
        c = thin_membership(tf, p, "floor_criterion")
        if d != c:
            worst = p
    return worst


def _floor_h_bulk(tf: ThinFunction, ns: np.ndarray) -> np.ndarray:
    """Vectorized floor(h(n)) with per-element escalation near integers."""
    if tf.is_identity:
        return ns.astype(np.int64)
    hv = tf.h_vec(ns.astype(np.float64))
    fl = np.floor(hv)
    suspicious = np.flatnonzero(np.minimum(hv - fl, fl + 1.0 - hv) < NEAR_INT_GUARD)
    out = fl.astype(np.int64)
    with _MP_LOCK:
        for i in suspicious:
            out[i] = tf.floor_h(int(ns[i]))
    return out


def _thin_chunk(tf: ThinFunction, pt: PrimeTable, N: int, lo: int, hi: int):
    """(primes, witnesses) among floor(h(n)) for n in [lo, hi), in n order."""
    ns = np.arange(lo, hi, dtype=np.int64)
    ps = _floor_h_bulk(tf, ns)
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


def density_profile(tps: ThinPrimeSet, checkpoints) -> list[tuple[int, int, float]]:
    """Rows (x, pi_h(x), pi_h(x) * log x / phi(x)) for the given checkpoints."""
    rows = []
    for x in checkpoints:
        x = int(x)
        if x > tps.limit:
            raise LimitMismatch(f"checkpoint {x} beyond enumerated limit")
        cnt = tps.count(x)
        ratio = cnt * math.log(x) / tps.tf.phi(float(x)) if x >= tps.tf.h_x0 else float("nan")
        rows.append((x, cnt, ratio))
    return rows
