"""Segmented odd-only sieve, smallest prime factors on demand, and thin
prime set enumeration.

The PrimeTable stores one primality byte per odd number: odd[i] is true
exactly when 2i + 1 is prime, N//2 + 1 bytes in all.  It is sieved segment
by segment (2^20 odd numbers per segment), so the crossing-off loops stay
cache resident; each segment starts from a periodic pattern that has the
multiples of 3, 5, 7, 11 and 13 crossed off already.  The smallest-prime-
factor table spf, which only factoring reads, is filled segment by segment
on its first access: a composite n <= N has a prime factor at most
isqrt(N), so below N = 2^32 spf is uint16, 2(N+1) bytes, and uint32,
4(N+1) bytes, above.  Factoring through spf takes O(log n) steps per
number, or per vector pass over many.  A thin prime set is enumerated by
one of two exact routes, whichever evaluates h fewer times: from the n
side, every floor(h(n)) over the range of n, or from the primes' side,
where each prime p <= N is tested at the n = ceil(phi(p)) that a
closed-form guess of phi places (power family only).  Either route works
in units of SEGMENT values (of n, or of primes) that are each evaluated
THIN_BLOCK values at a time, so the vector passes stay in cache; each
block is one call of the certified floor, guarded at its largest value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LimitMismatch, LimitTooLarge
from .thinfn import ThinFunction

SEGMENT = 1 << 20
# The odd primes whose multiples the table sieve lays down as one periodic
# pattern of 15015 entries rather than by crossing off.
WHEEL = (3, 5, 7, 11, 13)
THIN_BLOCK = 1 << 14
MAX_LIMIT = 1 << 34
# Relative half-width of the band around an integer inside which a guess
# y of phi(p) cannot place ceil(phi(p)), so both neighbours are tried too;
# see _floor_values_among for the error bound it covers.
GUESS_WINDOW = 2.0 ** -40
# The primes' side is taken only while every guess is below this bound,
# where its error is under 1/2.
GUESS_MAX = 2.0 ** 39


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
    """Primality table for 0..limit with arithmetic queries.

    odd[i] is true exactly when 2i + 1 is prime; see build_prime_table for
    its size.  spf[n] is the smallest prime factor of a composite n and 0
    for a prime n (and for n < 2), built on first access on the table's
    `threads` workers; a table that cannot be allocated raises
    LimitTooLarge with its byte count.
    """

    def __init__(self, limit: int, odd: np.ndarray, primes: np.ndarray,
                 threads: int = 1):
        self.limit = int(limit)
        self.odd = odd
        self.primes = primes.astype(np.int64, copy=False)
        self.threads = threads

    def is_prime(self, ns: np.ndarray) -> np.ndarray:
        """Primality of each n in ns, 0 <= n <= limit."""
        return (ns == 2) | (self.odd[ns >> 1] & (ns & 1).astype(bool))

    @functools.cached_property
    def spf(self) -> np.ndarray:
        """Smallest prime factors, filled in SEGMENT-entry segments: uint16
        below limit 2^32 and uint32 above."""
        N = self.limit
        dtype = np.dtype(np.uint16 if N < (1 << 32) else np.uint32)
        try:
            spf = np.zeros(N + 1, dtype=dtype)
        except MemoryError:
            raise LimitTooLarge(f"N={N}: the spf table of {(N + 1) * dtype.itemsize} "
                                "bytes could not be allocated") from None
        base = self.primes[:self.pi(math.isqrt(N))]
        _in_order(lambda lo: _fill_spf(spf, lo, min(lo + SEGMENT, N + 1), base),
                  range(2, N + 1, SEGMENT), self.threads)
        return spf

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


def _fill_spf(spf, lo, hi, base) -> None:
    """Mark spf for indices [lo, hi); base primes descending, so the
    smallest prime factor writes last."""
    for p in base[::-1].tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            spf[start:hi:p] = p


def _wheel() -> np.ndarray:
    """One period of the odd numbers prime to every WHEEL prime: entry i
    for 2i + 1, over prod(WHEEL) indices, since p divides 2i + 1 exactly
    when i = (p - 1)/2 mod p."""
    pattern = np.ones(math.prod(WHEEL), dtype=bool)
    for p in WHEEL:
        pattern[p >> 1::p] = False
    return pattern


def _sieve_odd_segment(odd, lo, hi, wheel, base) -> np.ndarray:
    """Sieve odd[lo:hi], the odd numbers 2lo + 1 .. 2hi - 1, and return the
    primes among them.  The segment starts as the wheel at its phase, one
    period copied and then doubled in place, with the WHEEL primes set back;
    the larger odd base primes then cross off their odd multiples from p^2
    on, which sit at indices (p^2 - 1)/2 + jp."""
    seg = odd[lo:hi]
    k = min(len(wheel), len(seg))
    seg[:k] = np.roll(wheel, -(lo % len(wheel)))[:k]
    while k < len(seg):
        m = min(k, len(seg) - k)
        seg[k:k + m] = seg[:m]
        k += m
    for p in WHEEL:
        if lo <= p >> 1 < hi:
            odd[p >> 1] = True
    for p in base.tolist():
        start = (p * p) >> 1
        if start >= hi:
            break
        if start < lo:
            start += -((start - lo) // p) * p
        odd[start:hi:p] = False
    ps = np.flatnonzero(seg)
    ps += lo
    ps *= 2
    ps += 1
    return ps


def build_prime_table(N: int, threads: int = 1) -> PrimeTable:
    """Sieve the odd numbers up to N in SEGMENT-entry segments.

    The table odd is N//2 + 1 bools, odd[i] true exactly when 2i + 1 is a
    prime <= N (1 and, for even N, N + 1 are false); a table that cannot be
    allocated raises LimitTooLarge with its byte count.  Segments are
    independent and may be sieved in parallel; each returns its primes,
    concatenated in segment order after 2.  spf is left to first access.
    """
    if N < 2:
        raise LimitTooLarge("N must be at least 2")
    if N > MAX_LIMIT:
        raise LimitTooLarge(f"N={N} exceeds the 2^34 memory guard")
    try:
        odd = np.zeros(N // 2 + 1, dtype=bool)
    except MemoryError:
        raise LimitTooLarge(f"N={N}: the prime table of {N // 2 + 1} "
                            "bytes could not be allocated") from None
    base = _base_primes(math.isqrt(N))
    base, wheel = base[base > WHEEL[-1]], _wheel()
    end = (N + 1) // 2                     # odd numbers 3 .. N
    parts = _in_order(
        lambda lo: _sieve_odd_segment(odd, lo, min(lo + SEGMENT, end), wheel, base),
        range(1, end, SEGMENT), threads)
    return PrimeTable(N, odd, np.concatenate([np.array([2], np.int64), *parts]),
                      threads)


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


def _least_member(tf: ThinFunction) -> int:
    """The least member: 2, or the least integer phi takes, if above 2."""
    return max(2, math.ceil(tf.h_x0 * (1 - 1e-12)))


def _thin_chunk(tf: ThinFunction, pt: PrimeTable, N: int, lo: int, hi: int):
    """The primes p_lo <= p <= N among floor(h(n)) for n in [lo, hi), in n
    order, evaluated THIN_BLOCK values of n at a time."""
    parts, p_lo = [], _least_member(tf)
    for b in range(lo, hi, THIN_BLOCK):
        ps = tf.floor_h_vec(np.arange(b, min(b + THIN_BLOCK, hi), dtype=np.int64))
        ps = ps[(ps >= p_lo) & (ps <= N)]
        parts.append(ps[pt.is_prime(ps)])   # ps fits the table by construction
    return np.concatenate(parts)


def _n_range(tf: ThinFunction, N: int) -> tuple[int, int]:
    """(n_lo, n_hi): the n whose floor(h(n)) can be a member p_lo <= p <= N,
    for N >= p_lo.  Skipping the n with h(n) < p_lo also keeps exact integer
    hits like h(1) = 1 away from the floor guard."""
    n_lo = math.ceil(tf.phi(float(_least_member(tf))) - 1e-9)
    return max(n_lo, math.ceil(tf.x0)), math.floor(tf.phi(float(N + 1))) + 1


def _floor_values_among(tf: ThinFunction, ks: np.ndarray, n_lo: int, n_hi: int):
    """The k in ks (ascending) that equal floor(h(n)) for some integer n in
    [n_lo, n_hi], decided THIN_BLOCK values of k at a time.

    h increases, so such an n exists if and only if the least n in the
    range with h(n) >= k, or n_hi if there is none, floors to k; that n is
    ceil(phi(k)) clipped to [n_lo, n_hi].  phi_vec only guesses phi: for
    power, y = fl(fl(k/Ch)^gamma) against phi(k) = (k/Ch)^(1/c) with
    c = fl(1/gamma), and
        |y - phi(k)| <= y (|ln(k/Ch)| + 3) 2^-53,
    from |gamma - 1/c| <= 2^-53 in the exponent, the quotient's rounding
    and pow's error below 1 ulp.  For k <= 2^34 and any binary64 Ch,
    |ln(k/Ch)| + 3 < 2^13, so the error is below y GUESS_WINDOW, and
    below 1/2 for y < GUESS_MAX.  Where y lies within y GUESS_WINDOW of an
    integer, ceil(phi(k)) is one of ceil(y) - 1, ceil(y) and ceil(y) + 1,
    and all three are tried; elsewhere it is ceil(y).  A candidate counts
    only by its certified floor, so the guess can cost a candidate but
    never move the set.  A k below h(x0) is guessed at h(x0), whose
    candidates clip to n_lo.
    """
    parts = [ks[:0]]
    for b in range(0, len(ks), THIN_BLOCK):
        k = ks[b:b + THIN_BLOCK]
        y = tf.phi_vec(np.maximum(k, tf.h_x0))
        n = np.ceil(y)
        near = np.flatnonzero(np.abs(y - np.rint(y)) <= y * GUESS_WINDOW)
        cand = np.concatenate([n, n[near] - 1.0, n[near] + 1.0]).astype(np.int64)
        np.clip(cand, n_lo, n_hi, out=cand)
        hit = tf.floor_h_vec(cand) == np.concatenate([k, k[near], k[near]])
        keep = hit[:k.size]
        keep[near] |= hit[k.size:k.size + near.size] | hit[k.size + near.size:]
        parts.append(k[keep])
    return np.concatenate(parts)


def _n_route(tf, pt, N, n_lo, n_hi, threads) -> list:
    """The primes p <= N among floor(h(n)), n_lo <= n <= n_hi, per unit of
    SEGMENT values of n, in n order; repeated values are kept."""
    return _in_order(
        lambda lo: _thin_chunk(tf, pt, N, lo, min(lo + SEGMENT, n_hi + 1)),
        range(n_lo, n_hi + 1, SEGMENT), threads)


def _primes_route(tf, pt, N, n_lo, n_hi, threads) -> list:
    """The same primes, ascending and once each, from the primes' side:
    each prime p_lo <= p <= N is tested by _floor_values_among, per unit of
    SEGMENT primes; with no such prime, one empty unit."""
    ps = pt.primes_in(_least_member(tf) - 1, N)
    return _in_order(
        lambda i: _floor_values_among(tf, ps[i:i + SEGMENT], n_lo, n_hi),
        range(0, max(len(ps), 1), SEGMENT), threads)


def _takes_primes_side(tf, pt, N, n_lo, n_hi) -> bool:
    """The choice rule: the primes' side where it evaluates h fewer times.

    It costs two pow calls per prime (the guess and the floor), the n side
    one per n, and none for the identity, whose floors are copies.  Only
    power has a closed-form guess.  The other families' phi_vec is a
    Newton run, whose stop |h(y) - x| <= 1e-14 x keeps the guess within
    the window wherever x h'(x)/h(x) >= 1/64, as for h3; the primes' side
    would be exact for them too, but at a Newton run per prime, so they
    stay on the n side."""
    return (tf.family == "power" and not tf.is_identity
            and 2 * pt.pi(N) < n_hi - n_lo + 1 and n_hi < GUESS_MAX)


def enumerate_thin_primes(tf: ThinFunction, pt: PrimeTable, N: int,
                          threads: int = 1) -> ThinPrimeSet:
    """All primes p_lo <= p <= N of the form floor(h(n)), with weights
    attached; p_lo = max(2, ceil(h(x0))) is _least_member's.

    The n run from the first n with h(n) >= p_lo to floor(phi(N+1)) + 1.
    The set comes from one of two exact routes, chosen by _takes_primes_side:
    the n side evaluates floor(h(n)) at every n and keeps the primes
    (consecutive n share floor(h(n)) wherever h' < 1, as for Ch < 1); the
    primes' side tests each prime at the n that a guess of phi(p) places.
    Either route is taken in units of SEGMENT values, mapped serially or
    over `threads` workers and each evaluated in blocks of THIN_BLOCK
    values; the units are merged in index order, so the set does not depend
    on thread count.  The merged primes, nondecreasing already, are sorted
    in place (a stable sort, linear on sorted input) and compared with their
    predecessors: numpy 2.4's np.unique takes a hash route.  The weights are
    computed THIN_BLOCK primes at a time, so their float temporaries stay
    small.
    """
    if N > pt.limit:
        raise LimitMismatch(f"N={N} beyond table limit {pt.limit}")
    if N < _least_member(tf):
        return ThinPrimeSet(tf, N, np.empty(0, np.int64), np.empty(0))
    n_lo, n_hi = _n_range(tf, N)
    route = _primes_route if _takes_primes_side(tf, pt, N, n_lo, n_hi) else _n_route
    parts = route(tf, pt, N, n_lo, n_hi, threads)
    ps = np.concatenate(parts)
    del parts       # the per-unit copies, before the dedup and the weights
    ps.sort(kind="stable")
    new = np.ones(len(ps), dtype=bool)
    np.not_equal(ps[1:], ps[:-1], out=new[1:])
    ps = ps[new]
    weights = np.empty(len(ps))
    for b in range(0, len(ps), THIN_BLOCK):
        weights[b:b + THIN_BLOCK] = tf.weight_vec(ps[b:b + THIN_BLOCK])
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
