"""Ternary Goldbach representation counts in thin primes.

R(n) counts ordered triples p1+p2+p3 = n with p_i in the i-th thin set.
An odd n is three odd primes or 2 + 2 + (n - 4), so R(n) is an odd count
plus [2 in Si][2 in Sj][n - 4 in Sk] over the three places of n - 4.  The
odd count is the problem at half size: a1 + a2 + a3 = t for a = (p - 1)/2
and t = (n - 3)/2, with every a at most A = (N_end - 1)//2 and the
targets the consecutive t in [t0, A - 1], t0 = (N - 3)/2.  All of them are
counted in one pass by two routes, which must agree at every target:

- direct, in exact integers.  S1 and S2 are the two thinnest sets (the
  count is symmetric) and S3 is read as an indicator of its a: the sum
  over a1 in S1 of C23(t - a1), C23(m) = #{a2 in S2 : m - a2 in S3}, from
  one table filled at the points m that some target needs by popcounts
  of 64-bit words (S2's bitset AND the reversed S3 bitset shifted by
  A - m), or, when 64*|S2| is below the number of those points, at every
  m by |S2| shifted adds of the S3 indicator;
- spectral: one float FFT per distinct set's indicator of a on a grid of
  M = next_pow2(3*A - t0 + 1) points.  The product has degree at most 3*A,
  so its wrapped terms land below t0, and one inverse transform holds every
  odd count as an integer read off by rounding.  A target whose float
  value lies 0.25 or more from an integer is recounted on its own by an
  exact convolution in decimal (Kronecker substitution, _exact_triple_coeff).

A single target is a range of one over the same code.  The report
columns are vector passes over the same targets: the classical singular
series is one ascending walk over the primes up to the cutoff, whose
stride-p slice marks the targets p divides, and the printed form is the
constant +0.0 (its p=2 factor is 1 - 1/1).
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, localcontext

import numpy as np

from ._num import _check_hull, exact_sum, next_pow2
from .errors import (
    CutoffTooSmall,
    LimitMismatch,
    ParameterOutOfRange,
    SpectralMismatch,
)
from .sieve import PrimeTable, ThinPrimeSet, _base_primes


def check_targets(N: int, N_end: int) -> None:
    """The rule for a range [N, N_end] of odd targets."""
    if N < 7 or N % 2 == 0:
        raise ParameterOutOfRange("N must be odd and >= 7")
    if N_end < N:
        raise ParameterOutOfRange(f"N_end={N_end} < N={N}")


def _exact_triple_coeff(i1: np.ndarray, i2: np.ndarray, i3: np.ndarray,
                        n: int) -> int:
    """Coefficient of z^n in the product of three 0/1 polynomials, exactly.

    Kronecker substitution in base 10^k: each indicator, cut to degree n, is
    written in one numpy pass as k decimal digits per coefficient and the
    three are multiplied in exact decimal (libmpdec's number-theoretic
    transform).  A coefficient counts at most |S1| * |S2| triples, so k is
    that bound's digit count.
    """
    ind = [np.asarray(a[: n + 1]) != 0 for a in (i1, i2, i3)]
    k = len(str(int(np.count_nonzero(ind[0])) * int(np.count_nonzero(ind[1]))))
    prod = Decimal(1)
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX)):
        for a in ind:     # the digit rows, highest coefficient first
            d = np.full((len(a), k), ord("0"), dtype=np.uint8)
            d[:, -1] += a
            prod *= Decimal(d[::-1].tobytes().decode("ascii"))
    text = str(prod)
    end = len(text) - k * n     # the k digits of z^n end here
    return int(text[max(end - k, 0):end]) if end > 0 else 0


def _needed_points(a1s: np.ndarray, t0: int, t1: int, size: int) -> np.ndarray:
    """The points m = t - a1 >= 0 that some target t in [t0, t1] needs,
    ascending: the run [max(t0 - a1, 0), t1 - a1] of each a1 <= t1, counted
    by two bincounts of the ends of the runs and one cumulative sum."""
    a1s = a1s[a1s <= t1]
    edges = (np.bincount(np.maximum(t0 - a1s, 0), minlength=size + 1)
             - np.bincount(t1 - a1s + 1, minlength=size + 1))
    return np.flatnonzero(np.cumsum(edges)[:size] > 0)


def _sum_over_first(a1s: np.ndarray, c23: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """sum over a1 <= t of c23[t - a1] for every t in [t0, t1], looping
    over targets or over a1s (all at most t1 + 1), whichever is shorter."""
    R = np.zeros(t1 - t0 + 1, dtype=np.int64)
    if len(R) <= len(a1s):
        for j, t in enumerate(range(t0, t1 + 1)):
            k = np.searchsorted(a1s, t, side="right")
            R[j] = c23[t - a1s[:k]].sum(dtype=np.int64)
    else:
        for a1 in a1s.tolist():
            j0 = max(0, a1 - t0)
            R[j0:] += c23[t0 + j0 - a1: t1 - a1 + 1]
    return R


def _bitset(mask: np.ndarray) -> np.ndarray:
    """mask as 64-bit words: bit j of word w is mask[64*w + j]."""
    bits = np.zeros(-(-len(mask) // 64) * 64, dtype=bool)
    bits[: len(mask)] = mask
    return np.packbits(bits, bitorder="little").view("<u8")


def _pair_counts_by_popcount(p2s: np.ndarray, i3: np.ndarray,
                             ms: np.ndarray) -> np.ndarray:
    """C23(m) = #{p2 in p2s : m - p2 in S3} at the points ms, zero elsewhere.

    With L = len(i3) - 1 and S3 reversed (bit j is i3[L - j]), m - p2 is in
    S3 exactly when bit p2 + L - m of the reversed bitset is set, so C23(m)
    is the popcount of S2's bitset AND the reversed bitset shifted down by
    s = L - m.  The shift is a row of 64 pre-shifted copies (s mod 64) read
    from word s // 64 on; the ms that share a word offset take one call.
    """
    L = len(i3) - 1
    s2 = np.zeros(L + 1, dtype=bool)
    s2[p2s] = True
    b2 = _bitset(s2)
    rev = _bitset(i3[::-1])
    nxt = np.append(rev[1:], np.uint64(0))
    shifts = np.arange(1, 64, dtype=np.uint64)[:, None]
    table = np.empty((64, len(rev)), dtype=np.uint64)
    table[0] = rev
    table[1:] = (rev >> shifts) | (nxt << (np.uint64(64) - shifts))
    c23 = np.zeros(L + 1, dtype=np.int64)
    s = L - ms
    q, r = s >> 6, s & 63
    starts = np.flatnonzero(np.diff(q, prepend=-1)).tolist()
    for a, b in zip(starts, starts[1:] + [len(ms)]):
        off = int(q[a])
        words = table[r[a:b], off:] & b2[: len(rev) - off]
        c23[ms[a:b]] = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    return c23


def _pair_counts_by_shifts(p2s: np.ndarray, i3: np.ndarray) -> np.ndarray:
    """C23(m) at every m in [0, len(i3)), as one shifted add of the S3
    indicator per p2."""
    ind = i3.astype(np.int32)
    c23 = np.zeros(len(i3), dtype=np.int32)
    for p2 in p2s.tolist():
        c23[p2:] += ind[: len(i3) - p2]
    return c23


def _direct_counts(a1s: np.ndarray, a2s: np.ndarray, i3: np.ndarray,
                   t0: int, t1: int) -> np.ndarray:
    """Exact odd counts at every t in [t0, t1] from one table of C23(m).

    a1s and a2s are the a of the two thinnest sets and i3 the indicator of
    the third, of length at least t1 + 2.  The table is filled by popcounts
    at the needed points m, or, when 64*|S2| is below their number, by
    |S2| shifted adds over every m; both counts are exact.
    """
    ms = _needed_points(a1s, t0, t1, len(i3))
    if 64 * len(a2s) < len(ms):
        c23 = _pair_counts_by_shifts(a2s, i3)
    else:
        c23 = _pair_counts_by_popcount(a2s, i3, ms)
    return _sum_over_first(a1s, c23, t0, t1)


def rep_counts(tps1: ThinPrimeSet, tps2: ThinPrimeSet, tps3: ThinPrimeSet,
               N: int, N_end: int) -> tuple[np.ndarray, np.ndarray]:
    """(direct, spectral) ordered-triple counts for every odd n in [N, N_end].

    Each is the odd count at t = (n - 3)/2 plus the closed-form count of
    (2, 2, n - 4) in its three orders.  The spectral odd counts are read at
    t off one grid of M = next_pow2(3*A - t0 + 1) points, A = (N_end - 1)//2
    and t0 = (N - 3)/2, and escalated as the module docstring says.  The
    first target where the counts differ raises SpectralMismatch naming n.
    """
    check_targets(N, N_end)
    sets = (tps1, tps2, tps3)
    for t in sets:
        if t.limit < N_end:
            raise LimitMismatch(f"thin set enumerated to {t.limit} < N_end={N_end}")
    A, t0 = (N_end - 1) // 2, (N - 3) // 2     # the targets are t0..A-1
    # [2a + 1 in S] for a in [0, A], one per distinct set
    ind = {id(t): t.indicator(2 * A + 1)[1::2] for t in sets}
    # n - 4 is the odd member at a = t - 1, and S.count(2) is [2 in S]
    two, at = [t.count(2) for t in sets], [ind[id(t)][t0 - 1: A - 1] for t in sets]
    twos = two[1] * two[2] * at[0] + two[0] * two[2] * at[1] + two[0] * two[1] * at[2]
    s1, s2, s3 = sorted(sets, key=lambda t: t.count(N_end))   # R is symmetric
    direct = _direct_counts(np.flatnonzero(ind[id(s1)]), np.flatnonzero(ind[id(s2)]),
                            ind[id(s3)], t0, A - 1) + twos
    # the product has degree <= 3*A, so a wrapped term lands below t0
    M = next_pow2(3 * A - t0 + 1)
    ffts = {k: np.fft.rfft(a, M) for k, a in ind.items()}
    spec = ffts[id(tps1)] * ffts[id(tps2)] * ffts[id(tps3)]
    vals = np.fft.irfft(spec, M)[t0:A]
    spectral = np.rint(vals).astype(np.int64)
    for j in np.flatnonzero(np.abs(vals - spectral) >= 0.25):
        t = t0 + int(j)
        spectral[j] = _exact_triple_coeff(*(ind[id(s)][: t + 1] for s in sets), t)
    spectral += twos
    bad = np.flatnonzero(direct != spectral)
    if bad.size:
        j = bad[0]
        raise SpectralMismatch(
            f"N={N + 2 * j}: direct={direct[j]} spectral={spectral[j]} "
            f"(fft value {vals[j]})")
    return direct, spectral


def check_cutoff(cutoff: int) -> None:
    """singular_series' rule for its cutoff: at least 100, and a sieve of
    the primes up to it that fits the hull guard."""
    if cutoff < 100:
        raise CutoffTooSmall("cutoff must be >= 100")
    _check_hull(cutoff + 1, np.bool_, "singular-series sieve")


def _prime_divisors(pt: PrimeTable,
                    ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, q): every distinct prime divisor q of every ns[i], one vector
    pass per round.  A round reads spf (0: the remainder is prime) and
    divides that prime out, so the pairs of one i come in ascending q."""
    i, m = np.arange(len(ns)), ns.astype(np.int64)
    iq = [(i[:0], m[:0])]
    while (keep := m > 1).any():
        i, m = i[keep], m[keep]
        p = np.where((f := pt.spf[m]) == 0, m, f)
        iq.append((i, p))
        while (d := m % p == 0).any():
            m[d] //= p[d]
    return tuple(np.concatenate(col) for col in zip(*iq))


def singular_series(pt: PrimeTable, N: int, N_end: int,
                    cutoff: int) -> np.ndarray:
    """S_classical at every odd target n in [N, N_end]: the Vinogradov form
    prod_{p|n} (1 - 1/(p-1)^2) * prod_{p not | n} (1 + 1/(p-1)^3) over the
    primes p <= cutoff, times (1 - 1/(q-1)^2)/(1 + 1/(q-1)^3) for each
    prime divisor q > cutoff.  pt is a table up to at least N_end.

    One ascending walk over the primes up to the cutoff multiplies every
    target by its factor at p: the targets n = N + 2j that p divides are
    j = j0, j0 + p, ..., and no odd target is divisible by 2.  So each
    target is the left-to-right product in ascending prime order that a
    loop over the primes gives, bit for bit.  The factors above the cutoff
    follow in the iteration order of the Python set of all the target's
    distinct primes, as a loop over that set gave: the order moves last
    bits, and it is not ascending (10807 = 101 * 107 iterates 107 first)
    nor that of the set of the large primes alone (12482085 = 3 * 5 * 7 *
    11 * 101 * 107 iterates 101 first).
    """
    check_cutoff(cutoff)
    s = np.full((N_end - N) // 2 + 1, 2.0)   # p = 2: 1 + 1/1^3
    for p in _base_primes(cutoff)[1:].tolist():
        j0 = (-N * pow(2, -1, p)) % p
        if j0 >= len(s):     # p divides no target
            s *= 1.0 + 1.0 / (p - 1) ** 3
            continue
        hit = s[j0::p] * (1.0 - 1.0 / (p - 1) ** 2)
        s *= 1.0 + 1.0 / (p - 1) ** 3
        s[j0::p] = hit

    def large(q):
        return (1.0 - 1.0 / (q - 1) ** 2) / (1.0 + 1.0 / (q - 1) ** 3)

    j, q = _prime_divisors(pt, np.arange(N, N_end + 1, 2))
    many = np.bincount(j[q > cutoff], minlength=len(s)) > 1
    one = (q > cutoff) & ~many[j]
    uq, slot = np.unique(q[one], return_inverse=True)
    s[j[one]] *= np.array([large(v) for v in uq.tolist()])[slot]
    divisors = {}
    for t, p in zip(j[many[j]].tolist(), q[many[j]].tolist()):
        divisors.setdefault(t, []).append(p)
    for t, ps in divisors.items():
        v = float(s[t])
        for p in set(ps):
            if p > cutoff:
                v *= large(p)
        s[t] = v
    return s


def goldbach_reports(tfs, sets, N: int, N_end: int, pt: PrimeTable,
                     cutoff: int = 10 ** 4) -> list[tuple]:
    """One row (N, R, S_paper, S_classical, main_term, ratio, flags) per odd
    target in [N, N_end], from one rep_counts pass: counts against the
    predicted main term S(N) phi1 phi2 phi3/(N log^3 N).

    tfs and sets are the three generating functions and their thin sets,
    and pt a table up to at least N_end.  Every column is one vector
    expression over the targets; the rows hold Python values.  The printed
    singular-series product S_paper = prod_p (1 - 1/(p-1)^3) * prod_{p|N}
    (1 - 1/(p^2-3p+3)) has the factor 1 - 1/1 = 0.0 at p = 2 and finite
    nonnegative factors elsewhere, so its column is the constant +0.0.  The
    classical Vinogradov form is used for the main term instead and every
    row carries a flag that says so, with both values always present.
    """
    s = singular_series(pt, N, N_end, cutoff)
    flag = "paper-form degenerate; classical form used for main term"
    direct, _ = rep_counts(*sets, N, N_end)
    x = np.arange(N, N_end + 1, 2, dtype=np.float64)
    phi1, phi2, phi3 = (t.phi_vec(x) for t in tfs)
    main = s * phi1 * phi2 * phi3 / (x * np.log(x) ** 3)
    ratio = np.divide(direct, main, out=np.full(len(x), math.inf),
                      where=main > 0)
    return list(zip(range(N, N_end + 1, 2), direct.tolist(),
                    [0.0] * len(x), s.tolist(), main.tolist(),
                    ratio.tolist(), [flag] * len(x)))


def parseval_check(source, N: int, weighted: bool = False) -> tuple[float, float]:
    """Discrete-quadrature check of int_0^1 |G_N|^2 = sum of squared weights.

    source is a ThinPrimeSet (thin-side sum) or a PrimeTable (full-prime
    sum), read through its prefix(N); weighted takes the weights that
    prefix gives, log(p)/phi'(p) or log(p), and unweighted takes 1.
    The grid of M = next_pow2(2N+1) points makes the quadrature exact for
    the degree-<=2N product.
    """
    if not isinstance(source, (ThinPrimeSet, PrimeTable)):
        raise ParameterOutOfRange("source must be ThinPrimeSet or PrimeTable")
    ps, ws = source.prefix(N)
    weights = ws if weighted else np.ones(len(ps))
    M = next_pow2(2 * N + 1)
    vec = np.zeros(M, dtype=np.float64)
    vec[ps] = weights   # distinct primes: each bin is 0.0 + w = w
    spec = np.fft.rfft(vec)
    # |G|^2 averaged over the M grid points; rfft holds half the spectrum,
    # interior bins count twice by conjugate symmetry; M is a power of two,
    # so the last bin is the unpaired Nyquist bin (or bin 0 when M = 1)
    mags = np.abs(spec) ** 2
    lhs = exact_sum((mags, mags[1:-1])).real / M
    rhs = exact_sum((weights * weights,)).real
    return lhs, rhs
