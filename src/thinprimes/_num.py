"""Low-level numeric helpers: the polynomial W, exact mod-1 phases, exact sums.

IntPolynomial is the integer polynomial W along whose images W(p) every
average and sum runs; its eval_vec alone decides whether W(k) is held in
int64 or as a Python int.  Phases xi*W(k) are reduced mod 1 either through
binary-rational arithmetic (exact) or through a Dekker two-product (error
~2^-53), depending on the size of W(k).  Every float reduction mod 1 is
mod1, x - floor(x): it gives the bits of x % 1.0 for every float64 at about
a third of the cost.  Sums that feed residual checks go through exact_sum:
numpy bins the terms' integer mantissas by binary exponent, exactly, the
bins fold into one Python int and that rounds once.  The exactly rounded
sum is unique, so the result is the float math.fsum gives, without a
Python step per term.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LimitTooLarge, ParameterOutOfRange

# Dekker splitter for binary64 (2^27 + 1).
_SPLIT = 134217729.0

# Above this magnitude a float64 can no longer hold every integer exactly.
_EXACT_INT_LIMIT = 2 ** 52

# bytes of the dense arrays one table, kernel or running sum may hold
MAX_HULL_BYTES = 1 << 32


def _check_hull(entries: int, dtype, what: str) -> None:
    """Raise LimitTooLarge, before allocating, when `entries` values of
    dtype would pass MAX_HULL_BYTES."""
    nbytes = entries * np.dtype(dtype).itemsize
    if nbytes > MAX_HULL_BYTES:
        raise LimitTooLarge(f"{what} needs {nbytes} bytes over its hull, "
                            f"above the {MAX_HULL_BYTES}-byte guard")


def frac_mul_exact(xi: float, w: int) -> float:
    """Exact fractional part of xi*w for a binary64 xi and integer w.

    xi = num/den with den a power of two, so {xi*w} = ((num*w) mod den)/den
    up to the single final rounding of the division.
    """
    num, den = float(xi).as_integer_ratio()
    return ((num * w) % den) / den


def two_prod(a, b):
    """Return (p, e) with a*b = p + e exactly (Dekker).  Works on arrays."""
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def mod1(x, out=None):
    """x % 1.0, bit for bit, as x - floor(x).

    For finite x, numpy's remainder is fmod(x, 1) = x - trunc(x), which is
    exact, plus 1.0 when that is negative: one rounding of the real number
    x - floor(x), which the subtraction also rounds once.  Both give +0.0
    at +-0 and at integers (so at every |x| >= 2^52), and nan at +-inf and
    nan.  out is numpy's: pass x itself to reduce a temporary in place.
    """
    return np.subtract(x, np.floor(x), out=out)


def frac_mul_vec(xi: float, w: np.ndarray) -> np.ndarray:
    """Fractional parts of xi*w for a float64 array w.

    xi, or else every entry of w, must be an integer of magnitude < 2^52;
    the result then carries at most two rounding errors.  It is
    ((p % 1) + (e % 1)) % 1 of the two-product p + e, reduced in place.
    """
    p, e = two_prod(np.float64(xi), w)
    mod1(p, out=p)
    p += mod1(e, out=e)
    return mod1(p, out=p)


def frac_mul_int_vec(xi: float, wvals: np.ndarray) -> np.ndarray:
    """Fractional parts of xi*W for integer phases W of any size.

    wvals is what IntPolynomial.eval_vec returns: an int64 array, or an
    object array of Python ints, which never pass through float64 on the
    big-integer side.  The route is chosen per entry: the two-product where
    |W| < 2^52, the exact big-integer path elsewhere, so each value is what
    that entry alone would give, whatever else shares the call.
    """
    small = (wvals > -_EXACT_INT_LIMIT) & (wvals < _EXACT_INT_LIMIT)
    if small.all():
        return frac_mul_vec(xi, wvals.astype(np.float64))
    out = np.empty(len(wvals), dtype=np.float64)
    out[small] = frac_mul_vec(xi, wvals[small].astype(np.float64))
    out[~small] = [frac_mul_exact(xi, int(w)) for w in wvals[~small]]
    return out


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

    def eval_vec(self, k: np.ndarray) -> np.ndarray:
        """Exact values by Horner: int64 where the bound sum |c_i| max|k|^i
        < 2^62 proves that every value fits, else Python ints (dtype object)."""
        k = np.asarray(k, dtype=np.int64)
        kmax = int(np.abs(k).max(initial=0))
        if sum(abs(c) * kmax ** i for i, c in enumerate(self.coeffs)) >= 2 ** 62:
            k = k.astype(object)
        acc = np.zeros_like(k)
        for c in reversed(self.coeffs):
            acc = acc * k + c
        return acc

    def mod_vec(self, k: np.ndarray, G: int) -> np.ndarray:
        """Exact W(k) mod G as int64: Horner on k mod G, exact for G <= 2^31."""
        k = np.asarray(k, dtype=np.int64) % G
        acc = np.zeros_like(k)
        for c in reversed(self.coeffs):
            acc = (acc * k + c % G) % G
        return acc

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


# Every finite binary64 is M * 2^(e - 53) with frexp's exponent e in
# [-1073, 1024] and an integer mantissa |M| < 2^53, so an integer multiple
# of 2^-_UNIT_BITS.  M is split as hi * 2^26 + lo with |hi| < 2^27 and
# |lo| < 2^26, and each half is binned by e, hi 26 bins above lo.
_EMIN = -1073
_UNIT_BITS = 1126
_HALF_BITS = 26
_NBINS = 1024 - _EMIN + 1 + _HALF_BITS
# Rows binned in one pass.  A bin then takes at most _PASS halves, so its
# float64 partial stays an integer below 2^53, exact, for any _PASS up to
# 2^26; 2^14 rows keep the pass's temporaries small, which measured fastest.
_PASS = 2 ** 14


def _pass_bins(rows: np.ndarray) -> np.ndarray:
    """Exact column sums of a finite (n, c) float64 block, n <= _PASS, as c
    rows of int64 bins: column j sums to sum_b bins[j, b] * 2^(b - 1126)."""
    c = rows.shape[1]
    m, e = np.frexp(rows)
    m *= 2.0 ** 53
    hi = m * 2.0 ** -_HALF_BITS
    np.trunc(hi, out=hi)
    m -= hi * 2.0 ** _HALF_BITS
    e += np.arange(-_EMIN, c * _NBINS, _NBINS, dtype=e.dtype)
    idx = e.ravel().astype(np.intp)
    bins = np.bincount(idx, m.ravel(), c * _NBINS).astype(np.int64)
    hi_bins = np.bincount(idx, hi.ravel(), c * _NBINS).astype(np.int64)
    bins[_HALF_BITS:] += hi_bins[:-_HALF_BITS]
    return bins.reshape(c, _NBINS)


def _fold(bins: np.ndarray) -> int:
    """sum_b bins[b] * 2^b as one Python int."""
    nz = np.flatnonzero(bins)
    return sum(v << b for v, b in zip(bins[nz].tolist(), nz.tolist()))


def exact_sum(blocks) -> complex:
    """Exactly rounded sum of a stream of real or complex arrays.

    The real and the imaginary parts are each summed exactly, as an integer
    multiple of 2^-1126 built from every block's binned terms, and rounded
    once, by Python's correctly rounded int division.  An exactly rounded
    sum is unique, so each part is the float math.fsum returns for that
    part's terms (0.0 for no terms, or for real blocks' imaginary part).
    A part with a non-finite term is what math.fsum gives on its
    non-finite terms: nan, +-inf, or ValueError for inf - inf.  A finite
    sum that rounds past the float range raises OverflowError; fsum raises
    that also when only a partial sum overflows, which this does not.
    """
    acc = [0, 0]
    special = [[], []]
    for b in blocks:
        b = np.asarray(b)
        b = np.ascontiguousarray(b, np.complex128 if np.iscomplexobj(b) else np.float64)
        rows = b.reshape(-1).view(np.float64).reshape(-1, 2 if b.dtype.kind == "c" else 1)
        for a in range(0, len(rows), _PASS):
            part = rows[a:a + _PASS]
            bad = ~np.isfinite(part)
            if bad.any():
                for j in range(part.shape[1]):
                    special[j].extend(part[bad[:, j], j].tolist())
                part = np.where(bad, 0.0, part)
            for j, bins in enumerate(_pass_bins(part)):
                acc[j] += _fold(bins)
        b = rows = part = None     # drop the block before the stream makes the next
    return complex(*(math.fsum(s) if s else t / (1 << _UNIT_BITS)
                     for t, s in zip(acc, special)))


def e2pi(t: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*t) for t already reduced to [0, 1).  The parts are written
    into one complex array, with no complex temporaries."""
    arg = 2.0 * np.pi * np.asarray(t, dtype=np.float64)
    out = np.empty(arg.shape, np.complex128)
    out.real = np.cos(arg)
    out.imag = np.sin(arg)
    return out


def next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m <<= 1
    return m


def dyadic(first: int, last: int) -> list[int]:
    """first, 2*first, 4*first, ... up to last inclusive."""
    out = []
    while first <= last:
        out.append(first)
        first *= 2
    return out
