"""Low-level numeric helpers: exact mod-1 phase reduction and careful sums.

Phases of the form xi*W(k) with an exact integer W(k) are reduced mod 1
either through binary-rational arithmetic (exact) or through a Dekker
two-product (error ~2^-53), depending on the size of W(k).  Sums that feed
residual checks go through math.fsum, which rounds once at the end.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LimitTooLarge

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


def frac_mul_vec(xi: float, w: np.ndarray) -> np.ndarray:
    """Fractional parts of xi*w for an array of exactly representable w.

    Every entry of w must be an integer of magnitude < 2^52 stored in
    float64; the result then carries at most two rounding errors.
    """
    p, e = two_prod(np.float64(xi), w)
    return ((p % 1.0) + (e % 1.0)) % 1.0


def frac_mul_int_vec(xi: float, wvals) -> np.ndarray:
    """Fractional parts of xi*W for integer phases W of any size.

    The route is chosen per entry: the two-product where |W| < 2^52, the
    exact big-integer path elsewhere, so each value is what that entry
    alone would give, whatever else shares the call.  Lists of Python ints
    (the overflow route of polynomial evaluation) are held as objects and
    never pass through float64 on the big-integer side.
    """
    if not (isinstance(wvals, np.ndarray) and np.issubdtype(wvals.dtype, np.integer)):
        wvals = np.array([int(w) for w in wvals], dtype=object)
    small = (wvals > -_EXACT_INT_LIMIT) & (wvals < _EXACT_INT_LIMIT)
    if small.all():
        return frac_mul_vec(xi, wvals.astype(np.float64))
    out = np.empty(len(wvals), dtype=np.float64)
    out[small] = frac_mul_vec(xi, wvals[small].astype(np.float64))
    out[~small] = [frac_mul_exact(xi, int(w)) for w in wvals[~small]]
    return out


def fsum_complex(terms: np.ndarray) -> complex:
    """Exactly rounded sum of a complex array (fsum on both parts)."""
    t = np.ascontiguousarray(terms)
    return complex(math.fsum(t.real), math.fsum(t.imag))


def e2pi(t: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*t) for t already reduced to [0, 1)."""
    arg = 2.0 * np.pi * np.asarray(t, dtype=np.float64)
    return np.cos(arg) + 1j * np.sin(arg)


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
