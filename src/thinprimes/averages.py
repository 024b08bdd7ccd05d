"""Averaging kernels on the integers and their dyadic maximal operators.

Kernels place nonnegative mass at polynomial images W(p) of (thin) primes:

    Kh : weight 1/pi_h(N) at W(p), p thin prime <= N   (unit total mass)
    K1 : weight log(p)/(N phi'(p)) at W(p), p thin prime <= N
    K2 : weight log(p)/N at W(p), all primes p <= N

Maximal functions take the pointwise sup over dyadic N of |K_N * f|.
Signals and kernels are arrays over the hull of their support.  Each layer
of new atoms pairs its atoms with the signal's nonzeros and adds them by
np.bincount into the running sums, over the window where the layer can be
nonzero; the dyadic sup is exact, with no tail approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ._num import IntPolynomial, _check_hull, dyadic, exact_sum
from .errors import EmptySet, HypothesisViolated, LimitTooLarge, ParameterOutOfRange
from .sieve import PrimeTable, ThinPrimeSet


def _positions(W: IntPolynomial, ks: np.ndarray) -> np.ndarray:
    """W(k) as int64 positions; LimitTooLarge when a value does not fit."""
    try:
        return np.asarray(W.eval_vec(ks), dtype=np.int64)
    except OverflowError:
        raise LimitTooLarge(f"a position W(p) of {W} does not fit in int64") from None


def check_dyadic_limit(N_max: int) -> None:
    """maximal_function's rule for its largest level N_max."""
    if N_max < 2 or N_max & (N_max - 1):
        raise ParameterOutOfRange("N_max must be a power of two >= 2")


def check_norm_exponent(r: float) -> None:
    """lr_norm's rule for the exponent r."""
    if r != math.inf and r < 1:
        raise ParameterOutOfRange("r must satisfy 1 <= r <= inf")


class SparseSignal:
    """Finitely supported complex function on the integers.

    Stored as values[i] = f(offset + i): a complex128 array over the support
    hull, trimmed of zeros at both ends, so memory grows with the hull.
    """

    def __init__(self, data: dict | None = None):
        data = {int(k): complex(v) for k, v in (data or {}).items() if v != 0}
        self.offset = min(data, default=0)
        size = max(data, default=-1) - self.offset + 1
        _check_hull(size, np.complex128, "signal")
        self.values = np.zeros(size, dtype=np.complex128)
        self.values[[k - self.offset for k in data]] = list(data.values())

    @classmethod
    def from_dense(cls, arr: np.ndarray, offset: int = 0) -> "SparseSignal":
        """f(offset + i) = arr[i]; a copy of arr with its end zeros trimmed."""
        out, nz = cls(), np.flatnonzero(arr)
        if nz.size:
            out.offset = offset + int(nz[0])
            out.values = np.array(arr[nz[0]:nz[-1] + 1], dtype=np.complex128)
        return out

    def support(self) -> list[int]:
        return (np.flatnonzero(self.values) + self.offset).tolist()

    def __len__(self):
        return int(np.count_nonzero(self.values))

    def __getitem__(self, n: int) -> complex:
        i = int(n) - self.offset
        return complex(self.values[i]) if 0 <= i < self.values.size else 0j

    def __add__(self, other: "SparseSignal") -> "SparseSignal":
        parts = [s for s in (self, other) if s.values.size]
        lo = min((s.offset for s in parts), default=0)
        hi = max((s.offset + s.values.size for s in parts), default=0)
        _check_hull(hi - lo, np.complex128, "signal sum")
        out = np.zeros(hi - lo, dtype=np.complex128)
        for s in parts:
            out[s.offset - lo:s.offset - lo + s.values.size] += s.values
        return SparseSignal.from_dense(out, lo)

    def scale(self, c) -> "SparseSignal":
        # Python's complex product c * f(n): no fused multiply-add
        c, v = complex(c), self.values
        out = np.empty_like(v)
        out.real = c.real * v.real - c.imag * v.imag
        out.imag = c.real * v.imag + c.imag * v.real
        return SparseSignal.from_dense(out, self.offset)

    def is_nonnegative(self) -> bool:
        return bool(np.all((self.values.imag == 0) & (self.values.real >= 0)))


@dataclass
class Kernel:
    """Finitely supported nonnegative averaging kernel: weights[i] is the
    mass at offset + i, over the hull of the positions W(p); ``atoms`` is
    a read-only {W(p): weight} view, built per access."""
    variant: str
    N: int
    offset: int
    weights: np.ndarray
    mass: float

    @property
    def atoms(self) -> MappingProxyType:
        nz = np.flatnonzero(self.weights)
        return MappingProxyType(dict(zip((nz + self.offset).tolist(),
                                         self.weights[nz].tolist())))


def _variant_primes_weights(variant: str, tps: ThinPrimeSet, pt: PrimeTable,
                            N: int):
    if variant == "Kh":
        p, _ = tps.prefix(N)
        return p, np.ones(len(p))
    if variant == "K1":
        return tps.prefix(N)
    if variant == "K2":
        return pt.prefix(N)
    raise ParameterOutOfRange(f"unknown kernel variant {variant!r}")


def build_kernel(variant: str, tps: ThinPrimeSet, pt: PrimeTable,
                 W: IntPolynomial, N: int) -> Kernel:
    """Accumulate kernel atoms at W(p); weights per the variant's display."""
    ps, ws = _variant_primes_weights(variant, tps, pt, N)
    if len(ps) == 0:
        raise EmptySet(f"no primes <= {N} for kernel {variant}")
    if variant == "Kh":
        ws = ws / len(ps)
    else:
        ws = ws / N
    # bincount adds each position's weights in prime order, starting at 0.0
    positions = _positions(W, ps)
    lo = int(positions.min())
    _check_hull(int(positions.max()) - lo + 1, np.float64, f"kernel {variant}")
    weights = np.bincount(positions - lo, weights=ws)
    return Kernel(variant, N, lo, weights, exact_sum((weights,)).real)


def _running_sums(f: SparseSignal, positions, keys, weights, cutoffs):
    """Yield (N, k, win, accs, sups) per cutoff N: k = #{keys <= N}, and
    accs[j][t] = sum_{i < k} weights[j][i] * f(x - positions[i]) at
    x = f.offset + min(positions) + t, over the full hull.  The atoms new at
    a cutoff enter once, as one layer paired with f's nonzeros: per part of
    f (real, and imaginary when f has one) one np.bincount sums the pairs
    from 0.0, atoms ascending and then nonzeros ascending, over the slice
    win where the layer can be nonzero, and adds that to accs.  An x takes
    at most one pair per atom, so the atom order fixes the bits; integer
    sums are exact in any order.  sups[j] are zeroed arrays over the hull,
    for the caller's running sup."""
    nz = np.flatnonzero(f.values)
    parts = [f.values.real[nz], f.values.imag[nz]][:1 + f.values.imag.any()]
    alo, flen = int(positions.min()), f.values.size
    size = flen + int(positions.max()) - alo
    ends = np.searchsorted(keys, cutoffs, side="right").tolist()
    starts = [0] + ends[:-1]
    wins = [slice(int(positions[a:b].min()) - alo,
                  int(positions[a:b].max()) - alo + flen) if b > a
            else slice(0, 0) for a, b in zip(starts, ends)]
    pairs = max(b - a for a, b in zip(starts, ends)) * nz.size
    widest = max(win.stop - win.start for win in wins)
    # accs and sups; a layer's index and product pairs, its window and the
    # caller's quotient over it
    _check_hull(size * (len(parts) + 1) * len(weights) + 2 * (pairs + widest),
                np.float64, "running sum")
    dtype = np.float64 if len(parts) == 1 else np.complex128
    accs = [np.zeros(size, dtype=dtype) for _ in weights]
    sups = [np.zeros(size) for _ in weights]
    for N, a, b, win in zip(cutoffs, starts, ends, wins):
        if b > a:
            idx = ((positions[a:b] - alo - win.start)[:, None] + nz).ravel()
            for acc, w in zip(accs, weights):
                for i, part in enumerate(parts):
                    (acc.imag if i else acc.real)[win] += np.bincount(
                        idx, (w[a:b, None] * part).ravel(), win.stop - win.start)
        yield N, b, win, accs, sups


def maximal_function(f: SparseSignal, tps: ThinPrimeSet, W: IntPolynomial,
                     N_max: int) -> SparseSignal:
    """Pointwise sup over dyadic N <= N_max of |K_{Kh,N} * f|.

    Running sums accumulate layer by layer over the dyadic levels (new
    primes per level enter once, through _running_sums); each level's sum
    is divided by its count of primes, so the result equals the exact per-N
    computation.  The sup is raised only over the window a level changed:
    elsewhere the sum stands and the count grew, so the quotient cannot.
    """
    check_dyadic_limit(N_max)
    ps, _ = tps.prefix(N_max)
    if len(ps) == 0:
        raise EmptySet(f"no primes <= {N_max} for kernel Kh")
    if not len(f):
        return SparseSignal()
    positions = _positions(W, ps)
    for _, k, win, (acc,), (best,) in _running_sums(
            f, positions, ps, [np.ones(len(ps))], dyadic(2, N_max)):
        if k:
            np.maximum(best[win], np.abs(acc[win]) / float(k), out=best[win])
    del acc     # the hull's running sum, before the sup's complex copy
    return SparseSignal.from_dense(best, f.offset + int(positions.min()))


def lr_norm(f: SparseSignal, r: float) -> float:
    """ell^r norm; r = math.inf gives the exact sup norm."""
    check_norm_exponent(r)
    # the nonzeros in ascending n: zero padding changes np.sum's pairing
    mags = np.abs(f.values[f.values != 0])
    if not mags.size:
        return 0.0
    if r == math.inf:
        return float(mags.max())
    return float(np.sum(mags ** r) ** (1.0 / r))


def check_abel_range(a: float, b: float) -> None:
    """The rule for a range (a, b] of abel_summation's integers."""
    if not 0 <= a < b:
        raise ParameterOutOfRange(f"need 0 <= a < b, got a={a}, b={b}")


def abel_summation(u: np.ndarray, g: np.ndarray) -> tuple[float, float, float]:
    """Summation by parts over the integers a < n <= b, with the step
    integral evaluated in closed form.

    u and g hold u(n) and g(n) at those n, in ascending order.  lhs =
    sum u(n) g(n); rhs = U(b) g(b) - int_a^b U(t) g'(t) dt, where U is the
    running sum of u.  U is a step function, so the integral is a finite sum
    of U * (g at segment ends) and needs no quadrature.
    """
    if not len(u):
        return 0.0, 0.0, 0.0
    lhs = exact_sum((u * g,)).real
    U = np.cumsum(u)
    g_ends = np.append(g[1:], g[-1])
    rhs = float(U[-1]) * float(g[-1]) - exact_sum((U * (g_ends - g),)).real
    return lhs, rhs, abs(lhs - rhs)


def weighted_maximal_compare(S, w1, w2, f: SparseSignal, Omega: IntPolynomial,
                             Z) -> tuple[float, float]:
    """Pointwise comparison of two weighted maximal functions on the set S.

    M_i* f(x) = sup_{N in Z} (1/W_i(N)) sum_{k in S, k<=N} w_i(k) f(x-Omega(k)).
    Requires f >= 0 and a monotone weight ratio w2/w1 on S: decreasing is
    hypothesis (i), increasing with bounded w2 W1/(w1 W2) is (ii).  Returns
    (max_x M2*/M1*, sup_n w2(n)W1(n)/(w1(n)W2(n))); the domination bound
    ratio_max <= 1 + 2 C_sup is re-checked and violation raises.
    """
    if not f.is_nonnegative():
        raise ParameterOutOfRange("f must be nonnegative")
    S = np.asarray(sorted(int(s) for s in S), dtype=np.int64)
    Z = sorted(int(z) for z in Z)
    if len(S) == 0 or len(Z) == 0:
        raise EmptySet("empty set or empty range Z")
    nmax = Z[-1]
    S = S[S <= nmax]
    if len(S) == 0:
        raise EmptySet("no members of S below max(Z)")
    w1v = np.array([float(w1(int(k))) for k in S])
    w2v = np.array([float(w2(int(k))) for k in S])
    if np.any(w1v <= 0) or np.any(w2v <= 0):
        raise ParameterOutOfRange("weights must be positive on S")
    ratio = w2v / w1v
    d = np.diff(ratio)
    if np.all(d <= 1e-12):
        hypothesis = "i"
    elif np.all(d >= -1e-12):
        hypothesis = "ii"
    else:
        raise HypothesisViolated("w2/w1 is not monotone on S")
    W1c = np.cumsum(w1v)
    W2c = np.cumsum(w2v)
    c_sup = float(np.max(w2v * W1c / (w1v * W2c)))

    positions = _positions(Omega, S)
    # f >= 0 and the weights are positive: off the window the quotients fall
    for _, k, win, (acc1, acc2), (best1, best2) in _running_sums(
            f, positions, S, [w1v, w2v], Z):
        if k:
            np.maximum(best1[win], acc1[win] / W1c[k - 1], out=best1[win])
            np.maximum(best2[win], acc2[win] / W2c[k - 1], out=best2[win])
    mask = best1 > 0
    if not mask.any():
        return 0.0, c_sup
    ratio_max = float(np.max(best2[mask] / best1[mask]))
    if hypothesis == "ii" and ratio_max > 1.0 + 2.0 * c_sup + 1e-9:
        raise HypothesisViolated(
            f"domination failed: ratio_max={ratio_max:.12g} exceeds "
            f"1+2*C_sup={1 + 2 * c_sup:.12g}")
    return ratio_max, c_sup
