"""Averaging kernels on the integers and their dyadic maximal operators.

Kernels place nonnegative mass at polynomial images W(p) of (thin) primes:

    Kh : weight 1/pi_h(N) at W(p), p thin prime <= N   (unit total mass)
    K1 : weight log(p)/(N phi'(p)) at W(p), p thin prime <= N
    K2 : weight log(p)/N at W(p), all primes p <= N

Maximal functions take the pointwise sup over dyadic N of |K_N * f|.
Signals are finitely supported, so every convolution is computed exactly on
the full window where it can be nonzero; the dyadic sup is exact, with no
tail approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, HypothesisViolated, ParameterOutOfRange
from .expsum import IntPolynomial, grid_sup_gaps
from .sieve import PrimeTable, ThinPrimeSet

KERNEL_VARIANTS = ("Kh", "K1", "K2")


class SparseSignal:
    """Finitely supported complex function on the integers.

    Stored values are nonzero (canonical form); zero entries are dropped on
    construction.
    """

    def __init__(self, data: dict | None = None):
        self.data = {int(k): complex(v) for k, v in (data or {}).items()
                     if v != 0}

    @classmethod
    def delta(cls, n: int, value=1.0) -> "SparseSignal":
        return cls({n: value})

    @classmethod
    def from_dense(cls, arr: np.ndarray, offset: int = 0) -> "SparseSignal":
        nz = np.flatnonzero(arr)
        return cls({int(i) + offset: arr[i] for i in nz})

    def support(self) -> list[int]:
        return sorted(self.data)

    def __len__(self):
        return len(self.data)

    def __getitem__(self, n: int) -> complex:
        return self.data.get(int(n), 0j)

    def __add__(self, other: "SparseSignal") -> "SparseSignal":
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0j) + v
        return SparseSignal(out)

    def scale(self, c) -> "SparseSignal":
        return SparseSignal({k: c * v for k, v in self.data.items()})

    def abs(self) -> "SparseSignal":
        return SparseSignal({k: abs(v) for k, v in self.data.items()})

    def is_nonnegative(self) -> bool:
        return all(v.imag == 0 and v.real >= 0 for v in self.data.values())

    def dense(self) -> tuple[np.ndarray, int]:
        """(values, offset): values[i] = f(offset + i) over the support hull."""
        if not self.data:
            return np.zeros(1, dtype=np.complex128), 0
        lo, hi = min(self.data), max(self.data)
        arr = np.zeros(hi - lo + 1, dtype=np.complex128)
        for k, v in self.data.items():
            arr[k - lo] = v
        return arr, lo

    def csv_rows(self):
        for k in self.support():
            v = self.data[k]
            yield k, v.real, v.imag

    @classmethod
    def from_csv_rows(cls, rows) -> "SparseSignal":
        return cls({int(i): float(re) + 1j * float(im) for i, re, im in rows})


@dataclass
class Kernel:
    """Finitely supported nonnegative averaging kernel."""
    variant: str
    N: int
    atoms: dict            # W(p) -> accumulated weight
    mass: float

    def dense(self) -> tuple[np.ndarray, int]:
        lo, hi = min(self.atoms), max(self.atoms)
        arr = np.zeros(hi - lo + 1, dtype=np.float64)
        for k, v in self.atoms.items():
            arr[k - lo] += v
        return arr, lo


def _variant_primes_weights(variant: str, tps: ThinPrimeSet, pt: PrimeTable,
                            N: int):
    if variant == "Kh":
        p, _ = tps.prefix(N)
        return p, np.ones(len(p))
    if variant == "K1":
        return tps.prefix(N)
    if variant == "K2":
        p = pt.primes_in(1, N)
        return p, np.log(p.astype(np.float64))
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
    atoms: dict = {}
    positions = W.eval_vec(ps)
    for pos, w in zip(positions, ws):
        pos = int(pos)
        atoms[pos] = atoms.get(pos, 0.0) + float(w)
    return Kernel(variant, N, atoms, math.fsum(atoms.values()))


def convolve(kernel: Kernel, f: SparseSignal) -> SparseSignal:
    """Exact sparse convolution (K*f)(x) = sum_a w_a f(x - a)."""
    out: dict = {}
    for a, wa in kernel.atoms.items():
        for x, v in f.data.items():
            key = x + a
            out[key] = out.get(key, 0j) + wa * v
    return SparseSignal(out)


def _dyadic_range(n_max: int) -> list[int]:
    if n_max < 2 or n_max & (n_max - 1):
        raise ParameterOutOfRange("N_max must be a power of two >= 2")
    out, n = [], 2
    while n <= n_max:
        out.append(n)
        n *= 2
    return out


def maximal_function(f: SparseSignal, variant: str, tps: ThinPrimeSet,
                     pt: PrimeTable, W: IntPolynomial, N_max: int) -> SparseSignal:
    """Pointwise sup over dyadic N <= N_max of |K_{variant,N} * f|.

    Convolutions accumulate layer by layer over the dyadic levels (new
    primes per level enter once); normalization is applied per level on the
    running sum, so the result equals the exact per-N computation.
    """
    ps, ws = _variant_primes_weights(variant, tps, pt, N_max)
    if len(ps) == 0:
        raise EmptySet(f"no primes <= {N_max} for kernel {variant}")
    if not f.data:
        return SparseSignal()
    fdense, flo = f.dense()
    positions = np.asarray(W.eval_vec(ps), dtype=np.int64)
    alo, ahi = int(positions.min()), int(positions.max())
    acc = np.zeros(len(fdense) + (ahi - alo), dtype=np.complex128)
    best = np.zeros(len(acc), dtype=np.float64)
    prev = 0
    counts_cum = 0
    for N in _dyadic_range(N_max):
        hi = int(np.searchsorted(ps, N, side="right"))
        if hi > prev:
            layer_pos = positions[prev:hi]
            layer_w = ws[prev:hi]
            llo, lhi = int(layer_pos.min()), int(layer_pos.max())
            layer = np.zeros(lhi - llo + 1, dtype=np.float64)
            np.add.at(layer, layer_pos - llo, layer_w)
            conv = np.convolve(fdense, layer)
            start = llo - alo
            acc[start:start + len(conv)] += conv
            counts_cum = hi
            prev = hi
        if counts_cum == 0:
            continue
        norm = float(counts_cum) if variant == "Kh" else float(N)
        np.maximum(best, np.abs(acc) / norm, out=best)
    return SparseSignal.from_dense(best, flo + alo)


def lr_norm(f: SparseSignal, r: float) -> float:
    """ell^r norm; r = math.inf gives the exact sup norm."""
    if r != math.inf and r < 1:
        raise ParameterOutOfRange("r must satisfy 1 <= r <= inf")
    if not f.data:
        return 0.0
    mags = np.abs(np.fromiter(f.data.values(), dtype=np.complex128))
    if r == math.inf:
        return float(mags.max())
    return float(np.sum(mags ** r) ** (1.0 / r))


def abel_summation(u, g, a: float, b: float) -> tuple[float, float, float]:
    """Summation by parts with the step integral evaluated in closed form.

    lhs = sum_{a<n<=b} u(n) g(n); rhs = U(b) g(b) - int_a^b U(t) g'(t) dt,
    where U is the running sum of u.  U is a step function, so the integral
    is a finite sum of U * (g at segment ends) and needs no quadrature.
    """
    if not 0 <= a < b:
        raise ParameterOutOfRange("need 0 <= a < b")
    n_lo, n_hi = math.floor(a) + 1, math.floor(b)
    if n_hi < n_lo:
        return 0.0, 0.0, 0.0
    ns = np.arange(n_lo, n_hi + 1)
    uv = np.array([float(u(int(n))) for n in ns])
    gv = np.array([float(g(int(n))) for n in ns])
    lhs = math.fsum(uv * gv)
    U = np.cumsum(uv)
    g_ends = np.append(gv[1:], float(g(b)))
    rhs = float(U[-1]) * float(g(b)) - math.fsum(U * (g_ends - gv))
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

    fdense, flo = f.dense()
    positions = np.asarray(Omega.eval_vec(S), dtype=np.int64)
    alo, ahi = int(positions.min()), int(positions.max())
    out_len = len(fdense) + (ahi - alo)
    acc1 = np.zeros(out_len)
    acc2 = np.zeros(out_len)
    best1 = np.zeros(out_len)
    best2 = np.zeros(out_len)
    freal = fdense.real
    prev = 0
    for N in Z:
        hi = int(np.searchsorted(S, N, side="right"))
        if hi > prev:
            pos = positions[prev:hi]
            llo, lhi = int(pos.min()), int(pos.max())
            lay1 = np.zeros(lhi - llo + 1)
            lay2 = np.zeros(lhi - llo + 1)
            np.add.at(lay1, pos - llo, w1v[prev:hi])
            np.add.at(lay2, pos - llo, w2v[prev:hi])
            c1 = np.convolve(freal, lay1)
            c2 = np.convolve(freal, lay2)
            start = llo - alo
            acc1[start:start + len(c1)] += c1
            acc2[start:start + len(c2)] += c2
            prev = hi
        if prev == 0:
            continue
        np.maximum(best1, acc1 / W1c[prev - 1], out=best1)
        np.maximum(best2, acc2 / W2c[prev - 1], out=best2)
    mask = best1 > 0
    if not mask.any():
        return 0.0, c_sup
    ratio_max = float(np.max(best2[mask] / best1[mask]))
    if hypothesis == "ii" and ratio_max > 1.0 + 2.0 * c_sup + 1e-9:
        raise HypothesisViolated(
            f"domination failed: ratio_max={ratio_max:.12g} exceeds "
            f"1+2*C_sup={1 + 2 * c_sup:.12g}")
    return ratio_max, c_sup


def kernel_gap_norm(tps: ThinPrimeSet, pt: PrimeTable, W: IntPolynomial,
                    N: int, xi_grid: int) -> float:
    """sup over xi = j/xi_grid of |K1^(xi) - K2^(xi)| (Fourier transforms).

    The transforms are the weighted prime sums divided by N, so this is
    grid_sup_gaps at the single cutoff N, divided by N: gap(N)/N of the
    decay profile by construction.
    """
    thin_p, thin_w = tps.prefix(N)
    if len(thin_p) == 0:
        raise EmptySet(f"no primes <= {N} for kernel K1")
    full_p = pt.primes_in(1, N)
    gap, = grid_sup_gaps(thin_p, thin_w, full_p,
                         np.log(full_p.astype(np.float64)), W, xi_grid, [N])
    return float(gap) / N
