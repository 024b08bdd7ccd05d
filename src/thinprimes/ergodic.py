"""Concrete measure-preserving systems and thin-prime ergodic averages.

Two systems cover the desk-scale checks: FiniteCycle(m) is Z_m with
counting measure and T x = x + 1 (all orbit arithmetic exact mod m), and
CircleRotation(alpha) is [0,1) with T x = x + alpha, observables restricted
to trigonometric polynomials so that orbit evaluation stays an exact
multiply-mod-1.  Almost-everywhere statements are probed at fixed start
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._num import e2pi, frac_mul_int_vec
from .errors import (
    EmptySet,
    InvalidBreaks,
    ParameterOutOfRange,
    RangeBeyondTable,
)
from .expsum import IntPolynomial
from .sieve import PrimeTable, ThinPrimeSet

MAX_CYCLE = 1 << 31


@dataclass(frozen=True)
class FiniteCycle:
    """Z_m with uniform measure and the shift x -> x+1 mod m.

    m <= 2^31 keeps every orbit index exact in int64 (IntPolynomial.mod_vec).
    """
    m: int

    def __post_init__(self):
        if not 1 <= self.m <= MAX_CYCLE:
            raise ParameterOutOfRange("m must satisfy 1 <= m <= 2^31")


@dataclass(frozen=True)
class CircleRotation:
    """[0, 1) with x -> x + alpha mod 1."""
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ParameterOutOfRange(f"alpha must be finite, got {self.alpha!r}")


@dataclass
class AverageSeries:
    """Ergodic averages sampled along dyadic checkpoints."""
    checkpoints: list
    values: list
    weighted: bool

    def csv_rows(self):
        prev = None
        for n, v in zip(self.checkpoints, self.values):
            gap = abs(v - prev) if prev is not None else 0.0
            yield n, v.real, v.imag, gap
            prev = v


def _orbit_values(sys, f, x, ps: np.ndarray, W: IntPolynomial) -> np.ndarray:
    """f(T^{W(p)} x) for the member primes ps."""
    if isinstance(sys, FiniteCycle):
        m = sys.m
        table = np.asarray(f, dtype=np.complex128)
        if table.shape != (m,):
            raise ParameterOutOfRange(f"observable table must have length {m}")
        return table[(int(x) % m + W.mod_vec(ps, m)) % m]
    if isinstance(sys, CircleRotation):
        # f is a trig polynomial: iterable of (frequency, coefficient)
        shifts = frac_mul_int_vec(sys.alpha, W.eval_vec(ps))
        ys = (float(x) + shifts) % 1.0
        out = np.zeros(len(ps), dtype=np.complex128)
        for freq, coef in f:
            out += complex(coef) * e2pi((int(freq) * ys) % 1.0)
        return out
    raise ParameterOutOfRange(f"unknown system {sys!r}")


def average_series(sys, f, x, tps: ThinPrimeSet, pt: PrimeTable,
                   W: IntPolynomial, checkpoints, weighted: bool = False) -> AverageSeries:
    """Sample the ergodic average at each checkpoint, from one running sum.

    unweighted: (1/pi_h(N)) sum f(T^{W(p)} x) over thin primes p <= N
    weighted:   (1/N) sum log(p)/phi'(p) f(T^{W(p)} x)
    """
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints:
        raise ParameterOutOfRange("need at least one checkpoint")
    nmax = max(checkpoints)
    if nmax > tps.limit or nmax > pt.limit:
        raise RangeBeyondTable("checkpoint beyond enumerated or sieved limit")
    ps, ws = tps.prefix(nmax)
    vals = _orbit_values(sys, f, x, ps, W)
    cum = np.cumsum(ws * vals if weighted else vals)
    out = []
    for n in checkpoints:
        cnt = int(np.searchsorted(ps, n, side="right"))
        if cnt == 0:
            raise EmptySet(f"no thin primes <= {n}")
        out.append(complex(cum[cnt - 1]) / (n if weighted else cnt))
    return AverageSeries(checkpoints, out, weighted)


def check_eps(eps: float) -> None:
    """zeps_grid's rule for eps."""
    if not 0 < eps < math.inf:
        raise ParameterOutOfRange("eps must be positive and finite")


def zeps_grid(eps: float, upper: int) -> list[int]:
    """Members floor((1+eps)^n) <= upper, deduplicated ascending."""
    check_eps(eps)
    out, n = set(), 1
    while True:
        v = math.floor((1.0 + eps) ** n)
        if v > upper:
            break
        if v >= 1:
            out.add(v)
        n += 1
    return sorted(out)


def oscillation_sum(sys, f, x, tps: ThinPrimeSet, pt: PrimeTable,
                    W: IntPolynomial, N_breaks, eps: float) -> float:
    """Sum over blocks of the sup oscillation of the weighted averages.

    sum_j sup over N in Z_eps with N_j < N <= N_{j+1} of
    |A^1_N f(x) - A^1_{N_j} f(x)|, Z_eps = {floor((1+eps)^n)}.  Breaks must
    satisfy 2 N_j < N_{j+1}.
    """
    breaks = [int(b) for b in N_breaks]
    if len(breaks) < 2:
        raise InvalidBreaks("need at least two breakpoints")
    for a, b in zip(breaks, breaks[1:]):
        if not 2 * a < b:
            raise InvalidBreaks(f"breaks must more than double: {a} -> {b}")
    nmax = breaks[-1]
    if nmax > tps.limit or nmax > pt.limit:
        raise RangeBeyondTable("breaks beyond enumerated or sieved limit")
    ps, ws = tps.prefix(nmax)
    if ps.size == 0:
        raise EmptySet("no thin primes below the last break")
    vals = _orbit_values(sys, f, x, ps, W)
    cum = np.cumsum(ws * vals)

    def a1(n: int) -> complex:
        cnt = int(np.searchsorted(ps, n, side="right"))
        return (complex(cum[cnt - 1]) if cnt else 0j) / n

    zgrid = zeps_grid(eps, nmax)
    total = []
    for nj, nj1 in zip(breaks, breaks[1:]):
        base = a1(nj)
        sup = 0.0
        for n in zgrid:
            if nj < n <= nj1:
                sup = max(sup, abs(a1(n) - base))
        total.append(sup)
    return math.fsum(total)
