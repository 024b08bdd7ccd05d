"""Concrete measure-preserving systems and thin-prime ergodic averages.

Two systems cover the desk-scale checks: FiniteCycle(m) is Z_m with
counting measure and T x = x + 1 (all orbit arithmetic exact mod m), and
CircleRotation(alpha) is [0,1) with T x = x + alpha, observables restricted
to trigonometric polynomials so that orbit evaluation stays an exact
multiply-mod-1.  Almost-everywhere statements are probed at fixed start
points.  Averages and oscillation sums read one running sum of the orbit
values over the thin primes, _running_sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._num import e2pi, exact_sum, frac_mul_int_vec, mod1
from .errors import (
    EmptySet,
    InvalidBreaks,
    ParameterOutOfRange,
    RangeBeyondTable,
)
from .expsum import IntPolynomial
from .sieve import PrimeTable, ThinPrimeSet

MAX_CYCLE = 1 << 31
# Most powers zeps_grid may take, about log(upper + 1)/log(1 + eps): 2^24
# of them are a 128 MiB float64 array.
MAX_ZEPS_STEPS = 1 << 24


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
        ys = mod1(float(x) + shifts)
        out = np.zeros(len(ps), dtype=np.complex128)
        for freq, coef in f:
            out += complex(coef) * e2pi(mod1(int(freq) * ys))
        return out
    raise ParameterOutOfRange(f"unknown system {sys!r}")


def _running_sum(sys, f, x, tps: ThinPrimeSet, pt: PrimeTable,
                 W: IntPolynomial, nmax: int, weighted: bool, what: str):
    """(ps, cum): the thin primes p <= nmax and the running sum of
    f(T^{W(p)} x) over them, each term times p's weight if weighted."""
    if nmax > tps.limit or nmax > pt.limit:
        raise RangeBeyondTable(f"{what} beyond enumerated or sieved limit")
    ps, ws = tps.prefix(nmax)
    vals = _orbit_values(sys, f, x, ps, W)
    return ps, np.cumsum(ws * vals if weighted else vals)


def average_series(sys, f, x, tps: ThinPrimeSet, pt: PrimeTable,
                   W: IntPolynomial, checkpoints, weighted: bool = False) -> AverageSeries:
    """Sample the ergodic average at each checkpoint, from one running sum.

    unweighted: (1/pi_h(N)) sum f(T^{W(p)} x) over thin primes p <= N
    weighted:   (1/N) sum log(p)/phi'(p) f(T^{W(p)} x)
    """
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints:
        raise ParameterOutOfRange("need at least one checkpoint")
    ps, cum = _running_sum(sys, f, x, tps, pt, W, max(checkpoints), weighted,
                           "checkpoint")
    out = []
    for n in checkpoints:
        cnt = int(np.searchsorted(ps, n, side="right"))
        if cnt == 0:
            raise EmptySet(f"no thin primes <= {n}")
        out.append(complex(cum[cnt - 1]) / (n if weighted else cnt))
    return AverageSeries(checkpoints, out)


def _zeps_steps(eps: float, upper: int) -> float:
    """About the number of powers (1+eps)^n up to the first one past upper."""
    return math.log(max(upper, 0) + 1) / math.log(1.0 + eps)


def check_eps(eps: float, upper: int) -> None:
    """zeps_grid's rule for eps: 1 + eps must exceed 1 in binary64, and
    pass upper within MAX_ZEPS_STEPS powers."""
    if not 0 < eps < math.inf:
        raise ParameterOutOfRange("eps must be positive and finite")
    if 1.0 + eps == 1.0:
        raise ParameterOutOfRange(f"eps={eps!r} vanishes beside 1 in binary64")
    if _zeps_steps(eps, upper) > MAX_ZEPS_STEPS:
        raise ParameterOutOfRange(
            f"eps={eps!r} needs more than {MAX_ZEPS_STEPS} steps to reach {upper}")


def zeps_grid(eps: float, upper: int) -> np.ndarray:
    """Members floor((1+eps)^n) <= upper, n >= 1, deduplicated ascending.

    One vector pass over n: the float64 power is libm's pow under the
    pinned dispatch, the bits of Python's (1.0 + eps) ** n, and nondecreasing
    in n, so the members end at the first power past upper and a repeat
    sits next to its first occurrence.
    """
    check_eps(eps, upper)
    # two spare powers cover the rounding of the logs
    v = np.arange(1, math.ceil(_zeps_steps(eps, upper)) + 3, dtype=np.float64)
    np.floor(np.power(1.0 + eps, v, out=v), out=v)
    v = v[:np.searchsorted(v, upper, side="right")]
    keep = np.ones(v.size, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep].astype(np.int64)


def oscillation_sum(sys, f, x, tps: ThinPrimeSet, pt: PrimeTable,
                    W: IntPolynomial, N_breaks, eps: float) -> float:
    """Sum over blocks of the sup oscillation of the weighted averages.

    sum_j sup over N in Z_eps with N_j < N <= N_{j+1} of
    |A^1_N f(x) - A^1_{N_j} f(x)|, Z_eps = {floor((1+eps)^n)}.  Breaks must
    satisfy 2 N_j < N_{j+1}.

    A^1 is read at every break and point of Z_eps at once, each block's sup
    taken over its slice, with the bits of Python's complex / N, abs and
    max from 0.0 (README, numerical policy).
    """
    breaks = [int(b) for b in N_breaks]
    if len(breaks) < 2:
        raise InvalidBreaks("need at least two breakpoints")
    for a, b in zip(breaks, breaks[1:]):
        if not 2 * a < b:
            raise InvalidBreaks(f"breaks must more than double: {a} -> {b}")
    ps, cum = _running_sum(sys, f, x, tps, pt, W, breaks[-1], True, "breaks")
    if ps.size == 0:
        raise EmptySet("no thin primes below the last break")
    J = len(breaks)     # ns: the breaks, then Z_eps
    ns = np.concatenate([np.array(breaks, dtype=np.int64), zeps_grid(eps, breaks[-1])])
    cnt = np.searchsorted(ps, ns, side="right")
    at = np.where(cnt > 0, cum[cnt - 1], 0j)
    re, im = (at.real + at.imag * 0.0) / ns, (at.imag - at.real * 0.0) / ns
    ends = np.searchsorted(ns[J:], breaks, side="right") + J
    total = [float(np.fmax.reduce(np.hypot(re[a:b] - re[j], im[a:b] - im[j]),
                                  initial=0.0))
             for j, (a, b) in enumerate(zip(ends, ends[1:]))]
    return exact_sum((total,)).real
