"""Smooth function families generating thin prime sets, and their inverses.

A ThinFunction is one concrete member h of the admissible family: strictly
increasing, strictly convex, of the shape h(x) = Ch * x^c * (slowly varying).
Six families are supported:

    power : h(x) = Ch * x^(1/gamma)          (gamma in (1/2, 1])
    h1    : h(x) = Ch * x^c * log(x)^A
    h2    : h(x) = Ch * x^c * exp(A * log(x)^B)
    h3    : h(x) = Ch * x * log(x)^C
    h4    : h(x) = Ch * x * exp(C * log(x)^B)
    h5    : h(x) = Ch * x * l_m(x),  l_1 = log, l_{m+1} = log o l_m

Each family is written once, as Ch * x^c * L(log x) over truncated Taylor
jets, and gives h and its derivatives up to order 4 at a point.  The jet
coefficients are float64 arrays for the bulk route and decimals at MP_DPS
digits for the escalated one (h_mp, phi_mp, frac_m_phi_mp), where a power
u^a is exp(a ln u) for speed (_decimal_pow).  Both routes evaluate the same
function, with the binary64 parameters entering as their exact values;
decimal contexts are per thread, so they need no lock.  The inverse phi is
closed-form for the power family, else a bracketed Newton run per entry.

Every floor(h(n)) decision is made by _certified_floor, through
floor_h_vec, and every float phi by phi_vec.  Each scalar method (h,
h_deriv, phi, phi_deriv, vartheta, theta, floor_h) is a one-element call of
its array route, so scalar and bulk agree bit for bit: numpy takes an
array's ** 0.5 as sqrt, but a float's as libm's pow.

The degenerate member power(gamma=1) is the identity h(x) = x, kept as exact
ground truth.  It takes the same routes as every other member, which at
c = Ch = 1.0 give its values exactly.  It is treated apart only where those
routes cannot serve it: the convexity check, since its h'' is 0; the floor
decision and floor_h's domain, since every h(n) = n is an integer that
_certified_floor would escalate and certify one by one; the x0 scan, whose
answer 1.0 is known; and derivative_ratio_report's theta-scaled rows, since
its theta is 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    MonotonicityUnattainable,
    NoConvergence,
    ParameterOutOfRange,
    PrecisionExhausted,
)

# Each family and the parameters it takes besides Ch and x0, which all take.
FAMILIES = {
    "power": ("gamma", "c"),
    "h1": ("c", "A"),
    "h2": ("c", "A", "B"),
    "h3": ("Cc",),
    "h4": ("Cc", "B"),
    "h5": ("m",),
}

# Distance to the nearest integer below which a binary64 floor decision is
# escalated to MP_DPS digits, and below which even those refuse to decide.
# The binary64 guard widens to GUARD_ULPS spacings of the call's largest
# value where that is more: h is within 0.61 ulp (power) or 2.41 ulp (h1-h5)
# of its exact value.
NEAR_INT_GUARD = 1e-9
GUARD_ULPS = 4
MP_GUARD = 1e-25
MP_DPS = 40
_MP_CONTEXT = Context(prec=MP_DPS)     # entered by every escalated evaluation

# Largest number of bracket doublings, and of Newton steps, phi_vec takes
# for one entry, and of Newton steps phi_mp takes, before giving up.
PHI_STEPS = 200
MP_NEWTON_STEPS = 60


class _Ops(NamedTuple):
    """Coefficient type of a jet: exact conversion of a binary64 parameter,
    log, exp and the power u^a."""
    num: Callable
    log: Callable
    exp: Callable
    pow: Callable


def _decimal_pow(u: Decimal, a: Decimal) -> Decimal:
    """u^a as exp(a ln u), in about half the time of Decimal.__pow__.

    The relative error is about |a ln u| units of the MP_DPS-th digit, not
    Decimal.__pow__'s correct rounding: below 1e-27 absolute on values up to
    2^34, far inside MP_GUARD."""
    return (a * u.ln()).exp()


_NP = _Ops(float, np.log, np.exp, operator.pow)     # float64 scalars and arrays
_MP = _Ops(Decimal, Decimal.ln, Decimal.exp, _decimal_pow)   # decimal, in _MP_CONTEXT


# Truncated Taylor jets [f, f', f''/2!, ...] at one point, as lists of
# coefficients of either type.  The recurrences come from comparing
# coefficients in u*(u^a)' = a*u'*u^a, (exp u)' = u'*exp(u), u*(log u)' = u'.

def _jet_mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _jet_pow(ops: _Ops, u, a):
    p = [ops.pow(u[0], a)]
    for k in range(1, len(u)):
        p.append(sum((a * j - (k - j)) * u[j] * p[k - j]
                     for j in range(1, k + 1)) / (k * u[0]))
    return p


def _jet_exp(ops: _Ops, u):
    e = [ops.exp(u[0])]
    for k in range(1, len(u)):
        e.append(sum(j * u[j] * e[k - j] for j in range(1, k + 1)) / k)
    return e


def _jet_log(ops: _Ops, u):
    g = [ops.log(u[0])]
    for k in range(1, len(u)):
        g.append((u[k] - sum((j * g[j] * u[k - j] for j in range(1, k)),
                             0 * g[0]) / k) / u[0])
    return g


def _domain_floor(family: str, m) -> float:
    """Smallest x where the family expression is defined and positive."""
    if family == "power":
        return 1.0
    if family == "h5":
        lo = 1.0
        for _ in range(m - 1):
            lo = math.exp(lo)
        return lo * (1.0 + 1e-12)
    return 1.0 + 1e-12


def _certified_floor(v, exact, args, name: str, integer=None) -> np.ndarray:
    """floor(v) as int64, certified.

    One guard g serves the call: max(NEAR_INT_GUARD, GUARD_ULPS spacings of
    the largest |v|).  Spacing grows with |v|, so g is at least each entry's
    own guard.  An entry whose fractional part lies below g or above 1 - g
    (rounded down) is decided from exact(args[i]) at MP_DPS digits.  If that
    too is within MP_GUARD of an integer, integer(args[i]) may certify the
    value as that integer exactly; PrecisionExhausted is raised when no
    certificate applies.
    """
    fl = np.floor(v)
    out = fl.astype(np.int64)
    if not v.size:
        return out
    g = max(NEAR_INT_GUARD,
            GUARD_ULPS * float(np.spacing(max(-v.min(), v.max()))))
    frac = np.subtract(v, fl, out=fl)
    near = np.flatnonzero((frac < g) | (frac > math.nextafter(1.0 - g, -math.inf)))
    if near.size:
        with localcontext(_MP_CONTEXT):
            for i in near:
                a = args[i].item()
                vm = exact(a)
                if abs(vm - vm.to_integral_value()) >= MP_GUARD:
                    out[i] = math.floor(vm)
                elif integer is not None and (k := integer(a)) is not None:
                    out[i] = k
                else:
                    raise PrecisionExhausted(
                        f"{name}({a}) within {MP_GUARD} of an integer at {MP_DPS} digits")
    return out


def _exact_root(n: int, b: int) -> int | None:
    """The integer r with r^b = n, for n >= 0 and b a power of two, or None."""
    while b > 1:
        r = math.isqrt(n)
        if r * r != n:
            return None
        n, b = r, b // 2
    return n


class ThinFunction:
    """One member h of the thin-prime generating family.

    Parameters are binary64; the object they define is h with exactly those
    float parameters, and all escalated-precision paths evaluate that same
    function.  Instances are immutable after construction and safe for
    concurrent read access.
    """

    def __init__(self, family: str, c: float, gamma: float, A=None, B=None,
                 Cc=None, m=None, Ch: float = 1.0, x0: float = None):
        self.family = family
        self.c = float(c)
        self.gamma = float(gamma)
        self.A = None if A is None else float(A)
        self.B = None if B is None else float(B)
        self.Cc = None if Cc is None else float(Cc)
        self.m = None if m is None else int(m)
        self.Ch = float(Ch)
        self.is_identity = family == "power" and self.gamma == 1.0 and self.Ch == 1.0
        if family not in FAMILIES:
            raise ParameterOutOfRange(f"unknown family {family!r}")

        if x0 is None:
            x0 = self._select_x0()
        else:
            x0 = float(x0)
            self._verify_x0(x0)
        self.x0 = x0
        self.h_x0 = self.h(x0)

    # -- the family, once for both coefficient types ----------------------

    def _slowly_varying(self, ops: _Ops, t):
        """Jet of L(log x) from the jet t of log x (not for the power family)."""
        if self.family in ("h1", "h3"):
            return _jet_pow(ops, t, ops.num(self.A if self.family == "h1" else self.Cc))
        if self.family in ("h2", "h4"):
            k = ops.num(self.A if self.family == "h2" else self.Cc)
            return _jet_exp(ops, [k * v for v in _jet_pow(ops, t, ops.num(self.B))])
        for _ in range(self.m - 1):     # h5: iterated log
            t = _jet_log(ops, t)
        return t

    def _derivs(self, x, order: int = 0, ops: _Ops = _NP) -> list:
        """[h(x), h'(x), ..., h^(order)(x)] for h = Ch * x^c * L(log x).

        The parameters enter as their exact binary64 values, and h itself is
        the product Ch * x**c * L, never exp of a sum of logs (only the
        decimal route's x**c is exp(c ln x), by ops.pow).
        """
        X = [x, 1, 0, 0, 0][:order + 1]
        d = [ops.num(self.Ch) * v for v in _jet_pow(ops, X, ops.num(self.c))]
        if self.family != "power":
            d = _jet_mul(d, self._slowly_varying(ops, _jet_log(ops, X)))
        return [v if k < 2 else math.factorial(k) * v for k, v in enumerate(d)]

    def _vartheta(self, x):
        """x*h'(x)/h(x) - c = d/dt log L(t) at t = log x."""
        if self.family == "power":
            return np.zeros_like(np.asarray(x, dtype=float))
        L = self._slowly_varying(_NP, [np.log(x), 1.0])
        return L[1] / L[0]

    # -- construction helpers -------------------------------------------

    def _grid_ok(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-point check of h>0, h'>0, h''>0 (and vartheta behavior at
        c=1), and h on the grid."""
        with np.errstate(all="ignore"):
            h0, h1, h2 = self._derivs(grid, 2)
        ok = np.isfinite(h0) & np.isfinite(h1) & np.isfinite(h2)
        ok &= (h0 > 0) & (h1 > 0)
        if self.is_identity:
            return ok, h0   # its h'' is 0, which the convexity check refuses
        ok &= h2 > 0
        if self.c == 1.0:
            with np.errstate(all="ignore"):
                vt = np.asarray(self._vartheta(grid), dtype=float)
            ok &= np.isfinite(vt) & (vt > 0)
            # nonincreasing from this point on
            dec = np.empty_like(ok)
            dec[:-1] = vt[:-1] >= vt[1:] - 1e-15
            dec[-1] = True
            ok &= dec
        return ok, h0

    def _select_x0(self) -> float:
        if self.is_identity:
            return 1.0      # the scan's answer, grid[0], without its 10000 points
        grid = np.geomspace(_domain_floor(self.family, self.m), 1e6, 10_000)
        ok, h0 = self._grid_ok(grid)
        ok &= h0 >= 1.0
        # first index from which every later grid point passes
        good_suffix = np.flip(np.cumprod(np.flip(ok.astype(bool))))
        idx = np.flatnonzero(good_suffix)
        if idx.size == 0:
            raise MonotonicityUnattainable(
                f"no x0 <= 1e6 satisfies the growth checks for {self.family}")
        return float(grid[idx[0]])

    def _verify_x0(self, x0: float) -> None:
        lo = _domain_floor(self.family, self.m)
        if x0 < lo:
            raise ParameterOutOfRange(f"x0={x0} below the domain of {self.family}")
        grid = np.geomspace(x0, max(1e6, 4 * x0), 2_000)    # grid[0] is x0
        ok, h0 = self._grid_ok(grid)
        if not bool(ok.all()):
            raise MonotonicityUnattainable(
                f"given x0={x0} violates the growth checks for {self.family}")
        if h0[0] < 1.0 - 1e-12:
            raise ParameterOutOfRange(f"h(x0)={h0[0]} < 1")

    # -- forward side -----------------------------------------------------

    def h(self, x: float) -> float:
        """h at one point: a one-element call of the array route."""
        return self.h_deriv(x, 0)

    def h_vec(self, x: np.ndarray) -> np.ndarray:
        return self._derivs(np.asarray(x, dtype=np.float64))[0]

    def h_deriv(self, x: float, n: int = 1) -> float:
        """h^(n)(x) as a one-element call of the array route, so its bits are
        h_vec's and h1_vec's (numpy's array ** 0.5 is sqrt, a float ** 0.5
        is libm's pow)."""
        if not 0 <= n <= 4:
            raise ParameterOutOfRange("h derivatives supported to order 4")
        if x < self.x0:
            raise DomainError(f"x={x} below x0={self.x0}")
        return float(self._derivs(np.array([x], dtype=np.float64), n)[n][0])

    def h1_vec(self, x: np.ndarray) -> np.ndarray:
        return self._derivs(np.asarray(x, dtype=np.float64), 1)[1]

    def vartheta(self, x):
        """x*h'(x)/h(x) - c over an array, or at a point as a one-element
        call of it."""
        xs = np.array([x] if np.isscalar(x) else x, dtype=np.float64)
        if np.min(xs) < self.x0:
            raise DomainError("argument below x0")
        v = self._vartheta(xs)
        return float(v[0]) if np.isscalar(x) else v

    # -- inverse side ------------------------------------------------------

    def phi(self, x: float) -> float:
        """Inverse of h at one point: a one-element call of phi_vec."""
        if x < self.h_x0 * (1 - 1e-12):
            raise DomainError(f"x={x} below h(x0)={self.h_x0}")
        return float(self.phi_vec(np.array([x], dtype=np.float64))[0])

    def phi_vec(self, x: np.ndarray) -> np.ndarray:
        """Inverse of h: closed form for the power family, else a bracketed
        Newton iteration run per entry over the array.

        Entry i starts from the power guess (x_i/Ch)^gamma in the bracket
        [x0, hi_i], hi_i doubled until h(hi_i) >= x_i.  A Newton step that
        leaves the bracket is replaced by bisection, and the entry stops once
        |h(y) - x_i| <= 1e-14 x_i.  An entry's steps read only that entry,
        so an array gives the bits of its one-element calls.
        """
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < self.h_x0 * (1 - 1e-12)):
            raise DomainError("argument below h(x0)")
        guess = (x / self.Ch) ** self.gamma
        if self.family == "power":
            return guess
        shape, x, guess = x.shape, x.reshape(-1), guess.reshape(-1)
        hi = np.maximum(2.0 * self.x0, guess * 2.0)
        grow = np.flatnonzero(self._derivs(hi)[0] < x)
        for _ in range(PHI_STEPS):
            if not grow.size:
                break
            hi[grow] *= 2.0
            grow = grow[self._derivs(hi[grow])[0] < x[grow]]
        if grow.size:
            raise NoConvergence(f"no bracket for phi({x[grow[0]]})")
        lo = np.full_like(x, self.x0)
        y = np.minimum(np.maximum(guess, self.x0), hi)
        live = np.arange(x.size)
        for _ in range(PHI_STEPS):
            ya, xa = y[live], x[live]
            h0, h1 = self._derivs(ya, 1)
            fy = h0 - xa
            more = ~(np.abs(fy) <= 1e-14 * xa)      # a nan goes on
            live, ya, fy, h1 = live[more], ya[more], fy[more], h1[more]
            if not live.size:
                return y.reshape(shape)
            above = fy > 0
            hi[live] = np.where(above, ya, hi[live])
            lo[live] = np.where(above, lo[live], ya)
            ynew = ya - fy / h1
            la, ha = lo[live], hi[live]
            y[live] = np.where((la < ynew) & (ynew < ha), ynew, 0.5 * (la + ha))
        raise NoConvergence(
            f"phi({x[live[0]]}) did not reach tolerance in {PHI_STEPS} steps")

    def phi_deriv(self, x: float, n: int = 1) -> float:
        """phi^(n)(x) from h's derivatives at phi(x), as a one-element call
        of the array route."""
        if not 1 <= n <= 3:
            raise ParameterOutOfRange("phi derivatives supported to order 3")
        d = self._derivs(np.array([self.phi(x)]), n)
        if n == 1:
            v = 1.0 / d[1]
        elif n == 2:
            v = -d[2] / d[1] ** 3
        else:
            v = (3.0 * d[2] * d[2] - d[3] * d[1]) / d[1] ** 5
        return float(v[0])

    def weight_vec(self, p: np.ndarray) -> np.ndarray:
        """Canonical per-prime weight h'(phi(p)) * log(p) = log(p)/phi'(p)."""
        p = np.asarray(p, dtype=np.float64)
        return self.h1_vec(self.phi_vec(p)) * np.log(p)

    def theta(self, x: float) -> float:
        """x*phi'(x)/phi(x) - gamma = 1/(c + vartheta(phi(x))) - gamma, as a
        one-element call of the array route."""
        v = 1.0 / (self.c + self._vartheta(np.array([self.phi(x)]))) - self.gamma
        return float(v[0])

    def sigma(self, x: float) -> float:
        """Decay weight of the inverse-side bounds: -theta for c=1, else 1."""
        if self.c > 1.0:
            return 1.0
        return -self.theta(x)

    # -- extended-precision evaluations and floor decisions ---------------

    def h_mp(self, x) -> Decimal:
        with localcontext(_MP_CONTEXT):
            return self._derivs(Decimal(x), 0, _MP)[0]

    def phi_mp(self, x) -> Decimal:
        with localcontext(_MP_CONTEXT):
            xm = Decimal(x)
            if self.family == "power":
                return (xm / Decimal(self.Ch)) ** Decimal(self.gamma)
            y = Decimal(self.phi(float(x)))
            tol = Decimal(10) ** (-(MP_DPS - 5)) * xm
            for _ in range(MP_NEWTON_STEPS):
                h0, h1 = self._derivs(y, 1, _MP)
                res = h0 - xm
                if abs(res) <= tol:
                    return y
                y = y - res / h1
            raise NoConvergence(
                f"phi_mp({x}) not within {tol:e} after {MP_NEWTON_STEPS} Newton steps")

    def frac_m_phi_mp(self, m: int, x) -> float:
        """{m*phi(x)} as a binary64, from phi_mp(x) at MP_DPS digits."""
        with localcontext(_MP_CONTEXT):
            v = int(m) * self.phi_mp(x)
            return float(v - math.floor(v))

    def integer_h(self, n: int) -> int | None:
        """h(n) for an integer n >= 1 where it is exactly an integer, else None.

        Decided in integer arithmetic, never from h_mp, whose u^a is
        exp(a ln u) and so misses an exact integer power.  Only the power
        family has this certificate: with c = a/b in lowest terms, n^c is
        rational only at n = r^b, where h(n) = Ch * r^a.
        """
        if self.family != "power":
            return None
        a, b = self.c.as_integer_ratio()
        r = _exact_root(int(n), b)
        if r is None:
            return None
        p, q = self.Ch.as_integer_ratio()
        k, rem = divmod(p * r ** a, q)
        return None if rem else k

    def floor_h_vec(self, ns) -> np.ndarray:
        """floor(h(n)) as int64 for integers n, certified by _certified_floor,
        with integer_h certifying the exact integer values."""
        ns = np.asarray(ns, dtype=np.int64)
        if self.is_identity:    # every h(n) = n is an integer: no guard needed
            return ns.copy()
        return _certified_floor(self.h_vec(ns), self.h_mp, ns, "h", self.integer_h)

    def floor_h(self, n: int) -> int:
        if n < self.x0 and not self.is_identity:   # floor(n) = n below x0 too
            raise DomainError(f"n={n} below x0={self.x0}")
        return int(self.floor_h_vec([n])[0])

    def __repr__(self):
        return (f"ThinFunction({self.family}, c={self.c:.6g}, gamma={self.gamma:.6g}, "
                f"x0={self.x0:.6g})")


def _reciprocal(v: float) -> float:
    """1/v, taking 1/0 as inf so that the range check refuses it."""
    return 1.0 / v if v else math.inf


def make_thin_function(family: str, *, gamma=None, c=None, A=None, B=None,
                       Cc=None, m=None, Ch=1.0, x0=None) -> ThinFunction:
    """Validate family parameters and construct the ThinFunction.

    A parameter outside the family's FAMILIES entry is refused.  For the
    power family pass gamma or c (c is forced to 1/gamma, and a c given with
    gamma must equal it); h1/h2 take c directly and h3/h4/h5 have c = 1.
    x0=None auto-selects the smallest left endpoint on a log grid where the
    growth checks hold.
    """
    family = family.lower()
    if family not in FAMILIES:
        raise ParameterOutOfRange(f"unknown family {family!r}")
    for name, value in dict(gamma=gamma, c=c, A=A, B=B, Cc=Cc, m=m).items():
        if value is not None and name not in FAMILIES[family]:
            raise ParameterOutOfRange(
                f"{name}={value} is not a parameter of family {family}")
    if Ch <= 0:
        raise ParameterOutOfRange("Ch must be positive")
    if family == "power":
        if gamma is None:
            if c is None:
                raise ParameterOutOfRange("power family needs gamma (or c)")
            gamma = _reciprocal(c)
        elif c is not None and c != _reciprocal(gamma):
            raise ParameterOutOfRange(f"c={c} is not 1/gamma for gamma={gamma}")
        c = _reciprocal(gamma)
        if not 1.0 <= c < 2.0:
            raise ParameterOutOfRange(f"c=1/gamma={c} outside [1, 2)")
        return ThinFunction(family, c, gamma, Ch=Ch, x0=x0)
    if family in ("h1", "h2"):
        if c is None:
            raise ParameterOutOfRange(f"{family} needs the exponent c")
        if not 1.0 <= c < 2.0:
            raise ParameterOutOfRange(f"c={c} outside [1, 2)")
        if A is None:
            raise ParameterOutOfRange(f"{family} needs A")
        if family == "h2":
            if B is None or not 0.0 < B < 1.0:
                raise ParameterOutOfRange("h2 needs B in (0, 1)")
        return ThinFunction(family, c, 1.0 / c, A=A, B=B, Ch=Ch, x0=x0)
    if family == "h3":
        if Cc is None or Cc <= 0:
            raise ParameterOutOfRange("h3 needs C > 0")
        return ThinFunction(family, 1.0, 1.0, Cc=Cc, Ch=Ch, x0=x0)
    if family == "h4":
        if Cc is None or Cc <= 0:
            raise ParameterOutOfRange("h4 needs C > 0")
        if B is None or not 0.0 < B < 1.0:
            raise ParameterOutOfRange("h4 needs B in (0, 1)")
        return ThinFunction(family, 1.0, 1.0, B=B, Cc=Cc, Ch=Ch, x0=x0)
    # h5
    if m is None or int(m) < 1:
        raise ParameterOutOfRange("h5 needs iterated-log depth m >= 1")
    return ThinFunction(family, 1.0, 1.0, m=int(m), Ch=Ch, x0=x0)


class RatioRow(NamedTuple):
    x: float
    side: str       # "h" or "phi"
    n: int
    ratio: float
    limit: float


def _falling(base: float, n: int) -> float:
    out = 1.0
    for j in range(n):
        out *= base - j
    return out


def derivative_ratio_report(tf: ThinFunction, n: int, grid) -> list[RatioRow]:
    """Measured derivative ratios against their limiting constants.

    c > 1: x^n h^(n)/h -> c(c-1)...(c-n+1) and x^n phi^(n)/phi -> gamma(...).
    c = 1, n >= 2: x^n h^(n)/(vartheta*h) and x^n phi^(n)/(theta*phi), both
    with limit (-1)^(n-2) (n-2)!.  For c = 1, n = 1 the h row reports the
    exact identity x h'/(h (1+vartheta)) against 1 and the phi row reports
    x phi'/phi against 1 (slow approach, not asserted).
    """
    if not 1 <= n <= 4:
        raise ParameterOutOfRange("n must be in 1..4")
    grid = [float(x) for x in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterOutOfRange("grid must be strictly increasing")
    rows = []
    for x in grid:
        if x < tf.x0:
            raise DomainError(f"grid point {x} below x0")
        hn = tf.h_deriv(x, n)
        h0 = tf.h(x)
        if tf.c > 1.0:
            rows.append(RatioRow(x, "h", n, x ** n * hn / h0, _falling(tf.c, n)))
        elif n == 1:
            vt = tf.vartheta(x)
            rows.append(RatioRow(x, "h", n, x * hn / (h0 * (1.0 + vt)), 1.0))
        else:
            vt = tf.vartheta(x)
            lim = float((-1) ** (n - 2) * math.factorial(n - 2))
            rows.append(RatioRow(x, "h", n, x ** n * hn / (vt * h0), lim))
        if n <= 3 and x >= tf.h_x0:
            pn = tf.phi_deriv(x, n)
            p0 = tf.phi(x)
            if tf.c > 1.0:
                rows.append(RatioRow(x, "phi", n, x ** n * pn / p0,
                                     _falling(tf.gamma, n)))
            elif n == 1:
                rows.append(RatioRow(x, "phi", n, x * pn / p0, 1.0))
            elif not tf.is_identity:    # its theta is 0, the ratio's divisor
                th = tf.theta(x)
                lim = float((-1) ** (n - 2) * math.factorial(n - 2))
                rows.append(RatioRow(x, "phi", n, x ** n * pn / (th * p0), lim))
    return rows


@dataclass(frozen=True)
class AdmissibleParams:
    """Exponent bookkeeping for a polynomial degree q and density gamma."""
    q: int
    gamma: float
    chi_max: float
    c_q: Fraction = field(compare=False)


def admissible_params(q: int, gamma: float) -> AdmissibleParams:
    """Largest chi with (2^(2q+2)+2^q-2)(1-gamma) + 2^q(2^(q+3)-2) chi < 1."""
    if q < 1:
        raise ParameterOutOfRange("q must be >= 1")
    if not 0.0 < gamma <= 1.0:
        raise ParameterOutOfRange("gamma must lie in (0, 1]")
    a = 2 ** (2 * q + 2) + 2 ** q - 2
    b = 2 ** q * (2 ** (q + 3) - 2)
    chi = (1.0 - a * (1.0 - gamma)) / b
    from fractions import Fraction
    c_q = Fraction(a, a - 1)
    return AdmissibleParams(q, gamma, max(chi, 0.0), c_q)


def admissibility_check(g1: float, g2: float, g3: float) -> tuple[bool, tuple]:
    """Ternary Goldbach's three cyclic density inequalities
    16(1-g_i)+14(1-g_j)+14(1-g_k)<1."""
    d1, d2, d3 = 1 - g1, 1 - g2, 1 - g3
    lhs = (16 * d1 + 14 * d2 + 14 * d3, 16 * d2 + 14 * d1 + 14 * d3,
           16 * d3 + 14 * d1 + 14 * d2)
    return all(v < 1.0 for v in lhs), lhs
