"""Output parsing and independent oracles for the benchmark's checks.

Nothing here imports thinprimes: primes come from a plain Eratosthenes
sieve, thin sets from 40-digit mpmath floors (or exact integer roots), and
phases from exact integer arithmetic plus long-double powers.  A check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

MP_DPS = 40
XI_BITS = 20            # seeded xi values are k / 2^20, exact in binary64


# -- parsing ---------------------------------------------------------------

class Report:
    """A CSV report split into header fields, columns and data rows."""

    def __init__(self, text: str):
        self.header = {}
        data = []
        for line in text.splitlines():
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                self.header[key] = val
            elif line:
                data.append(line)
        if not data:
            raise ValueError("report has no column row")
        self.columns = data[0].split(",")
        width = len(self.columns)
        self.rows = [l.split(",") for l in data[1:] if l.count(",") == width - 1]
        self.footer = dict(l.split(",", 1) for l in data[1:]
                           if l.count(",") != width - 1)
        self.config = dict(tok.split("=", 1) for tok in
                           self.header.get("config", "").split() if "=" in tok)

    def col(self, name: str, conv=float) -> list:
        i = self.columns.index(name)
        return [conv(r[i]) for r in self.rows]


def body_of(text: str) -> str:
    """Data lines only: the part of a report that must be reproducible."""
    return "\n".join(l for l in text.splitlines() if not l.startswith("#"))


def corrupt(text: str, column: str, kind: str) -> str:
    """Copy of a report with every value in one column made wrong.

    kind "nudge" adds 1 to integers and moves floats by a relative 1e-6 (a
    plausible-looking error); kind "nan" writes nan.
    """
    out, idx, width = [], None, None
    for line in text.splitlines():
        if line.startswith("#") or not line:
            out.append(line)
            continue
        cells = line.split(",")
        if idx is None:
            idx, width = cells.index(column), len(cells)
        elif len(cells) == width:
            v = cells[idx]
            if kind == "nan":
                cells[idx] = "nan"
            elif v.lstrip("-").isdigit():
                cells[idx] = str(int(v) + 1)
            else:
                cells[idx] = repr(float(v) * (1 + 1e-6) + 1e-6)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol, false for nan."""
    return abs(a - b) <= tol


# -- number theory oracles -------------------------------------------------

def prime_mask(n: int) -> np.ndarray:
    """Boolean array of length n+1, True at the primes."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return mask


def floor_power_40(c: float, n_lo: int, limit: int) -> list[int]:
    """floor(n^c) at 40 digits for n = n_lo, n_lo+1, ... while <= limit."""
    out = []
    with mp.workdps(MP_DPS):
        cm = mp.mpf(c)
        n = n_lo
        while True:
            v = int(mp.floor(mp.mpf(n) ** cm))
            if v > limit:
                return out
            out.append(v)
            n += 1


def thin_prime_mask(gamma: float, limit: int, x0: float = 1.0) -> np.ndarray:
    """Primes p <= limit with p = floor(n^(1/gamma)) for an integer n >= x0.

    The exponent is the binary64 value 1/gamma, which is the function the
    program defines; floors are taken at 40 digits.
    """
    primes = prime_mask(limit)
    if gamma == 1.0:
        return primes
    vals = floor_power_40(1.0 / gamma, max(1, math.ceil(x0)), limit)
    mask = np.zeros(limit + 1, dtype=bool)
    mask[np.asarray(vals, dtype=np.int64)] = True
    return mask & primes


def thin_prime_mask_5_4(limit: int, x0: float = 1.0) -> np.ndarray:
    """Primes p <= limit of the form floor(n^(5/4)), n >= x0, by exact integer roots."""
    mask = np.zeros(limit + 1, dtype=bool)
    n = max(1, math.ceil(x0))
    while True:
        v = math.isqrt(math.isqrt(n ** 5))      # floor((n^5)^(1/4))
        if v > limit:
            break
        mask[v] = True
        n += 1
    return mask & prime_mask(limit)


def von_mangoldt(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, Lambda(n)) for the prime powers n in (lo, hi]."""
    primes = np.flatnonzero(prime_mask(hi))
    ns, lams = [], []
    for p in primes.tolist():
        q = p
        while q <= hi:
            if q > lo:
                ns.append(q)
                lams.append(math.log(p))
            if p * p > hi:
                break
            q *= p
    order = np.argsort(ns)
    return np.asarray(ns, dtype=np.int64)[order], np.asarray(lams)[order]


def xi_numerator(xi: float) -> int:
    """k with xi = k / 2^XI_BITS; refuses values off that grid."""
    k = xi * (1 << XI_BITS)
    if k != int(k):
        raise ValueError(f"xi={xi!r} is not a multiple of 2^-{XI_BITS}")
    return int(k)


def phases(xi: float, W: list[int], m: int, gamma: float,
           ns: np.ndarray) -> np.ndarray:
    """{xi*W(n) + m*n^gamma} as binary64, xi*W(n) exact, n^gamma in long double."""
    den = 1 << XI_BITS
    k = xi_numerator(xi)
    wmod = np.zeros_like(ns)
    for coef in reversed(W):                 # Horner mod 2^20, exact in int64
        wmod = (wmod * (ns % den) + coef) % den
    t_w = ((k * wmod) % den).astype(np.longdouble) / den
    t_phi = np.mod(m * np.power(ns.astype(np.longdouble), np.longdouble(gamma)), 1)
    return np.asarray(np.mod(t_w + t_phi, 1), dtype=np.float64)


def exp_sum(coeffs: np.ndarray, t: np.ndarray) -> complex:
    """sum coeffs * e(t) accumulated with fsum."""
    ang = 2 * np.pi * t
    re = coeffs * np.cos(ang)
    im = coeffs * np.sin(ang)
    if np.iscomplexobj(coeffs):
        return complex(math.fsum((re.real - im.imag).tolist()),
                       math.fsum((re.imag + im.real).tolist()))
    return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))


# -- per-subcommand checks ---------------------------------------------------

def check_decay_gaps(text: str, gamma: float, grid: int, upto: int) -> str | None:
    """gap(N) for dyadic N <= upto equals the benchmark's own per-xi sums."""
    rep = Report(text)
    x0 = float(rep.config.get("x0-resolved", "1.0"))
    thin = np.flatnonzero(thin_prime_mask(gamma, upto, x0))
    full = np.flatnonzero(prime_mask(upto))
    w_thin = np.log(thin) * thin ** (1.0 - gamma) / gamma
    w_full = np.log(full)
    j = np.arange(grid)[:, None]
    # e(j p / G) with the phase reduced exactly in integers
    cum_thin = np.cumsum(w_thin * np.exp(2j * np.pi * ((j * thin) % grid) / grid), axis=1)
    cum_full = np.cumsum(w_full * np.exp(2j * np.pi * ((j * full) % grid) / grid), axis=1)
    ns, gaps = rep.col("N", int), rep.col("gap")
    checked = 0
    for n, gap in zip(ns, gaps):
        if n > upto:
            continue
        a = np.searchsorted(thin, n, side="right")
        b = np.searchsorted(full, n, side="right")
        st = cum_thin[:, a - 1] if a else 0
        sf = cum_full[:, b - 1] if b else 0
        want = float(np.max(np.abs(st - sf)))
        scale = float(w_thin[:a].sum() + w_full[:b].sum())
        if not close(gap, want, 1e-9 * (1 + scale)):
            return f"gap({n})={gap!r}, per-xi recount gives {want!r}"
        checked += 1
    if checked == 0:
        return f"no dyadic row N <= {upto}"
    return None


def check_exact_zero(text: str) -> str | None:
    rep = Report(text)
    if not rep.rows or any(g != "0.0" for g in rep.col("gap", str)):
        return "identity gaps are not all exactly 0.0"
    if rep.footer.get("fitted_exponent") != "exact-zero":
        return "footer is not fitted_exponent,exact-zero"
    return None


def check_vaughan(text: str, P: int, xi: float, m: int, W: list[int],
                  gamma: float) -> str | None:
    """S1 - S21 - S22 + S3 equals the benchmark's own direct Lambda sum."""
    rep = Report(text)
    if len(rep.rows) != 1:
        return f"expected one row, got {len(rep.rows)}"
    row = dict(zip(rep.columns, rep.rows[0]))
    P1 = 2 * P
    if (int(row["P"]), int(row["P1"]), float(row["xi"]), int(row["m"])) != (P, P1, xi, m):
        return "row does not echo P, P1, xi, m"
    S = sum(sign * complex(float(row[f"{k}_re"]), float(row[f"{k}_im"]))
            for sign, k in ((1, "S1"), (-1, "S21"), (-1, "S22"), (1, "S3")))
    ns, lam = von_mangoldt(P, P1)
    direct = exp_sum(lam, phases(xi, W, m, gamma, ns))
    if not close(S, direct, 1e-8 * (1 + abs(direct))):
        return f"S1-S21-S22+S3={S!r}, direct Lambda sum {direct!r}"
    return None


def check_bilinear(text: str, K: int, L: int, xi: float, gamma: float,
                   seed: int) -> str | None:
    """The bilinear value equals the benchmark's own double sum.

    --delta random draws delta1 then delta2 as unit phases from
    numpy.random.default_rng(seed); that definition is reproduced here.
    """
    rep = Report(text)
    if len(rep.rows) != 1:
        return f"expected one row, got {len(rep.rows)}"
    row = dict(zip(rep.columns, rep.rows[0]))
    value = complex(float(row["value_re"]), float(row["value_im"]))
    rng = np.random.default_rng(seed)
    d1 = np.exp(2j * np.pi * rng.random(L))
    d2 = np.exp(2j * np.pi * rng.random(K))
    ls = np.arange(L + 1, 2 * L + 1, dtype=np.int64)[:, None]
    ks = np.arange(K + 1, 2 * K + 1, dtype=np.int64)[None, :]
    n = ls * ks
    inside = (n > K * L) & (n <= 2 * K * L)
    coeffs = (d1[:, None] * d2[None, :])[inside]
    want = exp_sum(coeffs, phases(xi, [0, 1], 1, gamma, n[inside]))
    if not close(value, want, 1e-8 * (1 + math.sqrt(coeffs.size))):
        return f"bilinear value {value!r}, double sum gives {want!r}"
    if not (float(row["bound"]) > 0 and math.isfinite(float(row["constant"]))):
        return "bound is not positive or constant is not finite"
    return None


def rep_count(masks: list[np.ndarray], N: int) -> int:
    """Ordered triples p1+p2+p3 = N with p_i in set i, by the pair loop."""
    p1s = np.flatnonzero(masks[0][:N + 1])
    p2s = np.flatnonzero(masks[1][:N + 1])
    ind3 = masks[2]
    total = 0
    for p1 in p1s.tolist():
        rem = N - p1 - p2s
        rem = rem[rem >= 2]
        total += int(np.count_nonzero(ind3[rem]))
    return total


def check_goldbach(text: str, gammas: tuple, n0: int, n_end: int,
                   recount_at: int) -> str | None:
    """Rows cover every odd target in order; one row is recounted here."""
    rep = Report(text)
    ns = rep.col("N", int)
    if ns != list(range(n0, n_end + 1, 2)):
        return f"rows do not cover the odd targets {n0}..{n_end} in order"
    ratios = rep.col("ratio")
    if not all(math.isfinite(r) and r > 0 for r in ratios):
        return "a main-term ratio is not finite and positive"
    masks = [thin_prime_mask(g, recount_at) for g in gammas]
    want = rep_count(masks, recount_at)
    got = rep.col("R", int)[ns.index(recount_at)]
    if got != want:
        return f"R({recount_at})={got}, pair recount gives {want}"
    return None


def check_density(text: str, gamma: float, upto: int = 10 ** 5,
                  exact_5_4: bool = False) -> str | None:
    """Counts at x <= upto match the benchmark's own thin-prime count."""
    rep = Report(text)
    xs, counts = rep.col("x", int), rep.col("count", int)
    ratios = rep.col("count_logx_over_phi")
    if not all(math.isfinite(r) and r > 0 for r in ratios):
        return "a density ratio is not finite and positive"
    upto = min(upto, max(xs))
    x0 = float(rep.config.get("x0-resolved", "1.0"))
    mask = thin_prime_mask_5_4(upto, x0) if exact_5_4 else thin_prime_mask(gamma, upto, x0)
    cum = np.cumsum(mask)
    for x, cnt in zip(xs, counts):
        if x <= upto and cnt != int(cum[x]):
            return f"count({x})={cnt}, 40-digit recount gives {int(cum[x])}"
    return None


def check_rotation_averages(text: str, N: int) -> str | None:
    rep = Report(text)
    ns = rep.col("N", int)
    want = [1 << k for k in range(4, N.bit_length()) if 1 << k <= N]
    if ns != want:
        return "rows are not the dyadic N from 16 to N"
    for n, re, im in zip(ns, rep.col("re"), rep.col("im")):
        if not abs(complex(re, im)) <= 1 + 1e-12:
            return f"|A_{n}| = {abs(complex(re, im))!r} exceeds 1"
    return None


def check_oscillation(text: str, N: int) -> str | None:
    rep = Report(text)
    if len(rep.rows) != 1:
        return f"expected one row, got {len(rep.rows)}"
    breaks = [4 ** j for j in range(2, 40) if 4 ** j <= N]
    J, value = rep.col("J", int)[0], rep.col("value")[0]
    if J != len(breaks) - 1:
        return f"J={J}, expected {len(breaks) - 1}"
    if not (math.isfinite(value) and value >= 0):
        return f"oscillation value {value!r} is not finite and >= 0"
    return None


def check_maximal(text: str, trials: int, r_list: tuple) -> str | None:
    rep = Report(text)
    want = [(r, t) for r in r_list for t in range(trials)]
    if list(zip(rep.col("r"), rep.col("seed", int))) != want:
        return f"rows are not {trials} trials for each r in {r_list}"
    if not all(math.isfinite(v) and v > 0 for v in rep.col("ratio")):
        return "a maximal ratio is not finite and positive"
    return None
