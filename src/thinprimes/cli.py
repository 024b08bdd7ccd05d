"""Batch command-line front end: one subcommand per experiment.

Configuration is a flat key=value text file plus --key value overrides
(--out, --format, --threads and --seed among them), echoed in full into
every report header, so a report is reproducible from its own header.  CSV
is the primary output ('#'-prefixed header comment lines, then a column
row, each value written by str); --format json mirrors the same rows with a
schema marker.  main reads a command line in one pass: the subcommand, then
the overrides, --config PATH and the value-less --dry-run; -h prints USAGE.

Each subcommand's keys are listed once, in ALLOWED_KEYS.  A subcommand is
one branch of the generator _steps: it reads and checks all of its
arguments, through the library's own check functions, and then yields the
prime table and thin sets it needs.  run() holds the one boundary there: it
refuses a given key the branch did not read, stops a --dry-run, starts the
clock, and alone builds the tables it sends back.  Every report or
diagnostic is written by _write.

main returns the exit code: 0 success; 2 a ThinPrimesError before the
boundary, a faulty command line included, written to stderr as one
'ValidationError: ' or 'ParseError: ' line (no output written); 3 one after
it, a computational failure (diagnostic JSON written instead of the report).

A command pays start-up only for the modules its subcommand runs: errors,
_num, thinfn and sieve are imported here, and expsum, averages, ergodic and
goldbach are registered lazily (_lazy), to be compiled and run on their
first attribute access; none imports another, so a subcommand runs at most
one.  That first access must come from the main thread; the --threads
workers run only sieve and thinfn code.  json, like fractions in thinfn and
concurrent.futures in sieve, is imported where it is first used, and
argparse, which pulls in gettext, not at all.
"""

from __future__ import annotations

import os

# Before numpy loads, and a value the user set wins.  Its bundled OpenBLAS
# starts a worker thread per extra CPU at import, and no command makes a
# BLAS call that a pool would speed up (the one is a polyfit over at most 34
# points).  Its AVX-512 kernels for float64 power, log and exp are not
# libm; without them every x86-64 host takes the AVX2 dispatch, where those
# vector calls give libm's bits, the same as Python's ** and math.log.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")

import importlib.util
import math
import sys
import time

import numpy as np

from . import __version__
from ._num import IntPolynomial, _check_hull, dyadic
from .errors import ParseError, ThinPrimesError, ValidationError
from .sieve import (
    build_prime_table,
    check_checkpoints,
    density_profile,
    enumerate_thin_primes,
)
from .thinfn import admissibility_check, admissible_params, make_thin_function


def _lazy(name: str):
    """The package's module `name`, executed on its first attribute access
    (the importlib.util.LazyLoader recipe); one already imported is returned
    as it is.

    Python 3.11's lazy module is not safe to load from two threads at once,
    so its first access must come from the main thread.  Worker threads run
    only sieve and thinfn code, which this module imports eagerly."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


averages = _lazy("averages")
ergodic = _lazy("ergodic")
expsum = _lazy("expsum")
goldbach = _lazy("goldbach")

# keys every subcommand understands
COMMON_KEYS = {"out", "format", "threads", "seed", "dry-run"}
THINFN_KEYS = {"family", "gamma", "c", "A", "B", "C", "m", "Ch", "x0"}

ALLOWED_KEYS = {
    "sieve": {"N", "checkpoints"},
    "density": THINFN_KEYS | {"N", "checkpoints"},
    "vaughan": THINFN_KEYS | {"W", "P", "P1", "xi", "mfreq", "v"},
    "formlem-decay": THINFN_KEYS | {"W", "N", "xi-grid"},
    "vdc": {"N", "k", "beta"},
    "bilinear": THINFN_KEYS | {"W", "xi", "mfreq", "K", "L", "delta"},
    "maximal": THINFN_KEYS | {"W", "N", "r-list", "support", "trials"},
    "abel": {"N"},
    "ergodic": THINFN_KEYS | {"W", "N", "system", "cycle-m", "alpha", "freq",
                              "x", "weighted"},
    "oscillation": THINFN_KEYS | {"W", "N", "eps", "x", "freq", "system",
                                  "cycle-m", "alpha"},
    "goldbach": {"gammas", "N", "N-end", "cutoff"},
    "parseval": THINFN_KEYS | {"N", "weighted", "side"},
    "admissible": {"q", "gamma", "gammas"},
}
SUBCOMMANDS = tuple(ALLOWED_KEYS)
USAGE = ("usage: thinprime SUBCOMMAND [--config PATH] [--key value ...] "
         "[--dry-run]\nsubcommands: " + ", ".join(SUBCOMMANDS))
ABEL_FROM = 2   # abel sums Lambda(n)/log(n) over ABEL_FROM < n <= N
TOOL = f"thinprimes {__version__}"

DEFAULTS = {
    "format": "csv",
    "threads": "1",
    "seed": "0",
    "family": "power",
    "gamma": "1.0",
    "Ch": "1.0",
    "W": "0,1",
    "xi": "0.3",
    "mfreq": "1",
    "xi-grid": "256",
    "k": "2",
    "beta": "1e-4",
    "delta": "ones",
    "r-list": "1.5,2,4",
    "support": "1024",
    "trials": "20",
    "system": "cycle",
    "cycle-m": "2",
    "alpha": str(math.sqrt(2.0) - 1.0),
    "freq": "1",
    "x": "0",
    "weighted": "false",
    "eps": "0.5",
    "cutoff": "10000",
    "side": "thin",
    "q": "1",
}


def _split(conv):
    """Parser of a comma list of conv values; empty entries are skipped."""
    return lambda text: [conv(tok) for tok in text.split(",") if tok != ""]


class RunConfig:
    """Flat configuration for one subcommand, and the keys read from it."""

    def __init__(self, subcommand: str, values: dict):
        self.subcommand = subcommand
        self.values = values
        self.extras = {}     # resolved defaults worth echoing (e.g. auto x0)
        self.read = set()    # keys looked up so far; run refuses the rest
        self.dry_run = False   # --dry-run, or dry-run given as true
        self.t0 = None       # set by run when the computation starts
        self._tf = None

    def get(self, key: str, default=None):
        self.read.add(key)
        return self.values.get(key, DEFAULTS.get(key, default))

    def given(self, key: str):
        """The value given for key, or None; reads the key as get does."""
        self.read.add(key)
        return self.values.get(key)

    def _typed(self, key: str, default, conv, what: str):
        raw = self.get(key, default)
        if raw is None:
            raise ValidationError(f"missing required key {key!r}")
        try:
            return conv(str(raw))
        except ValueError as exc:
            raise ValidationError(f"key {key!r}: {raw!r} is not {what}") from exc

    def get_int(self, key: str, default=None) -> int:
        return self._typed(key, default, int, "an integer")

    def get_float(self, key: str, default=None) -> float:
        return self._typed(key, default, float, "a number")

    def get_bool(self, key: str) -> bool:
        raw = str(self.get(key, "false")).lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"key {key!r}: {raw!r} is not a boolean")

    def get_int_list(self, key: str, default=None) -> list[int]:
        return self._typed(key, default, _split(int), "an int list")

    def get_float_list(self, key: str, default=None) -> list[float]:
        return self._typed(key, default, _split(float), "a float list")

    def _gamma_defaulted(self) -> bool:
        """The power family takes the default gamma: neither gamma nor c given."""
        return (self.values.get("family", DEFAULTS["family"]) == "power"
                and not {"gamma", "c"} & self.values.keys())

    def thin_function(self):
        """The configured ThinFunction, built once per configuration."""
        if self._tf is not None:
            return self._tf
        kwargs = {}
        for key in ("gamma", "c", "A", "B", "C", "m", "Ch", "x0"):
            if key in self.values or (key == "gamma" and self._gamma_defaulted()):
                get = self.get_int if key == "m" else self.get_float
                kwargs["Cc" if key == "C" else key] = get(key)
        tf = make_thin_function(self.get("family"), **kwargs)
        if "x0" not in self.values:
            self.extras["x0-resolved"] = repr(tf.x0)   # auto-selected, echoed
        self._tf = tf
        return tf

    def polynomial(self) -> IntPolynomial:
        return IntPolynomial(self.get_int_list("W"))

    def resolved(self) -> dict:
        out = dict(DEFAULTS)
        out.update(self.values)
        out = {k: v for k, v in out.items()
               if k in ALLOWED_KEYS[self.subcommand] | COMMON_KEYS}
        if "gamma" not in self.values and not self._gamma_defaulted():
            out.pop("gamma", None)
        out.update(self.extras)
        out["subcommand"] = self.subcommand
        return out


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key=value lines; '#' comments; commas+space also separate pairs."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        for col, token in enumerate(line.split(", ")):
            token = token.strip().rstrip(",")
            if not token:
                continue
            if "=" not in token:
                raise ParseError(
                    f"{source}:{lineno}: entry {col + 1} ({token!r}) has no '='")
            key, val = token.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def parse_config(subcommand: str, path: str | None, overrides: dict) -> RunConfig:
    """Merge file values and flag overrides, rejecting unknown keys."""
    if subcommand not in ALLOWED_KEYS:
        raise ValidationError(f"unknown subcommand {subcommand!r}")
    values = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read(), path))
        except OSError as exc:
            raise ParseError(f"cannot read config {path}: {exc}") from exc
    values.update(overrides)
    allowed = ALLOWED_KEYS[subcommand] | COMMON_KEYS
    for key in values:
        if key not in allowed:
            raise ValidationError(
                f"unknown key {key!r} for subcommand {subcommand}")
    return RunConfig(subcommand, values)


def _report(cfg: RunConfig, columns, rows, footer, wall: float, fmt: str) -> str:
    """The report text: CSV with a '#' header, or its JSON mirror.

    admissible's JSON is one flat object of its single row's values."""
    if fmt == "json":
        import json
        doc = {"schema": 1, "tool": TOOL}
        if cfg.subcommand == "admissible":
            doc.update(zip(columns, rows[0]))
            doc["wall_time_s"] = wall
        else:
            doc.update(config=cfg.resolved(), wall_time_s=wall,
                       columns=list(columns), rows=[list(r) for r in rows])
        doc.update(footer or {})
        return json.dumps(doc, indent=2, default=str) + "\n"
    header_cfg = " ".join(f"{k}={v}" for k, v in sorted(cfg.resolved().items()))
    lines = [f"# tool: {TOOL}", f"# config: {header_cfg}",
             f"# wall_time_s: {wall:.3f}", ",".join(columns)]
    lines += [",".join(map(str, row)) for row in rows]
    lines += [f"{k},{v}" for k, v in (footer or {}).items()]
    return "\n".join(lines) + "\n"


def _write(payload: str, out_path) -> None:
    """Write a report or diagnostic to --out, or to stdout without one."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _inputs(cfg: RunConfig):
    """(thin function, W, N) of the subcommand, each None where its keys
    do not apply."""
    keys = ALLOWED_KEYS[cfg.subcommand]
    tf = (cfg.thin_function()
          if THINFN_KEYS <= keys and cfg.get("side") != "full" else None)
    W = cfg.polynomial() if "W" in keys else None
    n = cfg.get_int("N") if "N" in keys else None
    if n is not None and n < 2:
        raise ValidationError("N must be >= 2")
    return tf, W, n


class _Planned(Exception):
    """A dry run reached the table boundary."""


def _gammas(cfg: RunConfig, default=None) -> list[float]:
    gammas = cfg.get_float_list("gammas", default)
    if len(gammas) != 3:
        raise ValidationError("gammas must be a comma triple")
    return gammas


def _seed(cfg: RunConfig) -> int:
    """--seed, which numpy's generator takes only as an integer >= 0."""
    seed = cfg.get_int("seed")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


def _observable(cfg: RunConfig):
    """(system, observable, start point) of ergodic and oscillation."""
    system = cfg.get("system")
    if system == "cycle":
        m = cfg.get_int("cycle-m")
        cycle = ergodic.FiniteCycle(m)     # checks m before the table is allocated
        _check_hull(m, np.complex128, "observable table")
        table = np.zeros(m, dtype=np.complex128)
        table[0] = 1.0
        if m > 1:
            table[1] = -1.0
        return cycle, table, cfg.get_int("x") % m
    if system != "rotation":
        raise ValidationError(f"unknown system {system!r} (cycle or rotation)")
    x = cfg.get_float("x")
    if not math.isfinite(x):
        raise ValidationError(f"x must be finite, got {x!r}")
    system = ergodic.CircleRotation(cfg.get_float("alpha"))
    return system, [(cfg.get_int("freq"), 1.0)], x


def _steps(cfg: RunConfig):
    """The subcommand: it reads and checks every argument, yields (limit,
    thin functions), or (None, []) for no table, and computes from the
    (table, sets) that run sends back; returns (columns, rows, footer)."""
    sub = cfg.subcommand
    tf, W, n = _inputs(cfg)
    if sub in ("sieve", "density"):
        if cfg.given("checkpoints"):
            xs = cfg.get_int_list("checkpoints")
        else:   # 10, 100, ... below N, and N itself
            xs = [10 ** j for j in range(1, len(str(n))) if 10 ** j < n] + [n]
        check_checkpoints(xs, n)
        pt, sets = yield n, [tf] if tf else []
        if tf:
            rows = density_profile(sets[0], xs)
            return ["x", "count", "count_logx_over_phi"], rows, None
        return ["x", "pi_x"], [(x, pt.pi(x)) for x in xs], None
    if sub == "vaughan":
        P = cfg.get_int("P")
        P1 = cfg.get_int("P1") if cfg.given("P1") else 2 * P
        spec = expsum.PhaseSpec(cfg.get_float("xi"), W, cfg.get_int("mfreq"), tf,
                                P, P1)
        v = (cfg.get_float("v") if cfg.given("v")
             else expsum.default_v(spec.P1, spec.W.degree))
        expsum.check_split_point(spec.P, v)
        pt, _ = yield spec.P1, []
        res = expsum.vaughan_split(pt, spec, v)
        row = (spec.P, spec.P1, v, spec.xi, spec.m,
               res.S1.real, res.S1.imag, res.S21.real, res.S21.imag,
               res.S22.real, res.S22.imag, res.S3.real, res.S3.imag,
               res.residual, res.residual / (1.0 + abs(res.direct)))
        return ["P", "P1", "v", "xi", "m", "S1_re", "S1_im", "S21_re",
                "S21_im", "S22_re", "S22_im", "S3_re", "S3_im", "residual",
                "residual_rel"], [row], None
    if sub == "formlem-decay":
        grid = cfg.get_int("xi-grid")
        expsum.check_decay_args(grid, n)
        pt, (tps,) = yield n, [tf]
        prof = expsum.formlem_decay(pt, W, grid, n, tps=tps)
        footer = {"fitted_exponent": prof.fitted_exponent
                  if prof.fitted_exponent is not None else "exact-zero"}
        return ["N", "gap", "gap_over_N"], prof.entries, footer
    if sub == "vdc":
        # F(t) = beta t^k has F^(k) = eta = k! beta, checked in logs before it
        # is formed; k is clamped to where the rule can accept it, so lgamma
        # is defined and finite
        k, beta = cfg.get_int("k"), cfg.get_float("beta")
        expsum.check_vdc_args(n, k, math.lgamma(min(max(k, 2), 1024) + 1)
                       + (math.log(beta) if beta > 0 else -math.inf), 1.0)
        yield None, []
        res = expsum.vdc_bound_check(lambda t: beta * t ** k, n, k,
                                     math.factorial(k) * beta, 1.0)
        return (["N", "k", "beta", "sum_abs", "bound", "constant"],
                [(n, k, beta, res.sum_abs, res.bound, res.constant)], None)
    if sub == "bilinear":
        K, L, m = cfg.get_int("K"), cfg.get_int("L"), cfg.get_int("mfreq")
        expsum.check_bilinear_sizes(K, L, m)
        spec = expsum.PhaseSpec(cfg.get_float("xi"), W, m, tf, K * L, 2 * K * L)
        delta = cfg.get("delta")
        if delta not in ("ones", "random"):
            raise ValidationError(f"delta must be ones or random, got {delta!r}")
        seed = _seed(cfg) if delta == "random" else None
        yield None, []
        if seed is None:
            d1, d2 = np.ones(L, dtype=complex), np.ones(K, dtype=complex)
        else:
            rng = np.random.default_rng(seed)
            d1 = np.exp(2j * np.pi * rng.random(L))
            d2 = np.exp(2j * np.pi * rng.random(K))
        res = expsum.bilinear_sum_bound(d1, d2, spec)
        return (["K", "L", "value_re", "value_im", "bound", "constant"],
                [(K, L, res.value.real, res.value.imag, res.bound,
                  res.constant)], None)
    if sub == "maximal":
        averages.check_dyadic_limit(n)
        rs = cfg.get_float_list("r-list")
        for r in rs:
            averages.check_norm_exponent(r)
        support, trials = cfg.get_int("support"), cfg.get_int("trials")
        if support < 1:
            raise ValidationError("support must be >= 1")
        _check_hull(support, np.complex128, "signal")
        seed = _seed(cfg)
        pt, (tps,) = yield n, [tf]
        rng = np.random.default_rng(seed)
        rows = []
        for r in rs:
            for trial in range(trials):
                idx = rng.choice(support, max(1, support // 4), replace=False)
                f = averages.SparseSignal.from_dense(
                    np.bincount(idx, minlength=support))
                mf = averages.maximal_function(f, tps, W, n)
                rows.append((r, support, trial,
                             averages.lr_norm(mf, r) / averages.lr_norm(f, r)))
        return ["r", "support_size", "seed", "ratio"], rows, None
    if sub == "abel":
        averages.check_abel_range(ABEL_FROM, n)
        pt, _ = yield n, []
        ns = np.arange(ABEL_FROM + 1, n + 1)
        lhs, rhs, resid = averages.abel_summation(
            pt.lambda_array(n)[ABEL_FROM + 1:], 1.0 / np.log(ns))
        return ["lhs", "rhs", "residual"], [(lhs, rhs, resid)], None
    if sub == "ergodic":
        system, table, x = _observable(cfg)
        weighted = cfg.get_bool("weighted")
        pt, (tps,) = yield n, [tf]
        first = min(16, 1 << (n.bit_length() - 1))
        series = ergodic.average_series(system, table, x, tps, pt, W,
                                        dyadic(first, n), weighted)
        return ["N", "re", "im", "gap"], list(series.csv_rows()), None
    if sub == "oscillation":
        system, table, x = _observable(cfg)
        eps = cfg.get_float("eps")
        breaks = [4 ** j for j in range(2, 40) if 4 ** j <= n]
        if len(breaks) < 2:
            raise ValidationError("N too small for oscillation breaks")
        ergodic.check_eps(eps, breaks[-1])
        pt, (tps,) = yield n, [tf]
        val = ergodic.oscillation_sum(system, table, x, tps, pt, W, breaks, eps)
        J = len(breaks) - 1
        return ["J", "eps", "value", "value_over_J"], [(J, eps, val, val / J)], None
    if sub == "goldbach":
        n_end = cfg.get_int("N-end") if cfg.given("N-end") else n
        if n % 2 == 0 or n_end < n:
            raise ValidationError("N must be odd and N-end >= N")
        goldbach.check_targets(n, n_end)
        cutoff = cfg.get_int("cutoff")
        goldbach.check_cutoff(cutoff)
        gammas = _gammas(cfg, "1,1,1")
        tf_of = {g: make_thin_function("power", gamma=g) for g in gammas}
        pt, sets = yield n_end, tf_of.values()
        set_of = dict(zip(tf_of, sets))   # each distinct gamma enumerated once
        rows = goldbach.goldbach_reports([tf_of[g] for g in gammas],
                                         [set_of[g] for g in gammas], n,
                                         n_end, pt, cutoff)
        return ["N", "R", "S_paper", "S_classical", "main_term", "ratio",
                "flags"], rows, None
    if sub == "parseval":
        side = cfg.get("side")
        if side not in ("thin", "full"):
            raise ValidationError(f"side must be thin or full, got {side!r}")
        weighted = cfg.get_bool("weighted")
        pt, sets = yield n, [tf] if tf else []
        lhs, rhs = goldbach.parseval_check(sets[0] if tf else pt, n, weighted)
        rel = abs(lhs - rhs) / rhs if rhs else 0.0
        return ["N", "lhs", "rhs", "rel_err"], [(n, lhs, rhs, rel)], None
    # admissible
    q, gamma = cfg.get_int("q"), cfg.get_float("gamma")
    ap = admissible_params(q, gamma)
    gammas = _gammas(cfg) if cfg.given("gammas") else None
    yield None, []
    footer = None
    if gammas:
        ok, lhs = admissibility_check(*gammas)
        footer = {"ternary_admissible": ok,
                  "ternary_lhs": ",".join(f"{v:.6g}" for v in lhs)}
    return (["q", "gamma", "chi_max", "c_q"],
            [(q, gamma, ap.chi_max, str(ap.c_q))], footer)


def run(cfg: RunConfig) -> tuple[list, list, dict | None]:
    """Read and check every argument of the subcommand, then compute it;
    returns (columns, rows, footer).  The boundary sits where _steps
    yields; past it, a ThinPrimesError maps to exit 3."""
    steps = _steps(cfg)
    limit, thin = next(steps)
    threads = 1 if limit is None else cfg.get_int("threads")
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    unread = [key for key in cfg.values if key not in cfg.read]
    if unread:
        raise ValidationError(
            f"key {unread[0]!r} is not used by this {cfg.subcommand} run")
    if cfg.dry_run:
        raise _Planned
    cfg.t0 = time.perf_counter()
    pt = None if limit is None else build_prime_table(limit, threads=threads)
    sets = [enumerate_thin_primes(tf, pt, limit, threads=threads) for tf in thin]
    try:
        steps.send((pt, sets))
    except StopIteration as done:
        return done.value


def _format(cfg: RunConfig) -> str:
    """The checked --format; admissible alone defaults to json."""
    fmt = cfg.get("format")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {fmt!r}")
    if cfg.subcommand == "admissible" and "format" not in cfg.values:
        return "json"
    return fmt


def main(argv=None) -> int:
    """Run one command line and return its exit code, 0, 2 or 3."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    cfg, overrides, dry_run, tokens = None, {}, False, iter(argv[1:])
    try:
        if not argv or argv[0] not in ALLOWED_KEYS:
            raise ValidationError(
                (f"{argv[0]!r} is not a subcommand" if argv else "no subcommand")
                + f" (one of {', '.join(SUBCOMMANDS)})")
        for tok in tokens:
            if not tok.startswith("--"):
                raise ValidationError(f"unexpected argument {tok!r}")
            key, eq, val = tok[2:].partition("=")
            if not eq and key == "dry-run":
                dry_run = True
                continue
            if not eq and (val := next(tokens, None)) is None:
                raise ValidationError(f"flag --{key} needs a value")
            overrides[key] = val
        cfg = parse_config(argv[0], overrides.pop("config", None), overrides)
        cfg.dry_run = cfg.get_bool("dry-run") or dry_run
        fmt, out_path = _format(cfg), cfg.get("out")
        columns, rows, footer = run(cfg)
    except _Planned:
        import json
        print(json.dumps({"plan": cfg.resolved(), "format": fmt, "out": out_path},
                         indent=2))
        return 0
    except ThinPrimesError as exc:
        if cfg is None or cfg.t0 is None:
            kind = ParseError if isinstance(exc, ParseError) else ValidationError
            print(f"{kind.__name__}: {exc}", file=sys.stderr)
            return 2
        import json
        _write(json.dumps({"schema": 1, "tool": TOOL,
                           "error": type(exc).__name__, "message": str(exc),
                           "config": cfg.resolved()}, indent=2) + "\n", out_path)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _write(_report(cfg, columns, rows, footer, time.perf_counter() - cfg.t0, fmt),
           out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
