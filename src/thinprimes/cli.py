"""Batch command-line front end: one subcommand per experiment.

Configuration is a flat key=value text file plus --key value overrides; the
resolved configuration is validated against the target subcommand before
any computation starts and echoed in full into every report header, so a
report is reproducible from its own header.  CSV is the primary output
('#'-prefixed header comment lines, then a column row); --format json
mirrors the same rows with a schema marker.

Exit codes: 0 success, 2 validation/parse failure (no output written),
3 computational failure (diagnostic JSON written instead of the report).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .averages import SparseSignal, lr_norm, maximal_function, abel_summation
from .ergodic import CircleRotation, FiniteCycle, average_series, oscillation_sum
from .errors import ParseError, ThinPrimesError, ValidationError
from .expsum import (
    IntPolynomial,
    PhaseSpec,
    bilinear_sum_bound,
    formlem_decay,
    vaughan_split,
    vdc_bound_check,
    default_v,
)
from .goldbach import admissibility_check, goldbach_reports, parseval_check
from .sieve import build_prime_table, density_profile, enumerate_thin_primes
from .thinfn import admissible_params, make_thin_function

SUBCOMMANDS = ("sieve", "density", "vaughan", "formlem-decay", "vdc",
               "bilinear", "maximal", "abel", "ergodic", "oscillation",
               "goldbach", "parseval", "admissible")

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


class RunConfig:
    """Validated flat configuration for one subcommand."""

    def __init__(self, subcommand: str, values: dict):
        self.subcommand = subcommand
        self.values = values
        self.extras = {}   # resolved defaults worth echoing (e.g. auto x0)
        self._tf = None

    def get(self, key: str, default=None):
        return self.values.get(key, DEFAULTS.get(key, default))

    def get_int(self, key: str, default=None) -> int:
        raw = self.get(key, default)
        if raw is None:
            raise ValidationError(f"missing required key {key!r}")
        try:
            return int(str(raw))
        except ValueError as exc:
            raise ValidationError(f"key {key!r}: {raw!r} is not an integer") from exc

    def get_float(self, key: str, default=None) -> float:
        raw = self.get(key, default)
        if raw is None:
            raise ValidationError(f"missing required key {key!r}")
        try:
            return float(str(raw))
        except ValueError as exc:
            raise ValidationError(f"key {key!r}: {raw!r} is not a number") from exc

    def get_bool(self, key: str) -> bool:
        raw = str(self.get(key, "false")).lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"key {key!r}: {raw!r} is not a boolean")

    def get_int_list(self, key: str, default=None) -> list[int]:
        raw = self.get(key, default)
        if raw is None:
            raise ValidationError(f"missing required key {key!r}")
        try:
            return [int(tok) for tok in str(raw).split(",") if tok != ""]
        except ValueError as exc:
            raise ValidationError(f"key {key!r}: {raw!r} is not an int list") from exc

    def get_float_list(self, key: str, default=None) -> list[float]:
        raw = self.get(key, default)
        try:
            return [float(tok) for tok in str(raw).split(",") if tok != ""]
        except ValueError as exc:
            raise ValidationError(f"key {key!r}: {raw!r} is not a float list") from exc

    def thin_function(self):
        """The configured ThinFunction, built once per configuration."""
        if self._tf is not None:
            return self._tf
        kwargs = {}
        for key, conv in (("gamma", float), ("c", float), ("A", float),
                          ("B", float), ("C", float), ("m", int),
                          ("Ch", float), ("x0", float)):
            raw = self.values.get(key)
            if key in ("gamma", "Ch") and raw is None and self.get("family") == "power":
                raw = DEFAULTS.get(key)
            if raw is not None:
                kwargs["Cc" if key == "C" else key] = conv(raw)
        try:
            tf = make_thin_function(self.get("family"), **kwargs)
        except ThinPrimesError as exc:
            raise ValidationError(str(exc)) from exc
        if "x0" not in self.values:
            self.extras["x0-resolved"] = repr(tf.x0)   # auto-selected, echoed
        self._tf = tf
        return tf

    def polynomial(self) -> IntPolynomial:
        try:
            return IntPolynomial(self.get_int_list("W"))
        except ThinPrimesError as exc:
            raise ValidationError(str(exc)) from exc

    def resolved(self) -> dict:
        out = dict(DEFAULTS)
        out.update(self.values)
        out = {k: v for k, v in out.items()
               if k in ALLOWED_KEYS[self.subcommand] | COMMON_KEYS}
        if out.get("family", "power") != "power" and "gamma" not in self.values:
            out.pop("gamma", None)   # gamma default applies to power only
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
    if subcommand not in SUBCOMMANDS:
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


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(cfg: RunConfig, columns, rows, wall: float, out_path, fmt: str,
          footer=None):
    header_cfg = " ".join(f"{k}={v}" for k, v in sorted(cfg.resolved().items()))
    if fmt == "json":
        doc = {
            "schema": 1,
            "tool": f"thinprimes {__version__}",
            "config": cfg.resolved(),
            "wall_time_s": wall,
            "columns": list(columns),
            "rows": [list(r) for r in rows],
        }
        if footer:
            doc.update(footer)
        payload = json.dumps(doc, indent=2, default=_fmt) + "\n"
    else:
        lines = [
            f"# tool: thinprimes {__version__}",
            f"# config: {header_cfg}",
            f"# wall_time_s: {wall:.3f}",
            ",".join(columns),
        ]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        if footer:
            lines += [f"{k},{_fmt(v)}" for k, v in footer.items()]
        payload = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _default_checkpoints(n: int) -> list[int]:
    out = []
    x = 10
    while x < n:
        out.append(x)
        x *= 10
    out.append(n)
    return out


def _dyadic_up_to(n: int, start: int = 16) -> list[int]:
    out, v = [], min(start, 1 << max(n.bit_length() - 1, 1))
    while v <= n:
        out.append(v)
        v *= 2
    return out


def _observable(cfg: RunConfig):
    system = cfg.get("system")
    if system == "cycle":
        m = cfg.get_int("cycle-m")
        if m < 1:
            raise ValidationError("cycle-m must be >= 1")
        table = np.zeros(m, dtype=np.complex128)
        table[0] = 1.0
        if m > 1:
            table[1] = -1.0
        return FiniteCycle(m), table, int(cfg.get_int("x")) % m
    if system == "rotation":
        return (CircleRotation(cfg.get_float("alpha")),
                [(cfg.get_int("freq"), 1.0)], cfg.get_float("x"))
    raise ValidationError(f"unknown system {system!r} (cycle or rotation)")


def run(cfg: RunConfig) -> tuple[list, list, dict | None]:
    """Execute the subcommand; returns (columns, rows, footer)."""
    sub = cfg.subcommand
    threads = cfg.get_int("threads")
    if sub == "sieve":
        n = cfg.get_int("N")
        pt = build_prime_table(n, threads=threads)
        cps = cfg.get_int_list("checkpoints", None) if cfg.values.get(
            "checkpoints") else _default_checkpoints(n)
        return ["x", "pi_x"], [(x, pt.pi(x)) for x in cps], None
    if sub == "density":
        tf = cfg.thin_function()
        n = cfg.get_int("N")
        pt = build_prime_table(n, threads=threads)
        tps = enumerate_thin_primes(tf, pt, n, threads=threads)
        cps = cfg.get_int_list("checkpoints", None) if cfg.values.get(
            "checkpoints") else _default_checkpoints(n)
        rows = density_profile(tps, cps)
        return ["x", "count", "count_logx_over_phi"], rows, None
    if sub == "vaughan":
        tf = cfg.thin_function()
        W = cfg.polynomial()
        P = cfg.get_int("P")
        P1 = cfg.get_int("P1") if cfg.values.get("P1") else 2 * P
        spec = PhaseSpec(cfg.get_float("xi"), W, cfg.get_int("mfreq"), tf, P, P1)
        pt = build_prime_table(P1, threads=threads)
        v = cfg.get_float("v") if cfg.values.get("v") else default_v(P1, W.degree)
        res = vaughan_split(pt, spec, v)
        row = (P, P1, v, spec.xi, spec.m,
               res.S1.real, res.S1.imag, res.S21.real, res.S21.imag,
               res.S22.real, res.S22.imag, res.S3.real, res.S3.imag,
               res.residual, res.residual / (1.0 + abs(res.direct)))
        return ["P", "P1", "v", "xi", "m", "S1_re", "S1_im", "S21_re",
                "S21_im", "S22_re", "S22_im", "S3_re", "S3_im", "residual",
                "residual_rel"], [row], None
    if sub == "formlem-decay":
        tf = cfg.thin_function()
        W = cfg.polynomial()
        n = cfg.get_int("N")
        pt = build_prime_table(n, threads=threads)
        tps = enumerate_thin_primes(tf, pt, n, threads=threads)
        prof = formlem_decay(tf, pt, W, cfg.get_int("xi-grid"), n, tps=tps)
        footer = {"fitted_exponent": prof.fitted_exponent
                  if prof.fitted_exponent is not None else "exact-zero"}
        return ["N", "gap", "gap_over_N"], list(prof.csv_rows()), footer
    if sub == "vdc":
        n = cfg.get_int("N")
        k = cfg.get_int("k")
        beta = cfg.get_float("beta")
        eta = math.factorial(k) * beta
        res = vdc_bound_check(lambda t: beta * t ** k, n, k, eta, 1.0)
        return (["N", "k", "beta", "sum_abs", "bound", "constant"],
                [(n, k, beta, res.sum_abs, res.bound, res.constant)], None)
    if sub == "bilinear":
        tf = cfg.thin_function()
        W = cfg.polynomial()
        K, L = cfg.get_int("K"), cfg.get_int("L")
        P = K * L
        spec = PhaseSpec(cfg.get_float("xi"), W, cfg.get_int("mfreq"), tf, P, 2 * P)
        if cfg.get("delta") == "random":
            rng = np.random.default_rng(cfg.get_int("seed"))
            d1 = np.exp(2j * np.pi * rng.random(L))
            d2 = np.exp(2j * np.pi * rng.random(K))
        else:
            d1, d2 = np.ones(L, dtype=complex), np.ones(K, dtype=complex)
        res = bilinear_sum_bound(d1, d2, spec)
        return (["K", "L", "value_re", "value_im", "bound", "constant"],
                [(K, L, res.value.real, res.value.imag, res.bound,
                  res.constant)], None)
    if sub == "maximal":
        tf = cfg.thin_function()
        W = cfg.polynomial()
        n = cfg.get_int("N")
        support = cfg.get_int("support")
        pt = build_prime_table(n, threads=threads)
        tps = enumerate_thin_primes(tf, pt, n, threads=threads)
        rng = np.random.default_rng(cfg.get_int("seed"))
        rows = []
        for r in cfg.get_float_list("r-list"):
            for trial in range(cfg.get_int("trials")):
                idx = rng.choice(support, size=max(1, support // 4),
                                 replace=False)
                f = SparseSignal({int(i): 1.0 for i in idx})
                mf = maximal_function(f, "Kh", tps, pt, W, n)
                rows.append((r, support, trial, lr_norm(mf, r) / lr_norm(f, r)))
        return ["r", "support_size", "seed", "ratio"], rows, None
    if sub == "abel":
        n = cfg.get_int("N")
        pt = build_prime_table(n, threads=threads)
        lhs, rhs, resid = abel_summation(pt.lambda_, lambda x: 1.0 / math.log(x),
                                         2, n)
        return ["lhs", "rhs", "residual"], [(lhs, rhs, resid)], None
    if sub in ("ergodic", "oscillation"):
        tf = cfg.thin_function()
        W = cfg.polynomial()
        n = cfg.get_int("N")
        pt = build_prime_table(n, threads=threads)
        tps = enumerate_thin_primes(tf, pt, n, threads=threads)
        system, table, x = _observable(cfg)
        if sub == "ergodic":
            series = average_series(system, table, x, tps, pt, W,
                                    _dyadic_up_to(n), cfg.get_bool("weighted"))
            return ["N", "re", "im", "gap"], list(series.csv_rows()), None
        eps = cfg.get_float("eps")
        breaks = [4 ** j for j in range(2, 40) if 4 ** j <= n]
        if len(breaks) < 2:
            raise ValidationError("N too small for oscillation breaks")
        val = oscillation_sum(system, table, x, tps, pt, W, breaks, eps)
        J = len(breaks) - 1
        return ["J", "eps", "value", "value_over_J"], [(J, eps, val, val / J)], None
    if sub == "goldbach":
        gammas = cfg.get_float_list("gammas", "1,1,1")
        if len(gammas) != 3:
            raise ValidationError("gammas must be a comma triple")
        n = cfg.get_int("N")
        n_end = cfg.get_int("N-end") if cfg.values.get("N-end") else n
        if n % 2 == 0 or n_end < n:
            raise ValidationError("N must be odd and N-end >= N")
        tfs = []
        for g in gammas:
            try:
                tfs.append(make_thin_function("power", gamma=g))
            except ThinPrimesError as exc:
                raise ValidationError(str(exc)) from exc
        pt = build_prime_table(max(n_end, 100), threads=threads)
        sets = [enumerate_thin_primes(t, pt, n_end, threads=threads) for t in tfs]
        reports = goldbach_reports(tfs, sets, n, n_end, cfg.get_int("cutoff"), pt)
        return ["N", "R", "S_paper", "S_classical", "main_term", "ratio",
                "flags"], [r.csv_row() for r in reports], None
    if sub == "parseval":
        n = cfg.get_int("N")
        weighted = cfg.get_bool("weighted")
        pt = build_prime_table(n, threads=threads)
        if cfg.get("side") == "full":
            source = pt
        else:
            tf = cfg.thin_function()
            source = enumerate_thin_primes(tf, pt, n, threads=threads)
        lhs, rhs = parseval_check(source, n, weighted)
        rel = abs(lhs - rhs) / rhs if rhs else 0.0
        return ["N", "lhs", "rhs", "rel_err"], [(n, lhs, rhs, rel)], None
    if sub == "admissible":
        q = cfg.get_int("q")
        gamma = cfg.get_float("gamma")
        try:
            ap = admissible_params(q, gamma)
        except ThinPrimesError as exc:
            raise ValidationError(str(exc)) from exc
        footer = None
        if cfg.values.get("gammas"):
            gs = cfg.get_float_list("gammas")
            if len(gs) != 3:
                raise ValidationError("gammas must be a comma triple")
            ok, lhs = admissibility_check(*gs)
            footer = {"ternary_admissible": ok,
                      "ternary_lhs": ",".join(f"{v:.6g}" for v in lhs)}
        return (["q", "gamma", "chi_max", "c_q"],
                [(q, gamma, ap.chi_max, str(ap.c_q))], footer)
    raise ValidationError(f"unknown subcommand {sub!r}")


def _validate_early(cfg: RunConfig) -> None:
    """Cheap precondition checks before any table is built (fail fast)."""
    fmt = cfg.get("format")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {fmt!r}")
    if cfg.get_int("threads") < 1:
        raise ValidationError("threads must be >= 1")
    needs_tf = cfg.subcommand in ("density", "vaughan", "formlem-decay",
                                  "bilinear", "maximal", "ergodic",
                                  "oscillation", "parseval")
    if needs_tf and not (cfg.subcommand == "parseval" and cfg.get("side") == "full"):
        cfg.thin_function()
    if "W" in ALLOWED_KEYS[cfg.subcommand]:
        cfg.polynomial()
    if "N" in ALLOWED_KEYS[cfg.subcommand] and cfg.subcommand != "admissible":
        if cfg.get_int("N") < 2:
            raise ValidationError("N must be >= 2")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thinprime", allow_abbrev=False,
        description="thin prime set experiments; see README for subcommands")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--threads", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dry-run", action="store_true")
    args, extra = parser.parse_known_args(argv)

    overrides = {}
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            print(f"unexpected argument {tok!r}", file=sys.stderr)
            return 2
        key = tok[2:]
        if "=" in key:
            key, val = key.split("=", 1)
        else:
            if i + 1 >= len(extra):
                print(f"flag --{key} needs a value", file=sys.stderr)
                return 2
            val = extra[i + 1]
            i += 1
        overrides[key] = val
        i += 1
    for key in ("format", "threads", "seed", "out"):
        if getattr(args, key) is not None:
            overrides[key] = str(getattr(args, key))

    try:
        cfg = parse_config(args.subcommand, args.config, overrides)
        _validate_early(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    fmt = cfg.get("format")
    if args.subcommand == "admissible" and "format" not in cfg.values:
        fmt = "json"
    out_path = cfg.values.get("out")

    if args.dry_run or cfg.values.get("dry-run", "").lower() in ("1", "true"):
        plan = {"plan": cfg.resolved(), "format": fmt, "out": out_path}
        print(json.dumps(plan, indent=2))
        return 0

    t0 = time.perf_counter()
    try:
        columns, rows, footer = run(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ThinPrimesError as exc:
        diag = {"schema": 1, "tool": f"thinprimes {__version__}",
                "error": type(exc).__name__, "message": str(exc),
                "config": cfg.resolved()}
        payload = json.dumps(diag, indent=2) + "\n"
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    if args.subcommand == "admissible" and fmt == "json":
        ap_row = rows[0]
        doc = {"schema": 1, "tool": f"thinprimes {__version__}",
               "q": ap_row[0], "gamma": ap_row[1],
               "chi_max": ap_row[2], "c_q": ap_row[3],
               "wall_time_s": wall}
        if footer:
            doc.update(footer)
        payload = json.dumps(doc, indent=2) + "\n"
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    _emit(cfg, columns, rows, wall, out_path, fmt, footer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
