"""End-to-end and per-layer benchmark of the thinprime command line.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from a checkout: the program is taken from ./src (never from an
installed copy).  --trace 0 runs each workload command as a `thinprime`
subprocess (closed loop, one client), pass after pass for --seconds; a
pass runs every command once, and the first SETUP_PASSES passes then run
every command with --dry-run.  It reports medians over passes of

    wall_s       summed wall seconds of the commands, interpreter start included
    setup_s      the same for the --dry-run commands (import, config, thin function)
    cpu_s        summed user+sys CPU of the command processes (os.wait4 rusage)
    peak_rss_mb  largest ru_maxrss among the workload's processes

The three times are host-speed corrected: the fixed task in reference.py
runs before every command, and each pass's times are multiplied by
REFERENCE_S / (the reference's mean time in that pass).  So they read as
seconds on a host that runs the reference in exactly REFERENCE_S, and drift
of a shared host's speed cancels.  Raw times are kept too.

--trace 1 replays the same commands in-process through thinprimes.cli.main
with span wrappers around every public function (see tracing.py) and
reports per-layer self times and counts, plus the tracing overhead.

Every command's output is checked against the benchmark's own oracles
(checks.py).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Raw passes, spans and the
machine description go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import envinfo
from checks import body_of, corrupt
from workloads import LAYERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# what the `thinprime` console script runs
ENTRY = "import sys; from thinprimes.cli import main; sys.exit(main())"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_S = 1.0           # nominal wall and CPU seconds of the reference
CHILD_TIMEOUT_S = 120
MIN_PASSES = 2
SETUP_PASSES = 2            # passes that also run every command with --dry-run
IMPORT_SAMPLES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.main.s": "s", "cli.run.s": "s", "cli.rows": "count",
    "thinfn.import_s": "s", "thinfn.make_thin_function.s": "s",
    "thinfn.make_thin_function.calls": "count", "thinfn.floor_h.calls": "count",
    "thinfn.phi_mp.calls": "count",
    "sieve.build_prime_table.s": "s", "sieve.build_prime_table.calls": "count",
    "sieve.table_mb": "MB", "sieve.enumerate_thin_primes.s": "s",
    "sieve.thin_primes": "count",
    "expsum.formlem_decay.s": "s", "expsum.xi_points": "count",
    "expsum.vaughan_split.s": "s", "expsum.phase_fracs.s": "s",
    "expsum.phase_fracs.calls": "count", "expsum.phase_fracs.terms": "count",
    "expsum.lambda_exp_sum.s": "s", "expsum.lambda_exp_sum.calls": "count",
    "expsum.bilinear_sum_bound.s": "s",
    "goldbach.goldbach_report.s": "s", "goldbach.rep_count.s": "s",
    "goldbach.rep_count.calls": "count", "goldbach.singular_series.s": "s",
    "averages.maximal_function.s": "s", "averages.maximal_function.calls": "count",
    "averages.lr_norm.s": "s",
    "ergodic.average_series.s": "s", "ergodic.oscillation_sum.s": "s",
    "trace.inprocess_s": "s", "trace.overhead_s": "s", "trace.layer_share": "ratio",
}


@dataclass
class Outcome:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    text: str
    err: str


def run_child(argv: list[str], program: tuple = ("-c", ENTRY)) -> Outcome:
    """Run one thinprime command (or another program) and reap it with wait4."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"child-{os.getpid()}.stdout"
    err_path = OUT / f"child-{os.getpid()}.stderr"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *program, *argv], stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    text, err = out_path.read_text(), err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    return Outcome(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
                   text, err)


def run_inprocess(cli, argv: list[str]) -> Outcome:
    """Run one command through thinprimes.cli.main in this process.

    sympy's expression cache is emptied first, so thin-function
    construction costs what it costs in a fresh `thinprime` process.
    """
    from sympy.core.cache import clear_cache
    clear_cache()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return Outcome(rc, time.perf_counter() - t0, 0.0, 0.0, out.getvalue(), err.getvalue())


# -- checking -----------------------------------------------------------------

class Verifier:
    """Judges a pass's outcomes; identical outputs reuse their verdict."""

    def __init__(self, workload):
        self.commands = workload.commands
        self._memo = {}

    def _check(self, cmd, text: str) -> str | None:
        key = (cmd.name, body_of(text))
        if key not in self._memo:
            try:
                self._memo[key] = cmd.check(text)
            except (ValueError, KeyError, IndexError) as exc:
                self._memo[key] = f"unparseable output: {exc!r}"
        return self._memo[key]

    def judge(self, cmd, out: Outcome, outs: dict, dry: Outcome | None) -> tuple[str, str]:
        """("ok" | "failed" | "known-defect", reason) for one command."""
        if out.rc != 0:
            last = (out.err.strip().splitlines() or [""])[-1]
            if cmd.known_defect and out.rc == 3 and last.startswith(cmd.known_defect + ":"):
                return "known-defect", last
            return "failed", f"exit {out.rc}: {last}"
        reason = self._check(cmd, out.text)
        if reason is None and cmd.same_body_as:
            if body_of(out.text) != body_of(outs[cmd.same_body_as].text):
                reason = f"body differs from {cmd.same_body_as}"
        if reason is None and dry is not None:
            reason = _check_dry_run(cmd, dry)
        return ("failed", reason) if reason else ("ok", "")

    def self_test(self, outs: dict) -> tuple[int, list[str]]:
        """Corrupt each passing report; (reports tried, corruptions not flagged)."""
        tried, missed = 0, []
        for cmd in self.commands:
            out = outs[cmd.name]
            if out.rc != 0 or self.judge(cmd, out, outs, None)[0] != "ok":
                continue
            column, kind = cmd.corrupt
            bad = Outcome(0, 0.0, 0.0, 0.0, corrupt(out.text, column, kind), "")
            tried += 1
            if self.judge(cmd, bad, outs, None)[0] != "failed":
                missed.append(f"{cmd.name}:{column}:{kind}")
        return tried, missed


def _check_dry_run(cmd, dry: Outcome) -> str | None:
    if dry.rc != 0:
        return f"--dry-run exit {dry.rc}"
    try:
        plan = json.loads(dry.text)["plan"]
    except (ValueError, KeyError):
        return "--dry-run printed no plan"
    if plan.get("subcommand") != cmd.argv[0]:
        return "--dry-run plan names another subcommand"
    return None


def tally(verifier, passes_outs: list) -> dict:
    """Verdicts over all passes: attempted, failed, known defects, reasons."""
    attempted = failed = known = 0
    reasons = {}
    for outs, dries in passes_outs:
        for cmd in verifier.commands:
            status, why = verifier.judge(cmd, outs[cmd.name], outs,
                                         dries[cmd.name] if dries else None)
            attempted += 1
            if status == "failed":
                failed += 1
                reasons.setdefault(cmd.name, why)
            elif status == "known-defect":
                known += 1
                reasons.setdefault(cmd.name, "known defect: " + why)
    tried, missed = verifier.self_test(passes_outs[0][0])
    return {"attempted": attempted, "failed": failed, "known_defect": known,
            "reasons": reasons, "self_test_missed": missed,
            "self_test_total": tried}


# -- end-to-end ---------------------------------------------------------------

def run_reference() -> Outcome:
    ref = run_child([], [str(REFERENCE)])
    if ref.rc != 0:
        raise RuntimeError(f"reference task exited {ref.rc}: {ref.err.strip()}")
    return ref


def measure_e2e(workload, seconds: float):
    """Passes of subprocess runs; each time is a median over passes.

    A new pass starts while at least half of a median pass still fits in
    `seconds`, so a run lasts `seconds` give or take half a pass.
    """
    names = [c.name for c in workload.commands]
    passes, raw, took = [], [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - t0 + statistics.median(took) / 2 <= seconds):
        t_pass = time.perf_counter()
        steal0 = envinfo.steal_ticks()
        outs, refs = {}, []
        for c in workload.commands:
            refs.append(run_reference())
            outs[c.name] = run_child(c.argv)
        dries = {}
        if len(passes) < SETUP_PASSES:
            dries = {c.name: run_child(c.argv + ["--dry-run"]) for c in workload.commands}
        passes.append({
            "wall_s": {k: o.wall for k, o in outs.items()},
            "setup_s": {k: o.wall for k, o in dries.items()},
            "cpu_s": {k: o.cpu for k, o in outs.items()},
            "peak_rss_mb": {k: max(o.rss_mb, dries[k].rss_mb if k in dries else 0.0)
                            for k, o in outs.items()},
            "reference_wall_s": [r.wall for r in refs],
            "reference_cpu_s": [r.cpu for r in refs],
            "steal_ticks": envinfo.steal_ticks() - steal0,
        })
        raw.append((outs, dries or None))
        took.append(time.perf_counter() - t_pass)
    metrics = {}
    for k, ref in (("wall_s", "reference_wall_s"), ("setup_s", "reference_wall_s"),
                   ("cpu_s", "reference_cpu_s")):
        sums = [(sum(p[k].values()), statistics.fmean(p[ref])) for p in passes if p[k]]
        metrics["raw_" + k] = statistics.median(t for t, _ in sums)
        metrics[k] = statistics.median(t * REFERENCE_S / r for t, r in sums)
    for ref in ("reference_wall_s", "reference_cpu_s"):
        metrics[ref] = statistics.median(x for p in passes for x in p[ref])
    metrics["peak_rss_mb"] = max(statistics.median(p["peak_rss_mb"][n] for p in passes)
                                 for n in names)
    return metrics, passes, raw, END_TO_END


# -- traced -------------------------------------------------------------------

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import thinprimes.thinfn; "
                "t1 = time.perf_counter(); import thinprimes.cli; "
                "print(t1 - t0, time.perf_counter() - t0)")


def import_times() -> tuple[float, float]:
    """(thinfn import s, cli import s) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         check=True)
    a, b = res.stdout.split()
    return float(a), float(b)


def measure_traced(name: str, workload, seconds: float):
    from tracing import Tracer

    t0 = time.perf_counter()
    imports = [import_times() for _ in range(IMPORT_SAMPLES)]
    sys.path.insert(0, str(SRC))
    import thinprimes.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"thinprimes imported from {cli.__file__}, not {SRC}")

    def one_pass():
        return {c.name: run_inprocess(cli, c.argv) for c in workload.commands}

    tracer = Tracer()
    one_pass()                          # warm lazy caches (sympy) before timing
    plain, traced, raw, spans, took = [], [], [], [], []
    # same stopping rule as measure_e2e, counting the import probes and warm-up
    while not traced or (
            time.perf_counter() - t0 + statistics.median(took) / 2 <= seconds):
        t_pass = time.perf_counter()
        outs = one_pass()
        plain.append(sum(o.wall for o in outs.values()))
        raw.append((outs, None))
        tracer.reset()
        tracer.install()
        try:
            outs = one_pass()
        finally:
            tracer.uninstall()
        raw.append((outs, None))
        inproc = sum(o.wall for o in outs.values())
        traced.append(layer_metrics(tracer, name, inproc))
        spans.append(list(tracer.spans))
        took.append(time.perf_counter() - t_pass)
    keys = {k for t in traced for k in t}
    metrics = {k: statistics.median(t.get(k, 0.0) for t in traced) for k in keys}
    metrics["cli.import_s"] = statistics.median(b for _, b in imports)
    metrics["thinfn.import_s"] = statistics.median(a for a, _ in imports)
    metrics["trace.inprocess_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = (statistics.median(t["_inprocess"] for t in traced)
                                   - metrics["trace.inprocess_s"])
    shares = {k.split(".", 1)[1]: v for k, v in metrics.items() if k.startswith("_share.")}
    metrics = {k: metrics.get(k, 0.0) for k in PER_LAYER}
    return metrics, traced, raw, PER_LAYER, spans, shares


def layer_metrics(tracer, workload_name: str, inproc: float) -> dict:
    st = tracer.self_times()
    out = {"_inprocess": inproc}
    for key in PER_LAYER:
        base, _, kind = key.rpartition(".")
        if kind == "s" and base in st:
            out[key] = st[base][0]
        elif kind == "calls" and base in st:
            out[key] = st[base][1]
    out.update(tracer.counts)
    for wname, prefixes in LAYERS.items():
        own = sum(s for name, (s, _) in st.items()
                  if any(name == p or (p.endswith(".") and name.startswith(p))
                         for p in prefixes))
        out[f"_share.{wname}"] = own / inproc if inproc > 0 else 0.0
    out["trace.layer_share"] = out[f"_share.{workload_name}"]
    return out


# -- main ---------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    t0 = time.perf_counter()
    if trace:
        metrics, passes, raw, units, spans, shares = measure_traced(name, workload, seconds)
    else:
        metrics, passes, raw, units = measure_e2e(workload, seconds)
        spans = shares = None
    verdict = tally(Verifier(workload), raw)
    elapsed = time.perf_counter() - t0
    env = envinfo.environment(ROOT)
    record = {"workload": name, "why": workload.why, "seed": seed, "trace": int(trace),
              "seconds": seconds, "elapsed_s": elapsed, "env": env,
              "commands": [c.argv for c in workload.commands], "layer_shares": shares,
              "passes": passes, "metrics": metrics, "verdict": verdict}
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps({
            "columns": ["pass", "name", "start", "end", "parent"],
            "spans": [[i, *span] for i, pass_spans in enumerate(spans) for span in pass_spans]}))
    report(record, units)
    return record


def report(rec: dict, units: dict) -> None:
    v = rec["verdict"]
    n = len(rec["passes"])
    mode = "traced in-process replay" if rec["trace"] else "subprocesses, closed loop, 1 client"
    print(f"== {rec['workload']} seed={rec['seed']} ({mode}): {n} passes, "
          f"{rec['elapsed_s']:.1f} s")
    print(f"   why: {rec['why']}")
    print("   env: " + json.dumps(rec["env"]))
    for cmd in rec["commands"]:
        print("   cmd: thinprime " + " ".join(cmd))
    if rec["trace"]:
        note = {k: f"median of {IMPORT_SAMPLES} fresh interpreters" for k in
                ("cli.import_s", "thinfn.import_s")}
        default = f"median of {n} traced passes"
    else:
        for i, p in enumerate(rec["passes"], 1):
            print(f"   pass {i}: " + " ".join(f"{k}={sum(p[k].values()):.4f}"
                                          for k in ("wall_s", "setup_s", "cpu_s") if p[k])
                  + f" peak_rss_mb={max(p['peak_rss_mb'].values()):.1f}"
                  + " reference_wall_s=" + ",".join(f"{v:.4f}" for v in p["reference_wall_s"])
                  + f" steal_ticks={p['steal_ticks']}")
        note = {"peak_rss_mb": f"largest per-command median, n={n} passes"}
        default = (f"median of pass sums, n={n} passes ({min(n, SETUP_PASSES)} for "
                   f"setup_s), scaled to a {REFERENCE_S:g} s reference")
        m = rec["metrics"]
        print(f"   uncorrected: " + " ".join(f"{k}={m['raw_' + k]:.4f}"
                                             for k in ("wall_s", "setup_s", "cpu_s"))
              + f"; reference median wall {m['reference_wall_s']:.4f} s,"
              f" cpu {m['reference_cpu_s']:.4f} s over {n * len(rec['commands'])} runs")
    for key, unit in units.items():
        print(f"   {key:34s} {rec['metrics'][key]:12.6g} {unit:6s} ({note.get(key, default)})")
    if rec["trace"]:
        print("   layer shares of in-process time: " + " ".join(
            f"{w}={v:.3f}" for w, v in rec["layer_shares"].items()))
    errors = v["failed"] + v["known_defect"]
    print(f"   error_rate {errors}/{v['attempted']} = {errors / v['attempted']:.3f} "
          f"(failed {v['failed']}, known defect {v['known_defect']})")
    for cmd, why in v["reasons"].items():
        print(f"   {cmd}: {why}")
    print(f"   checker self-test: {v['self_test_total'] - len(v['self_test_missed'])}"
          f"/{v['self_test_total']} corrupted reports flagged"
          + (f"; missed {v['self_test_missed']}" if v["self_test_missed"] else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thinprimes" / "cli.py").is_file():
        print(f"perfbench: no thinprimes sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        metrics.update({prefix + k: {"value": rec["metrics"][k], "unit": u}
                        for k, u in units.items()})
    failed = sum(r["verdict"]["failed"] for r in records)
    missed = sum(len(r["verdict"]["self_test_missed"]) for r in records)
    print(json.dumps({"correct": failed == 0 and missed == 0,
                      "attempted": sum(r["verdict"]["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
