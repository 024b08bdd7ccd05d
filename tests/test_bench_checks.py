"""The benchmark's output oracles and its traced mode, run on tiny
command-line reports.

perfbench/checks.py never imports thinprimes: it recounts each report from
its own sieve and exact integer phases.  Running those oracles here keeps
a report that the benchmark would reject from passing the unit tests.
perfbench/tracing.py wraps the package's functions by name and reads some
of their results' attributes, so a rename or deletion that breaks the
traced mode fails here too.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thinprimes.cli as cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
tracing = _load("tracing")

XI = 370_001 / 2 ** 20      # on the 2^-20 grid the vaughan oracle requires

# name: (argv, oracle, corrupted column, corruption kind); the kinds are the
# ones perfbench/workloads.py uses for the same command

CASES = {
    "decay": (["formlem-decay", "--gamma", "0.99", "--N", "4096", "--xi-grid", "64"],
              lambda t: checks.check_decay_gaps(t, 0.99, 64, 4096), "gap", "nudge"),
    "identity": (["formlem-decay", "--gamma", "1", "--N", "4096", "--xi-grid", "64"],
                 checks.check_exact_zero, "gap", "nudge"),
    "vaughan": (["vaughan", "--gamma", "0.95", "--P", "2000", "--xi", repr(XI),
                 "--mfreq", "1"],
                lambda t: checks.check_vaughan(t, 2000, XI, 1, [0, 1], 0.95), "S1_re",
                "nudge"),
    "vaughan-quadratic": (["vaughan", "--gamma", "0.99", "--P", "2000", "--xi", repr(XI),
                           "--mfreq", "2", "--W", "0,1,1"],
                          lambda t: checks.check_vaughan(t, 2000, XI, 2, [0, 1, 1], 0.99),
                          "S1_re", "nudge"),
    "bilinear": (["bilinear", "--gamma", "0.95", "--K", "100", "--L", "100",
                  "--delta", "random", "--xi", repr(XI), "--seed", "5"],
                 lambda t: checks.check_bilinear(t, 100, 100, XI, 0.95, 5), "value_re",
                 "nudge"),
    "goldbach": (["goldbach", "--gammas", "1,0.99,0.95", "--N", "1001",
                  "--N-end", "1011"],
                 lambda t: checks.check_goldbach(t, (1.0, 0.99, 0.95), 1001, 1011, 1005),
                 "R", "nudge"),
    "maximal": (["maximal", "--gamma", "0.95", "--N", "256", "--trials", "3",
                 "--seed", "11"],
                lambda t: checks.check_maximal(t, 3, (1.5, 2.0, 4.0)), "ratio", "nan"),
    "ergodic": (["ergodic", "--system", "rotation", "--N", "4096", "--x", repr(XI)],
                lambda t: checks.check_rotation_averages(t, 4096), "re", "nan"),
    "oscillation": (["oscillation", "--system", "rotation", "--N", "4096",
                     "--x", repr(XI)],
                    lambda t: checks.check_oscillation(t, 4096), "value", "nan"),
    "density": (["density", "--gamma", "0.95", "--N", "20000"],
                lambda t: checks.check_density(t, 0.95), "count", "nudge"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bench_oracle_accepts_report_and_flags_corruption(name, capsys):
    argv, check, column, kind = CASES[name]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert check(text) is None
    assert check(checks.corrupt(text, column, kind)) is not None


def test_traced_replay_records_each_layer(tmp_path):
    tracer = tracing.Tracer()
    plain_run = cli.run
    tracer.install()
    try:
        for argv in (["formlem-decay", "--gamma", "0.99", "--N", "4096",
                      "--xi-grid", "64"],
                     ["density", "--gamma", "0.95", "--N", "20000"]):
            assert cli.main(argv + ["--out", str(tmp_path / "r.csv")]) == 0
    finally:
        tracer.uninstall()
    assert cli.run is plain_run
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.run", "sieve.build_prime_table",
            "sieve.enumerate_thin_primes", "expsum.formlem_decay"} <= names
    assert tracer.counts["expsum.xi_points"] == 64
    for key in ("cli.rows", "sieve.table_mb", "sieve.thin_primes"):
        assert tracer.counts[key] > 0, key


# A fresh process that has imported only thinprimes.cli, so the modules cli
# loads lazily have not run when the tracer wraps them.  argv: tracing.py's
# path, then the report's.
BARE_TRACE = """import importlib.util, sys
import thinprimes.cli as cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
plain_run = cli.run
tracer = tracing.Tracer()
tracer.install()
try:
    rc = cli.main(["formlem-decay", "--gamma", "0.99", "--N", "4096",
                   "--xi-grid", "64", "--out", sys.argv[2]])
finally:
    tracer.uninstall()
names = {span[0] for span in tracer.spans}
print(rc, "expsum.formlem_decay" in names, cli.run is plain_run)
"""


def test_traced_replay_from_a_bare_import(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", BARE_TRACE,
                          str(_PERFBENCH / "tracing.py"), str(tmp_path / "r.csv")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "True", "True"]
