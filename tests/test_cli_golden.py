"""Golden `thinprime` reports: every subcommand's body, exit code and stderr.

tests/data/cli_golden.json holds, for each command line in COMMANDS, what
`main` wrote to stdout and stderr and the code it returned, with the one
run-dependent value (wall_time_s) replaced by "*".  The file was recorded
before `cli.run` was folded onto shared helpers, by running this module as a
script from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py

Regenerate it only when a report is meant to change, and say so in the
change that does.  The replay goes through `main` in-process; a few lines
also run through the real entry, `python -m thinprimes.cli` in a fresh
interpreter, where the command line sets up numpy's environment itself, and
one line per subcommand runs from a bare `import thinprimes.cli`, where the
modules that `cli` loads lazily have not run yet.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from thinprimes.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = [
    ["sieve", "--N", "1000"],
    ["sieve", "--N", "5000", "--checkpoints", "10,100,4999"],
    ["sieve", "--N", "1000", "--dry-run"],
    ["sieve", "--N", "1"],
    ["density", "--gamma", "0.95", "--N", "4096"],
    ["density", "--gamma", "0.95", "--N", "4096", "--checkpoints", "100,1000,4096"],
    ["density", "--family", "h3", "--C", "1.0", "--N", "2000"],
    ["density", "--gamma", "0.99", "--N", "4096", "--threads", "2"],
    ["density", "--gamma", "1", "--N", "1000", "--format", "json"],
    ["density", "--gamma", "0.8", "--N", "4096"],
    ["density", "--gamma", "0.5", "--N", "100"],
    ["vaughan", "--gamma", "0.95", "--P", "1000", "--xi", "0.17"],
    ["vaughan", "--gamma", "0.99", "--P", "500", "--W", "0,1,1", "--mfreq", "2"],
    ["vaughan", "--gamma", "0.95"],
    ["formlem-decay", "--gamma", "0.99", "--N", "4096", "--xi-grid", "64"],
    ["formlem-decay", "--gamma", "0.99", "--N", "4096", "--xi-grid", "64",
     "--threads", "2"],
    ["formlem-decay", "--gamma", "1", "--N", "1024", "--xi-grid", "64",
     "--format", "json"],
    ["vdc", "--N", "1000"],
    ["bilinear", "--gamma", "0.95", "--K", "16", "--L", "16"],
    ["bilinear", "--gamma", "0.95", "--K", "16", "--L", "16", "--delta", "random",
     "--seed", "3"],
    ["maximal", "--gamma", "0.95", "--N", "1024", "--support", "128",
     "--trials", "2", "--seed", "11"],
    ["maximal", "--gamma", "0.95", "--N", "1024", "--support", "64",
     "--trials", "1", "--W", "0,0,1", "--r-list", "1,2"],
    ["maximal", "--N", "x"],
    ["abel", "--N", "1000"],
    ["ergodic", "--gamma", "1", "--N", "4096"],
    ["ergodic", "--system", "rotation", "--gamma", "0.95", "--N", "4096",
     "--x", "0.25", "--weighted", "true", "--threads", "2"],
    ["ergodic", "--family", "h3", "--C", "1.0", "--N", "2"],
    ["ergodic", "--system", "torus", "--N", "64"],
    ["oscillation", "--gamma", "1", "--N", "4096"],
    ["oscillation", "--system", "rotation", "--gamma", "0.95", "--N", "4096",
     "--x", "0.25"],
    ["oscillation", "--gamma", "1", "--N", "8"],
    ["goldbach", "--gammas", "1,1,1", "--N", "9"],
    ["goldbach", "--gammas", "1,0.99,0.95", "--N", "101", "--N-end", "121",
     "--format", "json"],
    ["goldbach", "--gammas", "1,1", "--N", "9"],
    ["goldbach", "--gammas", "1,1,1", "--N", "10"],
    ["parseval", "--gamma", "0.95", "--N", "1000"],
    ["parseval", "--side", "full", "--N", "1000", "--weighted", "true"],
    ["admissible", "--q", "1", "--gamma", "1"],
    ["admissible", "--q", "2", "--gamma", "1", "--format", "csv"],
    ["admissible", "--q", "1", "--gamma", "1", "--gammas", "0.999,0.999,0.999"],
    ["admissible", "--q", "1", "--gamma", "1", "--gammas", "1,1"],
    # split and bilinear sums at the benchmark's scale, where S3 has many l
    ["vaughan", "--gamma", "0.95", "--P", "20000", "--xi", "0.123456789"],
    ["vaughan", "--gamma", "0.99", "--P", "20000", "--xi", "0.3456789",
     "--mfreq", "2", "--W", "0,1,1"],
    ["bilinear", "--gamma", "0.95", "--K", "200", "--L", "200", "--delta", "random",
     "--xi", "0.2345", "--seed", "5"],
    # goldbach below N-end = 100, where the prime table ends at N-end
    ["goldbach", "--N", "7"],
    ["goldbach", "--N", "9", "--N-end", "99"],
    ["goldbach", "--gammas", "1,0.95,0.9", "--N", "7", "--N-end", "51"],
    ["goldbach", "--gammas", "0.7,0.7,0.7", "--N", "7", "--N-end", "97",
     "--cutoff", "101"],
    ["goldbach", "--N", "11", "--format", "json"],
    # maximal at the benchmark's scale, and a quadratic W whose hull is
    # about N^2 entries
    ["maximal", "--gamma", "0.95", "--N", "4096", "--seed", "5"],
    ["maximal", "--gamma", "0.95", "--N", "1024", "--W", "0,1,1",
     "--trials", "1"],
]

_WALL = re.compile(r'(wall_time_s"?: )[-+0-9.e]+')


def record(argv: list[str]) -> dict:
    """What `main(argv)` prints and returns, with the wall time masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {"argv": list(argv), "exit": rc,
            "stdout": _WALL.sub(r"\1*", out.getvalue()),
            "stderr": err.getvalue()}


# numpy's environment as the command line pins it; the child starts without
# it, since this process's pin would otherwise stand in for the CLI's own
PINNED = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_NUM_THREADS")


def record_subprocess(argv: list[str], extra_env=None,
                      program=("-m", "thinprimes.cli")) -> dict:
    """record(argv), but from `python <program> <argv>` as a subprocess
    with PYTHONPATH=src, the PINNED variables unset and extra_env set."""
    src = str(Path(__file__).parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    env.update(extra_env or {}, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, *program, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    return {"argv": list(argv), "exit": res.returncode,
            "stdout": _WALL.sub(r"\1*", res.stdout), "stderr": res.stderr}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_subcommand(golden):
    from thinprimes.cli import ALLOWED_KEYS
    assert {argv[0] for argv in COMMANDS} == set(ALLOWED_KEYS)
    assert [g["argv"] for g in golden] == COMMANDS
    assert [argv[0] for argv in FRESH] == list(ALLOWED_KEYS)


@pytest.mark.parametrize("i", range(len(COMMANDS)),
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_golden_report(golden, i):
    assert record(COMMANDS[i]) == golden[i]


# the polyfit caller at one and two threads, and a density run
ENTRY_COMMANDS = [
    ["formlem-decay", "--gamma", "0.99", "--N", "4096", "--xi-grid", "64"],
    ["formlem-decay", "--gamma", "0.99", "--N", "4096", "--xi-grid", "64",
     "--threads", "2"],
    ["density", "--gamma", "0.95", "--N", "4096"],
]


@pytest.mark.parametrize("argv", ENTRY_COMMANDS, ids=" ".join)
def test_golden_report_through_the_entry(golden, argv):
    assert record_subprocess(argv) == golden[COMMANDS.index(argv)]


@pytest.mark.parametrize("argv", ENTRY_COMMANDS, ids=" ".join)
def test_golden_report_with_the_pin_preset(golden, argv):
    """A child that is given the CLI's own dispatch pin writes the same body."""
    preset = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    assert record_subprocess(argv, preset) == golden[COMMANDS.index(argv)]


# A fresh process as the console script starts it.  After main() it writes
# to the file named first which package modules have run and which of the
# standard-library modules the package imports at first use, or never
# (argparse and its gettext), are loaded.
# type() reads a lazy module's class without loading it.
BARE_IMPORT = """import sys, types
from thinprimes.cli import main
rc = main(sys.argv[2:])
ran = [n for n, m in list(sys.modules.items())
       if n.startswith("thinprimes.") and type(m) is types.ModuleType]
loaded = [n for n in ("argparse", "concurrent.futures", "fractions", "gettext",
                     "json") if n in sys.modules]
with open(sys.argv[1], "w") as fh:
    fh.write(" ".join(sorted(ran)) + "\\n" + " ".join(loaded))
sys.exit(rc)
"""

# one CSV line at --threads 1 per subcommand, and the lazy module it runs
# besides the eager ones, at most one
EAGER = {"cli", "_num", "errors", "sieve", "thinfn"}
FRESH = {
    ("sieve", "--N", "1000"): set(),
    ("density", "--gamma", "0.95", "--N", "4096"): set(),
    ("vaughan", "--gamma", "0.95", "--P", "1000", "--xi", "0.17"): {"expsum"},
    ("formlem-decay", "--gamma", "0.99", "--N", "4096", "--xi-grid", "64"):
        {"expsum"},
    ("vdc", "--N", "1000"): {"expsum"},
    ("bilinear", "--gamma", "0.95", "--K", "16", "--L", "16"): {"expsum"},
    ("maximal", "--gamma", "0.95", "--N", "1024", "--support", "128",
     "--trials", "2", "--seed", "11"): {"averages"},
    ("abel", "--N", "1000"): {"averages"},
    ("ergodic", "--gamma", "1", "--N", "4096"): {"ergodic"},
    ("oscillation", "--gamma", "1", "--N", "4096"): {"ergodic"},
    ("goldbach", "--gammas", "1,1,1", "--N", "9"): {"goldbach"},
    ("parseval", "--gamma", "0.95", "--N", "1000"): {"goldbach"},
    ("admissible", "--q", "2", "--gamma", "1", "--format", "csv"): set(),
}


def fresh_run(golden, argv, tmp_path) -> tuple[set, list]:
    """The golden line argv from a bare import: it must write its golden
    record; returns the package modules it ran and the deferred ones it
    loaded."""
    report = tmp_path / "modules.txt"
    got = record_subprocess(list(argv), program=("-c", BARE_IMPORT, str(report)))
    assert got == golden[COMMANDS.index(list(argv))]
    ran, loaded = report.read_text().split("\n")
    return {n.removeprefix("thinprimes.") for n in ran.split()}, loaded.split()


@pytest.mark.parametrize("argv", FRESH, ids=" ".join)
def test_fresh_interpreter_runs_only_its_modules(golden, argv, tmp_path):
    ran, loaded = fresh_run(golden, argv, tmp_path)
    assert ran == EAGER | FRESH[argv]
    # admissible_params returns c_q as a Fraction
    assert loaded == (["fractions"] if argv[0] == "admissible" else [])


def test_ternary_admissibility_runs_no_lazy_module(golden, tmp_path):
    """admissible --gammas reads its second inequality from thinfn too."""
    argv = ["admissible", "--q", "1", "--gamma", "1", "--gammas",
            "0.999,0.999,0.999"]
    ran, loaded = fresh_run(golden, argv, tmp_path)
    assert ran == EAGER
    # its default format is json
    assert loaded == ["fractions", "json"]


@pytest.mark.parametrize("argv", FRESH, ids=" ".join)
def test_dry_run_builds_nothing(argv, tmp_path, monkeypatch, capsys):
    """Each subcommand's --dry-run stops at the boundary: it prints its
    plan, writes no report and builds no prime table or thin set."""
    import thinprimes.cli as cli
    def refuse(*args, **kwargs):
        raise AssertionError("a dry run built a table")
    monkeypatch.setattr(cli, "build_prime_table", refuse)
    monkeypatch.setattr(cli, "enumerate_thin_primes", refuse)
    out = tmp_path / "r.out"
    assert main([*argv, "--out", str(out), "--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["plan"]["subcommand"] == argv[0] and plan["out"] == str(out)
    assert not out.exists()


def test_lazy_modules_are_the_package_modules():
    """A module imported before cli is the one cli calls, and one that cli
    registered lazily is the package's attribute and runs when imported."""
    code = ("import types, thinprimes, thinprimes.expsum as e, thinprimes.cli as cli; "
            "assert cli.expsum is e and cli.expsum.__name__ == 'thinprimes.expsum'; "
            "assert thinprimes.goldbach is cli.goldbach; "
            "assert type(cli.goldbach) is not types.ModuleType; "
            "from thinprimes.goldbach import check_cutoff; "
            "assert type(cli.goldbach) is types.ModuleType")
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_a_user_set_dispatch_is_kept():
    """The CLI pins numpy's dispatch with setdefault: a value the user set
    reaches numpy as given."""
    code = ("import os, thinprimes.cli; "
            "from numpy._core._multiarray_umath import __cpu_features__ as f; "
            "print(os.environ['NPY_DISABLE_CPU_FEATURES'], f['AVX512_SPR'])")
    src = str(Path(__file__).parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    env.update(NPY_DISABLE_CPU_FEATURES="AVX512_SPR", PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.stdout.split() == ["AVX512_SPR", "False"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([record(argv) for argv in COMMANDS], indent=1)
                      + "\n")
    sys.exit(0)
