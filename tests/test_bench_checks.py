"""The benchmark's output oracles, run on tiny command-line reports.

perfbench/checks.py never imports thinprimes: it recounts each report from
its own sieve and exact integer phases.  Running those oracles here keeps
a report that the benchmark would reject from passing the unit tests.
"""

import importlib.util
from pathlib import Path

import pytest

from thinprimes.cli import main

_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

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
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert check(text) is None
    assert check(checks.corrupt(text, column, kind)) is not None
