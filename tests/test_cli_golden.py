"""Golden `thinprime` reports: every subcommand's body, exit code and stderr.

tests/data/cli_golden.json holds, for each command line in COMMANDS, what
`main` wrote to stdout and stderr and the code it returned, with the one
run-dependent value (wall_time_s) replaced by "*".  The file was recorded
before `cli.run` was folded onto shared helpers, by running this module as a
script from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py

Regenerate it only when a report is meant to change, and say so in the
change that does.  The replay goes through `main` in-process.
"""

import contextlib
import io
import json
import re
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


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_subcommand(golden):
    from thinprimes.cli import ALLOWED_KEYS
    assert {argv[0] for argv in COMMANDS} == set(ALLOWED_KEYS)
    assert [g["argv"] for g in golden] == COMMANDS


@pytest.mark.parametrize("i", range(len(COMMANDS)),
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_golden_report(golden, i):
    assert record(COMMANDS[i]) == golden[i]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([record(argv) for argv in COMMANDS], indent=1)
                      + "\n")
    sys.exit(0)
