"""CLI parse/validate behavior, report formats and exit codes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinprimes import errors
from thinprimes.cli import (
    ALLOWED_KEYS,
    COMMON_KEYS,
    SUBCOMMANDS,
    main,
    parse_config,
    parse_config_text,
)
from thinprimes.errors import ParseError, ThinPrimesError, ValidationError
from thinprimes.sieve import MAX_LIMIT, build_prime_table, enumerate_thin_primes
from thinprimes.thinfn import ThinFunction, make_thin_function


def body_lines(path) -> list[str]:
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")]


def test_parse_minimal_config():
    vals = parse_config_text("gamma=1.0\nW=0,1\nN=1024")
    assert vals == {"gamma": "1.0", "W": "0,1", "N": "1024"}
    cfg = parse_config("formlem-decay", None, vals)
    tf = cfg.thin_function()
    assert tf.family == "power" and tf.gamma == 1.0
    assert cfg.polynomial().coeffs == (0, 1)


def test_parse_comma_separated_line():
    vals = parse_config_text("family=h3, C=1.0, W=0,0,1, N=65536")
    assert vals == {"family": "h3", "C": "1.0", "W": "0,0,1", "N": "65536"}
    cfg = parse_config("formlem-decay", None, vals)
    assert cfg.thin_function().family == "h3"
    assert cfg.polynomial().degree == 2


def test_parse_error_carries_position():
    with pytest.raises(ParseError, match=":2"):
        parse_config_text("gamma=1\nnonsense")


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="bogus"):
        parse_config("sieve", None, {"bogus": "1"})


def test_gamma_half_is_validation_error(capsys):
    rc = main(["density", "--gamma", "0.5", "--N", "100"])
    assert rc == 2
    assert "outside [1, 2)" in capsys.readouterr().err


def test_set_above_h_x0_exits_0(tmp_path):
    # h(x0) = 2.5: floor(h(1)) = 2 lies below it, and the set starts at 3
    out = tmp_path / "d.csv"
    assert main(["density", "--gamma", "0.95", "--Ch", "2.5", "--N", "100",
                 "--out", str(out)]) == 0
    assert body_lines(out)[-1].startswith("100,11,")


def test_no_prime_above_h_x0_exits_0(tmp_path):
    # h(x0) ~ 37.1 puts the least member at 38, and no prime lies in
    # [38, 40]: the primes' side has no prime to test, and the set is empty
    out = tmp_path / "d.csv"
    assert main(["density", "--gamma", "0.95", "--Ch", "0.01", "--x0", "2460",
                 "--N", "40", "--out", str(out)]) == 0
    assert body_lines(out)[-1] == "40,0,0.0"


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("ValidationError: ")


def test_dry_run_prints_plan_without_output(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["sieve", "--N", "1000", "--out", str(out), "--dry-run"])
    assert rc == 0
    assert not out.exists()
    plan = json.loads(capsys.readouterr().out)
    assert plan["plan"]["subcommand"] == "sieve"
    assert plan["plan"]["N"] == "1000"


@pytest.mark.parametrize("word", ["yes", "on", "1", "true"])
def test_config_file_dry_run_plans(word, tmp_path, monkeypatch, capsys):
    import thinprimes.cli as cli
    monkeypatch.setattr(cli, "build_prime_table", None)   # must not be called
    cfgfile, out = tmp_path / "run.cfg", tmp_path / "report.csv"
    cfgfile.write_text(f"N=1000\ndry-run={word}\n")
    assert main(["sieve", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert not out.exists()
    assert json.loads(capsys.readouterr().out)["plan"]["dry-run"] == word


def test_no_partial_output_on_validation_failure(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["density", "--gamma", "0.5", "--N", "100", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_density_csv(tmp_path):
    out = tmp_path / "density.csv"
    rc = main(["density", "--gamma", "1", "--N", "1000000", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# tool: thinprimes")
    assert any(ln.startswith("# config:") for ln in lines)
    assert any(ln.startswith("# wall_time_s:") for ln in lines)
    last = body_lines(out)[-1].split(",")
    assert last[0] == "1000000" and last[1] == "78498"


def test_reproducible_bodies(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["maximal", "--gamma", "0.95", "--N", "4096", "--support", "256",
            "--trials", "3", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert body_lines(a) == body_lines(b)
    c = tmp_path / "c.csv"
    assert main(args[:-1] + ["12", "--out", str(c)]) == 0
    assert body_lines(a) != body_lines(c)


def test_admissible_json(tmp_path, capsys):
    rc = main(["admissible", "--q", "1", "--gamma", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["c_q"] == "16/15"
    assert doc["chi_max"] == pytest.approx(1 / 28)


def test_admissible_csv_format(tmp_path):
    out = tmp_path / "adm.csv"
    rc = main(["admissible", "--q", "2", "--gamma", "1", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    row = body_lines(out)[1].split(",")
    assert row[3] == "66/65"


def test_goldbach_row(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["goldbach", "--gammas", "1,1,1", "--N", "9", "--out", str(out)])
    assert rc == 0
    row = body_lines(out)[1].split(",")
    assert row[0] == "9" and row[1] == "4"


def test_goldbach_sweep_json(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["goldbach", "--gammas", "1,1,1", "--N", "7", "--N-end", "15",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert [r[0] for r in doc["rows"]] == [7, 9, 11, 13, 15]
    assert doc["rows"][0][1] == 3


def test_vaughan_subcommand(tmp_path):
    out = tmp_path / "v.csv"
    rc = main(["vaughan", "--gamma", "0.95", "--P", "1000", "--xi", "0.17",
               "--mfreq", "1", "--out", str(out)])
    assert rc == 0
    header, row = body_lines(out)[0].split(","), body_lines(out)[1].split(",")
    resid_rel = float(row[header.index("residual_rel")])
    assert resid_rel <= 1e-8


def test_formlem_decay_footer(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["formlem-decay", "--gamma", "1", "--N", "65536",
               "--xi-grid", "64", "--out", str(out)])
    assert rc == 0
    assert body_lines(out)[-1] == "fitted_exponent,exact-zero"


def test_parseval_subcommand(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["parseval", "--gamma", "1", "--N", "100", "--out", str(out)])
    assert rc == 0
    row = body_lines(out)[1].split(",")
    assert float(row[2]) == 25.0
    assert float(row[3]) <= 1e-8


def test_ergodic_subcommand(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(["ergodic", "--system", "cycle", "--cycle-m", "2",
               "--gamma", "1", "--N", "65536", "--out", str(out)])
    assert rc == 0
    rows = body_lines(out)
    assert rows[0] == "N,re,im,gap"
    assert float(rows[-1].split(",")[1]) == pytest.approx(-1.0, abs=1e-2)


def test_oscillation_subcommand(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(["oscillation", "--gamma", "1", "--N", "16384",
               "--out", str(out)])
    assert rc == 0
    row = body_lines(out)[1].split(",")
    assert int(row[0]) >= 2 and float(row[2]) >= 0


def test_abel_subcommand(tmp_path):
    out = tmp_path / "a.csv"
    rc = main(["abel", "--N", "10000", "--out", str(out)])
    assert rc == 0
    row = body_lines(out)[1].split(",")
    assert float(row[2]) <= 1e-8 * abs(float(row[0]))


def test_bilinear_subcommand(tmp_path):
    out = tmp_path / "b.csv"
    rc = main(["bilinear", "--gamma", "0.95", "--K", "32", "--L", "32",
               "--out", str(out)])
    assert rc == 0
    row = body_lines(out)[1].split(",")
    assert float(row[5]) <= 1e3


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("gamma=1.0\nN=256\n# a comment\n")
    out = tmp_path / "out.csv"
    rc = main(["density", "--config", str(cfgfile), "--N", "1000",
               "--out", str(out)])
    assert rc == 0
    assert body_lines(out)[-1].split(",")[0] == "1000"


def test_missing_config_file():
    rc = main(["density", "--config", "/nonexistent/x.cfg"])
    assert rc == 2


def test_sieve_subcommand(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["sieve", "--N", "10000", "--out", str(out)])
    assert rc == 0
    rows = body_lines(out)
    assert rows[-1] == "10000,1229"


def test_density_json_mirror(tmp_path):
    out = tmp_path / "d.json"
    rc = main(["density", "--gamma", "1", "--N", "1000", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["columns"][0] == "x"
    assert doc["rows"][-1][1] == 168
    assert "config" in doc and doc["config"]["subcommand"] == "density"


def test_admissible_with_ternary_triple(capsys):
    rc = main(["admissible", "--q", "1", "--gamma", "1",
               "--gammas", "0.999,0.999,0.999"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ternary_admissible"] is True


def test_formlem_decay_threads_reproducible(tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    base = ["formlem-decay", "--gamma", "0.99", "--N", "16384",
            "--xi-grid", "64"]
    assert main(base + ["--threads", "1", "--out", str(a)]) == 0
    assert main(base + ["--threads", "4", "--out", str(b)]) == 0
    assert body_lines(a) == body_lines(b)


def test_formlem_decay_threads_reach_enumeration(tmp_path, monkeypatch):
    import thinprimes.cli as cli
    seen = []
    def enumerate_spy(*args, threads=1):
        seen.append(threads)
        return enumerate_thin_primes(*args, threads=threads)
    monkeypatch.setattr(cli, "enumerate_thin_primes", enumerate_spy)
    assert main(["formlem-decay", "--gamma", "0.99", "--N", "4096",
                 "--xi-grid", "64", "--threads", "2",
                 "--out", str(tmp_path / "d.csv")]) == 0
    assert seen == [2]


def test_thin_function_built_once_per_run(tmp_path, monkeypatch):
    import thinprimes.cli as cli
    calls = []
    def make_spy(*args, **kwargs):
        calls.append(args)
        return make_thin_function(*args, **kwargs)
    monkeypatch.setattr(cli, "make_thin_function", make_spy)
    out = tmp_path / "d.csv"
    assert main(["density", "--family", "h3", "--C", "1.0", "--N", "1000",
                 "--out", str(out)]) == 0
    assert len(calls) == 1
    header = out.read_text().splitlines()[1]
    assert header.count("x0-resolved=") == 1


def test_c_alone_sets_the_power_exponent(tmp_path):
    # the gamma default applies, and is echoed, only when c is not given
    by_c, by_gamma = tmp_path / "c.csv", tmp_path / "g.csv"
    assert main(["density", "--c", "1.05", "--N", "4096", "--out", str(by_c)]) == 0
    assert main(["density", "--gamma", "0.9523809523809523", "--N", "4096",
                 "--out", str(by_gamma)]) == 0
    assert body_lines(by_c) == body_lines(by_gamma)
    assert " gamma=" not in by_c.read_text().splitlines()[1]


def test_computational_error_exits_3(tmp_path, capsys):
    # empty thin set at N=2 for the h3 family: EmptySet is a compute error
    out = tmp_path / "err.json"
    rc = main(["ergodic", "--family", "h3", "--C", "1.0", "--N", "2",
               "--out", str(out)])
    assert rc == 3
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1 and doc["error"] == "EmptySet"


def test_undecidable_floor_exits_3(tmp_path, capsys, monkeypatch):
    # without its integer certificate, h(16) = 32 at gamma 0.8 is a value
    # that 40 digits cannot tell from an integer
    monkeypatch.setattr(ThinFunction, "integer_h", lambda self, n: None)
    out = tmp_path / "err.json"
    rc = main(["density", "--gamma", "0.8", "--N", "4096", "--out", str(out)])
    assert rc == 3
    assert json.loads(out.read_text())["error"] == "PrecisionExhausted"
    assert capsys.readouterr().err == (
        "PrecisionExhausted: h(16) within 1e-25 of an integer at 40 digits\n")


def test_hull_too_large_exits_3(tmp_path, capsys):
    # W = k^2 up to N = 2^20 puts a 2^40-entry hull under the running sum
    out = tmp_path / "err.json"
    rc = main(["maximal", "--gamma", "0.95", "--W", "0,0,1", "--N", "1048576",
               "--trials", "1", "--out", str(out)])
    assert rc == 3
    assert json.loads(out.read_text())["error"] == "LimitTooLarge"
    assert capsys.readouterr().err.startswith("LimitTooLarge: running sum")


def refuse_allocation(monkeypatch, size, refused):
    """np.zeros raises MemoryError for exactly this size and dtype, as it
    would for a table at a large N."""
    zeros = np.zeros

    def refuse(shape, dtype=float, **kw):
        if shape == size and np.dtype(dtype) == refused:
            raise MemoryError
        return zeros(shape, dtype, **kw)
    monkeypatch.setattr(np, "zeros", refuse)


def test_unallocatable_table_exits_3(tmp_path, capsys, monkeypatch):
    # only the table of odd primality bytes fails, N//2 + 1 of them
    refuse_allocation(monkeypatch, 2049, np.bool_)
    out = tmp_path / "err.json"
    rc = main(["density", "--gamma", "0.95", "--N", "4096", "--out", str(out)])
    assert rc == 3
    assert json.loads(out.read_text())["error"] == "LimitTooLarge"
    assert "prime table of 2049 bytes" in capsys.readouterr().err


def test_unallocatable_spf_exits_3(tmp_path, capsys, monkeypatch):
    # goldbach factors its targets through spf, built on first access after
    # the table: 2(N + 1) bytes of uint16 at the table's limit N = 41
    refuse_allocation(monkeypatch, 42, np.uint16)
    out = tmp_path / "err.json"
    rc = main(["goldbach", "--gammas", "1,1,1", "--N", "41", "--out", str(out)])
    assert rc == 3
    assert json.loads(out.read_text())["error"] == "LimitTooLarge"
    assert "spf table of 84 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("argv,factors", [
    (["density", "--gamma", "0.95", "--N", "4096"], False),
    (["goldbach", "--gammas", "1,1,1", "--N", "41"], True)])
def test_only_goldbach_builds_spf(tmp_path, monkeypatch, argv, factors):
    # spf is built on first access, and only goldbach factors
    import thinprimes.cli as cli
    tables = []

    def sieve_spy(*args, **kwargs):
        tables.append(build_prime_table(*args, **kwargs))
        return tables[-1]
    monkeypatch.setattr(cli, "build_prime_table", sieve_spy)
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 0
    assert len(tables) == 1 and ("spf" in tables[0].__dict__) is factors


def test_huge_eps_runs_clean(tmp_path, capsys):
    """zeps_grid's spare powers overflow to inf at eps = 1e300 and are cut:
    no RuntimeWarning (an error under this suite's filter) and no stderr."""
    out = tmp_path / "r.csv"
    assert main(["oscillation", "--N", "64", "--eps", "1e300",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[-1] == "1,1e+300,0.0,0.0"


def test_position_overflow_exits_3(tmp_path, capsys):
    # W = k^7 at p near 1024 is about 2^70, past int64
    out = tmp_path / "err.json"
    rc = main(["maximal", "--gamma", "0.95", "--N", "1024",
               "--W", "0,0,0,0,0,0,0,1", "--trials", "1", "--out", str(out)])
    assert rc == 3
    assert json.loads(out.read_text())["error"] == "LimitTooLarge"


@pytest.mark.parametrize("argv", [
    ["maximal", "--N", "100"],
    ["formlem-decay", "--N", "100"],
    ["maximal", "--N", "1024", "--r-list", "2,0.5"],
    ["formlem-decay", "--N", "1024", "--xi-grid", "32"],
    ["maximal", "--N", "1024", "--support", "0"],
    ["parseval", "--N", "100", "--side", "bogus"],
    ["density", "--gamma", "abc", "--N", "100"],
    ["density", "--family", "h5", "--m", "x", "--N", "100"],
    ["density", "--gamma", "0.95", "--c", "1.5", "--N", "100"],
    ["oscillation", "--N", "64", "--eps", "-1"],
    ["oscillation", "--N", "64", "--eps", "1e-20"],
    ["goldbach", "--N", "101", "--cutoff", "50"],
    ["goldbach", "--N", "9", "--cutoff", "1099511627776"],
    ["sieve", "--N", "100", "--checkpoints", "1000"],
    ["density", "--N", "100", "--checkpoints", "1000"],
    ["abel", "--N", "2"],
    ["ergodic", "--system", "rotation", "--N", "64", "--x", "nan"],
    ["ergodic", "--system", "rotation", "--N", "64", "--alpha", "nan"],
    ["goldbach", "--N", "5"],
    ["oscillation", "--gamma", "1", "--N", "32"],
    ["vaughan", "--P", "1000", "--xi", "1.5"],
    ["vaughan", "--P", "1000", "--P1", "5000"],
    ["vaughan", "--P", "1000", "--v", "1"],
    ["vaughan", "--P", "10", "--v", "20"],
    ["vaughan", "--P", "100", "--v", "nan"],
    ["vdc", "--N", "100", "--k", "1"],
    ["vdc", "--N", "100", "--beta", "-1"],
    ["bilinear", "--K", "1", "--L", "16"],
    ["bilinear", "--gamma", "0.95", "--K", "16", "--L", "16", "--mfreq", "0"],
    ["maximal", "--N", "16", "--support", "1125899906842624", "--trials", "1"],
    ["ergodic", "--cycle-m", "2147483648", "--N", "64", "--dry-run"],
    ["formlem-decay", "--N", "64", "--xi-grid", "2147483648"],
    ["bilinear", "--K", "1099511627776", "--L", "16"],
    ["density", "--family", "h1", "--c", "1.25", "--A", "0.1", "--gamma", "0.9",
     "--N", "100"],
    ["density", "--gamma", "0.95", "--A", "5", "--N", "100"],
    ["density", "--family", "h3", "--C", "1.0", "--c", "1.5", "--N", "100"],
    ["density", "--family", "h1", "--c", "1.25", "--A", "0.1", "--C", "3",
     "--N", "100"],
    ["ergodic", "--N", "64", "--alpha", "0.3"],
    ["ergodic", "--system", "rotation", "--N", "64", "--cycle-m", "7"],
    ["ergodic", "--N", "64", "--freq", "3"],
    ["parseval", "--side", "full", "--gamma", "0.9", "--N", "100"],
    ["vdc", "--N", "100", "--k", "200"],
    ["vdc", "--N", "100", "--k", "160"],
    ["vdc", "--N", "17179869185"],
    ["vdc", "--N", "100", "--threads", "2"],
    ["sieve", "--N", "100", "--seed", "3"],
    ["sieve", "--N", "100", "--format", "xml"],
    ["bilinear", "--K", "16", "--L", "16", "--delta", "bogus"],
    ["bilinear", "--K", "16", "--L", "16", "--delta", "random", "--seed", "-1"],
    ["maximal", "--N", "16", "--seed", "-1"],
    ["sieve", "--N", "100", "--config", "dry-run=maybe"],
], ids=" ".join)
def test_bad_arguments_exit_2_before_any_table(argv, tmp_path, monkeypatch,
                                                capsys):
    import thinprimes.cli as cli
    calls = []
    monkeypatch.setattr(cli, "build_prime_table",
                        lambda *a, **k: calls.append(a))
    if "--config" in argv:    # the entry after --config is the file's text
        i = argv.index("--config") + 1
        (tmp_path / "run.cfg").write_text(argv[i])
        argv = argv[:i] + [str(tmp_path / "run.cfg")] + argv[i + 1:]
    out = tmp_path / "r.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert calls == [] and not out.exists()
    assert capsys.readouterr().err.startswith("ValidationError: ")


# Value pools for the contract test: valid values, boundaries and invalid
# ones.  Sizes stay small (N <= 2^12, threads <= 4, small P, K*L, xi grid,
# support and trials), because a large value of one of those is allocated
# or looped over before any guard, or below the 4 GiB hull guard; the one
# huge N lies above sieve.MAX_LIMIT, which the prime table and vdc refuse
# before allocating.
HUGE_N = str(MAX_LIMIT + 1)
POOLS = {
    "N": ["2", "7", "16", "64", "101", "1024", "4095", "4096", "0", "-3",
          "x", "1e3", HUGE_N],
    "checkpoints": ["10,100", "5000", "", "x"],
    "family": ["power", "h1", "h2", "h3", "h4", "h5", "h9"],
    "gamma": ["1", "0.95", "0.8", "0.5", "1.2", "nan", "abc"],
    "c": ["1.0", "1.05", "1.25", "2.0", "0", "inf"],
    "A": ["0.1", "-1", "5"],
    "B": ["0.3", "0.5", "0", "1.5"],
    "C": ["1.0", "0.2", "-1"],
    "m": ["1", "2", "0", "x"],
    "Ch": ["1.0", "2.5", "0.01", "0", "-1"],
    "x0": ["3.0", "100.0", "2460.0", "-1", "nan"],
    "W": ["0,1", "0,0,1", "0,1,1", "1", "0", "", "x"],
    "P": ["2", "10", "300", "0", "-1"],
    "P1": ["20", "500", "600", "5"],
    "xi": ["0", "0.17", "0.3", "1", "1.5", "nan"],
    "mfreq": ["0", "1", "2", "-1"],
    "v": ["1", "2", "5", "20", "nan"],
    "xi-grid": ["64", "128", "32", "0", str(1 << 40)],
    "k": ["2", "3", "1", "-3", "160", "200", str(10 ** 30)],
    "beta": ["1e-4", "1e-300", "0", "-1", "nan", "inf"],
    "K": ["2", "16", "1", "0"],
    "L": ["2", "16", "1", "-4"],
    "delta": ["ones", "random", "bogus"],
    "r-list": ["1.5,2,4", "1,2", "0.5", "inf", "", "x"],
    "support": ["1", "64", "0", "-1"],
    "trials": ["1", "2", "0"],
    "system": ["cycle", "rotation", "torus"],
    "cycle-m": ["1", "2", "7", "0", str(1 << 40)],
    "alpha": ["0.3", "nan", "inf"],
    "freq": ["1", "3", "-2"],
    "x": ["0", "5", "0.25", "nan", "-1"],
    "weighted": ["true", "false", "yes", "maybe"],
    "eps": ["0.5", "2", "0", "-1", "inf", "1e-20", "1e300"],
    "gammas": ["1,1,1", "1,0.99,0.95", "1,1", "0.5,1,1", "x"],
    "N-end": ["7", "121", "4095", "5", HUGE_N],
    "cutoff": ["100", "10000", "50", "1099511627776"],
    "side": ["thin", "full", "bogus"],
    "q": ["1", "2", "0", "-1"],
    "format": ["csv", "json", "xml"],
    "threads": ["1", "2", "4", "0"],
    "seed": ["0", "7", "-1", "x"],
}
# keys drawn every time, so that most draws get past the missing-key check
REQUIRED = {"vaughan": ["P"], "bilinear": ["K", "L"]}


@st.composite
def command_lines(draw):
    sub = draw(st.sampled_from(SUBCOMMANDS))
    keys = sorted(ALLOWED_KEYS[sub] | (COMMON_KEYS - {"out", "dry-run"}))
    must = REQUIRED.get(sub, []) + (["N"] if "N" in keys else [])
    extra = draw(st.lists(st.sampled_from(keys), unique=True, max_size=5))
    argv = [sub]
    for key in must + [k for k in extra if k not in must]:
        argv += ["--" + key, draw(st.sampled_from(POOLS[key]))]
    return argv + (["--dry-run"] if draw(st.booleans()) else [])


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_cli_contract(argv):
    """Any drawn command line exits 0, 2 or 3 without a traceback: exit 2
    builds no table and writes nothing, and exit 3 writes a diagnostic that
    names a computational ThinPrimesError."""
    import thinprimes.cli as cli
    calls = []
    def sieve_spy(*args, **kwargs):
        calls.append(args)
        return build_prime_table(*args, **kwargs)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        mp.setattr(cli, "build_prime_table", sieve_spy)
        out = Path(tmp) / "r.out"
        rc = main(argv + ["--out", str(out)])
        assert rc in (0, 2, 3)
        if rc == 2:
            assert calls == [] and not out.exists()
            assert err.getvalue().startswith(("ValidationError: ", "ParseError: "))
        elif rc == 3:
            name = json.loads(out.read_text())["error"]
            assert issubclass(getattr(errors, name), ThinPrimesError)
            assert name not in ("ValidationError", "ParseError")
        else:
            assert out.exists() != ("--dry-run" in argv)


# A line that the front door refuses before any key is read, or that asks
# for help.  OUT stands for the --out path, up to two pairs from POOLS come
# with the defect, and "-h" or "--help" anywhere asks for the usage.
OUT = "<out>"
DEFECTS = ["none", "unknown", "misplaced", "bare", "trailing", "config",
           "dry-run", "help"]
HELP = ("-h", "--help")


@st.composite
def broken_lines(draw):
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "none":
        return defect, []
    sub = draw(st.sampled_from(SUBCOMMANDS))
    line = ["--out", OUT]
    for key in draw(st.lists(st.sampled_from(sorted(ALLOWED_KEYS[sub])),
                             unique=True, max_size=2)):
        line += ["--" + key, draw(st.sampled_from(POOLS[key]))]
    if defect == "unknown":
        return defect, [draw(st.text(max_size=12).filter(
            lambda t: t not in SUBCOMMANDS and t not in HELP))] + line
    if defect == "misplaced":
        return defect, line + [sub]
    cut = draw(st.integers(0, len(line) // 2)) * 2    # between two pairs
    if defect == "bare":
        bare = draw(st.text(max_size=12).filter(
            lambda t: not t.startswith("--") and t not in HELP))
        return defect, [sub] + line[:cut] + [bare] + line[cut:]
    if defect == "help":
        where = draw(st.integers(0, len(line) + 1))
        return defect, ([sub] + line)[:where] + [draw(st.sampled_from(HELP))] \
            + ([sub] + line)[where:]
    tail = {"trailing": "--" + draw(st.sampled_from(
                sorted((ALLOWED_KEYS[sub] | COMMON_KEYS) - {"dry-run"}))),
            "config": "--config", "dry-run": "--dry-run=maybe"}[defect]
    return defect, [sub] + line + [tail]


@settings(max_examples=200, deadline=None)
@given(broken_lines())
def test_front_door_contract(case):
    """main returns for every drawn line: 0 with the usage on stdout for
    help, else 2 with a ValidationError or ParseError line on stderr, no
    prime table and no --out file."""
    import thinprimes.cli as cli
    defect, argv = case
    calls = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        mp.setattr(cli, "build_prime_table", lambda *a, **k: calls.append(a))
        path = Path(tmp) / "r.out"
        rc = main([str(path) if tok == OUT else tok for tok in argv])
        assert calls == [] and not path.exists()
    if defect == "help":
        assert rc == 0 and out.getvalue().startswith("usage: thinprime ")
        assert all(sub in out.getvalue() for sub in SUBCOMMANDS)
    else:
        assert rc == 2 and out.getvalue() == ""
        assert err.getvalue().startswith(("ValidationError: ", "ParseError: "))
