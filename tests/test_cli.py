"""CLI parse/validate behavior, report formats and exit codes."""

import json

import pytest

from thinprimes.cli import main, parse_config, parse_config_text
from thinprimes.errors import ParseError, ValidationError
from thinprimes.sieve import enumerate_thin_primes
from thinprimes.thinfn import make_thin_function


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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_dry_run_prints_plan_without_output(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["sieve", "--N", "1000", "--out", str(out), "--dry-run"])
    assert rc == 0
    assert not out.exists()
    plan = json.loads(capsys.readouterr().out)
    assert plan["plan"]["subcommand"] == "sieve"
    assert plan["plan"]["N"] == "1000"


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


def test_computational_error_exits_3(tmp_path, capsys):
    # empty thin set at N=2 for the h3 family: EmptySet is a compute error
    out = tmp_path / "err.json"
    rc = main(["ergodic", "--family", "h3", "--C", "1.0", "--N", "2",
               "--out", str(out)])
    assert rc == 3
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1 and doc["error"] == "EmptySet"


def test_hull_too_large_exits_3(tmp_path, capsys):
    # W = k^2 up to N = 2^20 puts a 2^40-entry hull under the running sum
    out = tmp_path / "err.json"
    rc = main(["maximal", "--gamma", "0.95", "--W", "0,0,1", "--N", "1048576",
               "--trials", "1", "--out", str(out)])
    assert rc == 3
    assert json.loads(out.read_text())["error"] == "LimitTooLarge"
    assert capsys.readouterr().err.startswith("LimitTooLarge: running sum")
