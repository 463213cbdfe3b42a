import csv
import io
import json
import math
import threading
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

import phaseloss.cli
from phaseloss.cli import _parse_angle, main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def read_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no rows in output: {text!r}"
    return rows


def test_bounds_command_values():
    code, out, _ = run_cli(["bounds", "--n", "10", "--eta", "0.5"])
    assert code == 0
    row = read_csv(out)[0]
    assert float(row["f_eta_max"]) == pytest.approx(40.0)
    assert float(row["f_phi_max"]) == pytest.approx(40.0)
    assert float(row["fock_bound"]) == pytest.approx(0.5)
    assert float(row["witness_bound"]) < 1.0


def test_bounds_witness_trend_to_one():
    code, out, _ = run_cli(["bounds", "--n", "100,10000,1000000,100000000",
                            "--eta", "0.5"])
    assert code == 0
    values = [float(r["witness_bound"]) for r in read_csv(out)]
    assert values == sorted(values)
    assert values[-1] > 0.99


def test_optimize_command_row_contract(tmp_path):
    out_path = tmp_path / "table.csv"
    code, _, _ = run_cli(["optimize", "--n", "2", "--eta", "0.5", "--restarts", "1",
                          "--max-iters", "150", "--out", str(out_path)])
    assert code == 0
    rows = read_csv(out_path.read_text())
    assert len(rows) == 1
    f_norm = float(rows[0]["f_norm"])
    assert 0.0 < f_norm <= 1.0 + 1e-6
    coeff_rows = read_csv((tmp_path / "table_coeffs.csv").read_text())
    assert len(coeff_rows) == 3
    norm = sum(float(r["re"]) ** 2 + float(r["im"]) ** 2 for r in coeff_rows)
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_optimize_loss_only_weights_recover_number_state(tmp_path):
    out_path = tmp_path / "t.csv"
    code, _, _ = run_cli(["optimize", "--n", "5", "--eta", "0.4", "--restarts", "1",
                          "--max-iters", "2000", "--conv-tol", "1e-12",
                          "--weight-phi", "inf", "--out", str(out_path)])
    assert code == 0
    coeff_rows = read_csv((tmp_path / "t_coeffs.csv").read_text())
    top = coeff_rows[-1]
    assert int(top["index"]) == 5
    amp = float(top["re"]) ** 2 + float(top["im"]) ** 2
    assert amp == pytest.approx(1.0, abs=1e-8)


def test_optimize_determinism(tmp_path):
    args = ["optimize", "--n", "4", "--eta", "0.3", "--restarts", "2",
            "--max-iters", "120", "--seed", "7"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gaussian_scan_rows_ordered_and_ranged():
    code, out, _ = run_cli(["gaussian-scan", "--n", "10000", "--eta", "0.1",
                            "--chi", "pi/2,0,pi/4", "--q", "0.3"])
    assert code == 0
    rows = read_csv(out)
    chis = [float(r["chi"]) for r in rows]
    assert chis == sorted(chis)
    for row in rows:
        assert 0.0 < float(row["f_norm"]) <= 1.0 + 1e-6
    cross = rows[-1]
    assert float(cross["f_phi_norm"]) > 0.95
    assert float(cross["f_eta_norm"]) > 0.95


def test_gaussian_scan_strong_squeezing_trend():
    code, out, _ = run_cli(["gaussian-scan", "--n", "100,10000,1000000",
                            "--eta", "0.1", "--chi", "pi/2", "--regime", "sq"])
    assert code == 0
    rows = read_csv(out)
    gaps = [abs(float(r["f_norm"]) - 0.5) for r in rows]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-3


def test_measure_homodyne_gaussian():
    code, out, _ = run_cli(["measure", "--n", "10000", "--eta", "0.1",
                            "--scheme", "homodyne", "--xi", "pi/4",
                            "--tau-out", "1.0"])
    assert code == 0
    row = read_csv(out)[0]
    assert row["status"] == "ok"
    assert float(row["var_phi_fmax"]) == pytest.approx(2.0, rel=0.05)
    assert float(row["var_eta_fmax"]) == pytest.approx(2.0, rel=0.05)


def test_measure_homodyne_fock_unsupported_marker():
    code, out, _ = run_cli(["measure", "--n", "6", "--eta", "0.5",
                            "--scheme", "homodyne", "--probe", "fock"])
    assert code == 0
    row = read_csv(out)[0]
    assert row["status"] == "unsupported"
    assert row["var_phi_fmax"] == ""


def test_measure_counting_fock_probe():
    code, out, _ = run_cli(["measure", "--n", "8", "--eta", "0.3",
                            "--scheme", "counting", "--probe", "fock",
                            "--tau-out", "0.5,1.0", "--restarts", "1"])
    assert code == 0
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    # the balanced splitter reads phase, the open splitter reads loss
    assert float(rows[0]["var_phi_fmax"]) < float(rows[1]["var_phi_fmax"]) or \
        rows[1]["var_phi_fmax"] == "inf"
    assert float(rows[1]["var_eta_fmax"]) <= float(rows[0]["var_eta_fmax"])


def test_json_format_envelope():
    code, out, _ = run_cli(["bounds", "--n", "10", "--eta", "0.5",
                            "--format", "json", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["seed"] == 3
    assert payload["meta"]["command"] == "bounds"
    assert payload["rows"][0]["f_eta_max"] == pytest.approx(40.0)


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=10\neta=0.5\n# comment line\nwitness-exponent=0.8\n")
    code, out, _ = run_cli(["bounds", "--config", str(cfg)])
    assert code == 0
    assert float(read_csv(out)[0]["witness_exponent"]) == pytest.approx(0.8)
    code, out, _ = run_cli(["bounds", "--config", str(cfg), "--witness-exponent", "0.6"])
    assert code == 0
    assert float(read_csv(out)[0]["witness_exponent"]) == pytest.approx(0.6)


def test_exit_code_config_error():
    code, _, err = run_cli(["bounds", "--n", "10", "--eta", "1.5"])
    assert code == 2
    assert "config error" in err


def test_exit_code_missing_config_file():
    code, _, _ = run_cli(["bounds", "--config", "/nonexistent/path.cfg"])
    assert code == 2


def test_threads_deterministic_ordering():
    args = ["bounds", "--n", "2,4,8,16,32", "--eta", "0.2,0.5,0.8"]
    _, serial, _ = run_cli(args + ["--threads", "1"])
    _, parallel, _ = run_cli(args + ["--threads", "4"])
    assert serial == parallel


@pytest.mark.parametrize("token, value", [
    ("pi/4", math.pi / 4), ("-pi", -math.pi), ("3pi/2", 1.5 * math.pi),
    ("0.5*pi", 0.5 * math.pi), ("+pi/2", math.pi / 2), ("1e-3", 1e-3), (" 2 ", 2.0)])
def test_parse_angle_accepts_numbers_and_pi_multiples(token, value):
    assert _parse_angle(token) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "1e4", "--eta", "0.5"],
    ["bounds", "--n", "10", "--eta", "0.5x"],
    ["gaussian-scan", "--n", "100", "--eta", "0.1", "--chi", "3/4pi"],
    ["gaussian-scan", "--n", "100", "--eta", "0.1", "--chi", "pi*2"],
    ["gaussian-scan", "--n", "100", "--eta", "0.1", "--chi", "pi/0"],
    ["gaussian-scan", "--n", "100", "--eta", "0.1", "--chi", "2pipi"],
    ["measure", "--n", "100", "--eta", "0.1", "--tau-out", "0.5,one"],
    ["optimize", "--n", "2", "--eta", "0.5", "--weight-phi", "heavy"]])
def test_malformed_numbers_exit_with_config_error(argv):
    code, _, err = run_cli(argv)
    assert code == 2
    assert "config error" in err


def test_explicit_flag_equal_to_default_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=10\neta=0.5\nseed=5\n")
    code, out, _ = run_cli(["bounds", "--config", str(cfg), "--format", "json"])
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 5
    code, out, _ = run_cli(["bounds", "--config", str(cfg), "--seed", "0",
                            "--format", "json"])
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 0


def test_measure_fock_optimizes_each_point_once(monkeypatch):
    calls = Counter()
    lock = threading.Lock()
    real_optimize = phaseloss.cli.optimize

    def counting_optimize(config, params, scenario):
        with lock:
            calls[(params.n_max, params.eta)] += 1
        time.sleep(0.2)
        return real_optimize(config, params, scenario)

    monkeypatch.setattr(phaseloss.cli, "optimize", counting_optimize)
    code, out, _ = run_cli(["measure", "--n", "4", "--eta", "0.3,0.5", "--scheme", "counting",
                            "--probe", "fock", "--tau-out", "0.25,0.5,1", "--restarts", "1",
                            "--threads", "4"])
    assert code == 0
    assert len(read_csv(out)) == 6
    assert calls == {(4, 0.3): 1, (4, 0.5): 1}
