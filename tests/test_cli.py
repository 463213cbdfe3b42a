import csv
import io
import json
import math
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import phaseloss.cli
import phaseloss.gaussian
from conftest import (counting_moments_oracle, error_propagation_oracle,
                      evolve_oracle, gaussian_qfi_oracle, homodyne_moments_oracle)
from phaseloss.bounds import fundamental_limits
from phaseloss.cli import _parse_angle, main
from phaseloss.errors import InvalidInput
from phaseloss.gaussian import (EnergySplit, GaussianProbeSpec, ProbeFamily,
                                make_probe, spec_from_split)
from phaseloss.measurement import scheme_incompatibility


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


def test_measure_counting_fock_probe_carries_phase_signal():
    # the optimized number probe has real amplitudes, so its difference
    # signal has a phase slope only away from phi = pi/2
    code, out, _ = run_cli(["measure", "--n", "10", "--eta", "0.1", "--scheme", "counting",
                            "--probe", "fock", "--tau-out", "0,0.25,0.5,1"])
    assert code == 0
    rows = read_csv(out)
    assert [r["var_phi_fmax"] for r in (rows[0], rows[3])] == ["inf", "inf"]
    assert [float(r["r_scheme"]) for r in (rows[0], rows[3])] == [1.0, 1.0]
    np.testing.assert_allclose([float(r["var_phi_fmax"]) for r in rows[1:3]],
                               [3.59939635332, 2.22955836328], rtol=1e-4)
    np.testing.assert_allclose([float(r["r_scheme"]) for r in rows[1:3]],
                               [0.483298281769, 0.527924207767], rtol=1e-4)
    assert len({r["r_h_bar"] for r in rows}) == 1


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


def test_rows_stop_at_first_failing_row_whatever_threads():
    code, out, err = run_cli(["optimize", "--n", "3,0,5", "--eta", "0.5", "--threads", "4"])
    assert code == 2
    assert out == ""
    assert "optimize n=3 eta=0.5" in err
    assert "n=5" not in err
    assert err.strip().splitlines()[-1].startswith("config error")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("argv, column, token", [
    (["optimize", "--n", "4", "--eta", "0.3", "--scenario", "single"], "gap", "nan"),
    (["measure", "--n", "100", "--eta", "0.3", "--scheme", "homodyne", "--xi", "0,pi/2"],
     "var_phi_fmax", "inf")])
def test_json_output_is_strict(argv, column, token):
    code, out, _ = run_cli(argv + ["--format", "json"])
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert rows[0][column] == token
    _, csv_out, _ = run_cli(argv)
    assert read_csv(csv_out)[0][column] == token


def test_fmt_keeps_the_sign_of_infinity():
    assert phaseloss.cli._fmt(-math.inf) == "-inf"
    assert phaseloss.cli._fmt(math.inf) == "inf"


def test_measure_fock_ignores_restarts_and_seed():
    args = ["measure", "--n", "6,9", "--eta", "0.3,0.6", "--scheme", "counting",
            "--probe", "fock", "--tau-out", "0.5,1"]
    _, base, _ = run_cli(args)
    for extra in (["--restarts", "1"], ["--restarts", "3"], ["--seed", "0"], ["--seed", "5"]):
        code, out, _ = run_cli(args + extra)
        assert code == 0
        assert out == base, extra


@pytest.mark.parametrize("base, flag, values", [
    (["bounds", "--n", "10", "--eta", "0.5"], "--threads", ("1", "4")),
    (["measure", "--n", "6", "--eta", "0.3", "--probe", "fock", "--tau-out", "0.5"],
     "--restarts", ("1", "3"))])
def test_json_envelope_leaves_out_flags_no_row_depends_on(base, flag, values):
    outs = []
    for value in values:
        code, out, _ = run_cli(base + [flag, value, "--format", "json"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_optimize_rejects_non_finite_conv_tol(tol):
    code, out, err = run_cli(["optimize", "--scenario", "single", "--n", "4", "--eta", "0.5",
                              "--conv-tol", tol, "--max-iters", "20"])
    assert code == 2
    assert out == ""
    assert "config error" in err


@pytest.mark.parametrize("scenario", ["single", "two"])
def test_optimize_rejects_two_infinite_weights(scenario):
    code, out, err = run_cli(["optimize", "--scenario", scenario, "--n", "4", "--eta", "0.5",
                              "--weight-phi", "inf", "--weight-eta", "inf"])
    assert code == 2
    assert out == ""
    assert "config error" in err


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
    real_optimize = phaseloss.cli.optimize

    def counting_optimize(config, params, scenario):
        calls[(params.n_max, params.eta)] += 1
        return real_optimize(config, params, scenario)

    monkeypatch.setattr(phaseloss.cli, "optimize", counting_optimize)
    code, out, _ = run_cli(["measure", "--n", "4", "--eta", "0.3,0.5", "--scheme", "counting",
                            "--probe", "fock", "--tau-out", "0.25,0.5,1", "--restarts", "1",
                            "--threads", "4"])
    assert code == 0
    assert len(read_csv(out)) == 6
    assert calls == {(4, 0.3): 1, (4, 0.5): 1}


# ---------------------------------------------------------------------------
# Gaussian sweeps: one batched evaluation against a row-by-row oracle
# ---------------------------------------------------------------------------

GAUSSIAN_GRID = ["--n", "10,100,1000", "--eta", "0.1,0.3,0.5,0.7"]   # x 3 angles: 36 rows
GAUSSIAN_SWEEPS = {
    "gaussian-scan": ["gaussian-scan", "--chi", "0,pi/4,pi/2", "--q", "0.3"],
    "homodyne": ["measure", "--scheme", "homodyne", "--xi", "0,pi/4,pi/2",
                 "--tau-out", "0.5"],
    "counting": ["measure", "--scheme", "counting", "--tau-out", "0.25,0.5,1"],
}


def oracle_bounds(f, i_phieta, lim):
    """(C_S, C_H_bar) of one point with the weights diag(F_phi_max, F_eta_max)."""
    w = np.diag([lim.f_phi_max_s12, lim.f_eta_max])
    f_inv = np.linalg.inv(f)
    c_s = float(np.trace(w @ f_inv))
    vals, vecs = np.linalg.eigh(w)
    w_half = (vecs * np.sqrt(vals)) @ vecs.T
    i_mat = np.array([[0.0, i_phieta], [-i_phieta, 0.0]])
    return c_s, c_s + float(np.linalg.norm(w_half @ f_inv @ i_mat @ f_inv @ w_half, 2))


def oracle_row(sweep, row):
    """The values of one table row, evaluated on its own by the conftest oracles."""
    n, eta = int(row["n"]), float(row["eta"])
    if sweep == "gaussian-scan":
        chi, q = float(row["chi"]), 0.3
        split = EnergySplit(float(n), p=0.5, q=q)
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=0.0, theta=math.pi / 2,
                               theta1=math.pi, theta2=math.pi, chi=chi,
                               tau_in=1.0 if chi > 1e-12 else split.tau_in())
        phi = 0.0
    else:
        xi = float(row["xi"])
        split = EnergySplit(float(n), p=0.5, q=0.5)
        angles = ((math.pi, math.pi / 2) if sweep == "counting"
                  else (2.0 * xi, 2.0 * xi))
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=0.0, theta=angles[1],
                               theta1=angles[0], theta2=angles[0], chi=math.pi / 2,
                               tau_in=1.0)
        phi = math.pi / 2 if sweep == "counting" else 0.0
    state = make_probe(spec)
    ev = evolve_oracle(state.sigma, state.d, phi, eta, spec.tau_in)
    f, i_pe, _ = gaussian_qfi_oracle(ev)
    lim = fundamental_limits(float(n), eta)
    c_s, c_h_bar = oracle_bounds(f, i_pe, lim)
    if sweep == "gaussian-scan":
        return {"f_phi_norm": f[0, 0] / lim.f_phi_max_s12,
                "f_eta_norm": f[1, 1] / lim.f_eta_max, "f_phieta": f[0, 1],
                "i_phieta_imag": i_pe.imag, "r_h_bar": c_s / c_h_bar}
    tau_out = float(row["tau_out"])
    moments = (counting_moments_oracle(ev, tau_out) if sweep == "counting"
               else homodyne_moments_oracle(ev, tau_out, xi))
    var_phi, var_eta = error_propagation_oracle(moments)
    return {"var_phi_fmax": var_phi * lim.f_phi_max_s12,
            "var_eta_fmax": var_eta * lim.f_eta_max,
            "r_scheme": scheme_incompatibility(var_phi, var_eta, c_s, lim),
            "r_h_bar": c_s / c_h_bar}


@pytest.mark.parametrize("sweep", sorted(GAUSSIAN_SWEEPS))
def test_gaussian_sweeps_match_row_oracle_and_ignore_threads(sweep):
    argv = GAUSSIAN_SWEEPS[sweep] + GAUSSIAN_GRID
    code1, serial, _ = run_cli(argv + ["--threads", "1"])
    code4, parallel, _ = run_cli(argv + ["--threads", "4"])
    assert code1 == code4 == 0
    assert serial == parallel
    rows = read_csv(serial)
    assert len(rows) == 36
    for i, row in enumerate(rows):
        want = oracle_row(sweep, row)
        # f_phieta vanishes here in exact arithmetic: compare it on the row's F scale
        f_scale = max(abs(want.get("f_phi_norm", 0.0)), abs(want.get("f_eta_norm", 0.0)))
        for col, value in want.items():
            got = float(row[col])
            if col == "f_phieta":
                lim = fundamental_limits(float(row["n"]), float(row["eta"]))
                scale = f_scale * max(lim.f_phi_max_s12, lim.f_eta_max)
                assert abs(got - value) <= 1e-10 * scale, (i, col, got, value)
            elif abs(value) > 1e15 or abs(got) > 1e15:
                assert min(abs(value), abs(got)) > 1e15, (i, col, got, value)  # no information
            else:
                assert got == pytest.approx(value, rel=1e-10, abs=1e-300), (i, col, got, value)


@pytest.mark.parametrize("command", ["gaussian-scan", "counting"])
@pytest.mark.parametrize("failures", [
    {7: "unphysical", 4: "singular"}, {4: "unphysical", 7: "singular"},
    {38: "unphysical", 35: "singular"}, {35: "unphysical", 38: "singular"},
    {9: "raise", 20: "singular"}, {20: "raise", 9: "singular"}])
def test_gaussian_sweep_reports_first_failing_row(monkeypatch, command, failures):
    """Rows fail at their own stage (spec, probe, information matrix); the
    exit code and message are those of the first failing row, after the
    progress lines of the rows before it, also across a chunk boundary."""
    real_spec = phaseloss.gaussian.spec_from_split
    calls = []

    def faulty_spec(*args, **kwargs):
        row = len(calls)
        calls.append(row)
        kind = failures.get(row)
        if kind == "raise":
            raise InvalidInput("split rejected")
        if kind == "unphysical":
            return GaussianProbeSpec(ProbeFamily.TWO_MODE, r=0.8, chi=math.pi / 4)
        if kind == "singular":
            return GaussianProbeSpec(ProbeFamily.TWO_MODE)      # vacuum: F = 0
        return real_spec(*args, **kwargs)

    monkeypatch.setattr(phaseloss.gaussian, "spec_from_split", faulty_spec)
    argv = (["gaussian-scan", "--chi", "0,pi/4,pi/2"] if command == "gaussian-scan"
            else ["measure", "--scheme", "counting", "--tau-out", "0.25,0.5,1"])
    code, out, err = run_cli(argv + ["--n", "10,100,1000,10000",
                                     "--eta", "0.2,0.4,0.6,0.8"])       # 48 rows
    first = min(failures)
    expected = {"unphysical": (2, "config error: covariance matrix is unphysical"),
                "raise": (2, "config error: split rejected"),
                "singular": (3, "numerical failure: information matrix is "
                                "numerically singular")}[failures[first]]
    lines = err.strip().splitlines()
    assert code == expected[0]
    assert out == ""
    assert lines[-1].startswith(expected[1])
    assert len(lines) == first + 1       # one progress line per row before it
