"""Tests of the benchmark itself: span arithmetic, wrapper restore, gates."""

import csv
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from phaseloss import channel, iss, measurement, qfi  # noqa: E402


def span(name, start, end, parent=None):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_nested_children():
    a = span("a", 0.0, 10.0)
    b = span("b", 1.0, 4.0, a)
    c = span("c", 2.0, 3.0, b)
    d = span("d", 5.0, 7.0, a)
    a2 = span("a", 20.0, 21.0)
    out = tracer.self_times([a, b, c, d, a2])
    assert out["a"] == (pytest.approx(6.0), 2)
    assert out["b"] == (pytest.approx(2.0), 1)
    assert out["c"] == (pytest.approx(1.0), 1)
    assert out["d"] == (pytest.approx(2.0), 1)


def test_self_time_shares_overlapping_children_of_two_threads():
    root = span("root", 0.0, 10.0)
    w1 = span("w", 2.0, 6.0, root)
    w2 = span("w", 4.0, 8.0, root)
    inner = span("x", 4.5, 5.0, w2)
    out = tracer.self_times([root, w1, w2, inner])
    # [4, 6] is shared by w1 and w2 (x takes w2's share while it is open)
    assert out["root"][0] == pytest.approx(4.0)
    assert out["w"][0] + out["x"][0] == pytest.approx(6.0)
    assert sum(s for s, _ in out.values()) == pytest.approx(10.0)


def _bindings():
    return {(mod.__name__, attr): val for mod in tracer.package_modules()
            for attr, val in vars(mod).items()}


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import phaseloss

    before = _bindings()
    t = tracer.Tracer()
    t.install(tracer.package_modules())
    try:
        wrapped = phaseloss.channel.build_kraus
        assert wrapped is not before[("phaseloss.channel", "build_kraus")]
        assert phaseloss.iss.build_kraus is wrapped
        assert phaseloss.qfi.build_kraus is wrapped
        assert phaseloss.build_kraus is wrapped
        probe = channel.FockProbe.fock(channel.Scenario.TWO, 2, 4)
        qfi.channel_report(probe, channel.ChannelParams(0.3, 0.6, 4))
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {rec[0] for rec in t.spans}
    assert {"qfi.channel_report", "channel.build_kraus",
            "bounds.fundamental_limits", "qfi.complete_report"} <= names
    kraus = next(rec for rec in t.spans if rec[0] == "channel.build_kraus")
    assert kraus[3][0] == "qfi.channel_report"
    assert all(rec[1] <= rec[2] for rec in t.spans)


def test_seesaw_gate_rejects_perturbed_probe():
    params = channel.ChannelParams(0.0, 0.1, 10)
    scenario = channel.Scenario.TWO
    result = iss.optimize(iss.IssConfig(conv_rel_tol=1e-8, max_iters=3000), params,
                          scenario)
    reference, _ = workloads.stationarity(result.probe, params, scenario)
    outcome = workloads.seesaw_gate(result.probe, params, scenario, reference)
    assert outcome.residual <= workloads.SEESAW_RESIDUAL_CAP
    rng = np.random.default_rng(1)
    noise = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    perturbed = channel.FockProbe.from_amplitudes(
        scenario, result.probe.coeffs + 0.1 * noise / np.linalg.norm(noise))
    with pytest.raises(workloads.GateError):
        workloads.seesaw_gate(perturbed, params, scenario, reference)
    with pytest.raises(workloads.GateError, match="reference") as failed:
        workloads.seesaw_gate(result.probe, params, scenario, reference * 1.01)
    assert failed.value.outcome.gap == pytest.approx(1 - 1 / 1.01)


def test_stalled_starts_counts_solves_that_miss_the_gap_gate(monkeypatch):
    params = channel.ChannelParams(0.0, workloads.SEESAW_ETA, 10)
    scenario = channel.Scenario.TWO
    references = {}
    for start in (0, 1):
        config = iss.IssConfig(conv_rel_tol=1e-8, max_iters=3000, seed=start)
        result = iss.optimize(config, params, scenario)
        references[str(start)], _ = workloads.stationarity(result.probe, params, scenario)
    references["1"] *= 1.01
    monkeypatch.setitem(workloads.SEESAW, "tiny", (scenario, 10, (), (0, 1)))
    monkeypatch.setattr(workloads, "load_pinned",
                        lambda: {"seesaw": {"tiny": references}})
    stalled, gap = workloads.stalled_starts("tiny")
    assert stalled == 1
    assert gap == pytest.approx(1 - 1 / 1.01, rel=1e-2)


def anchor_table(sweep, tmp_path):
    """The sweep's anchor table; calling the result with an edit of the rows
    checks the edited table against the pinned anchors."""
    budgets = list(workloads.SWEEP_ANCHOR_BUDGETS)
    etas = list(workloads.SWEEP_ANCHOR_ETAS)
    path = str(tmp_path / f"{sweep}.csv")
    argv = workloads.sweep_argv(sweep, budgets, etas, path + ".in")
    assert workloads.run_cli(argv) == 0
    pinned = workloads.load_pinned()["gaussian-sweep"][sweep]

    def write(edit=None):
        with open(path + ".in", newline="") as fh:
            rows = list(csv.reader(fh))
        if edit:
            edit(rows)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return workloads.check_table(sweep, path, budgets, etas, pinned)

    return write


def test_sweep_gate_accepts_table_and_rejects_tampered_rows(tmp_path):
    table = anchor_table("gaussian-scan", tmp_path)
    assert table().records == 12

    def nudge(rows):
        col = rows[0].index("f_eta_norm")
        rows[5][col] = repr(float(rows[5][col]) * (1 + 1e-6))

    def swap(rows):
        rows[1], rows[4] = rows[4], rows[1]

    def drop(rows):
        del rows[-1]

    def unphysical(rows):
        rows[2][rows[0].index("r_h_bar")] = "1.5"

    for edit in (nudge, swap, drop, unphysical):
        with pytest.raises(workloads.GateError):
            table(edit)


def test_sweep_gate_treats_no_information_values_alike(tmp_path):
    table = anchor_table("homodyne", tmp_path)
    assert table().records == 12

    def column(rows):
        return rows[0].index("var_eta_fmax")

    def rounded_to_inf(rows):
        # homodyne at xi = pi/2 pins about 4e32: infinite up to rounding
        row = next(r for r in rows[1:] if float(r[column(rows)]) > 1e30)
        row[column(rows)] = "inf"

    def finite(rows):
        row = next(r for r in rows[1:] if float(r[column(rows)]) > 1e30)
        row[column(rows)] = "1e6"

    assert table(rounded_to_inf).records == 12
    with pytest.raises(workloads.GateError, match="var_eta_fmax"):
        table(finite)


def test_sweep_gate_rejects_nonzero_exit(tmp_path):
    ops = workloads.gaussian_sweep_ops(0, workloads.load_pinned(), str(tmp_path))
    with pytest.raises(workloads.GateError, match="exit code"):
        ops[0].check(2)


def test_oracle_gate_rejects_wrong_matrix():
    rng = np.random.default_rng(0)
    spec = workloads.oracle_spec(workloads.ORACLE_PROBES[0], rng)
    params = channel.ChannelParams(0.7, 0.4, 1)
    f = workloads.oracle_point(spec, params)
    workloads.oracle_gate(f, spec, params)
    with pytest.raises(workloads.GateError):
        workloads.oracle_gate(f * (1 + 1e-3), spec, params)


def test_readout_gate_matches_library_and_rejects_tampering():
    rng = np.random.default_rng(4)
    probe = channel.FockProbe.random(channel.Scenario.TWO, 7, rng)
    kraus = channel.build_kraus(channel.ChannelParams(0.9, 0.35, 7), channel.Scenario.TWO)
    state = (channel.apply_channel(probe, kraus),
             *channel.apply_channel_derivatives(probe, kraus))
    for tau in (0.0, 0.3, 0.5, 1.0):
        moments, variances = workloads.readout(state, tau)
        workloads.readout_gate((moments, variances), *state, tau)
    bad_cov = measurement.MomentSet(moments.means, moments.dphi, moments.deta,
                                    moments.cov * (1 + 1e-6))
    with pytest.raises(workloads.GateError, match="cov"):
        workloads.readout_gate((bad_cov, variances), *state, tau)
    with pytest.raises(workloads.GateError, match="var_eta"):
        workloads.readout_gate((moments, (variances[0], variances[1] * 1.01)),
                               *state, tau)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seesaw-two", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""

