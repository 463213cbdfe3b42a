import numpy as np
import pytest

from conftest import (kraus_matrix, kraus_sum_output, pre_qfi, single_mode_m_matrix,
                      sld_oracle)
from phaseloss.channel import (ChannelParams, FockProbe, Scenario, apply_channel,
                               apply_channel_derivatives, build_kraus)
from phaseloss.iss import (IssConfig, build_m_matrix, channel_slds, optimize,
                           probe_statistics)
from conftest import two_mode_m_matrix as _fast_m_two_mode
from phaseloss.linalg import hermitianize
from phaseloss.qfi import channel_report, qfi_matrix


def test_pre_qfi_at_sld_equals_qfi():
    rng = np.random.default_rng(0)
    for scenario in (Scenario.SINGLE, Scenario.TWO):
        n = 6
        params = ChannelParams(0.4, 0.55, n)
        kraus = build_kraus(params, scenario)
        probe = FockProbe.random(scenario, n, rng)
        l_phi, l_eta = channel_slds(probe, kraus)
        rep = channel_report(probe, params)
        assert pre_qfi(probe, l_phi, kraus, "phi") == pytest.approx(rep.f[0, 0], abs=1e-8)
        assert pre_qfi(probe, l_eta, kraus, "eta") == pytest.approx(rep.f[1, 1], abs=1e-8)


def test_pre_qfi_zero_witness():
    probe = FockProbe.fock(Scenario.TWO, 2, 4)
    kraus = build_kraus(ChannelParams(0.0, 0.5, 4), Scenario.TWO)
    zeros = [np.zeros_like(k @ k.T) for k in (kraus_matrix(kraus, m) for m in range(5))]
    assert pre_qfi(probe, zeros, kraus, "phi") == 0.0


def test_pre_qfi_sld_is_the_maximizer():
    rng = np.random.default_rng(1)
    n = 5
    params = ChannelParams(0.2, 0.6, n)
    kraus = build_kraus(params, Scenario.TWO)
    probe = FockProbe.random(Scenario.TWO, n, rng)
    l_phi, _ = channel_slds(probe, kraus)
    best = pre_qfi(probe, l_phi, kraus, "phi")
    for _ in range(50):
        perturbed = [block + 0.1 * hermitianize(
            rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape))
            for block in l_phi]
        assert pre_qfi(probe, perturbed, kraus, "phi") <= best + 1e-10


def test_m_matrix_rayleigh_quotient():
    rng = np.random.default_rng(2)
    for scenario in (Scenario.SINGLE, Scenario.TWO):
        n = 7
        params = ChannelParams(0.9, 0.33, n)
        kraus = build_kraus(params, scenario)
        probe = FockProbe.random(scenario, n, rng)
        slds = channel_slds(probe, kraus)
        weights = (2.0, 5.0)
        m_mat = build_m_matrix(probe, slds, kraus, weights)
        rayleigh = np.vdot(probe.coeffs, m_mat @ probe.coeffs).real
        expected = (pre_qfi(probe, slds[0], kraus, "phi") / weights[0]
                    + pre_qfi(probe, slds[1], kraus, "eta") / weights[1])
        assert rayleigh == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("n, weights", [
    (8, (1.7, 0.9)),
    (5, (1.7, np.inf)), (40, (1.7, 0.9)), (40, (np.inf, 0.9)),
    (120, (1.7, 0.9)), (120, (1.7, np.inf))])
def test_fast_two_mode_m_matches_dense(n, weights):
    rng = np.random.default_rng(3)
    params = ChannelParams(0.5, 0.47, n)
    kraus = build_kraus(params, Scenario.TWO)
    probe = FockProbe.random(Scenario.TWO, n, rng)
    slds = channel_slds(probe, kraus)
    dense = build_m_matrix(probe, slds, kraus, weights)
    fast = _fast_m_two_mode(probe.coeffs, kraus, weights)
    np.testing.assert_allclose(fast, dense, atol=1e-10 * np.abs(dense).max())


@pytest.mark.parametrize("weights", [(1.7, 0.9), (np.inf, 0.9), (1.7, np.inf)])
@pytest.mark.parametrize("n", [1, 8, 40, 80])
def test_single_mode_m_matches_loop_oracle(n, weights):
    rng = np.random.default_rng(n)
    kraus = build_kraus(ChannelParams(0.7, 0.37, n), Scenario.SINGLE)
    probe = FockProbe.random(Scenario.SINGLE, n, rng)
    slds = channel_slds(probe, kraus)
    ref = single_mode_m_matrix(slds, kraus, weights)
    m_mat = build_m_matrix(probe, slds, kraus, weights)
    assert np.abs(m_mat - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 8, 40, 80])
def test_single_mode_slds_match_oracle(n):
    rng = np.random.default_rng(n + 1)
    kraus = build_kraus(ChannelParams(1.3, 0.62, n), Scenario.SINGLE)
    probe = FockProbe.random(Scenario.SINGLE, n, rng)
    # the oracle solves the library's own output: near-kernel entries of L
    # divide by p_i + p_j down to 1e-12 p_0, so a rounding-level change of rho
    # moves them by up to 1e-4 relative at N=80 (rho itself is checked against
    # the Kraus sum in test_channel)
    rho = apply_channel(probe, kraus).blocks[0]
    derivs = [d.blocks[0] for d in apply_channel_derivatives(probe, kraus)]
    for l_op, drho in zip(channel_slds(probe, kraus), derivs):
        ref = sld_oracle(rho, drho)
        assert np.abs(l_op - ref).max() <= 1e-10 * np.abs(ref).max()
    if n <= 8:
        for l_op, which in zip(channel_slds(probe, kraus), ("phi", "eta")):
            ref = sld_oracle(kraus_sum_output(probe, kraus),
                             kraus_sum_output(probe, kraus, which))
            assert np.abs(l_op - ref).max() <= 1e-10 * np.abs(ref).max()


def test_eigh_calls_per_solve(monkeypatch):
    # one eigendecomposition per mixed state: SLD pair, QFI block, see-saw step
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    n = 9
    params = ChannelParams(0.4, 0.3, n)
    probe = FockProbe.random(Scenario.SINGLE, n, np.random.default_rng(5))
    channel_slds(probe, build_kraus(params, Scenario.SINGLE))
    assert shapes == [(n + 1, n + 1)]

    # |3>|N-3> keeps blocks m = 0..3; blocks 4..N carry no weight
    two_mode = FockProbe.fock(Scenario.TWO, 3, n)
    kraus = build_kraus(params, Scenario.TWO)
    shapes.clear()
    qfi_matrix(apply_channel(two_mode, kraus), *apply_channel_derivatives(two_mode, kraus),
               method="eigen")
    assert shapes == [(n + 1 - m, n + 1 - m) for m in range(4)]

    def calls_for(iters):
        shapes.clear()
        optimize(IssConfig(max_iters=iters, conv_rel_tol=1e-300), params, Scenario.SINGLE)
        return len(shapes)

    assert calls_for(3) - calls_for(2) == 2


def test_m_matrix_small_system_hand_derived():
    # N=1 single mode, eta=1/2, phi=0, probe (|0>+|1>)/sqrt(2), loss-only
    # weights: rho = [[3/4, r],[r, 1/4]] with r = 1/(2 sqrt 2) gives
    # L_eta = [[-1, 1/sqrt2],[1/sqrt2, 1]] and M = [[-3/2, 1],[1, 5/2]]
    probe = FockProbe.from_amplitudes(Scenario.SINGLE, [1.0, 1.0])
    params = ChannelParams(0.0, 0.5, 1)
    kraus = build_kraus(params, Scenario.SINGLE)
    l_phi, l_eta = channel_slds(probe, kraus)
    np.testing.assert_allclose(
        l_eta, np.array([[-1.0, 2 ** -0.5], [2 ** -0.5, 1.0]]), atol=1e-12)
    m_mat = build_m_matrix(probe, (l_phi, l_eta), kraus, (np.inf, 1.0))
    np.testing.assert_allclose(
        m_mat, np.array([[-1.5, 1.0], [1.0, 2.5]]), atol=1e-12)


def test_objective_monotone_on_random_runs():
    for seed in range(8):
        cfg = IssConfig(max_iters=80, restarts=1, seed=seed, conv_rel_tol=1e-10)
        res = optimize(cfg, ChannelParams(0.0, 0.35, 6), Scenario.TWO)
        diffs = np.diff(res.objective_trace)
        assert diffs.min() >= -1e-10 if len(diffs) else True


def test_loss_only_recovers_fock_state():
    cfg = IssConfig(weight_phi=np.inf, weight_eta=1.0, max_iters=2000,
                    conv_window=8, conv_rel_tol=1e-14, restarts=1, seed=3)
    res = optimize(cfg, ChannelParams(0.0, 0.4, 7), Scenario.TWO)
    assert abs(res.probe.coeffs[-1]) ** 2 > 1 - 1e-8
    assert res.final_qfi.f[1, 1] == pytest.approx(7 / (0.4 * 0.6), rel=1e-8)


def test_loss_only_fixed_point():
    # seeding at the number state keeps it there: the top eigenvector of M is |N>
    n, eta = 6, 0.5
    kraus = build_kraus(ChannelParams(0.0, eta, n), Scenario.TWO)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    m_mat = _fast_m_two_mode(coeffs, kraus, (np.inf, 1.0))
    vals, vecs = np.linalg.eigh(m_mat)
    assert abs(vecs[:, -1][n]) ** 2 > 1 - 1e-12
    assert vals[-1] == pytest.approx(n / (eta * (1 - eta)), rel=1e-12)


def test_phase_only_lossless_optimum():
    cfg = IssConfig(weight_phi=1.0, weight_eta=np.inf, max_iters=2000,
                    conv_window=6, conv_rel_tol=1e-13, restarts=2, seed=1)
    res = optimize(cfg, ChannelParams(0.0, 1 - 1e-9, 4), Scenario.SINGLE)
    assert res.final_qfi.f[0, 0] == pytest.approx(16.0, rel=1e-6)
    weights = np.abs(res.probe.coeffs) ** 2
    assert weights[0] == pytest.approx(0.5, abs=1e-4)
    assert weights[4] == pytest.approx(0.5, abs=1e-4)


def test_restart_determinism():
    cfg = IssConfig(max_iters=40, restarts=3, seed=11, conv_rel_tol=1e-9)
    res1 = optimize(cfg, ChannelParams(0.0, 0.25, 5), Scenario.TWO)
    res2 = optimize(cfg, ChannelParams(0.0, 0.25, 5), Scenario.TWO)
    assert res1.objective_trace[-1] == pytest.approx(res2.objective_trace[-1], abs=1e-10)
    np.testing.assert_allclose(res1.probe.coeffs, res2.probe.coeffs, atol=1e-12)
    assert res1.restart_objectives == res2.restart_objectives


def test_optimized_two_mode_off_diagonal_vanishes():
    cfg = IssConfig(max_iters=600, restarts=2, seed=0, conv_rel_tol=1e-9)
    res = optimize(cfg, ChannelParams(0.0, 0.3, 12), Scenario.TWO)
    scale = max(res.final_qfi.f[0, 0], res.final_qfi.f[1, 1])
    assert abs(res.final_qfi.f[0, 1]) < 1e-6 * scale


def test_gauge_fixed_output():
    cfg = IssConfig(max_iters=60, restarts=1, seed=2, conv_rel_tol=1e-8)
    res = optimize(cfg, ChannelParams(0.0, 0.5, 5), Scenario.TWO)
    k = int(np.argmax(np.abs(res.probe.coeffs)))
    assert res.probe.coeffs[k].imag == pytest.approx(0.0, abs=1e-12)
    assert res.probe.coeffs[k].real > 0


def test_probe_statistics():
    assert probe_statistics(FockProbe.fock(Scenario.SINGLE, 5, 5)) == (5.0, 0.0)
    coeffs = np.zeros(9)
    coeffs[0] = coeffs[8] = 1 / np.sqrt(2)
    mean, var = probe_statistics(FockProbe(Scenario.SINGLE, coeffs))
    assert mean == pytest.approx(4.0)
    assert var == pytest.approx(16.0)


def test_witness_statistics():
    # (|N> + |N - ceil(N^0.7)>)/sqrt(2) at N = 30
    n, gap = 30, int(np.ceil(30 ** 0.7))
    coeffs = np.zeros(n + 1)
    coeffs[n] = coeffs[n - gap] = 1 / np.sqrt(2)
    mean, var = probe_statistics(FockProbe(Scenario.SINGLE, coeffs))
    assert mean == pytest.approx(n - gap / 2)
    assert var == pytest.approx(gap ** 2 / 4)


def test_optimized_probe_quantifier_regression():
    # two-mode n=20, eta=0.1: normalized sum pinned after the first verified
    # run (deterministic given the seed); sits strictly between the best
    # Gaussian value 1/2 and the compatibility ceiling 1
    cfg = IssConfig(max_iters=1500, restarts=2, seed=0, conv_rel_tol=1e-10)
    res = optimize(cfg, ChannelParams(0.0, 0.1, 20), Scenario.TWO)
    f_norm = 0.5 * res.objective_trace[-1]
    assert 0.5 < f_norm < 1.0
    assert f_norm == pytest.approx(0.749402, abs=2e-4)


@pytest.mark.parametrize("n, value", [
    (20, 1.498804780036), (40, 1.558515390968),
    (120, 1.649805633145), (200, 1.689036648067)])
def test_certified_two_mode_values(n, value):
    res = optimize(IssConfig(), ChannelParams(0.0, 0.1, n), Scenario.TWO)
    assert res.converged
    assert 0.0 <= res.gap <= 1e-9
    assert res.objective_trace[-1] == pytest.approx(value, abs=1e-9)
    assert np.all(np.diff(res.objective_trace) >= 0.0)
    assert res.restart_objectives == [res.objective_trace[-1]]
    lim_phi, lim_eta = 4 * 0.1 * n / 0.9, n / 0.09
    f = res.final_qfi.f
    assert f[0, 0] / lim_phi + f[1, 1] / lim_eta == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("n", [10, 40])
def test_certified_probe_is_a_seesaw_fixed_point(n):
    # KKT at the optimum: M c = J c for the see-saw operator at c = sqrt(p)
    params = ChannelParams(0.0, 0.1, n)
    res = optimize(IssConfig(), params, Scenario.TWO)
    weights = (4 * 0.1 * n / 0.9, n / 0.09)
    c = res.probe.coeffs
    m_mat = _fast_m_two_mode(c, build_kraus(params, Scenario.TWO), weights)
    j = res.objective_trace[-1]
    assert np.vdot(c, m_mat @ c).real == pytest.approx(j, rel=1e-12)
    assert np.linalg.norm(m_mat @ c - j * c) <= 1e-8 * j


def test_two_mode_result_ignores_seed_and_restarts():
    params = ChannelParams(0.0, 0.3, 12)
    base = optimize(IssConfig(), params, Scenario.TWO)
    other = optimize(IssConfig(restarts=3, seed=9, conv_rel_tol=0.5, conv_window=2),
                     params, Scenario.TWO)
    np.testing.assert_array_equal(base.probe.coeffs, other.probe.coeffs)
    assert base.gap == other.gap


def test_two_mode_newton_steps_capped():
    res = optimize(IssConfig(max_iters=5), ChannelParams(0.0, 0.1, 30), Scenario.TWO)
    assert res.iterations == 5
    assert not res.converged
    assert res.gap > 1e-9


def test_single_mode_gap_is_nan():
    res = optimize(IssConfig(max_iters=5), ChannelParams(0.0, 0.4, 4), Scenario.SINGLE)
    assert np.isnan(res.gap)
