import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (kraus_matrix, kraus_sum_output, plain_seesaw, pre_qfi,
                      single_mode_m_matrix, sld_oracle)
from phaseloss.bounds import fundamental_limits
from phaseloss.channel import (ChannelParams, FockProbe, Scenario, apply_channel,
                               apply_channel_derivatives, build_kraus, probe_statistics)
from phaseloss.errors import InvalidInput
from phaseloss import iss, qfi
from phaseloss.iss import IssConfig, build_m_matrix, channel_slds, optimize
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


@pytest.mark.parametrize("fock", [False, True])
def test_two_mode_witnesses_match_block_density_closed_form(fock):
    # a pure block psi psi' with derivative drho has the SLD
    # (2/q) drho - (tr drho / q^2) psi psi'; |3>|N-3> leaves blocks 4..N empty
    n = 9
    kraus = build_kraus(ChannelParams(0.8, 0.35, n), Scenario.TWO)
    probe = (FockProbe.fock(Scenario.TWO, 3, n) if fock
             else FockProbe.random(Scenario.TWO, n, np.random.default_rng(6)))
    rho = apply_channel(probe, kraus)
    for blocks, drho in zip(channel_slds(probe, kraus),
                            apply_channel_derivatives(probe, kraus)):
        refs = []
        for rho_b, d_b in zip(rho.blocks, drho.blocks):
            q = np.trace(rho_b).real
            refs.append(np.zeros_like(rho_b) if q == 0.0 else
                        (2.0 / q) * d_b - (np.trace(d_b).real / q ** 2) * rho_b)
        scale = max(1.0, *(np.abs(ref).max() for ref in refs))
        assert [b.shape for b in blocks] == [ref.shape for ref in refs]
        for l_b, ref in zip(blocks, refs):
            np.testing.assert_allclose(l_b, ref, rtol=0, atol=1e-12 * scale)


def test_two_mode_witnesses_form_no_block_density():
    # the two witness block sets are the output; rho and its two derivatives
    # would add three more
    n = 120
    kraus = build_kraus(ChannelParams(0.0, 0.1, n), Scenario.TWO)
    probe = FockProbe.random(Scenario.TWO, n, np.random.default_rng(0))
    block_set = 16 * sum((n + 1 - m) ** 2 for m in range(n + 1))
    tracemalloc.start()
    try:
        slds = channel_slds(probe, kraus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(blocks) for blocks in slds] == [n + 1, n + 1]
    assert peak <= 2.5 * block_set


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

    # |3>|N-3> keeps blocks m = 0..3; blocks 4..N carry no weight.  QFI
    # blocks are factored on their support, with no eigendecomposition
    supports = []

    def counting_support(a):
        supports.append(np.shape(a))
        return support_eig(a)

    support_eig = qfi.support_eig
    monkeypatch.setattr(qfi, "support_eig", counting_support)
    two_mode = FockProbe.fock(Scenario.TWO, 3, n)
    kraus = build_kraus(params, Scenario.TWO)
    shapes.clear()
    qfi_matrix(apply_channel(two_mode, kraus), *apply_channel_derivatives(two_mode, kraus),
               method="eigen")
    assert supports == [(n + 1 - m, n + 1 - m) for m in range(4)]
    assert shapes == []

    # a see-saw run: one per SLD pair (first point, trials, refused trials'
    # fallbacks) and one per step's M; the final report is one support factor
    slds_calls, steps = [], []

    def counting_slds(*args):
        slds_calls.append(args)
        return channel_slds(*args)

    def counting_top(*args):
        steps.append(args)
        return top_eigvec(*args)

    top_eigvec = iss._top_eigvec
    monkeypatch.setattr(iss, "channel_slds", counting_slds)
    monkeypatch.setattr(iss, "_top_eigvec", counting_top)
    shapes.clear()
    supports.clear()
    res = optimize(IssConfig(max_iters=50, conv_rel_tol=1e-300), params, Scenario.SINGLE)
    assert res.iterations == len(steps) == 50
    assert shapes.count((n + 1, n + 1)) == len(slds_calls) + len(steps)
    assert supports == [(n + 1, n + 1)]


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
                    conv_rel_tol=1e-14, restarts=1, seed=3)
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
                    conv_rel_tol=1e-13, restarts=2, seed=1)
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
    other = optimize(IssConfig(restarts=3, seed=9, conv_rel_tol=0.5),
                     params, Scenario.TWO)
    np.testing.assert_array_equal(base.probe.coeffs, other.probe.coeffs)
    assert base.gap == other.gap


def test_two_mode_newton_steps_capped():
    res = optimize(IssConfig(max_iters=5), ChannelParams(0.0, 0.1, 30), Scenario.TWO)
    assert res.iterations == 5
    assert not res.converged
    assert res.gap > 1e-9


@pytest.mark.parametrize("n, eta", [(7, 0.3959953969941573), (4, 0.33032846355905116)])
def test_two_mode_certifies_where_barrier_steps_stall(n, eta):
    # at the last barrier weight every line-search step here fails on J
    # rounding while the gap is still about 2e-10; the polish step closes it
    res = optimize(IssConfig(), ChannelParams(0.0, eta, n), Scenario.TWO)
    assert res.converged
    assert res.gap <= 1e-10 * res.objective_trace[-1]
    assert np.all(np.diff(res.objective_trace) >= 0.0)


def test_single_mode_gap_is_nan():
    res = optimize(IssConfig(max_iters=5), ChannelParams(0.0, 0.4, 4), Scenario.SINGLE)
    assert np.isnan(res.gap)


@pytest.mark.parametrize("scenario", [Scenario.SINGLE, Scenario.TWO], ids=lambda s: s.value)
def test_optimize_rejects_nan_weight(scenario):
    for weights in ({"weight_phi": np.nan}, {"weight_eta": np.nan}):
        with pytest.raises(InvalidInput):
            optimize(IssConfig(**weights), ChannelParams(0.0, 0.5, 4), scenario)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60), eta=st.floats(0.01, 0.99),
       phi=st.floats(-math.pi, math.pi),
       weights=st.tuples(st.one_of(st.floats(0.1, 10.0), st.just(np.inf)),
                         st.one_of(st.floats(0.1, 10.0), st.just(np.inf))).filter(
           lambda w: not all(map(math.isinf, w))))
def test_single_mode_m_matches_loop_oracle_property(seed, n, eta, phi, weights):
    kraus = build_kraus(ChannelParams(phi, eta, n), Scenario.SINGLE)
    probe = FockProbe.random(Scenario.SINGLE, n, np.random.default_rng(seed))
    slds = channel_slds(probe, kraus)
    ref = single_mode_m_matrix(slds, kraus, weights)
    m_mat = build_m_matrix(probe, slds, kraus, weights)
    assert np.abs(m_mat - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("eta", [0.02, 0.98])
@pytest.mark.parametrize("n", [200, 500])
def test_single_mode_m_matches_loop_oracle_large_cutoff(n, eta):
    # M is linear in witness terms and exact for any Hermitian witnesses, so
    # random ones stand in for SLDs, whose eigendecomposition would dominate
    rng = np.random.default_rng(n)
    kraus = build_kraus(ChannelParams(0.3, eta, n), Scenario.SINGLE)
    probe = FockProbe.random(Scenario.SINGLE, n, rng)
    slds = [hermitianize(rng.standard_normal((n + 1, n + 1))
                         + 1j * rng.standard_normal((n + 1, n + 1))) for _ in range(2)]
    ref = single_mode_m_matrix(slds, kraus, (1.7, 0.9))
    m_mat = build_m_matrix(probe, slds, kraus, (1.7, 0.9))
    assert np.abs(m_mat - ref).max() <= 1e-10 * np.abs(ref).max()


def test_seesaw_checks_the_cutoff_before_any_step(monkeypatch):
    def refuse(n_max, eta):
        raise InvalidInput("no scale")

    def no_step(*args):
        raise AssertionError("see-saw step ran before the cutoff check")

    monkeypatch.setattr(iss, "_loss_factors", refuse)
    monkeypatch.setattr(iss, "channel_slds", no_step)
    with pytest.raises(InvalidInput, match="no scale"):
        optimize(IssConfig(), ChannelParams(0.0, 0.1, 6), Scenario.SINGLE)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seesaw_trajectory_matches_loop_oracle(seed, monkeypatch):
    # a tight window keeps each start running for 400-500 steps
    cfg, params = IssConfig(seed=seed, conv_rel_tol=1e-9), ChannelParams(0.0, 0.1, 20)
    res = optimize(cfg, params, Scenario.SINGLE)
    monkeypatch.setattr(iss, "build_m_matrix",
                        lambda probe, slds, kraus, weights: single_mode_m_matrix(
                            slds, kraus, weights))
    ref = optimize(cfg, params, Scenario.SINGLE)
    assert res.iterations == ref.iterations
    np.testing.assert_allclose(res.objective_trace, ref.objective_trace, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seesaw_without_extrapolation_matches_plain_loop(seed, monkeypatch):
    # beta = 0 makes every trial the top eigenvector itself
    monkeypatch.setattr(iss, "_EXTRAPOLATE", 0.0)
    cfg, params = IssConfig(seed=seed, conv_rel_tol=1e-9), ChannelParams(0.0, 0.1, 20)
    res = optimize(cfg, params, Scenario.SINGLE)
    lim = fundamental_limits(20, 0.1)
    coeffs, trace, converged = plain_seesaw(cfg, build_kraus(params, Scenario.SINGLE),
                                            (lim.f_phi_max_s12, lim.f_eta_max))
    assert res.iterations == len(trace)
    assert res.converged == converged
    np.testing.assert_allclose(res.objective_trace, trace, rtol=1e-10, atol=0.0)
    assert abs(np.vdot(coeffs, res.probe.coeffs)) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), eta=st.floats(0.05, 0.95),
       weights=st.tuples(st.one_of(st.floats(0.1, 10.0), st.just(np.inf)),
                         st.one_of(st.floats(0.1, 10.0), st.just(np.inf))).filter(
           lambda w: not all(map(math.isinf, w))))
def test_seesaw_trace_never_decreases(seed, n, eta, weights):
    # a refused trial falls back to the plain step, so J only rises; the
    # slack is eigh rounding, which moves the plain see-saw's trace as much
    cfg = IssConfig(weight_phi=weights[0], weight_eta=weights[1], max_iters=60,
                    conv_rel_tol=1e-14, seed=seed)
    trace = optimize(cfg, ChannelParams(0.0, eta, n), Scenario.SINGLE).objective_trace
    assert np.all(np.diff(trace) >= -1e-12 * np.maximum(1.0, np.abs(trace[1:])))


def test_seesaw_keeps_and_refuses_trials(monkeypatch):
    # every step after the first point solves one trial's SLDs, and every
    # refused trial one more for its fallback
    calls = []

    def counting_slds(*args):
        calls.append(args)
        return channel_slds(*args)

    monkeypatch.setattr(iss, "channel_slds", counting_slds)
    res = optimize(IssConfig(conv_rel_tol=1e-9), ChannelParams(0.0, 0.1, 20), Scenario.SINGLE)
    trials = res.iterations - 1
    refused = len(calls) - 1 - trials
    assert 0 < refused < trials


@pytest.mark.parametrize("seed", [3, 5])
def test_seesaw_starts_leave_the_plateau(seed):
    # without extrapolation these starts stop near 1.4929, 0.4% below the
    # value every start reaches in a long run
    cfg = IssConfig(conv_rel_tol=1e-5, seed=seed)
    res = optimize(cfg, ChannelParams(0.0, 0.1, 80), Scenario.SINGLE)
    assert res.objective_trace[-1] == pytest.approx(1.4989394, abs=1e-3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), eta=st.floats(0.05, 0.95))
def test_seesaw_trace_never_decreases_exactly(seed, n, eta):
    # the step's eigenvalue may round below the objective it bounds; the
    # trace keeps the larger value, as the two-mode solver's does
    cfg = IssConfig(max_iters=80, conv_rel_tol=1e-14, seed=seed)
    trace = optimize(cfg, ChannelParams(0.0, eta, n), Scenario.SINGLE).objective_trace
    assert np.all(np.diff(trace) >= 0)


def test_config_rejects_zero_iterations():
    with pytest.raises(InvalidInput, match="positive"):
        IssConfig(max_iters=0)
