import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dense, dense_qfi, hcrb_upper_oracle, kraus_sum_output,
                      pure_state_phase_qfi, random_two_mode_spec)
from phaseloss.bounds import fundamental_limits
from phaseloss.channel import (BlockDensity, ChannelParams, ChannelPoints, FockProbe,
                               Scenario, apply_channel, apply_channel_derivatives,
                               build_kraus, probe_statistics)
from phaseloss.errors import InvalidInput, InvalidState, SingularInformation
from phaseloss.gaussian import (GaussianProbeSpec, ProbeFamily, fock_truncation, gaussian_qfi,
                               grid_channel_output, make_probe, mix_modes)
from phaseloss.qfi import (QfiReport, channel_report, complete_report, hcrb_upper,
                           meas_quantifiers, probe_quantifier, pure_block_report,
                           qfi_matrix, scalar_crb)


def output_triple(probe, params):
    kraus = build_kraus(params, probe.scenario)
    rho = apply_channel(probe, kraus)
    dphi, deta = apply_channel_derivatives(probe, kraus)
    return rho, dphi, deta


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_fock_probe_reaches_loss_optimum(eta):
    n = 11
    rep = channel_report(FockProbe.fock(Scenario.SINGLE, n, n),
                         ChannelParams(0.0, eta, n))
    assert rep.f[1, 1] == pytest.approx(n / (eta * (1 - eta)), rel=1e-10)
    assert abs(rep.f[0, 0]) < 1e-10
    assert abs(rep.f[0, 1]) < 1e-10


def test_lossless_limit_matches_pure_state_formula():
    rng = np.random.default_rng(0)
    probe = FockProbe.random(Scenario.SINGLE, 6, rng)
    rep = channel_report(probe, ChannelParams(0.4, 1 - 1e-9, 6))
    assert rep.f[0, 0] == pytest.approx(pure_state_phase_qfi(probe.coeffs), rel=1e-6)


def test_noon_probe_phase_information():
    n = 8
    coeffs = np.zeros(n + 1)
    coeffs[0] = coeffs[n] = 1 / np.sqrt(2)
    rep = channel_report(FockProbe(Scenario.SINGLE, coeffs),
                         ChannelParams(0.0, 1 - 1e-9, n))
    assert rep.f[0, 0] == pytest.approx(n ** 2, rel=1e-6)


def test_commutator_identity_random_two_mode_probes():
    # i_phieta = +i F_phiphi / (2 eta) for every fixed-total-photon probe
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        eta = float(rng.choice([0.1, 0.5, 0.9]))
        probe = FockProbe.random(Scenario.TWO, n, rng)
        rho, dphi, deta = output_triple(probe, ChannelParams(float(rng.uniform(0, 6)), eta, n))
        rep = qfi_matrix(rho, dphi, deta)
        assert abs(rep.i_phieta.real) < 1e-10
        assert abs(rep.i_phieta - 1j * rep.f[0, 0] / (2 * eta)) < 1e-8 * max(1.0, rep.f[0, 0])


def test_analytic_and_eigen_paths_agree():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        probe = FockProbe.random(Scenario.TWO, n, rng)
        params = ChannelParams(0.3, float(rng.uniform(0.1, 0.9)), n)
        rho, dphi, deta = output_triple(probe, params)
        rep_a = pure_block_report(probe, build_kraus(params, Scenario.TWO))
        rep_e = qfi_matrix(rho, dphi, deta, method="eigen")
        np.testing.assert_allclose(rep_a.f, rep_e.f, atol=1e-8 * max(1.0, np.abs(rep_e.f).max()))
        assert abs(rep_a.i_phieta - rep_e.i_phieta) < 1e-8 * max(1.0, abs(rep_e.i_phieta))


def test_qfi_matches_dense_reference():
    rng = np.random.default_rng(3)
    probe = FockProbe.random(Scenario.TWO, 6, rng)
    rho, dphi, deta = output_triple(probe, ChannelParams(0.8, 0.35, 6))
    rep = qfi_matrix(rho, dphi, deta)
    f_ref, i_ref = dense_qfi(dense(rho), dense(dphi), dense(deta))
    np.testing.assert_allclose(rep.f, f_ref, atol=1e-9 * max(1.0, np.abs(f_ref).max()))
    assert abs(rep.i_phieta - i_ref) < 1e-9 * max(1.0, abs(i_ref))


@pytest.mark.parametrize("n, fock", [(1, False), (8, False), (40, False), (80, False),
                                     (40, True)])
def test_single_mode_eigen_qfi_matches_dense_oracle(n, fock):
    rng = np.random.default_rng(n)
    probe = (FockProbe.fock(Scenario.SINGLE, n // 2, n) if fock
             else FockProbe.random(Scenario.SINGLE, n, rng))
    rho, dphi, deta = output_triple(probe, ChannelParams(0.9, 0.41, n))
    rep = qfi_matrix(rho, dphi, deta, method="eigen")
    f_ref, i_ref = dense_qfi(rho.blocks[0], dphi.blocks[0], deta.blocks[0])
    assert np.abs(rep.f - f_ref).max() <= 1e-12 * np.abs(f_ref).max()
    assert abs(rep.i_phieta - i_ref) <= 1e-12 * np.abs(f_ref).max()
    kraus = build_kraus(ChannelParams(0.9, 0.41, n), Scenario.SINGLE)
    f_kraus, _ = dense_qfi(*(kraus_sum_output(probe, kraus, w) for w in (None, "phi", "eta")))
    assert np.abs(rep.f - f_kraus).max() <= 1e-10 * np.abs(f_kraus).max()


def test_qfi_matrix_rejects_mismatched_layouts():
    rng = np.random.default_rng(6)
    state = output_triple(FockProbe.random(Scenario.TWO, 5, rng), ChannelParams(0.3, 0.5, 5))
    small = output_triple(FockProbe.random(Scenario.TWO, 3, rng), ChannelParams(0.3, 0.5, 3))
    single = output_triple(FockProbe.random(Scenario.SINGLE, 5, rng), ChannelParams(0.3, 0.5, 5))
    rho, dphi, deta = state
    reshaped = BlockDensity(Scenario.TWO, 5, [b[:-1, :-1] for b in deta.blocks[:-1]]
                            + [deta.blocks[-1]])
    with pytest.raises(InvalidInput):
        qfi_matrix(rho, small[1], small[2])                        # N=5 state, N=3 derivatives
    with pytest.raises(InvalidInput):
        qfi_matrix(rho, dphi, reshaped)                            # same count, other shapes
    with pytest.raises(InvalidInput):
        qfi_matrix(single[0], dphi, deta)                          # scenarios disagree


def test_pure_block_report_path():
    rng = np.random.default_rng(4)
    probe = FockProbe.random(Scenario.TWO, 7, rng)
    params = ChannelParams(0.2, 0.6, 7)
    rep_v = pure_block_report(probe, build_kraus(params, Scenario.TWO))
    rho, dphi, deta = output_triple(probe, params)
    rep_d = qfi_matrix(rho, dphi, deta)
    np.testing.assert_allclose(rep_v.f, rep_d.f, atol=1e-10 * max(1.0, np.abs(rep_d.f).max()))
    assert abs(rep_v.i_phieta - rep_d.i_phieta) < 1e-12 * max(1.0, abs(rep_d.i_phieta))


@pytest.mark.parametrize("n", [7, 40, 120])
def test_two_mode_channel_report_matches_dense_routes(n):
    rng = np.random.default_rng(n)
    probe = FockProbe.random(Scenario.TWO, n, rng)
    params = ChannelParams(0.6, 0.1 + 0.8 * rng.random(), n)
    rep = channel_report(probe, params)
    rho, dphi, deta = output_triple(probe, params)
    ref = qfi_matrix(rho, dphi, deta)
    np.testing.assert_allclose(rep.f, ref.f, rtol=0, atol=1e-10 * np.abs(ref.f).max())
    assert abs(rep.i_phieta - ref.i_phieta) <= 1e-10 * abs(ref.i_phieta)


def test_scalar_crb_values():
    assert scalar_crb(np.diag([4.0, 9.0]), np.eye(2)) == pytest.approx(1 / 4 + 1 / 9)
    assert scalar_crb(np.diag([3.0, 7.0]), np.diag([3.0, 7.0])) == pytest.approx(2.0)


def test_scalar_crb_off_diagonal_exceeds_diagonal_value():
    f11, f22 = 4.0, 9.0
    f = np.array([[f11, 0.5 * np.sqrt(f11 * f22)], [0.5 * np.sqrt(f11 * f22), f22]])
    assert scalar_crb(f, np.eye(2)) > 1 / f11 + 1 / f22


def test_scalar_crb_singular_reports_direction():
    with pytest.raises(SingularInformation) as err:
        scalar_crb(np.diag([1.0, 0.0]), np.eye(2))
    direction = err.value.direction
    np.testing.assert_allclose(np.abs(direction), [0.0, 1.0], atol=1e-12)


def test_scalar_crb_channel_optima_are_not_singular():
    # F_eta_max / F_phi_max = 1 / (4 eta^2): 2.5e13 at eta = 1e-7, yet the
    # optima form a diagonal, perfectly conditioned information matrix
    f = np.array(fundamental_limits(10, 1e-7).weights())
    assert scalar_crb(f, f) == pytest.approx(2.0, rel=1e-12)
    assert hcrb_upper(f, 0.0, f) == pytest.approx(2.0, rel=1e-12)
    rho = 0.5
    off = rho * np.sqrt(f[0, 0] * f[1, 1])
    correlated = f + np.array([[0.0, off], [off, 0.0]])
    assert scalar_crb(correlated, f) == pytest.approx(2.0 / (1 - rho ** 2), rel=1e-12)


def test_scalar_crb_rescaled_stack_names_the_singular_point():
    # a well-conditioned point on disparate scales, then a degenerate one
    good = np.array(fundamental_limits(10, 1e-7).weights())
    tied = np.array([[1.0, 1e6], [1e6, 1e12]])         # rank 1 on disparate scales
    with pytest.raises(SingularInformation) as err:
        scalar_crb(np.stack([good, good, tied]), np.eye(2))
    np.testing.assert_allclose(np.abs(err.value.direction),
                               np.array([1e6, 1.0]) / np.hypot(1e6, 1.0), atol=1e-12)


def test_hcrb_upper_compatible_model():
    f = np.diag([5.0, 2.0])
    w = np.diag([1.0, 3.0])
    assert hcrb_upper(f, 0.0, w) == pytest.approx(scalar_crb(f, w))


def test_hcrb_upper_chain_of_inequalities():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        eta = float(rng.uniform(0.1, 0.9))
        probe = FockProbe.random(Scenario.TWO, n, rng)
        rep = channel_report(probe, ChannelParams(0.0, eta, n))
        assert np.linalg.eigvalsh(rep.f).min() >= -1e-8 * np.abs(rep.f).max()
        assert abs(rep.i_phieta.real) < 1e-10
        assert rep.c_s <= rep.c_h_bar <= 2 * rep.c_s + 1e-9 * rep.c_s
        ratio = meas_quantifiers(rep)
        assert 0.0 < ratio <= 1.0 + 1e-12


def random_bound_inputs(rng, count):
    """Stacks (F, i_phieta, W): F positive definite with condition number up
    to 1e4, |i_phieta| up to sqrt(det F), and W full-rank, diagonal with an
    exact zero (singular) or zero."""
    q = np.linalg.qr(rng.normal(size=(count, 2, 2)))[0]
    evals = np.exp(rng.uniform(-6, 6, (count, 1))) * np.ones((count, 2))
    evals[:, 1] *= 10.0 ** rng.uniform(0, 4, count)
    f = (q * evals[:, None, :]) @ q.swapaxes(-1, -2)
    f = (f + f.swapaxes(-1, -2)) / 2
    i_phieta = 1j * rng.uniform(-1, 1, count) * np.sqrt(np.linalg.det(f))
    a = rng.normal(size=(count, 2, 2))
    w = a @ a.swapaxes(-1, -2)
    kind = rng.integers(0, 3, count)
    singular = np.nonzero(kind == 1)[0]
    w[singular] = 0.0
    zero_at = rng.integers(0, 2, len(singular))
    w[singular, 1 - zero_at, 1 - zero_at] = rng.uniform(0, 5, len(singular))
    w[kind == 2] = 0.0
    return f, i_phieta, w


def test_hcrb_upper_closed_form_matches_sqrtm_svd_oracle():
    f, i_phieta, w = random_bound_inputs(np.random.default_rng(11), 3000)
    ref = hcrb_upper_oracle(f, i_phieta, w)
    np.testing.assert_allclose(hcrb_upper(f, i_phieta, w), ref, rtol=1e-12)
    for k in range(0, 3000, 97):
        assert hcrb_upper(f[k], i_phieta[k], w[k]) == pytest.approx(ref[k], rel=1e-12)


def test_hcrb_upper_rejects_non_psd_weights():
    f, w = np.array([[4.0, 1.0], [1.0, 9.0]]), np.diag([1.0, -0.1])
    with pytest.raises(InvalidInput):
        hcrb_upper(f, 0.5j, w)
    with pytest.raises(InvalidInput):
        complete_report(QfiReport(f=f, i_phieta=0.5j), w)
    assert scalar_crb(f, w) == pytest.approx(np.trace(w @ np.linalg.inv(f)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), eta=st.floats(0.03, 0.97))
def test_two_mode_penalty_is_eta_optimum_over_f_etaeta(seed, n, eta):
    # i_phieta = i F_phiphi / (2 eta) and diagonal F give a penalty of
    # sqrt(F_phi_max F_eta_max) / (2 eta F_etaeta) = F_eta_max / F_etaeta
    rng = np.random.default_rng(seed)
    probe = FockProbe.random(Scenario.TWO, n, rng)
    rep = channel_report(probe, ChannelParams(float(rng.uniform(-np.pi, np.pi)), eta, n))
    assert rep.c_s <= rep.c_h_bar <= 2 * rep.c_s
    penalty = fundamental_limits(n, eta).f_eta_max / rep.f[1, 1]
    assert rep.c_h_bar - rep.c_s == pytest.approx(penalty, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), eta=st.floats(0.03, 0.97))
def test_gaussian_cost_chain_at_default_weights(seed, eta):
    rng = np.random.default_rng(seed)
    spec = random_two_mode_spec(rng)
    w = np.array(fundamental_limits(spec.n_total, eta).weights())
    rep = gaussian_qfi(make_probe(spec), ChannelPoints(float(rng.uniform(0, 2 * np.pi)), eta),
                       spec.tau_in, w=w)
    assert rep.c_s <= rep.c_h_bar <= 2 * rep.c_s * (1 + 1e-9)


def test_probe_quantifier_values_and_bound():
    n, eta = 9, 0.4
    lim = fundamental_limits(n, eta)
    rep = channel_report(FockProbe.fock(Scenario.SINGLE, n, n), ChannelParams(0.0, eta, n))
    val = probe_quantifier(rep.f, lim.f_phi_max_s12, lim.f_eta_max)
    assert val == pytest.approx(0.5, rel=1e-10)
    hypothetical = np.diag([lim.f_phi_max_s12, lim.f_eta_max])
    assert probe_quantifier(hypothetical, lim.f_phi_max_s12, lim.f_eta_max) == pytest.approx(1.0)


def test_probe_quantifier_never_exceeds_one():
    rng = np.random.default_rng(6)
    for _ in range(150):
        n = int(rng.integers(1, 13))
        eta = float(rng.uniform(0.1, 0.9))
        probe = FockProbe.random(Scenario.TWO, n, rng)
        rep = channel_report(probe, ChannelParams(0.1, eta, n))
        lim = fundamental_limits(n, eta)
        assert probe_quantifier(rep.f, lim.f_phi_max_s12, lim.f_eta_max) <= 1 + 1e-6


def test_meas_quantifiers_trivial():
    rep = complete_report(QfiReport(f=np.diag([2.0, 3.0]), i_phieta=0.0), np.eye(2))
    assert meas_quantifiers(rep) == pytest.approx(1.0)


def test_qfi_matrix_rejects_methods_other_than_eigen():
    rng = np.random.default_rng(7)
    for scenario in (Scenario.SINGLE, Scenario.TWO):
        probe = FockProbe.random(scenario, 4, rng)
        rho, dphi, deta = output_triple(probe, ChannelParams(0.0, 0.5, 4))
        for method in ("analytic", "auto", "dense"):
            with pytest.raises(InvalidInput):
                qfi_matrix(rho, dphi, deta, method=method)


@pytest.mark.parametrize("f", [np.array([[4.0, 1.0], [1.0, 9.0]]),
                               np.stack([np.diag([4.0, 9.0]), np.diag([2.0, 3.0]),
                                         np.array([[5.0, -1.0], [-1.0, 2.0]])])],
                         ids=["point", "stack"])
def test_inv_calls_per_complete_report(monkeypatch, f):
    # C_S and C_H_bar share one inverse of F, for a point and for a stack
    calls = []
    inv = np.linalg.inv

    def counting_inv(a, *args, **kwargs):
        calls.append(np.shape(a))
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    i_phieta = 0.5j * np.ones(f.shape[:-2])
    rep = complete_report(QfiReport(f=f, i_phieta=i_phieta), np.diag([1.0, 2.0]))
    assert calls == [f.shape]
    c_s = scalar_crb(f, np.diag([1.0, 2.0]))
    np.testing.assert_array_equal(rep.c_s, c_s)
    np.testing.assert_array_equal(rep.c_h_bar, hcrb_upper(f, i_phieta, np.diag([1.0, 2.0])))
    assert np.all(rep.c_h_bar > rep.c_s)


def test_pure_block_report_rejects_single_mode():
    probe = FockProbe.random(Scenario.SINGLE, 4, np.random.default_rng(8))
    with pytest.raises(InvalidInput):
        pure_block_report(probe, build_kraus(ChannelParams(0.0, 0.5, 4), Scenario.SINGLE))


def single_block(mat):
    return BlockDensity(Scenario.SINGLE, mat.shape[0] - 1, [mat])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 40), data=st.data())
def test_qfi_matrix_on_low_rank_states_matches_dense(seed, dim, data):
    # rho = A A' / Tr with derivatives X A' + A X': every derivative lives on
    # the support and the support-kernel blocks, none on the kernel-kernel one
    rank = data.draw(st.integers(1, dim), label="rank")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    a = np.linalg.qr(gauss)[0] * rng.uniform(0.2, 1.0, rank)
    norm = np.sum(np.abs(a) ** 2)
    rho = a @ a.conj().T / norm
    derivs = []
    for _ in range(2):
        x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        derivs.append((x @ a.conj().T + a @ x.conj().T) / norm)
    rep = qfi_matrix(*map(single_block, (rho, *derivs)))
    f_ref, i_ref = dense_qfi(rho, *derivs)
    scale = np.abs(f_ref).max()
    np.testing.assert_allclose(rep.f, f_ref, rtol=0.0, atol=1e-9 * scale)
    assert abs(rep.i_phieta - i_ref) <= 1e-9 * scale


# Low-energy Gaussian probes whose truncated two-mode grids stay at or below
# 250 number states: (family, n_alpha, n_r, theta1, theta2, chi, tau_in, phi, eta)
GRID_PROBES = (
    ("single", 1.0, 0.2, 1.0, 0.0, 0.0, 1.0, 0.4, 0.3),
    ("single", 2.5, 0.3, 2.0, 0.0, 0.0, 1.0, 2.1, 0.7),
    ("single", 0.5, 0.1, 1.0, 0.0, 0.0, 0.7, 5.0, 0.5),
    ("two", 1.0, 0.3, 1.0, 2.0, math.pi / 2, 1.0, 1.3, 0.6),
    ("two", 0.5, 0.1, 1.0, 2.0, 0.0, 0.6, 3.5, 0.2),
    ("two", 0.2, 0.1, 1.0, 2.0, math.pi / 2, 0.9, 0.8, 0.85),
)


@pytest.mark.parametrize("probe", GRID_PROBES, ids=lambda p: f"{p[0]}-{p[1]}-{p[6]}")
def test_qfi_matrix_on_gaussian_grid_outputs(probe):
    family, n_alpha, n_r, theta1, theta2, chi, tau_in, phi, eta = probe
    fam = ProbeFamily.SINGLE_MODE if family == "single" else ProbeFamily.TWO_MODE
    per_squeezer = n_r if family == "single" else n_r / 2.0
    spec = GaussianProbeSpec(fam, alpha=math.sqrt(n_alpha), mu=0.3,
                             r=math.asinh(math.sqrt(per_squeezer)),
                             theta=(theta1 + theta2 - math.pi) / 2.0, theta1=theta1,
                             theta2=theta2, chi=chi, tau_in=tau_in)
    params = ChannelPoints(phi, eta)
    grid = mix_modes(fock_truncation(spec), tau_in)
    assert grid.size <= 250
    rho, dphi, deta = grid_channel_output(grid, params)
    rep = qfi_matrix(*map(single_block, (rho, dphi, deta)))
    f_ref, i_ref = dense_qfi(rho, dphi, deta)
    scale = np.abs(f_ref).max()
    np.testing.assert_allclose(rep.f, f_ref, rtol=0.0, atol=1e-9 * scale)
    assert abs(rep.i_phieta - i_ref) <= 1e-9 * scale
    f_cov = gaussian_qfi(make_probe(spec), params, tau_in).f
    np.testing.assert_allclose(rep.f, f_cov, rtol=0.0, atol=1e-6 * np.abs(f_cov).max())


def test_qfi_matrix_rejects_indefinite_and_non_finite_blocks():
    zero = np.zeros((2, 2))
    with pytest.raises(InvalidState):
        qfi_matrix(*map(single_block, (np.array([[0.5, 0.6], [0.6, 0.5]]), zero, zero)))
    with pytest.raises(InvalidInput):
        qfi_matrix(*map(single_block, (np.array([[0.5, np.nan], [np.nan, 0.5]]), zero, zero)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), eta=st.floats(0.05, 0.95))
def test_two_mode_information_dominates_single_mode(seed, n, eta):
    # projecting the reference mode onto Fourier states turns the two-mode
    # output into equal-weight phase-rotated copies of the single-mode one,
    # a processing that cannot raise the information: F_two - F_single >= 0
    rng = np.random.default_rng(seed)
    coeffs = FockProbe.random(Scenario.SINGLE, n, rng).coeffs
    params = ChannelParams(float(rng.uniform(-np.pi, np.pi)), eta, n)
    f_single = channel_report(FockProbe(Scenario.SINGLE, coeffs), params).f
    f_two = channel_report(FockProbe(Scenario.TWO, coeffs), params).f
    assert np.linalg.eigvalsh(f_two - f_single).min() >= -1e-10 * np.abs(f_two).max()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), eta=st.floats(0.05, 0.95))
def test_single_mode_information_within_channel_bounds(seed, n, eta):
    # at mean photon number nbar: F_phiphi <= 4 eta nbar / (1 - eta) and
    # F_etaeta <= nbar / (eta (1 - eta)), the second attained by Fock states
    rng = np.random.default_rng(seed)
    params = ChannelParams(float(rng.uniform(-np.pi, np.pi)), eta, n)
    probe = FockProbe.random(Scenario.SINGLE, n, rng)
    nbar = probe_statistics(probe)[0]
    f = channel_report(probe, params).f
    assert f[0, 0] <= 4 * eta * nbar / (1 - eta) * (1 + 1e-10)
    assert f[1, 1] <= nbar / (eta * (1 - eta)) * (1 + 1e-10)
    k = int(rng.integers(0, n + 1))
    f_fock = channel_report(FockProbe.fock(Scenario.SINGLE, k, n), params).f
    assert f_fock[1, 1] == pytest.approx(k / (eta * (1 - eta)), rel=1e-10, abs=1e-12)


def test_quantifier_inputs_are_validated():
    rho, dphi, deta = output_triple(FockProbe.fock(Scenario.SINGLE, 2, 3),
                                    ChannelParams(0.0, 0.5, 3))
    heavy = BlockDensity(Scenario.SINGLE, 3, [1.1 * b for b in rho.blocks])
    with pytest.raises(InvalidState, match="trace"):
        qfi_matrix(heavy, dphi, deta)
    with pytest.raises(InvalidInput, match="positive"):
        probe_quantifier(np.eye(2), 0.0, 1.0)
    with pytest.warns(RuntimeWarning, match="exceeds 1"):
        assert probe_quantifier(np.diag([3.0, 3.0]), 1.0, 1.0) == 3.0
    with pytest.raises(InvalidInput, match="complete_report"):
        meas_quantifiers(QfiReport(f=np.eye(2), i_phieta=0j))
