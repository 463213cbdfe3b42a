import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phaseloss.channel
from conftest import block_loop_counting_oracle, fock_counting_oracle
from phaseloss.bounds import fundamental_limits
from phaseloss.channel import (BlockDensity, ChannelParams, ChannelPoints, FockProbe,
                               Scenario, apply_channel, apply_channel_derivatives,
                               build_kraus)
from phaseloss.errors import InvalidInput, Unsupported
from phaseloss.gaussian import (EnergySplit, GaussianProbeSpec, ProbeFamily,
                                evolve_with_derivatives, gaussian_qfi, make_probe,
                                spec_from_split)
from phaseloss.measurement import (DetectionScheme, MomentSet, SchemeKind,
                                   block_diagonals, counting_moments, error_propagation,
                                   half_photon_counting, homodyne_moments,
                                   output_transform, scheme_incompatibility)

MID_FRINGE = math.pi / 2


def fock_output(probe, params):
    kraus = build_kraus(params, probe.scenario)
    rho = apply_channel(probe, kraus)
    dphi, deta = apply_channel_derivatives(probe, kraus)
    return rho, dphi, deta


def test_output_transform_identity():
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=0.7, r=0.3, theta1=0.2)
    ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(0.1, 0.6), 1.0)
    out = output_transform(DetectionScheme(SchemeKind.COUNTING, tau_out=1.0), ev)
    np.testing.assert_allclose(out.sigma, ev.sigma, atol=1e-14)
    np.testing.assert_allclose(out.d, ev.d, atol=1e-14)


def test_output_transform_rejects_number_basis_blocks():
    scheme = DetectionScheme(SchemeKind.COUNTING, tau_out=0.5)
    for scenario in (Scenario.TWO, Scenario.SINGLE):
        rho, _, _ = fock_output(FockProbe.fock(scenario, 1, 1), ChannelParams(0.0, 0.9, 1))
        with pytest.raises(InvalidInput):
            output_transform(scheme, rho)


@pytest.mark.parametrize("xi", [np.nan, np.inf, [0.0, np.nan]], ids=repr)
def test_scheme_rejects_non_finite_xi(xi):
    with pytest.raises(InvalidInput):
        DetectionScheme(SchemeKind.HOMODYNE, xi=xi)


def test_coherent_counting_statistics():
    alpha, eta = 1.5, 0.62
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=alpha)
    ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(0.0, eta), 1.0)
    moments = counting_moments(ev, DetectionScheme(SchemeKind.COUNTING, tau_out=1.0))
    assert moments.means[0] == pytest.approx(eta * alpha ** 2, rel=1e-12)
    assert moments.cov[0, 0] == pytest.approx(eta * alpha ** 2, rel=1e-12)
    var_phi, var_eta = error_propagation(moments)
    assert var_eta == pytest.approx(eta / alpha ** 2, rel=1e-10)
    assert math.isinf(var_phi)   # counting carries no phase signal here


def test_fock_counting_variance():
    n, eta = 9, 0.35
    probe = FockProbe.fock(Scenario.SINGLE, n, n)
    rho, dphi, deta = fock_output(probe, ChannelParams(0.0, eta, n))
    moments = counting_moments(rho, DetectionScheme(SchemeKind.COUNTING, tau_out=1.0),
                               dphi, deta)
    assert moments.cov[0, 0] == pytest.approx(n * eta * (1 - eta), rel=1e-10)
    _, var_eta = error_propagation(moments)
    assert var_eta == pytest.approx(eta * (1 - eta) / n, rel=1e-10)
    assert var_eta == pytest.approx(1 / fundamental_limits(n, eta).f_eta_max, rel=1e-10)


def test_sector_unitaries_per_counting_call(monkeypatch):
    # number-basis counting reads block diagonals and builds no sector unitary
    totals = []
    sector = phaseloss.channel.beamsplitter_sector

    def counting_sector(total, *args, **kwargs):
        totals.append(total)
        return sector(total, *args, **kwargs)

    monkeypatch.setattr(phaseloss.channel, "beamsplitter_sector", counting_sector)
    n = 7
    probe = FockProbe.random(Scenario.TWO, n, np.random.default_rng(12))
    rho, dphi, deta = fock_output(probe, ChannelParams(0.4, 0.6, n))
    for tau in (0.0, 0.4, 1.0):
        counting_moments(rho, DetectionScheme(SchemeKind.COUNTING, tau_out=tau), dphi, deta)
    assert totals == []


def test_sector_eigenbasis_once_per_total(monkeypatch):
    # repeated readouts diagonalize no sector generator at all
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    n = 6
    probe = FockProbe.random(Scenario.TWO, n, np.random.default_rng(3))
    rho, dphi, deta = fock_output(probe, ChannelParams(0.4, 0.6, n))
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for tau in (0.25, 0.5, 0.25, 1.0):
        counting_moments(rho, DetectionScheme(SchemeKind.COUNTING, tau_out=tau), dphi, deta)
    assert calls == []


@pytest.mark.parametrize("scenario, n", [(Scenario.TWO, 1), (Scenario.TWO, 2),
                                         (Scenario.TWO, 7), (Scenario.TWO, 30),
                                         (Scenario.TWO, 100), (Scenario.SINGLE, 12)])
def test_fock_counting_matches_sector_rotation_oracle(scenario, n):
    rng = np.random.default_rng(n)
    probe = FockProbe.random(scenario, n, rng)
    params = ChannelParams(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.1, 0.9)), n)
    rho, dphi, deta = fock_output(probe, params)
    for tau in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0):
        moments = counting_moments(rho, DetectionScheme(SchemeKind.COUNTING, tau_out=tau),
                                   dphi, deta)
        oracle = fock_counting_oracle(rho, dphi, deta, tau)
        for got, want in zip((moments.means, moments.dphi, moments.deta, moments.cov),
                             oracle):
            scale = max(float(np.abs(want).max()), 1.0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), eta=st.floats(0.01, 0.99),
       tau=st.floats(0.0, 1.0))
@example(seed=0, n=1, eta=0.5, tau=0.3)       # no block has a second diagonal
def test_counting_kernel_matches_block_loop_through_both_feeders(seed, n, eta, tau):
    rng = np.random.default_rng(seed)
    probe = FockProbe.random(Scenario.TWO, n, rng)
    params = ChannelParams(float(rng.uniform(-math.pi, math.pi)), eta, n)
    rho, dphi, deta = fock_output(probe, params)
    scheme = DetectionScheme(SchemeKind.COUNTING, tau_out=tau)
    want = block_loop_counting_oracle(rho, dphi, deta, tau)
    from_blocks = counting_moments(rho, scheme, dphi, deta)
    from_vectors = counting_moments(block_diagonals(probe, build_kraus(params, Scenario.TWO)),
                                    scheme)
    for moments in (from_blocks, from_vectors):
        for got, ref in zip((moments.means, moments.dphi, moments.deta, moments.cov), want):
            scale = max(float(np.abs(ref).max()), 1.0)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale)


def test_block_diagonals_need_two_mode_layout():
    probe = FockProbe.fock(Scenario.SINGLE, 1, 3)
    with pytest.raises(InvalidInput):
        block_diagonals(probe, build_kraus(ChannelParams(0.0, 0.5, 3), Scenario.SINGLE))


def test_number_basis_counting_needs_scalar_tau_out():
    scheme = DetectionScheme(SchemeKind.COUNTING, tau_out=np.array([0.2, 0.5]))
    probe = FockProbe.fock(Scenario.TWO, 1, 3)
    params = ChannelParams(0.0, 0.5, 3)
    with pytest.raises(InvalidInput, match="scalar"):
        counting_moments(block_diagonals(probe, build_kraus(params, Scenario.TWO)), scheme)
    rho, dphi, deta = fock_output(probe, params)
    with pytest.raises(InvalidInput, match="scalar"):
        counting_moments(rho, scheme, dphi, deta)


def test_fock_counting_rejects_mismatched_derivatives():
    scheme = DetectionScheme(SchemeKind.COUNTING, tau_out=0.5)
    rng = np.random.default_rng(4)
    rho, _, _ = fock_output(FockProbe.random(Scenario.TWO, 5, rng), ChannelParams(0.2, 0.6, 5))
    _, dphi3, deta3 = fock_output(FockProbe.random(Scenario.TWO, 3, rng),
                                  ChannelParams(0.2, 0.6, 3))
    _, dphi1, deta1 = fock_output(FockProbe.random(Scenario.SINGLE, 5, rng),
                                  ChannelParams(0.2, 0.6, 5))
    _, dphi5, deta5 = fock_output(FockProbe.random(Scenario.TWO, 5, rng),
                                  ChannelParams(0.2, 0.6, 5))
    reshaped = BlockDensity(Scenario.TWO, 5, [b[:-1, :-1] for b in dphi5.blocks[:-1]]
                            + [dphi5.blocks[-1]])
    for dphi, deta in ((dphi3, deta3), (dphi1, deta1), (dphi5, deta3), (reshaped, deta5)):
        with pytest.raises(InvalidInput):
            counting_moments(rho, scheme, dphi, deta)


def test_two_mode_squeezed_counting_loss_variance():
    nbar, eta = 420.0, 0.3
    r = math.asinh(math.sqrt(nbar / 2))
    spec = GaussianProbeSpec(ProbeFamily.TWO_MODE, r=r, chi=np.pi / 2)
    ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(0.0, eta), 1.0)
    moments = counting_moments(ev, DetectionScheme(SchemeKind.COUNTING, tau_out=1.0))
    _, var_eta = error_propagation(moments)
    assert var_eta == pytest.approx(2 * eta * (1 - eta) / nbar, rel=1e-10)


def test_displayed_counting_derivatives():
    # chi = 0 strong-displacement family at the mid-fringe operating point
    split = EnergySplit(900.0, p=0.5, q=0.5)
    tau_in = split.tau_in()
    spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=0.0, theta=np.pi / 2,
                           theta1=np.pi, theta2=0.0, chi=0.0, tau_in=tau_in)
    eta, tau_out = 0.37, 0.77
    ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(MID_FRINGE, eta), tau_in)
    moments = counting_moments(ev, DetectionScheme(SchemeKind.COUNTING, tau_out=tau_out))
    n_sq = math.sinh(spec.r) ** 2
    assert moments.dphi[0] == pytest.approx(0.0, abs=1e-9)
    assert abs(moments.dphi[1]) == pytest.approx(
        4 * math.sqrt(eta * tau_in * (1 - tau_in) * tau_out * (1 - tau_out)) * spec.n_alpha,
        rel=1e-10)
    assert moments.deta[0] == pytest.approx(tau_in * spec.n_alpha + n_sq, rel=1e-10)
    assert moments.deta[1] == pytest.approx((2 * tau_out - 1) * (tau_in * spec.n_alpha + n_sq),
                                            rel=1e-10)


def test_counting_tradeoff_argmins():
    nbar, eta = 400.0, 0.1
    split = EnergySplit(nbar, p=0.5, q=0.5)
    tau_in = split.tau_in()
    taus = np.arange(0.01, 1.0001, 0.01)

    def variance_curves(theta1):
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=0.0, theta=np.pi / 2,
                               theta1=theta1, theta2=0.0, chi=0.0, tau_in=tau_in)
        ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(MID_FRINGE, eta),
                                     tau_in)
        pairs = [error_propagation(counting_moments(
            ev, DetectionScheme(SchemeKind.COUNTING, tau_out=float(t)))) for t in taus]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

    var_phi, _ = variance_curves(np.pi)        # phase-friendly alignment
    assert taus[np.nanargmin(var_phi)] == pytest.approx(0.5, abs=0.011)
    _, var_eta = variance_curves(0.0)          # loss-friendly alignment
    assert taus[np.nanargmin(var_eta)] == pytest.approx(1.0, abs=0.011)


def test_homodyne_vacuum_noise():
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE)
    ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(0.0, 0.5), 1.0)
    moments = homodyne_moments(ev, DetectionScheme(SchemeKind.HOMODYNE, tau_out=0.8, xi=0.3))
    np.testing.assert_allclose(np.diag(moments.cov), [1.0, 1.0], atol=1e-12)


def test_homodyne_phase_derivative_formula():
    # coherent probe: the quadrature phase slope follows the rotated displacement
    alpha, mu, eta, tau_in, tau_out, xi = 1.2, 0.4, 0.55, 0.85, 0.9, 0.7
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=alpha, mu=mu, tau_in=tau_in)
    ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(0.0, eta), tau_in)
    moments = homodyne_moments(ev, DetectionScheme(SchemeKind.HOMODYNE, tau_out=tau_out, xi=xi))
    expected = -2 * math.sqrt(eta * tau_in * tau_out) * alpha * math.sin(mu - xi)
    assert moments.dphi[0] == pytest.approx(expected, rel=1e-10)


def test_homodyne_quadrature_tradeoff():
    # at mid-fringe, the phase-optimal quadrature sits at mu - xi in {0, pi}
    # and the loss-optimal one at mu - xi = +/- pi/2
    nbar, eta, mu = 2500.0, 0.2, 0.0
    split = EnergySplit(nbar, p=0.5, q=0.5)
    spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=mu, theta=np.pi / 2,
                           chi=np.pi / 2, tau_in=1.0)
    ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(MID_FRINGE, eta), 1.0)
    xis = np.arange(0.0, np.pi, 0.01)
    pairs = [error_propagation(homodyne_moments(
        ev, DetectionScheme(SchemeKind.HOMODYNE, tau_out=1.0, xi=float(x)))) for x in xis]
    var_phi = np.array([p[0] for p in pairs])
    var_eta = np.array([p[1] for p in pairs])
    best_phi = (mu - xis[np.nanargmin(var_phi)]) % np.pi
    best_eta = (mu - xis[np.nanargmin(var_eta)]) % np.pi
    assert min(best_phi, np.pi - best_phi) < 0.011
    assert abs(best_eta - np.pi / 2) < 0.011


def test_homodyne_rejects_number_basis_output():
    probe = FockProbe.fock(Scenario.TWO, 1, 2)
    rho, _, _ = fock_output(probe, ChannelParams(0.0, 0.5, 2))
    with pytest.raises(Unsupported):
        homodyne_moments(rho, DetectionScheme(SchemeKind.HOMODYNE))


def test_error_propagation_zero_signal_sentinel():
    moments = MomentSet(means=np.zeros(2), dphi=np.zeros(2), deta=np.array([1.0, 0.0]),
                        cov=np.diag([2.0, 3.0]))
    var_phi, var_eta = error_propagation(moments)
    assert math.isinf(var_phi)
    assert var_eta == pytest.approx(2.0)


def test_scheme_incompatibility_limits():
    lim = fundamental_limits(10.0, 0.5)
    c_s = 2.0
    # variances exactly at the weighted bound give zero
    var_phi = c_s / 2 / lim.f_phi_max_s12
    var_eta = c_s / 2 / lim.f_eta_max
    assert scheme_incompatibility(var_phi, var_eta, c_s, lim) == pytest.approx(0.0, abs=1e-12)
    assert scheme_incompatibility(math.inf, var_eta, c_s, lim) == 1.0


def test_classical_cost_respects_quantum_bound():
    # propagated weighted cost never beats the state's quantum bound
    rng = np.random.default_rng(4)
    split = EnergySplit(100.0, p=0.5, q=0.5)
    for theta1 in (0.0, np.pi / 3, np.pi):
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=0.0, theta=np.pi / 2,
                               theta1=theta1, theta2=0.0, chi=0.0, tau_in=split.tau_in())
        eta = float(rng.uniform(0.2, 0.8))
        state = make_probe(spec)
        rep = gaussian_qfi(state, ChannelPoints(MID_FRINGE, eta), split.tau_in(),
                           w=np.array(fundamental_limits(split.n_total, eta).weights()))
        lim = fundamental_limits(split.n_total, eta)
        ev = evolve_with_derivatives(state, ChannelPoints(MID_FRINGE, eta), split.tau_in())
        for tau_out in (0.3, 0.5, 1.0):
            moments = counting_moments(ev, DetectionScheme(SchemeKind.COUNTING,
                                                           tau_out=tau_out))
            var_phi, var_eta = error_propagation(moments)
            cost = lim.f_phi_max_s12 * var_phi + lim.f_eta_max * var_eta
            assert cost >= rep.c_s * (1 - 1e-8)


def test_half_photon_strategy_regression():
    # split strategy at n=20, eta=0.1: values pinned after the first verified
    # run; guards the shape of the counting tradeoff at desk scale
    lim = fundamental_limits(20.0, 0.1)
    var_phi, var_eta = half_photon_counting(20.0, 0.1, chi=0.0)
    assert var_phi * lim.f_phi_max_s12 == pytest.approx(15.177792, rel=1e-5)
    assert var_eta * lim.f_eta_max == pytest.approx(7.862809, rel=1e-5)
    var_phi, var_eta = half_photon_counting(20.0, 0.1, chi=np.pi / 2)
    assert var_phi * lim.f_phi_max_s12 == pytest.approx(31.672658, rel=1e-5)
    assert var_eta * lim.f_eta_max == pytest.approx(7.344617, rel=1e-5)


def test_half_photon_variances_decrease_with_energy():
    scaled = []
    for n in (20.0, 100.0, 1000.0):
        lim = fundamental_limits(n, 0.1)
        var_phi, var_eta = half_photon_counting(n, 0.1, chi=0.0)
        scaled.append((var_phi * lim.f_phi_max_s12, var_eta * lim.f_eta_max))
    assert scaled[0][0] > scaled[1][0] > scaled[2][0]
    assert scaled[0][1] > scaled[1][1] > scaled[2][1]


def test_moments_reject_a_scheme_of_the_other_kind():
    spec = GaussianProbeSpec(ProbeFamily.TWO_MODE, alpha=1.0, r=0.3, chi=np.pi / 2)
    ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(0.4, 0.6), 1.0)
    with pytest.raises(InvalidInput, match="counting scheme"):
        counting_moments(ev, DetectionScheme(SchemeKind.HOMODYNE, tau_out=0.5, xi=0.3))
    with pytest.raises(InvalidInput, match="homodyne scheme"):
        homodyne_moments(ev, DetectionScheme(SchemeKind.COUNTING, tau_out=0.5))


def test_detection_inputs_are_validated():
    counting = DetectionScheme(SchemeKind.COUNTING, tau_out=0.5)
    with pytest.raises(InvalidInput, match="tau_out"):
        DetectionScheme(SchemeKind.COUNTING, tau_out=1.5)
    rho, _, _ = fock_output(FockProbe.fock(Scenario.SINGLE, 1, 3), ChannelParams(0.0, 0.5, 3))
    with pytest.raises(InvalidInput, match="derivative densities"):
        counting_moments(rho, counting)
    with pytest.raises(InvalidInput, match="object"):
        counting_moments(object(), counting)
    with pytest.raises(InvalidInput, match="object"):
        homodyne_moments(object(), DetectionScheme(SchemeKind.HOMODYNE))


def test_stacked_scheme_names_its_first_bad_point():
    with pytest.raises(InvalidInput, match="tau_out"):
        DetectionScheme(SchemeKind.COUNTING, tau_out=np.array([0.5, 1.0, -0.1, 1.5]))
    with pytest.raises(InvalidInput, match="xi"):
        DetectionScheme(SchemeKind.HOMODYNE, tau_out=np.full(3, 0.5),
                        xi=np.array([0.0, np.nan, np.inf]))
    with pytest.raises(InvalidInput, match="tau_out"):
        DetectionScheme(SchemeKind.COUNTING, tau_out=1.5)
