import math

import numpy as np
import pytest

import phaseloss.channel
import phaseloss.measurement
from phaseloss.bounds import fundamental_limits
from phaseloss.channel import (ChannelParams, FockProbe, Scenario, apply_channel,
                               apply_channel_derivatives, build_kraus)
from phaseloss.errors import Unsupported
from phaseloss.gaussian import (EnergySplit, GaussianProbeSpec, ProbeFamily,
                                evolve_with_derivatives, make_probe,
                                spec_from_split)
from phaseloss.measurement import (DetectionScheme, SchemeKind, counting_moments,
                                   error_propagation, homodyne_moments,
                                   output_transform, scheme_incompatibility)

MID_FRINGE = math.pi / 2


def fock_output(probe, params):
    kraus = build_kraus(params, probe.scenario)
    rho = apply_channel(probe, kraus)
    dphi, deta = apply_channel_derivatives(probe, kraus)
    return rho, dphi, deta


def test_output_transform_identity():
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=0.7, r=0.3, theta1=0.2)
    ev = evolve_with_derivatives(make_probe(spec), ChannelParams(0.1, 0.6, 1), 1.0)
    out = output_transform(DetectionScheme(SchemeKind.COUNTING, tau_out=1.0), ev)
    np.testing.assert_allclose(out.sigma, ev.sigma, atol=1e-14)
    np.testing.assert_allclose(out.d, ev.d, atol=1e-14)


def test_output_transform_balanced_single_photon_block():
    probe = FockProbe.fock(Scenario.TWO, 1, 1)
    params = ChannelParams(0.0, 0.9, 1)
    rho, _, _ = fock_output(probe, params)
    mixed = output_transform(DetectionScheme(SchemeKind.COUNTING, tau_out=0.5), rho)
    # the surviving-photon block (one photon total) splits evenly
    populations = np.diag(mixed.blocks[0]).real
    np.testing.assert_allclose(populations / populations.sum(), [0.5, 0.5], atol=1e-12)


def test_output_transform_preserves_block_traces():
    rng = np.random.default_rng(0)
    probe = FockProbe.random(Scenario.TWO, 5, rng)
    rho, _, _ = fock_output(probe, ChannelParams(0.4, 0.5, 5))
    mixed = output_transform(DetectionScheme(SchemeKind.COUNTING, tau_out=0.23), rho)
    for before, after in zip(rho.blocks, mixed.blocks):
        assert np.trace(after).real == pytest.approx(np.trace(before).real, abs=1e-12)


def test_coherent_counting_statistics():
    alpha, eta = 1.5, 0.62
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=alpha)
    ev = evolve_with_derivatives(make_probe(spec), ChannelParams(0.0, eta, 1), 1.0)
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
    # one detection-splitter unitary per block, shared by rho and both derivatives
    totals = []
    sector = phaseloss.measurement.beamsplitter_sector

    def counting_sector(total, *args, **kwargs):
        totals.append(total)
        return sector(total, *args, **kwargs)

    monkeypatch.setattr(phaseloss.measurement, "beamsplitter_sector", counting_sector)
    n = 7
    probe = FockProbe.random(Scenario.TWO, n, np.random.default_rng(12))
    rho, dphi, deta = fock_output(probe, ChannelParams(0.4, 0.6, n))
    counting_moments(rho, DetectionScheme(SchemeKind.COUNTING, tau_out=0.4), dphi, deta)
    assert totals == [n - m for m in range(n + 1)]


def test_sector_eigenbasis_once_per_total(monkeypatch):
    # repeated readouts reuse each sector's eigenbasis: one eigh per total
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    phaseloss.channel._cached_sector_eigenbasis.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    n = 6
    probe = FockProbe.random(Scenario.TWO, n, np.random.default_rng(3))
    rho, dphi, deta = fock_output(probe, ChannelParams(0.4, 0.6, n))
    for tau in (0.25, 0.5, 0.25, 1.0):
        counting_moments(rho, DetectionScheme(SchemeKind.COUNTING, tau_out=tau), dphi, deta)
    assert sorted(calls) == [(t + 1, t + 1) for t in range(1, n + 1)]


def test_two_mode_squeezed_counting_loss_variance():
    nbar, eta = 420.0, 0.3
    r = math.asinh(math.sqrt(nbar / 2))
    spec = GaussianProbeSpec(ProbeFamily.TWO_MODE, r=r, chi=np.pi / 2)
    ev = evolve_with_derivatives(make_probe(spec), ChannelParams(0.0, eta, 1), 1.0)
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
    ev = evolve_with_derivatives(make_probe(spec), ChannelParams(MID_FRINGE, eta, 1), tau_in)
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
        ev = evolve_with_derivatives(make_probe(spec), ChannelParams(MID_FRINGE, eta, 1),
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
    ev = evolve_with_derivatives(make_probe(spec), ChannelParams(0.0, 0.5, 1), 1.0)
    moments = homodyne_moments(ev, DetectionScheme(SchemeKind.HOMODYNE, tau_out=0.8, xi=0.3))
    np.testing.assert_allclose(np.diag(moments.cov), [1.0, 1.0], atol=1e-12)


def test_homodyne_phase_derivative_formula():
    # coherent probe: the quadrature phase slope follows the rotated displacement
    alpha, mu, eta, tau_in, tau_out, xi = 1.2, 0.4, 0.55, 0.85, 0.9, 0.7
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=alpha, mu=mu, tau_in=tau_in)
    ev = evolve_with_derivatives(make_probe(spec), ChannelParams(0.0, eta, 1), tau_in)
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
    ev = evolve_with_derivatives(make_probe(spec), ChannelParams(MID_FRINGE, eta, 1), 1.0)
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
    from phaseloss.measurement import MomentSet
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
    from phaseloss.gaussian import gaussian_qfi
    rng = np.random.default_rng(4)
    split = EnergySplit(100.0, p=0.5, q=0.5)
    for theta1 in (0.0, np.pi / 3, np.pi):
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=0.0, theta=np.pi / 2,
                               theta1=theta1, theta2=0.0, chi=0.0, tau_in=split.tau_in())
        eta = float(rng.uniform(0.2, 0.8))
        state = make_probe(spec)
        rep = gaussian_qfi(state, ChannelParams(MID_FRINGE, eta, 1), split.tau_in(),
                           n_for_limits=split.n_total)
        lim = fundamental_limits(split.n_total, eta)
        ev = evolve_with_derivatives(state, ChannelParams(MID_FRINGE, eta, 1), split.tau_in())
        for tau_out in (0.3, 0.5, 1.0):
            moments = counting_moments(ev, DetectionScheme(SchemeKind.COUNTING,
                                                           tau_out=tau_out))
            var_phi, var_eta = error_propagation(moments)
            cost = lim.f_phi_max_s12 * var_phi + lim.f_eta_max * var_eta
            assert cost >= rep.c_s * (1 - 1e-8)


def test_half_photon_strategy_regression():
    # split strategy at n=20, eta=0.1: values pinned after the first verified
    # run; guards the shape of the counting tradeoff at desk scale
    from phaseloss.measurement import half_photon_counting
    lim = fundamental_limits(20.0, 0.1)
    var_phi, var_eta = half_photon_counting(20.0, 0.1, chi=0.0)
    assert var_phi * lim.f_phi_max_s12 == pytest.approx(15.177792, rel=1e-5)
    assert var_eta * lim.f_eta_max == pytest.approx(7.862809, rel=1e-5)
    var_phi, var_eta = half_photon_counting(20.0, 0.1, chi=np.pi / 2)
    assert var_phi * lim.f_phi_max_s12 == pytest.approx(31.672658, rel=1e-5)
    assert var_eta * lim.f_eta_max == pytest.approx(7.344617, rel=1e-5)


def test_half_photon_variances_decrease_with_energy():
    from phaseloss.measurement import half_photon_counting
    scaled = []
    for n in (20.0, 100.0, 1000.0):
        lim = fundamental_limits(n, 0.1)
        var_phi, var_eta = half_photon_counting(n, 0.1, chi=0.0)
        scaled.append((var_phi * lim.f_phi_max_s12, var_eta * lim.f_eta_max))
    assert scaled[0][0] > scaled[1][0] > scaled[2][0]
    assert scaled[0][1] > scaled[1][1] > scaled[2][1]
