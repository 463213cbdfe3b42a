import math

import numpy as np
import pytest

from conftest import (fock_oracle_qfi, grid_channel_output_oracle, grid_moments,
                      random_two_mode_spec, single_mode_phase_qfi)
from phaseloss.bounds import fundamental_limits
from phaseloss.channel import (ChannelParams, ChannelPoints, FockProbe, Scenario,
                               apply_channel, apply_channel_derivatives, build_kraus)
from phaseloss.errors import InvalidInput
from phaseloss import gaussian
from phaseloss.gaussian import (EnergySplit, GaussianProbeSpec, GaussianState,
                                ProbeFamily, Regime,
                                asymptotic_limits, correlation_single_mode,
                                correlation_two_mode_chi0,
                                correlation_two_mode_cross, evolve,
                                evolve_with_derivatives, fock_truncation,
                                gaussian_qfi, grid_channel_output, make_probe,
                                mix_modes, mode_unitary,
                                photon_moments, spec_from_split)


def test_vacuum_probe():
    state = make_probe(GaussianProbeSpec(ProbeFamily.SINGLE_MODE))
    np.testing.assert_allclose(state.sigma, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(state.d, np.zeros(4), atol=1e-15)


def test_single_mode_probe_matrix_entries():
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=0.9, mu=0.4, r=0.7, theta1=1.2)
    state = make_probe(spec)
    c2r, s2r = math.cosh(1.4), math.sinh(1.4)
    assert state.sigma[0, 0] == pytest.approx(c2r)
    assert state.sigma[2, 2] == pytest.approx(c2r)
    assert state.sigma[1, 1] == pytest.approx(1.0)
    assert state.sigma[0, 2] == pytest.approx(-s2r * np.exp(1.2j))
    assert state.sigma[2, 0] == pytest.approx(np.conj(state.sigma[0, 2]))
    assert state.d[0] == pytest.approx(0.9 * np.exp(0.4j))


def test_two_mode_probe_cross_squeezing_structure():
    spec = GaussianProbeSpec(ProbeFamily.TWO_MODE, r=0.5, chi=np.pi / 2, theta=0.7)
    state = make_probe(spec)
    s2r = math.sinh(1.0)
    assert state.sigma[0, 2] == pytest.approx(0.0)
    assert state.sigma[0, 3] == pytest.approx(-s2r * np.exp(0.7j))
    assert state.sigma[1, 2] == pytest.approx(-s2r * np.exp(0.7j))
    assert state.physicality() > -1e-9


def test_probe_covariance_matches_number_basis_construction():
    rng = np.random.default_rng(0)
    for _ in range(6):
        spec = random_two_mode_spec(rng)
        state = make_probe(spec)
        sigma, d = grid_moments(fock_truncation(spec))
        np.testing.assert_allclose(sigma, state.sigma, atol=2e-8)
        np.testing.assert_allclose(d, state.d, atol=1e-8)


def test_unmatched_phases_rejected():
    with pytest.raises(InvalidInput):
        make_probe(GaussianProbeSpec(ProbeFamily.TWO_MODE, r=0.8, chi=np.pi / 4,
                                     theta=0.0, theta1=0.0, theta2=0.0))


@pytest.mark.parametrize("field", ["alpha", "mu", "r", "theta", "theta1", "theta2", "chi"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
def test_spec_rejects_non_finite_parameters(field, value):
    with pytest.raises(InvalidInput):
        GaussianProbeSpec(ProbeFamily.TWO_MODE, **{field: value})


@pytest.mark.parametrize("n_total", [np.nan, np.inf], ids=repr)
def test_energy_split_rejects_non_finite_energy(n_total):
    with pytest.raises(InvalidInput):
        EnergySplit(n_total, p=0.5)


def test_evolve_unitary_case_preserves_spectrum():
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=0.5, r=0.6, theta1=0.3)
    state = make_probe(spec)
    out = evolve(state, ChannelPoints(0.8, 1 - 1e-14), 1.0)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(out.sigma)),
                               np.sort(np.linalg.eigvalsh(state.sigma)), atol=1e-9)


def test_evolve_vacuum_fixed_point():
    vac = make_probe(GaussianProbeSpec(ProbeFamily.SINGLE_MODE))
    out = evolve(vac, ChannelPoints(1.1, 0.3), 0.7)
    np.testing.assert_allclose(out.sigma, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(out.d, np.zeros(4), atol=1e-14)


def test_evolve_coherent_state():
    alpha, mu, phi, eta = 1.3, 0.2, 0.9, 0.6
    state = make_probe(GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=alpha, mu=mu))
    out = evolve(state, ChannelPoints(phi, eta), 1.0)
    np.testing.assert_allclose(out.sigma, np.eye(4), atol=1e-14)
    assert out.d[0] == pytest.approx(math.sqrt(eta) * alpha * np.exp(1j * (mu + phi)))


def test_evolve_physicality_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        spec = random_two_mode_spec(rng, n_total_max=6.0)
        state = make_probe(spec)
        eta = float(rng.uniform(0.02, 0.98))
        tau = float(rng.uniform(0.0, 1.0))
        out = evolve(state, ChannelPoints(float(rng.uniform(0, 6)), eta), tau)
        assert out.physicality() > -1e-9 * max(1.0, np.abs(out.sigma).max())


def test_evolve_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    spec = random_two_mode_spec(rng)
    state = make_probe(spec)
    phi, eta, tau, delta = 0.7, 0.45, 0.8, 1e-6
    ev = evolve_with_derivatives(state, ChannelPoints(phi, eta), tau)
    for which, dsig, dd in (("phi", ev.dsigma_phi, ev.dd_phi),
                            ("eta", ev.dsigma_eta, ev.dd_eta)):
        if which == "phi":
            hi = evolve(state, ChannelPoints(phi + delta, eta), tau)
            lo = evolve(state, ChannelPoints(phi - delta, eta), tau)
        else:
            hi = evolve(state, ChannelPoints(phi, eta + delta), tau)
            lo = evolve(state, ChannelPoints(phi, eta - delta), tau)
        np.testing.assert_allclose((hi.sigma - lo.sigma) / (2 * delta), dsig, atol=1e-6)
        np.testing.assert_allclose((hi.d - lo.d) / (2 * delta), dd, atol=1e-6)


def test_coherent_probe_qfi_closed_form():
    alpha, eta = 1.4, 0.55
    state = make_probe(GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=alpha, mu=0.3))
    rep = gaussian_qfi(state, ChannelPoints(0.2, eta), 1.0)
    assert rep.f[0, 0] == pytest.approx(4 * eta * alpha ** 2, rel=1e-10)
    assert rep.f[1, 1] == pytest.approx(alpha ** 2 / eta, rel=1e-10)
    assert abs(rep.f[0, 1]) < 1e-10


def test_cross_formalism_oracle_strict():
    # covariance-formalism information matrix against the number-basis route
    rng = np.random.default_rng(3)
    for _ in range(8):
        spec = random_two_mode_spec(rng)
        params = ChannelPoints(float(rng.uniform(0, 6)), float(rng.uniform(0.2, 0.9)))
        rep = gaussian_qfi(make_probe(spec), params, spec.tau_in)
        f_ref, i_ref = fock_oracle_qfi(spec, params)
        assert np.abs(rep.f - f_ref).max() < 1e-6 * np.abs(f_ref).max()
        # covariance-formalism commutator carries twice the blockwise value
        assert abs(rep.i_phieta - 2 * i_ref) < 1e-6 * max(1.0, abs(2 * i_ref))


def test_single_mode_phase_closed_form_matches_fock_oracle():
    # the closed form criterion 7 relies on, against the number-basis route
    for eta in (0.1, 0.5, 0.8):
        for alpha in (0.0, 0.5, 1.0, 1.5):
            for r in (0.0, 0.3, 0.6, 0.9):
                if alpha == 0.0 and r == 0.0:
                    continue  # vacuum: the grid has no photon to lose
                spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=alpha, r=r)
                f_ref, _ = fock_oracle_qfi(spec, ChannelPoints(0.0, eta))
                assert single_mode_phase_qfi(eta, alpha ** 2, r) == pytest.approx(
                    f_ref[0, 0], rel=1e-7)


@pytest.mark.parametrize("spec", [
    GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=1.0, r=0.5),          # c2 = 0
    GaussianProbeSpec(ProbeFamily.TWO_MODE, alpha=1.0, r=0.4, theta=0.0,
                      theta1=math.pi, theta2=math.pi, chi=math.pi / 4),
    GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=0.8, mu=0.3, r=0.4, theta=0.6,
                      tau_in=0.7),                                          # mixed in
], ids=["single-mode", "two-mode-chi-pi/4", "tau-in-0.7"])
def test_grid_channel_output_matches_per_m_oracle(spec):
    grid = mix_modes(fock_truncation(spec), spec.tau_in)
    params = ChannelPoints(0.7, 0.35)
    for got, ref in zip(grid_channel_output(grid, params),
                        grid_channel_output_oracle(grid, params)):
        assert got.shape == (grid.size, grid.size)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_one_column_spectator_is_the_single_mode_channel():
    n = 9
    probe = FockProbe.random(Scenario.SINGLE, n, np.random.default_rng(11))
    params = ChannelParams(0.7, 0.35, n)
    kraus = build_kraus(params, Scenario.SINGLE)
    plain = (apply_channel(probe, kraus),) + apply_channel_derivatives(probe, kraus)
    grid = probe.coeffs[:, None]
    for got, ref, want in zip(grid_channel_output(grid, params),
                              grid_channel_output_oracle(grid, params), plain):
        np.testing.assert_array_equal(got, want.blocks[0])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lossless_pure_state_regularization():
    state = make_probe(GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=1.1, mu=0.0))
    rep = gaussian_qfi(state, ChannelPoints(0.0, 1 - 1e-15), 1.0)
    assert rep.f[0, 0] == pytest.approx(4 * 1.1 ** 2, rel=1e-6)


def test_photon_moments_cases():
    coh = make_probe(GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=1.2))
    n1, n2, var1 = photon_moments(coh)
    assert n1 == pytest.approx(1.44)
    assert n2 == pytest.approx(0.0)
    assert var1 == pytest.approx(1.44)

    r = 0.8
    sq = make_probe(GaussianProbeSpec(ProbeFamily.SINGLE_MODE, r=r))
    n1, _, var1 = photon_moments(sq)
    n_r = math.sinh(r) ** 2
    assert n1 == pytest.approx(n_r)
    assert var1 == pytest.approx(2 * n_r * (n_r + 1))


@pytest.mark.parametrize("align, reduced", [(0.0, True), (np.pi, False)])
def test_photon_variance_alignment(align, reduced):
    # under strong displacement, theta1 - 2 mu = 0 takes the number variance
    # below the displacement-only value and pi drives it above
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=5.0, mu=0.15,
                             r=0.4, theta1=2 * 0.15 + align)
    _, _, var1 = photon_moments(make_probe(spec))
    n_r, n_a = spec.n_r, spec.n_alpha
    expected = (2 * n_r * (n_r + n_a + 1) + n_a
                - 2 * n_a * math.sqrt(n_r * (n_r + 1)) * math.cos(align))
    assert var1 == pytest.approx(expected, rel=1e-12)
    assert (var1 < n_a) is reduced


def test_single_mode_correlation_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n_a = float(rng.uniform(1e3, 1e5))
        n_r = n_a / 1e4
        spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=math.sqrt(n_a),
                                 mu=float(rng.uniform(0, 2 * np.pi)),
                                 r=math.asinh(math.sqrt(n_r)),
                                 theta1=float(rng.uniform(0, 2 * np.pi)))
        eta = float(rng.uniform(0.15, 0.85))
        rep = gaussian_qfi(make_probe(spec), ChannelPoints(0.0, eta), 1.0)
        closed = correlation_single_mode(eta, spec.n_alpha, spec.n_r, spec.theta1, spec.mu)
        assert rep.f[0, 1] == pytest.approx(closed, rel=1e-8)


def test_two_mode_correlation_closed_forms():
    split = EnergySplit(1e6, p=0.5, q=0.3)
    tau = split.tau_in()
    th1, th2, mu = 1.3, 0.4, 0.1
    spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=mu,
                           theta=(th1 + th2 - np.pi) / 2, theta1=th1, theta2=th2,
                           chi=0.0, tau_in=tau)
    eta = 0.37
    rep = gaussian_qfi(make_probe(spec), ChannelPoints(0.0, eta), tau)
    n_sq = math.sinh(spec.r) ** 2
    closed = correlation_two_mode_chi0(eta, spec.n_alpha, n_sq, tau, th1, th2, mu)
    assert rep.f[0, 1] == pytest.approx(closed, rel=1e-4)

    spec = spec_from_split(ProbeFamily.TWO_MODE, split, mu=mu, theta=0.9,
                           chi=np.pi / 2, tau_in=0.7)
    rep = gaussian_qfi(make_probe(spec), ChannelPoints(0.0, eta), 0.7)
    closed = correlation_two_mode_cross(eta, spec.n_alpha, math.sinh(spec.r) ** 2,
                                        0.7, 0.9, mu)
    assert rep.f[0, 1] == pytest.approx(closed, rel=1e-4)


def test_strong_displacement_asymptotics_single_mode():
    lim_soft = asymptotic_limits(ProbeFamily.SINGLE_MODE, Regime.STRONG_DISPLACEMENT,
                                 eta=0.5, theta1=np.pi, mu=0.0)
    assert lim_soft == {"f_phi_norm": 1.0, "f_eta_norm": pytest.approx(0.0, abs=1e-30)}
    split = EnergySplit(1e6, p=0.5, q=0.3)
    for theta1, key in ((np.pi, "f_phi_norm"), (0.0, "f_eta_norm")):
        spec = spec_from_split(ProbeFamily.SINGLE_MODE, split, mu=0.0, theta1=theta1)
        rep = gaussian_qfi(make_probe(spec), ChannelPoints(0.0, 0.5), 1.0)
        lim = fundamental_limits(split.n_total, 0.5)
        ratios = {"f_phi_norm": rep.f[0, 0] / lim.f_phi_max_s12,
                  "f_eta_norm": rep.f[1, 1] / lim.f_eta_max}
        assert ratios[key] > 0.98


def test_case_split_limits_two_mode_chi0():
    # q = p keeps a finite deficit set by the squeezing-phase geometry
    eta = 0.5
    entry = asymptotic_limits(ProbeFamily.TWO_MODE, Regime.STRONG_DISPLACEMENT,
                              eta=eta, chi=0.0, p=0.5, q=0.5,
                              theta1=0.0, theta2=0.0, mu=0.0)
    assert entry["f_phi_norm"] == pytest.approx(1 - eta / (1 + (1 - eta)))
    assert entry["f_eta_norm"] == pytest.approx(1.0)
    split = EnergySplit(1e8, p=0.5, q=0.5)
    tau = split.tau_in()
    spec = spec_from_split(ProbeFamily.TWO_MODE, split, theta=-np.pi / 2,
                           theta1=0.0, theta2=0.0, chi=0.0, tau_in=tau)
    rep = gaussian_qfi(make_probe(spec), ChannelPoints(0.0, eta), tau)
    lim = fundamental_limits(split.n_total, eta)
    assert rep.f[0, 0] / lim.f_phi_max_s12 == pytest.approx(entry["f_phi_norm"], abs=5e-3)
    assert rep.f[1, 1] / lim.f_eta_max == pytest.approx(entry["f_eta_norm"], abs=5e-3)


def test_case_split_incompatibility_entries():
    entry = asymptotic_limits(ProbeFamily.TWO_MODE, Regime.STRONG_DISPLACEMENT,
                              eta=0.25, chi=np.pi / 2)
    assert entry["i_over_fmax_phi"] == pytest.approx(1j / 0.25)
    entry = asymptotic_limits(ProbeFamily.TWO_MODE, Regime.STRONG_DISPLACEMENT,
                              eta=0.25, chi=0.0, p=0.5, q=0.7, theta1=0.4, mu=0.2)
    assert entry["i_over_fmax_phi"] == 0.0j
    assert entry["f_phi_norm"] == pytest.approx(math.sin(0.0) ** 2, abs=1e-12)


def test_strong_squeezing_trend():
    values = []
    for nbar in (1e2, 1e4, 1e6):
        split = EnergySplit(nbar, p=0.5, q=0.5, regime=Regime.STRONG_SQUEEZING)
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, theta=np.pi / 2,
                               theta1=np.pi, theta2=np.pi, chi=np.pi / 2, tau_in=1.0)
        rep = gaussian_qfi(make_probe(spec), ChannelPoints(0.0, 0.1), 1.0)
        lim = fundamental_limits(nbar, 0.1)
        values.append(0.5 * (rep.f[0, 0] / lim.f_phi_max_s12
                             + rep.f[1, 1] / lim.f_eta_max))
    assert abs(values[-1] - 0.5) < 1e-3
    assert abs(values[0] - 0.5) > abs(values[1] - 0.5) > abs(values[2] - 0.5)


def test_mix_modes_unitary_and_vacuum():
    rng = np.random.default_rng(5)
    grid = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    grid /= np.linalg.norm(grid)
    mixed = mix_modes(grid, 0.37)
    assert np.linalg.norm(mixed) == pytest.approx(1.0, abs=1e-12)
    vac = np.zeros((4, 4), dtype=complex)
    vac[0, 0] = 1.0
    np.testing.assert_allclose(mix_modes(vac, 0.5)[0, 0], 1.0)


def test_fock_truncation_norm_control():
    spec = GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=1.0, r=1.2, theta1=0.4)
    grid = fock_truncation(spec)                 # adaptive cutoff
    assert np.linalg.norm(grid) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(Exception):
        gaussian._fock_truncation_at(spec, 10)   # pinned cutoff too small


def test_energy_split_accounting():
    split = EnergySplit(1e4, p=0.5, q=0.25)
    assert split.n_alpha + split.n_r == pytest.approx(1e4)
    assert split.n_r == pytest.approx(100.0)
    assert split.tau_in() == pytest.approx(1 - 0.1)
    swapped = EnergySplit(1e4, p=0.5, regime=Regime.STRONG_SQUEEZING)
    assert swapped.n_alpha == pytest.approx(100.0)
    spec = spec_from_split(ProbeFamily.TWO_MODE, split)
    assert spec.n_total == pytest.approx(1e4, rel=1e-12)


def _skewed_sigma():
    sigma = np.eye(4, dtype=complex)
    sigma[0, 1] = 0.5
    return sigma


@pytest.mark.parametrize("build, message", [
    (lambda: GaussianState(np.eye(3), np.zeros(3)), "4x4"),
    (lambda: GaussianState(_skewed_sigma(), np.zeros(4)), "Hermitian"),
    (lambda: GaussianState(np.eye(4), np.array([1.0, 0.0, 0.0, 0.0])), "conj"),
    (lambda: GaussianProbeSpec(ProbeFamily.SINGLE_MODE, alpha=-1.0), "nonnegative"),
    (lambda: GaussianProbeSpec(ProbeFamily.SINGLE_MODE, tau_in=1.5), "tau_in"),
    (lambda: EnergySplit(100.0, p=1.5), "exponents"),
    (lambda: mode_unitary(0.0, 1.5), "tau_in"),
    (lambda: grid_channel_output(np.ones((1, 3)), ChannelPoints(0.0, 0.5)), "one photon"),
    (lambda: asymptotic_limits(ProbeFamily.TWO_MODE, Regime.STRONG_DISPLACEMENT, 1.0), "eta"),
    (lambda: asymptotic_limits(ProbeFamily.TWO_MODE, Regime.STRONG_DISPLACEMENT, 0.5,
                               chi=0.3), "chi"),
    (lambda: asymptotic_limits(ProbeFamily.TWO_MODE, Regime.STRONG_DISPLACEMENT, 0.5,
                               chi=0.0), "exponents")],
    ids=["shape", "non-hermitian", "displacement", "negative-alpha", "tau-in-spec",
         "split-exponent", "tau-in-unitary", "one-row-grid", "limits-eta",
         "limits-chi", "limits-no-exponents"])
def test_gaussian_inputs_are_validated(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


def _normalized(spec, eta, n_total):
    """(F_phiphi, F_etaeta) over the channel optima and i_phieta over
    F_phi_max of the probe at phase 0 and transmissivity eta."""
    rep = gaussian_qfi(make_probe(spec), ChannelPoints(0.0, eta), spec.tau_in)
    lim = fundamental_limits(n_total, eta)
    return (rep.f[0, 0] / lim.f_phi_max_s12, rep.f[1, 1] / lim.f_eta_max,
            rep.i_phieta / lim.f_phi_max_s12)


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_strong_squeezing_limits_match_gaussian_qfi(eta):
    n_total = 1e5
    split = EnergySplit(n_total, p=0.5, q=0.5, regime=Regime.STRONG_SQUEEZING)
    single = asymptotic_limits(ProbeFamily.SINGLE_MODE, Regime.STRONG_SQUEEZING, eta)
    spec = spec_from_split(ProbeFamily.SINGLE_MODE, split, theta1=np.pi)
    f_phi, f_eta, _ = _normalized(spec, eta, n_total)
    assert f_phi == pytest.approx(single["f_phi_norm"], abs=5e-3)
    assert f_eta == pytest.approx(single["f_eta_norm"], abs=5e-3)
    two = asymptotic_limits(ProbeFamily.TWO_MODE, Regime.STRONG_SQUEEZING, eta)
    for chi, tau_in in ((0.0, split.tau_in()), (np.pi / 2, 1.0)):
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, theta=np.pi / 2, theta1=np.pi,
                               theta2=np.pi, chi=chi, tau_in=tau_in)
        f_phi, f_eta, _ = _normalized(spec, eta, n_total)
        assert 0.5 * (f_phi + f_eta) == pytest.approx(two["f_norm"], abs=5e-3), chi


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_chi0_limit_with_fast_transmission_approached_by_gaussian_qfi(eta):
    # q < p: the input splitter opens faster than the minor resource grows,
    # and each normalized component closes in on (1, 1, i / eta)
    p, q = 0.6, 0.3
    limit = asymptotic_limits(ProbeFamily.TWO_MODE, Regime.STRONG_DISPLACEMENT, eta,
                              chi=0.0, p=p, q=q)
    target = (limit["f_phi_norm"], limit["f_eta_norm"], limit["i_over_fmax_phi"])
    assert target == (1.0, 1.0, pytest.approx(1j / eta))
    distances = []
    for n_total in (1e3, 1e4, 1e5):
        split = EnergySplit(n_total, p=p, q=q)
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, theta=np.pi / 2, theta1=np.pi,
                               theta2=np.pi, chi=0.0, tau_in=split.tau_in())
        distances.append([abs(v - t) for v, t in zip(_normalized(spec, eta, n_total), target)])
    for component in zip(*distances):
        assert component[0] > component[1] > component[2], component
