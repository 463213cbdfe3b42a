import mpmath
import numpy as np
import pytest

from conftest import dense, finite_diff_output, kraus_matrix, kraus_sum_output
from phaseloss.channel import (ChannelParams, FockProbe, Scenario, apply_channel,
                               apply_channel_derivatives, beamsplitter_sector,
                               binomial_loss_coeff, build_kraus)
from phaseloss.errors import InvalidInput


def test_binomial_single_photon():
    assert binomial_loss_coeff(1, 0, 0.6) == pytest.approx(0.6)
    assert binomial_loss_coeff(2, 1, 0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("n", [3, 17, 61, 200, 1000])
def test_binomial_normalization(n):
    eta = 0.37
    total = sum(binomial_loss_coeff(n, m, eta) for m in range(n + 1))
    assert total == pytest.approx(1.0, rel=1e-10)


def test_binomial_log_space_continuity():
    # neighbouring rows n = 60 and 61 agree with each other
    eta = 0.73
    for m in (0, 5, 30):
        direct = binomial_loss_coeff(60, m, eta)
        ratio = binomial_loss_coeff(61, m, eta) / direct
        assert 0.0 < ratio < 2.0


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_loss_table_matches_high_precision_oracle(eta):
    # |T[m, n]|^2 and binomial_loss_coeff against 40-digit binomials: every
    # entry of the rows n = 55..65, plus random entries and the bulk of the
    # distribution of random rows up to n = 3000
    n_max = 3000
    probs = np.abs(build_kraus(ChannelParams(0.0, eta, n_max), Scenario.TWO).table) ** 2
    rng = np.random.default_rng(11)
    pairs = [(n, m) for n in range(55, 66) for m in range(n + 1)]
    for n in rng.integers(66, n_max + 1, size=40):
        centre, width = (1 - eta) * n, 6 * np.sqrt(n * eta * (1 - eta)) + 2
        low, high = max(0, int(centre - width)), min(n, int(centre + width))
        pairs += [(int(n), int(m)) for m in rng.integers(low, high + 1, size=5)]
        pairs.append((int(n), int(rng.integers(0, n + 1))))
    checked = 0
    with mpmath.workdps(40):
        e = mpmath.mpf(eta)
        for n, m in pairs:
            exact = mpmath.binomial(n, m) * e ** (n - m) * (1 - e) ** m
            if exact < 1e-300:
                continue
            for value in (probs[m, n], binomial_loss_coeff(n, m, eta)):
                assert abs(value / exact - 1) <= 1e-10, (n, m, value, exact)
            checked += 1
    assert checked > 500


def test_binomial_rejects_bad_m():
    with pytest.raises(InvalidInput):
        binomial_loss_coeff(3, 4, 0.5)


def test_params_validation():
    with pytest.raises(InvalidInput):
        ChannelParams(0.0, 1.0, 5)
    with pytest.raises(InvalidInput):
        ChannelParams(0.0, 0.5, 0)


@pytest.mark.parametrize("scenario", [Scenario.SINGLE, Scenario.TWO])
def test_kraus_completeness(scenario):
    params = ChannelParams(1.234, 0.41, 9)
    kraus = build_kraus(params, scenario)
    total = sum(kraus_matrix(kraus, m).conj().T @ kraus_matrix(kraus, m) for m in range(10))
    np.testing.assert_allclose(total, np.eye(10), atol=1e-10)


def test_kraus_low_order_entries():
    kraus = build_kraus(ChannelParams(0.9, 0.6, 1), Scenario.SINGLE)
    k0 = kraus_matrix(kraus, 0)
    np.testing.assert_allclose(np.diag(k0), [1.0, np.sqrt(0.6) * np.exp(0.9j)], atol=1e-14)
    k1 = kraus_matrix(kraus, 1)
    assert abs(abs(k1[0, 1]) - np.sqrt(0.4)) < 1e-14
    assert abs(k1).sum() == pytest.approx(abs(k1[0, 1]))


@pytest.mark.parametrize("scenario", [Scenario.SINGLE, Scenario.TWO])
def test_kraus_derivatives_match_finite_differences(scenario):
    delta = 1e-5
    params = ChannelParams(0.7, 0.37, 8)
    kraus = build_kraus(params, scenario)
    k_phi_p = build_kraus(ChannelParams(0.7 + delta, 0.37, 8), scenario)
    k_phi_m = build_kraus(ChannelParams(0.7 - delta, 0.37, 8), scenario)
    k_eta_p = build_kraus(ChannelParams(0.7, 0.37 + delta, 8), scenario)
    k_eta_m = build_kraus(ChannelParams(0.7, 0.37 - delta, 8), scenario)
    for m in range(9):
        num_phi = (kraus_matrix(k_phi_p, m) - kraus_matrix(k_phi_m, m)) / (2 * delta)
        num_eta = (kraus_matrix(k_eta_p, m) - kraus_matrix(k_eta_m, m)) / (2 * delta)
        assert np.abs(num_phi - kraus_matrix(kraus, m, "phi")).max() < 1e-6
        assert np.abs(num_eta - kraus_matrix(kraus, m, "eta")).max() < 1e-6


def test_single_photon_output():
    probe = FockProbe.fock(Scenario.SINGLE, 1, 1)
    kraus = build_kraus(ChannelParams(0.0, 0.6, 1), Scenario.SINGLE)
    rho = apply_channel(probe, kraus)
    np.testing.assert_allclose(rho.blocks[0], np.diag([0.4, 0.6]), atol=1e-14)


def test_two_mode_fock_blocks_are_binomial_and_pure():
    n, eta = 6, 0.42
    probe = FockProbe.fock(Scenario.TWO, n, n)
    kraus = build_kraus(ChannelParams(0.3, eta, n), Scenario.TWO)
    rho = apply_channel(probe, kraus)
    for m, block in enumerate(rho.blocks):
        weight = np.trace(block).real
        assert weight == pytest.approx(binomial_loss_coeff(n, m, eta), rel=1e-12)
        purity = np.sum(np.abs(block) ** 2)
        assert purity == pytest.approx(weight ** 2, rel=1e-10)


@pytest.mark.parametrize("scenario", [Scenario.SINGLE, Scenario.TWO])
def test_trace_preservation_random_probes(scenario):
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        probe = FockProbe.random(scenario, n, rng)
        kraus = build_kraus(ChannelParams(float(rng.uniform(0, 6)),
                                          float(rng.uniform(0.05, 0.95)), n), scenario)
        assert apply_channel(probe, kraus).trace() == pytest.approx(1.0, abs=1e-10)


def test_lossless_limit_purity_and_fidelity():
    rng = np.random.default_rng(6)
    probe = FockProbe.random(Scenario.SINGLE, 7, rng)
    phi = 0.83
    kraus = build_kraus(ChannelParams(phi, 1 - 1e-12, 7), Scenario.SINGLE)
    rho = apply_channel(probe, kraus).blocks[0]
    assert np.trace(rho @ rho).real > 1 - 1e-6
    target = np.exp(1j * phi * np.arange(8)) * probe.coeffs
    fidelity = np.vdot(target, rho @ target).real
    assert fidelity > 1 - 1e-8


def test_phase_covariance():
    rng = np.random.default_rng(7)
    n = 6
    probe = FockProbe.random(Scenario.SINGLE, n, rng)
    phi1, phi2, eta = 0.4, 1.9, 0.55
    rho1 = apply_channel(probe, build_kraus(ChannelParams(phi1, eta, n), Scenario.SINGLE)).blocks[0]
    rho2 = apply_channel(probe, build_kraus(ChannelParams(phi2, eta, n), Scenario.SINGLE)).blocks[0]
    rot = np.diag(np.exp(1j * (phi2 - phi1) * np.arange(n + 1)))
    np.testing.assert_allclose(rot @ rho1 @ rot.conj().T, rho2, atol=1e-10)


def test_two_mode_block_eigenvalues_union():
    rng = np.random.default_rng(8)
    n = 5
    probe = FockProbe.random(Scenario.TWO, n, rng)
    rho = apply_channel(probe, build_kraus(ChannelParams(0.2, 0.6, n), Scenario.TWO))
    block_eigs = np.sort(np.concatenate(
        [np.linalg.eigvalsh(b) for b in rho.blocks]))
    dense_eigs = np.sort(np.linalg.eigvalsh(dense(rho)))
    np.testing.assert_allclose(block_eigs, dense_eigs, atol=1e-12)


@pytest.mark.parametrize("n", [1, 8, 40, 80])
def test_single_mode_output_matches_kraus_sum(n):
    rng = np.random.default_rng(n)
    probe = FockProbe.random(Scenario.SINGLE, n, rng)
    kraus = build_kraus(ChannelParams(1.1, 0.37, n), Scenario.SINGLE)
    rho = apply_channel(probe, kraus).blocks[0]
    dphi, deta = (d.blocks[0] for d in apply_channel_derivatives(probe, kraus))
    for got, which in ((rho, None), (dphi, "phi"), (deta, "eta")):
        ref = kraus_sum_output(probe, kraus, which)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("scenario", [Scenario.SINGLE, Scenario.TWO])
def test_output_derivatives_match_finite_differences(scenario):
    rng = np.random.default_rng(9)
    n, phi, eta = 6, 0.9, 0.44
    probe = FockProbe.random(scenario, n, rng)
    kraus = build_kraus(ChannelParams(phi, eta, n), scenario)
    dphi, deta = apply_channel_derivatives(probe, kraus)
    num_phi = finite_diff_output(probe, phi, eta, n, "phi")
    num_eta = finite_diff_output(probe, phi, eta, n, "eta")
    assert np.abs(dense(dphi) - num_phi).max() < 1e-6
    assert np.abs(dense(deta) - num_eta).max() < 1e-6


def test_derivative_traces():
    rng = np.random.default_rng(10)
    probe = FockProbe.random(Scenario.TWO, 7, rng)
    kraus = build_kraus(ChannelParams(0.5, 0.3, 7), Scenario.TWO)
    dphi, deta = apply_channel_derivatives(probe, kraus)
    assert abs(dphi.trace()) < 1e-12          # unitary parameter, blockwise zero
    for block in dphi.blocks:
        assert abs(np.trace(block)) < 1e-12
    assert abs(deta.trace()) < 1e-10          # zero only after summing blocks


def test_phase_insensitive_fock_probe():
    probe = FockProbe.fock(Scenario.SINGLE, 5, 5)
    kraus = build_kraus(ChannelParams(0.7, 0.5, 5), Scenario.SINGLE)
    dphi, _ = apply_channel_derivatives(probe, kraus)
    assert np.abs(dphi.blocks[0]).max() < 1e-14


def test_beamsplitter_sector_unitarity():
    for total in (1, 4, 9):
        for tau in (0.0, 0.3, 1.0):
            u = beamsplitter_sector(total, tau)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(total + 1), atol=1e-10)


@pytest.mark.parametrize("total", [1, 2, 7, 30, 100])
def test_beamsplitter_sector_matches_complex_generator(total):
    # reference: eigendecomposition of the generator built as a complex matrix
    k = np.arange(total)
    gen = np.zeros((total + 1, total + 1), dtype=complex)
    gen[k + 1, k] = gen[k, k + 1] = np.sqrt((k + 1) * (total - k))
    vals, vecs = np.linalg.eigh(gen)
    for tau, sign in ((0.0, -1.0), (0.3, -1.0), (0.5, 1.0), (0.9, 1.0), (1.0, -1.0)):
        theta = np.arccos(np.sqrt(tau))
        ref = (vecs * np.exp(sign * 1j * theta * vals)) @ vecs.conj().T
        u = beamsplitter_sector(total, tau)
        u = u if sign < 0 else u.conj()
        np.testing.assert_allclose(u, ref, atol=1e-12)
    assert beamsplitter_sector(total, 0.3).flags.writeable     # a fresh array, not the cache


def test_beamsplitter_balanced_single_photon():
    u = beamsplitter_sector(1, 0.5)
    out = u @ np.array([1.0, 0.0])
    np.testing.assert_allclose(np.abs(out) ** 2, [0.5, 0.5], atol=1e-12)


def test_scenario_mismatch_rejected():
    probe = FockProbe.fock(Scenario.SINGLE, 1, 3)
    kraus = build_kraus(ChannelParams(0.0, 0.5, 3), Scenario.TWO)
    with pytest.raises(InvalidInput):
        apply_channel(probe, kraus)
