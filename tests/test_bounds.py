import math

import numpy as np
import pytest

from phaseloss.bounds import (KrausGauge, fundamental_limits, gauge_phase_expectation,
                              phase_qnd_bound, probe_incomp_bound)
from phaseloss.channel import ChannelParams, FockProbe, Scenario, probe_statistics
from phaseloss.errors import DegenerateChannel, InvalidInput
from phaseloss.qfi import channel_report, probe_quantifier


def test_fundamental_limits_arithmetic():
    lim = fundamental_limits(10, 0.5)
    assert lim.f_eta_max == pytest.approx(40.0)
    assert lim.f_phi_max_s12 == pytest.approx(40.0)
    assert lim.f_phi_max_s3 == pytest.approx(10.0)


def test_shared_loss_limit_is_quarter():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lim = fundamental_limits(float(rng.uniform(1, 500)), float(rng.uniform(0.05, 0.95)))
        assert lim.f_phi_max_s3 == pytest.approx(lim.f_phi_max_s12 / 4)


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_fundamental_limits_endpoints(eta):
    with pytest.raises(DegenerateChannel):
        fundamental_limits(5, eta)


def test_phase_bound_worked_example():
    value, gauge = phase_qnd_bound(10.0, 5.0, 0.5)
    assert value == pytest.approx(40.0 / 3.0)
    # analytic gauge location
    denom = 5.0 * 0.5 + 10.0 * 0.5
    assert gauge.alpha == pytest.approx(0.5 * (5.0 - 10.0) / denom)
    assert gauge.beta == pytest.approx(100.0 * 0.5 / denom)


def test_phase_bound_limits():
    value, _ = phase_qnd_bound(8.0, math.inf, 0.25)
    assert value == pytest.approx(4 * 0.25 * 8.0 / 0.75)
    value, _ = phase_qnd_bound(8.0, 8.0, 0.25)     # Poissonian statistics
    assert value == pytest.approx(4 * 0.25 * 8.0)
    value, gauge = phase_qnd_bound(8.0, 0.0, 0.25)
    assert value == 0.0
    assert gauge == KrausGauge(alpha=-1.0, beta=8.0)


def test_phase_bound_matches_grid_minimization():
    rng = np.random.default_rng(1)
    for _ in range(5):
        mean_n = float(rng.uniform(2, 20))
        var_n = float(rng.uniform(0.5, 30))
        eta = float(rng.uniform(0.1, 0.9))
        value, gauge = phase_qnd_bound(mean_n, var_n, eta)
        second = var_n + mean_n ** 2
        alphas = gauge.alpha + np.linspace(-0.5, 0.5, 401)
        betas = gauge.beta + np.linspace(-2.0, 2.0, 401)
        grid = np.array([[gauge_phase_expectation(a, b, mean_n, second, eta)
                          for b in betas] for a in alphas])
        assert 4 * grid.min() == pytest.approx(value, rel=1e-6)
        ia, ib = np.unravel_index(np.argmin(grid), grid.shape)
        assert 0 < ia < 400 and 0 < ib < 400   # interior minimum at the gauge


def test_probe_bound_extremes():
    eta = 0.6
    assert probe_incomp_bound(10.0, math.inf, 10.0, eta) == pytest.approx(1.0)
    assert probe_incomp_bound(10.0, 0.0, 10.0, eta) == pytest.approx(0.5)
    with pytest.raises(InvalidInput):
        probe_incomp_bound(11.0, 1.0, 10.0, eta)


@pytest.mark.parametrize("eta", [0.0, 1.0, 1.5, -0.2])
def test_probe_bound_rejects_degenerate_channel(eta):
    with pytest.raises(DegenerateChannel):
        probe_incomp_bound(5.0, 2.0, 10.0, eta)


def test_witness_moments_drive_bound_to_one():
    exponent = 0.7
    previous = 0.0
    for n in (1e4, 1e5, 1e6, 1e7):
        mean_n = n - 0.5 * n ** exponent
        var_n = 0.25 * n ** (2 * exponent)
        value = probe_incomp_bound(mean_n, var_n, n, 0.5)
        assert value > previous
        previous = value
    assert previous > 0.99


def test_bound_dominates_probe_quantifier():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        eta = float(rng.uniform(0.1, 0.9))
        probe = FockProbe.random(Scenario.TWO, n, rng)
        rep = channel_report(probe, ChannelParams(0.0, eta, n))
        lim = fundamental_limits(n, eta)
        quant = probe_quantifier(rep.f, lim.f_phi_max_s12, lim.f_eta_max)
        mean_n, var_n = probe_statistics(probe)
        assert quant <= probe_incomp_bound(mean_n, var_n, n, eta) + 1e-6


def test_phase_bound_dominates_achieved_information():
    rng = np.random.default_rng(3)
    for _ in range(80):
        n = int(rng.integers(2, 11))
        eta = float(rng.uniform(0.1, 0.9))
        probe = FockProbe.random(Scenario.TWO, n, rng)
        rep = channel_report(probe, ChannelParams(0.0, eta, n))
        mean_n, var_n = probe_statistics(probe)
        cap, _ = phase_qnd_bound(mean_n, var_n, eta)
        assert rep.f[0, 0] <= cap + 1e-6 * max(1.0, cap)
        assert rep.f[1, 1] <= fundamental_limits(n, eta).f_eta_max * (1 + 1e-10)


def test_fundamental_limits_rejects_an_empty_budget():
    with pytest.raises(InvalidInput, match="budget"):
        fundamental_limits(0, 0.5)
