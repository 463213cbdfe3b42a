"""Properties of the two-mode objective in photon-number populations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseloss.bounds import fundamental_limits
from phaseloss.channel import ChannelParams, FockProbe, Scenario, build_kraus
from phaseloss.iss import IssConfig, _population_objective, optimize
from phaseloss.qfi import pure_block_report

seeds = st.integers(0, 2 ** 32 - 1)
etas = st.floats(0.05, 0.95)


def loss_table(n, eta):
    return np.abs(build_kraus(ChannelParams(0.0, eta, n), Scenario.TWO).table) ** 2


def default_coef(n, eta):
    lim = fundamental_limits(n, eta)
    return 4.0 / lim.f_phi_max_s12, 1.0 / (eta * (1.0 - eta) * lim.f_eta_max)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(1, 30), eta=etas)
def test_population_formula_matches_pure_blocks(seed, n, eta):
    rng = np.random.default_rng(seed)
    probe = FockProbe.random(Scenario.TWO, n, rng)
    phi = float(rng.uniform(-np.pi, np.pi))
    f = pure_block_report(probe, build_kraus(ChannelParams(phi, eta, n), Scenario.TWO)).f
    p, b = np.abs(probe.coeffs) ** 2, loss_table(n, eta)
    f_phiphi = _population_objective(p, b, (4.0, 0.0))[0]
    f_etaeta = _population_objective(p, b, (0.0, 1.0 / (eta * (1.0 - eta))))[0]
    np.testing.assert_allclose([f_phiphi, f_etaeta], [f[0, 0], f[1, 1]], rtol=1e-12)
    assert abs(f[0, 1]) <= 1e-12 * max(f[0, 0], f[1, 1])


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 12), eta=etas, alpha=st.floats(0.3, 3.0))
def test_gap_bounds_distance_to_optimum(seed, n, eta, alpha):
    best = optimize(IssConfig(), ChannelParams(0.0, eta, n), Scenario.TWO)
    assert best.converged
    j_star = best.objective_trace[-1]
    p = np.random.default_rng(seed).dirichlet(np.full(n + 1, alpha))
    j, g, _, _ = _population_objective(p, loss_table(n, eta), default_coef(n, eta))
    gap = g.max() - j
    # the true optimum lies in [j_star, j_star + best.gap]
    assert -best.gap - 1e-12 <= j_star - j <= gap + 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(1, 30), eta=etas, lam=st.floats(0.0, 1.0))
def test_objective_concave_along_chords(seed, n, eta, lam):
    rng = np.random.default_rng(seed)
    x, y = rng.dirichlet(np.ones(n + 1), size=2)
    b, coef = loss_table(n, eta), default_coef(n, eta)

    def objective(p):
        return _population_objective(p, b, coef)[0]

    chord = lam * objective(x) + (1.0 - lam) * objective(y)
    assert objective(lam * x + (1.0 - lam) * y) >= chord - 1e-12 * max(1.0, chord)


def test_certified_optimum_carries_no_barrier_residue():
    # N = 30, eta = 0.7: the optimum's support is {6, 16, 30}; the barrier
    # leaves populations of order 1e-12 elsewhere until they are pruned
    res = optimize(IssConfig(), ChannelParams(0.0, 0.7, 30), Scenario.TWO)
    p = np.abs(res.probe.coeffs) ** 2
    assert np.flatnonzero(p).tolist() == [6, 16, 30]
    assert res.converged
    assert 0.0 <= res.gap <= 1e-10 * res.objective_trace[-1]
