import numpy as np
import pytest

from phaseloss.channel import (ChannelParams, FockProbe, Scenario, apply_channel,
                               apply_channel_derivatives, build_kraus)
from phaseloss.errors import InvalidInput, InvalidState
from phaseloss.linalg import hermitianize, solve_sld, support_eig


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitianize(a)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_support_eig_matches_eigh_on_the_support():
    rng = np.random.default_rng(10)
    for dim, rank in ((1, 1), (6, 2), (12, 5), (9, 9)):
        a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = a @ a.conj().T
        (p, u), ref = support_eig(rho), np.linalg.eigvalsh(rho)[::-1]
        assert u.shape == (dim, rank)
        np.testing.assert_allclose(p, ref[:rank], rtol=1e-12)
        rebuilt = (u * p) @ u.conj().T
        np.testing.assert_allclose(rebuilt, rho, atol=1e-12 * np.abs(rho).max())


@pytest.mark.parametrize("mat", [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1e-9]]],
                         ids=["zero-diagonal", "negative-diagonal"])
def test_support_eig_rejects_indefinite(mat):
    # the zero diagonal leaves no pivot: only the final residual shows it
    with pytest.raises(InvalidState):
        support_eig(np.array(mat, dtype=complex))


def test_sld_rejects_non_finite_rho():
    with pytest.raises(InvalidInput):
        solve_sld(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2))


def test_sld_maximally_mixed():
    drho = np.array([[0.0, 0.1], [0.1, 0.0]])
    np.testing.assert_allclose(solve_sld(np.eye(2) / 2, drho), 2 * drho, atol=1e-12)


def test_sld_rank_deficient_kernel_convention():
    # support block solves 2 drho/(p_i+p_j); kernel-kernel block pinned to zero
    rho = np.diag([1.0, 0.0])
    eps = 1e-3
    drho = np.diag([eps, -eps])
    l_op = solve_sld(rho, drho)
    np.testing.assert_allclose(l_op, np.diag([eps, 0.0]), atol=1e-14)
    residual = drho - 0.5 * (rho @ l_op + l_op @ rho)
    assert abs(residual[0, 0]) < 1e-14        # satisfied on the support


def test_sld_residual_full_rank():
    rng = np.random.default_rng(1)
    for _ in range(10):
        rho = random_density(rng, 4)
        drho = random_hermitian(rng, 4)
        drho -= np.trace(drho).real / 4 * np.eye(4)
        l_op = solve_sld(rho, drho)
        residual = drho - 0.5 * (rho @ l_op + l_op @ rho)
        assert np.linalg.norm(residual) < 1e-9


@pytest.mark.parametrize("fock", [False, True])
def test_stacked_sld_matches_single_solves(fock):
    # a Fock probe leaves rho rank 5 of 10: the kernel mask keeps L finite
    rng = np.random.default_rng(3)
    n = 9
    probe = (FockProbe.fock(Scenario.SINGLE, 4, n) if fock
             else FockProbe.random(Scenario.SINGLE, n, rng))
    kraus = build_kraus(ChannelParams(0.6, 0.45, n), Scenario.SINGLE)
    rho = apply_channel(probe, kraus).blocks[0]
    derivs = [d.blocks[0] for d in apply_channel_derivatives(probe, kraus)]
    derivs.append(random_hermitian(rng, n + 1))
    stacked = solve_sld(rho, np.stack(derivs))
    assert stacked.shape == (3, n + 1, n + 1)
    for l_op, drho in zip(stacked, derivs):
        single = solve_sld(rho, drho)
        assert np.all(np.isfinite(l_op))
        np.testing.assert_allclose(l_op, single, rtol=0, atol=1e-12 * np.abs(single).max())
    if fock:
        assert np.abs(stacked[2][5:, 5:]).max() < 1e-12   # kernel-kernel block


def test_sld_shape_mismatch():
    with pytest.raises(InvalidInput):
        solve_sld(np.eye(2) / 2, np.eye(3))
    with pytest.raises(InvalidInput):
        solve_sld(np.eye(2) / 2, np.zeros((2, 3, 3)))
