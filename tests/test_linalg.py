import numpy as np
import pytest

from conftest import support_eig_dense_buffer, traced_peak
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


def low_rank_density(rng, dim, rank):
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", [63, 64, 65, 129, 200])
@pytest.mark.parametrize("rank", [1, 7, "full"])
def test_support_eig_matches_eigh_across_tile_edges(dim, rank):
    # dimensions on either side of one and two 64-row tiles of the PSD check;
    # either route resolves an eigenvalue only to rounding of the largest, so
    # the smallest of a full-rank rho (2e-6 p_0 at D = 200) cannot meet
    # 1e-12 relative to itself
    rank = dim if rank == "full" else rank
    rho = low_rank_density(np.random.default_rng(dim + rank), dim, rank)
    (p, u), ref = support_eig(rho), np.linalg.eigvalsh(rho)[::-1]
    assert u.shape == (dim, rank)
    np.testing.assert_allclose(p, ref[:rank], rtol=1e-12, atol=1e-12 * ref[0])
    np.testing.assert_allclose((u * p) @ u.conj().T, rho, atol=1e-12 * np.abs(rho).max())


def test_support_eig_bits_match_the_dense_buffer_oracle():
    rng = np.random.default_rng(23)
    for dim, rank in ((5, 2), (64, 9), (97, 30), (130, 3), (211, 64), (256, 1), (300, 17)):
        rho = low_rank_density(rng, dim, rank)
        (p, u), (ref_p, ref_u) = support_eig(rho), support_eig_dense_buffer(rho)
        np.testing.assert_array_equal(p, ref_p)
        np.testing.assert_array_equal(u, ref_u)


def test_support_eig_of_the_zero_matrix_is_empty():
    p, u = support_eig(np.zeros((130, 130), dtype=complex))
    assert p.shape == (0,) and u.shape == (130, 0)


@pytest.mark.parametrize("pair", [(128, 129), (5, 129)], ids=["last-partial-tile", "straddling"])
def test_support_eig_tiled_check_sees_an_indefinite_pair(pair):
    # rho vanishes on rows and columns i, j, so neither is ever a pivot and
    # the pair (eigenvalues +-1e-6, zero diagonal) leaves every residual
    # diagonal at rounding level: only max|rho - L L'| can see it
    rng = np.random.default_rng(4)
    a = rng.standard_normal((130, 3)) + 1j * rng.standard_normal((130, 3))
    a[list(pair)] = 0.0
    rho = a @ a.conj().T / np.sum(np.abs(a) ** 2)
    assert len(support_eig(rho)[0]) == 3
    i, j = pair
    rho[i, j] = rho[j, i] = 1e-6
    with pytest.raises(InvalidState):
        support_eig(rho)


def test_support_eig_works_in_less_than_one_square_array():
    rho = low_rank_density(np.random.default_rng(8), 600, 12)
    (p, _), peak = traced_peak(lambda: support_eig(rho))
    assert len(p) == 12
    assert peak < rho.nbytes


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
