"""Dense complex linear algebra primitives for Hermitian operators.

Everything here works on plain numpy arrays.  Density operators and their
derivatives are Hermitian by construction elsewhere; these routines enforce
Hermitian structure where they need it: the eigendecomposition and the
symmetric logarithmic derivative equation.  A low-rank density operator has
a cheaper spectral route, support_eig: a pivoted Cholesky factor and its
thin SVD give the eigenpairs on the support alone.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as npl

from .errors import InvalidInput, InvalidState

DEFAULT_RANK_TOL = 1e-12
PSD_TOL = 1e-10
_TILE = 64          # rows (and columns) of one tile of a D x D pass


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a†)/2."""
    return 0.5 * (a + a.conj().T)


def _tiles(dim: int) -> list:
    """Slices of _TILE consecutive indices covering range(dim), the last one partial."""
    return [slice(start, start + _TILE) for start in range(0, dim, _TILE)]


def support_eig(rho: np.ndarray):
    """Eigenpairs (p, U) of a positive semidefinite matrix on its support.

    A pivoted Cholesky factor gives rho = L L' + S; it stops once the largest
    residual diagonal is at most D eps of the first pivot, the rounding floor
    of the residual update (the default of LAPACK's xPSTRF).  The thin
    SVD L = U s V' then gives the eigenvalues p = s^2, descending, of which
    those above DEFAULT_RANK_TOL p_0 are kept with their columns of U.  The
    cost is O(D^2 r) for rank r and the working memory O(D r) beyond rho:
    the factor's buffer holds the rows found so far and doubles when full.
    Raises InvalidState when a residual diagonal falls below -PSD_TOL or
    max|rho - L L'| exceeds PSD_TOL (the latter also catches indefinite
    remainders of zero diagonal); that check runs over row tiles of rho.
    """
    rho = np.asarray(rho)
    if not np.all(np.isfinite(rho)):
        raise InvalidInput("matrix has non-finite entries")
    resid = rho.diagonal().real.copy()
    dim = len(resid)
    rows = np.empty((min(dim, 1), dim), dtype=complex)   # row k holds column k of L
    stop, rank = dim * np.finfo(float).eps * resid.max(initial=0.0), 0
    while rank < dim and resid.max() > stop:
        j = int(np.argmax(resid))
        col = (rho[:, j] - rows[:rank].T @ rows[:rank, j].conj()) / np.sqrt(resid[j])
        if rank == len(rows):
            grown = np.empty((min(2 * rank, dim), dim), dtype=complex)
            grown[:rank] = rows
            rows = grown
        rows[rank], rank = col, rank + 1
        resid -= np.abs(col) ** 2
    factor = rows[:rank].T
    # |rho - L L'| tile by tile, as |conj(rho) - conj(L) L^T|: no copy of conj(L)
    if resid.min(initial=0.0) < -PSD_TOL or any(
            np.abs(rho[t].conj() - factor[t].conj() @ factor.T).max() > PSD_TOL
            for t in _tiles(dim)):
        raise InvalidState("matrix is not positive semidefinite")
    u, s, _ = npl.svd(factor, full_matrices=False)
    keep = s ** 2 > DEFAULT_RANK_TOL * s[:1] ** 2
    return s[keep] ** 2, u[:, keep]


def sld_eigenbasis(p: np.ndarray, d_eig: np.ndarray) -> np.ndarray:
    """SLD of one derivative in an eigenbasis of ρ, eigenvalues p descending.

    ``d_eig`` is dρ in that basis, U' dρ U; U may span the support of ρ
    only.  L_ab = 2 dρ_ab / (p_a + p_b) whenever p_a + p_b exceeds
    DEFAULT_RANK_TOL relative to the largest eigenvalue p_0; elements on
    the kernel-kernel block are set to zero (L is not unique there and the
    choice does not affect any information quantity).  In this basis
    Tr(ρ A B) is sum_ab p_a A_ab B_ba.
    """
    denom = p[:, None] + p[None, :]
    keep = denom > DEFAULT_RANK_TOL * max(p[0], np.finfo(float).tiny)
    return d_eig * (np.where(keep, 2.0, 0.0) / np.where(keep, denom, 1.0))


def solve_sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Solve dρ = (ρL + Lρ)/2 for the Hermitian operator L.

    ``drho`` is one (n, n) derivative or a (k, n, n) stack of them; a stack
    returns the k SLDs stacked alike from a single eigendecomposition of ρ.
    Each solve runs in the eigenbasis of ρ as described in sld_eigenbasis.
    """
    rho = np.asarray(rho)
    drho = np.asarray(drho)
    if (rho.ndim != 2 or rho.shape[0] != rho.shape[1] or drho.ndim not in (2, 3)
            or drho.shape[-2:] != rho.shape):
        raise InvalidInput("rho must be square and drho one matrix of its shape or a stack")
    if not np.all(np.isfinite(rho)):
        raise InvalidInput("rho has non-finite entries")
    vals, vecs = npl.eigh(hermitianize(rho))
    order = np.argsort(vals)[::-1]
    p, u = vals[order], np.ascontiguousarray(vecs[:, order])

    def solve(d):
        return hermitianize(u @ sld_eigenbasis(p, u.conj().T @ d @ u) @ u.conj().T)

    if drho.ndim == 2:
        return solve(drho)
    out = np.empty(drho.shape, dtype=np.result_type(drho, u))
    for k, d in enumerate(drho):     # slice by slice: temporaries of one matrix
        out[k] = solve(d)
    return out
