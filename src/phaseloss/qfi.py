"""Quantum Fisher information matrices and incompatibility quantifiers.

Parameter order is (phi, eta) everywhere; all 2x2 matrices use it.  The
SLD-commutator expectation reported as ``i_phieta`` is (1/2) Tr(rho [L_eta,
L_phi]); it is purely imaginary, and with this orientation number-state
probes alongside a lossless reference satisfy i_phieta = +i F_phiphi /
(2 eta).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .channel import (BlockDensity, ChannelParams, FockProbe, KrausFamily,
                      Scenario, _single_mode_output, block_vectors, build_kraus)
from .errors import InvalidInput, InvalidState, SingularInformation
from .linalg import hermitian_eig, sld_eigenbasis

_PSD_TOL = 1e-10
_TRACE_TOL = 1e-8
_BLOCK_FLOOR = 1e-30


@dataclass
class QfiReport:
    """2x2 information matrix plus derived scalar quantities.

    f          -- real symmetric QFI matrix, order (phi, eta)
    i_phieta   -- (1/2) Tr(rho [L_eta, L_phi]), purely imaginary
    w          -- weight matrix used for the scalar bounds (or None)
    c_s        -- Tr(W F^-1)
    c_h_bar    -- c_s plus the trace-norm incompatibility penalty
    pinv       -- covariance-formula reports: whether the point's solves took
                  the pseudo-inverse path (a near-pure output)
    cond       -- covariance-formula reports: the largest condition number
                  of the point's solves

    Reports of a stack of points hold arrays with the stack's leading shape:
    f is (..., 2, 2) and every scalar field is (...).
    """

    f: np.ndarray
    i_phieta: complex
    w: np.ndarray = None
    c_s: float = None
    c_h_bar: float = None
    pinv: bool = None
    cond: float = None


def _check_layout(rho: BlockDensity, *derivatives: BlockDensity):
    for d in derivatives:
        if d.scenario is not rho.scenario or len(d.blocks) != len(rho.blocks):
            raise InvalidInput("state and derivatives disagree on the scenario or block count")
        for rho_b, d_b in zip(rho.blocks, d.blocks):
            if np.shape(d_b) != np.shape(rho_b):
                raise InvalidInput(f"derivative block of shape {np.shape(d_b)} against a "
                                   f"state block of shape {np.shape(rho_b)}")


def qfi_matrix(rho: BlockDensity, drho_phi: BlockDensity, drho_eta: BlockDensity,
               method: str = "eigen") -> QfiReport:
    """QFI matrix and SLD-commutator expectation of a blockwise state.

    Solves the SLD equation in the eigenbasis of every block, one
    eigendecomposition per block, and sums Tr(rho A B) there as
    sum_ab p_a A_ab B_ba.  "eigen" is the only ``method``; two-mode probes
    have the block-vector route of pure_block_report.
    """
    if method != "eigen":
        raise InvalidInput(f"unknown QFI method {method!r}; block densities are "
                           "solved in their eigenbasis (\"eigen\")")
    _check_layout(rho, drho_phi, drho_eta)
    if abs(rho.trace() - 1.0) > _TRACE_TOL:
        raise InvalidState(f"density trace {rho.trace()} is not 1")

    t = np.zeros((2, 2), dtype=complex)         # Tr(rho L_i L_j), lower triangle
    for rho_b, dphi_b, deta_b in zip(rho.blocks, drho_phi.blocks, drho_eta.blocks):
        if np.trace(rho_b).real < _BLOCK_FLOOR:
            continue
        es = hermitian_eig(rho_b)
        p = es.eigenvalues
        if p[-1] < -_PSD_TOL:
            raise InvalidState(f"block has negative eigenvalue {p[-1]}")
        l_phi = sld_eigenbasis(es, dphi_b)
        l_eta = sld_eigenbasis(es, deta_b)
        t[0, 0] += np.einsum("a,ab,ba->", p, l_phi, l_phi)
        t[1, 1] += np.einsum("a,ab,ba->", p, l_eta, l_eta)
        t[1, 0] += np.einsum("a,ab,ba->", p, l_eta, l_phi)
    f = np.array([[t[0, 0].real, t[1, 0].real], [t[1, 0].real, t[1, 1].real]])
    return QfiReport(f=f, i_phieta=1j * t[1, 0].imag)


def pure_block_report(probe: FockProbe, kraus: KrausFamily) -> QfiReport:
    """QFI report of a two-mode probe from its pure block vectors.

    Row m of T * c is the unnormalized block vector psi_m, and each SLD acts
    on it as L psi = 2 G psi + (2 <psi, G psi>^* - 2 Re <psi, G psi>) psi / q
    with q = |psi|^2 and G the generator table, so no block density is ever
    formed.  channel_report uses this route for the two-mode layout, and
    through it the see-saw optimizer reports its final probe.
    """
    if kraus.scenario is not Scenario.TWO:
        raise InvalidInput("pure blocks need the two-mode layout")
    psi = block_vectors(probe, kraus)
    p = np.abs(psi) ** 2
    q = p.sum(axis=1)
    if abs(q.sum() - 1.0) > _TRACE_TOL:
        raise InvalidState(f"density trace {q.sum()} is not 1")
    live = q >= _BLOCK_FLOOR
    psi, p, q = psi[live], p[live], q[live]
    l_psi = []
    for g in kraus.generators():
        g = g[live]
        overlap = (g * p).sum(axis=1)
        shift = (2.0 * np.conj(overlap) - 2.0 * overlap.real) / q
        l_psi.append(2.0 * g * psi + shift[:, None] * psi)
    lp, le = l_psi
    z = np.vdot(le, lp)
    f = np.array([[np.vdot(lp, lp).real, z.real], [z.real, np.vdot(le, le).real]])
    return QfiReport(f=f, i_phieta=1j * z.imag)


def _point(values):
    """A stack result as it is, a single point's as a Python float."""
    return float(values) if np.ndim(values) == 0 else values


def _scalar_bounds(f: np.ndarray, w: np.ndarray, i_phieta=None):
    """(C_S, C_H_bar) from one singularity check and one inverse of F.

    C_H_bar is None without ``i_phieta``.  Pointwise over stacks (..., 2, 2);
    raises SingularInformation for the first numerically singular point,
    with its near-null direction and, for a stack, its flat index.
    """
    f = np.asarray(f, dtype=float)
    evals, evecs = np.linalg.eigh(f)
    lo, hi = evals[..., 0], evals[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (lo <= 0) | (hi / lo > 1e12)
    if singular.any():
        k = int(np.argmax(singular.reshape(-1)))
        vals = evals.reshape(-1, 2)[k]
        raise SingularInformation(
            "information matrix is numerically singular",
            direction=evecs.reshape(-1, 2, 2)[k][:, int(np.argmin(np.abs(vals)))],
            index=k if singular.ndim else None)
    f_inv = np.linalg.inv(f)
    w = np.asarray(w, dtype=float)
    c_s = _point(np.einsum("...ij,...ji->...", w, f_inv))
    if i_phieta is None:
        return c_s, None
    if np.linalg.eigvalsh(w).min() < -1e-12:
        raise InvalidInput("weight matrix must be positive semidefinite")
    penalty = (np.abs(i_phieta) * np.sqrt(np.maximum(np.linalg.det(w), 0.0))
               * np.abs(np.linalg.det(f_inv)))
    return c_s, c_s + _point(penalty)


def scalar_crb(f: np.ndarray, w: np.ndarray) -> float:
    """Weighted scalar bound Tr(W F^-1), pointwise over stacks (..., 2, 2).

    Raises SingularInformation for the first numerically singular point,
    with its near-null direction and, for a stack, its flat index.
    """
    return _scalar_bounds(f, w)[0]


def hcrb_upper(f: np.ndarray, i_phieta: complex, w: np.ndarray) -> float:
    """Upper bound on the attainable weighted cost: C_S plus a commutator penalty.

    The penalty is the largest singular value of sqrt(W) F^-1 I F^-1 sqrt(W)
    with the antisymmetric matrix I built from the SLD-commutator
    expectation.  For two parameters that sandwich is det(sqrt(W) F^-1) I,
    so the penalty is |i_phieta| sqrt(det W) / det F; it vanishes exactly
    when i_phieta does, and never exceeds C_S, so C_S <= result <= 2 C_S.
    Pointwise over stacks (..., 2, 2).
    """
    return _scalar_bounds(f, w, i_phieta)[1]


def probe_quantifier(f: np.ndarray, fmax_phi: float, fmax_eta: float) -> float:
    """Average of the diagonal QFI entries rescaled by the channel optima."""
    if fmax_phi <= 0 or fmax_eta <= 0:
        raise InvalidInput("normalization constants must be positive")
    value = 0.5 * (f[0, 0] / fmax_phi + f[1, 1] / fmax_eta)
    if value > 1.0 + 1e-6:
        warnings.warn(f"normalized information sum {value} exceeds 1", RuntimeWarning)
    return float(value)


def meas_quantifiers(report: QfiReport) -> float:
    """Measurement-incompatibility ratio C_S / C_H_bar in (0, 1]."""
    if report.c_s is None or report.c_h_bar is None:
        raise InvalidInput("report lacks scalar bounds; use complete_report first")
    return float(report.c_s / report.c_h_bar)


def complete_report(report: QfiReport, w: np.ndarray) -> QfiReport:
    """Fill the weighted scalar bounds of a report in place and return it.

    A stacked report takes one weight matrix or a stack of them.
    """
    report.w = np.asarray(w, dtype=float)
    report.c_s, report.c_h_bar = _scalar_bounds(report.f, report.w, report.i_phieta)
    return report


def channel_report(probe: FockProbe, params: ChannelParams,
                   w: np.ndarray = None) -> QfiReport:
    """End-to-end report for a number-state probe through the channel.

    Two-mode probes take the block-vector route of pure_block_report; the
    mixed single-mode output, from the channel's one loss action, is solved
    in its eigenbasis.  The default weight matrix is diag of the
    single-parameter channel optima at the probe's photon budget.
    """
    kraus = build_kraus(params, probe.scenario)
    if probe.scenario is Scenario.TWO:
        report = pure_block_report(probe, kraus)
    else:
        rho, drho = _single_mode_output(block_vectors(probe, kraus), kraus)
        report = qfi_matrix(*(BlockDensity(Scenario.SINGLE, params.n_max, [mat])
                              for mat in (rho, *drho)))
    if w is None:
        w = np.array(_bounds.fundamental_limits(probe.n_max, params.eta).weights())
    try:
        complete_report(report, w)
    except SingularInformation:
        report.w = np.asarray(w, dtype=float)  # single-parameter-only probe
    return report
