"""Iterative see-saw maximization of the weighted information sum over probes.

One iteration alternates two exact maximizations: (i) for the current probe,
the optimal quadratic witnesses of each parameter are its SLDs; (ii) for
fixed witnesses, the optimal probe is the top eigenvector of the effective
operator M assembled from the (m, n) Kraus table.  Both steps never decrease
the objective, so the trace of top eigenvalues is monotone.

Weights are the per-parameter normalizers; numpy.inf drops a parameter
(single-parameter optimization).  With the default weights the objective is
F_phiphi / F_phi_max + F_etaeta / F_eta_max, twice the normalized sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from . import qfi as _qfi
# probe_statistics is re-exported: callers import it from this module too
from .channel import (ChannelParams, FockProbe, KrausFamily, Scenario,
                      _single_mode_output, apply_channel,
                      apply_channel_derivatives, block_vectors, build_kraus,
                      probe_statistics)
from .errors import InvalidInput
from .linalg import hermitianize, solve_sld

_EIG_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class IssConfig:
    """Optimizer knobs; weights default to the channel optima per parameter."""

    weight_phi: float = None
    weight_eta: float = None
    max_iters: int = 500
    conv_window: int = 5
    conv_rel_tol: float = 1e-3
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.conv_window < 2 or self.conv_rel_tol <= 0:
            raise InvalidInput("need conv_window >= 2 and conv_rel_tol > 0")
        if self.max_iters < 1 or self.restarts < 1:
            raise InvalidInput("max_iters and restarts must be positive")


@dataclass
class IssResult:
    probe: FockProbe
    objective_trace: np.ndarray
    converged: bool
    final_qfi: "_qfi.QfiReport"
    iterations: int
    restart_objectives: list = field(default_factory=list)


def _pure_block_slds(rho_b: np.ndarray, drho_b: np.ndarray, q: float) -> np.ndarray:
    """SLD of an unnormalized pure block: (2/q) drho - (tr drho / q^2) rho."""
    return (2.0 / q) * drho_b - (np.trace(drho_b).real / q ** 2) * rho_b


def channel_slds(probe: FockProbe, kraus: KrausFamily):
    """SLD pair (L_phi, L_eta) of the channel output at the given probe.

    Returned dense for the single-mode layout, both from one eigendecomposition
    of the output, and as block lists for the two-mode layout (analytic rank-1
    form per block).
    """
    if kraus.scenario is Scenario.SINGLE:
        rho, drho = _single_mode_output(block_vectors(probe, kraus), kraus)
        l_phi, l_eta = solve_sld(rho, drho)
        return l_phi, l_eta
    rho = apply_channel(probe, kraus)
    dphi, deta = apply_channel_derivatives(probe, kraus)
    l_phi, l_eta = [], []
    for rho_b, dp_b, de_b in zip(rho.blocks, dphi.blocks, deta.blocks):
        q = np.trace(rho_b).real
        if q < 1e-300:
            l_phi.append(np.zeros_like(rho_b))
            l_eta.append(np.zeros_like(rho_b))
            continue
        l_phi.append(_pure_block_slds(rho_b, dp_b, q))
        l_eta.append(_pure_block_slds(rho_b, de_b, q))
    return l_phi, l_eta


def _resolve_weights(config: IssConfig, params: ChannelParams):
    lim = _bounds.fundamental_limits(params.n_max, params.eta)
    w_phi = config.weight_phi if config.weight_phi is not None else lim.f_phi_max_s12
    w_eta = config.weight_eta if config.weight_eta is not None else lim.f_eta_max
    if w_phi <= 0 or w_eta <= 0:
        raise InvalidInput("weights must be positive (numpy.inf drops a parameter)")
    return w_phi, w_eta


def build_m_matrix(probe: FockProbe, slds, kraus: KrausFamily, weights) -> np.ndarray:
    """Effective probe-update operator for fixed witnesses.

    M = sum_j (1/w_j) sum_m K_m' (2 G_jm' L_j + 2 L_j G_jm - L_j^2) K_m with
    the diagonal derivative generators G of the Kraus family; its Rayleigh
    quotient at the probe equals the weighted witness sum.  The two-mode
    layout takes the witnesses as block lists (one per lost-photon count).
    """
    if kraus.scenario is Scenario.SINGLE:
        return _single_mode_m(slds, kraus, weights)
    n_pts = kraus.n_max + 1
    m_mat = np.zeros((n_pts, n_pts), dtype=complex)
    for l_blocks, gens, w in zip(slds, kraus.generators(), weights):
        if math.isinf(w):
            continue
        for m, l_b in enumerate(l_blocks):
            g = gens[m, m:]
            x = 2.0 * np.conj(g)[:, None] * l_b + 2.0 * l_b * g[None, :] - l_b @ l_b
            s = kraus.table[m, m:]
            m_mat[m:, m:] += (np.conj(s)[:, None] * x * s[None, :]) / w
    return hermitianize(m_mat)


def _single_mode_m(slds, kraus: KrausFamily, weights) -> np.ndarray:
    """M for the single-mode layout, with every witness term built once.

    K_m maps input n to output a = n - m, so block m of M is
    conj(T_m) T_m^T (entrywise) times the witness term at output indices
    (a, b): 2 (conj G[m, a+m] + G[m, b+m]) L - L^2.  The generator tables are
    affine in (m, n), so the bracket is h[a, b] + m s with
    h = conj G[0, a] + G[0, b] and s = 2 Re(G[1, 1] - G[0, 0]) (0 for phi,
    -1/(1-eta) for eta); the whole term is Y + m Z with Y and Z summed over
    the parameters once per call.
    """
    n_pts = kraus.n_max + 1
    y = np.zeros((n_pts, n_pts), dtype=complex)
    z = np.zeros((n_pts, n_pts), dtype=complex)
    for l_op, gens, w in zip(slds, kraus.generators(), weights):
        if math.isinf(w):
            continue
        h = np.conj(gens[0])[:, None] + gens[0][None, :]
        y += (2.0 * h * l_op - l_op @ l_op) / w
        z += 4.0 * (gens[1, 1] - gens[0, 0]).real * l_op / w
    m_mat = np.zeros((n_pts, n_pts), dtype=complex)
    table, table_conj = kraus.table, np.conj(kraus.table)
    for m in range(n_pts):
        d = n_pts - m
        s = table[m, m:]
        m_mat[m:, m:] += table_conj[m, m:, None] * (y[:d, :d] + m * z[:d, :d]) * s
    return hermitianize(m_mat)


def _fast_m_two_mode(coeffs: np.ndarray, kraus: KrausFamily, weights) -> np.ndarray:
    """M for the two-mode layout as one array expression over (m, n).

    With B = |T|^2, row m of B c (entrywise) is K_m' K_m c, the probe's block
    vector psi_m lifted back to the input space.  Per parameter, block m of
    M is a 4x4 Hermitian combination of the lifted vectors B c, G B c,
    conj(G) B c and |G|^2 B c, weighted by q = |psi_m|^2, <psi_m, G psi_m>
    and |G psi_m|^2; blocks that lost all weight (q < 1e-300) drop out.
    """
    n_pts = kraus.n_max + 1
    b = np.abs(kraus.table) ** 2
    bc = b * coeffs
    p = b * np.abs(coeffs) ** 2                 # |psi_m|^2 entrywise
    q = p.sum(axis=1)
    live = q >= 1e-300
    q = np.where(live, q, 1.0)
    m_mat = np.zeros((n_pts, n_pts), dtype=complex)
    for g, w in zip(kraus.generators(), weights):
        if math.isinf(w):
            continue
        g_sq = np.abs(g) ** 2
        pa = (g * p).sum(axis=1)                # <psi, G psi>
        t = 2.0 * pa.real
        norm_a = (g_sq * p).sum(axis=1)         # |G psi|^2
        coef = np.zeros((n_pts, 4, 4), dtype=complex)
        coef[:, 3, 0] = coef[:, 0, 3] = coef[:, 2, 1] = coef[:, 1, 2] = 4.0 / q
        coef[:, 1, 1] = -4.0 / q
        coef[:, 2, 0] = coef[:, 0, 2] = -2.0 * t / q ** 2
        coef[:, 1, 0] = -2.0 * (2.0 * pa - t) / q ** 2
        coef[:, 0, 1] = np.conj(coef[:, 1, 0])
        coef[:, 0, 0] = -(4.0 * norm_a - t ** 2 / q) / q ** 2
        coef[~live] = 0.0
        lifted = np.stack([bc, g * bc, np.conj(g) * bc, g_sq * bc])
        right = np.einsum("mkl,lmn->kmn", coef / w, lifted.conj())
        m_mat += lifted.reshape(-1, n_pts).T @ right.reshape(-1, n_pts)
    return hermitianize(m_mat)


def _top_eigvec(m_mat: np.ndarray, previous: np.ndarray):
    vals, vecs = np.linalg.eigh(m_mat)
    top = vals[-1]
    near = np.nonzero(vals >= top - _EIG_DEGENERACY_TOL * max(1.0, abs(top)))[0]
    if len(near) > 1 and previous is not None:
        overlaps = np.abs(vecs[:, near].conj().T @ previous)
        pick = near[int(np.argmax(overlaps))]
    else:
        pick = near[-1]
    return float(top), vecs[:, pick]


def _gauge_fixed(coeffs: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(coeffs)))
    phase = coeffs[k] / abs(coeffs[k])
    fixed = coeffs / phase
    fixed[k] = abs(fixed[k])
    return fixed / np.linalg.norm(fixed)


def optimize(config: IssConfig, params: ChannelParams, scenario: Scenario) -> IssResult:
    """Best probe over restarts; convergence when the trailing objective
    window is flat to the configured relative tolerance."""
    kraus = build_kraus(params, scenario)
    weights = _resolve_weights(config, params)
    n_pts = params.n_max + 1

    best = None
    restart_objectives = []
    for k in range(config.restarts):
        rng = np.random.default_rng(config.seed + k)
        coeffs = rng.standard_normal(n_pts) + 1j * rng.standard_normal(n_pts)
        coeffs /= np.linalg.norm(coeffs)
        trace = []
        converged = False
        for _ in range(config.max_iters):
            if scenario is Scenario.TWO:
                m_mat = _fast_m_two_mode(coeffs, kraus, weights)
            else:
                probe = FockProbe(scenario, coeffs)
                slds = channel_slds(probe, kraus)
                m_mat = build_m_matrix(probe, slds, kraus, weights)
            mu, coeffs = _top_eigvec(m_mat, coeffs)
            trace.append(mu)
            if len(trace) >= config.conv_window:
                window = trace[-config.conv_window:]
                if max(window) - min(window) <= config.conv_rel_tol * abs(window[-1]):
                    converged = True
                    break
        objective = trace[-1]
        restart_objectives.append(objective)
        if best is None or objective > best[0] + 1e-15:
            best = (objective, coeffs.copy(), np.array(trace), converged)

    _, coeffs, trace, converged = best
    probe = FockProbe(scenario, _gauge_fixed(coeffs))
    report = _qfi.channel_report(probe, params)
    return IssResult(probe=probe, objective_trace=trace, converged=converged,
                     final_qfi=report, iterations=len(trace),
                     restart_objectives=restart_objectives)
