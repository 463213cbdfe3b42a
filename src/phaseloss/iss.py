"""Maximization of J = F_phiphi / w_phi + F_etaeta / w_eta over probes.

Weights are the per-parameter normalizers; numpy.inf drops a parameter.
With the default weights, the channel optima, J is twice the normalized sum.

Two-mode layout: J depends on the probe only through its populations
p_n = |c_n|^2, J(p) = c_phi sum_mn B_mn p_n (n - r_m)^2 + c_eta sum_n n p_n
with B = |T|^2, q_m = sum_n B_mn p_n, r_m = sum_n n B_mn p_n / q_m,
c_phi = 4 / w_phi and c_eta = 1 / (eta (1 - eta) w_eta).  J is concave on
the simplex: a log-barrier Newton method maximizes it, and the Frank-Wolfe
gap max_n g_n - g.p of the gradient g bounds J* - J (Jaggi, ICML 2013).

Single-mode layout: a see-saw alternating two exact maximizations, the SLDs
as witnesses for the current probe and the top eigenvector of the effective
operator M for fixed witnesses; neither step lowers the objective.
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

# A two-mode solve is converged when its gap is at most GAP_TOL * max(1, J).
GAP_TOL = 1e-10
# Barrier weight mu, times max(1, J) at the uniform start, falls by
# _MU_FACTOR per stage; a stage ends when lam^2 <= _CENTERED * mu.
_MU_START, _MU_STOP, _MU_FACTOR, _CENTERED = 0.1, 1e-16, 0.25, 0.1
# A step keeps 1% of each population, halves at most _BACKTRACKS times and
# must gain _ARMIJO of its predicted barrier gain unless that gain is below
# _NOISE * max(1, J), where differences of J are rounding.
_TO_BOUNDARY, _BACKTRACKS, _ARMIJO = 0.99, 8, 1e-4
_NOISE = 1e3 * np.finfo(float).eps
# |T|^2 below this is set to 0: it moves J and g by under 1e-100 c_phi N^3
# and keeps the Newton solve out of subnormal arithmetic, which is slow.
_FLUSH = 1e-100


@dataclass(frozen=True)
class IssConfig:
    """Optimizer knobs; weights default to the channel optima per parameter.

    ``max_iters`` caps see-saw iterations (single mode) or Newton steps (two
    mode); ``conv_window``, ``conv_rel_tol``, ``restarts`` and ``seed`` steer
    only the see-saw, since the two-mode solve stops on its certificate.
    """

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
    """``objective_trace`` holds J at each accepted iterate and never
    decreases; ``gap`` bounds J* - J for a two-mode probe and is NaN for the
    single-mode layout, whose objective is not concave."""

    probe: FockProbe
    objective_trace: np.ndarray
    converged: bool
    final_qfi: "_qfi.QfiReport"
    iterations: int
    restart_objectives: list = field(default_factory=list)
    gap: float = math.nan


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


def _certified(gap: float, j: float) -> bool:
    return gap <= GAP_TOL * max(1.0, j)


def _population_objective(p: np.ndarray, b: np.ndarray, coef):
    """J, its gradient g and the Hessian factors (V, q) at populations p > 0.

    ``coef`` is (c_phi, c_eta).  g_n = c_phi sum_m B_mn (n - r_m)^2 + c_eta n
    and the Hessian is -2 c_phi V' diag(1/q) V with V_mn = B_mn (n - r_m).
    J is homogeneous of degree 1, so J = g.p.  Blocks with q_m = 0 carry no
    weight and drop out.
    """
    c_phi, c_eta = coef
    n = np.arange(len(p))
    q = b @ p
    r = np.divide(b @ (n * p), q, out=np.zeros_like(q), where=q > 0)
    dev = n - r[:, None]
    v = b * dev
    g = c_phi * np.einsum("mn,mn->n", v, dev) + c_eta * n
    return float(g @ p), g, v, q


def _newton_step(p, j, g, v, q, c_phi, mu):
    """Scaled Newton step e = d / p of max J + mu sum log p, sum p = 1, and
    its decrement lam^2 (twice the predicted barrier gain).

    KKT: [mu I + 2 c_phi H'H, p; p', 0] [e; -nu] = [p (g - J) + mu; 0] with
    H = V diag(p) / sqrt(q); the multiplier absorbs the J p taken out of the
    right-hand side, so rounding of J does not enter e.
    """
    n_pts = len(p)
    h = v * p / np.sqrt(np.where(q > 0, q, 1.0))[:, None]
    kkt = np.zeros((n_pts + 1, n_pts + 1))
    kkt[:n_pts, :n_pts] = 2.0 * c_phi * (h.T @ h)
    kkt[np.arange(n_pts), np.arange(n_pts)] += mu
    kkt[:n_pts, n_pts] = kkt[n_pts, :n_pts] = p
    rhs = p * (g - j) + mu
    e = np.linalg.solve(kkt, np.append(rhs, 0.0))[:n_pts]
    return e, float(rhs @ e)


def _line_search(p, state, e, lam2, mu, b, coef):
    """The accepted point along p (1 + t e), or None if no step qualifies.

    J may not fall: in floats, or provably, g(trial).(trial - p) >= 0 by
    concavity.  A certified point is never traded for an uncertified one.
    """
    j, g = state[0], state[1]
    if (g - j) @ (p * e) <= 0.0:
        return None                   # J is concave: it falls for every t > 0
    certified = _certified(g.max() - j, j)
    shrink = e < 0.0
    t = min(1.0, _TO_BOUNDARY / -e[shrink].min()) if shrink.any() else 1.0
    for _ in range(_BACKTRACKS):
        trial = p * (1.0 + t * e)
        trial /= trial.sum()
        out = _population_objective(trial, b, coef)
        j_t, g_t = out[0], out[1]
        rises = j_t >= j or (g_t - j_t) @ (trial - p) >= 0.0
        keeps = not certified or _certified(g_t.max() - j_t, j_t)
        gain = j_t - j + mu * np.log1p(t * e).sum()
        enough = gain >= _ARMIJO * t * lam2 or t * lam2 <= _NOISE * max(1.0, abs(j))
        if rises and keeps and enough:
            return trial, out
        t *= 0.5
    return None


def _certified_two_mode(kraus: KrausFamily, weights, max_iters: int):
    """Maximize J over two-mode populations; returns (p, trace, gap, steps).

    Path following from the uniform populations; stops once mu is at
    _MU_STOP with the gap certified, when no step there qualifies, or after
    ``max_iters`` Newton steps.
    """
    eta = kraus.params.eta
    w_phi, w_eta = weights
    coef = (4.0 / w_phi, 1.0 / (eta * (1.0 - eta) * w_eta))
    b = np.abs(kraus.table) ** 2
    b[b < _FLUSH] = 0.0
    p = np.full(kraus.n_max + 1, 1.0 / (kraus.n_max + 1))
    state = _population_objective(p, b, coef)
    scale = max(1.0, state[0])
    mu, mu_stop = _MU_START * scale, _MU_STOP * scale
    trace = [state[0]]
    steps = 0
    while steps < max_iters:
        j, g, v, q = state
        if mu <= mu_stop and _certified(g.max() - j, j):
            break
        e, lam2 = _newton_step(p, j, g, v, q, coef[0], mu)
        steps += 1
        accepted = None
        if lam2 > _CENTERED * mu or mu <= mu_stop:
            accepted = _line_search(p, state, e, lam2, mu, b, coef)
        if accepted is None:
            if mu <= mu_stop:
                break
            mu = max(mu * _MU_FACTOR, mu_stop)
            continue
        p, state = accepted
        # a step proven not to lower J (see _line_search) may still round
        # it down by an ulp; the trace keeps the larger value
        trace.append(max(trace[-1], state[0]))
    return p, trace, float(state[1].max() - state[0]), steps


def _seesaw(config: IssConfig, kraus: KrausFamily, weights):
    """(coeffs, trace, converged, restart objectives) of the best see-saw
    start; converged when the trailing window is flat to conv_rel_tol."""
    n_pts = kraus.n_max + 1
    best = None
    restart_objectives = []
    for k in range(config.restarts):
        rng = np.random.default_rng(config.seed + k)
        coeffs = rng.standard_normal(n_pts) + 1j * rng.standard_normal(n_pts)
        coeffs /= np.linalg.norm(coeffs)
        trace = []
        converged = False
        for _ in range(config.max_iters):
            probe = FockProbe(kraus.scenario, coeffs)
            slds = channel_slds(probe, kraus)
            mu, coeffs = _top_eigvec(build_m_matrix(probe, slds, kraus, weights), coeffs)
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
    return _gauge_fixed(best[1]), best[2], best[3], restart_objectives


def optimize(config: IssConfig, params: ChannelParams, scenario: Scenario) -> IssResult:
    """Best probe for the weighted information sum.

    Two mode: the barrier-Newton solve, probe sqrt(p), converged when the
    gap is at most GAP_TOL * max(1, J); ``restarts`` and ``seed`` do not
    matter and ``restart_objectives`` holds its one value.  Single mode: the
    see-saw over ``restarts`` seeded random starts.
    """
    kraus = build_kraus(params, scenario)
    weights = _resolve_weights(config, params)
    if scenario is Scenario.TWO:
        p, trace, gap, steps = _certified_two_mode(kraus, weights, config.max_iters)
        probe = FockProbe.from_amplitudes(scenario, np.sqrt(p))
        converged = _certified(gap, trace[-1])
        restart_objectives = [trace[-1]]
    else:
        coeffs, trace, converged, restart_objectives = _seesaw(config, kraus, weights)
        probe = FockProbe(scenario, coeffs)
        gap, steps = math.nan, len(trace)
    report = _qfi.channel_report(probe, params)
    return IssResult(probe=probe, objective_trace=np.asarray(trace), converged=converged,
                     final_qfi=report, iterations=steps,
                     restart_objectives=restart_objectives, gap=gap)
