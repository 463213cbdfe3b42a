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
operator M for fixed witnesses; neither step lowers the objective.  A step
over-relaxes past the top eigenvector only where that provably does not
lower it either.  M is one Toeplitz product over lost photons, for cutoffs
up to about 2700.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from . import qfi as _qfi
from .channel import (ChannelParams, FockProbe, KrausFamily, Scenario, _loss_factors,
                      _single_mode_adjoint, _single_mode_output, block_vectors,
                      build_kraus)
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
# A population whose g_n lies below J by more than _PRUNE * max(1, J), far
# beyond the certified gap, is off the support of the optimum (KKT).
_PRUNE = 1e-8
# The see-saw has converged when its last CONV_WINDOW objectives agree to
# conv_rel_tol.
CONV_WINDOW = 5
# A see-saw step tries top + beta (top - c); beta starts at _EXTRAPOLATE,
# grows _EXTRAPOLATE_GROWTH-fold per kept trial and restarts after a refusal.
_EXTRAPOLATE, _EXTRAPOLATE_GROWTH = 1.0, 1.5


@dataclass(frozen=True)
class IssConfig:
    """Optimizer knobs; weights default to the channel optima per parameter.

    ``max_iters`` caps see-saw steps, one M eigendecomposition each (single
    mode; a refused trial adds one SLD solve and M build to its step), or
    Newton steps (two mode); ``conv_rel_tol``, ``restarts`` and ``seed``
    steer only the see-saw, since the two-mode solve stops on its
    certificate.
    """

    weight_phi: float = None
    weight_eta: float = None
    max_iters: int = 500
    conv_rel_tol: float = 1e-3
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.conv_rel_tol < math.inf:
            raise InvalidInput("need a finite conv_rel_tol > 0")
        for name in ("max_iters", "restarts", "seed"):
            value = getattr(self, name)
            if not hasattr(value, "__index__"):
                raise InvalidInput(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.max_iters < 1 or self.restarts < 1:
            raise InvalidInput("max_iters and restarts must be positive")
        if self.seed < 0:
            raise InvalidInput(f"seed must be non-negative, got {self.seed}")


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


def channel_slds(probe: FockProbe, kraus: KrausFamily):
    """SLD pair (L_phi, L_eta) of the channel output at the given probe.

    Returned dense for the single-mode layout, both from one eigendecomposition
    of the output.  The two-mode layout returns block lists, each block the
    rank-2 form (a psi' + psi a') / q - (<psi, a> / q^2) psi psi' of the block
    vector psi and its SLD image a = L psi (qfi._pure_blocks), zero on dead
    blocks; the library's two-mode solve works on populations, so only the
    benchmark under perfbench/ and the tests call this branch.
    """
    if kraus.scenario is Scenario.SINGLE:
        return tuple(solve_sld(*_single_mode_output(block_vectors(probe, kraus), kraus)))
    _, psi, q, l_psi = _qfi._pure_blocks(probe, kraus)
    slds = ([], [])
    for m in range(kraus.n_max + 1):
        v = psi[m, m:]
        rho = np.outer(v, v.conj())
        for blocks, a in zip(slds, l_psi):
            a = a[m, m:] / q[m]
            b = np.outer(a, v.conj())
            blocks.append(b + b.conj().T - (np.vdot(v, a).real / q[m]) * rho)
    return slds


def _resolve_weights(config: IssConfig, params: ChannelParams):
    lim = _bounds.fundamental_limits(params.n_max, params.eta)
    w_phi = config.weight_phi if config.weight_phi is not None else lim.f_phi_max_s12
    w_eta = config.weight_eta if config.weight_eta is not None else lim.f_eta_max
    if not (w_phi > 0 and w_eta > 0):     # NaN fails too
        raise InvalidInput("weights must be positive (numpy.inf drops a parameter)")
    if math.isinf(w_phi) and math.isinf(w_eta):
        raise InvalidInput("at least one weight must be finite")
    return w_phi, w_eta


def build_m_matrix(probe: FockProbe, slds, kraus: KrausFamily, weights) -> np.ndarray:
    """Effective probe-update operator for fixed witnesses.

    M = sum_j (1/w_j) sum_m K_m' (2 G_jm' L_j + 2 L_j G_jm - L_j^2) K_m with
    the diagonal derivative generators G of the Kraus family; its Rayleigh
    quotient at the probe equals the weighted witness sum.  The two-mode
    layout takes the witnesses as block lists (one per lost-photon count);
    only the benchmark under perfbench/ and the tests call that branch.
    Single mode: G is affine in (m, n), so the bracket at output indices
    (a, b) is Y + m Z, Y = sum_j (2 (conj G_j[0, a] + G_j[0, b]) L_j - L_j^2)
    / w_j and Z = sum_j 4 Re(G_j[1, 1] - G_j[0, 0]) L_j / w_j, summed over m
    by channel._single_mode_adjoint.
    """
    n_pts = kraus.n_max + 1
    if kraus.scenario is Scenario.SINGLE:
        y, z = np.zeros((2, n_pts, n_pts), dtype=complex)
        for l_op, gens, w in zip(slds, kraus.generators(), weights):
            if math.isinf(w):
                continue
            h = np.conj(gens[0])[:, None] + gens[0][None, :]
            y += (2.0 * h * l_op - l_op @ l_op) / w
            z += 4.0 * (gens[1, 1] - gens[0, 0]).real * l_op / w
        return _single_mode_adjoint(y, z, kraus)
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


def _top_eigvec(m_mat: np.ndarray, previous: np.ndarray):
    """Top eigenvalue of M and, among its near-degenerate eigenvectors, the
    one closest to ``previous``."""
    vals, vecs = np.linalg.eigh(m_mat)
    top = vals[-1]
    near = np.nonzero(vals >= top - _EIG_DEGENERACY_TOL * max(1.0, abs(top)))[0]
    pick = near[int(np.argmax(np.abs(vecs[:, near].conj().T @ previous)))]
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


def _max_step(e):
    """Largest t <= 1 that keeps 1 - _TO_BOUNDARY of each population."""
    shrink = e < 0.0
    return min(1.0, _TO_BOUNDARY / -e[shrink].min()) if shrink.any() else 1.0


def _line_search(p, state, e, lam2, mu, b, coef):
    """The accepted point along p (1 + t e), or None if no step qualifies.

    J may not fall: in floats, or provably, g(trial).(trial - p) >= 0 by
    concavity.  A certified point is never traded for an uncertified one.
    """
    j, g = state[0], state[1]
    if (g - j) @ (p * e) <= 0.0:
        return None                   # J is concave: it falls for every t > 0
    certified = _certified(g.max() - j, j)
    t = _max_step(e)
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


def _certified_within_rounding(trial, j, b, coef):
    """(trial, its objective state) with trial renormalized, if it is
    certified and its J fell below j by no more than rounding, else None."""
    trial = trial / trial.sum()
    out = _population_objective(trial, b, coef)
    j_t, g_t = out[0], out[1]
    if j_t >= j - _NOISE * max(1.0, abs(j)) and _certified(g_t.max() - j_t, j_t):
        return trial, out
    return None


def _polish(p, state, e, b, coef):
    """The longest step p (1 + t e) if it is certified and keeps J within
    rounding of J(p), else None.

    The solve calls it only at _MU_STOP on an uncertified p.  There J is
    flat to rounding and the barrier pulls on vanishing populations: the
    step can close the gap while its J slope is slightly negative and
    J(trial) rounds an ulp below J(p), so _line_search refuses it.  A
    certified point lies within its gap of J*, so it may replace p.
    """
    return _certified_within_rounding(p * (1.0 + _max_step(e) * e), state[0], b, coef)


def _prune(p, state, b, coef):
    """p with its off-support barrier residue set to exactly zero, or None.

    At a certified point the barrier leaves p_n of order mu / (J - g_n) where
    KKT puts zero (g_n < J off the support).  Each p_n with g_n below
    J - _PRUNE max(1, J) is zeroed and the rest renormalized; the result
    stands if it is still certified and J fell by no more than rounding.
    """
    j, g = state[0], state[1]
    off = g < j - _PRUNE * max(1.0, j)
    if not off.any() or not _certified(g.max() - j, j):
        return None
    return _certified_within_rounding(np.where(off, 0.0, p), j, b, coef)


def _certified_two_mode(kraus: KrausFamily, weights, max_iters: int):
    """Maximize J over two-mode populations; returns (p, trace, gap, steps).

    Path following from the uniform populations; stops once mu is at
    _MU_STOP with the gap certified, when neither a line-search step nor the
    polish step qualifies there, or after ``max_iters`` Newton steps.  A
    certified end point then drops its barrier residue (_prune).
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
        if accepted is None and mu <= mu_stop:
            accepted = _polish(p, state, e, b, coef)
            if accepted is None:
                break
        if accepted is None:
            mu = max(mu * _MU_FACTOR, mu_stop)
            continue
        p, state = accepted
        # a step proven not to lower J (see _line_search) may still round
        # it down by an ulp, and a polish step may lower it by rounding; the
        # trace keeps the larger value
        trace.append(max(trace[-1], state[0]))
    if (pruned := _prune(p, state, b, coef)) is not None:
        p, state = pruned
        trace.append(max(trace[-1], state[0]))
    return p, trace, float(state[1].max() - state[0]), steps


def _seesaw(config: IssConfig, kraus: KrausFamily, weights):
    """(coeffs, trace, converged, restart objectives) of the best see-saw
    start; converged when the trailing window is flat to conv_rel_tol.

    A step keeps top + beta (top - c) if J = trial' M trial there is at least
    its eigenvalue, else top; the next eigenvalue is at least the kept J.
    """
    n_pts = kraus.n_max + 1
    _loss_factors(kraus.n_max, kraus.params.eta)     # no float64 scale: fail before any step

    def operator(coeffs):
        probe = FockProbe(kraus.scenario, coeffs)
        return build_m_matrix(probe, channel_slds(probe, kraus), kraus, weights)

    best = None
    restart_objectives = []
    for k in range(config.restarts):
        rng = np.random.default_rng(config.seed + k)
        coeffs = rng.standard_normal(n_pts) + 1j * rng.standard_normal(n_pts)
        coeffs /= np.linalg.norm(coeffs)
        m_mat, beta = operator(coeffs), _EXTRAPOLATE
        trace, converged = [], False
        while True:
            mu, top = _top_eigvec(m_mat, coeffs)
            trace.append(max(trace[-1], mu) if trace else mu)    # eigh may round below J
            if len(trace) >= CONV_WINDOW:
                window = trace[-CONV_WINDOW:]
                if max(window) - min(window) <= config.conv_rel_tol * abs(window[-1]):
                    converged = True
                    break
            if len(trace) == config.max_iters:
                break
            overlap = np.vdot(top, coeffs)
            if overlap != 0.0:
                top = top * (overlap / abs(overlap))
            trial = top + beta * (top - coeffs)
            trial /= np.linalg.norm(trial)
            m_mat = operator(trial)
            if np.vdot(trial, m_mat @ trial).real >= mu:
                coeffs, beta = trial, beta * _EXTRAPOLATE_GROWTH
            else:
                coeffs, beta, m_mat = top, _EXTRAPOLATE, operator(top)
        objective = trace[-1]
        restart_objectives.append(objective)
        if best is None or objective > best[0] + 1e-15:
            best = (objective, top.copy(), np.array(trace), converged)
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
