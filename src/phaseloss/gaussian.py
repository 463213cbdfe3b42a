"""Gaussian-state formalism in complex (a1, a2, a1t, a2t) coordinates.

Covariance conventions: sigma_ij = <{A_i, A_j'}> - 2 <A_i><A_j'> with
A = (a1, a2, a1t, a2t), so the vacuum has sigma = I4, and the displacement
vector is d_i = <A_i>.  Squeezed probes are built directly from their
covariance matrices; the off-diagonal squeezing block carries a phase
convention in which theta1 - 2 mu = 0 minimizes the sensing-mode photon
number variance (transmissivity-friendly alignment) and theta1 - 2 mu = pi
maximizes it (phase-friendly alignment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bounds as _bounds
from .channel import ChannelParams, Scenario, beamsplitter_sector, build_kraus
from .errors import InvalidInput, InvalidState
from .qfi import QfiReport, complete_report

OMEGA = np.diag([1.0, 1.0, -1.0, -1.0])
_PHYS_TOL = 1e-9


class ProbeFamily(str, Enum):
    SINGLE_MODE = "single"       # displaced squeezed light in the sensing mode
    TWO_MODE = "twomode"         # chi-mixed two-mode squeezing plus displacement


class Regime(str, Enum):
    STRONG_DISPLACEMENT = "disp"
    STRONG_SQUEEZING = "sq"


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix and displacement vector of a (possibly mixed) state."""

    sigma: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=complex)
        dd = np.asarray(self.d, dtype=complex)
        if s.shape != (4, 4) or dd.shape != (4,):
            raise InvalidInput("expect a 4x4 covariance matrix and length-4 displacement")
        if np.abs(s - s.conj().T).max() > 1e-10:
            raise InvalidInput("covariance matrix must be Hermitian")
        if np.abs(dd[2:] - dd[:2].conj()).max() > 1e-10:
            raise InvalidInput("displacement must satisfy d[2:] = conj(d[:2])")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "d", dd)

    def physicality(self) -> float:
        """Smallest eigenvalue of sigma + Omega (>= 0 up to tolerance)."""
        return float(np.linalg.eigvalsh(self.sigma + OMEGA).min())


@dataclass(frozen=True)
class GaussianProbeSpec:
    """Parameters of the displaced-squeezed probe families.

    alpha, mu       -- displacement magnitude and phase-space direction
    r               -- squeezing strength; mean squeezing photons are
                       sinh^2 r (single mode) or 2 sinh^2 r (two mode)
    theta1, theta2  -- single-mode squeezing phases
    theta           -- cross-mode squeezing phase
    chi             -- mixing angle: 0 gives two independent single-mode
                       squeezers, pi/2 a pure cross-mode squeezer
    tau_in          -- input beamsplitter transmissivity used at evolve time
    """

    family: ProbeFamily
    alpha: float = 0.0
    mu: float = 0.0
    r: float = 0.0
    theta: float = 0.0
    theta1: float = 0.0
    theta2: float = 0.0
    chi: float = 0.0
    tau_in: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.r < 0:
            raise InvalidInput("alpha and r must be nonnegative")
        if not (0.0 <= self.tau_in <= 1.0):
            raise InvalidInput("tau_in must lie in [0, 1]")

    @property
    def n_alpha(self) -> float:
        return self.alpha ** 2

    @property
    def n_r(self) -> float:
        factor = 1.0 if self.family is ProbeFamily.SINGLE_MODE else 2.0
        return factor * math.sinh(self.r) ** 2

    @property
    def n_total(self) -> float:
        return self.n_alpha + self.n_r


@dataclass(frozen=True)
class EnergySplit:
    """Budget split between displacement and squeezing at total energy n_total.

    The dominant resource receives n_total - n_total**p photons and the other
    n_total**p.  tau_in(), when used, approaches full transmission as
    1 - 1/n_total**q.
    """

    n_total: float
    p: float
    q: float = 0.5
    regime: Regime = Regime.STRONG_DISPLACEMENT

    def __post_init__(self):
        if self.n_total <= 1.0:
            raise InvalidInput("asymptotic split needs n_total > 1")
        if not (0.0 < self.p < 1.0) or not (0.0 < self.q < 1.0):
            raise InvalidInput("exponents p, q must lie in (0, 1)")

    @property
    def n_alpha(self) -> float:
        minor = self.n_total ** self.p
        if self.regime is Regime.STRONG_DISPLACEMENT:
            return self.n_total - minor
        return minor

    @property
    def n_r(self) -> float:
        return self.n_total - self.n_alpha

    def tau_in(self) -> float:
        return 1.0 - 1.0 / self.n_total ** self.q


def spec_from_split(family: ProbeFamily, split: EnergySplit, mu: float = 0.0,
                    theta: float = 0.0, theta1: float = 0.0, theta2: float = 0.0,
                    chi: float = 0.0, tau_in: float = None) -> GaussianProbeSpec:
    """Probe spec realizing an energy split; r is solved from the photon count."""
    per_squeezer = split.n_r if family is ProbeFamily.SINGLE_MODE else split.n_r / 2.0
    r = math.asinh(math.sqrt(per_squeezer))
    if tau_in is None:
        tau_in = 1.0
    return GaussianProbeSpec(family=family, alpha=math.sqrt(split.n_alpha), mu=mu,
                             r=r, theta=theta, theta1=theta1, theta2=theta2,
                             chi=chi, tau_in=tau_in)


def squeezing_block(spec: GaussianProbeSpec) -> np.ndarray:
    """Symmetric 2x2 phase matrix of the squeezing correlations."""
    if spec.family is ProbeFamily.SINGLE_MODE:
        return np.array([[np.exp(1j * spec.theta1), 0.0], [0.0, 0.0]])
    return np.array([
        [math.cos(spec.chi) * np.exp(1j * spec.theta1),
         math.sin(spec.chi) * np.exp(1j * spec.theta)],
        [math.sin(spec.chi) * np.exp(1j * spec.theta),
         math.cos(spec.chi) * np.exp(1j * spec.theta2)],
    ])


def make_probe(spec: GaussianProbeSpec) -> GaussianState:
    """Covariance matrix and displacement of the requested pure probe."""
    c2r = math.cosh(2.0 * spec.r)
    s2r = math.sinh(2.0 * spec.r)
    r_block = squeezing_block(spec)
    sigma = np.eye(4, dtype=complex)
    if spec.family is ProbeFamily.SINGLE_MODE:
        sigma[0, 0] = c2r
        sigma[2, 2] = c2r
    else:
        sigma[:2, :2] = c2r * np.eye(2)
        sigma[2:, 2:] = c2r * np.eye(2)
    sigma[:2, 2:] += -s2r * r_block
    sigma[2:, :2] += -s2r * r_block.conj()
    disp = spec.alpha * np.exp(1j * spec.mu)
    d = np.array([disp, 0.0, np.conj(disp), 0.0])
    state = GaussianState(sigma, d)
    if state.physicality() < -_PHYS_TOL * max(1.0, c2r):
        raise InvalidInput(
            "covariance matrix is unphysical; for 0 < chi < pi/2 the phases "
            "must satisfy theta1 + theta2 = 2*theta +/- pi")
    return state


def mode_unitary(phi: float, tau_in: float) -> np.ndarray:
    """4x4 evolution matrix diag(U, U*) of the input beamsplitter plus phase."""
    if not (0.0 <= tau_in <= 1.0):
        raise InvalidInput("tau_in must lie in [0, 1]")
    t = math.sqrt(tau_in)
    rcoef = 1j * math.sqrt(1.0 - tau_in)
    u = np.array([[np.exp(1j * phi) * t, np.exp(1j * phi) * rcoef],
                  [rcoef, t]])
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = u
    out[2:, 2:] = u.conj()
    return out


@dataclass(frozen=True)
class EvolvedGaussian:
    """Output state along with its analytic parameter derivatives."""

    sigma: np.ndarray
    d: np.ndarray
    dsigma_phi: np.ndarray
    dsigma_eta: np.ndarray
    dd_phi: np.ndarray
    dd_eta: np.ndarray

    def state(self) -> GaussianState:
        return GaussianState(self.sigma, self.d)


def evolve_with_derivatives(state: GaussianState, params: ChannelParams,
                            tau_in: float) -> EvolvedGaussian:
    """Push (sigma, d) through beamsplitter, phase and loss, with derivatives."""
    eta = params.eta
    u4 = mode_unitary(params.phi, tau_in)
    d_gen = np.diag([1j, 0.0, -1j, 0.0])
    root = np.diag([math.sqrt(eta), 1.0, math.sqrt(eta), 1.0]).astype(complex)
    root_eta = np.diag([0.5 / math.sqrt(eta), 0.0, 0.5 / math.sqrt(eta), 0.0])

    s_rot = u4 @ state.sigma @ u4.conj().T
    d_rot = u4 @ state.d
    sigma_out = root @ (s_rot - np.eye(4)) @ root + np.eye(4)
    d_out = root @ d_rot

    ds_rot = d_gen @ s_rot + s_rot @ d_gen.conj().T
    dsigma_phi = root @ ds_rot @ root
    dd_phi = root @ (d_gen @ d_rot)
    dsigma_eta = root_eta @ (s_rot - np.eye(4)) @ root + root @ (s_rot - np.eye(4)) @ root_eta
    dd_eta = root_eta @ d_rot
    return EvolvedGaussian(sigma_out, d_out, dsigma_phi, dsigma_eta, dd_phi, dd_eta)


def evolve(state: GaussianState, params: ChannelParams, tau_in: float) -> GaussianState:
    """Output Gaussian state of the phase+loss channel."""
    return evolve_with_derivatives(state, params, tau_in).state()


def _vec(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, order="F")


def _solve_psd(mat: np.ndarray, rhs: np.ndarray, pinv_tol: float = 1e-10) -> np.ndarray:
    """Solve mat x = rhs, falling back to a pseudo-inverse on rank deficiency."""
    try:
        cond = np.linalg.cond(mat)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > 1.0 / pinv_tol:
        return np.linalg.pinv(mat, rcond=pinv_tol) @ rhs
    return np.linalg.solve(mat, rhs)


def gaussian_qfi(state: GaussianState, params: ChannelParams, tau_in: float,
                 w: np.ndarray = None, n_for_limits: float = None) -> QfiReport:
    """Information matrix of the evolved Gaussian state.

    Uses the covariance/displacement formulas
        F_ij  = (1/2) vec(d_i sigma)' M^-1 vec(d_j sigma) + 2 d_i d' sigma^-1 d_j d
        M     = conj(sigma) (x) sigma - Omega (x) Omega
    and the analogous sandwich with Omega replacing one sigma factor for the
    SLD-commutator term, reported as the full Tr(rho [L_eta, L_phi]) of the
    covariance formalism (twice the blockwise number-basis convention).
    For eta = 1 the state stays pure and M is solved on its support.
    """
    ev = evolve_with_derivatives(state, params, tau_in)
    sig = ev.sigma
    m_mat = np.kron(sig.conj(), sig) - np.kron(OMEGA, OMEGA)
    vec_phi = _vec(ev.dsigma_phi)
    vec_eta = _vec(ev.dsigma_eta)
    sol_phi = _solve_psd(m_mat, vec_phi)
    sol_eta = _solve_psd(m_mat, vec_eta)
    sig_inv_dphi = _solve_psd(sig, ev.dd_phi)
    sig_inv_deta = _solve_psd(sig, ev.dd_eta)

    def f_entry(vec_i, sol_j, dd_i, sig_inv_dd_j):
        val = 0.5 * np.vdot(vec_i, sol_j) + 2.0 * np.vdot(dd_i, sig_inv_dd_j)
        return complex(val)

    f = np.zeros((2, 2))
    f[0, 0] = f_entry(vec_phi, sol_phi, ev.dd_phi, sig_inv_dphi).real
    f[1, 1] = f_entry(vec_eta, sol_eta, ev.dd_eta, sig_inv_deta).real
    f[0, 1] = f[1, 0] = f_entry(vec_phi, sol_eta, ev.dd_phi, sig_inv_deta).real

    sandwich = np.kron(sig.conj(), OMEGA) - np.kron(OMEGA, sig)
    comm = np.vdot(sol_eta, sandwich @ sol_phi)
    comm += 4.0 * np.vdot(sig_inv_deta, OMEGA @ sig_inv_dphi)
    i_pe = 1j * comm.imag

    report = QfiReport(f=f, i_phieta=i_pe)
    if w is None and n_for_limits is not None:
        lim = _bounds.fundamental_limits(n_for_limits, params.eta)
        w = np.diag([lim.f_phi_max_s12, lim.f_eta_max])
    if w is not None:
        complete_report(report, w)
    return report


def photon_moments(state: GaussianState):
    """Mean photon number per mode and the sensing-mode number variance."""
    n1 = (state.sigma[0, 0].real - 1.0) / 2.0 + abs(state.d[0]) ** 2
    n2 = (state.sigma[1, 1].real - 1.0) / 2.0 + abs(state.d[1]) ** 2
    n_c = (state.sigma[0, 0].real - 1.0) / 2.0
    m_c = state.sigma[0, 2] / 2.0
    d1 = state.d[0]
    var1 = (abs(d1) ** 2 * (2.0 * n_c + 1.0)
            + 2.0 * (np.conj(d1) ** 2 * m_c).real
            + n_c * (n_c + 1.0) + abs(m_c) ** 2)
    return float(n1), float(n2), float(var1)


def number_covariance(state: GaussianState, i: int, j: int) -> float:
    """Symmetrized covariance of the mode photon numbers n_i, n_j (0-based)."""
    sig = state.sigma
    d = state.d
    m_ij = sig[i, j + 2] / 2.0
    s_ij = sig[i, j]
    delta = 1.0 if i == j else 0.0
    val = (2.0 * (np.conj(d[i]) * np.conj(d[j]) * m_ij).real
           + (np.conj(d[i]) * d[j] * s_ij).real
           + abs(m_ij) ** 2 + (abs(s_ij) ** 2 - delta) / 4.0)
    return float(val)


# ---------------------------------------------------------------------------
# closed-form large-energy limits
# ---------------------------------------------------------------------------

def asymptotic_limits(family: ProbeFamily, regime: Regime, eta: float,
                      chi: float = 0.0, p: float = None, q: float = None,
                      theta: float = 0.0, theta1: float = 0.0,
                      theta2: float = 0.0, mu: float = 0.0) -> dict:
    """Large-energy limits of the normalized information quantities.

    Returns a dict with keys ``f_phi_norm``, ``f_eta_norm`` and, where a
    closed form exists, ``i_over_fmax_phi``.  For the chi = 0 two-mode
    family the value depends on the order of the energy exponent p and the
    transmissivity exponent q.
    """
    if not (0.0 < eta < 1.0):
        raise InvalidInput("eta must lie in (0, 1)")
    half_angle = 0.5 * (theta1 - 2.0 * mu)
    if regime is Regime.STRONG_SQUEEZING:
        if family is ProbeFamily.SINGLE_MODE:
            return {"f_phi_norm": 1.0, "f_eta_norm": 0.0}
        return {"f_norm": 0.5}
    if family is ProbeFamily.SINGLE_MODE:
        return {"f_phi_norm": math.sin(half_angle) ** 2,
                "f_eta_norm": math.cos(half_angle) ** 2}
    if abs(chi - math.pi / 2.0) < 1e-12:
        return {"f_phi_norm": 1.0, "f_eta_norm": 1.0,
                "i_over_fmax_phi": 1j / eta}
    if abs(chi) > 1e-12:
        raise InvalidInput("closed forms exist only for chi = 0 or chi = pi/2")
    if p is None or q is None:
        raise InvalidInput("the chi = 0 family needs the exponents p and q")
    if q < p:
        return {"f_phi_norm": 1.0, "f_eta_norm": 1.0, "i_over_fmax_phi": 1j / eta}
    if q > p:
        return {"f_phi_norm": math.sin(half_angle) ** 2,
                "f_eta_norm": math.cos(half_angle) ** 2,
                "i_over_fmax_phi": 0.0j}
    cos12 = math.cos(theta1 - theta2)
    denom = 1.0 + (1.0 - eta) * cos12
    return {
        "f_phi_norm": 1.0 - eta * math.cos(half_angle) ** 2 / denom,
        "f_eta_norm": 1.0 - eta * math.sin(half_angle) ** 2 / denom,
        "i_over_fmax_phi": 1j * eta * ((1.0 - eta) * cos12 + 1.0)
                           / ((1.0 - eta) * (cos12 + 1.0)),
    }


def correlation_single_mode(eta: float, n_alpha: float, n_r: float,
                            theta1: float, mu: float) -> float:
    """Closed-form F_phi,eta of the displaced squeezed sensing mode (exact)."""
    return (4.0 * eta * math.sin(theta1 - 2.0 * mu)
            * math.sqrt(n_r * (n_r + 1.0)) * n_alpha
            / (4.0 * (1.0 - eta) * eta * n_r + 1.0))


def correlation_two_mode_chi0(eta: float, n_alpha: float, n_sq: float, tau_in: float,
                              theta1: float, theta2: float, mu: float) -> float:
    """Strong-displacement F_phi,eta of the chi = 0 two-mode family.

    ``n_sq`` is the photon number of each of the two squeezers, sinh^2 r.
    """
    root = math.sqrt(n_sq * (n_sq + 1.0))
    den = (4.0 * eta * (1.0 - eta) * n_sq
           + 8.0 * (1.0 - eta) ** 2 * (1.0 - tau_in) * tau_in * n_sq * (n_sq + 1.0)
           * math.cos(theta1 - theta2)
           + 8.0 * (1.0 - eta) ** 2 * (1.0 - tau_in) * tau_in * n_sq * (n_sq + 1.0)
           + 1.0)
    return (4.0 * eta * tau_in ** 2 * math.sin(theta1 - 2.0 * mu) * root * n_alpha
            - 4.0 * eta * tau_in * (1.0 - tau_in) * math.sin(theta2 - 2.0 * mu)
            * root * n_alpha) / den


def correlation_two_mode_cross(eta: float, n_alpha: float, n_sq: float, tau_in: float,
                               theta: float, mu: float) -> float:
    """Strong-displacement F_phi,eta of the chi = pi/2 two-mode family.

    ``n_sq`` is sinh^2 r.  Vanishes when the cross-squeezing and displacement
    directions are orthogonal, theta - 2 mu = +/- pi/2.
    """
    root = math.sqrt(n_sq * (n_sq + 1.0))
    den = (4.0 * (1.0 - eta)
           * (4.0 * (1.0 - eta) * (1.0 - tau_in) * tau_in
              + (eta - 1.0) * (1.0 - 2.0 * tau_in) ** 2 * n_sq - 1.0) * n_sq - 1.0)
    return -(8.0 * math.cos(theta - 2.0 * mu) * eta * tau_in
             * math.sqrt((1.0 - tau_in) * tau_in) * root * n_alpha) / den


# ---------------------------------------------------------------------------
# truncated photon-number representation (cross-formalism support)
# ---------------------------------------------------------------------------

def _displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """exp(alpha a' - conj(alpha) a) on the truncated number basis."""
    a_op = np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1)
    gen = alpha * a_op.conj().T - np.conj(alpha) * a_op
    h = -1j * gen
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _squeezed_vacuum_grid(t_mat: np.ndarray, c1: int, c2: int) -> np.ndarray:
    """Amplitudes of exp((1/2) a' T a')|00> on an (c1+1) x (c2+1) grid.

    Each Taylor order populates a disjoint total-photon shell, so the series
    terminates once 2k exceeds the grid; no cancellation occurs.
    """
    grid = np.zeros((c1 + 1, c2 + 1), dtype=complex)
    grid[0, 0] = 1.0
    term = grid.copy()
    max_order = (c1 + c2) // 2 + 1
    sq1 = np.sqrt(np.arange(c1 + 1) * (np.arange(c1 + 1) - 1.0))
    sq2 = np.sqrt(np.arange(c2 + 1) * (np.arange(c2 + 1) - 1.0))
    r1 = np.sqrt(np.arange(c1 + 1))
    r2 = np.sqrt(np.arange(c2 + 1))
    for k in range(1, max_order + 1):
        nxt = np.zeros_like(term)
        # (1/2) T11 a1'^2
        nxt[2:, :] += 0.5 * t_mat[0, 0] * (sq1[2:, None]) * term[:-2, :]
        # (1/2) T22 a2'^2
        nxt[:, 2:] += 0.5 * t_mat[1, 1] * (sq2[None, 2:]) * term[:, :-2]
        # T12 a1' a2'
        nxt[1:, 1:] += t_mat[0, 1] * (r1[1:, None] * r2[None, 1:]) * term[:-1, :-1]
        term = nxt / k
        if not np.any(term):
            break
        grid += term
    return grid


def mix_modes(grid: np.ndarray, tau: float, trim_tol: float = 2.5e-11) -> np.ndarray:
    """Apply the input beamsplitter to a two-mode amplitude grid, sector by sector.

    The grid is first padded so that every occupied total-photon sector is
    complete, which makes the rotation exact; the result is trimmed back to
    the smallest per-mode cutoffs keeping 1 - trim_tol of the mass.
    """
    if tau == 1.0:
        return grid.copy()
    side = grid.shape[0] + grid.shape[1] - 1
    padded = np.zeros((side, side), dtype=complex)
    padded[:grid.shape[0], :grid.shape[1]] = grid
    out = padded.copy()
    for total in range(1, side):
        u_sec = beamsplitter_sector(total, tau, reflect_sign=+1.0)
        k = np.arange(total + 1)
        out[k, total - k] = u_sec @ padded[k, total - k]
    return _trim_grid(out, trim_tol)


def _trim_grid(grid: np.ndarray, tol: float) -> np.ndarray:
    def trim_len(mass):
        csum = np.cumsum(mass[::-1])[::-1]
        keep = np.nonzero(csum > tol)[0]
        return int(keep[-1]) + 1 if len(keep) else 1

    m1 = np.sum(np.abs(grid) ** 2, axis=1)
    m2 = np.sum(np.abs(grid) ** 2, axis=0)
    out = grid[:trim_len(m1), :trim_len(m2)]
    return out / np.linalg.norm(out)


def fock_truncation(spec: GaussianProbeSpec, cutoff: int = None,
                    norm_tol: float = 1e-10) -> np.ndarray:
    """Amplitude grid of the probe on the truncated two-mode number basis.

    With ``cutoff=None`` the cutoff grows (from 40, doubling) until the
    truncation keeps at least 1 - norm_tol of the exact norm; a pinned cutoff
    raises InvalidState if that mass cannot be reached.  The grid is trimmed
    afterwards to the smallest per-mode cutoffs preserving the same mass.
    """
    candidates = [cutoff] if cutoff is not None else [40, 80, 160, 320]
    err = None
    for cut in candidates:
        try:
            return _fock_truncation_at(spec, cut, norm_tol)
        except InvalidState as exc:
            err = exc
    raise err


def _fock_truncation_at(spec: GaussianProbeSpec, cutoff: int, norm_tol: float) -> np.ndarray:
    t_mat = -math.tanh(spec.r) * squeezing_block(spec)
    c2 = cutoff if (spec.family is ProbeFamily.TWO_MODE or spec.tau_in < 1.0) else 0
    grid = _squeezed_vacuum_grid(t_mat, cutoff, c2)
    if spec.family is ProbeFamily.SINGLE_MODE:
        exact_norm2 = math.cosh(spec.r)
    else:
        exact_norm2 = math.cosh(spec.r) ** 2
    kept = float(np.sum(np.abs(grid) ** 2)) / exact_norm2
    if kept < 1.0 - norm_tol:
        raise InvalidState(f"cutoff {cutoff} keeps only |psi|^2 = {kept} of the squeezing")
    grid = grid / np.linalg.norm(grid)
    if spec.alpha > 0.0:
        disp = _displacement_matrix(spec.alpha * np.exp(1j * spec.mu), grid.shape[0] - 1)
        grid = disp @ grid
        edge = float(np.sum(np.abs(grid[-2:, :]) ** 2))
        if edge > norm_tol * 100.0 + 1e-12:
            raise InvalidState(f"displaced state reaches the cutoff: edge mass {edge}")
        grid = grid / np.linalg.norm(grid)
    return _trim_grid(grid, norm_tol / 4.0)


def grid_channel_output(grid: np.ndarray, params: ChannelParams):
    """Dense output state and derivatives of phase+loss acting on grid mode 1.

    Returns (rho, drho_phi, drho_eta) as (D x D) matrices with the row-major
    flattening of the (mode1, mode2) grid.
    """
    c1 = grid.shape[0] - 1
    dim = grid.size
    if c1 < 1:
        raise InvalidInput("grid must allow at least one photon in mode 1")
    kraus = build_kraus(ChannelParams(params.phi, params.eta, c1), Scenario.SINGLE)
    rho = np.zeros((dim, dim), dtype=complex)
    drho_phi = np.zeros_like(rho)
    drho_eta = np.zeros_like(rho)
    g_phi, g_eta = kraus.generators()
    for m in range(c1 + 1):
        v = (kraus.table[m, m:][:, None] * grid[m:, :])
        flat = np.zeros_like(grid)
        flat[:v.shape[0], :] = v
        vv = flat.reshape(-1)
        rho += np.outer(vv, vv.conj())
        for g_diag, target in ((g_phi[m, m:], drho_phi), (g_eta[m, m:], drho_eta)):
            gflat = np.zeros_like(grid)
            gflat[:v.shape[0], :] = g_diag[:, None] * v
            gv = gflat.reshape(-1)
            block = np.outer(gv, vv.conj())
            target += block + block.conj().T
    return rho, drho_phi, drho_eta
