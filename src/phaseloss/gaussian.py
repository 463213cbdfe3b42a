"""Gaussian-state formalism in complex (a1, a2, a1t, a2t) coordinates.

Covariance conventions: sigma_ij = <{A_i, A_j'}> - 2 <A_i><A_j'> with
A = (a1, a2, a1t, a2t), so the vacuum has sigma = I4, and the displacement
vector is d_i = <A_i>.  Squeezed probes are built directly from their
covariance matrices; the off-diagonal squeezing block carries a phase
convention in which theta1 - 2 mu = 0 minimizes the sensing-mode photon
number variance (transmissivity-friendly alignment) and theta1 - 2 mu = pi
maximizes it (phase-friendly alignment).

Probe construction, evolution, the information matrix and the photon
moments work on stacks: sigma of shape (..., 4, 4) and d of shape (..., 4),
with the channel point (phi, eta) and tau_in broadcast against the stack.
A single state is the stack of no points.  Failures of a stacked call name
the first failing point through the exception's ``index``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import (ChannelParams, ChannelPoints, Scenario, _single_mode_output,
                      beamsplitter_sector, build_kraus)
from .errors import InvalidInput, InvalidState
from .qfi import QfiReport, _point, complete_report

OMEGA = np.diag([1.0, 1.0, -1.0, -1.0])
_OMEGA_DIAG = np.diag(OMEGA)
_OMEGA_KRON = np.kron(OMEGA, OMEGA)
_PHYS_TOL = 1e-9
_PINV_TOL = 1e-10
_NORM_TOL = 1e-10     # norm a number-basis truncation may lose
# points per pass of the information-matrix solve.  Up to six 16 x 16
# complex arrays of 4 kB a point are alive at once (the Kronecker system,
# its SVD factors u and vt, and, when only some points take the
# pseudo-inverse, their copies and the pseudo-inverse itself); under
# tracemalloc a chunk of random points peaks at about 2.1 MB, so the
# memory of a sweep stays flat however many points it has
CHUNK = 96


class ProbeFamily(str, Enum):
    SINGLE_MODE = "single"       # displaced squeezed light in the sensing mode
    TWO_MODE = "twomode"         # chi-mixed two-mode squeezing plus displacement


class Regime(str, Enum):
    STRONG_DISPLACEMENT = "disp"
    STRONG_SQUEEZING = "sq"


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix and displacement vector of a (possibly mixed) state,
    or a stack of them: sigma (..., 4, 4) and d (..., 4)."""

    sigma: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=complex)
        dd = np.asarray(self.d, dtype=complex)
        if s.shape[-2:] != (4, 4) or dd.shape != s.shape[:-1]:
            raise InvalidInput("expect a 4x4 covariance matrix and length-4 displacement")
        if np.any(np.abs(s - s.conj().swapaxes(-1, -2)) > 1e-10):
            raise InvalidInput("covariance matrix must be Hermitian")
        if np.any(np.abs(dd[..., 2:] - dd[..., :2].conj()) > 1e-10):
            raise InvalidInput("displacement must satisfy d[2:] = conj(d[:2])")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "d", dd)

    def physicality(self) -> float:
        """Smallest eigenvalue of sigma + Omega (>= 0 up to tolerance), per point."""
        return _point(np.linalg.eigvalsh(self.sigma + OMEGA)[..., 0])


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
        if not all(map(math.isfinite, (self.alpha, self.mu, self.r, self.theta,
                                       self.theta1, self.theta2, self.chi))):
            raise InvalidInput("probe parameters must be finite")
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
        if not 1.0 < self.n_total < math.inf:
            raise InvalidInput("asymptotic split needs a finite n_total > 1")
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
                    chi: float = 0.0, tau_in: float = 1.0) -> GaussianProbeSpec:
    """Probe spec realizing an energy split; r is solved from the photon count."""
    per_squeezer = split.n_r if family is ProbeFamily.SINGLE_MODE else split.n_r / 2.0
    r = math.asinh(math.sqrt(per_squeezer))
    return GaussianProbeSpec(family=family, alpha=math.sqrt(split.n_alpha), mu=mu,
                             r=r, theta=theta, theta1=theta1, theta2=theta2,
                             chi=chi, tau_in=tau_in)


_SPEC_FIELDS = ("alpha", "mu", "theta", "theta1", "theta2", "chi", "cosh_2r", "sinh_2r")


def _spec_fields(spec) -> dict:
    """The fields of one spec as 0-d values, or of a sequence of P specs as
    (P,) arrays, under the names of _SPEC_FIELDS plus ``single`` (single-mode
    family).  cosh 2r and sinh 2r come from ``math``: numpy's vectorized
    hyperbolics differ from it in the last bit, which the near-singular
    information solves amplify to about 1e-10 in the result."""
    specs = [spec] if isinstance(spec, GaussianProbeSpec) else list(spec)
    values = np.array([(s.alpha, s.mu, s.theta, s.theta1, s.theta2, s.chi,
                        math.cosh(2.0 * s.r), math.sinh(2.0 * s.r)) for s in specs],
                      dtype=float).reshape(-1, len(_SPEC_FIELDS)).T
    fields = dict(zip(_SPEC_FIELDS, values))
    fields["single"] = np.array([s.family is ProbeFamily.SINGLE_MODE for s in specs])
    if isinstance(spec, GaussianProbeSpec):
        return {key: val[0] for key, val in fields.items()}
    return fields


def _squeezing_block(fields: dict) -> np.ndarray:
    """Symmetric 2x2 phase matrix of the squeezing correlations, per point."""
    single, chi = fields["single"], fields["chi"]
    # a single-mode probe squeezes the sensing mode alone: chi = 0, no theta2 term
    cos_chi = np.where(single, 1.0, np.cos(chi))
    sin_chi = np.where(single, 0.0, np.sin(chi))
    block = np.empty(np.shape(chi) + (2, 2), dtype=complex)
    block[..., 0, 0] = cos_chi * np.exp(1j * fields["theta1"])
    block[..., 0, 1] = block[..., 1, 0] = sin_chi * np.exp(1j * fields["theta"])
    block[..., 1, 1] = np.where(single, 0.0, cos_chi * np.exp(1j * fields["theta2"]))
    return block


def make_probe(spec) -> GaussianState:
    """Covariance matrix and displacement of the requested pure probe.

    ``spec`` is one GaussianProbeSpec, or a sequence of them for a stacked
    state; an unphysical point raises InvalidInput (with its index for a
    sequence).
    """
    fields = _spec_fields(spec)
    c2r, s2r = fields["cosh_2r"], fields["sinh_2r"]
    r_block = _squeezing_block(fields)
    sigma = np.zeros(np.shape(c2r) + (4, 4), dtype=complex)
    sigma[..., 0, 0] = sigma[..., 2, 2] = c2r
    sigma[..., 1, 1] = sigma[..., 3, 3] = np.where(fields["single"], 1.0, c2r)
    sigma[..., :2, 2:] = -s2r[..., None, None] * r_block
    sigma[..., 2:, :2] = -s2r[..., None, None] * r_block.conj()
    disp = fields["alpha"] * np.exp(1j * fields["mu"])
    d = np.zeros(np.shape(c2r) + (4,), dtype=complex)
    d[..., 0] = disp
    d[..., 2] = np.conj(disp)
    state = GaussianState(sigma, d)
    unphysical = np.asarray(state.physicality() < -_PHYS_TOL * np.maximum(1.0, c2r))
    if unphysical.any():
        raise InvalidInput(
            "covariance matrix is unphysical; for 0 < chi < pi/2 the phases "
            "must satisfy theta1 + theta2 = 2*theta +/- pi",
            index=int(np.argmax(unphysical)) if unphysical.ndim else None)
    return state


def mode_unitary(phi, tau_in) -> np.ndarray:
    """4x4 evolution matrix diag(U, U*) of the input beamsplitter plus phase,
    stacked (..., 4, 4) over the broadcast shape of phi and tau_in."""
    phi, tau_in = np.broadcast_arrays(np.asarray(phi, dtype=float),
                                      np.asarray(tau_in, dtype=float))
    if not np.all((0.0 <= tau_in) & (tau_in <= 1.0)):
        raise InvalidInput("tau_in must lie in [0, 1]")
    t = np.sqrt(tau_in)
    rcoef = 1j * np.sqrt(1.0 - tau_in)
    out = np.zeros(phi.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = np.exp(1j * phi) * t
    out[..., 0, 1] = np.exp(1j * phi) * rcoef
    out[..., 1, 0] = rcoef
    out[..., 1, 1] = t
    out[..., 2:, 2:] = out[..., :2, :2].conj()
    return out


@dataclass(frozen=True)
class EvolvedGaussian:
    """Output state along with its analytic parameter derivatives (or a stack)."""

    sigma: np.ndarray
    d: np.ndarray
    dsigma_phi: np.ndarray
    dsigma_eta: np.ndarray
    dd_phi: np.ndarray
    dd_eta: np.ndarray

    def state(self) -> GaussianState:
        return GaussianState(self.sigma, self.d)

    def take(self, index) -> "EvolvedGaussian":
        """The points of a stack picked by an index along its leading axis."""
        return EvolvedGaussian(*(getattr(self, f.name)[index]
                                 for f in dataclasses.fields(self)))


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return (mat @ vec[..., None])[..., 0]


def evolve_with_derivatives(state: GaussianState, params: ChannelPoints,
                            tau_in) -> EvolvedGaussian:
    """Push (sigma, d) through beamsplitter, phase and loss, with derivatives.

    ``params`` supplies phi and eta (a ChannelParams is one point); they
    and tau_in broadcast against the stack of states.  Loss and the phase
    generator are diagonal, so they act as entrywise row and column scalings.
    """
    eta = np.asarray(params.eta, dtype=float)
    u4 = mode_unitary(params.phi, tau_in)
    root_eta = np.sqrt(eta)
    ones, zeros = np.ones_like(root_eta), np.zeros_like(root_eta)
    root = np.stack([root_eta, ones, root_eta, ones], axis=-1)
    droot = np.stack([0.5 / root_eta, zeros, 0.5 / root_eta, zeros], axis=-1)
    gen = np.array([1j, 0.0, -1j, 0.0])

    s_rot = u4 @ state.sigma @ u4.conj().swapaxes(-1, -2)
    d_rot = _matvec(u4, state.d)
    excess = s_rot - np.eye(4)
    rows, cols = root[..., :, None], root[..., None, :]
    drows, dcols = droot[..., :, None], droot[..., None, :]
    sigma_out = rows * excess * cols + np.eye(4)
    ds_rot = gen[:, None] * s_rot + s_rot * gen.conj()[None, :]
    dsigma_phi = rows * ds_rot * cols
    dsigma_eta = drows * excess * cols + rows * excess * dcols
    return EvolvedGaussian(sigma_out, root * d_rot, dsigma_phi, dsigma_eta,
                           root * (gen * d_rot), droot * d_rot)


def evolve(state: GaussianState, params: ChannelPoints, tau_in) -> GaussianState:
    """Output Gaussian state of the phase+loss channel."""
    return evolve_with_derivatives(state, params, tau_in).state()


def _vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vec of each matrix of a stack."""
    return a.swapaxes(-1, -2).reshape(a.shape[:-2] + (-1,))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of each pair of a stack: out[4i+k, 4j+l] = a[i, j] b[k, l]."""
    n = a.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (n * n, n * n))


def _vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy.vdot of each pair of a (P, n) stack of vectors, as one BLAS dot each."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _solve_psd(mat: np.ndarray, rhs):
    """Solve mat x = b over a (P, n, n) stack for each (P, n) stack b in ``rhs``,
    falling back to a pseudo-inverse on rank deficiency.

    One SVD per point gives the condition number and, where it exceeds
    1/_PINV_TOL, the pseudo-inverse (built as numpy.linalg.pinv builds it);
    the other points take an LU solve.  Each right-hand side is solved as a
    matrix-vector problem of its own, so that every point gets the bits a
    single-point solve gives: rounding noise that an ill-conditioned point
    reports stays the same whatever stack it is solved in.
    Returns (solutions, pinv mask, condition numbers).
    """
    u, s, vt = np.linalg.svd(mat.conj(), full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    cond[np.isnan(cond)] = np.inf
    pinv = ~(cond <= 1.0 / _PINV_TOL)
    sols = [np.empty(b.shape, dtype=complex) for b in rhs]
    if pinv.any():
        on = _points(pinv)
        s_p = s[on]
        large = s_p > _PINV_TOL * s_p[:, :1]
        inv_s = np.divide(1.0, s_p, where=large, out=np.zeros_like(s_p))
        u_scaled = u[on].swapaxes(-1, -2)
        u_scaled *= inv_s[..., None]        # in place: u is not read again
        pinv_mat = vt[on].swapaxes(-1, -2) @ u_scaled
        for b, x in zip(rhs, sols):
            x[on] = _matvec(pinv_mat, b[on])
    if not pinv.all():
        on = _points(~pinv)
        for b, x in zip(rhs, sols):
            x[on] = np.linalg.solve(mat[on], b[on][..., None])[..., 0]
    return sols, pinv, cond


def _points(mask: np.ndarray):
    """Index of the masked points: a slice when it holds all of them, so
    that indexing with it copies no stack."""
    return slice(None) if mask.all() else mask


def _qfi_chunk(sig, dsig_phi, dsig_eta, dd_phi, dd_eta):
    """(F, i_phieta, pinv, cond) of a (P, 4, 4) stack of evolved states."""
    vec_phi, vec_eta = _vec(dsig_phi), _vec(dsig_eta)
    (sol_phi, sol_eta), pinv_m, cond_m = _solve_psd(_kron(sig.conj(), sig) - _OMEGA_KRON,
                                                    [vec_phi, vec_eta])
    (inv_dphi, inv_deta), pinv_s, cond_s = _solve_psd(sig, [dd_phi, dd_eta])

    def entry(vec_i, sol_j, dd_i, inv_dd_j):
        return (0.5 * _vdot(vec_i, sol_j) + 2.0 * _vdot(dd_i, inv_dd_j)).real

    f = np.empty((len(sig), 2, 2))
    f[:, 0, 0] = entry(vec_phi, sol_phi, dd_phi, inv_dphi)
    f[:, 1, 1] = entry(vec_eta, sol_eta, dd_eta, inv_deta)
    f[:, 0, 1] = f[:, 1, 0] = entry(vec_phi, sol_eta, dd_phi, inv_deta)
    # (conj(sigma) (x) Omega - Omega (x) sigma) vec(X) = vec(Omega X sigma' - sigma X Omega)
    # for the 4 x 4 matrix X of sol_phi, from 4 x 4 products
    x_phi = sol_phi.reshape(-1, 4, 4).swapaxes(-1, -2)
    comm_mat = _OMEGA_DIAG[:, None] * (x_phi @ sig.conj().swapaxes(-1, -2))
    comm_mat -= (sig @ x_phi) * _OMEGA_DIAG
    comm = _vdot(sol_eta, _vec(comm_mat))
    comm += 4.0 * _vdot(inv_deta, _OMEGA_DIAG * inv_dphi)
    return f, 1j * comm.imag, pinv_m | pinv_s, np.maximum(cond_m, cond_s)


def evolved_qfi(ev: EvolvedGaussian, w: np.ndarray = None) -> QfiReport:
    """Information matrix of an evolved Gaussian state or stack of them.

    Uses the covariance/displacement formulas
        F_ij  = (1/2) vec(d_i sigma)' M^-1 vec(d_j sigma) + 2 d_i d' sigma^-1 d_j d
        M     = conj(sigma) (x) sigma - Omega (x) Omega
    and, for the SLD-commutator term, the analogous sandwich with Omega
    replacing one sigma factor, applied as 4 x 4 products (see _qfi_chunk)
    and reported as the full Tr(rho [L_eta, L_phi]) of the covariance
    formalism (twice the blockwise number-basis convention).
    A point whose M or sigma has condition number above 1e10 (a near-pure
    output: eta -> 1, or any pure probe, since the lossless reference mode
    keeps one symplectic mode of the output pure) is solved on its support
    by the pseudo-inverse; the report's ``pinv`` and ``cond`` record this
    per point.  The stack is solved CHUNK points at a time, and every solve
    is pointwise: a point gets the same bits in any stack, alone included.
    With ``w`` (one matrix or one per point) the scalar bounds are filled in.
    """
    batch = ev.sigma.shape[:-2]
    arrays = [np.reshape(a, (-1,) + a.shape[len(batch):])
              for a in (ev.sigma, ev.dsigma_phi, ev.dsigma_eta, ev.dd_phi, ev.dd_eta)]
    n_pts = arrays[0].shape[0]
    f = np.empty((n_pts, 2, 2))
    i_pe = np.empty(n_pts, dtype=complex)
    pinv = np.empty(n_pts, dtype=bool)
    cond = np.empty(n_pts)
    for lo in range(0, n_pts, CHUNK):
        part = slice(lo, lo + CHUNK)
        f[part], i_pe[part], pinv[part], cond[part] = _qfi_chunk(*(a[part] for a in arrays))
    report = QfiReport(f=f.reshape(batch + (2, 2)), i_phieta=i_pe.reshape(batch)[()],
                       pinv=pinv.reshape(batch)[()], cond=cond.reshape(batch)[()])
    if w is not None:
        complete_report(report, w)
    return report


def gaussian_qfi(state: GaussianState, params: ChannelPoints, tau_in,
                 w: np.ndarray = None) -> QfiReport:
    """Information matrix of the evolved Gaussian state (or stack of states).

    Evolves once and solves by ``evolved_qfi``.
    """
    return evolved_qfi(evolve_with_derivatives(state, params, tau_in), w)


def photon_moments(state: GaussianState):
    """Mean photon number per mode and the sensing-mode number variance of
    any object with ``sigma`` and ``d`` (a state or an EvolvedGaussian)."""
    sig, d = state.sigma, state.d
    n1 = (sig[..., 0, 0].real - 1.0) / 2.0 + np.abs(d[..., 0]) ** 2
    n2 = (sig[..., 1, 1].real - 1.0) / 2.0 + np.abs(d[..., 1]) ** 2
    return _point(n1), _point(n2), number_covariance(state, 0, 0)


def number_covariance(state: GaussianState, i: int, j: int) -> float:
    """Covariance of the photon numbers n_i, n_j (0-based) of any sigma/d holder."""
    sig = state.sigma
    d = state.d
    m_ij = sig[..., i, j + 2] / 2.0
    s_ij = sig[..., i, j]
    delta = 1.0 if i == j else 0.0
    val = (2.0 * (np.conj(d[..., i]) * np.conj(d[..., j]) * m_ij).real
           + (np.conj(d[..., i]) * d[..., j] * s_ij).real
           + np.abs(m_ij) ** 2 + (np.abs(s_ij) ** 2 - delta) / 4.0)
    return _point(val)


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


def mix_modes(grid: np.ndarray, tau: float) -> np.ndarray:
    """Apply the input beamsplitter to a two-mode amplitude grid, sector by sector.

    The grid is first padded so that every occupied total-photon sector is
    complete, which makes the rotation exact; the result is trimmed back to
    the smallest per-mode cutoffs keeping 1 - 2.5e-11 of the mass.  The
    input splitter reflects with +i, the conjugate of ``beamsplitter_sector``.
    """
    if tau == 1.0:
        return grid.copy()
    side = grid.shape[0] + grid.shape[1] - 1
    padded = np.zeros((side, side), dtype=complex)
    padded[:grid.shape[0], :grid.shape[1]] = grid
    out = padded.copy()
    for total in range(1, side):
        u_sec = beamsplitter_sector(total, tau).conj()
        k = np.arange(total + 1)
        out[k, total - k] = u_sec @ padded[k, total - k]
    return _trim_grid(out, 2.5e-11)


def _trim_grid(grid: np.ndarray, tol: float) -> np.ndarray:
    def trim_len(mass):
        csum = np.cumsum(mass[::-1])[::-1]
        keep = np.nonzero(csum > tol)[0]
        return int(keep[-1]) + 1 if len(keep) else 1

    m1 = np.sum(np.abs(grid) ** 2, axis=1)
    m2 = np.sum(np.abs(grid) ** 2, axis=0)
    out = grid[:trim_len(m1), :trim_len(m2)]
    return out / np.linalg.norm(out)


def fock_truncation(spec: GaussianProbeSpec) -> np.ndarray:
    """Amplitude grid of the probe on the truncated two-mode number basis.

    The cutoff grows (from 40, doubling to 320) until the truncation keeps
    at least 1 - 1e-10 of the exact norm, and raises the last InvalidState
    if no cutoff does.  The grid is trimmed afterwards to the smallest
    per-mode cutoffs preserving the same mass.
    """
    err = None
    for cut in (40, 80, 160, 320):
        try:
            return _fock_truncation_at(spec, cut)
        except InvalidState as exc:
            err = exc
    raise err


def _fock_truncation_at(spec: GaussianProbeSpec, cutoff: int) -> np.ndarray:
    t_mat = -math.tanh(spec.r) * _squeezing_block(_spec_fields(spec))
    c2 = cutoff if (spec.family is ProbeFamily.TWO_MODE or spec.tau_in < 1.0) else 0
    grid = _squeezed_vacuum_grid(t_mat, cutoff, c2)
    if spec.family is ProbeFamily.SINGLE_MODE:
        exact_norm2 = math.cosh(spec.r)
    else:
        exact_norm2 = math.cosh(spec.r) ** 2
    kept = float(np.sum(np.abs(grid) ** 2)) / exact_norm2
    if kept < 1.0 - _NORM_TOL:
        raise InvalidState(f"cutoff {cutoff} keeps only |psi|^2 = {kept} of the squeezing")
    grid = grid / np.linalg.norm(grid)
    if spec.alpha > 0.0:
        disp = _displacement_matrix(spec.alpha * np.exp(1j * spec.mu), grid.shape[0] - 1)
        grid = disp @ grid
        edge = float(np.sum(np.abs(grid[-2:, :]) ** 2))
        if edge > _NORM_TOL * 100.0 + 1e-12:
            raise InvalidState(f"displaced state reaches the cutoff: edge mass {edge}")
        grid = grid / np.linalg.norm(grid)
    return _trim_grid(grid, _NORM_TOL / 4.0)


def grid_channel_output(grid: np.ndarray, params: ChannelPoints):
    """Dense output state and derivatives of phase+loss acting on grid mode 1.

    Returns (rho, drho_phi, drho_eta) as (D x D) matrices with the row-major
    flattening of the (mode1, mode2) grid: the channel's single-mode loss
    action with mode 2 as the spectator axis.
    """
    c1 = grid.shape[0] - 1
    if c1 < 1:
        raise InvalidInput("grid must allow at least one photon in mode 1")
    kraus = build_kraus(ChannelParams(params.phi, params.eta, c1), Scenario.SINGLE)
    rho, (drho_phi, drho_eta) = _single_mode_output(kraus.table[:, :, None] * grid, kraus)
    return rho, drho_phi, drho_eta
