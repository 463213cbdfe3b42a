"""Photon counting and homodyne detection behind a tunable output beamsplitter.

Counting works on both Gaussian outputs and two-mode number-basis outputs;
the observables are the photon-number sum and difference of the two
detectors.  Homodyne works on Gaussian outputs only (the quadrature first
moments of a fixed-total-photon state vanish identically).  Estimation uses
first moments: the generalized error propagation inverts the observable
covariance against the parameter derivatives of the means.

Gaussian outputs may be stacks of points (see ``gaussian``); the detection
scheme's tau_out and xi then broadcast against the stack, and every moment
and variance comes out with the stack's leading shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import BlockDensity, ChannelPoints, Scenario
from .errors import InvalidInput, Unsupported
from .gaussian import (EnergySplit, EvolvedGaussian, GaussianState,
                       ProbeFamily, _matvec, evolve_with_derivatives, make_probe,
                       number_covariance, spec_from_split)
from .qfi import _check_layout, _point

_COV_RANK_TOL = 1e-12


class SchemeKind(str, Enum):
    COUNTING = "counting"
    HOMODYNE = "homodyne"


@dataclass(frozen=True)
class DetectionScheme:
    """Detection kind with its splitter transmissivity and quadrature phase;
    tau_out and xi may be arrays, one value per point of a Gaussian stack."""

    kind: SchemeKind
    tau_out: float = 1.0
    xi: float = 0.0     # homodyne quadrature phase; ignored for counting

    def __post_init__(self):
        tau = np.asarray(self.tau_out, dtype=float)
        if not np.all((0.0 <= tau) & (tau <= 1.0)):
            raise InvalidInput("tau_out must lie in [0, 1]")


@dataclass(frozen=True)
class MomentSet:
    """First moments of the two observables, their parameter derivatives
    with respect to (phi, eta), and the symmetrized 2x2 covariance; for a
    stack, (..., 2) vectors and (..., 2, 2) covariances."""

    means: np.ndarray
    dphi: np.ndarray
    deta: np.ndarray
    cov: np.ndarray


def _splitter_4x4(tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    t, rcoef = np.sqrt(tau), -1j * np.sqrt(1.0 - tau)
    out = np.zeros(tau.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = t
    out[..., 0, 1] = out[..., 1, 0] = rcoef
    out[..., 2:, 2:] = out[..., :2, :2].conj()
    return out


def output_transform(scheme: DetectionScheme, state):
    """Mix the output modes of a Gaussian state (with or without derivatives)
    on the detection beamsplitter, by the symplectic splitter matrix.

    Number-basis outputs are read behind the splitter by ``counting_moments``
    and are never rotated.
    """
    if not isinstance(state, (EvolvedGaussian, GaussianState)):
        raise InvalidInput(f"cannot transform {type(state).__name__}")
    b4 = _splitter_4x4(scheme.tau_out)
    b4_h = b4.conj().swapaxes(-1, -2)
    if isinstance(state, GaussianState):
        return GaussianState(b4 @ state.sigma @ b4_h, _matvec(b4, state.d))
    return EvolvedGaussian(
        sigma=b4 @ state.sigma @ b4_h,
        d=_matvec(b4, state.d),
        dsigma_phi=b4 @ state.dsigma_phi @ b4_h,
        dsigma_eta=b4 @ state.dsigma_eta @ b4_h,
        dd_phi=_matvec(b4, state.dd_phi),
        dd_eta=_matvec(b4, state.dd_eta),
    )


_TO_PM = np.array([[1.0, 1.0], [1.0, -1.0]])     # (n1, n2) -> (sum, difference)


def _gaussian_number_moments(ev: EvolvedGaussian) -> MomentSet:
    sig, d = ev.sigma, ev.d
    state = GaussianState(sig, d)
    means_n = (np.diagonal(sig, axis1=-2, axis2=-1)[..., :2].real - 1.0) / 2.0 \
        + np.abs(d[..., :2]) ** 2

    def dn(dsig, dd):
        # Re(conj(d) dd) from real products: a vectorized complex product may
        # fuse them, and a signal that cancels exactly must stay exactly zero
        return (np.diagonal(dsig, axis1=-2, axis2=-1)[..., :2].real / 2.0
                + 2.0 * (d[..., :2].real * dd[..., :2].real
                         + d[..., :2].imag * dd[..., :2].imag))

    v11 = number_covariance(state, 0, 0)
    v22 = number_covariance(state, 1, 1)
    v12 = number_covariance(state, 0, 1)
    cov_n = np.stack([np.stack([v11, v12], axis=-1), np.stack([v12, v22], axis=-1)],
                     axis=-2)
    return MomentSet(
        means=means_n @ _TO_PM.T,
        dphi=dn(ev.dsigma_phi, ev.dd_phi) @ _TO_PM.T,
        deta=dn(ev.dsigma_eta, ev.dd_eta) @ _TO_PM.T,
        cov=_TO_PM @ cov_n @ _TO_PM.T,
    )


def _fock_counting_moments(tau: float, rho: BlockDensity, drho_phi: BlockDensity,
                           drho_eta: BlockDensity) -> MomentSet:
    """Sum/difference counting moments of a number-basis output and its
    derivatives behind the detection splitter, read off block diagonals.

    Single mode: S = D = n1, read from the diagonal.  Two mode, block m
    (t = N - m photons, basis k = n1): S = t, and the splitter
    exp(-2i theta Jx), cos(theta)^2 = tau, turns D = 2 Jz into
    D' = cos 2theta D + sin 2theta Y with Y = 2 Jy, <k+1|Y|k> = -i c_k,
    c_k = sqrt((k + 1)(t - k)).  Every trace of a Hermitian block against
    D, Y, D^2, Y^2 (diagonal 2k(t - k) + t, second diagonal -c_k c_{k+1})
    or DY + YD reads its main, first and second diagonals.
    """
    densities = (rho, drho_phi, drho_eta)
    n_max = rho.n_max
    if rho.scenario is Scenario.SINGLE:
        k = np.arange(n_max + 1.0)
        p = np.array([d.blocks[0].diagonal().real for d in densities])
        n1 = p @ k
        var = p[0] @ (k * k) - n1[0] ** 2
        return MomentSet(means=np.full(2, n1[0]), dphi=np.full(2, n1[1]),
                         deta=np.full(2, n1[2]), cov=np.full((2, 2), var))
    cos2, sin2 = 2.0 * tau - 1.0, 2.0 * math.sqrt(tau * (1.0 - tau))
    sums = np.zeros((3, 5))     # per density: <S>, <D'>, <S^2>, <S D'>, <D'^2>
    for m, blocks in enumerate(zip(*(d.blocks for d in densities))):
        t = n_max - m
        k = np.arange(t + 1.0)
        d = 2.0 * k - t
        c = np.sqrt((k[:-1] + 1.0) * (t - k[:-1]))
        for out, b in zip(sums, blocks):
            p, y, w = b.diagonal().real, b.diagonal(1).imag, b.diagonal(2).real
            tr = p.sum()
            diff = cos2 * (d @ p) + 2.0 * sin2 * (c @ y)
            diff2 = (cos2 ** 2 * ((d * d) @ p)
                     + sin2 ** 2 * ((2.0 * k * (t - k) + t) @ p - 2.0 * ((c[:-1] * c[1:]) @ w))
                     + 2.0 * cos2 * sin2 * (((d[:-1] + d[1:]) * c) @ y))
            out += (t * tr, diff, t * t * tr, t * diff, diff2)
    (s, dp, ss, sd, dd), dphi, deta = sums
    return MomentSet(means=np.array([s, dp]), dphi=dphi[:2], deta=deta[:2],
                     cov=np.array([[ss - s * s, sd - s * dp], [sd - s * dp, dd - dp * dp]]))


def counting_moments(state, scheme: DetectionScheme,
                     drho_phi: BlockDensity = None,
                     drho_eta: BlockDensity = None) -> MomentSet:
    """Photon-number sum/difference moments behind the output splitter.

    ``state`` is either an EvolvedGaussian or a BlockDensity; the latter
    needs the matching derivative densities, in the state's layout, and is
    read off three block diagonals with no sector unitary.
    """
    if isinstance(state, EvolvedGaussian):
        return _gaussian_number_moments(output_transform(scheme, state))
    if isinstance(state, BlockDensity):
        if drho_phi is None or drho_eta is None:
            raise InvalidInput("number-basis counting needs the derivative densities")
        _check_layout(state, drho_phi, drho_eta)
        return _fock_counting_moments(scheme.tau_out, state, drho_phi, drho_eta)
    raise InvalidInput(f"cannot compute counting moments for {type(state).__name__}")


def homodyne_moments(state, scheme: DetectionScheme) -> MomentSet:
    """Quadrature moments X_j = exp(i xi) c_j' + h.c. behind the splitter.

    Defined for Gaussian outputs only; fixed-photon-number outputs carry no
    first-moment quadrature signal.
    """
    if isinstance(state, BlockDensity):
        raise Unsupported("homodyne readout is undefined for number-basis outputs")
    if not isinstance(state, EvolvedGaussian):
        raise InvalidInput(f"cannot compute homodyne moments for {type(state).__name__}")
    ev = output_transform(scheme, state)
    phase = np.exp(-1j * np.asarray(scheme.xi, dtype=float))
    sig = ev.sigma

    def mean_of(d):
        return 2.0 * (phase[..., None] * d[..., :2]).real

    var = [sig[..., k, k].real + (phase ** 2 * sig[..., k, k + 2]).real for k in (0, 1)]
    cov12 = (phase ** 2 * sig[..., 0, 3]).real + sig[..., 0, 1].real
    return MomentSet(
        means=mean_of(ev.d),
        dphi=mean_of(ev.dd_phi),
        deta=mean_of(ev.dd_eta),
        cov=np.stack([np.stack([var[0], cov12], axis=-1),
                      np.stack([cov12, var[1]], axis=-1)], axis=-2),
    )


def error_propagation(moments: MomentSet):
    """First-moment estimation variances (var_phi, var_eta), per point of a stack.

    Inverts the observable covariance on its numerical support; observables
    with no noise and no signal drop out, and a parameter with no signal at
    all gets an infinite-variance sentinel.
    """
    vals, vecs = np.linalg.eigh(moments.cov)
    floor = _COV_RANK_TOL * np.maximum(vals[..., -1], 1.0)[..., None]
    live = vals > floor
    out = []
    for g in (moments.dphi, moments.deta):
        comps = _matvec(vecs.swapaxes(-1, -2), np.asarray(g, dtype=float))
        info = np.where(live, comps ** 2 / np.where(live, vals, 1.0), 0.0).sum(axis=-1)
        # a noiseless observable with signal
        blind = (~live & (np.abs(comps) > np.sqrt(floor) * 1e3)).any(axis=-1)
        info = np.where(blind, np.inf, info)
        with np.errstate(divide="ignore"):
            out.append(_point(np.where(info > 0.0, 1.0 / info, np.inf)))
    return out[0], out[1]


def half_photon_counting(n_total: float, eta: float, chi: float = 0.0):
    """Counting variances of the split strategy: half the energy in a
    phase-friendly sub-experiment read at tau_out = 1/2, half in a
    loss-friendly one read at tau_out = 1.

    Each sub-experiment carries n_total/2 photons (split exponents
    p = q = 1/2, displacement along mu = 0), is read at the mid-fringe point
    phi = pi/2 and serves one parameter only, so its variance is doubled in
    the cost accounting.  Returns (var_phi, var_eta).
    """
    split = EnergySplit(n_total / 2.0, p=0.5, q=0.5)
    tau_in = split.tau_in()    # counting needs some reference light in both arms
    out = []
    for theta1, tau_out, pick in ((math.pi, 0.5, 0), (0.0, 1.0, 1)):
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, theta=(theta1 - math.pi) / 2.0,
                               theta1=theta1, chi=chi, tau_in=tau_in)
        ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(math.pi / 2.0, eta),
                                     tau_in)
        moments = counting_moments(ev, DetectionScheme(SchemeKind.COUNTING,
                                                       tau_out=tau_out))
        out.append(2.0 * error_propagation(moments)[pick])
    return out[0], out[1]


def scheme_incompatibility(var_phi: float, var_eta: float, c_s: float, limits) -> float:
    """Excess of the scheme's weighted cost over the state's quantum bound.

    1 - C_S / (F_phi_max var_phi + F_eta_max var_eta): zero when the scheme
    saturates the bound, approaching one as either variance blows up.
    """
    cost = limits.f_phi_max_s12 * var_phi + limits.f_eta_max * var_eta
    if math.isinf(cost):
        return 1.0
    return 1.0 - c_s / cost
