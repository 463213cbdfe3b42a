"""Photon counting and homodyne detection behind a tunable output beamsplitter.

Counting works on Gaussian outputs and on number-basis outputs of both
layouts; the observables are the photon-number sum and difference of the
two detectors (for the single-mode layout both read the one mode's photon
number).  Homodyne works on Gaussian outputs only (the quadrature first
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

from .channel import (BlockDensity, ChannelPoints, FockProbe, KrausFamily, Scenario,
                      block_vectors)
from .errors import InvalidInput, Unsupported
from .gaussian import (EnergySplit, EvolvedGaussian, ProbeFamily, _matvec,
                       evolve_with_derivatives, make_probe, mode_unitary,
                       number_covariance, photon_moments, spec_from_split)
from .qfi import _check_layout, _point

_COV_RANK_TOL = 1e-12
# counting fringes are read where the difference-signal slope is maximal:
# mid-fringe for Gaussian probes, and phi = 0 for number probes, whose real
# amplitudes give a slope that goes as cos(phi)
OPERATING_PHI = math.pi / 2.0


class SchemeKind(str, Enum):
    COUNTING = "counting"
    HOMODYNE = "homodyne"


@dataclass(frozen=True)
class DetectionScheme:
    """Detection kind with its splitter transmissivity and quadrature phase;
    tau_out and xi may be arrays, one value per point of a Gaussian stack.
    A bad stacked value is named by the exception's ``index``, its flat
    position in the array that holds it."""

    kind: SchemeKind
    tau_out: float = 1.0
    xi: float = 0.0     # homodyne quadrature phase; ignored for counting

    def __post_init__(self):
        tau = np.asarray(self.tau_out, dtype=float)
        _reject(~((0.0 <= tau) & (tau <= 1.0)), "tau_out must lie in [0, 1]")
        _reject(~np.isfinite(self.xi), "xi must be finite")


def _reject(bad: np.ndarray, message: str):
    """Raise InvalidInput naming the first bad value, if any."""
    if bad.any():
        raise InvalidInput(message, index=int(np.argmax(bad)) if bad.ndim else None)


@dataclass(frozen=True)
class MomentSet:
    """First moments of the two observables, their parameter derivatives
    with respect to (phi, eta), and the symmetrized 2x2 covariance; for a
    stack, (..., 2) vectors and (..., 2, 2) covariances."""

    means: np.ndarray
    dphi: np.ndarray
    deta: np.ndarray
    cov: np.ndarray


def output_transform(scheme: DetectionScheme, state):
    """Mix the output modes of an evolved Gaussian state and its derivatives
    on the detection beamsplitter, by the symplectic splitter matrix.

    It reflects with -i: the conjugate of ``mode_unitary`` at phi = 0.  Number-
    basis outputs are read by ``counting_moments`` and are never rotated.
    """
    if not isinstance(state, EvolvedGaussian):
        raise InvalidInput(f"cannot transform {type(state).__name__}")
    b4 = mode_unitary(0.0, scheme.tau_out).conj()
    b4_h = b4.conj().swapaxes(-1, -2)
    return EvolvedGaussian(
        sigma=b4 @ state.sigma @ b4_h,
        d=_matvec(b4, state.d),
        dsigma_phi=b4 @ state.dsigma_phi @ b4_h,
        dsigma_eta=b4 @ state.dsigma_eta @ b4_h,
        dd_phi=_matvec(b4, state.dd_phi),
        dd_eta=_matvec(b4, state.dd_eta),
    )


def _check_kind(scheme: DetectionScheme, kind: SchemeKind):
    if scheme.kind != kind:
        raise InvalidInput(f"{kind.value} moments need a {kind.value} scheme")


_TO_PM = np.array([[1.0, 1.0], [1.0, -1.0]])     # (n1, n2) -> (sum, difference)


def _gaussian_number_moments(ev: EvolvedGaussian) -> MomentSet:
    d = ev.d
    n1, n2, v11 = photon_moments(ev)
    means_n = np.stack([n1, n2], axis=-1)

    def dn(dsig, dd):
        # Re(conj(d) dd) from real products: a vectorized complex product may
        # fuse them, and a signal that cancels exactly must stay exactly zero
        return (np.diagonal(dsig, axis1=-2, axis2=-1)[..., :2].real / 2.0
                + 2.0 * (d[..., :2].real * dd[..., :2].real
                         + d[..., :2].imag * dd[..., :2].imag))

    v22 = number_covariance(ev, 1, 1)
    v12 = number_covariance(ev, 0, 1)
    cov_n = np.stack([np.stack([v11, v12], axis=-1), np.stack([v12, v22], axis=-1)],
                     axis=-2)
    return MomentSet(
        means=means_n @ _TO_PM.T,
        dphi=dn(ev.dsigma_phi, ev.dd_phi) @ _TO_PM.T,
        deta=dn(ev.dsigma_eta, ev.dd_eta) @ _TO_PM.T,
        cov=_TO_PM @ cov_n @ _TO_PM.T,
    )


@dataclass(frozen=True)
class BlockDiagonals:
    """The block diagonals that two-mode counting reads, of an output and of
    its (phi, eta) derivatives: the real part of each block's main diagonal,
    the imaginary part of its first and the real part of its second.

    ``main``, ``first`` and ``second`` are (3, L_j) float arrays for
    diagonals j = 0, 1, 2, rows rho, drho_phi and drho_eta; entries run over
    lost photons m and then over k = 0..N-m-j within block m.
    """

    n_max: int
    main: np.ndarray
    first: np.ndarray
    second: np.ndarray


# (diagonal, the part of it counting reads)
_READ = ((0, np.real), (1, np.imag), (2, np.real))


def _diagonal_index(n_max: int, j: int):
    """(m, k) of each entry of diagonal j of the two-mode blocks, in the
    order of BlockDiagonals: block m holds k = 0..N-m-j."""
    sizes = np.maximum(n_max + 1 - j - np.arange(n_max + 1), 0)
    m = np.repeat(np.arange(n_max + 1), sizes)
    k = np.arange(m.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return m, k


def block_diagonals(probe: FockProbe, kraus: KrausFamily) -> BlockDiagonals:
    """BlockDiagonals of a two-mode probe's output, read from its block vectors.

    Block m is psi_m psi_m' with psi = T * c, so its diagonal j is
    psi[m, n] conj(psi[m, n + j]) on n >= m, and a derivative block
    (G psi_m) psi_m' + h.c. has (G psi)_n conj(psi_{n+j}) + psi_n
    conj((G psi)_{n+j}), G from ``kraus.generators()``.  O(N^2) work and
    memory; no block is formed.
    """
    if kraus.scenario is not Scenario.TWO:
        raise InvalidInput("block diagonals need the two-mode layout")
    psi = block_vectors(probe, kraus)
    g_psi = [g * psi for g in kraus.generators()]
    parts = []
    for j, part in _READ:
        m, k = _diagonal_index(kraus.n_max, j)
        at, right = (m, m + k), (m, m + k + j)
        v, v_right = psi[at], psi[right].conj()
        parts.append(np.array([part(v * v_right)] + [
            part(gv[at] * v_right + v * gv[right].conj()) for gv in g_psi]))
    return BlockDiagonals(kraus.n_max, *parts)


def _density_diagonals(densities) -> BlockDiagonals:
    """BlockDiagonals of two-mode BlockDensity objects (rho, drho_phi, drho_eta)."""
    return BlockDiagonals(densities[0].n_max, *(
        np.array([part(np.concatenate([b.diagonal(j) for b in d.blocks])) for d in densities])
        for j, part in _READ))


def _two_mode_counting(tau: float, diags: BlockDiagonals) -> MomentSet:
    """Counting moments of a two-mode output from its flat block diagonals.

    Block m (t = N - m photons, basis k = n1): S = t, and the splitter
    exp(-2i theta Jx), cos(theta)^2 = tau, turns D = 2 Jz into
    D' = cos 2theta D + sin 2theta Y with Y = 2 Jy, <k+1|Y|k> = -i c_k,
    c_k = sqrt((k + 1)(t - k)).  Every trace of a Hermitian block against
    D, Y, D^2, Y^2 (diagonal 2k(t - k) + t, second diagonal -c_k c_{k+1})
    or DY + YD reads its main, first and second diagonals, so each of
    <S>, <D'>, <S^2>, <S D'> and <D'^2> is one dot product per diagonal
    with a weight array over all blocks.
    """
    cos2, sin2 = 2.0 * tau - 1.0, 2.0 * math.sqrt(tau * (1.0 - tau))
    (m0, k0), (m1, k1), (m2, k2) = (_diagonal_index(diags.n_max, j) for j in range(3))
    t0, t1, t2 = ((diags.n_max - m).astype(float) for m in (m0, m1, m2))
    d = 2.0 * k0 - t0
    y = 2.0 * sin2 * np.sqrt((k1 + 1.0) * (t1 - k1))     # 2 sin 2theta c_k
    # <S>, <D'>, <S^2>, <S D'>, <D'^2> from the main diagonal; <D'>, <S D'>
    # and <D'^2> from the first; <D'^2> from the second
    sums = diags.main @ np.array([t0, cos2 * d, t0 * t0, cos2 * t0 * d,
                                  cos2 ** 2 * (d * d)
                                  + sin2 ** 2 * (2.0 * k0 * (t0 - k0) + t0)]).T
    sums[:, [1, 3, 4]] += diags.first @ np.array([y, t1 * y,
                                                  cos2 * (4.0 * k1 + 2.0 - 2.0 * t1) * y]).T
    sums[:, 4] -= diags.second @ (2.0 * sin2 ** 2 * np.sqrt((k2 + 1.0) * (t2 - k2))
                                  * np.sqrt((k2 + 2.0) * (t2 - k2 - 1.0)))
    (s, dp, ss, sd, dd), dphi, deta = sums
    return MomentSet(means=np.array([s, dp]), dphi=dphi[:2], deta=deta[:2],
                     cov=np.array([[ss - s * s, sd - s * dp], [sd - s * dp, dd - dp * dp]]))


def counting_moments(state, scheme: DetectionScheme,
                     drho_phi: BlockDensity = None,
                     drho_eta: BlockDensity = None) -> MomentSet:
    """Photon-number sum/difference moments behind the output splitter.

    ``state`` is an EvolvedGaussian, a BlockDensity or the BlockDiagonals
    of ``block_diagonals``; ``scheme`` must be a counting scheme.  A
    BlockDensity needs the matching derivative densities, in the state's
    layout.  Number-basis outputs are read off block diagonals with no
    sector unitary and take one scalar tau_out.  Single mode: S = D = n1,
    read from the main diagonal in place.  Two mode: the flat diagonals 0,
    1 and 2 of all blocks go to _two_mode_counting; BlockDiagonals carry
    them with their derivatives in O(N^2) memory where two-mode blocks take
    O(N^3).  The library reads two-mode probes that way, so only the
    benchmark under perfbench/ and the tests pass two-mode block densities.
    """
    _check_kind(scheme, SchemeKind.COUNTING)
    if isinstance(state, EvolvedGaussian):
        return _gaussian_number_moments(output_transform(scheme, state))
    if not isinstance(state, (BlockDiagonals, BlockDensity)):
        raise InvalidInput(f"cannot compute counting moments for {type(state).__name__}")
    if np.ndim(scheme.tau_out) != 0:
        raise InvalidInput("number-basis counting needs one scalar tau_out, "
                           f"got shape {np.shape(scheme.tau_out)}")
    if isinstance(state, BlockDiagonals):
        return _two_mode_counting(scheme.tau_out, state)
    if drho_phi is None or drho_eta is None:
        raise InvalidInput("number-basis counting needs the derivative densities")
    _check_layout(state, drho_phi, drho_eta)
    densities = (state, drho_phi, drho_eta)
    if state.scenario is Scenario.TWO:
        return _two_mode_counting(scheme.tau_out, _density_diagonals(densities))
    k = np.arange(state.n_max + 1.0)
    p = np.array([d.blocks[0].diagonal().real for d in densities])
    n1 = p @ k
    var = p[0] @ (k * k) - n1[0] ** 2
    return MomentSet(means=np.full(2, n1[0]), dphi=np.full(2, n1[1]),
                     deta=np.full(2, n1[2]), cov=np.full((2, 2), var))


def homodyne_moments(state, scheme: DetectionScheme) -> MomentSet:
    """Quadrature moments X_j = exp(i xi) c_j' + h.c. behind the splitter.

    Defined for Gaussian outputs and homodyne schemes only; fixed-photon-
    number outputs carry no first-moment quadrature signal.
    """
    _check_kind(scheme, SchemeKind.HOMODYNE)
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
    OPERATING_PHI and serves one parameter only, so its variance is doubled in
    the cost accounting.  Returns (var_phi, var_eta).
    """
    split = EnergySplit(n_total / 2.0, p=0.5, q=0.5)
    tau_in = split.tau_in()    # counting needs some reference light in both arms
    out = []
    for theta1, tau_out, pick in ((math.pi, 0.5, 0), (0.0, 1.0, 1)):
        spec = spec_from_split(ProbeFamily.TWO_MODE, split, theta=(theta1 - math.pi) / 2.0,
                               theta1=theta1, chi=chi, tau_in=tau_in)
        ev = evolve_with_derivatives(make_probe(spec), ChannelPoints(OPERATING_PHI, eta),
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
