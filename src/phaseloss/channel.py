"""Phase-plus-loss channel on truncated photon-number spaces.

Two probe layouts are supported:

* ``Scenario.SINGLE`` - one lossy mode, probe sum_n c_n |n>, n = 0..N.
  The channel output is a single dense (N+1) x (N+1) density matrix.
* ``Scenario.TWO`` - lossy sensing mode plus an ideal reference mode,
  probe sum_n c_n |n>|N-n>.  Losing m photons moves the state into an
  orthogonal sector, so the output is block diagonal with blocks of
  dimension N-m+1 indexed by the number m of lost photons.

Every loss amplitude lives in one (N+1) x (N+1) table indexed by the number
m of lost photons and the input photon number n:
T[m, n] = sqrt(binomial_loss_coeff(n, m, eta)) * exp(i n phi), zero for
n < m.  The Kraus operator K_m maps |n> to T[m, n] |n - m>, so row m of
T * c holds the post-loss vector K_m c at input photon numbers n >= m.
Parameter derivatives rescale the table entrywise by generator tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import gammaln

from .errors import InvalidInput


class Scenario(str, Enum):
    SINGLE = "single"
    TWO = "two"


@dataclass(frozen=True)
class ChannelPoints:
    """Phase phi and transmissivity eta of one channel point or a stack of them.

    ``phi`` and ``eta`` are float arrays that broadcast against each other and
    against a stack of states; the Gaussian formalism needs nothing more.
    """

    phi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if not np.all((0.0 < eta) & (eta < 1.0)):
            raise InvalidInput(f"eta must lie strictly inside (0, 1), got {self.eta}")
        if not np.all(np.isfinite(phi)):
            raise InvalidInput("phi must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class ChannelParams(ChannelPoints):
    """One channel point (float phi and eta) with the photon cutoff n_max of
    its number basis."""

    phi: float
    eta: float
    n_max: int

    def __post_init__(self):
        super().__post_init__()
        if self.n_max < 1:
            raise InvalidInput("n_max must be a positive integer")
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "eta", float(self.eta))


@dataclass(frozen=True)
class FockProbe:
    """Normalized coefficient vector c_0..c_N for either scenario."""

    scenario: Scenario
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        norm = np.sum(np.abs(c) ** 2)
        if abs(norm - 1.0) > 1e-12:
            raise InvalidInput(f"probe coefficients not normalized: |c|^2 = {norm}")

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_amplitudes(scenario: Scenario, amplitudes) -> "FockProbe":
        c = np.asarray(amplitudes, dtype=complex)
        nrm = np.linalg.norm(c)
        if nrm == 0.0 or not np.all(np.isfinite(c)):
            raise InvalidInput("amplitudes must be finite and not all zero")
        return FockProbe(scenario, c / nrm)

    @staticmethod
    def fock(scenario: Scenario, n: int, n_max: int) -> "FockProbe":
        """|n> (single mode) or |n>|N-n> (two mode)."""
        if not 0 <= n <= n_max:
            raise InvalidInput("need 0 <= n <= n_max")
        c = np.zeros(n_max + 1, dtype=complex)
        c[n] = 1.0
        return FockProbe(scenario, c)

    @staticmethod
    def random(scenario: Scenario, n_max: int, rng: np.random.Generator) -> "FockProbe":
        c = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
        return FockProbe.from_amplitudes(scenario, c)


def probe_statistics(probe: FockProbe):
    """Sensing-mode photon number mean and variance of the input probe."""
    p = np.abs(probe.coeffs) ** 2
    n = np.arange(len(p))
    mean = float(np.dot(n, p))
    return mean, float(np.dot(n ** 2, p) - mean ** 2)


def _log_loss_probability(n, m, eta: float):
    """log of C(n, m) eta^(n-m) (1-eta)^m, broadcast over arrays n and m."""
    return (gammaln(n + 1) - gammaln(m + 1) - gammaln(n - m + 1)
            + (n - m) * np.log(eta) + m * np.log1p(-eta))


def binomial_loss_coeff(n: int, m: int, eta: float) -> float:
    """Probability C(n, m) eta^(n-m) (1-eta)^m of losing m photons out of n."""
    if m < 0 or m > n:
        raise InvalidInput(f"need 0 <= m <= n, got n={n}, m={m}")
    return float(np.exp(_log_loss_probability(n, m, eta)))


@dataclass(frozen=True)
class KrausFamily:
    """Kraus family as one (m, n) amplitude table plus its generator tables.

    ``table[m, n]`` is the amplitude with which K_m maps |n> to |n - m>:
    sqrt(C(n, m) eta^(n-m) (1-eta)^m) e^{i n phi} for n >= m, zero below.
    The single-mode layout embeds |n - m> at index n - m of the (N+1)-dim
    space; the two-mode layout sends it to the orthogonal block m.
    """

    scenario: Scenario
    params: ChannelParams
    table: np.ndarray = field(repr=False)

    @property
    def n_max(self) -> int:
        return self.params.n_max

    def generators(self):
        """Generator tables (G_phi, G_eta) with dT/dphi = G_phi T, dT/deta = G_eta T.

        G_phi[m, n] = i n and G_eta[m, n] = (n(1-eta) - m) / (2 eta (1-eta)).
        """
        eta = self.params.eta
        m, n = np.indices(self.table.shape)
        return 1j * n, (n * (1.0 - eta) - m) / (2.0 * eta * (1.0 - eta))


def build_kraus(params: ChannelParams, scenario: Scenario) -> KrausFamily:
    """Kraus family of the phase+loss channel at the given parameter point."""
    n = np.arange(params.n_max + 1)
    # below the diagonal (n < m) gammaln(n - m + 1) sits on a pole: log 0 = -inf
    log_amp = 0.5 * _log_loss_probability(n, n[:, None], params.eta)
    return KrausFamily(scenario, params, np.exp(log_amp + 1j * params.phi * n))


@dataclass(frozen=True)
class BlockDensity:
    """Output (or output-derivative) operator stored blockwise.

    Single-mode layout keeps one dense (N+1) x (N+1) block; the two-mode
    layout keeps one block per lost-photon count m, of dimension N-m+1.
    """

    scenario: Scenario
    n_max: int
    blocks: list

    def trace(self) -> float:
        return float(sum(np.trace(b).real for b in self.blocks))


def _check_compatible(probe: FockProbe, kraus: KrausFamily):
    if probe.scenario is not kraus.scenario:
        raise InvalidInput("probe and Kraus family disagree on the scenario")
    if probe.n_max != kraus.n_max:
        raise InvalidInput("probe and Kraus family disagree on the photon cutoff")


def block_vectors(probe: FockProbe, kraus: KrausFamily) -> np.ndarray:
    """Unnormalized post-loss vectors K_m c as the (m, n) table T * c.

    Row m holds K_m c at the input photon numbers n = m..N and is zero below.
    """
    _check_compatible(probe, kraus)
    return kraus.table * probe.coeffs


def _shift_rows(table: np.ndarray) -> np.ndarray:
    """Row m moved left by m places, zero past N: out[m, j, ...] = table[m, j + m, ...].

    Applied to rows of T * c it gives the single-mode post-loss vectors at
    their output photon numbers j = n - m; trailing spectator axes ride along.
    """
    n_pts = table.shape[0]
    m, j = np.indices((n_pts, n_pts))
    n = m + j
    inside = (n < n_pts).reshape(n.shape + (1,) * (table.ndim - 2))
    return np.where(inside, table[m, np.minimum(n, n_pts - 1)], 0.0)


def _single_mode_output(vecs: np.ndarray, kraus: KrausFamily):
    """The single-mode loss action on a table product, with its derivatives.

    ``vecs`` is T[m, n] * a[n, ...]: the lossy mode on axis 1 and any
    trailing spectator axes (none for a plain probe).  With W the shifted
    table flattened to (N+1, D), D = (N+1) times the spectator size, the
    output is rho = W^T conj(W) and each derivative is shift(G T a)^T conj(W)
    plus its adjoint, G the generator table.  Returns rho (D, D) and the
    (2, D, D) stack (drho_phi, drho_eta), row-major over (mode, spectator).
    """
    n_pts = vecs.shape[0]
    spectator = (1,) * (vecs.ndim - 2)
    w = _shift_rows(vecs).reshape(n_pts, -1)
    w_conj = w.conj()
    drho = np.empty((2, w.shape[1], w.shape[1]), dtype=complex)
    for out, gens in zip(drho, kraus.generators()):
        gw = _shift_rows(gens.reshape(gens.shape + spectator) * vecs).reshape(n_pts, -1)
        b = gw.T @ w_conj
        np.add(b, b.conj().T, out=out)
    return w.T @ w_conj, drho


def apply_channel(probe: FockProbe, kraus: KrausFamily) -> BlockDensity:
    """Channel output: dense matrix (single mode) or orthogonal blocks (two mode).

    The single-mode output sum_m (K_m c)(K_m c)' is W^T conj(W) with W the
    shifted table of post-loss vectors.
    """
    vecs = block_vectors(probe, kraus)
    n_max = kraus.n_max
    if kraus.scenario is Scenario.TWO:
        blocks = [np.outer(v[m:], v[m:].conj()) for m, v in enumerate(vecs)]
        return BlockDensity(Scenario.TWO, n_max, blocks)
    w = _shift_rows(vecs)
    return BlockDensity(Scenario.SINGLE, n_max, [w.T @ w.conj()])


def apply_channel_derivatives(probe: FockProbe, kraus: KrausFamily):
    """Parameter derivatives of the channel output, blockwise.

    Each block is (G K_m c)(K_m c)' + h.c. with the generator tables of the
    family, so per-block results stay rank <= 2.  The single-mode sum over m
    is the loss action of _single_mode_output.
    """
    vecs = block_vectors(probe, kraus)
    n_max = kraus.n_max
    if kraus.scenario is Scenario.SINGLE:
        _, drho = _single_mode_output(vecs, kraus)
        return tuple(BlockDensity(Scenario.SINGLE, n_max, [d]) for d in drho)
    out = []
    for gens in kraus.generators():
        blocks = []
        for m, (v, gv) in enumerate(zip(vecs, gens * vecs)):
            b = np.outer(gv[m:], v[m:].conj())
            blocks.append(b + b.conj().T)
        out.append(BlockDensity(Scenario.TWO, n_max, blocks))
    return tuple(out)


def beamsplitter_sector(total: int, tau: float) -> np.ndarray:
    """Beamsplitter unitary on the two-mode sector with ``total`` photons.

    Basis |k, total-k> for k = 0..total.  The transmitted amplitude is
    sqrt(tau) and the reflected one -i sqrt(1-tau), the detection-side
    convention; the preparation-side splitter (+i) is its complex conjugate.
    """
    if not (0.0 <= tau <= 1.0):
        raise InvalidInput("tau must lie in [0, 1]")
    if total == 0:
        return np.ones((1, 1), dtype=complex)
    theta = np.arccos(np.sqrt(tau))
    # the generator a1'a2 + a1 a2' is real symmetric on this basis
    k = np.arange(total)
    coupling = np.sqrt((k + 1) * (total - k))
    gen = np.zeros((total + 1, total + 1))
    gen[k + 1, k] = coupling
    gen[k, k + 1] = coupling
    vals, vecs = np.linalg.eigh(gen)
    return (vecs * np.exp(-1j * theta * vals)) @ vecs.T
