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

import bisect
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidInput
from .linalg import _tiles


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
        if not hasattr(self.n_max, "__index__") or self.n_max < 1:
            raise InvalidInput(f"n_max must be a positive integer, got {self.n_max!r}")
        object.__setattr__(self, "n_max", operator.index(self.n_max))
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
        if not abs(norm - 1.0) <= 1e-12:     # a NaN norm fails too
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


def _log_factorials(n_max: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])


def _log_loss_probability(n, m, eta: float):
    """log of C(n, m) eta^(n-m) (1-eta)^m, broadcast over integer arrays n and
    m, and -inf where m > n.  log C(n, m) is read off a table of log k!."""
    n, m = np.broadcast_arrays(n, m)
    log_fact = _log_factorials(int(n.max()))
    inside = m <= n
    m_in = np.where(inside, m, 0)
    log_p = (log_fact[n] - log_fact[m_in] - log_fact[n - m_in]
             + (n - m) * np.log(eta) + m * np.log1p(-eta))
    return np.where(inside, log_p, -np.inf)


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

    def generators(self, shifted: bool = False):
        """Generator tables (G_phi, G_eta) with dT/dphi = G_phi T, dT/deta = G_eta T.

        G_phi[m, n] = i n and G_eta[m, n] = (n(1-eta) - m) / (2 eta (1-eta)).
        ``shifted`` reads both at (m, m + j), the layout of _shift_rows.
        """
        eta = self.params.eta
        m, n = np.indices(self.table.shape)
        n = m + n if shifted else n
        return 1j * n, (n * (1.0 - eta) - m) / (2.0 * eta * (1.0 - eta))


def build_kraus(params: ChannelParams, scenario: Scenario) -> KrausFamily:
    """Kraus family of the phase+loss channel at the given parameter point."""
    n = np.arange(params.n_max + 1)
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


def _shift_rows(table: np.ndarray, right: bool = False) -> np.ndarray:
    """Row m moved left by m places, zero past N: out[m, j, ...] = table[m, j + m, ...].

    On T * c it gives the post-loss vectors at output photon numbers j = n - m;
    trailing axes ride along.  ``right`` moves row m right, zero before m.
    """
    n, tail = table.shape[0], table.shape[2:]
    flat = np.zeros((2 * n * n,) + tail, dtype=np.result_type(table, float))
    narrow = flat[:n * (2 * n - 1)].reshape((n, 2 * n - 1) + tail)
    wide = flat.reshape((n, 2 * n) + tail)
    (wide if right else narrow)[:, :n] = table
    return np.ascontiguousarray((narrow if right else wide)[:, :n])


def _single_mode_output(vecs: np.ndarray, kraus: KrausFamily):
    """The single-mode loss action on a table product, with its derivatives.

    ``vecs`` is T[m, n] * a[n, ...]: the lossy mode on axis 1 and any
    trailing spectator axes (none for a plain probe).  With W the shifted
    table flattened to (N+1, D), D = (N+1) times the spectator size, the
    output is rho = W^T conj(W) and each derivative is shift(G T a)^T conj(W)
    plus its adjoint, shift(G T a) = shift(G) W for the generator table G.
    Returns rho (D, D) and (drho_phi, drho_eta) as (2, D, D), row-major.
    Each product b is written straight into its slot of the stack, and b'
    is added in place one pair of tiles (I, J), I <= J, at a time: the sum
    for (J, I) goes to a tile-sized temporary while (I, J) is summed in
    place.  Each entry is the same sum b_ij + conj(b_ji) as in b + b' (not
    the adjoint of its mirror, which would flip the sign of zero imaginary
    parts), so no D x D array is alive besides the three returned.
    """
    n_pts = vecs.shape[0]
    spectator = (1,) * (vecs.ndim - 2)
    shifted = _shift_rows(vecs)
    w = shifted.reshape(n_pts, -1)
    w_conj = w.conj()
    drho = np.empty((2, w.shape[1], w.shape[1]), dtype=complex)
    tiles = _tiles(w.shape[1])
    for out, gens in zip(drho, kraus.generators(shifted=True)):
        gw = (gens.reshape(gens.shape + spectator) * shifted).reshape(n_pts, -1)
        np.matmul(gw.T, w_conj, out=out)
        del gw                                  # before the next generator's product
        for k, rows in enumerate(tiles):
            for cols in tiles[k:]:
                lower = out[cols, rows] + out[rows, cols].conj().T
                out[rows, cols] += out[cols, rows].conj().T
                out[cols, rows] = lower
    return w.T @ w_conj, drho


def _loss_factors(n_max: int, eta: float) -> np.ndarray:
    """Rows log beta, log g^2, log |d|^2 of the factors of T[m, n] = b_m g_{n-m} d_n.

    beta_m = b_m^2 = (L^2 (1-eta))^m / m!, g_a^2 = (L^2 eta)^a / a!, |d_n|^2 =
    n! / L^2n, L^2 = N/e, each row shifted so its maximum is E, the mean of the
    maxima (T is unchanged): products stay below e^2E, and 2E <= 662 confines
    underflow to terms below 1e-20.  Else InvalidInput names the largest cutoff.
    """
    def fit(n):
        k, log_fact, log_l2 = np.arange(n + 1), _log_factorials(n), math.log(n) - 1.0
        slopes = (log_l2 + math.log1p(-eta), log_l2 + math.log(eta), -log_l2)
        logs = np.outer(slopes, k) + np.outer((-1.0, -1.0, 1.0), log_fact)
        tops = logs.max(axis=1)
        if 2.0 * tops.mean() > -math.log(np.finfo(float).tiny) - 46.0:
            return None
        return logs + (tops.mean() - tops)[:, None]

    if (logs := fit(n_max)) is None:
        top = bisect.bisect_left(range(1, n_max), True, key=lambda n: fit(n) is None)
        raise InvalidInput(f"single-mode M fits cutoffs up to {top} at eta={eta}, not {n_max}")
    return logs


def _single_mode_adjoint(y: np.ndarray, z: np.ndarray, kraus: KrausFamily) -> np.ndarray:
    """sum_m K_m' X_m K_m, X_m = Y + m Z read on its leading (N+1-m) square: on each
    diagonal k - i a Toeplitz product of beta_m (Y) or m beta_m (Z) with the shifted
    rows of g g^T X, all in one real matmul, times conj(d_i) d_k."""
    n = kraus.n_max + 1
    log_beta, log_g2, log_d2 = _loss_factors(kraus.n_max, kraus.params.eta)
    k, beta = np.arange(n), np.exp(log_beta)
    kernels = np.broadcast_to(np.stack([beta, k * beta], axis=-1), (n, n, 2))
    toeplitz = _shift_rows(kernels, right=True).transpose(1, 0, 2).reshape(n, 2 * n)
    gx = np.exp(0.5 * (log_g2[:, None] + log_g2))[..., None] * np.stack([y, z], axis=-1)
    diagonals = _shift_rows(gx).transpose(0, 2, 1).reshape(2 * n, n)
    sums = (toeplitz @ diagonals.view(float)).view(complex)
    sums[:, 0] *= 0.5                   # the main diagonal, counted twice below
    m_mat = _shift_rows(sums * np.exp(1j * kraus.params.phi * k), right=True)
    m_mat *= np.exp(0.5 * (log_d2[:, None] + log_d2))
    return m_mat + m_mat.conj().T


def apply_channel(probe: FockProbe, kraus: KrausFamily) -> BlockDensity:
    """Channel output: dense matrix (single mode) or orthogonal blocks (two mode).

    The single-mode output sum_m (K_m c)(K_m c)' is W^T conj(W) with W the
    shifted table of post-loss vectors.  The library reads two-mode outputs
    from their block vectors, so only the benchmark under perfbench/ and the
    tests call the two-mode branch.
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
    is the loss action of _single_mode_output.  As for apply_channel, only
    the benchmark under perfbench/ and the tests call the two-mode branch.
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
