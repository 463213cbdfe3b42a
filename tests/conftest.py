"""Shared oracle helpers: independent routes to the quantities under test."""

import math
import tracemalloc

import numpy as np

from phaseloss.channel import (ChannelParams, FockProbe, Scenario, apply_channel,
                               apply_channel_derivatives, beamsplitter_sector,
                               build_kraus)
from phaseloss.errors import InvalidInput, InvalidState
from phaseloss.gaussian import (GaussianProbeSpec, ProbeFamily, fock_truncation,
                                grid_channel_output, mix_modes)
from phaseloss.iss import CONV_WINDOW, build_m_matrix, channel_slds
from phaseloss.linalg import DEFAULT_RANK_TOL, PSD_TOL, hermitianize


def kraus_matrix(kraus, m, which=None):
    """Dense K_m, or its derivative along ``which`` ("phi" or "eta").

    (N+1) x (N+1) zero padded for the single-mode layout, (N-m+1) x (N+1)
    for the two-mode layout: row j holds the table entry at column n = j + m.
    """
    table = kraus.table
    if which is not None:
        table = kraus.generators()[("phi", "eta").index(which)] * table
    npts = kraus.n_max + 1
    d = npts - m
    rows = npts if kraus.scenario is Scenario.SINGLE else d
    k = np.zeros((rows, npts), dtype=complex)
    k[np.arange(d), np.arange(m, npts)] = table[m, m:]
    return k


def dense(density):
    """Direct sum of the blocks of a BlockDensity (the block itself for single mode)."""
    if density.scenario is Scenario.SINGLE:
        return density.blocks[0].copy()
    dim = sum(b.shape[0] for b in density.blocks)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in density.blocks:
        d = b.shape[0]
        out[at:at + d, at:at + d] = b
        at += d
    return out


def pre_qfi(probe, a, kraus, which):
    """Quadratic information witness 2 Tr(drho A) - Tr(rho A^2).

    Maximized over Hermitian A exactly by the SLD of ``which`` ("phi" or
    "eta"), where it equals that parameter's QFI.  ``a`` is dense for the
    single-mode layout, a list of blocks for the two-mode one.
    """
    rho = apply_channel(probe, kraus)
    drho = apply_channel_derivatives(probe, kraus)[("phi", "eta").index(which)]
    blocks_a = [a] if kraus.scenario is Scenario.SINGLE else a
    total = 0.0
    for rho_b, drho_b, a_b in zip(rho.blocks, drho.blocks, blocks_a):
        total += 2.0 * np.trace(drho_b @ a_b).real
        total -= np.trace(rho_b @ a_b @ a_b).real
    return float(total)


def kraus_sum_output(probe, kraus, which=None):
    """Single-mode output sum_m K_m |c><c| K_m' from the dense Kraus matrices.

    With ``which`` ("phi" or "eta") the derivative sum_m (dK_m c)(K_m c)' + h.c.
    """
    npts = kraus.n_max + 1
    out = np.zeros((npts, npts), dtype=complex)
    for m in range(npts):
        v = kraus_matrix(kraus, m) @ probe.coeffs
        if which is None:
            out += np.outer(v, v.conj())
        else:
            b = np.outer(kraus_matrix(kraus, m, which) @ probe.coeffs, v.conj())
            out += b + b.conj().T
    return out


def descending_eigh(h):
    """Eigenvalues of the Hermitian part of h, descending, and their eigenvectors."""
    vals, vecs = np.linalg.eigh(hermitianize(h))
    return vals[::-1], vecs[:, ::-1]


def traced_peak(run):
    """run() and the peak of its traced allocations, in bytes, above what was
    allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def support_eig_dense_buffer(rho):
    """support_eig as first written: a zeroed D x D factor buffer and one
    full-matrix PSD check; the same pivots, stop and thin SVD otherwise."""
    rho = np.asarray(rho)
    if not np.all(np.isfinite(rho)):
        raise InvalidInput("matrix has non-finite entries")
    resid = rho.diagonal().real.copy()
    rows = np.zeros(rho.shape, dtype=complex)      # row k holds column k of L
    stop, rank = len(resid) * np.finfo(float).eps * resid.max(initial=0.0), 0
    while rank < len(resid) and resid.max() > stop:
        j = int(np.argmax(resid))
        col = (rho[:, j] - rows[:rank].T @ rows[:rank, j].conj()) / np.sqrt(resid[j])
        rows[rank], rank = col, rank + 1
        resid -= np.abs(col) ** 2
    factor = rows[:rank].T
    if resid.min(initial=0.0) < -PSD_TOL or np.abs(rho - factor @ factor.conj().T).max() > PSD_TOL:
        raise InvalidState("matrix is not positive semidefinite")
    u, s, _ = np.linalg.svd(factor, full_matrices=False)
    keep = s ** 2 > DEFAULT_RANK_TOL * s[:1] ** 2
    return s[keep] ** 2, u[:, keep]


def sld_oracle(rho, drho, rank_tol=1e-12):
    """SLD of one derivative, solved entry by entry in the eigenbasis of rho."""
    p, u = descending_eigh(rho)
    d_eig = u.conj().T @ drho @ u
    den = p[:, None] + p[None, :]
    mask = den > rank_tol * max(p[0], np.finfo(float).tiny)
    l_eig = np.zeros_like(d_eig)
    l_eig[mask] = 2.0 * d_eig[mask] / den[mask]
    return hermitianize(u @ l_eig @ u.conj().T)


def single_mode_m_matrix(slds, kraus, weights):
    """Single-mode see-saw operator by the loop over lost-photon counts m.

    Block m adds conj(T_m) T_m^T times 2 conj(G_m) L + 2 L G_m - L^2 read on
    the leading (N+1-m) square of each dense witness, with the generator rows
    G_m taken straight from the tables.
    """
    npts = kraus.n_max + 1
    m_mat = np.zeros((npts, npts), dtype=complex)
    for l_op, gens, w in zip(slds, kraus.generators(), weights):
        if math.isinf(w):
            continue
        l_sq = l_op @ l_op
        for m in range(npts):
            d = npts - m
            g = gens[m, m:]
            l_b, l_b_sq = l_op[:d, :d], l_sq[:d, :d]
            x = 2.0 * np.conj(g)[:, None] * l_b + 2.0 * l_b * g[None, :] - l_b_sq
            s = kraus.table[m, m:]
            m_mat[m:, m:] += (np.conj(s)[:, None] * x * s[None, :]) / w
    return hermitianize(m_mat)


def plain_seesaw(config, kraus, weights):
    """(coeffs, trace, converged) of one see-saw start with no extrapolation.

    The first start of IssConfig's seeded draw; each step is the SLD pair at
    the current probe, M from it and the top eigenvector of M as the next
    probe, until the trailing window is flat or ``max_iters`` steps.
    """
    rng = np.random.default_rng(config.seed)
    coeffs = rng.standard_normal(kraus.n_max + 1) + 1j * rng.standard_normal(kraus.n_max + 1)
    coeffs /= np.linalg.norm(coeffs)
    trace = []
    for _ in range(config.max_iters):
        probe = FockProbe(kraus.scenario, coeffs)
        vals, vecs = np.linalg.eigh(
            build_m_matrix(probe, channel_slds(probe, kraus), kraus, weights))
        coeffs = vecs[:, -1]
        trace.append(float(vals[-1]))
        window = trace[-CONV_WINDOW:]
        if (len(window) == CONV_WINDOW
                and max(window) - min(window) <= config.conv_rel_tol * abs(window[-1])):
            return coeffs, np.array(trace), True
    return coeffs, np.array(trace), False


def single_mode_output_three_shift(vecs, kraus):
    """Single-mode loss action with each of T a, G_phi T a and G_eta T a shifted.

    Row m of a table moves left by m places (zero past N) through index
    arithmetic; rho = W^T conj(W) and each derivative is shift(G T a)^T conj(W)
    plus its adjoint, flattened row-major over (mode, spectator axes).
    """
    n_pts = vecs.shape[0]
    spectator = (1,) * (vecs.ndim - 2)
    m, j = np.indices((n_pts, n_pts))
    inside = (m + j < n_pts).reshape(m.shape + spectator)

    def shift(table):
        return np.where(inside, table[m, np.minimum(m + j, n_pts - 1)], 0.0).reshape(n_pts, -1)

    w = shift(vecs)
    w_conj = w.conj()
    drho = []
    for gens in kraus.generators():
        b = shift(gens.reshape(gens.shape + spectator) * vecs).T @ w_conj
        drho.append(b + b.conj().T)
    return w.T @ w_conj, np.array(drho)


def two_mode_m_matrix(coeffs, kraus, weights):
    """Two-mode see-saw operator M as one array expression over (m, n).

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


def finite_diff_output(probe, phi, eta, n_max, which, delta=1e-5):
    """Central-difference derivative of the channel output (dense form)."""
    def dense_at(p, e):
        kraus = build_kraus(ChannelParams(p, e, n_max), probe.scenario)
        return dense(apply_channel(probe, kraus))

    if which == "phi":
        hi, lo = dense_at(phi + delta, eta), dense_at(phi - delta, eta)
    else:
        hi, lo = dense_at(phi, eta + delta), dense_at(phi, eta - delta)
    return (hi - lo) / (2.0 * delta)


def pure_state_phase_qfi(coeffs):
    """4 (<dpsi|dpsi> - |<psi|dpsi>|^2) for |psi> = sum c_n e^{i n phi} |n>."""
    n = np.arange(len(coeffs))
    p = np.abs(np.asarray(coeffs)) ** 2
    return 4.0 * (np.dot(n ** 2, p) - np.dot(n, p) ** 2)


def dense_qfi(rho, drho_phi, drho_eta, rank_tol=1e-12):
    """Eigenbasis information matrix of a dense state; the reference route.

    Returns (f, i_phieta) with i_phieta = (1/2) Tr(rho [L_eta, L_phi]).
    """
    p, u = descending_eigh(rho)
    den = p[:, None] + p[None, :]
    mask = den > rank_tol * max(p[0], 1e-300)

    def sld(drho):
        de = u.conj().T @ drho @ u
        out = np.zeros_like(de)
        out[mask] = 2.0 * de[mask] / den[mask]
        return out

    def trace(l_i, l_j):
        # Tr(rho L_i L_j) in the eigenbasis of rho: sum_ab p_a (L_i)_ab (L_j)_ba
        return np.sum(p[:, None] * l_i * l_j.T)

    l_phi, l_eta = sld(drho_phi), sld(drho_eta)
    f = np.zeros((2, 2))
    f[0, 0] = trace(l_phi, l_phi).real
    f[1, 1] = trace(l_eta, l_eta).real
    t = trace(l_eta, l_phi)
    f[0, 1] = f[1, 0] = t.real
    return f, 1j * t.imag


def hcrb_upper_oracle(f, i_phieta, w):
    """C_S plus the largest singular value of sqrt(W) F^-1 I F^-1 sqrt(W),
    I = [[0, i_phieta], [-i_phieta, 0]], by a matrix square root and an SVD;
    pointwise over stacks (..., 2, 2)."""
    f_inv = np.linalg.inv(np.asarray(f, dtype=float))
    vals, vecs = np.linalg.eigh(np.asarray(w, dtype=float))
    w_half = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ vecs.swapaxes(-1, -2)
    i_pe = np.asarray(i_phieta, dtype=complex)
    i_mat = np.zeros(i_pe.shape + (2, 2), dtype=complex)
    i_mat[..., 0, 1] = i_pe
    i_mat[..., 1, 0] = -i_pe
    sandwich = w_half @ f_inv @ i_mat @ f_inv @ w_half
    c_s = np.einsum("...ij,...ji->...", np.asarray(w, dtype=float), f_inv)
    return c_s + np.linalg.svd(sandwich, compute_uv=False)[..., 0]


def grid_channel_output_oracle(grid, params):
    """Phase+loss on grid mode 1 by the loop over lost-photon counts m.

    Block m adds the outer product of the flattened post-loss grid
    T[m, n] grid[n, :] placed at rows n - m, and each derivative adds
    (G_m v)(v)' + h.c. with the generator rows taken from the tables.
    """
    c1 = grid.shape[0] - 1
    dim = grid.size
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


def fock_oracle_qfi(spec, params):
    """Number-basis route to the information matrix of a Gaussian probe.

    Builds the truncated amplitude grid, mixes in the input splitter, runs
    the sensing-mode channel densely and solves the SLDs in the eigenbasis.
    Completely independent of the covariance-matrix formulas.
    """
    grid = fock_truncation(spec)
    grid = mix_modes(grid, spec.tau_in)
    rho, dphi, deta = grid_channel_output(grid, params)
    return dense_qfi(rho, dphi, deta)


def single_mode_phase_qfi(eta, n_alpha, r):
    """Closed-form phase information of a single-mode amplitude-squeezed probe.

    Displacement sqrt(n_alpha) squeezed along itself (theta1 = mu = 0) through
    loss eta: the output quadrature variances, vacuum = 1, are
    a = eta e^{-2r} + 1 - eta (amplitude) and b = eta e^{2r} + 1 - eta
    (phase), and F_phiphi = 4 eta n_alpha / b + (b - a)^2 / (a b + 1): the
    displacement term plus the rotation information of the squeezed noise.
    """
    a = eta * math.exp(-2.0 * r) + 1.0 - eta
    b = eta * math.exp(2.0 * r) + 1.0 - eta
    return 4.0 * eta * n_alpha / b + (b - a) ** 2 / (a * b + 1.0)


def grid_moments(grid):
    """Covariance matrix and displacement of a two-mode amplitude grid."""
    c1, c2 = grid.shape[0] - 1, grid.shape[1] - 1
    if c2 < 2:
        padded = np.zeros((c1 + 1, 3), dtype=complex)
        padded[:, :c2 + 1] = grid
        grid, c2 = padded, 2
    a1 = np.diag(np.sqrt(np.arange(1, c1 + 1)), k=1)
    a2 = np.diag(np.sqrt(np.arange(1, c2 + 1)), k=1)
    ops = [np.kron(a1, np.eye(c2 + 1)), np.kron(np.eye(c1 + 1), a2)]
    ops += [ops[0].conj().T, ops[1].conj().T]
    v = grid.reshape(-1)
    d = np.array([np.vdot(v, op @ v) for op in ops])
    sigma = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            anti = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            sigma[i, j] = np.vdot(v, anti @ v) - 2.0 * d[i] * np.conj(d[j])
    return sigma, d


def random_two_mode_spec(rng, n_total_max=3.0, families=("single", "two")):
    """Random physical Gaussian probe spec with bounded energy (oracle-friendly)."""
    fam = ProbeFamily.SINGLE_MODE if rng.choice(families) == "single" else ProbeFamily.TWO_MODE
    n_r = float(rng.uniform(0.02, 0.35))
    n_a = float(rng.uniform(0.05, n_total_max - n_r))
    r = math.asinh(math.sqrt(n_r if fam is ProbeFamily.SINGLE_MODE else n_r / 2.0))
    theta1 = float(rng.uniform(0, 2 * np.pi))
    theta2 = float(rng.uniform(0, 2 * np.pi))
    chi = float(rng.choice([0.0, np.pi / 4, np.pi / 2])) if fam is ProbeFamily.TWO_MODE else 0.0
    theta = (theta1 + theta2 - np.pi) / 2.0
    tau_in = 1.0 if rng.random() < 0.6 else float(rng.uniform(0.5, 1.0))
    return GaussianProbeSpec(fam, alpha=math.sqrt(n_a), mu=float(rng.uniform(0, 2 * np.pi)),
                             r=r, theta=theta, theta1=theta1, theta2=theta2,
                             chi=chi, tau_in=tau_in)


# ---------------------------------------------------------------------------
# Gaussian per-point oracles: the former single-point bodies of the batched
# covariance path, kept as the reference the stacked arithmetic must match
# ---------------------------------------------------------------------------

_OMEGA = np.diag([1.0, 1.0, -1.0, -1.0])


def evolve_oracle(sigma, d, phi, eta, tau_in):
    """One point through beamsplitter, phase and loss by dense 4x4 products.

    Returns (sigma, d, dsigma_phi, dsigma_eta, dd_phi, dd_eta).
    """
    t, rcoef = math.sqrt(tau_in), 1j * math.sqrt(1.0 - tau_in)
    u = np.array([[np.exp(1j * phi) * t, np.exp(1j * phi) * rcoef], [rcoef, t]])
    u4 = np.zeros((4, 4), dtype=complex)
    u4[:2, :2], u4[2:, 2:] = u, u.conj()
    d_gen = np.diag([1j, 0.0, -1j, 0.0])
    root = np.diag([math.sqrt(eta), 1.0, math.sqrt(eta), 1.0]).astype(complex)
    root_eta = np.diag([0.5 / math.sqrt(eta), 0.0, 0.5 / math.sqrt(eta), 0.0])
    s_rot = u4 @ sigma @ u4.conj().T
    d_rot = u4 @ d
    ds_rot = d_gen @ s_rot + s_rot @ d_gen.conj().T
    return (root @ (s_rot - np.eye(4)) @ root + np.eye(4), root @ d_rot,
            root @ ds_rot @ root,
            root_eta @ (s_rot - np.eye(4)) @ root + root @ (s_rot - np.eye(4)) @ root_eta,
            root @ (d_gen @ d_rot), root_eta @ d_rot)


def solve_psd_oracle(mat, rhs, pinv_tol=1e-10):
    """Solve mat x = rhs, by pseudo-inverse when cond(mat) exceeds 1/pinv_tol.

    Returns (x, whether the pseudo-inverse served).
    """
    try:
        cond = np.linalg.cond(mat)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > 1.0 / pinv_tol:
        return np.linalg.pinv(mat, rcond=pinv_tol) @ rhs, True
    return np.linalg.solve(mat, rhs), False


def gaussian_qfi_oracle(evolved):
    """(F, i_phieta, pinv) of one evolved point from the covariance formulas,
    each Kronecker system solved on its own by ``solve_psd_oracle``."""
    sig, _, dsig_phi, dsig_eta, dd_phi, dd_eta = evolved
    m_mat = np.kron(sig.conj(), sig) - np.kron(_OMEGA, _OMEGA)
    vec_phi, vec_eta = dsig_phi.reshape(-1, order="F"), dsig_eta.reshape(-1, order="F")
    solved = [solve_psd_oracle(m_mat, vec_phi), solve_psd_oracle(m_mat, vec_eta),
              solve_psd_oracle(sig, dd_phi), solve_psd_oracle(sig, dd_eta)]
    sol_phi, sol_eta, inv_dphi, inv_deta = (x for x, _ in solved)

    def entry(vec_i, sol_j, dd_i, inv_dd_j):
        return (0.5 * np.vdot(vec_i, sol_j) + 2.0 * np.vdot(dd_i, inv_dd_j)).real

    f = np.zeros((2, 2))
    f[0, 0] = entry(vec_phi, sol_phi, dd_phi, inv_dphi)
    f[1, 1] = entry(vec_eta, sol_eta, dd_eta, inv_deta)
    f[0, 1] = f[1, 0] = entry(vec_phi, sol_eta, dd_phi, inv_deta)
    sandwich = np.kron(sig.conj(), _OMEGA) - np.kron(_OMEGA, sig)
    comm = np.vdot(sol_eta, sandwich @ sol_phi) + 4.0 * np.vdot(inv_deta, _OMEGA @ inv_dphi)
    return f, 1j * comm.imag, any(p for _, p in solved)


def _splitter_oracle(evolved, tau_out):
    b2 = np.array([[math.sqrt(tau_out), -1j * math.sqrt(1.0 - tau_out)],
                   [-1j * math.sqrt(1.0 - tau_out), math.sqrt(tau_out)]])
    b4 = np.zeros((4, 4), dtype=complex)
    b4[:2, :2], b4[2:, 2:] = b2, b2.conj()
    sig, d, dsig_phi, dsig_eta, dd_phi, dd_eta = evolved
    return (b4 @ sig @ b4.conj().T, b4 @ d, b4 @ dsig_phi @ b4.conj().T,
            b4 @ dsig_eta @ b4.conj().T, b4 @ dd_phi, b4 @ dd_eta)


def counting_moments_oracle(evolved, tau_out):
    """(means, dphi, deta, cov) of the detector sum and difference, one point."""
    sig, d, dsig_phi, dsig_eta, dd_phi, dd_eta = _splitter_oracle(evolved, tau_out)

    def number_cov(i, j):
        m_ij, s_ij = sig[i, j + 2] / 2.0, sig[i, j]
        return ((2.0 * (np.conj(d[i]) * np.conj(d[j]) * m_ij).real
                 + (np.conj(d[i]) * d[j] * s_ij).real
                 + abs(m_ij) ** 2 + (abs(s_ij) ** 2 - float(i == j)) / 4.0))

    def dn(dsig, dd):
        return np.array([dsig[k, k].real / 2.0 + 2.0 * (np.conj(d[k]) * dd[k]).real
                         for k in (0, 1)])

    to_pm = np.array([[1.0, 1.0], [1.0, -1.0]])
    means_n = np.array([(sig[k, k].real - 1.0) / 2.0 + abs(d[k]) ** 2 for k in (0, 1)])
    cov_n = np.array([[number_cov(0, 0), number_cov(0, 1)],
                      [number_cov(0, 1), number_cov(1, 1)]])
    return (to_pm @ means_n, to_pm @ dn(dsig_phi, dd_phi), to_pm @ dn(dsig_eta, dd_eta),
            to_pm @ cov_n @ to_pm.T)


def block_loop_counting_oracle(rho, drho_phi, drho_eta, tau_out):
    """(means, dphi, deta, cov) of the detector sum and difference of a
    two-mode number-basis output, by a loop over its blocks that reads the
    main, first and second diagonals of each (the closed forms of
    measurement._two_mode_counting, block by block)."""
    n_max = rho.n_max
    cos2, sin2 = 2.0 * tau_out - 1.0, 2.0 * math.sqrt(tau_out * (1.0 - tau_out))
    sums = np.zeros((3, 5))     # per density: <S>, <D'>, <S^2>, <S D'>, <D'^2>
    for m, blocks in enumerate(zip(rho.blocks, drho_phi.blocks, drho_eta.blocks)):
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
    return (np.array([s, dp]), dphi[:2], deta[:2],
            np.array([[ss - s * s, sd - s * dp], [sd - s * dp, dd - dp * dp]]))


def fock_counting_oracle(rho, drho_phi, drho_eta, tau_out):
    """(means, dphi, deta, cov) of the detector sum and difference of a
    number-basis output, by rotating every two-mode block with its dense
    sector unitary and reading the rotated diagonals."""
    single = rho.scenario is Scenario.SINGLE
    sums = np.zeros((3, 2))          # <n1>, <n2> of rho, drho_phi, drho_eta
    second = np.zeros((2, 2))        # <n_i n_j> of rho
    for m, blocks in enumerate(zip(rho.blocks, drho_phi.blocks, drho_eta.blocks)):
        dim = blocks[0].shape[0]
        n1 = np.arange(dim, dtype=float)
        n2 = np.zeros(dim) if single else (rho.n_max - m) - n1
        if not single:
            u = beamsplitter_sector(rho.n_max - m, tau_out)
            blocks = [u @ b @ u.conj().T for b in blocks]
        for out, b in zip(sums, blocks):
            pops = np.diag(b).real
            out += (n1 @ pops, n2 @ pops)
        pops = np.diag(blocks[0]).real
        second += np.array([[(n1 * n1) @ pops, (n1 * n2) @ pops],
                            [(n1 * n2) @ pops, (n2 * n2) @ pops]])
    to_pm = np.array([[1.0, 1.0], [1.0, -1.0]])
    cov_n = second - np.outer(sums[0], sums[0])
    return (to_pm @ sums[0], to_pm @ sums[1], to_pm @ sums[2], to_pm @ cov_n @ to_pm.T)


def homodyne_moments_oracle(evolved, tau_out, xi):
    """(means, dphi, deta, cov) of the two quadratures at phase xi, one point."""
    sig, d, _, _, dd_phi, dd_eta = _splitter_oracle(evolved, tau_out)
    phase = np.exp(-1j * xi)

    def mean_of(v):
        return np.array([2.0 * (phase * v[k]).real for k in (0, 1)])

    var = [sig[k, k].real + (phase ** 2 * sig[k, k + 2]).real for k in (0, 1)]
    cov12 = (phase ** 2 * sig[0, 3]).real + sig[0, 1].real
    return (mean_of(d), mean_of(dd_phi), mean_of(dd_eta),
            np.array([[var[0], cov12], [cov12, var[1]]]))


def error_propagation_oracle(moments, rank_tol=1e-12):
    """(var_phi, var_eta) by a loop over the eigenpairs of the covariance."""
    _, dphi, deta, cov = moments
    vals, vecs = np.linalg.eigh(cov)
    floor = rank_tol * max(vals.max(), 1.0)
    out = []
    for g in (dphi, deta):
        info = 0.0
        for lam, comp in zip(vals, vecs.T @ g):
            if lam > floor:
                info += comp ** 2 / lam
            elif abs(comp) > math.sqrt(floor) * 1e3:
                info = math.inf     # noiseless observable with signal
                break
        out.append(1.0 / info if info > 0.0 else math.inf)
    return out[0], out[1]
