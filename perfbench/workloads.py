"""The benchmark's workloads: inputs made from a seed, timed operations, gates.

A workload is a list of operations, built once per run from ``--seed`` and
repeated as passes.  ``Op.run`` is the timed call into phaseloss;
``Op.check`` runs after the timed region and raises ``GateError`` when the
output is wrong.  Each workload does most of its work in some layers and
none in others:

* ``seesaw-two``: the paper's headline computation, the two-mode see-saw.
  Time goes to the private M assembly and dense eigensolve of ``iss``.
* ``seesaw-single``: the same ``iss.optimize`` loop through the dense
  single-mode path (``channel_slds``, ``solve_sld``, ``build_m_matrix``,
  channel application); a two-mode-only change must read "no change" here.
* ``gaussian-sweep``: three in-process CLI sweeps of cheap 4x4 Gaussian
  evaluations, run serially (``--threads 1``).
* ``fock-dense``: the number-basis oracle of Gaussian probes (eigen-SLD at
  dimensions in the hundreds) and photon-counting readout of a number probe,
  the only path through ``beamsplitter_sector``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from phaseloss import bounds, channel, cli, gaussian, iss, measurement, qfi

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


class GateError(Exception):
    """An operation's output failed its correctness gate.

    ``outcome`` carries what the gate measured before it failed (iterations,
    residual, gap), so that a failed solve still shows in those figures.
    """

    def __init__(self, message, outcome=None):
        super().__init__(message)
        self.outcome = outcome


@dataclass
class Outcome:
    """What a passed gate reports about one operation."""

    records: int = 1
    iterations: int = 0
    residual: float = 0.0
    gap: float = 0.0


@dataclass
class Op:
    """A timed call and its gate; ``solve`` marks the operations whose time
    is the workload's ``solve_s``."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    solve: bool = False


def load_pinned(path=PINNED_PATH):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# see-saw workloads
# ---------------------------------------------------------------------------

SEESAW_ETA = 0.1
SEESAW_CONV_REL_TOL = 1e-5
# workload -> (scenario, cutoff, starts, stalling starts).  Starts are the
# optimizer's own seeded random probes.  Iteration counts vary from 15 to
# over 300 with the start, so every run solves the same pool of starts (the
# run seed sets their order); a fresh random start per run seed would make
# solve_s measure the start, not the code.
# Known defect: from seesaw-single starts 3, 4 and 5 the see-saw stops on a
# plateau near 1.4929, 0.4% below the 1.498939 that every start reaches in a
# long run, with a residual as small as a converged solve's.  Those solves
# would fail the gap gate, so they are not timed operations: a traced run
# solves them after its passes and reports how many stop short
# (``iss.stalled_starts``) and by how much (``iss.objective_gap``).
SEESAW = {"seesaw-two": (channel.Scenario.TWO, 120, (0, 1), ()),
          "seesaw-single": (channel.Scenario.SINGLE, 80, (0, 1), (3, 4, 5))}
# Accuracy that solve_s is conditioned on: relative distance of the returned
# probe's objective from the long-run reference of its start, and the
# stationarity residual ||M c - (c'Mc) c|| at the returned probe.
SEESAW_GAP_TOL = 1e-3
SEESAW_RESIDUAL_CAP = 5e-3
# Iterations of the reference runs in pinned.json (no early stop).
LONG_ITERS = 4000


def stationarity(probe, params, scenario):
    """Objective c'Mc and residual ||M c - (c'Mc) c|| of a probe, default weights."""
    kraus = channel.build_kraus(params, scenario)
    lim = bounds.fundamental_limits(params.n_max, params.eta)
    weights = (lim.f_phi_max_s12, lim.f_eta_max)
    slds = iss.channel_slds(probe, kraus)
    m_mat = iss.build_m_matrix(probe, slds, kraus, weights)
    c = probe.coeffs
    mc = m_mat @ c
    mu = float(np.vdot(c, mc).real)
    return mu, float(np.linalg.norm(mc - mu * c))


def seesaw_gate(probe, params, scenario, reference):
    """Outcome of a see-saw solve, or GateError if it misses the accuracy gate."""
    objective, residual = stationarity(probe, params, scenario)
    gap = (reference - objective) / reference
    outcome = Outcome(residual=residual, gap=gap)
    if not abs(gap) <= SEESAW_GAP_TOL:
        raise GateError(f"objective {objective:.8f} is {gap:.2e} from reference "
                        f"{reference:.8f} (tolerance {SEESAW_GAP_TOL})", outcome)
    if not residual <= SEESAW_RESIDUAL_CAP:
        raise GateError(f"stationarity residual {residual:.2e} exceeds "
                        f"{SEESAW_RESIDUAL_CAP}", outcome)
    return outcome


def seesaw_solve(workload, start):
    """The see-saw call of one start of ``workload``, and its gate."""
    scenario, n_max, _, _ = SEESAW[workload]
    params = channel.ChannelParams(0.0, SEESAW_ETA, n_max)
    config = iss.IssConfig(conv_rel_tol=SEESAW_CONV_REL_TOL, seed=start, restarts=1)
    reference = load_pinned()["seesaw"][workload][str(start)]

    def run():
        return iss.optimize(config, params, scenario)

    def check(result):
        try:
            outcome = seesaw_gate(result.probe, params, scenario, reference)
        except GateError as exc:
            exc.outcome.iterations = result.iterations
            raise
        outcome.iterations = result.iterations
        return outcome

    return run, check


def seesaw_ops(workload, seed):
    starts = SEESAW[workload][2]
    ops = []
    for k in np.random.default_rng(seed).permutation(len(starts)):
        run, check = seesaw_solve(workload, starts[k])
        ops.append(Op(f"{workload} start {starts[k]}", run, check, solve=True))
    return ops


def stalled_starts(workload):
    """Solve the known stalling starts untimed: how many miss the gap gate,
    and the largest relative gap from the reference among them."""
    stalled, worst = 0, 0.0
    for start in SEESAW[workload][3]:
        run, check = seesaw_solve(workload, start)
        try:
            gap = check(run()).gap
        except GateError as exc:
            stalled, gap = stalled + 1, exc.outcome.gap
        worst = max(worst, gap)
    return stalled, worst


# ---------------------------------------------------------------------------
# gaussian-sweep
# ---------------------------------------------------------------------------

SWEEP_BUDGETS = tuple(int(b) for b in np.unique(np.round(np.logspace(1, 6, 40))))
SWEEP_ANCHOR_ETAS = (0.1, 0.5)
SWEEP_ANCHOR_BUDGETS = (10, 1000000)
# name -> (CLI arguments sweeping three angles or splitter values, pinned columns)
SWEEPS = {
    "gaussian-scan": (["gaussian-scan", "--chi", "0,pi/4,pi/2"],
                      ("f_phi_norm", "f_eta_norm", "f_phieta", "r_h_bar")),
    "homodyne": (["measure", "--scheme", "homodyne", "--xi", "0,pi/4,pi/2"],
                 ("var_phi_fmax", "var_eta_fmax", "r_scheme", "r_h_bar")),
    "counting": (["measure", "--scheme", "counting", "--tau-out", "0.25,0.5,1"],
                 ("var_phi_fmax", "var_eta_fmax", "r_scheme", "r_h_bar")),
}
SWEEP_ANGLES = 3
# One CLI worker, so the rows run serially.  They are Python-bound: on two
# CPUs the default two workers only contend for the interpreter lock, which
# makes a pass slower (7.6-9.7 s against 5.4-6.4 s serial) and less steady.
SWEEP_THREADS = 1
_PHYS_TOL = 1e-6
_PIN_RTOL = 1e-8
# A variance times the channel optimum above this means the scheme carries no
# information on that parameter.  Its exact value is infinite; whether a
# table shows inf or some 1e32 depends only on rounding (1/cos(pi/2)^2, say),
# so values in this regime match each other and nothing else.
NO_INFORMATION = 1e15


def pinned_match(got, want):
    """Whether a table value agrees with its pinned value."""
    if abs(want) > NO_INFORMATION or abs(got) > NO_INFORMATION:
        return abs(want) > NO_INFORMATION and abs(got) > NO_INFORMATION
    return math.isclose(got, want, rel_tol=_PIN_RTOL, abs_tol=1e-12)


def sweep_etas(seed):
    """Two pinned anchor transmissivities plus eight drawn from the seed."""
    drawn = np.random.default_rng(seed).uniform(0.05, 0.95, 8)
    return SWEEP_ANCHOR_ETAS + tuple(round(float(e), 4) for e in drawn)


def sweep_argv(sweep, budgets, etas, out_path):
    args = SWEEPS[sweep][0]
    return args + ["--threads", str(SWEEP_THREADS),
                   "--n", ",".join(str(b) for b in budgets),
                   "--eta", ",".join(repr(e) for e in etas), "--out", out_path]


def run_cli(argv):
    """In-process CLI call with its progress lines captured; returns the exit code."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def check_table(sweep, path, budgets, etas, pinned_rows):
    """Validate one sweep table: row count, order, physical ranges, anchor values."""
    columns = SWEEPS[sweep][1]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = len(budgets) * len(etas) * SWEEP_ANGLES
    if len(rows) != expected:
        raise GateError(f"{sweep}: {len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        n = budgets[i // (len(etas) * SWEEP_ANGLES)]
        eta = etas[(i // SWEEP_ANGLES) % len(etas)]
        if int(row["n"]) != n or not math.isclose(float(row["eta"]), eta, rel_tol=1e-12):
            raise GateError(f"{sweep}: row {i} is ({row['n']}, {row['eta']}), "
                            f"expected ({n}, {eta})")
        values = {col: float(row[col]) for col in columns}
        if any(math.isnan(v) for v in values.values()):
            raise GateError(f"{sweep}: row {i} has NaN")
        if sweep == "gaussian-scan":
            ok = (-_PHYS_TOL <= values["f_phi_norm"] <= 1 + _PHYS_TOL
                  and -_PHYS_TOL <= values["f_eta_norm"] <= 1 + _PHYS_TOL)
        else:
            # quantum Cramer-Rao: a scheme's variance times the channel optimum >= 1
            ok = (values["var_phi_fmax"] >= 1 - _PHYS_TOL
                  and values["var_eta_fmax"] >= 1 - _PHYS_TOL
                  and -_PHYS_TOL <= values["r_scheme"] <= 1 + _PHYS_TOL)
        if not (ok and 0 < values["r_h_bar"] <= 1 + _PHYS_TOL):
            raise GateError(f"{sweep}: row {i} out of physical range: {values}")
    for anchor in pinned_rows:
        i = ((budgets.index(anchor["n"]) * len(etas) + etas.index(anchor["eta"]))
             * SWEEP_ANGLES + anchor["angle"])
        for col in columns:
            got, want = float(rows[i][col]), anchor[col]
            if not pinned_match(got, want):
                raise GateError(f"{sweep}: row {i} {col} = {got!r}, pinned {want!r}")
    return Outcome(records=len(rows))


def gaussian_sweep_ops(seed, pinned, scratch):
    etas = sweep_etas(seed)
    ops = []
    for sweep in SWEEPS:
        path = os.path.join(scratch, f"{sweep}.csv")
        argv = sweep_argv(sweep, SWEEP_BUDGETS, etas, path)

        def check(code, sweep=sweep, path=path):
            if code != cli.EXIT_OK:
                raise GateError(f"{sweep}: exit code {code}")
            return check_table(sweep, path, list(SWEEP_BUDGETS), list(etas),
                               pinned["gaussian-sweep"][sweep])

        ops.append(Op(sweep, lambda argv=argv: run_cli(argv), check, solve=True))
    return ops


# ---------------------------------------------------------------------------
# fock-dense
# ---------------------------------------------------------------------------

# Low-energy probes for the number-basis oracle:
# (family, n_alpha, n_r, theta1, theta2, chi, tau_in).  Truncated dimensions
# run from 31 to 675.  The seed rotates each probe by local phases (a
# common phase when tau_in < 1, so the input splitter sees the same state up
# to a rotation) and draws the channel point, which leaves every truncated
# dimension, and so the cost, unchanged.
ORACLE_PROBES = (
    ("single", 1.0, 0.2, 1.0, 0.0, 0.0, 1.0),
    ("single", 2.5, 0.3, 2.0, 0.0, 0.0, 1.0),
    ("single", 1.0, 0.2, 1.0, 0.0, 0.0, 0.7),
    ("two", 0.5, 0.2, 1.0, 2.0, 0.0, 1.0),
    ("two", 1.0, 0.3, 1.0, 2.0, math.pi / 2, 1.0),
    ("two", 1.5, 0.3, 1.0, 2.0, math.pi / 4, 1.0),
    ("two", 0.5, 0.2, 1.0, 2.0, math.pi / 4, 0.8),
    ("two", 1.5, 0.3, 1.0, 2.0, 0.0, 0.6),
    ("two", 1.0, 0.3, 1.0, 2.0, math.pi / 2, 0.7),
)
# the oracle point whose time is solve_s: the largest grid, 27 x 25 = 675
ORACLE_SOLVE = 8
ORACLE_RTOL = 1e-4
READOUT_N = 100
READOUT_TAUS = tuple(float(t) for t in np.linspace(0.05, 0.95, 10))
READOUT_RTOL = 1e-8


def oracle_spec(base, rng):
    family, n_alpha, n_r, theta1, theta2, chi, tau_in = base
    fam = (gaussian.ProbeFamily.SINGLE_MODE if family == "single"
           else gaussian.ProbeFamily.TWO_MODE)
    d1 = float(rng.uniform(0, 2 * math.pi))
    d2 = d1 if tau_in < 1.0 else float(rng.uniform(0, 2 * math.pi))
    per_squeezer = n_r if family == "single" else n_r / 2.0
    theta1, theta2 = theta1 + 2 * d1, theta2 + 2 * d2
    return gaussian.GaussianProbeSpec(
        fam, alpha=math.sqrt(n_alpha), mu=d1, r=math.asinh(math.sqrt(per_squeezer)),
        theta=(theta1 + theta2 - math.pi) / 2.0, theta1=theta1, theta2=theta2,
        chi=chi, tau_in=tau_in)


def oracle_point(spec, params):
    """Information matrix of a Gaussian probe by the dense number-basis route."""
    grid = gaussian.mix_modes(gaussian.fock_truncation(spec), spec.tau_in)
    rho, dphi, deta = gaussian.grid_channel_output(grid, params)

    def block(mat):
        return channel.BlockDensity(channel.Scenario.SINGLE, mat.shape[0] - 1, [mat])

    return qfi.qfi_matrix(block(rho), block(dphi), block(deta), method="eigen").f


def oracle_gate(f, spec, params):
    ref = gaussian.gaussian_qfi(gaussian.make_probe(spec), params, spec.tau_in).f
    err = float(np.abs(f - ref).max() / np.abs(ref).max())
    if not err <= ORACLE_RTOL:
        raise GateError(f"oracle differs from the covariance formula by {err:.2e}")
    return Outcome()


def _spin_moments(blocks, n_max, tau):
    """Expectations of T, D', T^2, T D' and D'^2 over number-basis blocks.

    In the sector of total photons T, with basis index k = n1, the difference
    n1 - n2 is 2 Jz, and the detection splitter exp(-2i theta Jx),
    cos(theta)^2 = tau, turns it into D' = 2 (cos 2theta Jz + sin 2theta Jy).
    Everything reduces to the three innermost diagonals of each block.
    """
    cos2, sin2 = 2 * tau - 1, 2 * math.sqrt(tau * (1 - tau))
    tot = {"s": 0.0, "d": 0.0, "ss": 0.0, "sd": 0.0, "dd": 0.0}
    for m, b in enumerate(blocks):
        t = n_max - m
        k = np.arange(t + 1)
        jz = k - t / 2.0
        a = np.sqrt((k[:-1] + 1.0) * (t - k[:-1]))      # <k+1| a1'a2 |k>
        diag = np.diag(b).real
        im1 = np.diag(b, 1).imag
        tr = float(diag.sum())
        tr_jz = float(jz @ diag)
        tr_jy = float(a @ im1)
        tr_jz2 = float((jz ** 2) @ diag)
        tr_jy2 = (float(diag @ (k * (t - k + 1.0) + (k + 1.0) * (t - k)))
                  - 2.0 * float((a[:-1] * a[1:] @ np.diag(b, 2)).real)) / 4.0
        tr_jzjy = float(((jz[:-1] + jz[1:]) * a) @ im1)
        d = 2 * (cos2 * tr_jz + sin2 * tr_jy)
        dd = 4 * (cos2 ** 2 * tr_jz2 + sin2 ** 2 * tr_jy2 + cos2 * sin2 * tr_jzjy)
        tot["s"] += t * tr
        tot["d"] += d
        tot["ss"] += t * t * tr
        tot["sd"] += t * d
        tot["dd"] += dd
    return tot


def readout_reference(rho, drho_phi, drho_eta, tau):
    """Sum/difference counting moments by the spin-rotation identity.

    Independent of ``output_transform``: no sector unitary is built.
    Returns (means, dphi, deta, cov) in the order of ``MomentSet``.
    """
    r = _spin_moments(rho.blocks, rho.n_max, tau)
    p = _spin_moments(drho_phi.blocks, rho.n_max, tau)
    e = _spin_moments(drho_eta.blocks, rho.n_max, tau)
    cov = np.array([[r["ss"] - r["s"] ** 2, r["sd"] - r["s"] * r["d"]],
                    [r["sd"] - r["s"] * r["d"], r["dd"] - r["d"] ** 2]])
    return (np.array([r["s"], r["d"]]), np.array([p["s"], p["d"]]),
            np.array([e["s"], e["d"]]), cov)


def readout_gate(result, rho, drho_phi, drho_eta, tau):
    moments, variances = result
    ref = readout_reference(rho, drho_phi, drho_eta, tau)
    got = (moments.means, moments.dphi, moments.deta, moments.cov)
    for name, g, w in zip(("means", "dphi", "deta", "cov"), got, ref):
        scale = max(float(np.abs(w).max()), 1.0)
        if not float(np.abs(np.asarray(g) - w).max()) <= READOUT_RTOL * scale:
            raise GateError(f"readout {name} at tau_out={tau:.3f} is {g}, "
                            f"reference {w}")
    # compare information 1/var; a parameter with no signal has information
    # at the rounding level of the moments, so allow that much
    means, dphi, deta, cov = ref
    floor = 1e-12 * max(float(np.abs(np.concatenate([means, dphi, deta])).max()), 1.0)
    lam_min = float(np.linalg.eigvalsh(cov).min())
    for name, g, v in zip(("var_phi", "var_eta"), (dphi, deta), variances):
        info = 0.0 if math.isinf(v) else 1.0 / v
        want = float(g @ np.linalg.solve(cov, g))
        tol = 1e-6 * want + (2.0 * float(np.linalg.norm(g)) * floor + floor ** 2) / lam_min
        if not abs(info - want) <= tol:
            raise GateError(f"readout {name} at tau_out={tau:.3f} is {v}, "
                            f"reference {1.0 / want if want else math.inf}")
    return Outcome()


def readout_state(rng):
    """Seeded two-mode number probe pushed through the channel, with derivatives."""
    probe = channel.FockProbe.random(channel.Scenario.TWO, READOUT_N, rng)
    params = channel.ChannelParams(float(rng.uniform(0, 2 * math.pi)),
                                   float(rng.uniform(0.2, 0.9)), READOUT_N)
    kraus = channel.build_kraus(params, channel.Scenario.TWO)
    rho = channel.apply_channel(probe, kraus)
    dphi, deta = channel.apply_channel_derivatives(probe, kraus)
    return rho, dphi, deta


def readout(state, tau):
    rho, dphi, deta = state
    scheme = measurement.DetectionScheme(measurement.SchemeKind.COUNTING, tau_out=tau)
    moments = measurement.counting_moments(rho, scheme, dphi, deta)
    return moments, measurement.error_propagation(moments)


def fock_dense_ops(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for i, base in enumerate(ORACLE_PROBES):
        spec = oracle_spec(base, rng)
        params = channel.ChannelParams(float(rng.uniform(0, 2 * math.pi)),
                                       float(rng.uniform(0.2, 0.9)), 1)
        ops.append(Op(f"oracle {i}",
                      lambda spec=spec, params=params: oracle_point(spec, params),
                      lambda f, spec=spec, params=params: oracle_gate(f, spec, params),
                      solve=i == ORACLE_SOLVE))
    state = readout_state(rng)
    for tau in READOUT_TAUS:
        ops.append(Op(f"readout tau_out={tau:.2f}",
                      lambda tau=tau: readout(state, tau),
                      lambda res, tau=tau: readout_gate(res, *state, tau)))
    return ops


def build(workload, seed, scratch):
    """The operation list of one pass of ``workload`` for ``seed``."""
    if workload in SEESAW:
        return seesaw_ops(workload, seed)
    if workload == "gaussian-sweep":
        return gaussian_sweep_ops(seed, load_pinned(), scratch)
    if workload == "fock-dense":
        return fock_dense_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
