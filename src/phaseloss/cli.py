"""Batch driver emitting machine-readable sweep tables.

Subcommands: optimize (probe search), gaussian-scan (Gaussian family
sweeps), measure (detection-scheme variances), bounds (closed-form limits and
the moment bound).  Tables go to --out (CSV by default, JSON with a metadata
envelope on request); progress lines go to stderr.  Every command is
deterministic given its configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import gaussian as gauss
from . import measurement as meas
from .channel import ChannelParams, ChannelPoints, Scenario, build_kraus, probe_statistics
from .errors import (DegenerateChannel, InvalidInput, InvalidState,
                     SingularInformation, Unsupported)
from .iss import IssConfig, optimize
from .qfi import QfiReport, complete_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_angle(token: str) -> float:
    """A finite float, or a multiple of pi written [a][*]pi[/b] (pi/4, -3pi/2)."""
    text = token.strip().lower().replace(" ", "")
    num, has_pi, den = text.partition("pi")
    try:
        if not has_pi:
            value = float(text)
        else:
            num = num[:-1] if num.endswith("*") else num
            value = {"": 1.0, "+": 1.0, "-": -1.0}.get(num)
            if value is None:
                value = float(num)
            if den:
                if not den.startswith("/"):
                    raise ValueError(den)
                value /= float(den[1:])
            value *= math.pi
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"malformed number {token!r}") from None
    if not math.isfinite(value):
        raise InvalidInput(f"number must be finite, got {token!r}")
    return value


def _nonempty(values):
    if not values:
        raise InvalidInput("sweep lists must be non-empty")
    return values


def _parse_floats(text: str):
    return _nonempty([_parse_angle(tok) for tok in text.split(",") if tok.strip()])


def _parse_ints(text: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInput(f"malformed integer list {text!r}") from None
    return _nonempty(values)


def load_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment, keys mirror the flags."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInput(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseloss",
        description="precision limits and probe optimization for joint "
                    "optical phase and transmissivity estimation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--n", help="comma list of photon budgets")
        p.add_argument("--eta", help="comma list of transmissivities")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=0,
                       help="accepted and ignored: rows run in order")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_opt = sub.add_parser("optimize", help="probe optimization sweep")
    common(p_opt)
    p_opt.add_argument("--scenario", choices=("single", "two"), default="two")
    p_opt.add_argument("--restarts", type=int, default=2)
    p_opt.add_argument("--max-iters", type=int, default=1000)
    p_opt.add_argument("--conv-tol", type=float, default=1e-3)
    p_opt.add_argument("--weight-phi", default=None,
                       help="objective weight for phase (inf drops it; "
                            "default: channel optimum)")
    p_opt.add_argument("--weight-eta", default=None,
                       help="objective weight for transmissivity (inf drops it)")

    p_gs = sub.add_parser("gaussian-scan", help="Gaussian probe family sweep")
    common(p_gs)
    p_gs.add_argument("--chi", default="0",
                      help="comma list of mixing angles (accepts pi/4 style)")
    p_gs.add_argument("--p", type=float, default=0.5)
    p_gs.add_argument("--q", type=float, default=0.5)
    p_gs.add_argument("--regime", choices=("disp", "sq"), default="disp")

    p_me = sub.add_parser("measure", help="detection-scheme variance sweep")
    common(p_me)
    p_me.add_argument("--scheme", choices=("counting", "homodyne"), default="counting")
    p_me.add_argument("--tau-out", default="1.0", help="comma list")
    p_me.add_argument("--xi", default="0", help="comma list (accepts pi/4 style)")
    p_me.add_argument("--probe", choices=("gaussian", "fock"), default="gaussian")
    p_me.add_argument("--chi", default="pi/2")
    p_me.add_argument("--p", type=float, default=0.5)
    p_me.add_argument("--q", type=float, default=0.5)

    p_bd = sub.add_parser("bounds", help="closed-form limits and moment bounds")
    common(p_bd)
    p_bd.add_argument("--witness-exponent", type=float, default=0.7)
    return parser


def _apply_config_file(args: argparse.Namespace, argv) -> argparse.Namespace:
    """Parse the file's flags, then the command line's after them: the last
    occurrence of a flag wins, so every flag given on the command line
    overrides the file, whatever its value."""
    if not getattr(args, "config", None):
        return args
    file_argv = []
    for key, val in load_config_file(args.config).items():
        file_argv.extend([f"--{key.replace('_', '-')}", val])
    return build_parser().parse_args([args.command, *file_argv, *argv[1:]])


def _sweep_values(args):
    n_values = _parse_ints(args.n) if args.n else [10]
    eta_values = _parse_floats(args.eta) if args.eta else [0.5]
    for eta in eta_values:
        if not (0.0 < eta < 1.0):
            raise InvalidInput(f"eta must lie in (0, 1), got {eta}")
    return n_values, eta_values


# the failures main() maps to an exit code; a batched sweep reports the
# first row that raises one
_ROW_ERRORS = (InvalidInput, DegenerateChannel, InvalidState, SingularInformation,
               Unsupported, FloatingPointError)


def _batch_rows(points, build, evaluate):
    """Rows of a sweep evaluated in batches, failing as a row-by-row run would.

    Points go in chunks of gaussian.CHUNK, which keeps memory flat however
    long the sweep.  ``build`` makes one point's input in Python;
    ``evaluate`` turns a list of inputs into (row, progress line) pairs in
    batched calls (one detection scheme, and one solve per distinct probe,
    for the whole chunk).  Every stage of ``evaluate`` is pointwise, so when
    a batch fails, evaluating its inputs one at a time is the row-by-row
    run: the first row that fails on its own raises, after the progress
    lines of the rows before it, and a failed ``build`` raises after them.
    """
    rows = []
    for lo in range(0, len(points), gauss.CHUNK):
        inputs, failure = [], None
        for point in points[lo:lo + gauss.CHUNK]:
            try:
                inputs.append(build(point))
            except _ROW_ERRORS as exc:
                failure = exc
                break
        try:
            batches = [evaluate(inputs)] if inputs else []
        except _ROW_ERRORS:
            batches = (evaluate([one]) for one in inputs)    # lazily, row by row
        for done in batches:
            for row, message in done:
                _progress(message)
                rows.append(row)
        if failure is not None:
            raise failure
    return rows


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def _json_value(value):
    """A non-finite float as its CSV token, which strict JSON can carry."""
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def write_table(rows, header, args):
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in header])
        text = buf.getvalue()
    else:
        # --threads shapes no row
        meta = {"version": __version__, "command": args.command, "seed": args.seed,
                "config": {k: _json_value(v) for k, v in vars(args).items()
                           if k not in ("command", "threads") and v is not None}}
        payload = {"meta": meta,
                   "rows": [{col: _json_value(row.get(col)) for col in header}
                            for row in rows]}
        text = json.dumps(payload, indent=2, default=_fmt, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

OPTIMIZE_HEADER = ["n", "eta", "f_phiphi", "f_etaeta", "f_phieta", "f_norm",
                   "mean_n1", "var_n1", "r_h_bar", "converged", "iters", "gap"]
COEFFS_HEADER = ["n", "eta", "index", "re", "im"]


def cmd_optimize(args):
    n_values, eta_values = _sweep_values(args)
    scenario = Scenario.SINGLE if args.scenario == "single" else Scenario.TWO
    points = [(n, eta) for n in n_values for eta in eta_values]

    def parse_weight(text):
        if text is None:
            return None
        if text.strip().lower() in ("inf", "infinity"):
            return math.inf
        return _parse_angle(text)

    weight_phi = parse_weight(args.weight_phi)
    weight_eta = parse_weight(args.weight_eta)

    rows, coeff_rows = [], []
    for index, (n, eta) in enumerate(points):
        cfg = IssConfig(weight_phi=weight_phi, weight_eta=weight_eta,
                        max_iters=args.max_iters, conv_rel_tol=args.conv_tol,
                        restarts=args.restarts, seed=args.seed + 7919 * index)
        result = optimize(cfg, ChannelParams(0.0, eta, n), scenario)
        rep = result.final_qfi
        lim = bounds_mod.fundamental_limits(n, eta)
        mean_n, var_n = probe_statistics(result.probe)
        _progress(f"optimize n={n} eta={eta}: objective={result.objective_trace[-1]:.6f} "
                  f"iters={result.iterations}")
        rows.append({
            "n": n, "eta": eta,
            "f_phiphi": rep.f[0, 0], "f_etaeta": rep.f[1, 1], "f_phieta": rep.f[0, 1],
            "f_norm": 0.5 * (rep.f[0, 0] / lim.f_phi_max_s12
                             + rep.f[1, 1] / lim.f_eta_max),
            "mean_n1": mean_n, "var_n1": var_n,
            "r_h_bar": (rep.c_s / rep.c_h_bar) if rep.c_h_bar else None,
            "converged": result.converged, "iters": result.iterations, "gap": result.gap,
        })
        coeff_rows.extend({"n": n, "eta": eta, "index": k, "re": float(c.real),
                           "im": float(c.imag)} for k, c in enumerate(result.probe.coeffs))
    write_table(rows, OPTIMIZE_HEADER, args)
    if args.out:
        stem, ext = os.path.splitext(args.out)
        coeff_args = argparse.Namespace(**vars(args))
        coeff_args.out = f"{stem}_coeffs{ext or '.' + args.format}"
        write_table(coeff_rows, COEFFS_HEADER, coeff_args)
    return EXIT_OK


def _two_mode_spec(args, n, eta, chi, regime=gauss.Regime.STRONG_DISPLACEMENT,
                   **angles):
    """Two-mode probe spec of a sweep point (n, eta, chi), displaced along
    mu = 0, and the channel limits at its budget.  A cross-squeezed probe
    (chi != 0) enters at tau_in = 1, the others at the split's tau_in()."""
    split = gauss.EnergySplit(float(n), p=args.p, q=args.q, regime=regime)
    tau_in = 1.0 if abs(chi) > 1e-12 else split.tau_in()
    spec = gauss.spec_from_split(gauss.ProbeFamily.TWO_MODE, split, mu=0.0, chi=chi,
                                 tau_in=tau_in, **angles)
    return spec, bounds_mod.fundamental_limits(split.n_total, eta)


def _evolve_and_report(specs, lims, phi, etas):
    """Evolve a chunk of rows' specs at phase phi and their transmissivities;
    returns each row's evolved state and its information report weighted by
    the row's limits.

    Each distinct (spec, eta) is evolved and solved once, and its rows take
    the result by index, so rows that share a probe share its bits.
    """
    slots = {}
    take = np.array([slots.setdefault(key, len(slots)) for key in zip(specs, etas)])
    distinct_specs, distinct_etas = zip(*slots)
    ev = gauss.evolve_with_derivatives(
        gauss.make_probe(distinct_specs),
        ChannelPoints(np.full(len(slots), phi), distinct_etas),
        [spec.tau_in for spec in distinct_specs])
    rep = gauss.evolved_qfi(ev)
    rep = QfiReport(f=rep.f[take], i_phieta=rep.i_phieta[take],
                    pinv=rep.pinv[take], cond=rep.cond[take])
    return ev.take(take), complete_report(rep, np.array([lim.weights() for lim in lims]))


GAUSSIAN_HEADER = ["n", "eta", "chi", "p", "q", "regime", "tau_in", "mu",
                   "theta", "theta1", "theta2", "f_phi_norm", "f_eta_norm",
                   "f_norm", "f_phieta", "i_phieta_imag", "r_h_bar"]


def cmd_gaussian_scan(args):
    n_values, eta_values = _sweep_values(args)
    chis = sorted(_parse_floats(args.chi))
    regime = gauss.Regime(args.regime)
    points = [(n, eta, chi) for n in n_values for eta in eta_values for chi in chis]
    theta1 = theta2 = math.pi   # squeezing opposed to the displacement
    theta = (theta1 + theta2 - math.pi) / 2.0

    def build(point):
        n, eta, chi = point
        return (point, *_two_mode_spec(args, n, eta, chi, regime, theta=theta,
                                       theta1=theta1, theta2=theta2))

    def evaluate(inputs):
        points, specs, lims = zip(*inputs)
        _, rep = _evolve_and_report(specs, lims, 0.0, [eta for _, eta, _ in points])
        rows = []
        for (n, eta, chi), spec, lim, f, i_pe, c_s, c_h_bar in zip(
                points, specs, lims, rep.f.tolist(), rep.i_phieta.imag.tolist(),
                rep.c_s.tolist(), rep.c_h_bar.tolist()):
            f_phi = f[0][0] / lim.f_phi_max_s12
            f_eta = f[1][1] / lim.f_eta_max
            row = {
                "n": n, "eta": eta, "chi": chi, "p": args.p, "q": args.q,
                "regime": regime.value, "tau_in": spec.tau_in, "mu": spec.mu,
                "theta": theta, "theta1": theta1, "theta2": theta2,
                "f_phi_norm": f_phi, "f_eta_norm": f_eta,
                "f_norm": 0.5 * (f_phi + f_eta),
                "f_phieta": f[0][1],
                "i_phieta_imag": i_pe,
                "r_h_bar": (c_s / c_h_bar) if c_h_bar else None,
            }
            rows.append((row, f"gaussian-scan n={n} eta={eta} chi={chi:.4f}: "
                              f"f_norm={0.5 * (f_phi + f_eta):.4f}"))
        return rows

    write_table(_batch_rows(points, build, evaluate), GAUSSIAN_HEADER, args)
    return EXIT_OK


MEASURE_HEADER = ["n", "eta", "probe", "scheme", "tau_out", "xi",
                  "var_phi_fmax", "var_eta_fmax", "r_scheme", "r_h_bar", "status"]


def cmd_measure(args):
    n_values, eta_values = _sweep_values(args)
    taus = _parse_floats(args.tau_out)
    xis = _parse_floats(args.xi)
    chi = _parse_angle(args.chi)
    kind = meas.SchemeKind(args.scheme)
    points = [(n, eta, tau, xi) for n in n_values for eta in eta_values
              for tau in taus for xi in xis]
    if args.probe == "fock":
        rows = _measure_fock(args, kind, points)
    else:
        rows = _measure_gaussian(args, kind, chi, points)
    write_table(rows, MEASURE_HEADER, args)
    return EXIT_OK


def _readout_columns(var_phi, var_eta, c_s, c_h_bar, lim):
    """The scheme columns of a measure row: variances in units of the channel
    optima, the scheme's excess cost and the state's C_S / C_H_bar."""
    return {"var_phi_fmax": var_phi * lim.f_phi_max_s12,
            "var_eta_fmax": var_eta * lim.f_eta_max,
            "r_scheme": (meas.scheme_incompatibility(var_phi, var_eta, c_s, lim)
                         if c_s is not None else None),
            "r_h_bar": (c_s / c_h_bar) if c_h_bar else None}


def _measure_gaussian(args, kind, chi, points):
    """Gaussian-probe rows: every stage runs once per chunk of the grid, and
    each point is evolved once for both its information and its moments."""
    counting = kind is meas.SchemeKind.COUNTING
    phi_op = meas.OPERATING_PHI if counting else 0.0

    def build(point):
        n, eta, tau_out, xi = point
        if counting:
            theta1 = theta2 = math.pi
            theta = math.pi / 2.0
        else:
            # squeezing aligned to the measured quadrature; the mixed-angle
            # cross phase follows the physicality-matched combination
            theta1 = theta2 = 2.0 * xi
            theta = 2.0 * xi if abs(chi - math.pi / 2) < 1e-12 \
                else (theta1 + theta2 - math.pi) / 2.0
        return (point, *_two_mode_spec(args, n, eta, chi, theta=theta,
                                       theta1=theta1, theta2=theta2))

    def evaluate(inputs):
        points, specs, lims = zip(*inputs)
        _, etas, tau_outs, xis = zip(*points)
        scheme = meas.DetectionScheme(kind, tau_out=np.array(tau_outs), xi=np.array(xis))
        ev, rep = _evolve_and_report(specs, lims, phi_op, etas)
        moments = (meas.counting_moments(ev, scheme) if counting
                   else meas.homodyne_moments(ev, scheme))
        var_phis, var_etas = (v.tolist() for v in meas.error_propagation(moments))
        rows = []
        for (n, eta, tau_out, xi), lim, var_phi, var_eta, c_s, c_h_bar in zip(
                points, lims, var_phis, var_etas, rep.c_s.tolist(), rep.c_h_bar.tolist()):
            row = {"n": n, "eta": eta, "probe": args.probe, "scheme": kind.value,
                   "tau_out": tau_out, "xi": xi, "status": "ok",
                   **_readout_columns(var_phi, var_eta, c_s, c_h_bar, lim)}
            rows.append((row, f"measure n={n} eta={eta} tau_out={tau_out} xi={xi:.3f}"))
        return rows

    return _batch_rows(points, build, evaluate)


def _measure_fock(args, kind, points):
    """Number-basis rows in order; each distinct (n, eta) is optimized once,
    by the first row that needs it, and its output is kept as the block
    diagonals that counting reads, O(N^2) numbers."""
    fock_outputs = {}
    rows = []
    for n, eta, tau_out, xi in points:
        lim = bounds_mod.fundamental_limits(float(n), eta)
        scheme = meas.DetectionScheme(kind, tau_out=tau_out, xi=xi)
        row = {"n": n, "eta": eta, "probe": args.probe, "scheme": kind.value,
               "tau_out": tau_out, "xi": xi, "status": "ok"}
        rows.append(row)
        if kind is meas.SchemeKind.HOMODYNE:
            row["status"] = "unsupported"     # its readout cells stay empty
            continue
        if (n, eta) not in fock_outputs:
            params = ChannelParams(0.0, eta, n)
            result = optimize(IssConfig(), params, Scenario.TWO)
            kraus = build_kraus(params, Scenario.TWO)
            fock_outputs[(n, eta)] = (meas.block_diagonals(result.probe, kraus),
                                      result.final_qfi)
        diags, rep = fock_outputs[(n, eta)]
        moments = meas.counting_moments(diags, scheme)
        var_phi, var_eta = meas.error_propagation(moments)
        _progress(f"measure n={n} eta={eta} tau_out={tau_out} xi={xi:.3f}")
        row.update(_readout_columns(var_phi, var_eta, rep.c_s, rep.c_h_bar, lim))
    return rows


BOUNDS_HEADER = ["n", "eta", "f_phi_max", "f_phi_max_shared_loss", "f_eta_max",
                 "fock_bound", "witness_exponent", "witness_mean_n",
                 "witness_var_n", "witness_bound"]


def cmd_bounds(args):
    n_values, eta_values = _sweep_values(args)
    exponent = args.witness_exponent
    points = [(n, eta) for n in n_values for eta in eta_values]

    rows = []
    for n, eta in points:
        lim = bounds_mod.fundamental_limits(float(n), eta)
        mean_w = n - 0.5 * n ** exponent
        var_w = 0.25 * n ** (2.0 * exponent)
        rows.append({
            "n": n, "eta": eta,
            "f_phi_max": lim.f_phi_max_s12,
            "f_phi_max_shared_loss": lim.f_phi_max_s3,
            "f_eta_max": lim.f_eta_max,
            "fock_bound": bounds_mod.probe_incomp_bound(float(n), 0.0, float(n), eta),
            "witness_exponent": exponent,
            "witness_mean_n": mean_w,
            "witness_var_n": var_w,
            "witness_bound": bounds_mod.probe_incomp_bound(mean_w, var_w, float(n), eta),
        })
    write_table(rows, BOUNDS_HEADER, args)
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(args, argv)
    except (OSError, InvalidInput) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handlers = {"optimize": cmd_optimize, "gaussian-scan": cmd_gaussian_scan,
                "measure": cmd_measure, "bounds": cmd_bounds}
    try:
        return handlers[args.command](args)
    except (InvalidInput, DegenerateChannel, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvalidState, SingularInformation, Unsupported,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
