"""Regenerate ``pinned.json``, the reference values the benchmark's gates use.

    PYTHONPATH=src python3 perfbench/pin.py > perfbench/pinned.json

See-saw references are long runs (``workloads.LONG_ITERS`` iterations, no
early stop) from each start of the pool; they take about a quarter of an
hour.  Gaussian-sweep anchors are the anchor rows of each CLI sweep.  Only
re-pin when a change is meant to alter these numbers, and say so.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from phaseloss import channel, iss  # noqa: E402


def seesaw_references():
    out = {}
    for name, (scenario, n_max, starts, stalling) in workloads.SEESAW.items():
        params = channel.ChannelParams(0.0, workloads.SEESAW_ETA, n_max)
        out[name] = {}
        for start in starts + stalling:
            config = iss.IssConfig(conv_rel_tol=1e-13, max_iters=workloads.LONG_ITERS,
                                   seed=start, restarts=1)
            result = iss.optimize(config, params, scenario)
            objective, residual = workloads.stationarity(result.probe, params, scenario)
            print(f"{name} start {start}: {objective!r} residual {residual:.2e}",
                  file=sys.stderr)
            out[name][str(start)] = objective
    return out


def sweep_anchors(scratch):
    budgets = list(workloads.SWEEP_ANCHOR_BUDGETS)
    etas = list(workloads.SWEEP_ANCHOR_ETAS)
    out = {}
    for sweep, (_, columns) in workloads.SWEEPS.items():
        path = os.path.join(scratch, f"{sweep}.csv")
        code = workloads.run_cli(workloads.sweep_argv(sweep, budgets, etas, path))
        if code != 0:
            raise SystemExit(f"{sweep} exited with {code}")
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        out[sweep] = [
            {"n": int(row["n"]), "eta": float(row["eta"]),
             "angle": i % workloads.SWEEP_ANGLES,
             **{col: float(row[col]) for col in columns}}
            for i, row in enumerate(rows)]
    return out


def main():
    out_dir = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        anchors = sweep_anchors(scratch)
    pinned = {"seesaw": seesaw_references(), "gaussian-sweep": anchors}
    json.dump(pinned, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
