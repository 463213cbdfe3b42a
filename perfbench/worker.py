"""Runs one workload in a process of its own and prints its metrics as JSON.

Started by ``run.py`` with BLAS pinned to one thread and the checkout's
``src`` first on ``PYTHONPATH``.  Passes of the workload's operation list
repeat until the next one would overrun ``--seconds`` (at least two).  With ``--trace 1``
untraced and traced passes alternate: the untraced ones time the pass, the
traced ones give per-layer self times, and the difference is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time

import numpy
import scipy
import workloads
from run import load_benchmark
from tracer import Tracer, package_modules, self_times


class PassRecord:
    """Timings and gate outcomes of one pass; ``tracer`` holds a traced pass's spans.

    ``op_seconds`` times every operation, ``solve_seconds`` only the solve
    operations that passed their gate; ``records`` counts validated records.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.op_seconds = []
        self.solve_seconds = []
        self.records = 0
        self.attempted = 0
        self.failures = []
        self.outcomes = []

    @property
    def traced(self):
        return self.tracer is not None

    @property
    def wall(self):
        return sum(self.op_seconds)


def run_pass(ops, tracer):
    """One pass over the operation list; only ``Op.run`` is timed and traced."""
    rec = PassRecord(tracer)
    modules = package_modules() if tracer is not None else ()
    for index, op in enumerate(ops):
        rec.attempted += 1
        if tracer is not None:
            tracer.op = index
            tracer.install(modules)
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{op.label}: raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        rec.op_seconds.append(elapsed)
        outcome = None
        if error is None:
            try:
                outcome = op.check(result)
            except workloads.GateError as exc:
                error = f"{op.label}: {exc}"
                outcome = exc.outcome
            except Exception as exc:  # a gate that cannot judge the output fails it
                error = f"{op.label}: gate raised {type(exc).__name__}: {exc}"
        if outcome is not None:
            rec.outcomes.append(outcome)
        if error is not None:
            rec.failures.append(error)
            continue
        rec.records += outcome.records
        if op.solve:
            rec.solve_seconds.append(elapsed)
    return rec


def measure(ops, seconds, trace):
    """Repeat passes until the next would overrun ``seconds``, and make at
    least two, so that no figure rests on a single pass (and a traced run has
    an untraced pass to compare with)."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(ops, Tracer() if traced else None))
        if len(passes) < 2:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(passes):
    """Medians over passes: of a pass's mean solve time, of its validated
    records per second and of its wall time."""
    solves = [statistics.fmean(p.solve_seconds) for p in passes if p.solve_seconds]
    return {
        "solve_s": statistics.median(solves) if solves else 0.0,
        "rows_per_s": statistics.median(p.records / p.wall for p in passes),
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes, names):
    """Every per-layer metric in ``names`` except set-up, which run.py measures
    in fresh interpreters."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    out = {name: 0.0 for name in names if not name.startswith("setup.")}
    per_name = {}
    for p in traced:
        for name, (self_s, calls) in self_times(p.tracer.spans).items():
            s, c = per_name.get(name, (0.0, 0))
            per_name[name] = (s + self_s, c + calls)
    k = len(traced)
    self_sum = 0.0
    for name, (self_s, calls) in per_name.items():
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s / k
        out[f"{layer}.calls"] += calls / k
        self_sum += self_s / k
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] = self_s / k
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = calls / k
    iters = sum(o.iterations for p in plain for o in p.outcomes)
    out["iss.iterations"] = iters / len(plain)
    if iters:
        solve_time = sum(sum(p.op_seconds) for p in plain)
        out["iss.s_per_iter"] = solve_time / iters
    outcomes = [o for p in passes for o in p.outcomes]
    out["iss.residual"] = max((o.residual for o in outcomes), default=0.0)
    out["iss.objective_gap"] = max((o.gap for o in outcomes), default=0.0)
    traced_wall = statistics.fmean(p.wall for p in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_s"] = traced_wall - self_sum
    out["trace.overhead_s"] = traced_wall - statistics.fmean(p.wall for p in plain)
    return out


def environment():
    """Interpreter, numerical libraries and BLAS this process runs with."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True, help="directory for CLI outputs")
    parser.add_argument("--spans", help="where a traced run writes its last pass's spans")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.scratch)
    passes = measure(ops, args.seconds, bool(args.trace))
    if args.trace:
        names = [m["name"] for m in load_benchmark()["per_layer"]]
        metrics = per_layer(passes, names)
        if args.workload in workloads.SEESAW:
            stalled, gap = workloads.stalled_starts(args.workload)
            metrics["iss.stalled_starts"] = stalled
            metrics["iss.objective_gap"] = max(metrics["iss.objective_gap"], gap)
        if args.spans:
            [p for p in passes if p.traced][-1].tracer.dump(args.spans)
    else:
        metrics = end_to_end(passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures:
        print(f"gate failure: {line}", file=sys.stderr)
    print(json.dumps({"environment": environment(),
                      "attempted": sum(p.attempted for p in passes),
                      "failed": len(failures),
                      "passes": len(passes),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
