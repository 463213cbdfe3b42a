"""phaseloss benchmark: one command, every workload, every metric with its unit.

    python3 perfbench/run.py --workload seesaw-two --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # all four workloads

Run from the root of a checkout: the package is imported from ``src`` there.
Each workload runs in a fresh process with BLAS pinned to one thread.  Set-up
time is measured around it, in fresh interpreters that import ``phaseloss``
and ``phaseloss.cli``, as every CLI call does.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters started before and after the workload), ``solve_s``
(median over passes of the mean wall time of one operation of the
workload's solve kind that passed its gate: a see-saw solve, a CLI sweep,
or the largest oracle point), ``rows_per_s`` (median over passes of
validated records per second), ``wall_s`` (median time of one pass over
the workload's operation list) and ``peak_rss_mb`` (peak resident memory
of the workload process).  Names and units come from
``BENCHMARK.json``.
``--trace 1`` reports per-layer self times and call counts from spans
recorded around the package's public functions, and the set-up split into
dependency and package imports.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; stderr lists every metric with its
unit, the error rate and each failed gate.  A run of one workload exits 0
once it has printed that line, whatever the gates said, so that its
measurements are read along with the verdict in ``correct``.  A run of all
workloads exits 1 when any gate failed.  Either exits 2 when the checkout
holds no ``src/phaseloss`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# fresh interpreters timed before the workload, and as many after it, so
# that set-up samples the machine over the whole run as the workload does
SETUP_RUNS = 4
# leaves the run, with set-up, inside the 180 s a run may take
WORKER_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = (
    "import time; t0 = time.perf_counter()\n"
    "import numpy, scipy.special; t1 = time.perf_counter()\n"
    "import phaseloss, phaseloss.cli; t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


def load_benchmark():
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return json.load(fh)


def pinned_env():
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    return env


def time_setup(env, samples):
    """Append ``SETUP_RUNS`` samples of (wall, dependency import, package
    import) time of a fresh interpreter importing the package and CLI."""
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        samples.append((wall, *(float(x) for x in done.stdout.split())))


def revision():
    """Git revision of the checkout, or None where it is not a repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(name, seed, seconds, trace, env):
    """Set-up measurement plus one worker process; returns its result dict."""
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                   capture_output=True, timeout=60)   # warm the bytecode cache
    setup = []
    time_setup(env, setup)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with {done.returncode}")
    time_setup(env, setup)
    setup_s, deps_s, own_s = (statistics.median(col) for col in zip(*setup))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["environment"].update(
        nproc=os.cpu_count(), revision=revision(),
        threads={v: env.get(v) for v in BLAS_THREAD_VARS})
    if trace:
        result["metrics"].update({"setup.deps_s": deps_s, "setup.phaseloss_s": own_s})
    else:
        result["metrics"] = {"setup_s": setup_s, **result["metrics"]}
    record = os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(name, result, units):
    print(json.dumps({"environment": result["environment"]}), file=sys.stderr)
    rate = result["failed"] / result["attempted"]
    print(f"[{name}] attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={rate:.4g} passes={result['passes']}", file=sys.stderr)
    for metric, value in result["metrics"].items():
        print(f"  {metric:44s} {value:14.6g} {units.get(metric, '')}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = load_benchmark()
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser.add_argument("--workload", default="all", choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "phaseloss", "__init__.py")):
        print(f"no phaseloss sources under {SRC}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = pinned_env()
    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, env)
        report(name, results[name], units)
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m.split("/")[-1]]}
                    for m, v in metrics.items()},
    }))
    return 1 if failed and args.workload == "all" else 0


if __name__ == "__main__":
    sys.exit(main())
