"""Benchmark entry point: one workload per fresh process, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_cycle --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1            # all three workloads

The benchmark is invoked as ``run.py --workload W --seed N --seconds S
--trace T`` with ``S`` the ``run_seconds`` of ``BENCHMARK.json``, which is
also the default.  ``--trace 0`` samples set-up time in ``SETUP_SAMPLES``
fresh processes (the last one goes on to a timed phase of ``S`` seconds)
and prints the end-to-end metrics; ``--trace 1`` runs one traced process,
which sends a fixed number of requests whatever ``S`` is, and prints the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object; the exit code is
non-zero when any request failed or any output check did not hold.

This file uses the standard library only: the package under test is
imported by ``workloads.py`` inside each workload process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_cycle", "serve_warm", "dse_sweep")

#: Fresh processes that each set the workload up; set-up time is their
#: median, so one slow interpreter start does not move it.
SETUP_SAMPLES = 3

#: Wall-clock limit for one workload process.
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS/OpenMP thread: nproc is 2 and the workload is the load.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # Never the user's result cache: anything that fell back to the
    # default cache location would stay inside the checkout.
    env["REPRO_CACHE_DIR"] = os.path.join(ROOT, ".perfbench", "no-cache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str]) -> tuple[dict, float, float]:
    """Run one workload process.

    Returns its JSON line, its raw set-up time and the set-up time scaled
    to the reference CPU speed (see ``HostClock`` in ``workloads.py``).
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            # SIGTERM first: the workload process then stops and reaps
            # its reference child and removes its temp dir.  Its output
            # is still drained, so it cannot block on a full pipe.
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout[-2000:] + stderr[-4000:])
        raise RuntimeError(f"workload process failed ({args}): "
                           f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    raw = result["setup_end"] - started
    return result, raw, raw * result["setup_scale"]


def run_workload(spec: dict, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace:
        result = run_child(base + ["--trace"])[0]
        wanted = spec["per_layer"]
    else:
        samples = [run_child(base + ["--setup-only"])[1:]
                   for _ in range(SETUP_SAMPLES - 1)]
        result, raw, scaled = run_child(base)
        samples.append((raw, scaled))
        print("setup samples, raw / scaled (s): " + ", ".join(
            f"{raw:.4f} / {scaled:.4f}" for raw, scaled in samples))
        result["metrics"]["setup_s"] = statistics.median(
            scaled for _raw, scaled in samples)
        print(f"error_rate: {result['metrics']['error_rate']}")
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all three in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="timed seconds of an untraced run (default and "
                         "usual value: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run raises SystemExit, so run_child stops the workload
    # process it is waiting on and reaps it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no package source at src/repro; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for name in names:
        try:
            result = run_workload(spec, name, args.seed, seconds,
                                  bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, KeyError,
                ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(f"== {name}")
        print(json.dumps(result))
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
