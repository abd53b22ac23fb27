"""Run one workload under several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload serve_warm --seeds 1-10
    python3 perfbench/steadiness.py --all --seeds 1-10 --out record.json

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``.
Runs are sequential: each is one ``run.py`` invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, runs: list[dict]) -> dict:
    out = {}
    for entry in spec["end_to_end"]:
        values = [r["metrics"][entry["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[entry["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": entry["bound"],
            "values": values}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload")
    group.add_argument("--all", action="store_true")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="also write the record as JSON")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = ([w["name"] for w in spec["workloads"]] if args.all
             else [args.workload])
    record = {}
    for name in names:
        runs = [run_once(name, seed, spec["run_seconds"])
                for seed in seeds_of(args.seeds)]
        record[name] = summarize(spec, runs)
        print(f"== {name} ({len(runs)} runs)")
        print(f"  {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}")
        for metric, row in record[name].items():
            print(f"  {metric:<16} {row['median']:>10.4f} {row['q1']:>10.4f}"
                  f" {row['q3']:>10.4f} {row['spread']:>7.1%} "
                  f"{row['bound']:>6.0%}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
