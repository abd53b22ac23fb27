#!/usr/bin/env python3
"""A/B pairs of the end-to-end benchmark between two revisions.

Usage (from anywhere inside the repository)::

    python tools/ab.py PARENT CHANGE [--workload W ...] [--seeds 201-210]
                       [--pairs N] [--seconds S]

``PARENT`` and ``CHANGE`` are git revisions, checked out as detached git
worktrees in a temporary directory (removed at exit), or directories
that already hold a checkout.  For each workload and seed, both sides
run ``perfbench/run.py --workload W --seed S --seconds S --trace 0``
untraced, one after the other; which side runs first alternates from
seed to seed, so a drift in host speed favours neither.  Per metric of
``BENCHMARK.json``, the report gives each side's median and quartiles,
how many pairs the change won (in the metric's better direction),
whether the difference of the medians exceeds the parent's
interquartile range, and the failed operations.  It also gives the
process CPU seconds per request of each side (``RUSAGE_CHILDREN`` of the
benchmark process tree, set-up samples included), which a host whose
speed drifts moves less than wall time.  Standard library only; nothing
is written into the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_side(checkout: str, workload: str, seed: int,
             seconds: int) -> dict:
    """One untraced benchmark run: its result line and CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"ab: {checkout}: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["cpu_s"] = (after.ru_utime - before.ru_utime
                       + after.ru_stime - before.ru_stime)
    return result


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, spec: dict, pairs: list[tuple[dict, dict]]) -> None:
    print(f"== {workload}: {len(pairs)} pairs (parent -> change)")
    print(f"  {'metric':<16} {'parent q1 / median / q3':>28} "
          f"{'change q1 / median / q3':>28} {'wins':>6}  beyond IQR")
    rows = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    for name, better in rows + [("cpu_s/request", "lower")]:
        if name == "cpu_s/request":
            a = [p["cpu_s"] / max(p["attempted"], 1) for p, _ in pairs]
            b = [c["cpu_s"] / max(c["attempted"], 1) for _, c in pairs]
        else:
            a = [p["metrics"][name]["value"] for p, _ in pairs]
            b = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        qa, qb = spread(a), spread(b)
        beyond = sign * (qb[1] - qa[1]) > qa[2] - qa[0]
        print(f"  {name:<16} {'%.4g / %.4g / %.4g' % qa:>28} "
              f"{'%.4g / %.4g / %.4g' % qb:>28} "
              f"{wins:>3}/{len(pairs):<2}  {'yes' if beyond else 'no'}")
    failed = [(p["failed"], c["failed"]) for p, c in pairs]
    print(f"  failed operations (parent, change) per pair: {failed}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision or checkout directory")
    ap.add_argument("change", help="git revision or checkout directory")
    ap.add_argument("--workload", action="append",
                    help="workload to pair (repeatable; default: all)")
    ap.add_argument("--seeds", default="201-210",
                    help="seed range LO-HI, one pair per seed")
    ap.add_argument("--pairs", type=int,
                    help="use only the first N seeds of the range")
    ap.add_argument("--seconds", type=int,
                    help="timed seconds per run (default: BENCHMARK.json)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    pair_seeds = seeds(args.seeds)[:args.pairs]
    seconds = args.seconds or spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="repro-ab-") as tmp:
        sides, added = [], []
        for label, rev in (("parent", args.parent), ("change", args.change)):
            if os.path.isdir(rev):
                sides.append(os.path.abspath(rev))
                continue
            path = os.path.join(tmp, label)
            git("worktree", "add", "--detach", path,
                git("rev-parse", "--verify", f"{rev}^{{commit}}"))
            added.append(path)
            sides.append(path)
        try:
            for workload in workloads:
                pairs = []
                for k, seed in enumerate(pair_seeds):
                    order = (0, 1) if k % 2 == 0 else (1, 0)
                    got = {i: run_side(sides[i], workload, seed, seconds)
                           for i in order}
                    pairs.append((got[0], got[1]))
                report(workload, spec, pairs)
        finally:
            # Only a side checked out here is git's to clean up: two
            # directories need no git, nor a git checkout around the tool.
            for path in added:
                git("worktree", "remove", "--force", path)
            if added:
                git("worktree", "prune")
    return 0


if __name__ == "__main__":
    sys.exit(main())
