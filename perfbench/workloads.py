"""One benchmark workload in one fresh process.

``run.py`` starts this file once per run (and a few more times with
``--setup-only`` to sample set-up time).  The process:

1. imports the package from ``<checkout>/src`` and builds the workload's
   stack, fills caches and sends un-timed warm-up requests (set-up);
2. has a child process (this file with ``--references``) compute an
   un-timed reference for every job it will send: the cycle backend plus
   the kernel's own oracle (``verify_kernel``).  The child keeps that
   work's memory out of this process's peak RSS;
3. runs the timed phase -- closed loop, ``--seconds`` long and at least
   ``MIN_REQUESTS`` requests, checking and dropping each slice's replies
   before the next slice -- or, with ``--trace``, a fixed number of traced
   requests followed by the same number of untraced ones;
4. prints one JSON line with the metrics and the check counts.

The seed is the only input; the program sees only the generated jobs.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import dataclasses
import gc
import json
import os
import pickle
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import accumulate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: Calibration time that defines the reference CPU speed (seconds); see
#: :class:`HostClock`.
CALIBRATION_REF_S = 1.0e-3


def calibrate() -> float:
    """Best of three runs of a fixed pure-Python loop, in seconds."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        acc = 0
        for i in range(10_000):
            acc += i * i % 7
        took = time.perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best / 1e9


# Set-up time is scaled like the timed slices (see HostClock), by the
# calibrations at process start and at the end of set-up; the first is
# taken here, before the package import that set-up time includes.
START_CALIBRATION = calibrate() if __name__ == "__main__" else None

from repro.core.stats import Stats  # noqa: E402
from repro.dse import DseRunner, SweepSpec  # noqa: E402
from repro.fpga.power import ActivityProfile, power_report  # noqa: E402
from repro.fpga.timing_model import fmax_mhz  # noqa: E402
from repro.programs.kernels import ALL_KERNEL_BUILDERS  # noqa: E402
from repro.programs.runner import verify_kernel  # noqa: E402
from repro.serve.batch import BatchRunner  # noqa: E402
from repro.serve.cache import ResultCache  # noqa: E402
from repro.serve.dispatch import Dispatcher  # noqa: E402
from repro.serve.jobs import Job, config_from_json  # noqa: E402
from repro.serve.net.server import NetServer  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Requests in each of a traced run's two phases (traced, then untraced):
#: fixed, so a traced run's counts depend on the seed alone.
TRACE_REQUESTS = {"sim_cycle": 225, "serve_warm": 4500, "dse_sweep": 68}

#: A timed phase runs on past ``--seconds`` until it has this many
#: requests, so at least ten samples lie beyond p90.
MIN_REQUESTS = 100

#: Wall-clock limit for the child process that computes references.
REFERENCE_TIMEOUT_S = 120


def reference(job: dict):
    """Cycle-backend ``Stats`` of ``job``; raises if the oracle disagrees."""
    cfg = config_from_json(job.get("config"))
    kernel = ALL_KERNEL_BUILDERS[job["kernel"]](
        cfg.num_pes, **job.get("kernel_args", {}))
    cfg = dataclasses.replace(cfg, word_width=kernel.word_width)
    return verify_kernel(kernel, cfg).result.stats


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def data_seed(seed: int, index: int) -> int:
    """Kernel data seed of job ``index``: distinct for every job of a run."""
    return (seed % 100_000) * 1_000_000 + index


class Checker:
    """Counts requests, and failed ones: refused, not ok or failing a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def request(self, problems: list[str]) -> None:
        """Count one request; it failed if any of its checks did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:10 - len(self.problems)])


def reply_problems(reply: dict | None, ref, first: dict | None = None,
                   ) -> list[str]:
    """Check one ``run`` reply against its reference (and first answer)."""
    if not reply or not reply.get("ok") or reply.get("status") != "ok":
        return [f"request failed: {reply}"]
    result = reply.get("result", {})
    if (result.get("cycles"), result.get("instructions")) != \
            (ref.cycles, ref.instructions):
        return [f"{reply.get('name')}: reply {result} != reference "
                f"cycles={ref.cycles} instructions={ref.instructions}"]
    if first is not None and _payload(reply) != first:
        return [f"{reply.get('name')}: cache-served reply differs from "
                f"the reply that computed it"]
    return []


def _payload(reply: dict) -> dict:
    """A reply without the fields that differ between equal answers."""
    return {k: v for k, v in reply.items() if k not in ("id", "origin")}


def request_line(rid: int, job: dict, tenant: str | None = None) -> str:
    """Client request text; the id comes first (see ``spans.line_id``)."""
    req = {"id": rid, "op": "run", "job": job}
    if tenant is not None:
        req["tenant"] = tenant
    return json.dumps(req)


def latency_metrics(lat_s: list, jobs: int, elapsed_s: float) -> dict:
    return {
        "jobs_per_s": jobs / elapsed_s,
        "latency_p50_ms": statistics.median(lat_s) * 1e3,
        "latency_p90_ms": p90(lat_s) * 1e3,
    }


#: Timed phases run in slices of this many seconds of request time.
SLICE_S = 0.5

class HostClock:
    """Scales timed slices to a reference CPU speed.

    On a shared VM the CPU runs up to about 1.6x slower for seconds at a
    time while other tenants are busy, which moved whole runs by 20-30 %.
    The timed phase therefore runs in slices of ``SLICE_S``, and
    :func:`calibrate` runs before the first slice and after every slice,
    outside the timed wall time.  A slice's request latencies and wall
    time are multiplied by ``CALIBRATION_REF_S`` over the mean of the two
    calibrations around it: the result is host time at the speed where
    the loop takes ``CALIBRATION_REF_S``.  The raw figures are printed.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.scales: list[float] = []
        self.raw_lat: list[float] = []
        self.raw_s = 0.0

    def close_slice(self, lat: list, wall_s: float) -> float:
        """Scale one slice's latencies in place; returns its scaled wall."""
        cal = calibrate()
        scale = CALIBRATION_REF_S / ((self.last + cal) / 2)
        self.last = cal
        self.scales.append(scale)
        self.raw_lat.extend(lat)
        self.raw_s += wall_s
        lat[:] = [x * scale for x in lat]
        return wall_s * scale

    def summary(self, jobs: int) -> str:
        raw = latency_metrics(self.raw_lat, jobs, self.raw_s)
        return (f"host scale over {len(self.scales)} slices: median "
                f"{statistics.median(self.scales):.3f}, range "
                f"{min(self.scales):.3f}-{max(self.scales):.3f}; raw: "
                + ", ".join(f"{k}={v:.4f}" for k, v in raw.items()))


def closed_loop(items: list, call, check, seconds: float | None = None,
                tracer=None, host: HostClock | None = None):
    """Call ``call(rid, item)`` for each item in turn, one at a time.

    With ``seconds`` the loop stops once that much request time has run
    and at least ``MIN_REQUESTS`` requests have; every slice is scaled by
    ``host`` and its results go to ``check(items, results)`` before the
    next slice starts, so no more than a slice's replies are held.
    Without, it runs every item, checks them all at the end and returns
    raw times (the traced phases).  Returns the number of requests sent,
    their latencies (s) and the elapsed time (s).
    """
    clock = time.perf_counter_ns
    results, lat, sliced = [], [], []
    scaled_s = 0.0
    raw_ns = 0
    lo = 0
    start = slice_start = end = clock()
    for rid, item in enumerate(items):
        if tracer is not None:
            tracer.set_rid(rid)
        t0 = clock()
        results.append(call(rid, item))
        end = clock()
        sliced.append((end - t0) / 1e9)
        if tracer is not None:
            tracer.request(rid, t0, end)
        if host is None:
            continue
        wall = end - slice_start
        done = (raw_ns + wall >= seconds * 1e9 and rid + 1 >= MIN_REQUESTS
                or rid == len(items) - 1)
        if wall >= SLICE_S * 1e9 or done:
            raw_ns += wall
            scaled_s += host.close_slice(sliced, wall / 1e9)
            lat.extend(sliced)
            sliced = []
            check(items[lo:rid + 1], results)
            results, lo = [], rid + 1
            if done:
                break
            slice_start = clock()
    if host is None:
        check(items, results)
        return len(items), sliced, (end - start) / 1e9
    return lo, lat, scaled_s


# ---------------------------------------------------------------------------
# sim_cycle: distinct cycle-backend jobs through Dispatcher.handle_line
# ---------------------------------------------------------------------------

class SimCycle:
    """Core-bound: every job is new, so every request simulates."""

    KERNELS = ("reduction_storm", "mst_prim", "vector_mac",
               "assoc_max_extract", "skyline_2d", "histogram")
    PES = (16, 64, 256)
    WARMUP = 36
    transport = "in-process"
    hygiene = ("fresh process", "memory-only cache", "jobs=1",
               "BLAS threads pinned to 1", "36 un-timed warm-up requests")

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.next_index = 0

    def job(self, index: int) -> dict:
        kernel = self.KERNELS[index % 6]
        pes = self.PES[(index // 6) % 3]
        # Sizes follow a golden-ratio sequence per (kernel, PEs) class,
        # offset by the seed: every run sees the same spread of sizes, so
        # seeds change the data, not the amount of work.
        frac = ((index // 18 + self.seed) * 0.6180339887498949) % 1.0

        def size(lo: int, hi: int) -> int:
            return lo + int(frac * (hi - lo + 1))

        ds = data_seed(self.seed, index)
        if kernel == "reduction_storm":
            # No data seed: the result slot makes each program distinct.
            args = {"threads": 8, "total_iters": 8 * size(24, 56),
                    "result_base": 64 + index // 6}
        elif kernel == "mst_prim":
            args = {"n": size(12, 16), "seed": ds}
        elif kernel == "vector_mac":
            args = {"iters": size(32, 96), "seed": ds}
        elif kernel == "assoc_max_extract":
            args = {"rounds": size(12, 16), "seed": ds}
        elif kernel == "histogram":
            args = {"bins": size(12, 24), "seed": ds}
        else:
            args = {"seed": ds}
        return {"kernel": kernel, "kernel_args": args,
                "config": {"num_pes": pes}, "backend": "cycle"}

    def plan(self, count: int) -> list[dict]:
        jobs = [self.job(i) for i in range(self.next_index,
                                           self.next_index + count)]
        self.next_index += count
        return jobs

    def setup(self) -> None:
        self.dispatcher = Dispatcher(
            BatchRunner(ResultCache(cache_dir=None, mem_entries=256), jobs=1))
        self.warm_jobs = self.plan(self.WARMUP)
        started = time.perf_counter()
        half = self.WARMUP // 2
        self.warm_replies = []
        for i, job in enumerate(self.warm_jobs):
            if i == half:
                started = time.perf_counter()
            self.warm_replies.append(
                self.dispatcher.handle_line(request_line(-1, job)))
        self.rate = (self.WARMUP - half) / (time.perf_counter() - started)

    def planned(self, seconds: float) -> int:
        """Jobs to plan (and reference) for a timed phase of ``seconds``."""
        return max(round(self.rate * seconds * 1.25) + 50, MIN_REQUESTS)

    def check_setup(self, checker: Checker, phases, work_dir: str) -> dict:
        refs = references([self.warm_jobs, *phases], work_dir)
        self.check(checker, self.warm_jobs, self.warm_replies, refs)
        del self.warm_replies
        return refs

    def run(self, jobs: list[dict], check, seconds: float | None = None,
            tracer=None, host: HostClock | None = None):
        """Send ``jobs`` in order until they or ``seconds`` run out."""
        lines = [request_line(i, job) for i, job in enumerate(jobs)]
        handle = self.dispatcher.handle_line
        return closed_loop(jobs, lambda rid, _job: handle(lines[rid]), check,
                           seconds, tracer, host)

    def check(self, checker: Checker, jobs, replies, refs) -> None:
        for job, reply in zip(jobs, replies):
            checker.request(reply_problems(reply, refs[id(job)]))

    def report(self) -> None:
        pass

    def jobs_per_request(self) -> int:
        return 1

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve_warm: two TCP tenants, Zipf popularity over a two-tier cache
# ---------------------------------------------------------------------------

class ServeWarm:
    """Request-path-bound: most requests are answered from the cache."""

    KERNELS = ("vector_mac", "assoc_max_extract", "count_matches",
               "histogram", "database_query", "skyline_2d")
    PES = (16, 32)
    #: 2.5x the memory tier, so a Zipf(0.8) stream splits into about 64 %
    #: memory hits, 33 % disk hits and 3 % never-seen keys: the median
    #: falls inside the memory hits and p90 inside the disk hits, far
    #: from the slow misses.
    WORKING_SET = 640
    MEM_ENTRIES = 256
    ZIPF_S = 0.8
    MISS_SHARE = 0.03
    WARMUP = 500
    transport = "tcp"
    hygiene = ("fresh process", "fresh temp disk-cache dir", "jobs=1",
               "BLAS threads pinned to 1",
               "cache filled + 500 un-timed warm-up requests")

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        # Job i has popularity rank i, so every rank band holds the same
        # kernel x PE mix under every seed; only the data differ.
        self.by_rank = [self.job(i) for i in range(self.WORKING_SET)]
        self.cum = list(accumulate(1.0 / (r + 1) ** self.ZIPF_S
                                   for r in range(self.WORKING_SET)))
        self.next_miss = self.WORKING_SET
        self.first: dict[int, dict] = {}
        self.origins: dict[str, int] = {}
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.conns: list = []

    def job(self, index: int) -> dict:
        return {"kernel": self.KERNELS[index % 6],
                "kernel_args": {"seed": data_seed(self.seed, index)},
                "config": {"num_pes": self.PES[(index // 6) % 2]},
                "backend": "fast"}

    def plan(self, count: int) -> list[dict]:
        out = []
        rng = self.rng
        for _ in range(count):
            if rng.random() < self.MISS_SHARE:
                out.append(self.job(self.next_miss))
                self.next_miss += 1
            else:
                x = rng.random() * self.cum[-1]
                out.append(self.by_rank[bisect.bisect_left(self.cum, x)])
        return out

    def planned(self, seconds: float) -> int:
        return round(self.rate * seconds * 1.25) + 500

    def check_setup(self, checker: Checker, phases, work_dir: str) -> dict:
        refs = references([self.by_rank, self.warm_jobs, *phases], work_dir)
        self.check(checker, list(reversed(self.by_rank)), self.fill_replies,
                   refs)
        for jobs, replies in self.warm_slices:
            self.check(checker, jobs, replies, refs)
        del self.fill_replies, self.warm_slices
        self.origins.clear()
        return refs

    def build(self) -> None:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        self.cache_dir = cache_dir
        self.dispatcher = Dispatcher(BatchRunner(
            ResultCache(cache_dir=cache_dir, mem_entries=self.MEM_ENTRIES),
            jobs=1))
        self.server = NetServer(self.dispatcher)
        host, port = self.loop.run_until_complete(self.server.start())

        async def connect():
            return [await asyncio.open_connection(host, port)
                    for _ in range(2)]

        self.conns = self.loop.run_until_complete(connect())

    def setup(self) -> None:
        self.build()
        # Cache fill: every working-set job once, least popular first,
        # directly through the dispatcher; these replies are the ones
        # every later cache-served reply must equal.
        self.fill_replies = []
        for job in reversed(self.by_rank):
            reply = self.dispatcher.handle_line(request_line(-1, job))
            self.fill_replies.append(reply)
        self.warm_jobs = self.plan(self.WARMUP)
        self.warm_slices = []
        started = time.perf_counter()
        self.run(self.warm_jobs,
                 lambda *slice_: self.warm_slices.append(slice_))
        self.rate = self.WARMUP / (time.perf_counter() - started)

    def run(self, jobs: list[dict], check, seconds: float | None = None,
            tracer=None, host: HostClock | None = None):
        """Two closed-loop tenants, one per connection, share ``jobs``.

        Each connection takes the next job in order and tags its requests
        with its own tenant.  With ``seconds``, both tenants stop at the
        end of every slice, so the host is calibrated and the slice's
        replies are checked while the server is idle.
        """
        cursor = iter(range(len(jobs)))
        clock = time.perf_counter_ns

        async def client(tenant, reader, writer, answered, slice_end):
            for rid in cursor:
                line = request_line(rid, jobs[rid], tenant).encode() + b"\n"
                t0 = clock()
                writer.write(line)
                reply = await reader.readline()
                t1 = clock()
                answered.append((rid, reply, (t1 - t0) / 1e9))
                if tracer is not None:
                    tracer.request(rid, t0, t1)
                if t1 >= slice_end:
                    return

        def run_slice(budget_ns: float) -> tuple[list, int]:
            answered: list = []
            start = clock()

            async def both():
                await asyncio.gather(*(
                    client(f"t{i}", r, w, answered, start + budget_ns)
                    for i, (r, w) in enumerate(self.conns)))

            self.loop.run_until_complete(both())
            return answered, clock() - start

        lat: list = []
        sent, raw_ns, elapsed = 0, 0, 0.0
        while True:
            if host is None:
                budget = float("inf")
            elif raw_ns >= seconds * 1e9 and sent >= MIN_REQUESTS:
                break
            else:
                # Past ``seconds`` the budget is negative: each tenant
                # sends one more request, until MIN_REQUESTS are in.
                budget = min(SLICE_S * 1e9, seconds * 1e9 - raw_ns)
            answered, wall = run_slice(budget)
            if not answered:
                break
            raw_ns += wall
            times = [took for _rid, _reply, took in answered]
            elapsed += (wall / 1e9 if host is None
                        else host.close_slice(times, wall / 1e9))
            lat.extend(times)
            sent += len(answered)
            check([jobs[rid] for rid, _reply, _took in answered],
                  [reply for _rid, reply, _took in answered])
            if host is None:
                break
        return sent, lat, elapsed

    def check(self, checker: Checker, jobs, replies, refs,
              every: int = 8) -> None:
        """Check replies (raw TCP lines or dicts from direct calls).

        Every ``every``-th reply also has the full ``Stats`` of its
        cached result (read back from the disk tier) compared with the
        cycle reference.  A working-set key's first reply is kept; the
        never-seen keys are sent once, so theirs are not.
        """
        disk = ResultCache(cache_dir=self.cache_dir, mem_entries=1)
        for n, (job, reply) in enumerate(zip(jobs, replies)):
            if isinstance(reply, bytes):
                reply = json.loads(reply) if reply else None
            ref = refs[id(job)]
            index = job["kernel_args"]["seed"] % 1_000_000
            first = self.first.get(index)
            problems = reply_problems(reply, ref, first)
            if not problems and first is None:
                if reply.get("origin") != "computed":
                    problems.append(f"{reply.get('name')}: first answer "
                                    f"came from {reply.get('origin')}")
                if index < self.WORKING_SET:
                    self.first[index] = _payload(reply)
            if not problems and n % every == 0:
                snap = disk.get(reply["key"])
                if snap is None or snap.stats != ref:
                    problems.append(f"{reply.get('name')}: cached Stats "
                                    f"differ from the cycle reference")
            origin = (reply or {}).get("origin", "failed")
            self.origins[origin] = self.origins.get(origin, 0) + 1
            checker.request(problems)

    def report(self) -> None:
        """Reply origins and cache counters of the timed phase."""
        total = sum(self.origins.values())
        print("reply origins: " + ", ".join(
            f"{k}={v} ({v / total:.1%})"
            for k, v in sorted(self.origins.items())))
        print("cache counters: "
              + json.dumps(self.dispatcher.runner.cache.stats.to_json()))

    def jobs_per_request(self) -> int:
        return 1

    def close(self) -> None:
        if self.server is not None:
            for _reader, writer in self.conns:
                writer.close()
            self.loop.run_until_complete(self.server.aclose())
        self.loop.close()


# ---------------------------------------------------------------------------
# dse_sweep: back-to-back cold sweeps, fresh runner and cache each time
# ---------------------------------------------------------------------------

class DseSweep:
    """Fast-backend-bound: every sweep simulates its fitting points."""

    #: 16 points; on the EP2C35 the 32-PE points do not fit, the 4-PE
    #: points do, and the frontier keeps the two equal-cost arities.
    AXES = {"num_pes": [4, 32], "num_threads": [1, 2],
            "word_width": [8, 16], "broadcast_arity": [4, 8]}
    KERNELS = ["reduction_storm", "vector_mac", "assoc_max_extract",
               "count_matches"]
    DEVICE = "EP2C35"
    WARMUP = 3
    transport = "in-process"
    hygiene = ("fresh process", "fresh memory-only cache per sweep",
               "jobs=1", "BLAS threads pinned to 1",
               "3 un-timed warm-up sweeps")

    def __init__(self, seed: int, work_dir: str) -> None:
        # The grid is the workload, so the seed only permutes how the
        # spec is written; canonical expansion must undo the permutation.
        self.seed = seed
        rng = random.Random(seed)
        axes = {}
        for name in rng.sample(sorted(self.AXES), len(self.AXES)):
            axes[name] = rng.sample(self.AXES[name], len(self.AXES[name]))
        self.spec = {"name": f"bench-{seed}", "axes": axes,
                     "kernels": rng.sample(self.KERNELS, len(self.KERNELS)),
                     "device": self.DEVICE, "backend": "auto"}
        self.payload = None

    def sweep(self, cache: ResultCache | None = None):
        spec = SweepSpec.from_json(self.spec)
        cache = cache if cache is not None else ResultCache(cache_dir=None)
        return DseRunner(BatchRunner(cache, jobs=1)).sweep(spec)

    def setup(self) -> None:
        # The first warm-up sweep's cache is kept for the Stats checks.
        self.first_cache = ResultCache(cache_dir=None)
        self.reports = [self.sweep(self.first_cache)]
        self.reports += [self.sweep() for _ in range(self.WARMUP - 1)]
        started = time.perf_counter()
        self.sweep()
        self.rate = 1.0 / (time.perf_counter() - started)

    def plan(self, count: int) -> list[int]:
        return list(range(count))

    def planned(self, seconds: float) -> int:
        return round(self.rate * seconds * 2) + MIN_REQUESTS

    def check_setup(self, checker: Checker, phases, work_dir: str) -> dict:
        """Check the first warm-up sweep against the references.

        For every fitting point x kernel, the full ``Stats`` the sweep
        cached must equal the cycle reference, and each point's power must
        equal the power model applied to the reference ``Stats``.  The
        first sweep's payload is the one every later sweep must repeat
        byte for byte.
        """
        first = self.reports[0]
        self.payload = json.dumps(first.to_json(), sort_keys=True)
        problems = self.problems(first)
        fit = [o for o in first.outcomes if o.status == "ok"]
        if len(fit) < 2 or len(first.frontier_ids) < 2:
            problems.append("sweep grid lost its fitting points or frontier")
        spec = SweepSpec.from_json(self.spec)
        jobs = [{"kernel": kernel,
                 "config": dataclasses.asdict(out.point.config),
                 "kernel_args": {"width": out.point.config.word_width}}
                for out in fit for kernel in spec.kernels]
        refs = references([jobs], work_dir)
        for n, out in enumerate(fit):
            config = out.point.config
            totals = Stats()
            for k, kernel in enumerate(spec.kernels):
                job = jobs[n * len(spec.kernels) + k]
                ref = refs[id(job)]
                key = Job(name=f"{out.point_id}/{kernel}", kernel=kernel,
                          kernel_args=job["kernel_args"], config=config,
                          max_cycles=spec.max_cycles,
                          backend="fast").prepare().key
                snap = self.first_cache.get(key)
                if snap is None or snap.stats != ref:
                    problems.append(f"{out.point_id}/{kernel}: cached sweep "
                                    f"Stats differ from the cycle reference")
                totals.cycles += ref.cycles
                totals.scalar_instructions += ref.scalar_instructions
                totals.parallel_instructions += ref.parallel_instructions
                totals.reduction_instructions += ref.reduction_instructions
            power = power_report(config, ActivityProfile.from_stats(totals),
                                 clock_mhz=fmax_mhz(config))
            if out.power != power:
                problems.append(f"{out.point_id}: sweep power differs from "
                                f"the power of the reference Stats")
        del self.first_cache
        checker.request(problems)
        self.check(checker, None, self.reports[1:], {})
        return {}

    def run(self, sweeps: list, check, seconds: float | None = None,
            tracer=None, host: HostClock | None = None):
        return closed_loop(sweeps, lambda _rid, _sweep: self.sweep(), check,
                           seconds, tracer, host)

    def problems(self, report) -> list[str]:
        if not report.ok:
            return ["sweep reported errored points"]
        if report.ops.get("backend_fallbacks"):
            return ["sweep fell back to the cycle backend"]
        if json.dumps(report.to_json(), sort_keys=True) != self.payload:
            return ["sweep payload differs from the first sweep"]
        return []

    def check(self, checker: Checker, sweeps, reports, refs) -> None:
        for report in reports:
            checker.request(self.problems(report))

    def report(self) -> None:
        pass

    def jobs_per_request(self) -> int:
        first = self.reports[0]
        return len(self.spec["kernels"]) * sum(
            1 for o in first.outcomes if o.status == "ok")

    def close(self) -> None:
        pass


WORKLOADS = {"sim_cycle": SimCycle, "serve_warm": ServeWarm,
             "dse_sweep": DseSweep}


# ---------------------------------------------------------------------------
# measurement and entry point
# ---------------------------------------------------------------------------

def references(jobs_lists, work_dir: str) -> dict:
    """Un-timed cycle-backend + oracle reference for every job, by id().

    A repeated request reuses its job object, so each job runs once.  The
    references are computed by a child process (``--references``), so the
    cycle core's memory for them never counts in this process's peak RSS.
    """
    unique: dict = {}
    for jobs in jobs_lists:
        for job in jobs:
            unique.setdefault(id(job), job)
    jobs_path = os.path.join(work_dir, "reference-jobs.json")
    stats_path = os.path.join(work_dir, "reference-stats.pickle")
    with open(jobs_path, "w") as fh:
        # Enum config fields (``mt_mode``) travel as their string values.
        json.dump(list(unique.values()), fh, default=lambda e: e.value)
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--references", jobs_path, stats_path],
                   check=True, timeout=REFERENCE_TIMEOUT_S)
    with open(stats_path, "rb") as fh:
        stats = pickle.load(fh)
    os.remove(jobs_path)
    os.remove(stats_path)
    return dict(zip(unique, stats, strict=True))


def write_references(jobs_path: str, stats_path: str) -> None:
    """The ``--references`` child: Stats of every job in ``jobs_path``."""
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    with open(stats_path, "wb") as fh:
        pickle.dump([reference(job) for job in jobs], fh)


def measure(wl, name: str, seconds: float, trace: bool, checker: Checker,
            work_dir: str):
    """Plan, reference, run and check; returns the metrics dict."""
    if trace:
        count = TRACE_REQUESTS[name]
        phases = [wl.plan(count), wl.plan(count)]
    else:
        phases = [wl.plan(wl.planned(seconds))]
    refs = wl.check_setup(checker, phases, work_dir)

    def check(jobs, replies):
        wl.check(checker, jobs, replies, refs)

    gc.collect()
    if not trace:
        jobs = phases[0]
        host = HostClock()
        sent, lat, elapsed = wl.run(jobs, check, seconds, host=host)
        if sent == len(jobs):
            print(f"note: the planned requests ran out before {seconds}s")
        if sent < MIN_REQUESTS:
            raise RuntimeError(f"only {sent} timed requests: p90 needs "
                               f"{MIN_REQUESTS}")
        wl.report()
        done = sent * wl.jobs_per_request()
        beyond = len(lat) - int(0.9 * len(lat))
        print(f"timed phase: {len(lat)} requests in {host.raw_s:.3f}s "
              f"({beyond} samples beyond p90)")
        print(host.summary(done))
        return latency_metrics(lat, done, elapsed)

    from spans import Tracer, install_layers, layer_report

    # The checks read the cache, so they run once the wrappers are gone.
    held: list = []
    tracer = Tracer()
    install_layers(tracer)
    try:
        _sent, lat, _elapsed = wl.run(
            phases[0], lambda *slice_: held.append(slice_), tracer=tracer)
    finally:
        tracer.uninstall()
    for jobs, replies in held:
        check(jobs, replies)
    del held
    gc.collect()
    _sent, plain_lat, _elapsed = wl.run(phases[1], check)
    os.makedirs(os.path.join(WORK_DIR, "traces"), exist_ok=True)
    path = os.path.join(WORK_DIR, "traces", f"{name}-seed{wl.seed}.json")
    tracer.write(path)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    out = layer_report(tracer, wl.transport)
    traced_p50 = statistics.median(lat) * 1e3
    plain_p50 = statistics.median(plain_lat) * 1e3
    print(f"tracing overhead: traced latency_p50_ms {traced_p50:.4f} vs "
          f"untraced {plain_p50:.4f} over the same number of requests")
    out["trace.overhead"] = traced_p50 / plain_p50
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--references", nargs=2, metavar=("JOBS", "OUT"),
                    help="only write the reference Stats of the jobs in "
                         "JSON file JOBS to OUT")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # A terminated process raises SystemExit: subprocess.run then kills
    # and reaps the reference child, and the temp dir is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.references:
        write_references(*args.references)
        return 0
    if None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")

    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    wl = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        wl.setup()
        setup_end = time.monotonic()
        setup_scale = CALIBRATION_REF_S / (
            (START_CALIBRATION + calibrate()) / 2)
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end,
                              "setup_scale": setup_scale}))
            return 0
        setup_rss = peak_rss_mb()
        checker = Checker()
        metrics = measure(wl, args.workload, args.seconds, args.trace,
                          checker, work_dir)
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["error_rate"] = checker.failed / max(checker.attempted, 1)
    print(f"peak RSS: {setup_rss:.2f} MiB at the end of set-up, "
          f"{metrics['peak_rss_mb']:.2f} MiB at the end of the run")
    print("noise hygiene: " + "; ".join(wl.hygiene))
    for problem in checker.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"setup_end": setup_end, "setup_scale": setup_scale,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
