"""The batch front-end: cache-aware, deduplicated, parallel execution.

:class:`BatchRunner` is the host-level analogue of the paper's
multithreaded issue logic: given N requested simulations it (1) resolves
each to its content key (from the key memo for a job the process has
keyed before, else by preparing it), (2) answers what it can from the
two-tier cache, (3) coalesces duplicate keys so a batch with k unique
jobs simulates only k, (4) prepares and fans the misses out over the
worker pool, and (5) reassembles results in request order and publishes
them back to the cache.

The per-batch report separates the deterministic payload (results, keyed
by job) from operational metrics (origins, cache counters, wall time) so
callers can diff the former across runs while humans read the latter.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import ResultCache
from repro.serve.identity import KEY_MEMO, job_digest
from repro.serve.jobs import Job, PreparedJob, UnfitJobError
from repro.serve.pool import DEGRADED_STATUSES, JobOutcome, run_prepared
from repro.serve.resilience import BackoffPolicy, Quarantine
from repro.serve.snapshot import ResultSnapshot
from repro.util.tables import format_table

# Where a job's result came from.
ORIGIN_MEMORY = "memory-cache"
ORIGIN_DISK = "disk-cache"
ORIGIN_COMPUTED = "computed"
ORIGIN_DEDUP = "coalesced"     # duplicate of an earlier job in the batch
ORIGIN_REFUSED = "refused"     # its machine cannot host its kernel


@dataclass
class JobResult:
    """One job's outcome within a batch."""

    name: str
    key: str
    status: str
    origin: str
    snapshot: ResultSnapshot | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self, full: bool = False) -> dict:
        """Deterministic payload; ``full`` inlines the whole snapshot."""
        out = {"name": self.name, "key": self.key, "status": self.status}
        if self.error:
            out["error"] = self.error
        if self.snapshot is not None:
            if full:
                out["result"] = self.snapshot.to_json()
            else:
                out["result"] = {"cycles": self.snapshot.cycles,
                                 "instructions":
                                     self.snapshot.stats.instructions}
                if self.snapshot.races is not None:
                    out["result"]["races"] = self.snapshot.races
                if self.snapshot.verify is not None:
                    out["result"]["verify"] = {
                        "equivalent": self.snapshot.verify["equivalent"],
                        "blocks_checked":
                            self.snapshot.verify["blocks_checked"],
                    }
        return out


@dataclass
class BatchReport:
    """Everything one :meth:`BatchRunner.run` call produced."""

    results: list[JobResult] = field(default_factory=list)
    unique_jobs: int = 0
    computed: int = 0
    elapsed_s: float = 0.0
    # The runner whose cache counters and resilience state the report
    # renders (a ``run`` reply carries neither section): on first read,
    # or when the runner seals it before its next batch, so the sections
    # keep their values as of the batch's end.
    runner: "BatchRunner | None" = field(default=None, repr=False,
                                         compare=False)
    _sections: tuple[dict, dict] | None = field(default=None, repr=False,
                                                compare=False)

    def seal(self) -> tuple[dict, dict]:
        """The cache-stats and resilience sections, rendered once."""
        if self._sections is None:
            runner = self.runner
            self._sections = ({}, {}) if runner is None else (
                runner.cache.stats.to_json(),
                {"quarantine": runner.quarantine.to_json(),
                 "breaker": runner.cache.breaker_json()})
            self.runner = None
        return self._sections

    @property
    def cache_stats(self) -> dict:
        return self.seal()[0]

    @property
    def resilience(self) -> dict:
        return self.seal()[1]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def degraded(self) -> int:
        """Jobs that finished with an explicit degraded status."""
        return sum(1 for r in self.results
                   if r.status in DEGRADED_STATUSES)

    def origin_count(self, origin: str) -> int:
        return sum(1 for r in self.results if r.origin == origin)

    @property
    def cache_served(self) -> int:
        return (self.origin_count(ORIGIN_MEMORY)
                + self.origin_count(ORIGIN_DISK))

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requested jobs served without simulating."""
        if not self.results:
            return 0.0
        served = (len(self.results) - self.computed
                  - self.origin_count(ORIGIN_REFUSED))
        return served / len(self.results)

    def to_json(self, full: bool = False) -> dict:
        """``results`` is stable run-to-run; ``metrics`` is operational."""
        return {
            "results": [r.to_json(full=full) for r in self.results],
            "metrics": {
                "jobs": len(self.results),
                "unique_jobs": self.unique_jobs,
                "computed": self.computed,
                "coalesced": self.origin_count(ORIGIN_DEDUP),
                "cache_served": self.cache_served,
                "cache_hit_rate": round(self.cache_hit_rate, 6),
                "degraded": self.degraded,
                "elapsed_s": round(self.elapsed_s, 4),
                "jobs_per_s": round(len(self.results)
                                    / max(self.elapsed_s, 1e-9), 2),
                "cache": self.cache_stats,
                "resilience": self.resilience,
            },
        }

    def render(self) -> str:
        """Human-readable per-job table plus a metrics summary."""
        rows = []
        for r in self.results:
            cycles = r.snapshot.cycles if r.snapshot is not None else "-"
            rows.append((r.name, r.key[:12], r.origin, r.status, cycles))
        table = format_table(("job", "key", "origin", "status", "cycles"),
                             rows, title="batch results", align_right_from=4)
        m = self.to_json()["metrics"]
        metric_rows = [(k, m[k]) for k in
                       ("jobs", "unique_jobs", "computed", "coalesced",
                        "cache_served", "cache_hit_rate", "degraded",
                        "elapsed_s", "jobs_per_s")]
        summary = format_table(("metric", "value"), metric_rows,
                               title="batch metrics")
        return f"{table}\n\n{summary}"


class BatchRunner:
    """Run batches of :class:`~repro.serve.jobs.Job` through cache + pool.

    ``registry`` is the :class:`~repro.obs.MetricsRegistry` the runner
    (and the pool beneath it) publishes into; when omitted a private
    registry is created so library use stays hermetic.  The CLI entry
    points pass the process-wide default so one snapshot covers the
    cache, pool, batch, and service layers together.

    Resilience knobs (all optional; see ``pool.run_prepared``):
    ``deadline_s`` is a per-job wall-clock ceiling (jobs with one run in
    worker processes, one under ``jobs=1``; the in-process fallback used
    when no worker can be spawned arms it only on the main thread),
    ``backoff`` the seeded retry policy, ``quarantine`` the poison-job
    strike book — owned by the runner so strikes persist across
    batches — and ``chaos`` an injection plane for tests and drills.
    """

    def __init__(self, cache: ResultCache | None = None, jobs: int = 1,
                 retries: int = 1, registry: MetricsRegistry | None = None,
                 *, deadline_s: float | None = None,
                 backoff: BackoffPolicy | None = None,
                 quarantine: Quarantine | None = None,
                 chaos=None, stall_timeout_s: float | None = None) -> None:
        self.cache = cache if cache is not None else ResultCache.disabled()
        self.jobs = jobs
        self.retries = retries
        self.deadline_s = deadline_s
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.quarantine = (quarantine if quarantine is not None
                           else Quarantine())
        self.chaos = chaos
        self.stall_timeout_s = stall_timeout_s
        self.registry = registry if registry is not None else MetricsRegistry()
        self._batches = self.registry.counter(
            "batch_runs_total", "batches executed by the batch runner")
        self._jobs_by_origin = self.registry.counter(
            "batch_jobs_total", "batch jobs served, by result origin",
            labels=("origin",))
        self._elapsed = self.registry.histogram(
            "batch_elapsed_seconds", "wall time of whole batches")
        self._last: Callable[[], BatchReport | None] = lambda: None

    def run(self, jobs: list[Job]) -> BatchReport:
        """Execute a batch; results are ordered like the request."""
        started = time.perf_counter()
        # The last batch's report, if still held, renders its sections
        # before this batch moves the counters.
        last = self._last()
        if last is not None:
            last.seal()
        # Key every job: from the key memo, or by preparing it.  A job
        # whose machine cannot host its kernel fails on its own, unkeyed:
        # a batch (or a sweep's grid) over machines runs the others.  Any
        # other JobError is a malformed request.
        keys: list[str | UnfitJobError] = []
        prepared: list[PreparedJob | None] = []
        for job in jobs:
            digest = job_digest(job)
            key = KEY_MEMO.get(digest)
            item = None
            if key is None:
                try:
                    item = job.prepare()
                except UnfitJobError as exc:
                    key = exc
                else:
                    key = item.key
                    KEY_MEMO.put(digest, key)
            keys.append(key)
            prepared.append(item)

        # Cache pass + in-batch coalescing: each unique key simulates at
        # most once, and only if neither cache tier has it.  A job keyed
        # from the memo is prepared only here, to run.
        origins: list[str] = []
        hits: dict[str, ResultSnapshot] = {}
        to_compute: list = []
        seen: set[str] = set()
        for job, key, item in zip(jobs, keys, prepared):
            if isinstance(key, UnfitJobError):
                origins.append(ORIGIN_REFUSED)
                continue
            if key in seen:
                origins.append(ORIGIN_DEDUP)
                continue
            seen.add(key)
            snap, tier = self.cache.lookup(key)
            if snap is not None:
                hits[key] = snap
                origins.append(ORIGIN_MEMORY if tier == "memory"
                               else ORIGIN_DISK)
            else:
                to_compute.append(item or job.prepare(key=key))
                origins.append(ORIGIN_COMPUTED)

        outcomes = run_prepared(to_compute, jobs=self.jobs,
                                retries=self.retries,
                                registry=self.registry,
                                deadline_s=self.deadline_s,
                                chaos=self.chaos,
                                backoff=self.backoff,
                                quarantine=self.quarantine,
                                stall_timeout_s=self.stall_timeout_s,
                                ) if to_compute else []
        by_key: dict[str, JobOutcome] = {o.key: o for o in outcomes}
        for outcome in outcomes:
            if outcome.ok:
                self.cache.put(outcome.key, outcome.snapshot)

        report = BatchReport(unique_jobs=len(seen),
                             computed=len(to_compute))
        for job, key, origin in zip(jobs, keys, origins):
            if origin == ORIGIN_REFUSED:
                report.results.append(JobResult(
                    job.name, "", "error", origin, error=str(key)))
            elif origin == ORIGIN_DEDUP:
                base = next(r for r in report.results if r.key == key)
                report.results.append(JobResult(
                    job.name, key, base.status, ORIGIN_DEDUP,
                    snapshot=base.snapshot, error=base.error))
            elif key in hits:
                report.results.append(JobResult(
                    job.name, key, "ok", origin, snapshot=hits[key]))
            else:
                outcome = by_key[key]
                report.results.append(JobResult(
                    job.name, key, outcome.status, ORIGIN_COMPUTED,
                    snapshot=outcome.snapshot, error=outcome.error))
        report.elapsed_s = time.perf_counter() - started
        report.runner = self
        self._last = weakref.ref(report)
        self._batches.inc()
        for result in report.results:
            self._jobs_by_origin.inc(origin=result.origin)
        self._elapsed.observe(report.elapsed_s)
        return report
