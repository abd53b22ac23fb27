"""Multiprocess execution of prepared simulation jobs.

The paper's core argument is that fine-grain multithreading keeps a
machine busy by overlapping independent work under latency; this module
applies the same idea at the host level: independent simulations are
embarrassingly parallel, so a batch of prepared jobs fans out over a
``concurrent.futures.ProcessPoolExecutor``.

Guarantees, in order of importance:

* **determinism** — results come back in input order regardless of
  worker scheduling, and each worker computes a pure function of its
  (picklable) payload, so a parallel batch is byte-identical to the
  serial one;
* **exactly-once outcomes** — a job whose future completed before the
  pool broke keeps its result; only jobs that never produced a result
  are retried, so no key is executed-and-recorded twice;
* **two watchdogs** — per-job limits map onto the simulator's
  ``max_cycles`` cycle watchdog (a hung *program* is a deterministic
  ``timeout`` outcome), and an optional wall-clock ``deadline_s`` guards
  the worker itself (a hung or chaos-slowed *worker* is a deterministic
  ``deadline`` outcome instead of a stalled campaign);
* **bounded, backed-off retries** — if the pool breaks (a worker is
  OOM-killed or segfaults), missing keys are retried on fresh pools with
  exponential seeded-jitter backoff; whatever still fails is probed in
  **solo** one-worker pools, where a crash unambiguously convicts the
  job: repeat offenders are quarantined with a diagnostic
  ``quarantined`` outcome instead of being retried forever or handed to
  the in-process serial fallback (which a poison job would take down);
* **must-not-raise hardening** — an executor that raises anyway (a bug,
  or ``raise_exc`` chaos) becomes a per-job ``error`` outcome, never a
  crashed batch.

Without a deadline, ``jobs <= 1`` runs in-process with no executor,
the reference path the parallel paths must match.  A deadline is a
SIGALRM timer, which reaches only a main thread and the caller may be
on another, so its jobs always run in worker processes, one under
``jobs <= 1``.  All chaos hooks
(:class:`~repro.serve.chaos.ChaosPlane`) sit behind ``is not None``
checks — a pool built without chaos pays nothing.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.assoc.fastpath import FastMachine
from repro.core.processor import Processor, SimTimeout, SimulationError
from repro.serve.chaos import ChaosError, ChaosKind
from repro.serve.jobs import PreparedJob
from repro.serve.resilience import (
    BackoffPolicy,
    DeadlineExceeded,
    Quarantine,
    deadline,
)
from repro.serve.snapshot import ResultSnapshot

# Outcome status values, in severity order.
STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_DEADLINE = "deadline"
STATUS_ERROR = "error"
STATUS_QUARANTINED = "quarantined"

#: Statuses that are explicit, deterministic degradations (never cached,
#: never silently wrong): everything except a clean result.
DEGRADED_STATUSES = (STATUS_TIMEOUT, STATUS_DEADLINE, STATUS_ERROR,
                     STATUS_QUARANTINED)

# Exit code chaos worker-kills die with (diagnosable in core dumps/logs).
CHAOS_KILL_EXIT = 113


@dataclass
class JobOutcome:
    """What one simulation produced (picklable; crosses processes)."""

    key: str
    status: str
    snapshot: ResultSnapshot | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def degraded(self) -> bool:
        return self.status in DEGRADED_STATUSES


def execute_prepared(item: PreparedJob) -> JobOutcome:
    """Run one prepared job to completion on a fresh machine.

    Module-level (hence picklable) and dependent only on ``item``: this
    is the unit of work both the in-process path and pool workers run.
    """
    program = item.program
    verify_summary = None
    if item.verify:
        from repro.opt.scheduler import schedule_program_verified

        scheduled, report = schedule_program_verified(program, item.config)
        if not report.equivalent:
            return JobOutcome(item.key, STATUS_ERROR,
                              error="translation validation refuted the "
                                    "schedule: " + report.format())
        program = scheduled
        verify_summary = report.to_json()
    try:
        plane = None
        if item.fault is not None:
            from repro.faults.plane import FaultPlane

            plane = FaultPlane([item.fault], item.config)
        sanitizer = None
        if item.sanitize:
            from repro.core.sanitizer import RaceSanitizer

            sanitizer = RaceSanitizer()
        profiler = None
        if item.profile:
            from repro.obs.profiler import CycleProfiler

            profiler = CycleProfiler()
        machine = FastMachine if item.backend == "fast" else Processor
        proc = machine(item.config, faults=plane, sanitizer=sanitizer,
                       profiler=profiler)
        proc.load(program)
        proc.pe.load_lmem(sorted(item.lmem.items()))
        result = proc.run(max_cycles=item.max_cycles)
    except SimTimeout as exc:
        return JobOutcome(item.key, STATUS_TIMEOUT, error=str(exc))
    except (SimulationError, RuntimeError, ValueError) as exc:
        return JobOutcome(item.key, STATUS_ERROR,
                          error=f"{type(exc).__name__}: {exc}")
    races = None
    if sanitizer is not None:
        races = [r.to_json() for r in sanitizer.reports]
    profile = None
    if profiler is not None:
        profile = profiler.to_json()
    return JobOutcome(item.key, STATUS_OK,
                      snapshot=ResultSnapshot.from_result(
                          result, races=races, profile=profile,
                          verify=verify_summary, backend=item.backend))


# ---------------------------------------------------------------------------
# execution envelope: chaos + deadline wrapped around the executor fn
# ---------------------------------------------------------------------------

@dataclass
class _ExecEnv:
    """One submission's complete, picklable execution context."""

    fn: object                 # module-level callable item -> JobOutcome
    item: object
    key: str
    deadline_s: float | None
    actions: tuple             # resolved ChaosSpec actions for this attempt


def _execute_env(env: _ExecEnv) -> JobOutcome:
    """Run one envelope (worker side; also the serial reference path).

    A kill action pre-empts the job entirely (it models the worker
    dying, not the job misbehaving), after its optional ``delay_s``;
    slow and raise actions run *inside* the deadline guard, so a
    chaos-slowed worker trips ``deadline_s`` exactly like a genuinely
    hung one.
    """
    slow_s = 0.0
    raising = False
    kill = None
    for act in env.actions:
        if act.kind is ChaosKind.WORKER_KILL:
            kill = act
        elif act.kind is ChaosKind.SLOW_WORKER:
            slow_s += act.delay_s
        elif act.kind is ChaosKind.RAISE:
            raising = True
    if kill is not None:
        # Only reached inside a real worker process: the serial paths
        # convert kill actions into strikes without executing.
        if slow_s or kill.delay_s:
            time.sleep(slow_s + kill.delay_s)
        os._exit(CHAOS_KILL_EXIT)
    try:
        with deadline(env.deadline_s):
            if slow_s:
                time.sleep(slow_s)
            if raising:
                raise ChaosError("chaos: injected executor exception")
            return env.fn(env.item)
    except DeadlineExceeded as exc:
        return JobOutcome(env.key, STATUS_DEADLINE, error=str(exc))


def _pool_counter(registry):
    return registry.counter(
        "pool_tasks_total",
        "tasks executed by the job pool, labelled by execution path",
        labels=("path",))


class _Metrics:
    """Pool-side resilience counters (no-ops without a registry)."""

    def __init__(self, registry) -> None:
        self.registry = registry
        if registry is None:
            return
        self.tasks = _pool_counter(registry)
        self.rebuilds = registry.counter(
            "pool_broken_retries_total",
            "fresh-executor retries after a broken process pool")
        self.outcomes = registry.counter(
            "pool_outcomes_total", "job outcomes by status",
            labels=("status",))
        self.quarantined = registry.counter(
            "pool_quarantined_total", "jobs quarantined as poison")
        self.backoff_s = registry.counter(
            "pool_backoff_seconds_total",
            "total seconds slept in retry backoff")

    def count_tasks(self, n: int, path: str) -> None:
        if self.registry is not None and n:
            self.tasks.inc(n, path=path)

    def count_rebuild(self) -> None:
        if self.registry is not None:
            self.rebuilds.inc()

    def count_outcome(self, outcome: JobOutcome) -> None:
        if self.registry is not None:
            self.outcomes.inc(status=outcome.status)
            if outcome.status == STATUS_QUARANTINED:
                self.quarantined.inc()

    def count_backoff(self, seconds: float) -> None:
        if self.registry is not None and seconds:
            self.backoff_s.inc(seconds)


def map_ordered(fn, items: list, jobs: int = 1, retries: int = 1,
                registry=None) -> list:
    """Apply picklable ``fn`` to every item, preserving input order.

    ``jobs <= 1`` is a plain serial loop.  With workers, pool breakage
    (crashed worker processes) is retried on a fresh executor up to
    ``retries`` times; whatever is still missing after that is computed
    serially in-process.  ``fn`` itself must not raise for ordinary
    per-item failures — encode those in its return value.

    Exactly-once: futures that completed before a pool broke keep their
    results — including futures collected before a *submission* failure
    mid-round — so no item is recorded twice.

    ``registry`` (a :class:`~repro.obs.MetricsRegistry`) receives
    ``pool_tasks_total{path=serial|pool|fallback}`` and
    ``pool_broken_retries_total`` when given.
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs <= 1 or len(items) <= 1:
        if registry is not None and items:
            _pool_counter(registry).inc(len(items), path="serial")
        return [fn(item) for item in items]

    results: dict[int, object] = {}
    pending = list(range(len(items)))
    for attempt in range(max(retries, 0) + 1):
        if not pending:
            break
        if attempt and registry is not None:
            registry.counter(
                "pool_broken_retries_total",
                "fresh-executor retries after a broken process pool",
            ).inc()
        try:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
        except OSError:       # cannot spawn workers at all
            break
        with pool:
            futures: dict[int, object] = {}
            for i in pending:
                try:
                    futures[i] = pool.submit(fn, items[i])
                except BrokenProcessPool:
                    break     # pool died mid-submission; drain what we have
            still_pending = [i for i in pending if i not in futures]
            for i, future in futures.items():
                try:
                    results[i] = future.result()
                except BrokenProcessPool:
                    still_pending.append(i)
            pending = sorted(still_pending)
    if registry is not None:
        done = len(items) - len(pending)
        if done:
            _pool_counter(registry).inc(done, path="pool")
        if pending:
            _pool_counter(registry).inc(len(pending), path="fallback")
    for i in pending:   # last resort: serial, in-process
        results[i] = fn(items[i])
    return [results[i] for i in range(len(items))]


# ---------------------------------------------------------------------------
# the resilient JobOutcome engine
# ---------------------------------------------------------------------------

def _quarantined_outcome(key: str, reason: str) -> JobOutcome:
    return JobOutcome(key, STATUS_QUARANTINED,
                      error=f"quarantined as poison job: {reason}")


class _Engine:
    """One ``run_prepared`` invocation's mutable state."""

    def __init__(self, items, jobs, retries, registry, deadline_s, chaos,
                 backoff, quarantine, fn, sleep, stall_timeout_s) -> None:
        self.items = items
        self.jobs = jobs
        self.retries = max(retries, 0)
        # A deadline that ``deadline()`` would not arm is no deadline.
        self.deadline_s = deadline_s if deadline_s and deadline_s > 0 else None
        self.chaos = chaos
        self.backoff = backoff or BackoffPolicy()
        self.quarantine = quarantine or Quarantine()
        self.fn = fn
        self.sleep = sleep
        self.stall_timeout_s = stall_timeout_s
        self.metrics = _Metrics(registry)
        self.outcomes: dict[int, JobOutcome] = {}
        self.attempts: dict[int, int] = {}

    def executor(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers)

    @staticmethod
    def kill_pool(pool: ProcessPoolExecutor) -> None:
        """Force a stalled pool's workers down so shutdown can't hang."""
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except (OSError, AttributeError):
                pass

    def key_of(self, i: int) -> str:
        return getattr(self.items[i], "key", f"item{i}")

    def env_for(self, i: int) -> _ExecEnv:
        attempt = self.attempts.get(i, 0)
        self.attempts[i] = attempt + 1
        actions = (self.chaos.job_actions(i, attempt)
                   if self.chaos is not None else ())
        return _ExecEnv(self.fn, self.items[i], self.key_of(i),
                        self.deadline_s, actions)

    def record(self, i: int, outcome: JobOutcome) -> None:
        self.outcomes[i] = outcome
        self.metrics.count_outcome(outcome)

    def back_off(self, attempt: int, token: str) -> None:
        delay = self.backoff.delay(attempt, token)
        if delay > 0:
            self.metrics.count_backoff(delay)
            self.sleep(delay)

    # -- serial (and fallback) path ------------------------------------------

    def run_serial_one(self, i: int, path: str) -> None:
        """In-process execution; chaos kills become strikes, not exits."""
        key = self.key_of(i)
        while True:
            env = self.env_for(i)
            kills = [a for a in env.actions
                     if a.kind is ChaosKind.WORKER_KILL]
            if kills:
                # A kill would take this very process down; treat it as
                # an (authoritative) strike and retry with backoff.
                strikes = self.quarantine.strikes.get(key, 0) + 1
                if self.quarantine.strike(key, "job kills its worker"):
                    self.record(i, _quarantined_outcome(
                        key, self.quarantine.reason(key)))
                    return
                self.back_off(strikes, key)
                continue
            self.metrics.count_tasks(1, path)
            try:
                self.record(i, _execute_env(env))
            except Exception as exc:   # executor must not raise; harden
                self.record(i, JobOutcome(
                    key, STATUS_ERROR,
                    error=f"executor raised "
                          f"{type(exc).__name__}: {exc}"))
            return

    # -- pool path -----------------------------------------------------------

    def run_pool_round(self, pending: list[int]) -> list[int] | None:
        """One fresh-executor round; returns unresolved indices.

        ``None`` means no executor could be spawned at all (the caller
        falls back to serial).  Futures that completed before a break
        keep their results (exactly-once); broken futures are *not*
        struck here — in a shared pool the breaker's identity is
        ambiguous, so conviction is deferred to the solo probes.
        """
        try:
            pool = self.executor(max(1, min(self.jobs, len(pending))))
        except OSError:
            return None
        completed = 0
        with pool:
            futures: dict[int, object] = {}
            for i in pending:
                try:
                    futures[i] = pool.submit(_execute_env, self.env_for(i))
                except BrokenProcessPool:
                    # Pool died mid-submission: the unsubmitted tail
                    # consumed no attempt; undo the env_for bump.
                    self.attempts[i] -= 1
                    break
            unresolved = [i for i in pending if i not in futures]
            for i, future in futures.items():
                try:
                    self.record(i, future.result(self.stall_timeout_s))
                    completed += 1
                except BrokenProcessPool:
                    unresolved.append(i)
                except FutureTimeout:
                    # The pool itself has stalled (not a slow job — the
                    # per-job deadline handles those): kill it and let
                    # the remaining futures resolve as broken.
                    unresolved.append(i)
                    self.kill_pool(pool)
                except Exception as exc:
                    self.record(i, JobOutcome(
                        self.key_of(i), STATUS_ERROR,
                        error=f"executor raised "
                              f"{type(exc).__name__}: {exc}"))
                    completed += 1
        self.metrics.count_tasks(completed, "pool")
        return sorted(unresolved)

    def run_probe(self, i: int) -> bool:
        """Solo one-worker probes for a job that survived every round.

        In a pool of one, a broken pool convicts this job alone, so
        strikes here are authoritative.  Returns False only when no
        executor can be spawned (fall back to serial).
        """
        key = self.key_of(i)
        while True:
            try:
                pool = self.executor(1)
            except OSError:
                return False
            broken = False
            with pool:
                env = self.env_for(i)
                try:
                    self.record(i, pool.submit(_execute_env, env)
                                .result(self.stall_timeout_s))
                except BrokenProcessPool:
                    broken = True
                except FutureTimeout:
                    broken = True
                    self.kill_pool(pool)
                except Exception as exc:
                    self.record(i, JobOutcome(
                        key, STATUS_ERROR,
                        error=f"executor raised "
                              f"{type(exc).__name__}: {exc}"))
            if not broken:
                self.metrics.count_tasks(1, "probe")
                return True
            strikes = self.quarantine.strikes.get(key, 0) + 1
            if self.quarantine.strike(key, "job kills its worker"):
                self.record(i, _quarantined_outcome(
                    key, self.quarantine.reason(key)))
                return True
            self.back_off(strikes, key)

    def run(self) -> list[JobOutcome]:
        n = len(self.items)
        pending = []
        for i in range(n):
            key = self.key_of(i)
            if self.quarantine.is_quarantined(key):
                self.record(i, _quarantined_outcome(
                    key, self.quarantine.reason(key)))
            else:
                pending.append(i)

        if self.deadline_s is None and (self.jobs <= 1 or len(pending) <= 1):
            for i in pending:
                self.run_serial_one(i, "serial")
            return [self.outcomes[i] for i in range(n)]

        round_idx = 0
        fallback = False
        while pending and round_idx <= self.retries:
            if round_idx:
                self.metrics.count_rebuild()
                self.back_off(round_idx, "pool")
            unresolved = self.run_pool_round(pending)
            if unresolved is None:
                fallback = True
                break
            pending = unresolved
            round_idx += 1

        if not fallback:
            for i in list(pending):
                if not self.run_probe(i):
                    fallback = True
                    break
                pending.remove(i)

        for i in pending:   # last resort: serial, in-process
            self.run_serial_one(i, "fallback")
        return [self.outcomes[i] for i in range(n)]


def run_prepared(items: list[PreparedJob], jobs: int = 1,
                 retries: int = 1, registry=None, *,
                 deadline_s: float | None = None, chaos=None,
                 backoff: BackoffPolicy | None = None,
                 quarantine: Quarantine | None = None,
                 fn=None, sleep=None,
                 stall_timeout_s: float | None = None,
                 ) -> list[JobOutcome]:
    """Execute prepared jobs (unique keys) and return ordered outcomes.

    The resilient engine: per-job wall-clock ``deadline_s`` (on top of
    the simulator's cycle watchdog; jobs with one always run in worker
    processes, so it holds on any calling thread), seeded-jitter
    ``backoff`` between pool rebuilds, ``quarantine`` for jobs that
    keep killing workers (strikes are only awarded by solo isolation
    probes, where the conviction is unambiguous and hence
    deterministic), and optional ``chaos`` injection.  ``fn`` must be
    a picklable module-level callable returning a :class:`JobOutcome`
    (default: :func:`execute_prepared`); a fn that raises anyway yields
    an ``error`` outcome rather than a crashed batch.  ``sleep``
    (default ``time.sleep``) is injectable so tests never wait on real
    backoff.  ``stall_timeout_s`` is a parent-side backstop against a
    pool that hangs without breaking (None, the default, trusts the
    pool — production jobs may legitimately run long).
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    engine = _Engine(items, jobs, retries, registry, deadline_s, chaos,
                     backoff, quarantine,
                     fn if fn is not None else execute_prepared,
                     sleep if sleep is not None else time.sleep,
                     stall_timeout_s)
    return engine.run()
