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
  exponential seeded-jitter backoff; whatever still fails is probed
  **solo**, in a round of one job on one worker, where a crash
  unambiguously convicts the job: repeat offenders are quarantined with
  a diagnostic ``quarantined`` outcome instead of being retried forever.
  Jobs run in-process only when no worker can be spawned at all;
* **must-not-raise hardening** — a fn that raises anyway (a bug, or
  ``raise`` chaos) becomes a per-job ``error`` outcome, never a crashed
  batch.

Without a deadline, ``jobs <= 1`` runs in-process with no executor,
the reference path the parallel paths must match.  A deadline is a
SIGALRM timer, which reaches only a main thread and the caller may be
on another, so its jobs always run in worker processes, one under
``jobs <= 1``.  All chaos hooks
(:class:`~repro.serve.chaos.ChaosPlane`) sit behind ``is not None``
checks — a pool built without chaos pays nothing.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.assoc.fastpath import FastMachine
from repro.core.processor import Processor, SimTimeout, SimulationError
from repro.obs.metrics import MetricsRegistry
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

    fn: object                 # module-level callable, item -> result
    item: object
    key: str
    deadline_s: float | None
    actions: tuple             # resolved ChaosSpec actions for this attempt


def _error_outcome(key: str, exc: Exception) -> JobOutcome:
    return JobOutcome(key, STATUS_ERROR,
                      error=f"executor raised {type(exc).__name__}: {exc}")


def _execute_env(env: _ExecEnv):
    """Run one envelope (worker side; also the in-process path).

    A kill action pre-empts the job entirely (it models the worker
    dying, not the job misbehaving), after its optional ``delay_s``;
    slow and raise actions run *inside* the deadline guard, so a
    chaos-slowed worker trips ``deadline_s`` exactly like a genuinely
    hung one.  A fn that raises anyway becomes an ``error`` outcome.
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
        # Only reached inside a real worker process: the in-process
        # path converts kill actions into strikes without executing.
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
    except Exception as exc:   # fn must not raise; harden
        return _error_outcome(env.key, exc)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

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
        registry = registry if registry is not None else MetricsRegistry()
        self.tasks = registry.counter(
            "pool_tasks_total",
            "tasks executed by the job pool, labelled by execution path",
            labels=("path",))
        self.rebuilds = registry.counter(
            "pool_broken_retries_total",
            "fresh-executor retries after a broken process pool")
        self.statuses = registry.counter(
            "pool_outcomes_total", "job outcomes by status",
            labels=("status",))
        self.quarantines = registry.counter(
            "pool_quarantined_total", "jobs quarantined as poison")
        self.backoff_s = registry.counter(
            "pool_backoff_seconds_total",
            "total seconds slept in retry backoff")
        self.outcomes: dict[int, object] = {}
        self.attempts: dict[int, int] = {}

    def key_of(self, i: int) -> str:
        return getattr(self.items[i], "key", f"item{i}")

    def env_for(self, i: int) -> _ExecEnv:
        attempt = self.attempts.get(i, 0)
        self.attempts[i] = attempt + 1
        actions = (self.chaos.job_actions(i, attempt)
                   if self.chaos is not None else ())
        return _ExecEnv(self.fn, self.items[i], self.key_of(i),
                        self.deadline_s, actions)

    def record(self, i: int, outcome) -> None:
        self.outcomes[i] = outcome
        # A caller's fn may return anything picklable, without a status.
        if isinstance(outcome, JobOutcome):
            self.statuses.inc(status=outcome.status)
            if outcome.status == STATUS_QUARANTINED:
                self.quarantines.inc()

    def back_off(self, attempt: int, token: str) -> None:
        delay = self.backoff.delay(attempt, token)
        if delay > 0:
            self.backoff_s.inc(delay)
            self.sleep(delay)

    def in_quarantine(self, i: int) -> bool:
        """Whether job ``i``'s key is quarantined; records its outcome."""
        key = self.key_of(i)
        if not self.quarantine.is_quarantined(key):
            return False
        self.record(i, JobOutcome(key, STATUS_QUARANTINED,
                                  error="quarantined as poison job: "
                                        + self.quarantine.reason(key)))
        return True

    def strike(self, i: int) -> bool:
        """One authoritative strike against job ``i`` for killing its
        worker: True when it quarantines the job, else it backs off
        before the job's next attempt."""
        key = self.key_of(i)
        self.quarantine.strike(key, "job kills its worker")
        if self.in_quarantine(i):
            return True
        self.back_off(self.quarantine.strikes[key], key)
        return False

    def run_serial_one(self, i: int, path: str) -> None:
        """In-process execution; chaos kills become strikes, not exits."""
        while True:
            env = self.env_for(i)
            if not any(a.kind is ChaosKind.WORKER_KILL for a in env.actions):
                self.tasks.inc(path=path)
                self.record(i, _execute_env(env))
                return
            # A kill would take this very process down: strike instead.
            if self.strike(i):
                return

    def run_round(self, pending: list[int], path: str) -> list[int] | None:
        """One fresh-executor round; returns unresolved indices.

        ``None`` means no executor could be spawned at all (the caller
        falls back to in-process).  Futures that completed before a break
        keep their results (exactly-once); broken futures are *not*
        struck here, since in a shared pool the breaker's identity is
        ambiguous: conviction is left to the solo probes.
        """
        try:
            pool = ProcessPoolExecutor(
                max_workers=max(1, min(self.jobs, len(pending))))
        except OSError:
            return None
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
                except BrokenProcessPool:
                    unresolved.append(i)
                except FutureTimeout:
                    # The pool itself has stalled (not a slow job — the
                    # per-job deadline handles those): kill its workers,
                    # so shutdown can't hang, and let the remaining
                    # futures resolve as broken.
                    unresolved.append(i)
                    for proc in list(getattr(pool, "_processes",
                                             {}).values()):
                        with contextlib.suppress(OSError, AttributeError):
                            proc.kill()
                except Exception as exc:   # the result could not cross back
                    self.record(i, _error_outcome(self.key_of(i), exc))
        if len(unresolved) < len(pending):
            self.tasks.inc(len(pending) - len(unresolved), path=path)
        return sorted(unresolved)

    def run(self) -> list:
        n = len(self.items)
        pending = [i for i in range(n) if not self.in_quarantine(i)]
        path = "serial"
        if self.deadline_s is not None or (self.jobs > 1 and len(pending) > 1):
            path = "fallback"
            rounds = 0
            while pending and rounds <= self.retries:
                if rounds:
                    self.rebuilds.inc()
                    self.back_off(rounds, "pool")
                unresolved = self.run_round(pending, "pool")
                if unresolved is None:
                    break
                pending = unresolved
                rounds += 1
            else:
                # Every round spawned: probe each survivor in a round of
                # its own, where a break convicts it alone (a strike).
                while pending:
                    unresolved = self.run_round(pending[:1], "probe")
                    if unresolved is None:
                        break
                    if not unresolved or self.strike(pending[0]):
                        pending.pop(0)
        # In-process: the reference path, and the last resort when no
        # worker can be spawned.
        for i in pending:
            self.run_serial_one(i, path)
        return [self.outcomes[i] for i in range(n)]


def run_prepared(items: list, jobs: int = 1,
                 retries: int = 1, registry=None, *,
                 deadline_s: float | None = None, chaos=None,
                 backoff: BackoffPolicy | None = None,
                 quarantine: Quarantine | None = None,
                 fn=None, sleep=None,
                 stall_timeout_s: float | None = None,
                 ) -> list:
    """Execute items (unique keys) and return their results in order.

    The one pool engine, behind every batch, sweep, chaos drill and
    fault campaign: per-job wall-clock ``deadline_s`` (on top of the
    simulator's cycle watchdog; jobs with one always run in worker
    processes, so it holds on any calling thread), seeded-jitter
    ``backoff`` between pool rebuilds, ``quarantine`` for jobs that
    keep killing workers (strikes are only awarded by solo isolation
    probes, where the conviction is unambiguous and hence
    deterministic), and optional ``chaos`` injection.  ``fn`` is a
    picklable module-level callable (default:
    :func:`execute_prepared`) and may return any picklable value; a
    job it raises on, or that the engine quarantines, yields an
    ``error`` or ``quarantined`` :class:`JobOutcome` in its place.
    ``registry`` (a private :class:`~repro.obs.MetricsRegistry` when
    omitted) receives the five ``pool_*`` counters; the outcome count
    by status counts only JobOutcomes.
    ``sleep`` (default ``time.sleep``) is injectable so tests never
    wait on real backoff.  ``stall_timeout_s`` is a parent-side
    backstop against a pool that hangs without breaking (None, the
    default, trusts the pool — production jobs may legitimately run
    long).
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    engine = _Engine(items, jobs, retries, registry, deadline_s, chaos,
                     backoff, quarantine,
                     fn if fn is not None else execute_prepared,
                     sleep if sleep is not None else time.sleep,
                     stall_timeout_s)
    return engine.run()
