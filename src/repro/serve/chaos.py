"""Deterministic chaos injection for the serving stack.

The host-level sibling of :mod:`repro.faults`: where a
:class:`~repro.faults.spec.FaultSpec` upsets bits inside the simulated
machine, a :class:`ChaosSpec` upsets the *infrastructure running the
simulations* — worker processes die, workers go slow, executors raise,
disk writes tear, fsyncs fail.  The design mirrors the fault plane
exactly:

* specs are frozen, serializable dataclasses, so a chaos plan can be
  diffed and replayed bit-for-bit;
* :func:`random_chaos_specs` draws a plan deterministically from a seed;
* a :class:`ChaosPlane` holds the plan and answers zero-overhead hooks
  (``is not None`` checks) in the pool and cache — a stack built without
  chaos pays nothing.

Targeting is positional, which is what makes plans deterministic before
any job key exists: job-directed kinds name the *index of the unique
computed job* within the batch handed to the pool (submission order is
deterministic), disk-directed kinds name the *ordinal of the disk write*
in the cache (cache traffic is serial in the coordinating process).

Semantics per kind (chosen so that every chaos outcome is a
deterministic function of the plan — see ``tests/test_resilience.py``):

* ``worker_kill``   — the job's first ``times`` pool submissions die
  (``os._exit`` in the worker, after ``delay_s`` if set), after which
  it runs normally.  A killed submission never produces a result, so
  the job's eventual outcome does not depend on worker scheduling.
* ``slow_worker``   — every execution of the job sleeps ``delay_s``
  first (exercises wall-clock deadlines; never changes result bytes).
* ``raise_exc``     — every execution raises :class:`ChaosError`
  (exercises the pool's must-not-raise hardening; the job's outcome is
  a deterministic ``error``).
* ``write_truncate``— disk writes ``[op, op+times)`` publish only a
  prefix of the entry (a torn write the checksummed envelope must catch
  on the next read).
* ``fsync_fail``    — disk writes ``[op, op+times)`` fail with an
  I/O error before publishing (feeds the cache circuit breaker).

:func:`run_chaos_campaign` drives a full seeded campaign — synthetic
batch, chaos-free oracle, chaotic run, chaos-free recovery over the
surviving cache — and checks the three invariants the serve tier
promises: no job lost or duplicated, every outcome byte-identical to
the oracle or explicitly degraded, and full recovery once chaos stops.
"""

from __future__ import annotations

import enum
import pickle
import random
import tempfile
import time
from dataclasses import dataclass, field, replace

from repro.util.fields import check, from_json, rule


class ChaosError(RuntimeError):
    """The exception ``raise_exc`` chaos injects inside executors."""


class ChaosKind(enum.Enum):
    """What kind of infrastructure failure a spec injects."""

    WORKER_KILL = "worker_kill"
    SLOW_WORKER = "slow_worker"
    RAISE = "raise_exc"
    WRITE_TRUNCATE = "write_truncate"
    FSYNC_FAIL = "fsync_fail"


#: Kinds that target a job in the pool (by computed-batch index).
JOB_KINDS = (ChaosKind.WORKER_KILL, ChaosKind.SLOW_WORKER, ChaosKind.RAISE)
#: Kinds that target the disk cache (by write ordinal).
DISK_KINDS = (ChaosKind.WRITE_TRUNCATE, ChaosKind.FSYNC_FAIL)


@dataclass(frozen=True)
class ChaosSpec:
    """One deterministic infrastructure fault.

    ``job`` indexes the unique computed jobs handed to the pool (for
    job kinds); ``op`` is the 0-based ordinal of the disk write (for
    disk kinds).  ``times`` bounds how many submissions/writes the spec
    hits; ``delay_s`` is the ``slow_worker`` sleep, or how long a
    ``worker_kill`` worker lives before dying.
    """

    kind: ChaosKind = rule("infrastructure failure injected")
    job: int = rule("computed-job index hit by a job kind", 0, lo=0)
    op: int = rule("first disk-write ordinal hit by a disk kind", 0, lo=0)
    times: int = rule("submissions or writes hit", 1, lo=1)
    delay_s: float = rule("slow_worker sleep, or a killed worker's life, "
                          "in seconds", 0.0, lo=0)
    label: str = rule("free-form label", "", compare=False)

    def __post_init__(self) -> None:
        check(self, ValueError)
        if self.kind is ChaosKind.SLOW_WORKER and self.delay_s == 0:
            raise ValueError("slow_worker specs need delay_s > 0")

    def describe(self) -> str:
        if self.kind in DISK_KINDS:
            where = f"write[{self.op}:{self.op + self.times}]"
        else:
            where = f"job {self.job}"
        extra = (f" delay {self.delay_s}s"
                 if self.kind is ChaosKind.SLOW_WORKER else "")
        times = (f" x{self.times}"
                 if self.kind is ChaosKind.WORKER_KILL else "")
        return f"{self.kind.value} {where}{times}{extra}"

    def to_json(self) -> dict:
        return {"label": self.label, "kind": self.kind.value,
                "job": self.job, "op": self.op, "times": self.times,
                "delay_s": self.delay_s}

    @staticmethod
    def from_json(data: dict) -> "ChaosSpec":
        return from_json(ChaosSpec, data, "chaos", ValueError)


# Default kind mix for random plans: kills dominate (they exercise the
# whole rebuild/backoff/quarantine path), with a disk-failure tail.
DEFAULT_KIND_WEIGHTS = (
    (ChaosKind.WORKER_KILL, 30),
    (ChaosKind.SLOW_WORKER, 20),
    (ChaosKind.RAISE, 15),
    (ChaosKind.WRITE_TRUNCATE, 20),
    (ChaosKind.FSYNC_FAIL, 15),
)


def random_chaos_specs(count: int, seed: int, jobs: int,
                       kinds: list[ChaosKind] | None = None,
                       max_kills: int = 2,
                       ) -> list[ChaosSpec]:
    """Deterministically draw ``count`` chaos specs for a batch shape.

    Mirrors :func:`repro.faults.spec.random_fault_specs`: the same
    ``(count, seed, jobs, kinds, max_kills)`` always yields the same
    plan.  ``jobs`` bounds the job/write indices; ``max_kills`` caps
    ``worker_kill`` repeat counts so random plans recover (poison jobs
    are injected explicitly, not drawn).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    rng = random.Random(seed)
    menu = DEFAULT_KIND_WEIGHTS
    if kinds is not None:
        wanted = set(kinds)
        menu = [m for m in DEFAULT_KIND_WEIGHTS if m[0] in wanted]
        if not menu:
            raise ValueError(
                f"no known chaos kinds in {sorted(k.value for k in wanted)}")
    choices = [m[0] for m in menu]
    weights = [m[1] for m in menu]
    specs: list[ChaosSpec] = []
    for i in range(count):
        kind = rng.choices(choices, weights=weights, k=1)[0]
        spec = ChaosSpec(
            kind=kind,
            job=rng.randrange(jobs),
            op=rng.randrange(jobs),
            times=(rng.randint(1, max(max_kills, 1))
                   if kind is ChaosKind.WORKER_KILL else 1),
            delay_s=(round(rng.uniform(0.02, 0.1), 3)
                     if kind is ChaosKind.SLOW_WORKER else 0.0),
        )
        specs.append(replace(spec, label=f"c{i:04d}:{spec.describe()}"))
    return specs


class ChaosPlane:
    """Holds a chaos plan and answers the pool/cache injection hooks.

    The plane lives in the coordinating process; only the *resolved*
    per-submission action tuples cross into workers (specs are
    picklable), so workers carry no mutable chaos state.
    """

    def __init__(self, specs: list[ChaosSpec] | None = None) -> None:
        self.specs = list(specs or [])
        self.write_ops = 0
        self.injection_log: list[str] = []

    def job_actions(self, index: int, attempt: int) -> tuple:
        """Specs that apply to submission ``attempt`` of job ``index``.

        Pure function of its arguments: ``worker_kill`` applies while
        ``attempt < times``; ``slow_worker`` / ``raise_exc`` apply to
        every attempt (see the module docstring for why).
        """
        out = []
        for spec in self.specs:
            if spec.kind not in JOB_KINDS or spec.job != index:
                continue
            if spec.kind is ChaosKind.WORKER_KILL and attempt >= spec.times:
                continue
            out.append(spec)
        return tuple(out)

    def next_write_action(self) -> ChaosSpec | None:
        """Disk-write hook: the spec hitting this write, if any."""
        op = self.write_ops
        self.write_ops += 1
        for spec in self.specs:
            if (spec.kind in DISK_KINDS
                    and spec.op <= op < spec.op + spec.times):
                self.injection_log.append(
                    f"write {op}: {spec.label or spec.describe()}")
                return spec
        return None

    def to_json(self) -> dict:
        return {"specs": [s.to_json() for s in self.specs],
                "write_ops": self.write_ops,
                "injections": list(self.injection_log)}


# ---------------------------------------------------------------------------
# seeded chaos campaigns
# ---------------------------------------------------------------------------

# Synthetic campaign job: each job broadcasts a distinct value, bumps it
# per-PE, and reduces — a few cycles each, unique key and result per job.
_CAMPAIGN_TEMPLATE = """
.text
main:
    li     s1, {value}
    pbcast p1, s1
    paddi  p1, p1, 1
    rmax   s2, p1
    halt
"""


def synthetic_jobs(count: int, num_pes: int = 4, num_threads: int = 2):
    """``count`` distinct tiny jobs (job ``i`` computes ``i + 1``)."""
    from repro.core.config import ProcessorConfig
    from repro.serve.jobs import Job

    cfg = ProcessorConfig(num_pes=num_pes, num_threads=num_threads,
                          lmem_words=64, scalar_mem_words=128)
    return [Job(name=f"chaos-{i:04d}",
                source=_CAMPAIGN_TEMPLATE.format(value=i), config=cfg)
            for i in range(count)]


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos_campaign`.

    ``to_json()["results"]`` and ``["invariants"]`` are deterministic
    for a given ``(jobs, seed, events)`` plan; ``["metrics"]`` is
    operational (wall times, retry counts) and may vary run-to-run.
    """

    jobs: int
    seed: int
    plan: list[ChaosSpec]
    results: list[dict] = field(default_factory=list)
    lost: list[str] = field(default_factory=list)
    duplicated: list[str] = field(default_factory=list)
    mismatched: list[str] = field(default_factory=list)
    unrecovered: list[str] = field(default_factory=list)
    degraded: int = 0
    quarantined: int = 0
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (self.lost or self.duplicated or self.mismatched
                    or self.unrecovered)

    def to_json(self) -> dict:
        return {
            "jobs": self.jobs,
            "seed": self.seed,
            "plan": [s.to_json() for s in self.plan],
            "results": list(self.results),
            "invariants": {
                "ok": self.ok,
                "lost": list(self.lost),
                "duplicated": list(self.duplicated),
                "mismatched": list(self.mismatched),
                "unrecovered": list(self.unrecovered),
                "degraded": self.degraded,
                "quarantined": self.quarantined,
            },
            "metrics": dict(self.metrics),
        }

    def render(self) -> str:
        from repro.util.tables import format_table

        rows = [(s.label or s.describe(),) for s in self.plan]
        plan = format_table(("chaos plan",), rows, title="injected chaos")
        inv = self.to_json()["invariants"]
        inv_rows = [(k, v if not isinstance(v, list) else len(v))
                    for k, v in inv.items()]
        m_rows = sorted(self.metrics.items())
        summary = format_table(("invariant", "value"), inv_rows,
                               title=f"chaos campaign: {self.jobs} jobs, "
                                     f"seed {self.seed}")
        metrics = format_table(("metric", "value"), m_rows,
                               title="operational metrics")
        verdict = ("all invariants hold" if self.ok
                   else "INVARIANT VIOLATION")
        return f"{plan}\n\n{summary}\n\n{metrics}\n\n{verdict}"


def run_chaos_campaign(jobs_count: int = 100, seed: int = 0,
                       workers: int = 4, events: int = 12,
                       cache_dir=None, deadline_s: float | None = None,
                       retries: int = 1, strike_limit: int = 3,
                       poison: int = 0, registry=None,
                       specs: list[ChaosSpec] | None = None,
                       ) -> ChaosReport:
    """Run one seeded chaos campaign and check the serve invariants.

    Four phases: (1) a chaos-free **oracle** batch (serial, memory-only
    cache) fixes the expected bytes for every job; (2) the **chaotic**
    batch runs the same jobs through pool + disk cache with the seeded
    plan injected; (3) a chaos-free **recovery** batch over the
    surviving cache directory proves the stack heals (torn entries
    recompute, degraded jobs complete); (4) invariants are checked: no
    job lost or duplicated, every chaotic outcome byte-identical to the
    oracle or explicitly degraded, recovery fully byte-identical.

    ``poison`` appends that many unkillable jobs (``times=99`` kill
    specs) to exercise quarantine end to end.
    """
    from repro.serve.batch import BatchRunner
    from repro.serve.cache import ResultCache
    from repro.serve.pool import DEGRADED_STATUSES, STATUS_QUARANTINED
    from repro.serve.resilience import BackoffPolicy, Quarantine

    started = time.perf_counter()
    jobs = synthetic_jobs(jobs_count)
    if specs is None:
        specs = random_chaos_specs(events, seed=seed, jobs=jobs_count)
    for p in range(poison):
        target = (seed + p) % jobs_count
        specs = specs + [ChaosSpec(kind=ChaosKind.WORKER_KILL, job=target,
                                   times=99, label=f"poison job {target}")]

    # Phase 1: chaos-free oracle (serial, hermetic cache).
    oracle = BatchRunner(cache=ResultCache.disabled()).run(jobs)
    oracle_bytes = {r.key: pickle.dumps(r.snapshot) for r in oracle.results}

    # Phase 2: the chaotic run.
    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        cache_dir = tmp.name
    try:
        plane = ChaosPlane(specs)
        # Fast, seeded backoff: reproducible schedule, short test runs.
        backoff = BackoffPolicy(base_s=0.01, cap_s=0.05, seed=seed)
        chaotic_runner = BatchRunner(
            cache=ResultCache(cache_dir=cache_dir, chaos=plane,
                              registry=registry),
            jobs=workers, retries=retries, registry=registry,
            deadline_s=deadline_s, chaos=plane, backoff=backoff,
            quarantine=Quarantine(strike_limit=strike_limit),
            stall_timeout_s=30.0)
        chaotic = chaotic_runner.run(jobs)

        # Phase 3: chaos-free recovery over the surviving cache.
        recovery = BatchRunner(
            cache=ResultCache(cache_dir=cache_dir)).run(jobs)
    finally:
        if tmp is not None:
            tmp.cleanup()

    report = ChaosReport(jobs=jobs_count, seed=seed, plan=list(specs))

    # Phase 4: invariants.
    expected = [j.name for j in jobs]
    got = [r.name for r in chaotic.results]
    seen: set[str] = set()
    for name in got:
        if name in seen:
            report.duplicated.append(name)
        seen.add(name)
    report.lost = [n for n in expected if n not in seen]

    for result in chaotic.results:
        entry = {"name": result.name, "key": result.key,
                 "status": result.status}
        if result.status == "ok":
            entry["match"] = (pickle.dumps(result.snapshot)
                              == oracle_bytes[result.key])
            if not entry["match"]:
                report.mismatched.append(result.name)
        elif result.status in DEGRADED_STATUSES:
            report.degraded += 1
            if result.status == STATUS_QUARANTINED:
                report.quarantined += 1
        else:
            report.mismatched.append(result.name)
        report.results.append(entry)

    for result in recovery.results:
        if (result.status != "ok"
                or pickle.dumps(result.snapshot)
                != oracle_bytes[result.key]):
            report.unrecovered.append(result.name)

    report.metrics = {
        "elapsed_s": round(time.perf_counter() - started, 4),
        "chaotic_computed": chaotic.computed,
        "chaotic_cache_served": chaotic.cache_served,
        "recovery_cache_served": recovery.cache_served,
        "disk_injections": len(plane.injection_log),
        "cache_corrupt_entries":
            chaotic_runner.cache.stats.corrupt_entries,
        "cache_disk_errors": chaotic_runner.cache.stats.disk_errors,
        "breaker_opens": chaotic_runner.cache.breaker_json()["opens"],
        "quarantine": chaotic_runner.quarantine.to_json(),
    }
    return report
