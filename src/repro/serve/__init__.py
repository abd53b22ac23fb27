"""Simulation at scale: content-addressed result cache + batch service.

The host-level counterpart of the paper's multithreading argument: keep
the machine (here, the host CPU) busy by overlapping independent work.
``repro.serve`` gives every simulation a deterministic content identity,
memoizes results in a two-tier cache, fans batches out over a process
pool, and fronts it all with a ``BatchRunner`` API plus the
``repro batch`` / ``repro serve`` CLI (see docs/SERVE.md).

The resilience layer (``repro.serve.resilience`` + ``repro.serve.chaos``)
keeps that stack healthy under host-level failure: per-job wall-clock
deadlines, seeded-jitter backoff around worker-pool rebuilds, poison-job
quarantine, a circuit breaker that degrades the disk cache tier to
memory-only under I/O storms, and a deterministic chaos harness
(``repro chaos``) that proves the whole thing loses nothing.
"""

from repro.serve.batch import BatchReport, BatchRunner, JobResult
from repro.serve.cache import (
    CacheStats,
    ResultCache,
    default_cache_dir,
    rendezvous_shard,
)
from repro.serve.chaos import (
    ChaosError,
    ChaosKind,
    ChaosPlane,
    ChaosReport,
    ChaosSpec,
    random_chaos_specs,
    run_chaos_campaign,
    synthetic_jobs,
)
from repro.serve.dispatch import (
    DEFAULT_TENANT,
    DETERMINISTIC_OPS,
    SHED_OLDEST,
    SHED_REFUSE,
    Dispatcher,
    LineAssembler,
    SloTracker,
    canonical_reply,
)
from repro.serve.identity import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    config_fingerprint,
    job_key,
    program_fingerprint,
)
from repro.serve.jobs import (
    Job,
    JobError,
    PreparedJob,
    config_from_json,
    jobs_from_json,
)
from repro.serve.pool import (
    DEGRADED_STATUSES,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_TIMEOUT,
    JobOutcome,
    execute_prepared,
    map_ordered,
    run_prepared,
)
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BackoffPolicy,
    CircuitBreaker,
    DeadlineExceeded,
    Quarantine,
    deadline,
)
from repro.serve.snapshot import (
    CorruptSnapshot,
    ResultSnapshot,
    pack_snapshot,
    stats_to_json,
    unpack_snapshot,
)

__all__ = [
    "BatchReport",
    "BatchRunner",
    "JobResult",
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "rendezvous_shard",
    "ChaosError",
    "ChaosKind",
    "ChaosPlane",
    "ChaosReport",
    "ChaosSpec",
    "random_chaos_specs",
    "run_chaos_campaign",
    "synthetic_jobs",
    "DEFAULT_TENANT",
    "DETERMINISTIC_OPS",
    "Dispatcher",
    "LineAssembler",
    "SloTracker",
    "canonical_reply",
    "CACHE_SCHEMA_VERSION",
    "canonical_json",
    "config_fingerprint",
    "job_key",
    "program_fingerprint",
    "Job",
    "JobError",
    "PreparedJob",
    "config_from_json",
    "jobs_from_json",
    "DEGRADED_STATUSES",
    "STATUS_DEADLINE",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_QUARANTINED",
    "STATUS_TIMEOUT",
    "JobOutcome",
    "execute_prepared",
    "map_ordered",
    "run_prepared",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BackoffPolicy",
    "CircuitBreaker",
    "DeadlineExceeded",
    "Quarantine",
    "deadline",
    "SHED_OLDEST",
    "SHED_REFUSE",
    "CorruptSnapshot",
    "ResultSnapshot",
    "pack_snapshot",
    "stats_to_json",
    "unpack_snapshot",
]
