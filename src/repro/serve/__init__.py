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

import importlib

# Every public name, by its module, imported on first use (PEP 562): so
# ``repro run --json``, which needs only the snapshot, skips the batch
# runner, cache, dispatcher, pool and chaos modules.
_EXPORTS = {
    "batch": ("BatchReport", "BatchRunner", "JobResult"),
    "cache": ("CacheStats", "ResultCache", "default_cache_dir",
              "rendezvous_shard"),
    "chaos": ("ChaosError", "ChaosKind", "ChaosPlane", "ChaosReport",
              "ChaosSpec", "random_chaos_specs", "run_chaos_campaign",
              "synthetic_jobs"),
    "dispatch": ("DEFAULT_TENANT", "DETERMINISTIC_OPS", "SHED_OLDEST",
                 "SHED_REFUSE", "Dispatcher", "LineAssembler", "SloTracker",
                 "canonical_reply"),
    "identity": ("CACHE_SCHEMA_VERSION", "canonical_json",
                 "config_fingerprint", "job_key", "program_fingerprint"),
    "jobs": ("MAX_JOB_BYTES", "MAX_JOB_CYCLES", "Job", "JobError",
             "PreparedJob", "config_from_json", "jobs_from_json"),
    "pool": ("DEGRADED_STATUSES", "STATUS_DEADLINE", "STATUS_ERROR",
             "STATUS_OK", "STATUS_QUARANTINED", "STATUS_TIMEOUT",
             "JobOutcome", "execute_prepared", "run_prepared"),
    "resilience": ("BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN",
                   "BackoffPolicy", "CircuitBreaker", "DeadlineExceeded",
                   "Quarantine", "deadline"),
    "snapshot": ("CorruptSnapshot", "ResultSnapshot", "pack_snapshot",
                 "stats_to_json", "unpack_snapshot"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
