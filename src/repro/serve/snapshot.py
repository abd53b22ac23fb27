"""Pickle-safe result snapshots.

A :class:`~repro.core.processor.RunResult` holds the live
:class:`~repro.core.processor.Processor` so tests can poke at
microarchitectural state, but that makes it the wrong thing to cache or
ship between processes: it drags the whole machine (scoreboards, fault
plane, fetch buffers) along and its identity is tied to one Python
process.  A :class:`ResultSnapshot` is the portable form: the
architectural outcome a reply or an oracle reads (statistics, every
thread's scalar registers, the PE register and flag files, scalar data
memory), captured into typed numpy arrays by buffer copies.  PE local
memory and thread states are not captured.

Snapshots are value objects: equality compares every field, arrays by
dtype, shape and contents; a pickle round-trip reproduces an equal
object with the same pickle bytes (asserted by tests), and a cache hit
therefore hands back a result bit-identical to re-simulating.  The
snapshot's array fields are the planes the shared accessors read
(:class:`~repro.core.archstate.ArchState`), so ``scalar`` / ``pe_reg`` /
``pe_flag`` / ``memory`` / ``cycles`` answer as on ``RunResult`` and
downstream consumers — output extraction, oracles, the batch service —
accept either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from dataclasses import dataclass

import numpy as np

from repro.core.archstate import ArchState
from repro.core.stats import ALL_STALL_CAUSES, Stats

#: Fields held as numpy arrays; equality compares dtype, shape, contents.
_ARRAY_FIELDS = ("scalars", "pe_regs", "pe_flags", "mem_words")


@dataclass
class ResultSnapshot(ArchState):
    """Architectural outcome of one completed simulation.

    * ``scalars`` — ``uint32``, shape ``(threads, regs)``.  Not W-bit:
      ``jal`` writes a full-width PC into the link register.
    * ``pe_regs`` — unsigned W-bit, shape ``(threads, regs, pes)``.
    * ``pe_flags`` — ``bool``, shape ``(threads, flags, pes)``.
    * ``mem_words`` — unsigned W-bit, the full scalar data memory.
    """

    stats: Stats
    scalars: np.ndarray
    pe_regs: np.ndarray
    pe_flags: np.ndarray
    mem_words: np.ndarray
    # Sanitizer race reports as JSON-safe dicts; None when the run was
    # not sanitized (distinct from [], a sanitized-and-clean run).
    races: list | None = None
    # Cycle-attribution profile (CycleProfiler.to_json()); None when the
    # run was not profiled.  Same None-vs-present convention as races.
    profile: dict | None = None
    # Translation-validation proof summary (EquivReport.to_json()); None
    # when the job did not demand a validated schedule.
    verify: dict | None = None
    # Which execution backend produced this snapshot: "cycle" (the
    # cycle-accurate core) or "fast" (functional + static timing).  The
    # fast path is validated bit-identical, so this is provenance, not a
    # semantic difference.
    backend: str = "cycle"
    schema: int = 5

    @classmethod
    def from_result(cls, result, races: list | None = None,
                    profile: dict | None = None,
                    verify: dict | None = None,
                    backend: str = "cycle") -> "ResultSnapshot":
        """Copy the planes of a finished ``RunResult`` (any backend)."""
        # The memory buffer's dtype is the machine's unsigned W-bit word.
        mem_words = result.mem_words
        return cls(
            stats=result.stats,
            scalars=np.array(result.scalars, dtype=np.uint32),
            pe_regs=result.pe_regs.astype(mem_words.dtype),
            pe_flags=result.pe_flags.copy(),
            mem_words=mem_words,
            races=races,
            profile=profile,
            verify=verify,
            backend=backend,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSnapshot):
            return NotImplemented
        for f in dataclasses.fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name in _ARRAY_FIELDS:
                if (mine.dtype != theirs.dtype
                        or not np.array_equal(mine, theirs)):
                    return False
            elif mine != theirs:
                return False
        return True

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    # -- rendering -----------------------------------------------------------

    def to_json(self) -> dict:
        """Deterministic JSON-safe dict (service replies, ``run --json``)."""
        out = {
            "schema": self.schema,
            "backend": self.backend,
            "stats": stats_to_json(self.stats),
            "scalars": {
                f"t{t}": {f"s{i}": v for i, v in enumerate(regs) if v}
                for t, regs in enumerate(self.scalars.tolist())
                if any(regs)
            },
            "pe_regs": {
                f"t{t}": {f"p{i}": col
                          for i, col in enumerate(regs) if any(col)}
                for t, regs in enumerate(self.pe_regs.tolist())
                if any(any(col) for col in regs)
            },
            "memory_nonzero": {str(i): w for i, w
                               in enumerate(self.mem_words.tolist()) if w},
        }
        if self.races is not None:
            out["races"] = self.races
        if self.profile is not None:
            out["profile"] = self.profile
        if self.verify is not None:
            out["verify"] = self.verify
        return out


# ---------------------------------------------------------------------------
# integrity-checked wire/disk envelope
# ---------------------------------------------------------------------------

#: Envelope layout: magic, SHA-256 of the payload, then the pickled
#: snapshot.  The checksum makes torn writes and bit flips *deterministic*
#: corruption verdicts — without it, a flipped bit can still unpickle
#: into a well-typed but wrong snapshot.
SNAPSHOT_MAGIC = b"RSNP"
_DIGEST_BYTES = 32


class CorruptSnapshot(ValueError):
    """A snapshot envelope failed its integrity checks."""


def pack_snapshot(snap: ResultSnapshot) -> bytes:
    """Serialize a snapshot into a checksummed envelope."""
    payload = pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
    return SNAPSHOT_MAGIC + hashlib.sha256(payload).digest() + payload


def unpack_snapshot(blob: bytes) -> ResultSnapshot:
    """Decode :func:`pack_snapshot` output, verifying integrity.

    Raises :class:`CorruptSnapshot` on any damage: wrong magic (foreign
    or pre-envelope entry), truncation, checksum mismatch (bit flips),
    an unpicklable payload, or a payload of the wrong type.
    """
    header = len(SNAPSHOT_MAGIC) + _DIGEST_BYTES
    if len(blob) < header or not blob.startswith(SNAPSHOT_MAGIC):
        raise CorruptSnapshot("missing or truncated envelope header")
    digest = blob[len(SNAPSHOT_MAGIC):header]
    payload = blob[header:]
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptSnapshot("payload checksum mismatch (torn write "
                              "or bit corruption)")
    try:
        snap = pickle.loads(payload)
    except Exception as exc:
        raise CorruptSnapshot(f"payload does not unpickle: {exc}") from exc
    if not isinstance(snap, ResultSnapshot):
        raise CorruptSnapshot(
            f"payload is {type(snap).__name__}, not ResultSnapshot")
    return snap


def stats_to_json(stats: Stats) -> dict:
    """Flatten :class:`Stats` to a stable JSON-safe dict."""
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "scalar_instructions": stats.scalar_instructions,
        "parallel_instructions": stats.parallel_instructions,
        "reduction_instructions": stats.reduction_instructions,
        "issue_slots": stats.issue_slots,
        "idle_slots": stats.idle_slots,
        "ipc": round(stats.ipc, 6),
        "utilization": round(stats.utilization, 6),
        "fairness": round(stats.fairness(), 6),
        "wait_cycles": {cause: stats.wait_cycles[cause]
                        for cause in ALL_STALL_CAUSES
                        if stats.wait_cycles.get(cause)},
        "per_thread_issued": {str(t): c for t, c
                              in sorted(stats.per_thread_issued.items())},
        "threads_spawned": stats.threads_spawned,
        "faults_injected": stats.faults_injected,
        "fault_alarms": stats.fault_alarms,
    }
