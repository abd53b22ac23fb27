"""Deterministic job identity: canonical content hashes for simulations.

A simulation is a pure function of its
:class:`~repro.serve.jobs.PreparedJob` — the assembled program, the
config, the local-memory image, the fault, the cycle limit and the run
flags; the simulator draws no randomness and reads no ambient state.
That purity is what makes result caching sound: two jobs with the same
:func:`job_key` are *the same computation* and must produce
bit-identical results.

The key is a SHA-256 over a canonical JSON payload holding every
``PreparedJob`` field except ``name`` and ``key`` (display name and the
key itself), plus :data:`CACHE_SCHEMA_VERSION`.  Four fields go through
a fingerprint first:

* ``program`` — the encoded machine words, ``.data`` image and entry
  point (exactly the bits the hardware would see; symbols and source
  maps are debug metadata and deliberately excluded);
* ``config`` — every :class:`~repro.core.config.ProcessorConfig` field,
  with enums flattened to their values;
* ``lmem`` — the local-memory columns, sorted by column index;
* ``fault`` — the fault spec minus its display label.

Every other field (``max_cycles``, ``sanitize``, ``profile``,
``verify``, ``backend``) hashes as it is, so a field added to
``PreparedJob`` enters the key without an edit here.  The schema version
retires every previously cached entry at the key level when bumped —
stale entries are simply never addressed again.

Preparing a job to key it runs its kernel builder and the assembler, so
:data:`KEY_MEMO` remembers each key by the digest of the job that gave
it (:func:`job_digest`): a job the process has keyed before is looked
up in the cache without being built again.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro.asm.program import Program
from repro.core.config import ProcessorConfig
from repro.faults.spec import FaultSpec

if TYPE_CHECKING:
    from repro.serve.jobs import Job, PreparedJob

# Bump when the snapshot layout or simulator-visible semantics change in
# a way that makes old cached results unusable.
# 2: ResultSnapshot grew the optional ``races`` section (sanitizer).
# 3: ResultSnapshot grew the optional ``profile`` section and its stats
#    JSON gained ``fairness``; jobs carry a ``profile`` flag.
# 4: ResultSnapshot grew the optional ``verify`` section (translation
#    validation); jobs carry a ``verify`` flag that also changes the
#    executed program (the validated schedule runs instead of the
#    as-assembled order).
# 5: disk cache entries became checksummed envelopes
#    (``snapshot.pack_snapshot``); pre-envelope pickles are unreadable,
#    so retire their keys.
# 6: jobs carry a ``backend`` flag (cycle vs fast path) and snapshots
#    record which backend produced them.  The fast path is validated
#    bit-identical, but the key keeps the runs distinguishable so a
#    backend bug can never poison cycle-backend cache entries.
# 7: ResultSnapshot holds typed numpy arrays (W-bit registers and memory,
#    bool flags, 32-bit scalars) instead of nested lists of ints; the
#    JSON rendering is unchanged, but list-form pickles are not read.
CACHE_SCHEMA_VERSION = 7


def canonical_json(payload) -> str:
    """Render ``payload`` as minimal, key-sorted JSON (hash-stable)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_fingerprint(cfg: ProcessorConfig) -> dict:
    """All config fields as a JSON-safe dict, enums flattened to values."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = value.value if isinstance(value, enum.Enum) else value
    return out


def program_fingerprint(program: Program) -> dict:
    """The execution-relevant bits of an assembled program.

    Computed once per program and kept with it
    (:attr:`~repro.asm.program.Program.fingerprint`): interned programs
    are shared, so only the first job to key a program encodes it.
    """
    return program.fingerprint


def lmem_fingerprint(lmem: dict | None) -> dict:
    """Local-memory columns as ``{column: [values]}`` with int cells.

    A column is a list or an array (a kernel builder's int64 columns
    arrive as they were built); a 1-D integer array renders through
    ``tolist()``, which gives the ints ``int()`` would, so the text is
    the same either way.
    """
    if not lmem:
        return {}
    return {str(int(col)): (values.tolist() if isinstance(values, np.ndarray)
                            and values.ndim == 1 and values.dtype.kind in "iu"
                            else [int(v) for v in values])
            for col, values in sorted(lmem.items(), key=lambda kv: int(kv[0]))}


def fault_fingerprint(fault: FaultSpec | None) -> dict | None:
    """Fault coordinates; the display label does not affect behaviour."""
    if fault is None:
        return None
    payload = fault.to_json()
    payload.pop("label", None)
    return payload


#: Fields that hash through a fingerprint; the rest hash as they are.
_FINGERPRINTS = {
    "program": program_fingerprint,
    "config": config_fingerprint,
    "lmem": lmem_fingerprint,
    "fault": fault_fingerprint,
}

#: ``PreparedJob`` fields that do not identify the computation.
_NOT_IDENTITY = ("name", "key")


def job_key(prepared: PreparedJob,
            schema_version: int = CACHE_SCHEMA_VERSION) -> str:
    """Content hash identifying one simulation. Equal key == same result."""
    payload = {"schema": schema_version}
    for f in dataclasses.fields(prepared):
        if f.name in _NOT_IDENTITY:
            continue
        value = getattr(prepared, f.name)
        fingerprint = _FINGERPRINTS.get(f.name)
        payload[f.name] = fingerprint(value) if fingerprint else value
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


#: Keys the key memo keeps; the least recently used is dropped first.  An
#: entry holds a 32-byte digest, a 64-character key and their LRU slot,
#: about 250 B, so a full memo holds about 1 MiB.
KEY_MEMO_ENTRIES = 4096


def job_digest(job: Job) -> bytes | None:
    """SHA-256 of a validated job's identity text, or None.

    The text is the canonical JSON of every ``Job`` field but ``name``:
    the config as its list of values (enums flattened), the fault
    through its fingerprint.  Everything :func:`job_key` hashes derives
    from those fields, since kernel builders are pure functions of their
    arguments, so equal digests mean equal keys.  A value JSON cannot
    render, such as a numpy integer in ``kernel_args`` or a numpy column
    in ``lmem``, gives None.
    """
    payload = dict(vars(job))
    del payload["name"]
    payload["config"] = [v.value if isinstance(v, enum.Enum) else v
                         for v in vars(job.config).values()]
    payload["fault"] = fault_fingerprint(job.fault)
    try:
        text = canonical_json(payload)
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(text.encode("utf-8")).digest()


class KeyMemo:
    """Bounded LRU from job digests (:func:`job_digest`) to job keys.

    :data:`KEY_MEMO` is the process-wide instance.  A digest of None (a
    job whose text cannot be rendered) is a miss and is never stored.
    """

    def __init__(self, entries: int = KEY_MEMO_ENTRIES) -> None:
        self.entries = entries
        self._keys: OrderedDict[bytes, str] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, digest: bytes | None) -> str | None:
        """The key memoized for ``digest``, or None."""
        with self._lock:
            key = None if digest is None else self._keys.get(digest)
            if key is None:
                self.misses += 1
                return None
            self._keys.move_to_end(digest)
            self.hits += 1
            return key

    def put(self, digest: bytes | None, key: str) -> None:
        """Remember ``key`` for ``digest``; call it once the job has
        prepared, so only a job that keys gets an entry."""
        if digest is None:
            return
        with self._lock:
            self._keys[digest] = key
            self._keys.move_to_end(digest)
            while len(self._keys) > self.entries:
                self._keys.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Forget every entry (the counters keep counting)."""
        with self._lock:
            self._keys.clear()

    def stats(self) -> dict:
        """Counters plus what is retained now, as a JSON-safe dict."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "entries": len(self._keys)}


#: The memo :class:`~repro.serve.batch.BatchRunner` keys jobs through.
KEY_MEMO = KeyMemo()
