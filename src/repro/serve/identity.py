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
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import TYPE_CHECKING

from repro.asm.program import Program
from repro.core.config import ProcessorConfig
from repro.faults.spec import FaultSpec

if TYPE_CHECKING:
    from repro.serve.jobs import PreparedJob

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
    """The execution-relevant bits of an assembled program."""
    return {
        "words": program.encode(),
        "data": [int(w) for w in program.data],
        "entry": program.entry,
    }


def lmem_fingerprint(lmem: dict | None) -> dict:
    """Local-memory columns as ``{column: [values]}`` with int cells."""
    if not lmem:
        return {}
    return {str(int(col)): [int(v) for v in values]
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
