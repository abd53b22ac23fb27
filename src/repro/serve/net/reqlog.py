"""Append-only request log + deterministic replay (``repro replay``).

Every reply-producing line the :class:`~repro.serve.dispatch.Dispatcher`
handles is appended to a JSONL log: a header record naming the format
and cache schema, then one record per request carrying the raw request
line, the canonical reply, and enough metadata (op, tenant, sequence)
to audit traffic after the fact.  The log is an *operational* artifact
— writes are buffered and best-effort (a full disk costs log records,
never replies) — but its contents are precise enough to re-drive.

``repro replay`` feeds the logged request lines, in order, through a
fresh dispatcher and byte-compares the replies for **deterministic
ops** (``ping``/``run``/``batch`` and per-line protocol errors) after
stripping the operational envelope: the top-level ``origin`` /
``origins`` / ``metrics`` keys, which legitimately differ run-to-run
(cache temperature, wall-clock timings).  Everything else — job status,
cycle counts, error text, result payloads — must match byte-for-byte,
making the log a regression oracle for the whole serving stack:
*the service, replayed against itself, must tell the same story*.
A log written under another cache schema is refused before anything is
replayed: job keys hash the schema, so every run reply would differ.

``stats`` / ``health`` / ``shutdown`` records replay (they exercise the
dispatcher) but are compared only for reply *shape* (``ok`` and error
text), since their payloads are honest about operational state.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.serve.dispatch import DETERMINISTIC_OPS, canonical_reply
from repro.serve.identity import CACHE_SCHEMA_VERSION

#: Bumped when the log record shape changes.
LOG_FORMAT_VERSION = 1

#: Top-level reply keys that are operational, not semantic: they vary
#: with cache temperature and wall-clock and are excluded from replay
#: comparison.
OPERATIONAL_KEYS = ("origin", "origins", "metrics")

#: Error prefixes that make an otherwise-deterministic op's reply
#: operational: quota verdicts depend on wall-clock token refill.
NONDETERMINISTIC_ERRORS = ("quota exceeded",)


def deterministic_projection(reply: dict) -> str:
    """Reply bytes with the operational envelope stripped."""
    trimmed = {k: v for k, v in reply.items()
               if k not in OPERATIONAL_KEYS}
    return canonical_reply(trimmed)


class RequestLog:
    """Append-only JSONL request/reply journal for one service process."""

    def __init__(self, path: pathlib.Path | str) -> None:
        self.path = pathlib.Path(path)
        self.records = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not (self.path.exists() and self.path.stat().st_size)
        self._fh = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._append({"repro_request_log": LOG_FORMAT_VERSION,
                          "cache_schema": CACHE_SCHEMA_VERSION})

    def _append(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def record(self, line: str, reply: dict, op: str = "?",
               tenant: str = "anon") -> None:
        """Journal one handled request line and its reply."""
        self.records += 1
        deterministic = op in DETERMINISTIC_OPS or op == "line_error"
        error = reply.get("error")
        if (isinstance(error, str)
                and error.startswith(NONDETERMINISTIC_ERRORS)):
            deterministic = False
        self._append({
            "seq": self.records,
            "op": op,
            "tenant": tenant,
            "deterministic": deterministic,
            "request": line,
            "reply": canonical_reply(reply),
        })

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self.flush()
        self._fh.close()


def read_log(path: pathlib.Path | str) -> list[dict]:
    """Parse a request log; returns the request records (header checked).

    Raises ``ValueError`` unless the header names this log format and
    this build's :data:`~repro.serve.identity.CACHE_SCHEMA_VERSION`.
    """
    path = pathlib.Path(path)
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise ValueError(f"{path}: empty request log")
        header = json.loads(header_line)
        if header.get("repro_request_log") != LOG_FORMAT_VERSION:
            raise ValueError(
                f"{path}: not a v{LOG_FORMAT_VERSION} request log "
                f"(header {header_line.strip()!r})")
        # Job keys hash the cache schema, so a log written under another
        # one would replay as a mismatch on every run and batch reply.
        if header.get("cache_schema") != CACHE_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: written under cache schema "
                f"{header.get('cache_schema')}, this build uses "
                f"{CACHE_SCHEMA_VERSION}; its replies cannot be replayed")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad log record: {exc.msg}") from exc
            records.append(record)
    return records


@dataclass
class ReplayMismatch:
    seq: int
    op: str
    expected: str
    got: str

    def to_json(self) -> dict:
        return {"seq": self.seq, "op": self.op,
                "expected": self.expected, "got": self.got}


@dataclass
class ReplayReport:
    """Outcome of re-driving a request log through a fresh dispatcher."""

    records: int = 0
    compared: int = 0
    skipped: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {"ok": self.ok, "records": self.records,
                "compared": self.compared, "skipped": self.skipped,
                "mismatches": [m.to_json() for m in self.mismatches]}


def replay_log(path: pathlib.Path | str, dispatcher) -> ReplayReport:
    """Re-drive ``path`` through ``dispatcher``; byte-compare replies.

    Deterministic records must match on their deterministic projection
    (see module docstring); operational ops (``stats``/``health``/...)
    are replayed for effect but only counted.  The dispatcher should be
    fresh (cold cache state is fine — ``origin`` keys are excluded),
    with the same job-visible configuration the original service had.
    """
    report = ReplayReport()
    for record in read_log(path):
        report.records += 1
        reply = dispatcher.handle_line(record["request"])
        if reply is None:
            reply = {}
        if not record.get("deterministic"):
            report.skipped += 1
            continue
        expected = deterministic_projection(
            json.loads(record["reply"]))
        got = deterministic_projection(reply)
        report.compared += 1
        if expected != got:
            report.mismatches.append(ReplayMismatch(
                seq=record.get("seq", report.records),
                op=str(record.get("op")),
                expected=expected, got=got))
    return report


__all__ = [
    "LOG_FORMAT_VERSION",
    "NONDETERMINISTIC_ERRORS",
    "OPERATIONAL_KEYS",
    "ReplayMismatch",
    "ReplayReport",
    "RequestLog",
    "deterministic_projection",
    "read_log",
    "replay_log",
]
