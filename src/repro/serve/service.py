"""Long-lived JSON-lines simulation service (``python -m repro serve``).

One request per line on stdin, one JSON reply per line on stdout —
trivially driveable from a shell, a test harness, or any language with a
JSON library (the idiom of local model-serving sidecars).  All replies
carry ``"ok"`` and echo the request ``"id"`` when one was given.

Operations::

    {"op": "ping"}
    {"op": "run",   "id": 1, "job": {...}}            -> one result
    {"op": "batch", "id": 2, "jobs": [{...}, ...]}    -> ordered results
    {"op": "stats", "id": 3}                          -> cache counters +
                                                         metrics + SLO
    {"op": "health", "id": 4}                         -> breaker / pool /
                                                         quarantine state
    {"op": "shutdown"}                                -> reply, then exit

The ``stats`` reply's ``metrics`` section is the full
:class:`~repro.obs.MetricsRegistry` snapshot for this process, covering
the cache, pool, batch, and per-op request counters in one place; its
``slo`` section digests recent request latencies (p50/p99) and the warm
hit rate.  The ``health`` reply is the resilience surface: circuit-
breaker state, the poison-job quarantine book, and shed counters —
``"status"`` is ``"degraded"`` whenever any of them is off nominal, so a
supervisor can alert on one field.

The protocol engine itself lives in :mod:`repro.serve.dispatch` — this
module is only the stdio transport.  It frames stdin in bytes with the
same :class:`~repro.serve.dispatch.LineAssembler` the asyncio network
front end (:mod:`repro.serve.net`) uses, and both drive the *same*
:class:`~repro.serve.dispatch.Dispatcher`, so every hardening behaviour
documented here holds byte-identically over TCP.

Scale behaviour:

* **coalescing** — duplicate keys inside a batch simulate once, and the
  shared result cache serves repeat traffic across requests (and across
  service restarts, via the disk tier);
* **backpressure** — the executor queue is bounded at ``max_pending``
  jobs; past it, the shed policy decides: ``refuse`` (default) rejects
  the whole batch with ``{"ok": false, "error": "overloaded", ...}``,
  ``oldest`` shed-drops the oldest jobs in the request (reported
  per-job with status ``"shed"``) and runs the newest ``max_pending``;
* **fault isolation** — per-job failures (assembly errors, simulator
  faults, timeouts, deadlines, quarantines) are reported in the reply
  for that job; malformed JSON, oversized lines, and even internal
  dispatch bugs yield per-line error replies — only EOF, ``shutdown``,
  or (with ``handle_signals=True``) SIGINT/SIGTERM stops the loop, and
  signals drain gracefully: buffered lines are answered and the request
  log is flushed before exit.
"""

from __future__ import annotations

import os
import select
import signal
import sys

from repro.serve.dispatch import Dispatcher, LineAssembler, canonical_reply

__all__ = ["serve_forever"]

_READ_CHUNK = 1 << 16


def serve_forever(dispatcher: Dispatcher, stdin=None, stdout=None,
                  handle_signals: bool = False) -> int:
    """Pump the JSON-lines protocol until EOF or a shutdown request.

    Lines are framed in bytes by a :class:`LineAssembler`, exactly as
    the TCP transport frames a socket: a stream with a file descriptor
    is read with ``os.read``, any other with ``read()`` encoded as
    UTF-8.  A final line without a newline (mid-line EOF) still gets a
    reply; lines after a ``shutdown`` request get none.

    With ``handle_signals=True`` (the CLI path) the descriptor is
    polled with ``select`` so SIGINT/SIGTERM end the loop between
    lines — gracefully: every complete line already written is answered
    (an unterminated tail is still being written and gets no reply),
    and the request log is flushed before exit.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    try:
        fd = stdin.fileno()
    except (AttributeError, OSError, ValueError):   # in-memory stream
        fd = None
    assembler = LineAssembler(dispatcher.max_line_bytes)
    stopping = False

    def on_signal(signum, frame) -> None:
        nonlocal stopping
        stopping = True

    def answer(lines) -> None:
        for text, length in lines:
            if dispatcher.shutdown:
                return
            reply = (dispatcher.oversized_reply(length) if text is None
                     else dispatcher.handle_line(text))
            if reply is not None:
                stdout.write(canonical_reply(reply) + "\n")
                stdout.flush()

    def readable(timeout: float) -> bool:
        assert fd is not None
        return bool(select.select([fd], [], [], timeout)[0])

    poll = handle_signals and fd is not None
    previous = ({s: signal.signal(s, on_signal)
                 for s in (signal.SIGINT, signal.SIGTERM)} if poll else {})
    try:
        while not (stopping or dispatcher.shutdown):
            if poll and not readable(0.1):
                continue
            data = (os.read(fd, _READ_CHUNK) if fd is not None
                    else stdin.read(_READ_CHUNK).encode("utf-8"))
            if not data:
                answer(assembler.finish())
                break
            answer(assembler.feed(data))
        else:
            # Stopped by a signal: answer what the client already wrote,
            # without blocking and without the unterminated tail.
            while stopping and readable(0):
                data = os.read(fd, _READ_CHUNK)
                if not data:
                    break
                answer(assembler.feed(data))
        dispatcher.drain()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0
