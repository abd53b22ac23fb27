"""The one serve loop (``repro serve``): stdio, TCP and HTTP.

Three transports, two wire protocols, one dispatcher:

* ``repro serve`` serves stdin/stdout as one JSON-lines connection;
* under ``--listen``, TCP connections whose first bytes look like an
  HTTP method get the minimal HTTP/1.1 surface (``POST /v1/run``,
  ``POST /v1/batch``, ``GET /metrics`` in Prometheus text,
  ``GET /healthz``);
* every other TCP connection speaks JSON lines, with per-connection
  pipelining (many requests in flight, replies in request order).

Every request from every transport funnels through one
:class:`~repro.serve.net.tenancy.DeficitRoundRobin` queue and is
executed on a **single** dispatcher thread: the protocol engine and the
batch runner underneath it are not thread-safe, and they do not need to
be — compute parallelism comes from the runner's process pool
(``--jobs``; jobs with a ``--deadline`` always run there), while
asyncio overlaps all the I/O around it.  This mirrors the paper's
control structure: one sequencer, many PEs; here, one dispatcher, many
worker processes.

Fairness: each request is enqueued under its tenant with cost = jobs
carried.  DRR guarantees that two continuously-backlogged tenants'
service differs by at most ``quantum + max_cost`` regardless of offered
load — a 10:1 aggressor cannot starve a light tenant (asserted in
``benchmarks/bench_serve_load.py``).

One drain rule on every transport.  SIGINT/SIGTERM, a ``shutdown``
reply, EOF on stdin or :meth:`NetServer.begin_drain` stop accepting and
reading; every line already received is answered, the request log is
flushed, then the server exits.  An unterminated last line is answered
at EOF (the client died mid-write) and dropped on a drain (it is still
being written).

A JSON-lines connection whose replies can no longer be written (the
reader closed stdout, the client reset the socket) is not read again,
and its queued lines that have not started are skipped and counted in
``net_abandoned_lines_total``; a line already running finishes and its
reply is dropped.
"""

from __future__ import annotations

import asyncio
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.serve.dispatch import (
    DEFAULT_TENANT,
    Dispatcher,
    LineAssembler,
    canonical_reply,
)
from repro.serve.net.http11 import (
    HttpError,
    HttpParser,
    HttpRequest,
    render_response,
    sniff_http,
)
from repro.serve.net.tenancy import DeficitRoundRobin

_READ_CHUNK = 1 << 16


@dataclass
class _Work:
    """One queued request line (or oversized-line token) + its future."""

    text: str | None
    length: int
    future: asyncio.Future = field(repr=False)
    transport: str


def _resolve(stop: asyncio.Future) -> None:
    """Resolve a connection's stop future (idempotent)."""
    if not stop.done():
        stop.set_result(None)


def _reply_bytes(reply: dict) -> bytes:
    """The canonical JSON-lines wire form of ``reply``."""
    return (canonical_reply(reply) + "\n").encode("utf-8")


def _http_status(reply: dict) -> int:
    """Map a dispatcher reply onto an HTTP status code."""
    if reply.get("ok"):
        return 200
    error = str(reply.get("error", ""))
    if error == "overloaded":
        return 503
    if error.startswith("quota exceeded"):
        return 429
    if (error.startswith(("bad JSON", "line too long"))
            or error in ("request must be a JSON object",
                         "'jobs' must be a list")
            or error.startswith("unknown op")):
        return 400
    # ok=false with per-job detail (failed simulation, bad job spec) is
    # still a well-formed answer to a well-formed question.
    return 200


class _Stdio:
    """stdin and stdout as the reader and writer of one connection.

    stdin is read once the loop's selector, which also wakes for
    signals, reports it readable: a line written before a SIGTERM is
    read before the drain begins, and stdin, whose mode a terminal
    shares with stdout, is never made non-blocking.  A regular file or
    ``/dev/null``, which the selector refuses, is always ready.  Replies
    go straight to stdout's descriptor, so no buffer lock can be held
    when the dispatch thread forks a worker.
    """

    def __init__(self, stdin, stdout) -> None:
        self.fd, self.out = stdin.fileno(), stdout.fileno()

    async def read(self, n: int) -> bytes:
        loop = asyncio.get_running_loop()
        readable = asyncio.Event()
        try:
            loop.add_reader(self.fd, readable.set)
        except PermissionError:
            return os.read(self.fd, n)
        try:
            await readable.wait()
        finally:
            loop.remove_reader(self.fd)
        return os.read(self.fd, n)

    def write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(self.out, view):]

    def close(self) -> None:
        """stdin and stdout stay open: they belong to the caller."""

    async def drain(self) -> None:
        """Writes are unbuffered."""

    wait_closed = drain


class NetServer:
    """The serve loop: stdin or one listening socket over a
    :class:`Dispatcher`."""

    def __init__(self, dispatcher: Dispatcher, host: str = "127.0.0.1",
                 port: int = 0, drr_quantum: float = 8.0) -> None:
        self.dispatcher = dispatcher
        self.host = host
        self.port = port
        self.drr = DeficitRoundRobin(quantum=drr_quantum)
        self.registry = dispatcher.registry
        self._connections = self.registry.counter(
            "net_connections_total", "connections accepted, by protocol",
            labels=("proto",))
        self._active = self.registry.gauge(
            "net_active_connections", "currently open connections")
        self._dispatched = self.registry.counter(
            "net_requests_total", "requests dispatched, by transport",
            labels=("transport",))
        self._abandoned = self.registry.counter(
            "net_abandoned_lines_total", "queued lines skipped because "
            "their connection's replies could no longer be written",
            labels=("transport",))
        self._server: asyncio.AbstractServer | None = None
        self._scheduler: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        # One per open connection, resolved to stop its reads: by a
        # drain (all of them) or by a failed reply write (its own).
        self._stops: set[asyncio.Future] = set()
        self._executor: ThreadPoolExecutor | None = None
        self._work_event: asyncio.Event | None = None
        self._drain_event: asyncio.Event | None = None
        self._stop_scheduler = False
        self.draining = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self, listen: bool = True) -> tuple[str, int]:
        """Start the scheduler (and bind, with ``listen``); (host, port)."""
        self._work_event = asyncio.Event()
        self._drain_event = asyncio.Event()
        # ONE dispatch thread, by design: Dispatcher/BatchRunner are
        # single-threaded state machines; parallelism lives in the
        # runner's process pool.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dispatch")
        self._scheduler = asyncio.ensure_future(self._scheduler_loop())
        if listen:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.host, port=self.port)
            sock = self._server.sockets[0]
            self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    def serve_stdio(self, stdin, stdout) -> None:
        """Serve a pipe, terminal or regular file as one more JSON-lines
        connection; its EOF begins the drain once its replies are out."""
        stdio = _Stdio(stdin, stdout)
        task = asyncio.ensure_future(
            self._on_connection(stdio, stdio, proto="stdio"))
        self._conn_tasks.add(task)
        task.add_done_callback(lambda _task: self.begin_drain())

    def begin_drain(self) -> None:
        """Stop accepting; finish queued work; then shut down (idempotent)."""
        if self.draining:
            return
        self.draining = True
        self.dispatcher.draining = True
        if self._server is not None:
            self._server.close()
        if self._drain_event is not None:
            self._drain_event.set()
        for stop in self._stops:
            _resolve(stop)
        if self._work_event is not None:
            self._work_event.set()

    async def serve_until_drained(self, handle_signals: bool = False) -> None:
        """Run until a drain is requested, then finish cleanly.

        With ``handle_signals=True``, SIGINT/SIGTERM trigger the drain
        (the CLI path).  Every connection answers its queued lines and
        the request log is flushed before this returns.
        """
        assert self._drain_event is not None
        removed: list = []
        if handle_signals:
            import signal as _signal
            loop = asyncio.get_running_loop()
            for sig in (_signal.SIGINT, _signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.begin_drain)
                    removed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            await self._drain_event.wait()
        finally:
            if removed:
                loop = asyncio.get_running_loop()
                for sig in removed:
                    loop.remove_signal_handler(sig)
        await self.aclose()

    async def aclose(self) -> None:
        """Drain and tear down (safe to call once serving has begun)."""
        self.begin_drain()
        if self._server is not None:
            await self._server.wait_closed()
        # Connections flush their pending replies first (the scheduler
        # must still be alive to resolve them)...
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        # ...then the scheduler finishes whatever is left and exits.
        self._stop_scheduler = True
        if self._work_event is not None:
            self._work_event.set()
        if self._scheduler is not None:
            await self._scheduler
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self.dispatcher.drain()

    # -- scheduling -----------------------------------------------------------

    def submit_line(self, text: str | None, length: int,
                    transport: str = "http") -> asyncio.Future:
        """Queue one request line under its tenant; resolve with the reply.

        ``text=None`` marks an oversized line of ``length`` chars (the
        :class:`~repro.serve.dispatch.LineAssembler` convention).
        Cancelling the future before the line starts skips it, counted
        under ``transport``.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        tenant, cost = DEFAULT_TENANT, 1.0
        if text is not None and text.strip():
            tenant, cost = self._classify(text)
        self.drr.push(tenant, _Work(text=text, length=length, future=future,
                                    transport=transport), cost=cost)
        assert self._work_event is not None
        self._work_event.set()
        return future

    @staticmethod
    def _classify(text: str) -> tuple[str, float]:
        """Tenant + DRR cost of a request line (cheap pre-parse)."""
        try:
            obj = json.loads(text)
        except ValueError:
            return DEFAULT_TENANT, 1.0
        if not isinstance(obj, dict):
            return DEFAULT_TENANT, 1.0
        tenant = str(obj.get("tenant") or DEFAULT_TENANT)
        cost = 1.0
        if obj.get("op") == "batch" and isinstance(obj.get("jobs"), list):
            cost = float(max(1, len(obj["jobs"])))
        return tenant, cost

    def _handle_work(self, work: _Work) -> dict | None:
        if work.text is None:
            return self.dispatcher.oversized_reply(work.length)
        return self.dispatcher.handle_line(work.text)

    async def _scheduler_loop(self) -> None:
        loop = asyncio.get_running_loop()
        assert self._work_event is not None
        while True:
            item = self.drr.take()
            if item is None:
                if self._stop_scheduler:
                    return
                self._work_event.clear()
                await self._work_event.wait()
                continue
            _tenant, work = item
            if work.future.cancelled():
                self._abandoned.inc(transport=work.transport)
                continue
            try:
                reply = await loop.run_in_executor(
                    self._executor, self._handle_work, work)
            except Exception as exc:   # the engine never raises; belt+braces
                reply = {"ok": False,
                         "error": f"internal error: "
                                  f"{type(exc).__name__}: {exc}"}
            if not work.future.done():
                work.future.set_result(reply)
            if self.dispatcher.shutdown:
                self.begin_drain()

    # -- connections ----------------------------------------------------------

    async def _on_connection(self, reader, writer, proto=None) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        self._active.inc()
        stop = asyncio.get_running_loop().create_future()
        self._stops.add(stop)
        if self.draining:
            _resolve(stop)
        try:
            await self._serve_connection(reader, writer, stop, proto)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass   # client went away; nothing to answer
        finally:
            self._active.dec()
            self._conn_tasks.discard(task)
            self._stops.discard(stop)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_or_drain(reader, stop: asyncio.Future) -> bytes | None:
        """Next chunk: b"" at EOF, None once ``stop`` is resolved."""
        if stop.done():
            return None
        read = asyncio.ensure_future(reader.read(_READ_CHUNK))
        await asyncio.wait({read, stop},
                           return_when=asyncio.FIRST_COMPLETED)
        if read.done():
            return read.result()
        read.cancel()
        return None

    async def _serve_connection(self, reader, writer, stop: asyncio.Future,
                                proto=None) -> None:
        first = await self._read_or_drain(reader, stop)
        if not first:
            return
        proto = proto or ("http" if sniff_http(first) else "jsonl")
        self._connections.inc(proto=proto)
        if proto == "http":
            await self._serve_http(reader, writer, first, stop)
        else:
            await self._serve_jsonl(reader, writer, first, stop, proto)

    # -- JSON lines -----------------------------------------------------------

    async def _serve_jsonl(self, reader, writer, data: bytes | None,
                           stop: asyncio.Future, proto: str) -> None:
        assembler = LineAssembler(self.dispatcher.max_line_bytes)
        pending: asyncio.Queue = asyncio.Queue()
        flusher = asyncio.ensure_future(
            self._flush_replies(writer, pending, stop))

        def submit(lines) -> None:
            for text, length in lines:
                self._dispatched.inc(transport=proto)
                pending.put_nowait(self.submit_line(text, length, proto))

        try:
            while data:
                submit(assembler.feed(data))
                data = await self._read_or_drain(reader, stop)
            if data is not None:   # EOF: answer a line cut off mid-write
                submit(assembler.finish())
        finally:
            pending.put_nowait(None)   # sentinel: no more work
            await flusher

    @staticmethod
    async def _flush_replies(writer, pending: asyncio.Queue,
                             stop: asyncio.Future) -> None:
        """Write replies in request order as their futures resolve.

        Once a write fails, ``stop`` ends the connection's reads and every
        later line is cancelled: the scheduler skips those not started.
        """
        gone = False
        while True:
            future = await pending.get()
            if future is None:
                return
            if gone:
                future.cancel()
                continue
            reply = await future
            if reply is None:
                continue
            try:
                writer.write(_reply_bytes(reply))
                await writer.drain()
            except (ConnectionError, OSError):
                gone = True    # receiver gone
                _resolve(stop)

    # -- HTTP/1.1 -------------------------------------------------------------

    async def _serve_http(self, reader, writer, first: bytes,
                          stop: asyncio.Future) -> None:
        parser = HttpParser(max_body_bytes=self.dispatcher.max_line_bytes)
        data = first
        keep_going = True
        while keep_going and data:
            try:
                requests = parser.feed(data)
            except HttpError as exc:
                writer.write(render_response(
                    exc.status,
                    _reply_bytes({"ok": False, "error": exc.message}),
                    keep_alive=False))
                await writer.drain()
                return
            for request in requests:
                self._dispatched.inc(transport="http")
                keep_going = await self._answer_http(request, writer)
                if not keep_going:
                    return
            data = await self._read_or_drain(reader, stop)

    async def _answer_http(self, request: HttpRequest, writer) -> bool:
        """Route one request; returns False when the connection ends."""
        status, body, ctype, extra = await self._route_http(request)
        keep = request.keep_alive and not self.draining
        writer.write(render_response(status, body, content_type=ctype,
                                     keep_alive=keep,
                                     extra_headers=extra))
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return keep

    async def _route_http(self, request: HttpRequest):
        method, target = request.method, request.target.split("?", 1)[0]
        if target == "/metrics":
            if method != "GET":
                return self._http_error(405, "use GET")
            # The registry is internally locked; rendering does not
            # touch dispatcher state, so no executor trip is needed.
            return (200, self.registry.render_prometheus(),
                    "text/plain; version=0.0.4", None)
        if target == "/healthz":
            if method != "GET":
                return self._http_error(405, "use GET")
            reply = await self.submit_line('{"op": "health"}', 0)
            health = (reply or {}).get("health", {})
            status = 200 if health.get("status") == "ok" else 503
            return (status, _reply_bytes(reply or {"ok": False}),
                    "application/json", None)
        if target in ("/v1/run", "/v1/batch"):
            if method != "POST":
                return self._http_error(405, "use POST")
            return await self._run_http(request, target)
        return self._http_error(404, f"no route {method} {target}")

    async def _run_http(self, request: HttpRequest, target: str):
        op = "run" if target == "/v1/run" else "batch"
        try:
            body = json.loads(request.body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            msg = getattr(exc, "msg", str(exc))
            return self._http_error(400, f"bad JSON: {msg}")
        line_request = self._wire_request(op, body, request)
        if isinstance(line_request, tuple):
            return line_request   # already an error response
        line = json.dumps(line_request, sort_keys=True)
        reply = await self.submit_line(line, len(line) + 1)
        reply = reply if reply is not None else {"ok": False,
                                                 "error": "empty request"}
        extra = None
        if "retry_after_s" in reply:
            extra = {"Retry-After": str(max(1, round(
                reply["retry_after_s"])))}
        return (_http_status(reply), _reply_bytes(reply),
                "application/json", extra)

    def _wire_request(self, op: str, body, request: HttpRequest):
        """Translate an HTTP body into the JSON-lines request object.

        The body is either the job payload itself (``{...}`` for run,
        ``[...]`` for batch) or an envelope carrying ``job``/``jobs``
        plus optional ``id``/``tenant``.  The ``X-Repro-Tenant`` header
        fills ``tenant`` when the body does not.
        """
        payload_key = "job" if op == "run" else "jobs"
        if isinstance(body, dict) and payload_key in body:
            out = {"op": op, payload_key: body[payload_key]}
            for key in ("id", "tenant"):
                if key in body:
                    out[key] = body[key]
        elif op == "batch" and isinstance(body, list):
            out = {"op": op, "jobs": body}
        elif op == "run" and isinstance(body, dict):
            out = {"op": op, "job": body}
        else:
            kind = type(body).__name__
            return self._http_error(
                400, f"expected a JSON object with {payload_key!r} "
                     f"(or the payload itself), got {kind}")
        tenant = request.header("x-repro-tenant")
        if tenant and "tenant" not in out:
            out["tenant"] = tenant
        return out

    @staticmethod
    def _http_error(status: int, message: str):
        body = _reply_bytes({"ok": False, "error": message})
        return status, body, "application/json", None


async def serve_net(dispatcher: Dispatcher, host: str = "127.0.0.1",
                    port: int = 0, drr_quantum: float = 8.0,
                    handle_signals: bool = True,
                    ready=None, stdio=None) -> int:
    """Start a :class:`NetServer` and run it until drained.

    ``stdio``, a ``(stdin, stdout)`` pair of file objects, serves them
    as the one connection and binds no socket.  Otherwise ``ready``
    (optional callable) receives the bound ``(host, port)`` once the
    socket is listening — the CLI uses it to print the "listening on"
    line, tests to learn the ephemeral port.
    """
    server = NetServer(dispatcher, host=host, port=port,
                       drr_quantum=drr_quantum)
    bound = await server.start(listen=stdio is None)
    if stdio is not None:
        server.serve_stdio(*stdio)
    elif ready is not None:
        ready(bound)
    await server.serve_until_drained(handle_signals=handle_signals)
    return 0


__all__ = ["NetServer", "serve_net"]
