"""Asyncio network front end for the serving tier (``repro serve --listen``).

One listening socket, two wire protocols, one dispatcher:

* connections whose first bytes look like an HTTP method get the
  minimal HTTP/1.1 surface (``POST /v1/run``, ``POST /v1/batch``,
  ``GET /metrics`` in Prometheus text, ``GET /healthz``);
* everything else speaks the existing JSON-lines protocol — the same
  bytes the stdio service accepts, over TCP, with per-connection
  pipelining (many requests in flight, replies in request order).

Every request from every transport funnels through one
:class:`~repro.serve.net.tenancy.DeficitRoundRobin` queue and is
executed on a **single** dispatcher thread: the protocol engine and the
batch runner underneath it are not thread-safe, and they do not need to
be — compute parallelism comes from the runner's process pool
(``--jobs``), while asyncio overlaps all the network I/O around it.
This mirrors the paper's control structure: one sequencer, many PEs;
here, one dispatcher, many worker processes.  (One documented
degradation: per-job SIGALRM deadlines no-op off the main thread, so
``--deadline`` relies on the pool's parent-side stall watchdog when
serving over the network.)

Fairness: each request is enqueued under its tenant with cost = jobs
carried.  DRR guarantees that two continuously-backlogged tenants'
service differs by at most ``quantum + max_cost`` regardless of offered
load — a 10:1 aggressor cannot starve a light tenant (asserted in
``benchmarks/bench_serve_load.py``).

Graceful shutdown (SIGINT/SIGTERM, a ``shutdown`` op from any
transport, or :meth:`NetServer.begin_drain`): stop accepting, answer
every already-queued request, flush the request log, then exit.
"""

from __future__ import annotations

import asyncio
import json
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

#: How long a reader waits for a connection's first bytes before
#: treating it as idle (protocol sniffing needs at least one byte).
_READ_CHUNK = 1 << 16


@dataclass
class _Work:
    """One queued request line (or oversized-line token) + its future."""

    text: str | None
    length: int
    future: asyncio.Future = field(repr=False)


def _reply_bytes(reply: dict) -> bytes:
    """The canonical JSON-lines wire form — shared with stdio verbatim."""
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


class NetServer:
    """One listening endpoint over a shared :class:`Dispatcher`."""

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
        self._server: asyncio.AbstractServer | None = None
        self._scheduler: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._executor: ThreadPoolExecutor | None = None
        self._work_event: asyncio.Event | None = None
        self._drain_event: asyncio.Event | None = None
        self._stop_scheduler = False
        self.draining = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start the scheduler, return the bound (host, port)."""
        self._work_event = asyncio.Event()
        self._drain_event = asyncio.Event()
        # ONE dispatch thread, by design: Dispatcher/BatchRunner are
        # single-threaded state machines; parallelism lives in the
        # runner's process pool.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dispatch")
        self._scheduler = asyncio.ensure_future(self._scheduler_loop())
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host, port=self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

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
        if self._work_event is not None:
            self._work_event.set()

    async def serve_until_drained(self, handle_signals: bool = False) -> None:
        """Run until a drain is requested, then finish cleanly.

        With ``handle_signals=True``, SIGINT/SIGTERM trigger the drain
        (the CLI path).  Every connection answers its queued lines and
        the request log is flushed before this returns.
        """
        assert self._server is not None and self._drain_event is not None
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

    def submit_line(self, text: str | None, length: int) -> asyncio.Future:
        """Queue one request line under its tenant; resolve with the reply.

        ``text=None`` marks an oversized line of ``length`` chars (the
        :class:`~repro.serve.dispatch.LineAssembler` convention).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        tenant, cost = DEFAULT_TENANT, 1.0
        if text is not None and text.strip():
            tenant, cost = self._classify(text)
        self.drr.push(tenant, _Work(text=text, length=length,
                                    future=future), cost=cost)
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

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        self._active.inc()
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass   # client went away; nothing to answer
        finally:
            self._active.dec()
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_or_drain(self, reader: asyncio.StreamReader) -> bytes:
        """Next chunk, or b"" on EOF / drain (stop reading new work)."""
        assert self._drain_event is not None
        if self._drain_event.is_set():
            return b""
        read = asyncio.ensure_future(reader.read(_READ_CHUNK))
        drain = asyncio.ensure_future(self._drain_event.wait())
        done, _pending = await asyncio.wait(
            {read, drain}, return_when=asyncio.FIRST_COMPLETED)
        if read in done:
            drain.cancel()
            return read.result()
        read.cancel()
        return b""

    async def _serve_connection(self, reader, writer) -> None:
        first = await self._read_or_drain(reader)
        if not first:
            return
        if sniff_http(first):
            self._connections.inc(proto="http")
            await self._serve_http(reader, writer, first)
        else:
            self._connections.inc(proto="jsonl")
            await self._serve_jsonl(reader, writer, first)

    # -- JSON-lines over TCP --------------------------------------------------

    async def _serve_jsonl(self, reader, writer, first: bytes) -> None:
        assembler = LineAssembler(self.dispatcher.max_line_bytes)
        pending: asyncio.Queue = asyncio.Queue()
        flusher = asyncio.ensure_future(
            self._flush_replies(writer, pending))
        data = first
        try:
            while data:
                for text, length in assembler.feed(data):
                    self._dispatched.inc(transport="jsonl")
                    pending.put_nowait(self.submit_line(text, length))
                data = await self._read_or_drain(reader)
            for text, length in assembler.finish():
                self._dispatched.inc(transport="jsonl")
                pending.put_nowait(self.submit_line(text, length))
        finally:
            pending.put_nowait(None)   # sentinel: no more work
            await flusher

    async def _flush_replies(self, writer,
                             pending: asyncio.Queue) -> None:
        """Write replies in request order as their futures resolve."""
        while True:
            future = await pending.get()
            if future is None:
                return
            reply = await future
            if reply is None:
                continue
            writer.write(_reply_bytes(reply))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                return   # receiver gone; keep resolving quietly

    # -- HTTP/1.1 -------------------------------------------------------------

    async def _serve_http(self, reader, writer, first: bytes) -> None:
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
            data = await self._read_or_drain(reader)

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


async def serve_net(dispatcher: Dispatcher, host: str, port: int,
                    drr_quantum: float = 8.0,
                    handle_signals: bool = True,
                    ready=None) -> int:
    """Start a :class:`NetServer` and run it until drained.

    ``ready`` (optional callable) receives the bound ``(host, port)``
    once the socket is listening — the CLI uses it to print the
    "listening on" line, tests to learn the ephemeral port.
    """
    server = NetServer(dispatcher, host=host, port=port,
                       drr_quantum=drr_quantum)
    bound = await server.start()
    if ready is not None:
        ready(bound)
    await server.serve_until_drained(handle_signals=handle_signals)
    return 0


__all__ = ["NetServer", "serve_net"]
