"""Transport-agnostic request dispatcher for the serving tier.

One protocol engine, many transports: :class:`Dispatcher` owns the whole
JSON request protocol — op routing, per-line hardening, load shedding,
tenant quotas, SLO accounting, and the append-only request log — and
exposes exactly one entry point, :meth:`Dispatcher.handle_line`.  The
one serve loop (:mod:`repro.serve.net.server`) frames stdin and TCP
bytes into lines with :class:`LineAssembler`, feeds them and HTTP
bodies through this code path, and encodes replies with
:func:`canonical_reply`, which is what makes the transport-parity
guarantee testable: a given request line produces byte-identical reply
JSON no matter how it arrived.

The hardening contract (one bad client line costs one error reply,
never the process) lives here:

* oversized lines are refused before parsing, measured in UTF-8 bytes
  (:meth:`oversized_reply` is public so a streaming transport can
  refuse a too-long line it chose not to buffer — it only needs the
  length);
* malformed JSON, non-object payloads, and internal dispatch bugs all
  become error replies;
* past ``max_pending`` the shed policy decides (refuse the batch, or
  drop the oldest jobs with per-job ``"shed"`` entries);
* per-tenant token-bucket quotas (see :mod:`repro.serve.net.tenancy`)
  reject over-rate tenants with an explicit ``retry_after_s``.

:class:`LineAssembler` is the matching transport helper: an incremental
byte-stream → line splitter that counts (rather than buffers) oversized
lines.
"""

from __future__ import annotations

import json
import time
from collections import deque

from repro.asm.assembler import PROGRAM_MEMO
from repro.core.processor import MACHINES
from repro.serve.batch import ORIGIN_REFUSED, BatchRunner
from repro.serve.cache import ResultCache
from repro.serve.identity import KEY_MEMO
from repro.serve.jobs import JobError, job_name, jobs_from_json

#: Refuse batches larger than this many jobs (queue bound).
DEFAULT_MAX_PENDING = 256

#: Refuse request lines longer than this many UTF-8 bytes: a malformed
#: client (or a binary stream pointed at the socket) must cost one error
#: reply, not an unbounded json.loads.
DEFAULT_MAX_LINE_BYTES = 1 << 20

# Load-shedding policies past ``max_pending``.
SHED_REFUSE = "refuse"
SHED_OLDEST = "oldest"
SHED_POLICIES = (SHED_REFUSE, SHED_OLDEST)

#: Tenant charged when a request names none.
DEFAULT_TENANT = "anon"

#: Ops whose replies are pure functions of the request (given the job
#: stream so far) — the ones ``repro replay`` byte-compares.  ``dse``
#: qualifies because its reply carries only the sweep's deterministic
#: payload (the operational counters stay on the ``stats`` surface).
DETERMINISTIC_OPS = ("batch", "dse", "ping", "run")

#: The payload field of each job-carrying op.  Its request may carry
#: only ``op``, ``id``, ``tenant`` and that field; the other ops ignore
#: extra fields.
_PAYLOADS = {"run": "job", "batch": "jobs", "dse": "spec"}

#: Request latencies kept for the stats SLO section (a sliding window,
#: so a long-lived service reports recent behaviour, not its lifetime).
SLO_WINDOW = 4096


#: The process-wide memos a registry reports: metric prefix, memo, what
#: one lookup is, what it evicts, and its gauges with what they count.
_MEMOS = (
    ("program_memo", PROGRAM_MEMO, "assemble() calls", "programs",
     {"instructions": "instructions", "programs": "programs"}),
    ("job_key_memo", KEY_MEMO, "job keyings", "job keys",
     {"entries": "job keys"}),
    ("machine_memo", MACHINES, "hook-free runs", "idle machines",
     {"entries": "idle machines"}),
)


def _publish_memos(registry) -> None:
    """Copy the process-wide memos' counters into ``registry``.

    A registry collector (:meth:`MetricsRegistry.add_collector`): it runs
    whenever the registry is read, so ``stats`` and ``/metrics`` see
    current values and the memos never touch a registry.
    """
    for prefix, memo, calls, items, gauges in _MEMOS:
        stats = memo.stats()
        noun = prefix.replace("_", " ")
        for outcome, what in (("hits", f"{calls} served from"),
                              ("misses", f"{calls} not found in"),
                              ("evictions", f"{items} evicted from")):
            registry.counter(f"{prefix}_{outcome}_total",
                             f"{what} the process-wide {noun}",
                             ).sync(stats[outcome])
        for gauge, counted in gauges.items():
            registry.gauge(f"{prefix}_{gauge}",
                           f"{counted} retained by the {noun}",
                           ).set(stats[gauge])


def canonical_reply(reply: dict) -> str:
    """The exact text every transport writes for ``reply`` (sans newline)."""
    return json.dumps(reply, sort_keys=True)


class LineAssembler:
    """Incremental newline framing with oversized-line *counting*.

    Feed raw byte chunks in; complete lines come out as
    ``(text, length)`` pairs where ``length`` counts bytes including the
    newline.  A line longer than ``max_line_bytes`` is emitted as
    ``(None, length)``
    — its bytes are discarded as they stream past, so a hostile client
    paying one error reply cannot also cost unbounded memory.
    """

    def __init__(self, max_line_bytes: int = DEFAULT_MAX_LINE_BYTES) -> None:
        if max_line_bytes < 1:
            raise ValueError("max_line_bytes must be >= 1")
        self.max_line_bytes = max_line_bytes
        self._buf = bytearray()
        self._overflow = 0

    def feed(self, data: bytes) -> list[tuple[str | None, int]]:
        """Consume one chunk; return the lines it completed."""
        out: list[tuple[str | None, int]] = []
        self._buf += data
        while True:
            cut = self._buf.find(b"\n")
            if cut < 0:
                if self._overflow or len(self._buf) > self.max_line_bytes:
                    # Already too long even before its newline arrives:
                    # stop buffering, keep counting.
                    self._overflow += len(self._buf)
                    self._buf.clear()
                break
            taken = cut + 1
            chunk = bytes(self._buf[:taken])
            del self._buf[:taken]
            if self._overflow:
                out.append((None, self._overflow + taken))
                self._overflow = 0
            elif taken > self.max_line_bytes:
                out.append((None, taken))
            else:
                out.append((chunk.decode("utf-8", "replace"), taken))
        return out

    def finish(self) -> list[tuple[str | None, int]]:
        """EOF: flush a final unterminated line (client died mid-write)."""
        out: list[tuple[str | None, int]] = []
        tail = self._overflow + len(self._buf)
        if tail:
            if self._overflow or len(self._buf) > self.max_line_bytes:
                out.append((None, tail))
            else:
                out.append((self._buf.decode("utf-8", "replace"), tail))
        self._buf.clear()
        self._overflow = 0
        return out


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[int(rank)]


class SloTracker:
    """Sliding-window request-latency digest for the stats SLO section."""

    def __init__(self, window: int = SLO_WINDOW) -> None:
        self._lat: deque[float] = deque(maxlen=window)

    def observe(self, seconds: float) -> None:
        self._lat.append(seconds)

    def to_json(self) -> dict:
        ordered = sorted(self._lat)
        ms = 1000.0
        return {
            "window": len(ordered),
            "p50_ms": round(_percentile(ordered, 0.50) * ms, 3),
            "p99_ms": round(_percentile(ordered, 0.99) * ms, 3),
            "max_ms": round(ordered[-1] * ms, 3) if ordered else 0.0,
        }


class Dispatcher:
    """Protocol state for one service process (testable without pipes).

    Optional collaborators extend the base protocol without forking it:

    ``governor``
        a :class:`~repro.serve.net.tenancy.TenantGovernor`; when set,
        ``run``/``batch`` requests are charged against their tenant's
        token bucket and over-rate requests get a ``quota exceeded``
        reply carrying ``retry_after_s``;
    ``request_log``
        a :class:`~repro.serve.net.reqlog.RequestLog`; every reply-
        producing line is appended (request and canonical reply JSON),
        giving ``repro replay`` a deterministic record to re-drive.
    """

    def __init__(self, runner: BatchRunner | None = None,
                 max_pending: int = DEFAULT_MAX_PENDING,
                 full_results: bool = False, registry=None,
                 shed: str = SHED_REFUSE,
                 max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
                 governor=None, request_log=None) -> None:
        if shed not in SHED_POLICIES:
            raise ValueError(f"unknown shed policy {shed!r}; "
                             f"choose from {', '.join(SHED_POLICIES)}")
        if max_line_bytes < 1:
            raise ValueError("max_line_bytes must be >= 1")
        self.runner = runner or BatchRunner(ResultCache(),
                                            registry=registry)
        self.max_pending = max_pending
        self.full_results = full_results
        self.shed = shed
        self.max_line_bytes = max_line_bytes
        self.governor = governor
        self.request_log = request_log
        # One registry for the whole session: the runner's unless the
        # caller wired an explicit (e.g. process-wide) one through.
        self.registry = (registry if registry is not None
                         else self.runner.registry)
        self._requests = self.registry.counter(
            "serve_requests_total", "service requests received, by op",
            labels=("op",))
        self._line_errors = self.registry.counter(
            "serve_line_errors_total",
            "request lines rejected before dispatch, by reason",
            labels=("reason",))
        self._shed = self.registry.counter(
            "serve_shed_jobs_total", "jobs dropped by load shedding")
        self._tenant_requests = self.registry.counter(
            "tenant_requests_total",
            "job-carrying requests received, by tenant",
            labels=("tenant", "op"))
        self._tenant_jobs = self.registry.counter(
            "tenant_jobs_total", "jobs accepted for execution, by tenant",
            labels=("tenant",))
        self._tenant_rejected = self.registry.counter(
            "tenant_rejections_total",
            "requests rejected before execution, by tenant and reason",
            labels=("tenant", "reason"))
        self._reqlog_errors = self.registry.counter(
            "serve_reqlog_errors_total",
            "request-log appends that failed (log is best-effort)")
        self._latency = self.registry.histogram(
            "serve_request_seconds", "request handling latency, by op",
            labels=("op",))
        self.registry.add_collector(_publish_memos)
        self.slo = SloTracker()
        self._dse = None        # lazy DseRunner (instruments register once)
        self.requests = 0
        self.shed_jobs = 0
        self.shutdown = False
        self.draining = False

    # -- request handling -----------------------------------------------------

    def oversized_reply(self, length: int) -> dict:
        """The error reply for a line of ``length`` bytes (> the bound).

        Public so streaming transports that count-and-discard oversized
        lines (:class:`LineAssembler`) give the same reply
        :meth:`handle_line` gives a direct caller.
        """
        self.requests += 1
        self._line_errors.inc(reason="oversized")
        return {"ok": False,
                "error": f"line too long ({length} > "
                         f"{self.max_line_bytes} bytes)"}

    def handle_line(self, line: str) -> dict | None:
        """One request line -> one reply dict (None for blank lines).

        Never raises: malformed JSON, oversized lines, non-object
        payloads, and internal dispatch failures all become error
        replies, so one bad client line can never kill the service.
        """
        size = len(line.encode("utf-8", "surrogatepass"))
        if size > self.max_line_bytes:
            return self.oversized_reply(size)
        line = line.strip()
        if not line:
            return None
        self.requests += 1
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            self._line_errors.inc(reason="bad_json")
            return self._logged(line, "line_error", DEFAULT_TENANT,
                                {"ok": False,
                                 "error": f"bad JSON: {exc.msg}"})
        if not isinstance(request, dict):
            self._line_errors.inc(reason="not_object")
            return self._logged(line, "line_error", DEFAULT_TENANT,
                                {"ok": False,
                                 "error": "request must be a JSON object"})
        op = request.get("op")
        started = time.perf_counter()
        try:
            reply = self._dispatch(request)
        except Exception as exc:   # hardening: dispatch must not crash
            self._line_errors.inc(reason="internal")
            reply = {"ok": False,
                     "error": f"internal error: "
                              f"{type(exc).__name__}: {exc}"}
        if op in ("run", "batch", "dse"):
            elapsed = time.perf_counter() - started
            self.slo.observe(elapsed)
            self._latency.observe(elapsed, op=op)
        if "id" in request:
            reply["id"] = request["id"]
        return self._logged(line, str(op), self._tenant_of(request), reply)

    @staticmethod
    def _tenant_of(request) -> str:
        tenant = request.get("tenant")
        return tenant if isinstance(tenant, str) and tenant else \
            DEFAULT_TENANT

    def _logged(self, line: str, op: str, tenant: str, reply: dict) -> dict:
        """Append ``(line, reply)`` to the request log (best-effort)."""
        if self.request_log is not None:
            try:
                self.request_log.record(line, reply, op=op, tenant=tenant)
            except OSError:
                self._reqlog_errors.inc()
        return reply

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        known = op in ("ping", "stats", "health", "shutdown", "run",
                       "batch", "dse")
        self._requests.inc(op=op if known else "unknown")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "stats":
            cache = self.runner.cache
            return {"ok": True, "requests": self.requests,
                    "cache": cache.stats.to_json(),
                    "shards": [{"shard": i, "breaker": b.state}
                               for i, b in enumerate(cache.breakers)],
                    "metrics": self.registry.snapshot(),
                    "slo": self.slo_json()}
        if op == "health":
            return {"ok": True, "health": self.health()}
        if op == "shutdown":
            self.shutdown = True
            return {"ok": True, "shutdown": True}
        payload = _PAYLOADS.get(op)
        if payload is not None:
            extra = sorted(set(request) - {"op", "id", "tenant", payload})
            if extra:
                return {"ok": False, "error": f"unknown {op} request "
                                              f"field(s): {', '.join(extra)}"}
            tenant = request.get("tenant")
            if tenant is not None and not isinstance(tenant, str):
                return {"ok": False, "error": f"'tenant' must be a string, "
                                              f"got {tenant!r}"}
        tenant = self._tenant_of(request)
        if payload is not None:
            self._tenant_requests.inc(tenant=tenant, op=op)
        if op == "run":
            return self._run_jobs([request.get("job")], single=True,
                                  tenant=tenant)
        if op == "batch":
            jobs = request.get("jobs")
            if not isinstance(jobs, list):
                return {"ok": False, "error": "'jobs' must be a list"}
            return self._run_jobs(jobs, single=False, tenant=tenant)
        if op == "dse":
            return self._run_sweep(request.get("spec"), tenant=tenant)
        return {"ok": False, "error": f"unknown op {op!r}"}

    def slo_json(self) -> dict:
        """Latency percentiles + warm-traffic summary for ``stats``."""
        out = self.slo.to_json()
        out["warm_hit_rate"] = round(self.runner.cache.stats.hit_rate, 6)
        out["requests"] = self.requests
        out["shed_jobs"] = self.shed_jobs
        return out

    def health(self) -> dict:
        """The resilience surface: breaker, quarantine, shed, pool."""
        cache_health = self.runner.cache.health()
        quarantine = self.runner.quarantine.to_json()
        degraded = (cache_health["degraded"]
                    or bool(quarantine["quarantined"]))
        out = {
            "status": "degraded" if degraded else "ok",
            "draining": self.draining,
            "requests": self.requests,
            "shed_jobs": self.shed_jobs,
            "shed_policy": self.shed,
            "max_pending": self.max_pending,
            "pool_jobs": self.runner.jobs,
            "deadline_s": self.runner.deadline_s,
            "cache": cache_health,
            "quarantine": quarantine,
        }
        if self.governor is not None:
            out["quotas"] = self.governor.to_json()
        return out

    def drain(self) -> None:
        """Mark the session draining and flush the request log."""
        self.draining = True
        if self.request_log is not None:
            self.request_log.flush()

    def _over_quota(self, tenant: str, njobs: int) -> dict | None:
        """The refusal for ``njobs`` more jobs from ``tenant``, if any."""
        if self.governor is None:
            return None
        retry_after = self.governor.admit(tenant, njobs)
        if retry_after <= 0:
            return None
        self._tenant_rejected.inc(tenant=tenant, reason="quota")
        return {"ok": False,
                "error": f"quota exceeded for tenant {tenant!r}",
                "tenant": tenant,
                "retry_after_s": round(retry_after, 3)}

    def _run_jobs(self, raw_jobs: list, single: bool,
                  tenant: str = DEFAULT_TENANT) -> dict:
        refusal = self._over_quota(tenant, len(raw_jobs))
        if refusal is not None:
            return refusal
        shed_replies: list[dict] = []
        if len(raw_jobs) > self.max_pending:
            if single or self.shed == SHED_REFUSE:
                self._tenant_rejected.inc(tenant=tenant, reason="overload")
                return {"ok": False, "error": "overloaded",
                        "max_pending": self.max_pending,
                        "requested": len(raw_jobs)}
            # Shed-oldest: the front of the list is the oldest work;
            # drop it explicitly (per-job "shed" entries) and run the
            # newest ``max_pending`` jobs.
            cut = len(raw_jobs) - self.max_pending
            for obj in raw_jobs[:cut]:
                shed_replies.append(
                    {"name": job_name(obj), "status": "shed",
                     "error": f"load shed: batch of {len(raw_jobs)} "
                              f"exceeded max_pending="
                              f"{self.max_pending}"})
            raw_jobs = raw_jobs[cut:]
            self.shed_jobs += cut
            self._shed.inc(cut)
        try:
            jobs = jobs_from_json(list(raw_jobs))
        except JobError as exc:
            return {"ok": False, "error": str(exc)}
        try:
            report = self.runner.run(jobs)
        except JobError as exc:
            return {"ok": False, "error": str(exc)}
        if single and report.results[0].origin == ORIGIN_REFUSED:
            # A run request is its one job: failing before keying, it
            # fails like any other job the request could not prepare.
            return {"ok": False, "error": report.results[0].error}
        self._tenant_jobs.inc(len(raw_jobs), tenant=tenant)
        if single:      # the reply carries its one result
            result = report.results[0]
            return {"ok": report.ok, "origin": result.origin,
                    **result.to_json(full=self.full_results)}
        payload = report.to_json(full=self.full_results)
        origins = (["shed"] * len(shed_replies)
                   + [r.origin for r in report.results])
        payload["results"] = shed_replies + payload["results"]
        ok = report.ok and not shed_replies
        return {"ok": ok, "origins": origins, **payload}

    def _run_sweep(self, spec_obj, tenant: str = DEFAULT_TENANT) -> dict:
        """Handle one ``dse`` request: a sweep spec in, a frontier out.

        The reply carries only the sweep's deterministic payload, so the
        op can sit in :data:`DETERMINISTIC_OPS`; cache and timing
        counters surface through ``stats`` like everything else.  A
        sweep is admitted whole or not at all — shedding grid points
        would silently bias the frontier.
        """
        from repro.dse import DseRunner, DseSpecError, SweepSpec

        try:
            spec = SweepSpec.from_json(spec_obj)
        except DseSpecError as exc:
            return {"ok": False, "error": str(exc)}
        njobs = spec.num_points() * len(spec.kernels)
        refusal = self._over_quota(tenant, njobs)
        if refusal is not None:
            return refusal
        if njobs > self.max_pending:
            self._tenant_rejected.inc(tenant=tenant, reason="overload")
            return {"ok": False, "error": "overloaded",
                    "max_pending": self.max_pending, "requested": njobs}
        if self._dse is None:
            self._dse = DseRunner(self.runner, registry=self.registry)
        try:
            report = self._dse.sweep(spec)
        except JobError as exc:
            return {"ok": False, "error": str(exc)}
        self._tenant_jobs.inc(njobs, tenant=tenant)
        return {"ok": report.ok, "sweep": report.to_json()}


__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_TENANT",
    "DETERMINISTIC_OPS",
    "Dispatcher",
    "LineAssembler",
    "SHED_OLDEST",
    "SHED_POLICIES",
    "SHED_REFUSE",
    "SloTracker",
    "canonical_reply",
]
