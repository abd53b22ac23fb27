"""Async multi-tenant network front end for the serving stack.

The host-level analogue of the paper's multithreading argument, one
level up: where the chip overlaps threads to hide broadcast/reduction
latency, this tier overlaps *tenants* to hide job latency — one asyncio
loop multiplexing stdin or thousands of connections onto one dispatcher
+ process-pool engine.

Pieces (each its own module, composable without the server):

* :mod:`~repro.serve.net.tenancy` — token-bucket quotas + deficit-
  round-robin fair queueing (the no-starvation guarantee);
* :mod:`~repro.serve.net.reqlog` — append-only request journal +
  ``repro replay`` byte-identity oracle;
* :mod:`~repro.serve.net.http11` — minimal HTTP/1.1 framing for the
  ``/v1/run`` / ``/v1/batch`` / ``/metrics`` / ``/healthz`` endpoints;
* :mod:`~repro.serve.net.server` — the :class:`NetServer` event loop
  tying them together: ``repro serve``'s one loop for stdio, TCP and
  HTTP (protocol sniffing, pipelining, graceful drain).

The sharded result cache behind ``repro serve --shards N`` is the one
:class:`~repro.serve.cache.ResultCache` with ``shards=N``.  See
docs/SERVE.md ("Network serving", "Tenancy & fairness").
"""

from repro.serve.net.http11 import (
    HttpError,
    HttpParser,
    HttpRequest,
    render_response,
    sniff_http,
)
from repro.serve.net.reqlog import (
    ReplayMismatch,
    ReplayReport,
    RequestLog,
    deterministic_projection,
    read_log,
    replay_log,
)
from repro.serve.net.server import NetServer, serve_net
from repro.serve.net.tenancy import (
    DeficitRoundRobin,
    TenantGovernor,
    TenantQuota,
    TokenBucket,
)

__all__ = [
    "HttpError",
    "HttpParser",
    "HttpRequest",
    "render_response",
    "sniff_http",
    "ReplayMismatch",
    "ReplayReport",
    "RequestLog",
    "deterministic_projection",
    "read_log",
    "replay_log",
    "NetServer",
    "serve_net",
    "DeficitRoundRobin",
    "TenantGovernor",
    "TenantQuota",
    "TokenBucket",
]
