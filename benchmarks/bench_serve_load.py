"""BENCH_serve_load — the network serving tier under concurrent load.

Host-level companion to the paper's multithreading argument, one layer
up from ``BENCH_serve``: where that benchmark measures batch execution,
this one measures the **asyncio front end** (``repro.serve.net``) doing
what a service does all day —

* **parity**    an identical request stream answered over stdio and
  TCP produces byte-identical replies (deterministic projection for
  job replies, raw bytes for protocol errors),
* **scaling**   cold batch throughput grows with ``--jobs`` workers,
* **load**      hundreds of concurrent TCP requests from ≥3 tenants
  against a warm sharded cache, with a warm hit rate ≥ 90 %,
* **fairness**  a 10:1 aggressor:light offered-load skew cannot starve
  the light tenant — the deficit-round-robin service gap stays within
  the ``quantum + max_cost`` bound the whole run,
* **metrics**   ``GET /metrics`` renders parseable Prometheus text.

Archived as ``BENCH_serve_load.json`` when ``REPRO_RESULTS_DIR`` is
set (a trajectory point per run).
"""

import asyncio
import json
import os

from repro.bench import Experiment
from repro.core import ProcessorConfig
from repro.serve import BatchRunner, Dispatcher, Job, ResultCache
from repro.serve.net import (
    DeficitRoundRobin,
    NetServer,
    deterministic_projection,
    serve_net,
)

KERNELS = ("count_matches", "histogram", "vector_mac", "string_match")
PARALLEL_JOBS = 4
TENANTS = ("alpha", "beta", "gamma")
CONNECTIONS = 12
REQUESTS = 200

#: A deliberately heavy kernel (~10k simulated cycles): the scaling
#: phase needs jobs whose simulation time dwarfs process-pool startup.
HEAVY = """
.text
main:
    li    s4, {salt}
    li    s1, 20
outer:
    li    s2, 100
inner:
    paddi p1, p1, 1
    addi  s2, s2, -1
    bne   s2, s0, inner
    addi  s1, s1, -1
    bne   s1, s0, outer
    rmax  s3, p1
    halt
"""


def job_payload(kernel: str, pes: int) -> dict:
    return {"name": f"{kernel}-p{pes}", "kernel": kernel,
            "config": {"num_pes": pes, "num_threads": 8}}


def make_heavy_jobs() -> list:
    return [Job(name=f"heavy-{i}", source=HEAVY.format(salt=i),
                config=ProcessorConfig(num_pes=32, num_threads=8,
                                       max_cycles=100000))
            for i in range(2 * PARALLEL_JOBS)]


def stdio_replies(lines: str) -> bytes:
    """Serve ``lines`` (which must fit a pipe buffer) as stdin."""
    import tempfile

    r, w = os.pipe()
    with open(r, "rb", buffering=0) as stdin, \
            tempfile.TemporaryFile() as stdout:
        with open(w, "wb", buffering=0) as feed:
            feed.write(lines.encode())
        asyncio.run(serve_net(
            Dispatcher(runner=BatchRunner(cache=ResultCache.disabled())),
            stdio=(stdin, stdout), handle_signals=False))
        stdout.seek(0)
        return stdout.read()


def tcp_replies(lines: str) -> bytes:
    async def go():
        server = NetServer(Dispatcher(
            runner=BatchRunner(cache=ResultCache.disabled())))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(lines.encode())
        await writer.drain()
        writer.write_eof()
        data = await reader.read()
        writer.close()
        await server.aclose()
        return data

    return asyncio.run(go())


def run_tcp_load(dispatcher):
    """Drive REQUESTS requests over CONNECTIONS sockets, 3+ tenants.

    Connection *i* acts for tenant ``TENANTS[i % len(TENANTS)]`` and
    repeatedly requests jobs from a small shared set, so after the
    first touch of each distinct job every reply is cache-served.
    Returns ``(elapsed_s, per-tenant ok counts, metrics text)``.
    """

    async def go():
        server = NetServer(dispatcher)
        host, port = await server.start()
        per_conn = REQUESTS // CONNECTIONS
        loop = asyncio.get_running_loop()

        async def client(conn: int) -> dict:
            tenant = TENANTS[conn % len(TENANTS)]
            reader, writer = await asyncio.open_connection(host, port)
            ok = 0
            for i in range(per_conn):
                kernel = KERNELS[i % len(KERNELS)]
                request = {"op": "run", "tenant": tenant, "id": i,
                           "job": job_payload(kernel, 16)}
                writer.write((json.dumps(request) + "\n").encode())
                await writer.drain()
                reply = json.loads(await reader.readline())
                ok += bool(reply.get("ok"))
            writer.close()
            return {"tenant": tenant, "ok": ok}

        start = loop.time()
        outcomes = await asyncio.gather(
            *(client(c) for c in range(CONNECTIONS)))
        elapsed = loop.time() - start

        # Scrape /metrics over a second, HTTP, connection.
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await server.aclose()

        served = {}
        for outcome in outcomes:
            served[outcome["tenant"]] = \
                served.get(outcome["tenant"], 0) + outcome["ok"]
        return elapsed, served, raw.partition(b"\r\n\r\n")[2].decode()

    return asyncio.run(go())


def assert_prometheus_parses(text: str) -> int:
    samples = 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        _, value = line.rsplit(" ", 1)
        float(value)
        samples += 1
    return samples


def drr_fairness_under_skew():
    """10:1 offered-load skew; return (max gap, bound, served shares)."""
    quantum, heavy_cost = 8.0, 4.0
    drr = DeficitRoundRobin(quantum=quantum)
    for i in range(1000):
        drr.push("aggressor", f"a{i}", cost=heavy_cost)
        if i % 10 == 0:
            drr.push("light", f"l{i}", cost=1.0)
    max_gap = 0.0
    while True:
        backlog = drr.backlog()
        if not (backlog.get("aggressor") and backlog.get("light")):
            break
        drr.take()
        max_gap = max(max_gap,
                      abs(drr.served("aggressor") - drr.served("light")))
    bound = quantum + heavy_cost
    return max_gap, bound, {t: drr.served(t)
                            for t in ("aggressor", "light")}


def test_serve_load(once, tmp_path):
    # --- parity: stdio and TCP answer the same stream identically ----
    stream = "\n".join([
        '{"op": "ping", "id": 1}',
        'not json',
        '[1, 2]',
        json.dumps({"op": "run", "id": 2,
                    "job": job_payload("count_matches", 16)}),
    ]) + "\n"
    want = stdio_replies(stream).splitlines()
    got = tcp_replies(stream).splitlines()
    assert len(want) == len(got) == 4
    parity_exact = sum(w == g for w, g in zip(want, got))
    for w, g in zip(want, got):
        assert deterministic_projection(json.loads(w)) == \
            deterministic_projection(json.loads(g))

    # --- scaling: cold throughput grows with workers -----------------
    jobs = make_heavy_jobs()

    def run_serial():
        return BatchRunner(cache=ResultCache.disabled()).run(jobs)

    serial = once(run_serial)
    parallel = BatchRunner(cache=ResultCache.disabled(),
                           jobs=PARALLEL_JOBS).run(jobs)
    assert serial.ok and parallel.ok
    assert [r.snapshot for r in parallel.results] == \
        [r.snapshot for r in serial.results]
    speedup = serial.elapsed_s / max(parallel.elapsed_s, 1e-9)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    if cores >= 2:
        # Throughput must scale with workers — but only where the host
        # can actually run workers side by side.
        assert parallel.elapsed_s < serial.elapsed_s, \
            f"no scaling on {cores} cores: serial " \
            f"{serial.elapsed_s:.3f}s, parallel {parallel.elapsed_s:.3f}s"

    # --- load: concurrent multi-tenant TCP against a sharded cache --
    cache = ResultCache(cache_dir=tmp_path / "shards", shards=4)
    dispatcher = Dispatcher(runner=BatchRunner(cache=cache))
    elapsed, served, metrics_text = run_tcp_load(dispatcher)
    answered = sum(served.values())
    assert answered == REQUESTS - REQUESTS % CONNECTIONS
    assert len(served) >= 3                    # three tenants took part
    assert min(served.values()) > 0            # nobody starved
    slo = dispatcher.slo_json()
    assert slo["warm_hit_rate"] >= 0.90, slo
    throughput = answered / max(elapsed, 1e-9)

    # --- metrics: the Prometheus rendering parses --------------------
    samples = assert_prometheus_parses(metrics_text)
    assert samples > 10
    assert "tenant_requests_total" in metrics_text

    # --- fairness: 10:1 skew stays within the DRR bound --------------
    max_gap, bound, shares = drr_fairness_under_skew()
    assert max_gap <= bound, (max_gap, bound)
    assert shares["light"] > 0

    exp = Experiment(
        "BENCH_serve_load",
        f"network serving tier under load ({REQUESTS} requests, "
        f"{CONNECTIONS} connections, {len(TENANTS)} tenants)")
    t = exp.new_table(("phase", "metric", "value"))
    t.add_row("parity", "replies byte-identical (of 4)", parity_exact)
    t.add_row("scaling", "host cores", cores)
    t.add_row("scaling", "serial elapsed s", round(serial.elapsed_s, 4))
    t.add_row("scaling", f"parallel x{PARALLEL_JOBS} elapsed s",
              round(parallel.elapsed_s, 4))
    t.add_row("scaling", "speedup", round(speedup, 2))
    t.add_row("load", "requests answered", answered)
    t.add_row("load", "throughput req/s", round(throughput, 1))
    t.add_row("load", "warm hit rate", round(slo["warm_hit_rate"], 4))
    t.add_row("load", "p99 ms", slo["p99_ms"])
    t.add_row("fairness", "max service gap (jobs)", max_gap)
    t.add_row("fairness", "DRR bound (quantum+max_cost)", bound)
    t.add_row("metrics", "prometheus samples", samples)
    exp.finding(
        f"{answered} requests over {CONNECTIONS} connections in "
        f"{elapsed:.2f}s ({throughput:.0f} req/s), warm hit rate "
        f"{slo['warm_hit_rate']:.1%}; 10:1 skew kept the DRR service "
        f"gap at {max_gap:.0f} <= bound {bound:.0f}")
    exp.report()
