"""The network serving tier: transport parity, tenancy, shards, replay.

The load-bearing guarantees under test:

* **transport parity** — every stdio hardening behaviour (oversized
  line, bad JSON, non-object request, shed refuse/oldest, degraded
  health) produces byte-identical reply lines over real asyncio TCP;
* **fairness** — deficit round robin bounds the service gap between
  continuously-backlogged tenants by ``quantum + max_cost``; token
  buckets refuse over-rate tenants with an honest ``retry_after_s``;
* **sharding** — rendezvous placement is stable and balanced, each
  shard degrades independently, and snapshots served through the
  sharded cache are bit-identical to the single-cache path;
* **replayability** — a request log re-driven through a fresh
  dispatcher reproduces every deterministic reply byte-for-byte;
* **graceful shutdown** — SIGTERM answers queued lines and flushes the
  request log before exit, on both the stdio and TCP transports.
"""

import asyncio
import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile

import pytest

from repro.core import ProcessorConfig
from repro.serve import (
    BatchRunner,
    Dispatcher,
    Job,
    LineAssembler,
    ResultCache,
    rendezvous_shard,
)
from repro.serve.net import (
    DeficitRoundRobin,
    NetServer,
    RequestLog,
    TenantGovernor,
    TenantQuota,
    TokenBucket,
    read_log,
    replay_log,
    serve_net,
)
from repro.serve.net.http11 import HttpError, HttpParser, sniff_http

DEMO = """
.text
main:
    li     s1, 41
    pbcast p1, s1
    paddi  p1, p1, 1
    rmax   s2, p1
    halt
"""

SMALL = ProcessorConfig(num_pes=4, num_threads=2, lmem_words=64,
                        scalar_mem_words=128)

# 120,002 instructions: about 0.9 s on the cycle core at 4 PEs.
COUNTDOWN = """
.text
main:
    li     s1, 60000
loop:
    addi   s1, s1, -1
    bne    s1, s0, loop
    halt
"""


def job_obj(name="x", **extra):
    return {"name": name, "source": DEMO,
            "config": {"num_pes": 4, "num_threads": 2}, **extra}


def make_dispatcher(**kwargs):
    kwargs.setdefault("runner",
                      BatchRunner(cache=ResultCache.disabled()))
    return Dispatcher(**kwargs)


def stdio_exchange(dispatcher, payload, eof=True) -> bytes:
    """Drive the stdio connection through a pipe; return the reply bytes.

    The payload is written before serving, so it must fit the pipe
    buffer.  ``eof=False`` keeps the pipe open while serving: only a
    drain can then end the read.
    """
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    r, w = os.pipe()
    with open(r, "rb", buffering=0) as stdin, \
            open(w, "wb", buffering=0) as feed, \
            tempfile.TemporaryFile() as stdout:
        feed.write(payload)
        if eof:
            feed.close()
        assert asyncio.run(serve_net(dispatcher, stdio=(stdin, stdout),
                                     handle_signals=False)) == 0
        stdout.seek(0)
        return stdout.read()


def tcp_exchange(dispatcher, payload: bytes, connections=1,
                 eof=True) -> bytes:
    """Drive a real TCP server with the same bytes; return the replies.

    With ``connections > 1`` the payload is split line-wise across that
    many concurrent sockets and the per-connection replies are returned
    concatenated in connection order.  ``eof=False`` leaves the write
    side open, so the server must end the connection.
    """

    async def go():
        server = NetServer(dispatcher)
        host, port = await server.start()

        async def one(chunk: bytes) -> bytes:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(chunk)
            await writer.drain()
            if eof:
                writer.write_eof()
            data = await reader.read()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return data

        if connections == 1:
            chunks = [payload]
        else:
            lines = payload.split(b"\n")[:-1]
            chunks = [b"" for _ in range(connections)]
            for i, line in enumerate(lines):
                chunks[i % connections] += line + b"\n"
        results = await asyncio.gather(*(one(c) for c in chunks))
        await server.aclose()
        return b"".join(results)

    return asyncio.run(go())


# ---------------------------------------------------------------------------
# line framing
# ---------------------------------------------------------------------------

class TestLineAssembler:
    def test_reassembles_lines_across_chunks(self):
        asm = LineAssembler()
        out = asm.feed(b'{"op": "pi')
        assert out == []
        out = asm.feed(b'ng"}\n{"op"')
        assert out == [('{"op": "ping"}\n', 15)]
        assert asm.feed(b': 1}\n') == [('{"op": 1}\n', 10)]

    def test_eof_flushes_unterminated_tail(self):
        asm = LineAssembler()
        assert asm.feed(b"tail-without-newline") == []
        assert asm.finish() == [("tail-without-newline", 20)]
        assert asm.finish() == []

    def test_oversized_line_is_counted_not_buffered(self):
        asm = LineAssembler(max_line_bytes=8)
        # 30 bytes + newline, streamed in chunks: never stored.
        assert asm.feed(b"x" * 10) == []
        assert asm._buf == bytearray()      # discarded, not buffered
        assert asm.feed(b"x" * 20) == []
        assert asm.feed(b"\nok\n") == [(None, 31), ("ok\n", 3)]

    def test_oversized_single_chunk(self):
        asm = LineAssembler(max_line_bytes=4)
        assert asm.feed(b"abcdefgh\nxy\n") == [(None, 9), ("xy\n", 3)]

    def test_oversized_tail_at_eof(self):
        asm = LineAssembler(max_line_bytes=4)
        assert asm.feed(b"abcdefgh") == []
        assert asm.finish() == [(None, 8)]

    def test_rejects_silly_bound(self):
        with pytest.raises(ValueError):
            LineAssembler(max_line_bytes=0)


# ---------------------------------------------------------------------------
# tenancy: token buckets + DRR
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def make(self, rate=1.0, burst=4.0):
        self.now = 0.0
        quota = TenantQuota(rate=rate, burst=burst)
        return TokenBucket(quota, clock=lambda: self.now)

    def test_burst_then_refusal_with_honest_retry(self):
        bucket = self.make(rate=2.0, burst=4.0)
        assert [bucket.take() for _ in range(4)] == [0.0] * 4
        wait = bucket.take()
        assert wait == pytest.approx(0.5)   # 1 token at 2/s
        self.now += wait
        assert bucket.take() == 0.0

    def test_refill_caps_at_burst(self):
        bucket = self.make(rate=10.0, burst=3.0)
        for _ in range(3):
            bucket.take()
        self.now += 100.0
        assert bucket.tokens == pytest.approx(3.0)

    def test_cost_beyond_burst_quotes_full_refill(self):
        bucket = self.make(rate=1.0, burst=4.0)
        wait = bucket.take(cost=100)
        assert wait == pytest.approx(0.0, abs=1e-6) or wait > 0
        # the bucket was full: the wait quotes reaching burst, not 100
        assert wait <= 4.0

    def test_quota_parse(self):
        assert TenantQuota.parse("8") == TenantQuota(rate=8.0, burst=32.0)
        assert TenantQuota.parse("2:5") == TenantQuota(rate=2.0, burst=5.0)
        with pytest.raises(ValueError):
            TenantQuota.parse("fast")
        with pytest.raises(ValueError):
            TenantQuota(rate=0, burst=1)

    def test_governor_materializes_and_reports(self):
        governor = TenantGovernor(
            quotas={"vip": TenantQuota(rate=100, burst=100)},
            default=TenantQuota(rate=1, burst=2))
        assert governor.admit("vip", 50) == 0.0
        assert governor.admit("rando", 2) == 0.0
        assert governor.admit("rando", 1) > 0.0
        snapshot = governor.to_json()
        assert snapshot["named"]["vip"]["rate"] == 100
        assert set(snapshot["tenants"]) == {"vip", "rando"}


class TestDeficitRoundRobin:
    def test_fifo_within_one_tenant(self):
        drr = DeficitRoundRobin(quantum=2)
        for i in range(5):
            drr.push("a", i)
        assert [drr.take()[1] for _ in range(5)] == list(range(5))
        assert drr.take() is None

    def test_service_gap_bounded_for_backlogged_tenants(self):
        # The DRR guarantee: while both tenants stay backlogged, their
        # served totals differ by at most quantum + max_cost.
        quantum, max_cost = 4.0, 5.0
        drr = DeficitRoundRobin(quantum=quantum)
        for i in range(500):
            drr.push("heavy", f"h{i}", cost=max_cost)
            drr.push("light", f"l{i}", cost=1.0)
        for _ in range(400):
            drr.take()
            if not all(drr.backlog().get(t) for t in ("heavy", "light")):
                break               # bound only holds while backlogged
            gap = abs(drr.served("heavy") - drr.served("light"))
            assert gap <= quantum + max_cost, gap
        assert drr.served("heavy") > 0 and drr.served("light") > 0

    def test_ten_to_one_skew_does_not_starve(self):
        drr = DeficitRoundRobin(quantum=8)
        for i in range(500):
            drr.push("aggressor", f"a{i}")
            if i % 10 == 0:
                drr.push("light", f"l{i}")
        # After 100 dispatches the light tenant (50 items queued) must
        # have been served roughly alternately, not last.
        for _ in range(100):
            drr.take()
        assert drr.served("light") >= 40

    def test_idle_tenant_banks_no_credit(self):
        drr = DeficitRoundRobin(quantum=100)
        drr.push("a", "a0")
        drr.take()
        # "a" went idle; when it returns it competes from zero.
        drr.push("b", "b0", cost=1)
        drr.push("a", "a1", cost=1)
        assert len(drr) == 2
        assert drr._deficit["a"] == 0.0

    def test_backlog_snapshot(self):
        drr = DeficitRoundRobin()
        drr.push("a", 1)
        drr.push("a", 2)
        drr.push("b", 3)
        assert drr.backlog() == {"a": 2, "b": 1}

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            DeficitRoundRobin(quantum=0)


# ---------------------------------------------------------------------------
# sharded cache
# ---------------------------------------------------------------------------

class TestRendezvousHashing:
    def test_stable_and_in_range(self):
        keys = [f"key-{i:03d}" for i in range(200)]
        owners = [rendezvous_shard(k, 4) for k in keys]
        assert owners == [rendezvous_shard(k, 4) for k in keys]
        assert set(owners) <= set(range(4))

    def test_all_shards_get_traffic(self):
        keys = [f"key-{i:03d}" for i in range(200)]
        owners = {rendezvous_shard(k, 4) for k in keys}
        assert owners == {0, 1, 2, 3}

    def test_resizing_moves_few_keys(self):
        keys = [f"key-{i:04d}" for i in range(500)]
        moved = sum(rendezvous_shard(k, 4) != rendezvous_shard(k, 5)
                    for k in keys)
        # Ideal movement is 1/5 of keys; modulo hashing would move ~4/5.
        assert moved / len(keys) < 0.45

    def test_single_shard_short_circuits(self):
        assert rendezvous_shard("anything", 1) == 0
        with pytest.raises(ValueError):
            rendezvous_shard("k", 0)


class TestShardedResultCache:
    def run_once(self, cache):
        runner = BatchRunner(cache=cache)
        return runner.run([Job(name="demo", source=DEMO, config=SMALL)])

    def test_bit_identical_to_single_cache(self, tmp_path):
        plain = self.run_once(ResultCache(cache_dir=tmp_path / "flat"))
        sharded = self.run_once(ResultCache(
            cache_dir=tmp_path / "sharded", shards=4))
        import pickle

        assert pickle.dumps(plain.results[0].snapshot) == \
            pickle.dumps(sharded.results[0].snapshot)

    def test_disk_tier_survives_restart_per_shard(self, tmp_path):
        cold = self.run_once(ResultCache(cache_dir=tmp_path, shards=3))
        assert cold.results[0].origin == "computed"
        warm = self.run_once(ResultCache(cache_dir=tmp_path, shards=3))
        assert warm.results[0].origin == "disk-cache"
        assert warm.results[0].snapshot.cycles == \
            cold.results[0].snapshot.cycles
        # Shard directories are the only on-disk layout.
        subdirs = {p.name for p in tmp_path.iterdir() if p.is_dir()}
        assert subdirs <= {f"shard-{i:02d}" for i in range(3)}

    @pytest.mark.parametrize("shards", [1, 3])
    def test_disk_layout_is_pinned(self, tmp_path, shards):
        # Existing caches stay warm only while these paths and breaker
        # names hold.
        cache = ResultCache(cache_dir=tmp_path, shards=shards)
        report = self.run_once(cache)
        key = report.results[0].key
        owner = rendezvous_shard(key, shards)
        shard_dir = (tmp_path if shards == 1
                     else tmp_path / f"shard-{owner:02d}")
        assert sorted(tmp_path.rglob("*.pkl")) == \
            [shard_dir / key[:2] / f"{key}.pkl"]
        assert [b.name for b in cache.breakers] == (
            ["cache_disk"] if shards == 1
            else [f"cache_disk_s{i:02d}" for i in range(shards)])

    def test_keys_distribute_across_shards(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, shards=4, mem_entries=400)
        runner = BatchRunner(cache=cache)
        jobs = [Job(name=f"j{n}", source=DEMO,
                    config=dataclasses.replace(SMALL, max_cycles=200 + n))
                for n in range(12)]
        runner.run(jobs)
        populated = sum(1 for shard in tmp_path.iterdir()
                        if any(shard.rglob("*.pkl")))
        assert populated >= 2
        assert len(cache) == 12
        assert cache.stats.stores == 12

    def test_one_tripped_shard_degrades_alone(self, tmp_path):
        snapshot = self.run_once(ResultCache.disabled()).results[0].snapshot
        cache = ResultCache(cache_dir=tmp_path, shards=3)
        victim = cache.breakers[1]
        for _ in range(victim.failure_threshold):
            victim.fail()
        assert cache.degraded
        health = cache.health()
        assert health["degraded"] is True
        assert health["breaker"]["state"] == "open"
        assert health["breaker"]["opens"] == 1
        assert [b["state"] for b in health["breaker"]["shards"]] == \
            ["closed", "open", "closed"]
        # Keys of the tripped shard go memory-only; the others still
        # reach their disk directory.
        keys = [f"{n:02x}" * 32 for n in range(64)]
        healthy = next(k for k in keys if rendezvous_shard(k, 3) == 0)
        tripped = next(k for k in keys if rendezvous_shard(k, 3) == 1)
        cache.put(healthy, snapshot)
        cache.put(tripped, snapshot)
        assert cache._route(healthy)[0].exists()
        assert not cache._route(tripped)[0].exists()
        assert cache.stats.disk_skips == 1
        assert cache.get(tripped) == snapshot     # memory still serves

    def test_clear_memory_and_len(self):
        cache = ResultCache(cache_dir=None, shards=2)
        self_runner = BatchRunner(cache=cache)
        self_runner.run([Job(name="demo", source=DEMO, config=SMALL)])
        assert len(cache) == 1
        cache.clear_memory()
        assert len(cache) == 0

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ResultCache(shards=0)


# ---------------------------------------------------------------------------
# transport parity: stdio vs TCP, byte for byte
# ---------------------------------------------------------------------------

class TestTransportParity:
    """Satellite: every stdio hardening reply, byte-identical over TCP."""

    def pair(self, **kwargs):
        return make_dispatcher(**kwargs), make_dispatcher(**kwargs)

    def parity(self, payload: str, **kwargs) -> bytes:
        stdio_session, tcp_session = self.pair(**kwargs)
        want = stdio_exchange(stdio_session, payload)
        got = tcp_exchange(tcp_session, payload.encode("utf-8"))
        assert got == want
        assert want    # the stream must actually produce replies
        return want

    def test_ping_and_id_echo(self):
        self.parity('{"op": "ping", "id": 7}\n{"op": "ping"}\n')

    def test_job_stream_replies_identical(self):
        # Timing metrics differ run-to-run, so job replies are compared
        # on their deterministic projection — the same contract
        # `repro replay` enforces.  Everything else must match exactly.
        from repro.serve.net import deterministic_projection

        lines = [
            json.dumps({"op": "run", "id": 1, "job": job_obj("a")}),
            json.dumps({"op": "run", "id": 2, "job": job_obj("a")}),
            json.dumps({"op": "batch", "id": 3,
                        "jobs": [job_obj("a"), job_obj("b")]}),
        ]
        stdio_session, tcp_session = self.pair()
        payload = "\n".join(lines) + "\n"
        want = stdio_exchange(stdio_session, payload).splitlines()
        got = tcp_exchange(tcp_session, payload.encode()).splitlines()
        assert len(want) == len(got) == 3
        for w, g in zip(want, got):
            assert deterministic_projection(json.loads(w)) == \
                deterministic_projection(json.loads(g))
        assert [json.loads(g)["ok"] for g in got] == [True] * 3

    def test_oversized_line(self):
        payload = '{"op": "ping", "pad": "' + "x" * 100 + '"}\n'
        out = self.parity(payload, max_line_bytes=64)
        reply = json.loads(out)
        assert reply["ok"] is False
        assert f"line too long ({len(payload)} > 64 bytes)" \
            == reply["error"]

    def test_oversized_non_ascii_line_counts_bytes(self):
        # 56 characters but 86 UTF-8 bytes: every transport, and a
        # direct handle_line caller such as `repro replay`, measures
        # the bytes.
        payload = '{"op": "ping", "pad": "' + "\u00e9" * 30 + '"}\n'
        out = self.parity(payload, max_line_bytes=64)
        reply = json.loads(out)
        assert reply == {"ok": False,
                         "error": "line too long (86 > 64 bytes)"}
        direct = make_dispatcher(max_line_bytes=64).handle_line(payload)
        assert direct == reply
        # A lone surrogate (a hand-edited request log can carry one) is
        # measured, never an encoding crash.
        assert make_dispatcher().handle_line(
            '{"op": "ping", "pad": "\udc80"}')["pong"] is True

    def test_oversized_line_then_normal_line(self):
        payload = ("y" * 100 + "\n" + '{"op": "ping", "id": 2}\n')
        out = self.parity(payload, max_line_bytes=64)
        first, second = (json.loads(l) for l in out.splitlines())
        assert "line too long (101 > 64 bytes)" == first["error"]
        assert second == {"id": 2, "ok": True, "pong": True}

    def test_bad_json(self):
        out = self.parity("this is not json\n")
        assert json.loads(out)["error"].startswith("bad JSON:")

    def test_non_object_request(self):
        out = self.parity("[1, 2, 3]\n17\n")
        for line in out.splitlines():
            assert json.loads(line)["error"] == \
                "request must be a JSON object"

    def test_shed_refuse(self):
        request = json.dumps({"op": "batch", "id": 1,
                              "jobs": [job_obj(c) for c in "abc"]})
        out = self.parity(request + "\n", max_pending=2)
        assert json.loads(out) == {"ok": False, "error": "overloaded",
                                   "max_pending": 2, "requested": 3,
                                   "id": 1}

    def test_shed_oldest(self):
        from repro.serve.net import deterministic_projection

        request = json.dumps({"op": "batch",
                              "jobs": [job_obj(c) for c in "abcd"]})
        stdio_session, tcp_session = self.pair(max_pending=2,
                                               shed="oldest")
        want = stdio_exchange(stdio_session, request + "\n")
        out = tcp_exchange(tcp_session, (request + "\n").encode())
        assert deterministic_projection(json.loads(out)) == \
            deterministic_projection(json.loads(want))
        reply = json.loads(out)
        assert [r["status"] for r in reply["results"]] == \
            ["shed", "shed", "ok", "ok"]
        assert reply["origins"][:2] == ["shed", "shed"]

    def test_health_degraded_states(self):
        stdio_session, tcp_session = self.pair()
        for session in (stdio_session, tcp_session):
            for _ in range(3):
                session.runner.quarantine.strike("k", "boom")
        payload = '{"op": "health", "id": 5}\n'
        want = stdio_exchange(stdio_session, payload)
        got = tcp_exchange(tcp_session, payload.encode())
        assert got == want
        health = json.loads(want)["health"]
        assert health["status"] == "degraded"
        assert health["draining"] is False

    def test_mid_line_eof_still_replied(self):
        # No trailing newline: the client died mid-write.
        payload = '{"op": "ping", "id": 9}'
        stdio_session, tcp_session = self.pair()
        want = stdio_exchange(stdio_session, payload)
        got = tcp_exchange(tcp_session, payload.encode())
        assert got == want
        assert json.loads(want)["pong"] is True

    def test_internal_error_parity(self):
        stdio_session, tcp_session = self.pair()
        for session in (stdio_session, tcp_session):
            def boom(request):
                raise RuntimeError("dispatch bug")
            session._dispatch = boom
        payload = '{"op": "ping", "id": 4}\n'
        want = stdio_exchange(stdio_session, payload)
        got = tcp_exchange(tcp_session, payload.encode())
        assert got == want
        assert "internal error: RuntimeError: dispatch bug" in \
            json.loads(want)["error"]

    def test_deadline_parity(self):
        # TCP and HTTP dispatch on an executor thread, where SIGALRM never
        # arrives: the job runs in a worker process on every transport.
        job = {"name": "countdown", "source": COUNTDOWN,
               "config": {"num_pes": 4, "word_width": 16}}

        def session():
            return make_dispatcher(runner=BatchRunner(
                cache=ResultCache.disabled(), deadline_s=0.05))

        line = json.dumps({"op": "run", "id": 1, "job": job}) + "\n"
        want = stdio_exchange(session(), line)
        assert tcp_exchange(session(), line.encode()) == want
        status, _, body = split_response(http_exchange(
            session(), http_request("POST", "/v1/run", json.dumps(
                {"job": job, "id": 1}).encode())))
        assert (status, body) == (200, want)
        reply = json.loads(want)
        assert reply["status"] == "deadline" and reply["ok"] is False

    def test_drain_drops_the_unterminated_tail(self):
        # The stream stays open, so the drain that `shutdown` begins,
        # not EOF, ends the read: the half-written line gets no reply.
        payload = (b'{"op": "ping", "id": 1}\n'
                   b'{"op": "shutdown", "id": 2}\n{"op": "pi')
        want = stdio_exchange(make_dispatcher(), payload, eof=False)
        got = tcp_exchange(make_dispatcher(), payload, eof=False)
        assert got == want
        assert [json.loads(l)["id"] for l in want.splitlines()] == [1, 2]

    def test_shutdown_answers_every_line_already_received(self):
        # A shutdown reply begins a drain: lines received before it are
        # answered, the ping behind it included, on every transport.
        from repro.serve.net import deterministic_projection

        payload = "\n".join([
            '{"op": "ping"}',
            json.dumps({"op": "run", "job": job_obj()}),
            '{"op": "shutdown"}',
            '{"op": "ping"}',
        ]) + "\n"
        want = stdio_exchange(make_dispatcher(), payload).splitlines()
        got = tcp_exchange(make_dispatcher(), payload.encode()).splitlines()
        assert len(want) == len(got) == 4
        for w, g in zip(want, got):
            assert deterministic_projection(json.loads(w)) == \
                deterministic_projection(json.loads(g))
        assert json.loads(want[1])["ok"] is True
        assert json.loads(want[2])["shutdown"] is True
        assert json.loads(want[3])["pong"] is True

    def test_pipelined_connections_all_answered(self):
        # 24 pings over 6 concurrent sockets: every line gets exactly
        # one reply, ids echoed to the right connection.
        lines = "".join(json.dumps({"op": "ping", "id": i}) + "\n"
                        for i in range(24))
        out = tcp_exchange(make_dispatcher(), lines.encode(),
                           connections=6)
        ids = sorted(json.loads(l)["id"] for l in out.splitlines())
        assert ids == list(range(24))


# ---------------------------------------------------------------------------
# tenant quotas through the dispatcher
# ---------------------------------------------------------------------------

class TestDispatcherTenancy:
    def test_quota_rejection_carries_retry_after(self):
        now = [0.0]
        governor = TenantGovernor(
            quotas={"t": TenantQuota(rate=1.0, burst=2.0)},
            clock=lambda: now[0])
        session = make_dispatcher(governor=governor)
        line = json.dumps({"op": "run", "tenant": "t",
                           "job": job_obj()})
        assert session.handle_line(line)["ok"] is True
        assert session.handle_line(line)["ok"] is True
        reply = session.handle_line(line)
        assert reply["ok"] is False
        assert reply["error"] == "quota exceeded for tenant 't'"
        assert reply["tenant"] == "t"
        assert reply["retry_after_s"] == pytest.approx(1.0, abs=0.01)
        now[0] += 1.0
        assert session.handle_line(line)["ok"] is True

    def test_tenant_counters_in_registry(self):
        session = make_dispatcher()
        session.handle_line(json.dumps(
            {"op": "run", "tenant": "alpha", "job": job_obj()}))
        session.handle_line(json.dumps({"op": "run", "job": job_obj()}))
        counter = session.registry.get("tenant_requests_total")
        assert counter.value(tenant="alpha", op="run") == 1
        assert counter.value(tenant="anon", op="run") == 1
        jobs = session.registry.get("tenant_jobs_total")
        assert jobs.value(tenant="alpha") == 1

    def test_rejections_counted_by_reason(self):
        governor = TenantGovernor(
            default=TenantQuota(rate=0.001, burst=1.0))
        session = make_dispatcher(governor=governor)
        line = json.dumps({"op": "run", "job": job_obj()})
        session.handle_line(line)
        assert session.handle_line(line)["ok"] is False
        rejected = session.registry.get("tenant_rejections_total")
        assert rejected.value(tenant="anon", reason="quota") == 1

    def test_health_lists_quotas(self):
        governor = TenantGovernor(
            quotas={"vip": TenantQuota(rate=10, burst=20)})
        session = make_dispatcher(governor=governor)
        health = session.handle_line('{"op": "health"}')["health"]
        assert health["quotas"]["named"]["vip"]["rate"] == 10


# ---------------------------------------------------------------------------
# SLO + shard sections of stats
# ---------------------------------------------------------------------------

class TestStatsSlo:
    def test_slo_section_tracks_latency_and_warm_rate(self):
        session = make_dispatcher()
        line = json.dumps({"op": "run", "job": job_obj()})
        session.handle_line(line)
        session.handle_line(line)     # warm: memory hit
        stats = session.handle_line('{"op": "stats"}')
        slo = stats["slo"]
        assert slo["window"] == 2
        assert slo["p99_ms"] >= slo["p50_ms"] >= 0.0
        assert slo["max_ms"] >= slo["p99_ms"]
        assert slo["warm_hit_rate"] == pytest.approx(0.5)
        assert slo["requests"] == 3

    def test_latency_histogram_in_registry(self):
        session = make_dispatcher()
        session.handle_line(json.dumps({"op": "run", "job": job_obj()}))
        snapshot = session.registry.get(
            "serve_request_seconds").snapshot()
        assert snapshot["series"]["op=run"]["count"] == 1

    def test_shard_breakdown_in_stats(self):
        cache = ResultCache(cache_dir=None, shards=3)
        session = make_dispatcher(runner=BatchRunner(cache=cache))
        session.handle_line(json.dumps({"op": "run", "job": job_obj()}))
        stats = session.handle_line('{"op": "stats"}')
        assert stats["shards"] == [{"shard": i, "breaker": "closed"}
                                   for i in range(3)]
        assert stats["cache"]["stores"] == 1

    def test_unsharded_stats_has_one_shard_row(self):
        stats = make_dispatcher().handle_line('{"op": "stats"}')
        assert stats["shards"] == [{"shard": 0, "breaker": "closed"}]


# ---------------------------------------------------------------------------
# request log + replay
# ---------------------------------------------------------------------------

class TestRequestLogReplay:
    def drive(self, tmp_path, lines):
        log_path = tmp_path / "req.log"
        log = RequestLog(log_path)
        session = make_dispatcher(request_log=log)
        for line in lines:
            session.handle_line(line)
        session.drain()
        log.close()
        return log_path

    def demo_lines(self):
        return [
            '{"op": "ping", "id": 1}',
            json.dumps({"op": "run", "id": 2, "job": job_obj()}),
            'not json at all',
            json.dumps({"op": "batch", "id": 3,
                        "jobs": [job_obj("a"), job_obj("b")]}),
            '{"op": "stats", "id": 4}',
        ]

    def test_replay_is_byte_identical(self, tmp_path):
        log_path = self.drive(tmp_path, self.demo_lines())
        report = replay_log(log_path, make_dispatcher())
        assert report.ok, report.to_json()
        assert report.records == 5
        assert report.compared == 4      # stats is operational
        assert report.skipped == 1

    def test_log_records_are_audit_grade(self, tmp_path):
        log_path = self.drive(tmp_path, self.demo_lines())
        records = read_log(log_path)
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        assert records[1]["op"] == "run"
        assert records[2]["op"] == "line_error"
        assert records[2]["deterministic"] is True
        assert records[4]["deterministic"] is False
        for record in records:
            json.loads(record["reply"])      # always valid JSON

    def test_replay_detects_divergence(self, tmp_path):
        log_path = self.drive(tmp_path, self.demo_lines())
        # Tamper with the logged reply of the run request.
        lines = log_path.read_text().splitlines()
        record = json.loads(lines[2])
        reply = json.loads(record["reply"])
        reply["status"] = "tampered"
        record["reply"] = json.dumps(reply, sort_keys=True)
        lines[2] = json.dumps(record, sort_keys=True)
        log_path.write_text("\n".join(lines) + "\n")
        report = replay_log(log_path, make_dispatcher())
        assert not report.ok
        assert report.mismatches[0].seq == 2
        assert "tampered" in report.mismatches[0].expected

    def test_quota_rejections_are_not_compared(self, tmp_path):
        governor = TenantGovernor(
            default=TenantQuota(rate=0.001, burst=1.0))
        log_path = tmp_path / "req.log"
        log = RequestLog(log_path)
        session = make_dispatcher(request_log=log, governor=governor)
        line = json.dumps({"op": "run", "job": job_obj()})
        session.handle_line(line)
        assert session.handle_line(line)["ok"] is False   # quota
        log.close()
        # Replay without a governor: the second request now succeeds,
        # which must NOT count as divergence.
        report = replay_log(log_path, make_dispatcher())
        assert report.ok, report.to_json()
        assert report.skipped == 1

    def test_rejects_foreign_files(self, tmp_path):
        not_log = tmp_path / "nope.jsonl"
        not_log.write_text('{"something": "else"}\n')
        with pytest.raises(ValueError):
            read_log(not_log)
        empty = tmp_path / "empty.log"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_log(empty)

    def test_replay_cli(self, tmp_path, capsys):
        from repro.cli import main

        log_path = self.drive(tmp_path, self.demo_lines())
        assert main(["replay", str(log_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["compared"] == 4
        assert main(["replay", str(tmp_path / "missing.log")]) == 1
        capsys.readouterr()
        bad = tmp_path / "bad.log"
        bad.write_text("not a log\n")
        assert main(["replay", str(bad)]) == 1
        capsys.readouterr()

    def test_replay_cli_exit_2_on_divergence(self, tmp_path, capsys):
        from repro.cli import main

        log_path = self.drive(
            tmp_path, [json.dumps({"op": "run", "id": 1,
                                   "job": job_obj()})])
        lines = log_path.read_text().splitlines()
        record = json.loads(lines[1])
        reply = json.loads(record["reply"])
        reply["key"] = "0" * 64
        record["reply"] = json.dumps(reply, sort_keys=True)
        lines[1] = json.dumps(record, sort_keys=True)
        log_path.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(log_path)]) == 2
        assert "diverged" in capsys.readouterr().err

    def test_replay_refuses_a_log_of_another_cache_schema(self, tmp_path,
                                                          capsys):
        from repro.cli import main
        from repro.serve.identity import CACHE_SCHEMA_VERSION

        log_path = self.drive(
            tmp_path, [json.dumps({"op": "run", "id": 1,
                                   "job": job_obj()})])
        lines = log_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["cache_schema"] = CACHE_SCHEMA_VERSION - 1
        lines[0] = json.dumps(header, sort_keys=True)
        log_path.write_text("\n".join(lines) + "\n")

        class NeverDriven:
            def handle_line(self, line):
                raise AssertionError(f"re-drove {line!r}")

        with pytest.raises(ValueError, match=(
                f"schema {CACHE_SCHEMA_VERSION - 1}, this build uses "
                f"{CACHE_SCHEMA_VERSION}")):
            replay_log(log_path, NeverDriven())
        assert main(["replay", str(log_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------

def http_exchange(dispatcher, raw: bytes) -> bytes:
    async def go():
        server = NetServer(dispatcher)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw)
        await writer.drain()
        writer.write_eof()
        data = await reader.read()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await server.aclose()
        return data

    return asyncio.run(go())


def http_request(method, target, body=b"", headers=()):
    head = [f"{method} {target} HTTP/1.1", "Host: test"]
    head += [f"{k}: {v}" for k, v in headers]
    if body:
        head.append(f"Content-Length: {len(body)}")
    head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def split_response(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers = dict(
        line.decode().split(": ", 1)
        for line in head.split(b"\r\n")[1:])
    return status, headers, body


class TestHttpParser:
    def test_sniffing(self):
        assert sniff_http(b"POST /v1/run HTTP/1.1")
        assert sniff_http(b"GET /metrics")
        assert sniff_http(b"GE")               # could still be HTTP
        assert not sniff_http(b'{"op": "ping"}')
        assert not sniff_http(b"")

    def test_parses_pipelined_requests(self):
        parser = HttpParser()
        raw = http_request("GET", "/healthz") + \
            http_request("POST", "/v1/run", b'{"kernel": "x"}')
        first, second = parser.feed(raw)
        assert first.method == "GET" and first.target == "/healthz"
        assert second.body == b'{"kernel": "x"}'
        assert not first.keep_alive        # Connection: close

    def test_incremental_body(self):
        parser = HttpParser()
        raw = http_request("POST", "/v1/run", b"0123456789")
        assert parser.feed(raw[:-4]) == []
        [request] = parser.feed(raw[-4:])
        assert request.body == b"0123456789"

    def test_rejects_oversized_body(self):
        parser = HttpParser(max_body_bytes=8)
        with pytest.raises(HttpError) as err:
            parser.feed(http_request("POST", "/v1/run", b"x" * 9))
        assert err.value.status == 413

    def test_rejects_bad_request_line_and_headers(self):
        with pytest.raises(HttpError):
            HttpParser().feed(b"NONSENSE\r\n\r\n")
        with pytest.raises(HttpError):
            HttpParser().feed(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n")
        with pytest.raises(HttpError) as err:
            HttpParser().feed(
                b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert err.value.status == 400


class TestHttpEndpoints:
    def test_run_endpoint_matches_jsonl_reply(self):
        body = json.dumps(job_obj()).encode()
        status, _, payload = split_response(http_exchange(
            make_dispatcher(),
            http_request("POST", "/v1/run", body)))
        assert status == 200
        # The HTTP body is the same canonical reply line the JSON-lines
        # transport would have written for the equivalent request.
        want = stdio_exchange(
            make_dispatcher(),
            json.dumps({"op": "run", "job": job_obj()},
                       sort_keys=True) + "\n")
        assert payload == want

    def test_batch_endpoint_accepts_list_and_envelope(self):
        for body in ([job_obj("a"), job_obj("b")],
                     {"jobs": [job_obj("a"), job_obj("b")], "id": 9}):
            raw = json.dumps(body).encode()
            status, _, payload = split_response(http_exchange(
                make_dispatcher(),
                http_request("POST", "/v1/batch", raw)))
            assert status == 200
            reply = json.loads(payload)
            assert reply["ok"] is True and len(reply["results"]) == 2

    def test_tenant_header_feeds_quota_and_metrics(self):
        governor = TenantGovernor(
            quotas={"web": TenantQuota(rate=0.001, burst=1.0)})
        session = make_dispatcher(governor=governor)
        body = json.dumps(job_obj()).encode()
        raw = (http_request("POST", "/v1/run", body,
                            headers=[("X-Repro-Tenant", "web"),
                                     ("Connection", "keep-alive")])
               .replace(b"Connection: close\r\n", b""))
        status1, _, _ = split_response(http_exchange(session, raw))
        assert status1 == 200
        status2, headers, payload = split_response(
            http_exchange(session, raw))
        assert status2 == 429
        assert "Retry-After" in headers
        assert "quota exceeded" in json.loads(payload)["error"]

    def test_metrics_endpoint_is_prometheus_text(self):
        session = make_dispatcher()
        session.handle_line(json.dumps({"op": "run", "job": job_obj()}))
        status, headers, body = split_response(http_exchange(
            session, http_request("GET", "/metrics")))
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        lines = body.decode().splitlines()
        assert any(l.startswith("# TYPE serve_requests_total counter")
                   for l in lines)
        for line in lines:
            if line.startswith("#") or not line:
                continue
            name_and_labels, value = line.rsplit(" ", 1)
            float(value)                      # every sample parses
            assert name_and_labels[0].isidentifier() or \
                name_and_labels[0].isalpha()

    def test_healthz_flips_to_503_when_degraded(self):
        session = make_dispatcher()
        status, _, body = split_response(http_exchange(
            session, http_request("GET", "/healthz")))
        assert status == 200
        assert json.loads(body)["health"]["status"] == "ok"
        for _ in range(3):
            session.runner.quarantine.strike("k", "boom")
        status, _, body = split_response(http_exchange(
            session, http_request("GET", "/healthz")))
        assert status == 503
        assert json.loads(body)["health"]["status"] == "degraded"

    def test_routing_errors(self):
        status, _, _ = split_response(http_exchange(
            make_dispatcher(), http_request("GET", "/nope")))
        assert status == 404
        status, _, _ = split_response(http_exchange(
            make_dispatcher(), http_request("GET", "/v1/run")))
        assert status == 405
        status, _, body = split_response(http_exchange(
            make_dispatcher(),
            http_request("POST", "/v1/run", b"{broken")))
        assert status == 400
        assert json.loads(body)["error"].startswith("bad JSON")

    def test_malformed_http_is_one_error_response(self):
        raw = b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n"
        status, _, body = split_response(http_exchange(
            make_dispatcher(), raw))
        assert status == 400
        assert json.loads(body)["ok"] is False


# ---------------------------------------------------------------------------
# graceful shutdown
# ---------------------------------------------------------------------------

class TestGracefulShutdown:
    def test_net_drain_answers_queued_work(self):
        async def go():
            server = NetServer(make_dispatcher())
            await server.start()
            futures = [
                server.submit_line(
                    json.dumps({"op": "ping", "id": i}) + "\n", 0)
                for i in range(8)]
            server.begin_drain()          # before anything executed
            await server.aclose()
            return [f.result() for f in futures]

        replies = asyncio.run(go())
        assert [r["id"] for r in replies] == list(range(8))
        assert all(r["pong"] for r in replies)

    def test_shutdown_op_over_tcp_stops_the_server(self):
        async def go():
            server = NetServer(make_dispatcher())
            host, port = await server.start()
            serving = asyncio.ensure_future(
                server.serve_until_drained())
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "shutdown", "id": 1}\n')
            await writer.drain()
            line = await reader.readline()
            await asyncio.wait_for(serving, timeout=30)
            writer.close()
            return json.loads(line)

        reply = asyncio.run(go())
        assert reply == {"id": 1, "ok": True, "shutdown": True}

    def _spawn_stdio(self, tmp_path, extra=()):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-cache",
             "--request-log", str(tmp_path / "req.log"), *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env={**os.environ,
                 "PYTHONPATH": os.environ.get("PYTHONPATH", "src")})

    def test_stdio_sigterm_drains_and_flushes_log(self, tmp_path):
        proc = self._spawn_stdio(tmp_path)
        try:
            proc.stdin.write(b'{"op": "ping", "id": 1}\n')
            proc.stdin.flush()
            first = json.loads(proc.stdout.readline())
            assert first == {"id": 1, "ok": True, "pong": True}
            # A line the server has not yet answered, then SIGTERM:
            # the drain must answer it before exit.
            proc.stdin.write(b'{"op": "ping", "id": 2}\n')
            proc.stdin.flush()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            replies = [json.loads(l) for l in out.splitlines()]
            assert {"id": 2, "ok": True, "pong": True} in replies
        finally:
            proc.kill()
        records = read_log(tmp_path / "req.log")
        assert [r["op"] for r in records] == ["ping", "ping"]

    def test_stdin_may_be_a_regular_file(self, tmp_path):
        # `repro serve < jobs.jsonl`: the selector refuses a regular
        # file, so it is read directly; the last line has no newline.
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text('{"op": "ping", "id": 1}\n'
                        + json.dumps({"op": "run", "id": 2,
                                      "job": job_obj()})
                        + '\n{"op": "ping", "id": 3}')
        with open(jobs, "rb") as stdin:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--no-cache"],
                stdin=stdin, capture_output=True, timeout=60,
                env={**os.environ,
                     "PYTHONPATH": os.environ.get("PYTHONPATH", "src")})
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(l) for l in proc.stdout.splitlines()]
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert all(r["ok"] for r in replies)

    # Tens of milliseconds per job, so a test process that is slow to
    # hang up after the first reply lets at most one more job finish.
    SLOW_MAC = {"kernel": "vector_mac", "kernel_args": {"iters": 2000}}

    def test_stdio_stops_when_stdout_is_gone(self, tmp_path):
        """A reader that closes stdout after one reply: the lines queued
        behind it are skipped, not run (all 40 ran before)."""
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(
            json.dumps({"op": "run", "id": i, "job": self.SLOW_MAC}) + "\n"
            for i in range(40)))
        with open(jobs, "rb") as stdin:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--no-cache",
                 "--request-log", str(tmp_path / "req.log")],
                stdin=stdin, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env={**os.environ,
                     "PYTHONPATH": os.environ.get("PYTHONPATH", "src")})
            try:
                assert json.loads(proc.stdout.readline())["id"] == 0
                proc.stdout.close()
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()
        assert len(read_log(tmp_path / "req.log")) <= 5

    def test_tcp_reset_abandons_queued_lines(self):
        """A client that pipelines 40 runs, reads one reply and resets:
        the rest are skipped and counted (all 40 ran before)."""
        dispatcher = make_dispatcher()
        handled = []
        handle_line = dispatcher.handle_line

        def counting(text):
            handled.append(text)
            return handle_line(text)

        dispatcher.handle_line = counting
        lines = b"".join(
            json.dumps({"op": "run", "id": i, "job": self.SLOW_MAC}).encode()
            + b"\n" for i in range(40))

        async def go():
            server = NetServer(dispatcher)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(lines)
            await writer.drain()
            first = json.loads(await reader.readline())
            writer.transport.abort()
            await server.aclose()
            return first, server.registry.render_prometheus()

        first, metrics = asyncio.run(go())
        assert first["id"] == 0 and first["ok"]
        assert len(handled) <= 5
        abandoned = [l for l in metrics.splitlines() if l.startswith(
            'net_abandoned_lines_total{transport="jsonl"}')]
        assert abandoned and float(abandoned[0].split()[-1]) == \
            40 - len(handled)

    def test_tcp_sigterm_exits_zero(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-cache",
             "--listen", "127.0.0.1:0"],
            stderr=subprocess.PIPE,
            env={**os.environ,
                 "PYTHONPATH": os.environ.get("PYTHONPATH", "src")})
        try:
            banner = proc.stderr.readline().decode()
            assert banner.startswith("listening on 127.0.0.1:")
            import socket

            host, port = banner.split()[-1].rsplit(":", 1)
            with socket.create_connection((host, int(port)),
                                          timeout=10) as sock:
                sock.sendall(b'{"op": "ping", "id": 1}\n')
                reply = json.loads(
                    sock.makefile().readline())
                assert reply["pong"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.stderr.close()


# ---------------------------------------------------------------------------
# serve CLI flag validation
# ---------------------------------------------------------------------------

class TestServeCliFlags:
    def test_bad_quota_flag(self, capsys):
        from repro.cli import main

        assert main(["serve", "--quota", "no-equals-sign"]) == 1
        assert "TENANT=RATE" in capsys.readouterr().err
        assert main(["serve", "--quota", "t=fast"]) == 1
        capsys.readouterr()

    def test_bad_listen_flag(self, capsys):
        from repro.cli import main

        assert main(["serve", "--listen", "nonsense"]) == 1
        assert "HOST:PORT" in capsys.readouterr().err
