"""The resilience layer: deadlines, backoff, quarantine, breaker, chaos.

The load-bearing guarantees under test:

* every resilience primitive is deterministic: backoff delays are pure
  functions of (seed, token, attempt), breaker transitions are counted
  in operations, quarantine is a pure function of observed crashes;
* corruption of on-disk cache entries — truncation or bit flips at any
  offset (hypothesis) — degrades to a counted miss, never a raise and
  never a wrong answer;
* the pool engine delivers exactly-once outcomes across broken pools,
  converts chaos (kills, slowdowns, raises) into explicit degraded
  statuses, and quarantines poison jobs instead of crashing the serial
  fallback;
* a full seeded chaos campaign loses nothing, duplicates nothing, and
  reproduces byte-for-byte from its seed.
"""

import dataclasses
import os
import pathlib
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BackoffPolicy,
    BatchRunner,
    ChaosKind,
    ChaosPlane,
    ChaosSpec,
    CircuitBreaker,
    CorruptSnapshot,
    DeadlineExceeded,
    JobOutcome,
    Quarantine,
    ResultCache,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_QUARANTINED,
    deadline,
    pack_snapshot,
    random_chaos_specs,
    run_chaos_campaign,
    run_prepared,
    synthetic_jobs,
    unpack_snapshot,
)


@pytest.fixture(scope="module")
def snapshot():
    """One real ResultSnapshot to feed cache/envelope tests."""
    report = BatchRunner(cache=ResultCache.disabled()).run(synthetic_jobs(1))
    return report.results[0].snapshot


# ---------------------------------------------------------------------------
# fake pool items: fast, picklable, and instrumented
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FakeItem:
    key: str
    value: int = 0
    sleep_s: float = 0.0
    marker_dir: str = ""


def fake_execute(item: FakeItem) -> JobOutcome:
    """Module-level (picklable) executor for :class:`FakeItem`.

    Drops one marker file per actual execution so tests can count how
    many times a job really ran, across process boundaries.
    """
    if item.marker_dir:
        marker = (pathlib.Path(item.marker_dir)
                  / f"{item.key}.{os.getpid()}.{time.monotonic_ns()}")
        marker.write_text("ran")
    if item.sleep_s:
        time.sleep(item.sleep_s)
    return JobOutcome(item.key, STATUS_OK, error=str(item.value))


def executions(marker_dir, key) -> int:
    return len(list(pathlib.Path(marker_dir).glob(f"{key}.*")))


def no_sleep(_seconds: float) -> None:
    """Injected in place of time.sleep so backoff never slows tests."""


# ---------------------------------------------------------------------------
# backoff
# ---------------------------------------------------------------------------

class TestBackoffPolicy:
    def test_is_a_pure_function_of_seed_token_attempt(self):
        a = BackoffPolicy(seed=3)
        b = BackoffPolicy(seed=3)
        assert [a.delay(i, "k") for i in range(1, 8)] \
            == [b.delay(i, "k") for i in range(1, 8)]

    def test_grows_exponentially_and_caps(self):
        policy = BackoffPolicy(base_s=0.1, factor=2.0, cap_s=0.5, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)   # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_jitter_stays_within_bounds(self):
        policy = BackoffPolicy(base_s=0.1, jitter=0.5)
        for attempt in range(1, 6):
            raw = min(policy.cap_s, 0.1 * 2.0 ** (attempt - 1))
            d = policy.delay(attempt, "job-x")
            assert raw * 0.5 <= d <= raw

    def test_tokens_decorrelate(self):
        policy = BackoffPolicy()
        assert policy.delay(3, "a") != policy.delay(3, "b")

    def test_attempt_zero_is_free(self):
        assert BackoffPolicy().delay(0) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=-1)


# ---------------------------------------------------------------------------
# quarantine
# ---------------------------------------------------------------------------

class TestQuarantine:
    def test_quarantines_at_strike_limit_only(self):
        q = Quarantine(strike_limit=3)
        assert not q.strike("k")
        assert not q.strike("k")
        assert q.strike("k")          # third strike: newly quarantined
        assert q.is_quarantined("k")
        assert not q.strike("k")      # already quarantined: not "newly"

    def test_reason_records_crash_count(self):
        q = Quarantine(strike_limit=2)
        q.strike("k", "job kills its worker")
        q.strike("k", "job kills its worker")
        assert "2 worker crashes" in q.reason("k")

    def test_keys_are_independent(self):
        q = Quarantine(strike_limit=2)
        q.strike("a")
        q.strike("b")
        assert not q.quarantined
        q.strike("a")
        assert q.quarantined == ["a"]

    def test_to_json_is_sorted_and_complete(self):
        q = Quarantine(strike_limit=1)
        q.strike("z", "boom")
        q.strike("a", "boom")
        data = q.to_json()
        assert list(data["quarantined"]) == ["a", "z"]
        assert data["strike_limit"] == 1

    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            Quarantine(strike_limit=0)


# ---------------------------------------------------------------------------
# deadline
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_fires_on_overrun(self):
        with pytest.raises(DeadlineExceeded):
            with deadline(0.05):
                time.sleep(5)

    def test_no_op_within_budget(self):
        with deadline(5.0) as armed:
            assert armed

    def test_disarmed_when_no_budget(self):
        with deadline(None) as armed:
            assert not armed
        with deadline(0) as armed:
            assert not armed


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_full_state_machine_walk(self):
        b = CircuitBreaker(failure_threshold=3, cooldown_ops=4)
        assert b.state == BREAKER_CLOSED
        for _ in range(2):
            assert b.allow()
            b.fail()
        assert b.state == BREAKER_CLOSED      # threshold not yet reached
        assert b.allow()
        b.fail()
        assert b.state == BREAKER_OPEN        # 3 consecutive failures

        # cooldown_ops - 1 refusals, then one admitted probe.
        assert [b.allow() for _ in range(3)] == [False, False, False]
        assert b.allow()
        assert b.state == BREAKER_HALF_OPEN

        b.fail()                              # probe fails: re-open
        assert b.state == BREAKER_OPEN
        assert b.opens == 2

        assert [b.allow() for _ in range(3)] == [False, False, False]
        assert b.allow()
        b.ok()                                # probe succeeds: close
        assert b.state == BREAKER_CLOSED
        assert b.transitions == [
            "closed->open", "open->half_open", "half_open->open",
            "open->half_open", "half_open->closed"]

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(failure_threshold=2)
        b.fail()
        b.ok()
        b.fail()
        assert b.state == BREAKER_CLOSED      # streak broken by ok()

    def test_bound_registry_sees_transitions(self):
        registry = MetricsRegistry()
        b = CircuitBreaker(failure_threshold=1, cooldown_ops=1,
                           name="t", registry=registry)
        b.fail()
        assert registry.get("breaker_state").value(breaker="t") == 2
        assert registry.get("breaker_transitions_total") \
            .value(breaker="t", to="open") == 1


# ---------------------------------------------------------------------------
# checksummed snapshot envelope + cache corruption recovery
# ---------------------------------------------------------------------------

class TestSnapshotEnvelope:
    def test_round_trip(self, snapshot):
        assert unpack_snapshot(pack_snapshot(snapshot)) == snapshot

    def test_rejects_wrong_magic(self, snapshot):
        blob = b"XXXX" + pack_snapshot(snapshot)[4:]
        with pytest.raises(CorruptSnapshot):
            unpack_snapshot(blob)

    def test_rejects_raw_pickle(self, snapshot):
        with pytest.raises(CorruptSnapshot):
            unpack_snapshot(pickle.dumps(snapshot))

    def test_rejects_wrong_payload_type(self):
        # A well-formed envelope around the wrong object is still corrupt.
        with pytest.raises(CorruptSnapshot):
            unpack_snapshot(_envelope_of({"not": "a snapshot"}))

    @settings(max_examples=40, deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=0.999))
    def test_any_truncation_is_detected(self, snapshot, cut):
        blob = pack_snapshot(snapshot)
        with pytest.raises(CorruptSnapshot):
            unpack_snapshot(blob[:int(len(blob) * cut)])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_bit_flip_is_detected(self, snapshot, data):
        blob = bytearray(pack_snapshot(snapshot))
        pos = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        blob[pos] ^= 1 << bit
        with pytest.raises(CorruptSnapshot):
            unpack_snapshot(bytes(blob))


def _envelope_of(obj) -> bytes:
    import hashlib

    from repro.serve.snapshot import SNAPSHOT_MAGIC

    payload = pickle.dumps(obj)
    return SNAPSHOT_MAGIC + hashlib.sha256(payload).digest() + payload


class TestCacheCorruptionRecovery:
    def entry_path(self, cache, tmp_path):
        files = list(pathlib.Path(tmp_path).rglob("*.pkl"))
        assert len(files) == 1
        return files[0]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_damaged_entries_miss_and_never_raise(self, snapshot,
                                                  tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("corrupt")
        writer = ResultCache(cache_dir=tmp)
        writer.put("deadbeef" * 8, snapshot)
        entry = self.entry_path(writer, tmp)
        blob = bytearray(entry.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
            entry.write_bytes(bytes(blob[:cut]))
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            mask = data.draw(st.integers(1, 255), label="mask")
            blob[pos] ^= mask
            entry.write_bytes(bytes(blob))

        reader = ResultCache(cache_dir=tmp)
        snap, tier = reader.lookup("deadbeef" * 8)
        assert snap is None and tier == "miss"
        assert reader.stats.corrupt_entries == 1
        assert not entry.exists()           # damaged entry evicted

    def test_recomputed_entry_replaces_torn_one(self, snapshot, tmp_path):
        chaos = ChaosPlane([ChaosSpec(ChaosKind.WRITE_TRUNCATE, op=0)])
        torn = ResultCache(cache_dir=tmp_path, chaos=chaos)
        torn.put("a" * 64, snapshot)

        recovering = ResultCache(cache_dir=tmp_path)
        assert recovering.get("a" * 64) is None     # torn entry detected
        recovering.put("a" * 64, snapshot)          # recompute + republish

        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("a" * 64) == snapshot

    def test_breaker_degrades_to_memory_only_then_recovers(self, snapshot,
                                                           tmp_path):
        chaos = ChaosPlane([ChaosSpec(ChaosKind.FSYNC_FAIL, op=0)])
        cache = ResultCache(cache_dir=tmp_path, chaos=chaos)
        cache.breakers[0] = CircuitBreaker(failure_threshold=1,
                                           cooldown_ops=2)

        cache.put("b" * 64, snapshot)       # write 0: fsync fails -> open
        assert cache.degraded
        assert cache.stats.disk_errors == 1

        cache.put("c" * 64, snapshot)       # refused: memory-only
        assert cache.stats.disk_skips == 1
        assert cache.get("c" * 64) == snapshot    # memory tier still serves

        cache.put("d" * 64, snapshot)       # admitted probe: closes breaker
        assert not cache.degraded
        assert ResultCache(cache_dir=tmp_path).get("d" * 64) == snapshot

    def test_health_surface(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        health = cache.health()
        assert health["disk_tier"] and not health["degraded"]
        assert health["breaker"]["state"] == BREAKER_CLOSED


# ---------------------------------------------------------------------------
# chaos primitives
# ---------------------------------------------------------------------------

class TestChaosSpecs:
    def test_plans_are_seed_deterministic(self):
        a = random_chaos_specs(10, seed=5, jobs=20)
        b = random_chaos_specs(10, seed=5, jobs=20)
        assert a == b
        assert a != random_chaos_specs(10, seed=6, jobs=20)

    def test_kind_filter(self):
        specs = random_chaos_specs(20, seed=0, jobs=10,
                                   kinds=[ChaosKind.WORKER_KILL])
        assert {s.kind for s in specs} == {ChaosKind.WORKER_KILL}
        with pytest.raises(ValueError):
            random_chaos_specs(1, seed=0, jobs=1, kinds=[])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(ChaosKind.SLOW_WORKER)          # needs delay_s
        with pytest.raises(ValueError):
            ChaosSpec(ChaosKind.WORKER_KILL, times=0)
        with pytest.raises(ValueError):
            ChaosSpec(ChaosKind.WORKER_KILL, job=-1)

    def test_json_round_trip(self):
        spec = ChaosSpec(ChaosKind.SLOW_WORKER, job=3, delay_s=0.5,
                         label="slowpoke")
        assert ChaosSpec.from_json(spec.to_json()) == spec

    def test_job_actions_kill_window_and_always_on_kinds(self):
        plane = ChaosPlane([
            ChaosSpec(ChaosKind.WORKER_KILL, job=1, times=2),
            ChaosSpec(ChaosKind.RAISE, job=1),
        ])
        def kinds(attempt):
            return [a.kind for a in plane.job_actions(1, attempt)]

        assert kinds(0) == [ChaosKind.WORKER_KILL, ChaosKind.RAISE]
        assert kinds(1) == [ChaosKind.WORKER_KILL, ChaosKind.RAISE]
        assert kinds(2) == [ChaosKind.RAISE]      # kill exhausted
        assert plane.job_actions(0, 0) == ()      # other jobs untouched

    def test_write_ordinals_and_injection_log(self):
        plane = ChaosPlane([ChaosSpec(ChaosKind.FSYNC_FAIL, op=1, times=2)])
        hits = [plane.next_write_action() for _ in range(4)]
        assert [h.kind if h else None for h in hits] == \
            [None, ChaosKind.FSYNC_FAIL, ChaosKind.FSYNC_FAIL, None]
        assert len(plane.injection_log) == 2


# ---------------------------------------------------------------------------
# the resilient pool engine
# ---------------------------------------------------------------------------

class TestResilientPool:
    def run(self, items, **kw):
        kw.setdefault("fn", fake_execute)
        kw.setdefault("sleep", no_sleep)
        kw.setdefault("stall_timeout_s", 60.0)
        return run_prepared(items, **kw)

    def test_serial_reference_path(self):
        out = self.run([FakeItem("a"), FakeItem("b")], jobs=1)
        assert [o.status for o in out] == [STATUS_OK, STATUS_OK]
        assert [o.key for o in out] == ["a", "b"]

    def test_deadline_outcome_is_deterministic(self):
        out = self.run([FakeItem("slow", sleep_s=5.0)], jobs=1,
                       deadline_s=0.05)
        assert out[0].status == STATUS_DEADLINE
        assert out[0].degraded
        assert "deadline" in out[0].error

    def test_chaos_slow_worker_trips_deadline(self):
        chaos = ChaosPlane([ChaosSpec(ChaosKind.SLOW_WORKER, job=0,
                                      delay_s=5.0)])
        out = self.run([FakeItem("a")], jobs=1, deadline_s=0.05, chaos=chaos)
        assert out[0].status == STATUS_DEADLINE

    def test_chaos_raise_becomes_error_outcome(self):
        chaos = ChaosPlane([ChaosSpec(ChaosKind.RAISE, job=0)])
        for jobs in (1, 2):
            out = self.run([FakeItem("a"), FakeItem("b")], jobs=jobs,
                           chaos=chaos)
            assert out[0].status == STATUS_ERROR
            assert "ChaosError" in out[0].error
            assert out[1].status == STATUS_OK

    def test_pool_recovers_from_transient_kills(self, tmp_path):
        chaos = ChaosPlane([ChaosSpec(ChaosKind.WORKER_KILL, job=0,
                                      times=1)])
        items = [FakeItem(f"k{i}", value=i, marker_dir=str(tmp_path))
                 for i in range(3)]
        out = self.run(items, jobs=2, retries=2, chaos=chaos)
        assert [o.status for o in out] == [STATUS_OK] * 3
        assert [o.error for o in out] == ["0", "1", "2"]

    def test_exactly_once_across_broken_pool(self, tmp_path):
        # Job 1's worker lingers 0.4s before dying; job 0 completes
        # fast.  Job 0's future resolved before the pool broke, so it
        # must not run again when job 1 is retried on the fresh pool.
        chaos = ChaosPlane([
            ChaosSpec(ChaosKind.WORKER_KILL, job=1, times=1, delay_s=0.4),
        ])
        items = [FakeItem("fast", marker_dir=str(tmp_path)),
                 FakeItem("doomed", marker_dir=str(tmp_path))]
        out = self.run(items, jobs=2, retries=1, chaos=chaos)
        assert [o.status for o in out] == [STATUS_OK, STATUS_OK]
        assert executions(tmp_path, "fast") == 1
        # The killed submission died before reaching the job body.
        assert executions(tmp_path, "doomed") == 1

    def test_poison_job_quarantined_in_serial_mode(self, tmp_path):
        chaos = ChaosPlane([ChaosSpec(ChaosKind.WORKER_KILL, job=0,
                                      times=99)])
        slept = []
        quarantine = Quarantine(strike_limit=2)
        out = self.run([FakeItem("poison", marker_dir=str(tmp_path))],
                       jobs=1, chaos=chaos, quarantine=quarantine,
                       sleep=slept.append)
        assert out[0].status == STATUS_QUARANTINED
        assert "poison" in out[0].error
        # The serial path never actually executed the killer job.
        assert executions(tmp_path, "poison") == 0
        assert len(slept) == 1          # backed off between strikes

    def test_poison_job_quarantined_in_pool_mode(self, tmp_path):
        chaos = ChaosPlane([ChaosSpec(ChaosKind.WORKER_KILL, job=1,
                                      times=99)])
        items = [FakeItem(f"k{i}", value=i, marker_dir=str(tmp_path))
                 for i in range(3)]
        quarantine = Quarantine(strike_limit=2)
        out = self.run(items, jobs=2, retries=1, chaos=chaos,
                       quarantine=quarantine)
        assert out[1].status == STATUS_QUARANTINED
        assert out[0].status == STATUS_OK
        assert out[2].status == STATUS_OK
        # Only the poison key took strikes; innocents are never struck.
        assert set(quarantine.strikes) == {"k1"}

    def test_quarantined_keys_are_not_executed_again(self, tmp_path):
        quarantine = Quarantine(strike_limit=1)
        quarantine.strike("banned", "prior crash")
        out = self.run([FakeItem("banned", marker_dir=str(tmp_path))],
                       jobs=1, quarantine=quarantine)
        assert out[0].status == STATUS_QUARANTINED
        assert executions(tmp_path, "banned") == 0

    def test_metrics_wiring(self, tmp_path):
        registry = MetricsRegistry()
        chaos = ChaosPlane([ChaosSpec(ChaosKind.WORKER_KILL, job=0,
                                      times=99)])
        quarantine = Quarantine(strike_limit=2)
        self.run([FakeItem("p"), FakeItem("q"), FakeItem("r")], jobs=2,
                 retries=1, chaos=chaos, quarantine=quarantine,
                 registry=registry)
        outcomes = registry.get("pool_outcomes_total")
        assert outcomes.value(status=STATUS_OK) == 2
        assert outcomes.value(status=STATUS_QUARANTINED) == 1
        assert registry.get("pool_quarantined_total").value() == 1
        assert registry.get("pool_broken_retries_total").value() >= 1
        assert registry.get("pool_backoff_seconds_total").value() > 0


# ---------------------------------------------------------------------------
# end-to-end seeded chaos campaigns
# ---------------------------------------------------------------------------

class TestChaosCampaign:
    def test_acceptance_campaign_holds_all_invariants(self):
        report = run_chaos_campaign(jobs_count=100, seed=0, workers=2,
                                    events=12, poison=1)
        assert report.ok, report.to_json()["invariants"]
        assert not report.lost and not report.duplicated
        assert not report.mismatched and not report.unrecovered
        assert report.quarantined == 1      # exactly the poison job
        # Every non-degraded result matched the oracle byte-for-byte.
        for entry in report.results:
            if entry["status"] == "ok":
                assert entry["match"]

    def test_campaign_is_byte_reproducible_from_its_seed(self):
        a = run_chaos_campaign(jobs_count=30, seed=9, workers=2, events=8)
        b = run_chaos_campaign(jobs_count=30, seed=9, workers=2, events=8)
        ja, jb = a.to_json(), b.to_json()
        for section in ("jobs", "seed", "plan", "results", "invariants"):
            assert ja[section] == jb[section]

    def test_disk_chaos_feeds_breaker_and_recovers(self):
        specs = [ChaosSpec(ChaosKind.FSYNC_FAIL, op=0, times=6),
                 ChaosSpec(ChaosKind.WRITE_TRUNCATE, op=6, times=2)]
        report = run_chaos_campaign(jobs_count=12, seed=1, workers=1,
                                    events=0, specs=specs)
        assert report.ok
        assert report.metrics["cache_disk_errors"] >= 1
        assert report.metrics["breaker_opens"] >= 1

    def test_report_render_and_json_shapes(self):
        report = run_chaos_campaign(jobs_count=5, seed=2, workers=1,
                                    events=3)
        text = report.render()
        assert "chaos campaign" in text
        assert "all invariants hold" in text
        data = report.to_json()
        assert set(data) == {"jobs", "seed", "plan", "results",
                             "invariants", "metrics"}
        assert len(data["results"]) == 5
