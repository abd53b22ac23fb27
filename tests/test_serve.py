"""The serving subsystem: identity, snapshots, cache, pool, batch, CLI.

The load-bearing guarantees under test:

* a job key is a pure function of the computation (and nothing else);
* snapshots round-trip through pickle bit-identically, for arbitrary
  machine shapes (hypothesis);
* a cache hit returns a result equal to a fresh simulation;
* corruption, version bumps, and eviction degrade to recomputation,
  never to wrong answers;
* a parallel fault campaign is byte-identical to the serial one.
"""

import dataclasses
import json
import os
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assoc.fastpath import run_fast
from repro.core import MTMode, ProcessorConfig, Stats, run_program
from repro.core.memory import ScalarMemoryFault
from repro.core.stats import ALL_STALL_CAUSES
from repro.faults import (
    FaultKind,
    FaultSite,
    FaultSpec,
    campaign,
    run_campaign,
)
from repro.isa.registers import (
    LINK_REG,
    NUM_FLAG_REGS,
    NUM_PARALLEL_REGS,
    NUM_SCALAR_REGS,
)
from repro.serve import (
    BatchRunner,
    CACHE_SCHEMA_VERSION,
    Dispatcher,
    Job,
    JobError,
    PreparedJob,
    ResultCache,
    ResultSnapshot,
    job_key,
    jobs_from_json,
)
from tests.strategies import machines

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

# Stores all-ones words to scalar memory and a PE register, sets flags,
# and executes jal from past pc 256, so the link value needs > 8 bits.
WIDE_WORDS = """
.text
main:
    addi   s1, s0, -1
    sw     s1, 5(s0)
    sw     s1, 127(s0)
    pbcast p3, s1
    pceqs  f2, p3, s1
    fset   f5
    j      far
""" + "    nop\n" * 300 + """
far:
    jal    done
    halt
done:
    halt
"""


def demo_job(name="demo", **cfg_overrides):
    cfg = dataclasses.replace(SMALL, **cfg_overrides)
    return Job(name=name, source=DEMO, config=cfg)


def assemble_demo(cfg=SMALL):
    from repro.asm import assemble

    return assemble(DEMO, word_width=cfg.word_width)


def prepared_demo(**fields):
    return PreparedJob(name="demo", key="", program=assemble_demo(),
                       config=SMALL, **fields)


# ---------------------------------------------------------------------------
# job identity
# ---------------------------------------------------------------------------

class TestJobIdentity:
    def test_key_is_deterministic(self):
        assert demo_job().prepare().key == demo_job().prepare().key

    def test_key_ignores_debug_metadata(self):
        # Same machine words, different label/comment text -> same key.
        relabeled = DEMO.replace("main:", "start:").replace(
            "# ", "#")
        a = Job(name="a", source=DEMO, config=SMALL).prepare()
        b = Job(name="b", source=relabeled, config=SMALL).prepare()
        assert a.key == b.key

    @pytest.mark.parametrize("change", [
        dict(num_pes=8), dict(num_threads=4), dict(word_width=16),
        dict(broadcast_arity=4), dict(pipelined_reduction=False),
    ])
    def test_key_tracks_config(self, change):
        assert demo_job().prepare().key != demo_job(**change).prepare().key

    def test_key_tracks_inputs_fault_and_limit(self):
        base = demo_job().prepare().key
        with_lmem = Job(name="l", source=DEMO, config=SMALL,
                        lmem={0: [1, 2, 3]}).prepare().key
        fault = FaultSpec(site=FaultSite.PE_REG, kind=FaultKind.TRANSIENT,
                          cycle=2, pe=1, reg=1, bit=0)
        with_fault = Job(name="f", source=DEMO, config=SMALL,
                         fault=fault).prepare().key
        limited = Job(name="m", source=DEMO, config=SMALL,
                      max_cycles=500).prepare().key
        assert len({base, with_lmem, with_fault, limited}) == 4

    def test_fault_label_is_not_identity(self):
        spec = dict(site=FaultSite.PE_REG, kind=FaultKind.TRANSIENT,
                    cycle=2, pe=1, reg=1, bit=0)
        a = FaultSpec(label="one name", **spec)
        b = FaultSpec(label="another", **spec)
        assert job_key(prepared_demo(fault=a)) == \
            job_key(prepared_demo(fault=b))

    def test_keys_are_pinned(self):
        # Literal keys of the same jobs before the key was derived from
        # PreparedJob's fields: a moved key would orphan every entry of
        # every existing cache, so any change here needs a schema bump.
        inline = {"source": DEMO, "config": {
            "num_pes": 4, "num_threads": 2, "lmem_words": 64,
            "scalar_mem_words": 128}}
        fault = {"site": "pe_reg", "kind": "transient", "cycle": 2,
                 "pe": 1, "reg": 1, "bit": 0, "label": "x"}
        jobs = {
            "kernel": {"kernel": "count_matches"},
            "inline": inline,
            "fault": {**inline, "fault": fault},
            "sanitize": {**inline, "sanitize": True},
            "profile": {**inline, "profile": True},
            "verify": {**inline, "verify": True},
            "max_cycles": {**inline, "max_cycles": 500},
            "lmem": {**inline, "lmem": {"0": [1, 2, 3]}},
            "kernel_args": {"kernel": "vector_mac",
                            "kernel_args": {"width": 8}},
            "fast": {"kernel": "count_matches", "backend": "fast",
                     "config": {"num_pes": 8}},
        }
        keys = {name: Job.from_json(obj).prepare().key
                for name, obj in jobs.items()}
        assert CACHE_SCHEMA_VERSION == 7
        assert keys == {
            "kernel": "91e1673a60de88a1e09fb2d219dee1e1"
                      "9c42941d90790ef3bccd5c6e5736d2c4",
            "inline": "7a523253009c880b92033521692ca0d3"
                      "9f41caa2f1d954584f24590c0c9e9939",
            "fault": "4ce7341066b9790db1b5df3071113899"
                     "9c32130d62a97ff3927644f48736cd3a",
            "sanitize": "c3039055dc9f9d6b478d87458c625e2b"
                        "eabc3214009d4d09c8f7ce31116ef686",
            "profile": "d08263afa9b086caaa1c43950274616f"
                       "3a9c4a82e63fc48301ebd190f63f2c2d",
            "verify": "0b55585cbb62659915ae2d7e552ecba4"
                      "beeac206e4c3970e0804246992e70827",
            "max_cycles": "25689eb04b0c52276448b54768996f20"
                          "c8c28c4ff3aab4f03627a03747e959d8",
            "lmem": "202613806f70f1293514635fac40a23b"
                    "8758f56c84ea6e68f033b6fafee56a6d",
            "kernel_args": "1e3e80f545b580673dde0985486d791b"
                           "937f37020390a94d92c1bd70fd7bb588",
            "fast": "8c9244bf148b9834159fe1c981caca48"
                    "6a2e1e3fefd3bcc5c4dbc0c4b1311aee",
        }

    def test_schema_version_invalidates_keys(self):
        assert job_key(prepared_demo()) != \
            job_key(prepared_demo(),
                    schema_version=CACHE_SCHEMA_VERSION + 1)


# ---------------------------------------------------------------------------
# snapshot round-trips
# ---------------------------------------------------------------------------

class TestSnapshot:
    def test_snapshot_matches_run_result_accessors(self):
        result = run_program(DEMO, SMALL)
        snap = ResultSnapshot.from_result(result)
        assert snap.cycles == result.cycles
        assert snap.scalar(2) == result.scalar(2) == 42
        assert (snap.pe_reg(1) == result.pe_reg(1)).all()
        assert (snap.pe_flag(0) == result.pe_flag(0)).all()
        assert snap.memory(0, 8) == result.memory(0, 8)

    def test_pickle_round_trip_is_bit_identical(self):
        snap = ResultSnapshot.from_result(run_program(DEMO, SMALL))
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert pickle.dumps(clone) == pickle.dumps(snap)

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_every_word_width_survives_a_snapshot(self, width, tmp_path):
        """W-bit words and the PC-wide link register, fresh and stored."""
        cfg = dataclasses.replace(SMALL, word_width=width)
        result = run_program(WIDE_WORDS, cfg)
        mask = (1 << width) - 1
        assert result.scalar(LINK_REG) > 0xFF           # jal from pc > 256
        assert result.memory(127, 1) == [mask]
        assert (result.pe_reg(3) == mask).all()
        assert result.pe_flag(2).all() and result.pe_flag(5).all()
        fresh = ResultSnapshot.from_result(result)
        ResultCache(cache_dir=tmp_path).put("a" * 64, fresh)
        stored, tier = ResultCache(cache_dir=tmp_path).lookup("a" * 64)
        assert tier == "disk"
        words = cfg.scalar_mem_words
        for snap in (fresh, pickle.loads(pickle.dumps(fresh)), stored):
            assert snap.pe_regs.dtype == np.dtype(f"uint{width}")
            assert snap.mem_words.dtype == np.dtype(f"uint{width}")
            assert snap.scalars.dtype == np.uint32
            assert snap.pe_flags.dtype == bool
            for t in range(cfg.num_threads):
                for reg in range(NUM_SCALAR_REGS):
                    assert snap.scalar(reg, t) == result.scalar(reg, t)
                for reg in range(NUM_PARALLEL_REGS):
                    got, want = snap.pe_reg(reg, t), result.pe_reg(reg, t)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
                for flag in range(NUM_FLAG_REGS):
                    got = snap.pe_flag(flag, t)
                    want = result.pe_flag(flag, t)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
            assert snap.memory(0, words) == result.memory(0, words)
            assert snap == fresh

    @pytest.mark.parametrize("base,count", [
        (0, 128), (126, 2), (127, 1), (5, 0), (126, 4), (-2, 2), (5, -1),
        (128, 1), (128, 0)])
    def test_memory_ranges_match_run_results(self, base, count):
        """Every view of a run gives the same values, types and range
        errors: the cycle and fast RunResults, the functional and
        non-pipelined results, the debugger and the snapshot."""
        from repro.asm import assemble
        from repro.assoc import run_functional
        from repro.baselines import NonPipelinedMachine
        from repro.core.debugger import Debugger

        single = dataclasses.replace(SMALL, num_threads=1,
                                     mt_mode=MTMode.SINGLE)
        debugger = Debugger(SMALL)
        debugger.load(WIDE_WORDS)
        debugger.run()
        results = [run_program(WIDE_WORDS, SMALL),
                   run_fast(WIDE_WORDS, SMALL),
                   run_functional(WIDE_WORDS, SMALL),
                   NonPipelinedMachine(single).run(assemble(WIDE_WORDS)),
                   debugger]
        results.append(ResultSnapshot.from_result(results[0]))

        def view(result):
            try:
                words = result.memory(base, count)
                types = {type(w) for w in words} | {type(words)}
            except ScalarMemoryFault as exc:
                words, types = str(exc), set()
            scalars = [result.scalar(r) for r in range(NUM_SCALAR_REGS)]
            planes = [(a.dtype, a.tolist()) for a in
                      [result.pe_reg(r) for r in range(NUM_PARALLEL_REGS)]
                      + [result.pe_flag(f) for f in range(NUM_FLAG_REGS)]]
            return (words, types, scalars,
                    {type(v) for v in scalars}, planes)

        expected = view(results[0])
        for result in results[1:]:
            assert view(result) == expected, type(result).__name__

    @settings(max_examples=15, deadline=None)
    @given(cfg=machines())
    def test_run_result_snapshot_round_trip_property(self, cfg):
        """Snapshots of real runs survive pickling on any machine shape."""
        result = run_program(DEMO, cfg)
        snap = ResultSnapshot.from_result(result)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert clone.scalar(2) == result.scalar(2)
        assert clone.to_json() == snap.to_json()

    @settings(max_examples=25, deadline=None)
    @given(cfg=machines())
    def test_processor_config_pickle_round_trip(self, cfg):
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert clone.broadcast_depth == cfg.broadcast_depth
        assert clone.reduction_depth == cfg.reduction_depth

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_stats_pickle_round_trip(self, data):
        stats = Stats(
            cycles=data.draw(st.integers(0, 10**6)),
            instructions=data.draw(st.integers(0, 10**6)),
            idle_slots=data.draw(st.integers(0, 10**6)),
            threads_spawned=data.draw(st.integers(0, 64)),
        )
        for cause in data.draw(st.lists(st.sampled_from(ALL_STALL_CAUSES),
                                        unique=True)):
            stats.wait_cycles[cause] = data.draw(st.integers(1, 1000))
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert clone.wait_cycles == stats.wait_cycles


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def snap(self, seed=41):
        return ResultSnapshot.from_result(
            run_program(DEMO.replace("41", str(seed)), SMALL))

    def test_miss_then_memory_hit(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        assert cache.get("k" * 64) is None
        snap = self.snap()
        cache.put("k" * 64, snap)
        got, tier = cache.lookup("k" * 64)
        assert got == snap and tier == "memory"
        assert cache.stats.misses == 1 and cache.stats.mem_hits == 1

    def test_disk_hit_survives_process_restart(self, tmp_path):
        snap = self.snap()
        ResultCache(cache_dir=tmp_path).put("a" * 64, snap)
        fresh = ResultCache(cache_dir=tmp_path)   # simulates a new process
        got, tier = fresh.lookup("a" * 64)
        assert got == snap and tier == "disk"
        # Promoted to the memory tier on the way through.
        assert fresh.lookup("a" * 64)[1] == "memory"

    def test_cache_hit_bit_identical_to_fresh_simulation(self, tmp_path):
        """The headline guarantee: hit == re-simulation, bit for bit."""
        job = demo_job()
        cold = BatchRunner(cache=ResultCache(cache_dir=tmp_path)).run([job])
        warm = BatchRunner(cache=ResultCache(cache_dir=tmp_path)).run([job])
        fresh = ResultSnapshot.from_result(run_program(DEMO, SMALL))
        assert warm.results[0].origin == "disk-cache"
        assert warm.results[0].snapshot == cold.results[0].snapshot == fresh
        assert pickle.dumps(warm.results[0].snapshot) == \
            pickle.dumps(fresh)

    def test_lru_eviction(self):
        cache = ResultCache(cache_dir=None, mem_entries=2)
        snaps = {k: self.snap(seed) for k, seed in
                 (("k1", 1), ("k2", 2), ("k3", 3))}
        for key, snap in snaps.items():
            cache.put(key, snap)
        assert cache.stats.evictions == 1
        assert cache.get("k1") is None            # oldest fell out
        assert cache.get("k3") == snaps["k3"]

    def test_lru_recency_updates_on_hit(self):
        cache = ResultCache(cache_dir=None, mem_entries=2)
        cache.put("k1", self.snap(1))
        cache.put("k2", self.snap(2))
        cache.get("k1")                            # k1 is now most recent
        cache.put("k3", self.snap(3))
        assert cache.get("k2") is None
        assert cache.get("k1") is not None

    def test_corrupted_entry_falls_back_to_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("c" * 64, self.snap())
        path = cache._route("c" * 64)[0]
        path.write_bytes(b"not a pickle at all")
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("c" * 64) is None
        assert fresh.stats.corrupt_entries == 1
        assert not path.exists()                   # quarantined
        # Recompute-and-overwrite heals the entry.
        fresh.put("c" * 64, self.snap())
        assert ResultCache(cache_dir=tmp_path).get("c" * 64) is not None

    def test_wrong_typed_entry_is_corruption(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        path = cache._route("d" * 64)[0]
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "a snapshot"}))
        assert cache.get("d" * 64) is None
        assert cache.stats.corrupt_entries == 1

    def test_version_bump_retires_old_entries(self, tmp_path):
        """A schema bump changes keys, so old entries are unreachable."""
        cache = ResultCache(cache_dir=tmp_path)
        old_key = job_key(prepared_demo(),
                          schema_version=CACHE_SCHEMA_VERSION)
        cache.put(old_key, self.snap())
        new_key = job_key(prepared_demo(),
                          schema_version=CACHE_SCHEMA_VERSION + 1)
        assert cache.get(new_key) is None


# ---------------------------------------------------------------------------
# batch runner + pool
# ---------------------------------------------------------------------------

class TestBatchRunner:
    def test_dedup_simulates_k_of_n(self):
        jobs = [demo_job("a"), demo_job("b"), demo_job("wider", num_pes=8),
                demo_job("c")]
        report = BatchRunner(cache=ResultCache.disabled()).run(jobs)
        assert len(report.results) == 4
        assert report.unique_jobs == 2
        assert report.computed == 2
        assert report.origin_count("coalesced") == 2
        assert report.results[0].snapshot == report.results[1].snapshot

    def test_results_keep_request_order(self):
        jobs = [demo_job("n8", num_pes=8), demo_job("n4"),
                demo_job("n8b", num_pes=8)]
        report = BatchRunner(cache=ResultCache.disabled()).run(jobs)
        assert [r.name for r in report.results] == ["n8", "n4", "n8b"]

    def test_a_kernel_its_machine_cannot_host_fails_alone(self):
        """image_threshold needs 8 local words: on 4 that job errors,
        unkeyed and unsimulated, and the batch runs the others."""
        def kernel(name, lmem_words):
            return Job.from_json({"name": name, "kernel": "image_threshold",
                                  "config": {"lmem_words": lmem_words}})
        jobs = [kernel("fits", 64), kernel("small", 4), demo_job("demo")]
        report = BatchRunner(cache=ResultCache.disabled()).run(jobs)
        assert [(r.name, r.status, r.origin) for r in report.results] == [
            ("fits", "ok", "computed"), ("small", "error", "refused"),
            ("demo", "ok", "computed")]
        small = report.results[1]
        assert small.key == "" and small.snapshot is None
        assert small.error == ("job 'small': cannot build kernel "
                               "'image_threshold' at 16 PEs: image_threshold "
                               "needs >= 8 local words")
        assert report.computed == 2 and report.cache_hit_rate == 0.0

    def test_parallel_batch_matches_serial(self, tmp_path):
        jobs = [demo_job(f"j{i}", num_pes=2 * (i + 1)) for i in range(4)]
        serial = BatchRunner(cache=ResultCache.disabled(), jobs=1).run(jobs)
        parallel = BatchRunner(cache=ResultCache.disabled(), jobs=2).run(jobs)
        assert [r.snapshot for r in serial.results] == \
            [r.snapshot for r in parallel.results]
        assert parallel.computed == 4

    def test_timeout_maps_to_sim_watchdog(self):
        hang = ".text\nmain:\n    j main\n"
        job = Job(name="spin", source=hang, config=SMALL, max_cycles=200)
        report = BatchRunner(cache=ResultCache.disabled()).run([job])
        assert report.results[0].status == "timeout"
        assert "max_cycles" in report.results[0].error
        assert not report.ok

    def test_failed_jobs_are_not_cached(self, tmp_path):
        hang = ".text\nmain:\n    j main\n"
        cache = ResultCache(cache_dir=tmp_path)
        job = Job(name="spin", source=hang, config=SMALL, max_cycles=100)
        BatchRunner(cache=cache).run([job])
        assert cache.stats.stores == 0

    def test_kernel_jobs_match_direct_runner(self):
        from repro.programs import ALL_KERNEL_BUILDERS, run_kernel

        cfg = ProcessorConfig(num_pes=8, num_threads=4)
        job = Job(name="cm", kernel="count_matches", config=cfg)
        report = BatchRunner(cache=ResultCache.disabled()).run([job])
        kern = ALL_KERNEL_BUILDERS["count_matches"](cfg.num_pes)
        direct = run_kernel(
            kern, dataclasses.replace(cfg, word_width=kern.word_width))
        assert report.results[0].snapshot.cycles == direct.cycles
        for name, spec in kern.outputs.items():
            if spec[0] == "scalar":
                assert report.results[0].snapshot.scalar(spec[1]) == \
                    direct.measured[name]


# ---------------------------------------------------------------------------
# job descriptions
# ---------------------------------------------------------------------------

class TestJobParsing:
    def test_unknown_fields_rejected(self):
        with pytest.raises(JobError, match="unknown job field"):
            Job.from_json({"source": DEMO, "frobnicate": 1})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(JobError, match="unknown config field"):
            Job.from_json({"source": DEMO, "config": {"num_pe": 4}})

    def test_source_or_kernel_required(self):
        with pytest.raises(JobError, match="source/kernel"):
            Job.from_json({"name": "empty"})

    def test_unknown_kernel_rejected_at_prepare(self):
        with pytest.raises(JobError, match="unknown kernel"):
            Job.from_json({"kernel": "nope"}).prepare()

    @pytest.mark.parametrize("kernel, pes", [("string_match", 4),
                                             ("knn_search", 2)])
    def test_kernel_too_big_for_the_machine_is_a_job_error(self, kernel,
                                                           pes):
        job = Job.from_json({"name": "small", "kernel": kernel,
                             "config": {"num_pes": pes}})
        with pytest.raises(JobError,
                           match=f"job 'small': cannot build kernel "
                                 f"'{kernel}' at {pes} PEs"):
            job.prepare()

    def test_unloadable_loop_count_is_a_job_error(self):
        job = Job.from_json({"name": "long", "kernel": "vector_mac",
                             "kernel_args": {"iters": 1 << 16}})
        with pytest.raises(JobError, match="iters=65536 is not "
                                           "representable by li"):
            job.prepare()

    def test_file_jobs_resolve_against_base_dir(self, tmp_path):
        (tmp_path / "prog.s").write_text(DEMO)
        job = Job.from_json({"file": "prog.s",
                             "config": {"num_pes": 4, "num_threads": 2}},
                            base_dir=tmp_path)
        assert job.prepare().key == demo_job(lmem_words=1024,
                                             scalar_mem_words=4096,
                                             ).prepare().key

    def test_jobs_document_forms(self):
        doc = {"jobs": [{"name": "x", "source": DEMO}]}
        assert len(jobs_from_json(doc)) == 1
        assert len(jobs_from_json([{"source": DEMO}])) == 1
        with pytest.raises(JobError):
            jobs_from_json({"jobs": []})
        with pytest.raises(JobError):
            jobs_from_json("nope")


# ---------------------------------------------------------------------------
# parallel fault campaign (byte-identity acceptance)
# ---------------------------------------------------------------------------

class TestParallelFaultCampaign:
    def test_parallel_campaign_byte_identical_to_serial(self):
        cfg = ProcessorConfig(num_pes=8, num_threads=4)
        serial = run_campaign("count_matches", cfg, faults=12, seed=3)
        parallel = run_campaign("count_matches", cfg, faults=12, seed=3,
                                jobs=2)
        assert parallel.to_json() == serial.to_json()
        assert parallel.render() == serial.render()


_CAMPAIGN_PID = os.getpid()
_RUN_ONE_FAULT = campaign._run_one_fault
_IN_PROCESS_RUNS: list[str] = []


def _raising_fault_run(task):
    raise RuntimeError("boom")


def _worker_killing_fault_run(task):
    """Kills any worker process that runs a fault; runs it anywhere else."""
    if os.getpid() != _CAMPAIGN_PID:
        os._exit(113)
    _IN_PROCESS_RUNS.append(task.spec.label)
    return _RUN_ONE_FAULT(task)


class TestCampaignFailures:
    CFG = ProcessorConfig(num_pes=8, num_threads=4)

    def test_a_raising_run_fails_the_campaign_naming_its_fault(
            self, monkeypatch):
        monkeypatch.setattr(campaign, "_run_one_fault", _raising_fault_run)
        with pytest.raises(RuntimeError, match="boom") as info:
            run_campaign("count_matches", self.CFG, faults=3, seed=1)
        assert type(info.value).__name__ == "CampaignError"
        assert str(info.value).startswith("fault f0000:")

    def test_faultsim_reports_a_raising_run_in_one_line(self, monkeypatch,
                                                         capsys):
        from repro.cli import main

        monkeypatch.setattr(campaign, "_run_one_fault", _raising_fault_run)
        assert main(["faultsim", "--kernel", "count_matches", "--pes", "8",
                     "--threads", "4", "--faults", "3", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("faultsim: fault f0000:")
        assert "RuntimeError: boom" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_quarantined_run_fails_without_running_in_process(
            self, monkeypatch):
        monkeypatch.setattr(campaign, "_run_one_fault",
                            _worker_killing_fault_run)
        _IN_PROCESS_RUNS.clear()
        with pytest.raises(RuntimeError, match="quarantined as poison job"):
            run_campaign("count_matches", self.CFG, faults=2, seed=1, jobs=2)
        assert _IN_PROCESS_RUNS == []


# ---------------------------------------------------------------------------
# JSON-lines service protocol
# ---------------------------------------------------------------------------

class TestServeSession:
    def session(self, **kwargs):
        return Dispatcher(
            runner=BatchRunner(cache=ResultCache.disabled()), **kwargs)

    def job_obj(self, name="x"):
        return {"name": name, "source": DEMO,
                "config": {"num_pes": 4, "num_threads": 2}}

    def test_ping_and_id_echo(self):
        ses = self.session()
        assert ses.handle_line('{"op": "ping", "id": 9}') == \
            {"ok": True, "pong": True, "id": 9}

    def test_blank_lines_ignored(self):
        assert self.session().handle_line("   \n") is None

    def test_bad_json_is_an_error_reply(self):
        reply = self.session().handle_line("{nope")
        assert reply["ok"] is False and "bad JSON" in reply["error"]

    def test_run_then_cache_hit(self):
        ses = self.session()
        line = json.dumps({"op": "run", "job": self.job_obj()})
        first = ses.handle_line(line)
        second = ses.handle_line(line)
        assert first["ok"] and first["origin"] == "computed"
        assert second["origin"] == "memory-cache"
        assert second["result"] == first["result"]

    def test_batch_coalesces_and_orders(self):
        ses = self.session()
        reply = ses.handle_line(json.dumps(
            {"op": "batch", "jobs": [self.job_obj("a"), self.job_obj("b")]}))
        assert reply["ok"]
        assert [r["name"] for r in reply["results"]] == ["a", "b"]
        assert reply["origins"] == ["computed", "coalesced"]

    def test_unfit_job_fails_alone_in_a_batch_not_in_a_run(self):
        ses = self.session()
        small = {"name": "small", "kernel": "image_threshold",
                 "config": {"lmem_words": 4}}
        batch = ses.handle_line(json.dumps(
            {"op": "batch", "jobs": [self.job_obj("a"), small]}))
        assert batch["ok"] is False
        assert batch["origins"] == ["computed", "refused"]
        assert [r["status"] for r in batch["results"]] == ["ok", "error"]
        error = batch["results"][1]["error"]
        assert error.endswith("image_threshold needs >= 8 local words")
        run = ses.handle_line(json.dumps({"op": "run", "job": small}))
        assert run == {"ok": False, "error": error}

    def test_overload_reply(self):
        ses = self.session(max_pending=2)
        reply = ses.handle_line(json.dumps(
            {"op": "batch", "jobs": [self.job_obj(str(i)) for i in range(3)]}))
        assert reply == {"ok": False, "error": "overloaded",
                         "max_pending": 2, "requested": 3}

    def test_bad_job_is_an_error_reply(self):
        reply = self.session().handle_line(
            '{"op": "run", "job": {"kernel": "nope"}}')
        assert reply["ok"] is False and "unknown kernel" in reply["error"]

    @pytest.mark.parametrize("hook", [
        {"profile": True}, {"sanitize": True},
        {"fault": {"site": "pe_reg", "kind": "stuck_at", "cycle": 3,
                   "reg": 1, "bit": 0, "stuck_value": 1}}],
        ids=["profile", "sanitize", "fault"])
    @pytest.mark.parametrize("program", [
        {"kernel": "vector_mac"},
        {"source": (pathlib.Path(__file__).resolve().parent.parent
                    / "examples" / "asm" / "race_demo.s").read_text()}],
        ids=["spawn-free-kernel", "spawning-program"])
    def test_fast_run_replies_the_cycle_reply(self, program, hook):
        """A fast job with a hook attached runs: its full reply is the
        cycle job's but for the key and the backend it names."""
        ses = self.session(full_results=True)
        replies = []
        for backend in ("cycle", "fast"):
            reply = ses.handle_line(json.dumps(
                {"op": "run", "job": dict(program, backend=backend, **hook)}))
            assert reply["ok"], reply
            assert reply.pop("key")
            assert reply["result"].pop("backend") == backend
            replies.append(reply)
        assert replies[1] == replies[0]

    def test_stats_and_shutdown(self):
        ses = self.session()
        ses.handle_line(json.dumps({"op": "run", "job": self.job_obj()}))
        stats = ses.handle_line('{"op": "stats"}')
        assert stats["ok"] and stats["cache"]["misses"] == 1
        bye = ses.handle_line('{"op": "shutdown"}')
        assert bye["ok"] and ses.shutdown


class TestServeHardening:
    """One bad client line must cost one error reply, never the service."""

    def session(self, **kwargs):
        return Dispatcher(
            runner=BatchRunner(cache=ResultCache.disabled()), **kwargs)

    def job_obj(self, name="x"):
        return {"name": name, "source": DEMO,
                "config": {"num_pes": 4, "num_threads": 2}}

    def test_oversized_line_is_refused_not_parsed(self):
        ses = self.session(max_line_bytes=64)
        reply = ses.handle_line('{"op": "ping", "pad": "' + "x" * 100 + '"}')
        assert reply["ok"] is False and "line too long" in reply["error"]
        registry = ses.registry
        assert registry.get("serve_line_errors_total") \
            .value(reason="oversized") == 1

    def test_non_object_request_is_an_error_reply(self):
        reply = self.session().handle_line('[1, 2, 3]')
        assert reply["ok"] is False and "JSON object" in reply["error"]

    def test_internal_dispatch_bug_becomes_error_reply(self):
        ses = self.session()

        def boom(request):
            raise RuntimeError("dispatch bug")

        ses._dispatch = boom
        reply = ses.handle_line('{"op": "ping", "id": 4}')
        assert reply["ok"] is False
        assert "internal error: RuntimeError: dispatch bug" in reply["error"]
        assert reply["id"] == 4        # id still echoed
        # The session survives and keeps serving.
        del ses._dispatch
        assert ses.handle_line('{"op": "ping"}')["ok"]

    def test_mid_line_eof_still_gets_a_reply(self):
        from tests.test_serve_net import stdio_exchange

        # Final line has no trailing newline: a client died mid-write.
        out = stdio_exchange(self.session(), '{"op": "ping"}')
        assert json.loads(out)["pong"] is True

    def test_unbuildable_kernel_is_a_job_error_not_internal(self):
        ses = self.session()
        run = ses.handle_line(json.dumps(
            {"op": "run", "job": {"kernel": "knn_search",
                                  "config": {"num_pes": 2}}}))
        sweep = ses.handle_line(json.dumps(
            {"op": "dse", "spec": {"axes": {"num_pes": [4]},
                                   "kernels": ["string_match"]}}))
        assert run == {"ok": False, "error":
                       "job 'knn_search': cannot build kernel "
                       "'knn_search' at 2 PEs: need at least k=4 PEs, "
                       "got 2"}
        assert sweep == {"ok": False, "error":
                         "job 'p4/string_match': cannot build kernel "
                         "'string_match' at 4 PEs: too many occurrences "
                         "to plant disjointly"}
        assert ses.registry.get("serve_line_errors_total") \
            .value(reason="internal") == 0

    @pytest.mark.parametrize("field, value, error", [
        ("kernel", ["vector_mac"],
         "'kernel' must be null or a string, got ['vector_mac']"),
        ("config", [1], "'config' must be an object, got [1]"),
        ("config", "x", "'config' must be an object, got 'x'"),
        ("lmem", [1], "'lmem' must be an object, got [1]"),
        ("fault", 5, "'fault' must be an object, got 5"),
        ("kernel_args", {"width": 64},
         "job 'vector_mac': bad kernel_args for 'vector_mac'"),
        ("source", 5, "'source' must be null or a string, got 5"),
        ("file", 5, "'file' must be a string, got 5"),
    ])
    def test_wrong_typed_job_field_is_a_job_error(self, field, value, error):
        ses = self.session()
        job = {"kernel": "vector_mac"}
        if field in ("source", "file"):
            job = {}
        job[field] = value
        reply = ses.handle_line(json.dumps({"op": "run", "job": job}))
        assert reply["ok"] is False
        if field == "kernel_args":
            assert reply["error"].startswith(error), reply["error"]
        else:
            # The job's name is its kernel when that is a string.
            kernel = job.get("kernel")
            name = kernel if isinstance(kernel, str) else "inline"
            assert reply["error"] == f"job {name!r}: {error}"
        assert ses.registry.get("serve_line_errors_total") \
            .value(reason="internal") == 0

    @pytest.mark.parametrize("value", ["abc", -5, 0, 1.5, True])
    def test_max_cycles_must_be_null_or_a_positive_int(self, value):
        reply = self.session().handle_line(json.dumps(
            {"op": "run", "job": {**self.job_obj(), "max_cycles": value}}))
        assert reply == {"ok": False, "error":
                         f"job 'x': 'max_cycles' must be null or an integer "
                         f"in 1..10000000, got {value!r}"}

    @pytest.mark.parametrize("value", [None, 500])
    def test_legal_max_cycles_run(self, value):
        reply = self.session().handle_line(json.dumps(
            {"op": "run", "job": {**self.job_obj(), "max_cycles": value}}))
        assert reply["ok"] is True and reply["status"] == "ok"

    def test_health_surface(self):
        ses = self.session()
        reply = ses.handle_line('{"op": "health"}')
        assert reply["ok"]
        health = reply["health"]
        assert health["status"] == "ok"
        assert health["cache"]["breaker"]["state"] == "closed"
        assert health["quarantine"]["quarantined"] == {}
        assert health["shed_jobs"] == 0

    def test_health_reports_quarantine_as_degraded(self):
        ses = self.session()
        ses.runner.quarantine.strike("k", "boom")
        ses.runner.quarantine.strike("k", "boom")
        ses.runner.quarantine.strike("k", "boom")
        health = ses.handle_line('{"op": "health"}')["health"]
        assert health["status"] == "degraded"

    def test_shed_oldest_drops_front_and_keeps_order(self):
        ses = self.session(max_pending=2, shed="oldest")
        reply = ses.handle_line(json.dumps(
            {"op": "batch",
             "jobs": [self.job_obj(str(i)) for i in range(4)]}))
        assert reply["ok"] is False          # shedding is not a clean batch
        assert [r["name"] for r in reply["results"]] == \
            ["0", "1", "2", "3"]             # request order preserved
        assert [r["status"] for r in reply["results"]] == \
            ["shed", "shed", "ok", "ok"]
        assert reply["origins"][:2] == ["shed", "shed"]
        assert ses.shed_jobs == 2
        assert ses.registry.get("serve_shed_jobs_total").value() == 2

    def test_shed_refuse_stays_the_default(self):
        reply = self.session(max_pending=1).handle_line(json.dumps(
            {"op": "batch", "jobs": [self.job_obj("a"), self.job_obj("b")]}))
        assert reply == {"ok": False, "error": "overloaded",
                         "max_pending": 1, "requested": 2}

    def test_single_run_never_sheds(self):
        ses = self.session(max_pending=0, shed="oldest")
        reply = ses.handle_line(json.dumps(
            {"op": "run", "job": self.job_obj()}))
        assert reply["ok"] is False and reply["error"] == "overloaded"

    def test_unknown_shed_policy_rejected(self):
        with pytest.raises(ValueError):
            self.session(shed="noise")


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestServeCli:
    def test_run_json_mode(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "demo.s"
        path.write_text(DEMO)
        assert main(["run", str(path), "--pes", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["cycles"] > 0
        assert payload["scalars"]["t0"]["s2"] == 42
        assert "wait_cycles" in payload["stats"]

    def test_batch_cli_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        jobs_file = tmp_path / "jobs.json"
        jobs_file.write_text(json.dumps([
            {"name": "a", "source": DEMO,
             "config": {"num_pes": 4, "num_threads": 2}},
            {"name": "b", "source": DEMO,
             "config": {"num_pes": 8, "num_threads": 2}},
        ]))
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", str(jobs_file), "--cache-dir", cache_dir,
                     "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(["batch", str(jobs_file), "--cache-dir", cache_dir,
                     "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["results"] == warm["results"]
        assert warm["metrics"]["computed"] == 0
        assert warm["metrics"]["cache_hit_rate"] == 1.0

    def test_batch_cli_rejects_bad_files(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "missing.json"
        assert main(["batch", str(missing)]) == 1
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["batch", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_batch_cli_reports_failures(self, tmp_path, capsys):
        from repro.cli import main

        jobs_file = tmp_path / "jobs.json"
        jobs_file.write_text(json.dumps(
            [{"name": "spin", "source": ".text\nmain:\n    j main\n",
              "max_cycles": 100}]))
        assert main(["batch", str(jobs_file), "--no-cache"]) == 2
        assert "1 job(s) failed" in capsys.readouterr().err

    def test_unbuildable_kernel_exits_1_with_one_line(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        jobs_file = tmp_path / "jobs.json"
        jobs_file.write_text(json.dumps(
            [{"kernel": "string_match", "config": {"num_pes": 4}}]))
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps(
            {"axes": {"num_pes": [2, 16]}, "kernels": ["knn_search"]}))
        for argv, command in ((["batch", str(jobs_file)], "batch"),
                              (["dse", str(spec_file)], "dse")):
            assert main([*argv, "--no-cache"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"{command}: job ")
            assert "cannot build kernel" in err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_faultsim_jobs_flag_identical_output(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["faultsim", "--kernel", "count_matches", "--pes", "8",
                "--threads", "4", "--faults", "8", "--seed", "1", "--json"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_chaos_cli_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "report.json"
        assert main(["chaos", "--jobs", "8", "--workers", "2",
                     "--events", "4", "--seed", "3", "--json",
                     "-o", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["invariants"]["ok"] is True
        assert report["invariants"]["lost"] == []
        assert len(report["results"]) == 8

    def test_chaos_cli_human_report(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--jobs", "4", "--workers", "1",
                     "--events", "2", "--seed", "1"]) == 0
        assert "all invariants hold" in capsys.readouterr().out
