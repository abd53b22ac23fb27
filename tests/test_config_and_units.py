"""Config validation, scalar memory, stats, scheduler."""

import pytest

from repro.core import stats as st_
from repro.core.config import (
    MTMode,
    ProcessorConfig,
    SchedulerPolicy,
)
from repro.core.memory import ScalarMemory, ScalarMemoryFault
from repro.core.stats import Stats
from repro.core.thread import ThreadContext, ThreadState, ThreadStatusTable
from tests.rounds import round_at, spinning_core


class TestConfigValidation:
    def test_defaults_are_the_prototype(self):
        cfg = ProcessorConfig()
        assert cfg.num_pes == 16
        assert cfg.num_threads == 16
        assert cfg.word_width == 8
        assert cfg.lmem_words == 1024     # 1 KB at 8-bit words
        assert cfg.mt_mode is MTMode.FINE
        assert cfg.scheduler is SchedulerPolicy.ROTATING

    def test_prototype_depths(self):
        cfg = ProcessorConfig()
        assert cfg.broadcast_depth == 4
        assert cfg.reduction_depth == 4

    def test_bad_width(self):
        with pytest.raises(ValueError):
            ProcessorConfig(word_width=12)

    def test_single_mode_needs_one_thread(self):
        with pytest.raises(ValueError):
            ProcessorConfig(mt_mode=MTMode.SINGLE, num_threads=4)

    def test_mt_needs_two_threads(self):
        with pytest.raises(ValueError):
            ProcessorConfig(mt_mode=MTMode.FINE, num_threads=1)

    def test_bad_pes(self):
        with pytest.raises(ValueError):
            ProcessorConfig(num_pes=0)

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            ProcessorConfig(broadcast_arity=1)

    def test_issue_width(self):
        assert ProcessorConfig().issue_width == 1
        assert ProcessorConfig(mt_mode=MTMode.SMT2).issue_width == 2

    def test_describe_mentions_key_params(self):
        text = ProcessorConfig(num_pes=64).describe()
        assert "p=64" in text and "b=" in text and "r=" in text

    def test_arity_shrinks_broadcast_depth(self):
        deep = ProcessorConfig(num_pes=256, broadcast_arity=2)
        shallow = ProcessorConfig(num_pes=256, broadcast_arity=16)
        assert shallow.broadcast_depth < deep.broadcast_depth


class TestScalarMemory:
    def test_roundtrip(self):
        mem = ScalarMemory(16, 8)
        mem.store(3, 200)
        assert mem.load(3) == 200

    def test_wraps_at_width(self):
        mem = ScalarMemory(16, 8)
        mem.store(0, 300)
        assert mem.load(0) == 44

    def test_bounds(self):
        mem = ScalarMemory(4, 8)
        with pytest.raises(ScalarMemoryFault):
            mem.load(4)
        with pytest.raises(ScalarMemoryFault):
            mem.store(-1, 0)

    def test_image_loading(self):
        mem = ScalarMemory(8, 16)
        mem.load_image([1, 2, 3], base=2)
        assert mem.dump(0, 6) == [0, 0, 1, 2, 3, 0]

    def test_image_too_big(self):
        mem = ScalarMemory(2, 8)
        with pytest.raises(ScalarMemoryFault):
            mem.load_image([1, 2, 3])

    def test_dump_bounds(self):
        mem = ScalarMemory(4, 8)
        with pytest.raises(ScalarMemoryFault):
            mem.dump(2, 5)

    def test_reset(self):
        mem = ScalarMemory(4, 8)
        mem.store(0, 9)
        mem.reset()
        assert mem.load(0) == 0


class TestStats:
    def test_ipc_and_utilization(self):
        s = Stats()
        s.cycles = 10
        s.issue_slots = 10
        for _ in range(5):
            s.count_issue(0, "scalar")
        assert s.ipc == 0.5
        assert s.utilization == 0.5

    def test_class_counters(self):
        s = Stats()
        s.count_issue(0, "scalar")
        s.count_issue(1, "parallel")
        s.count_issue(2, "reduction")
        assert (s.scalar_instructions, s.parallel_instructions,
                s.reduction_instructions) == (1, 1, 1)

    def test_fairness_perfect(self):
        s = Stats()
        for t in range(4):
            for _ in range(10):
                s.count_issue(t, "scalar")
        assert s.fairness() == pytest.approx(1.0)

    def test_fairness_skewed(self):
        s = Stats()
        for _ in range(100):
            s.count_issue(0, "scalar")
        s.count_issue(1, "scalar")
        assert s.fairness() < 0.6

    def test_empty_stats(self):
        s = Stats()
        assert s.ipc == 0.0
        assert s.utilization == 0.0
        assert s.fairness() == 1.0

    def test_render_contains_waits(self):
        s = Stats()
        s.cycles = 1
        s.wait_cycles[st_.STALL_REDUCTION] += 3
        assert "reduction_hazard" in s.render()


class TestThreadStatusTable:
    def test_allocate_release_cycle(self):
        table = ThreadStatusTable(2)
        t0 = table.allocate(pc=0, start_cycle=1)
        t1 = table.allocate(pc=5, start_cycle=1)
        assert (t0, t1) == (0, 1)
        assert table.allocate(pc=0, start_cycle=1) is None
        table.release(0)
        assert table.allocate(pc=9, start_cycle=2) == 0

    def test_activate_resets_state(self):
        table = ThreadStatusTable(1)
        table.allocate(pc=3, start_cycle=4)
        ctx = table[0]
        ctx.sregs[5] = 99
        ctx.score[5] = (10, 11, 0)
        ctx.ready = (12, None, 11, None, -1)
        table.release(0)
        table.allocate(pc=7, start_cycle=9)
        assert ctx.pc == 7
        assert ctx.sregs[5] == 0
        assert not ctx.score
        assert ctx.ready is None

    def test_live_and_runnable(self):
        table = ThreadStatusTable(3)
        table.allocate(0, 0)
        table.allocate(0, 0)
        table[1].state = ThreadState.JOINING
        assert len(table.live_threads()) == 2
        assert len(table.runnable_threads()) == 1

    def test_zero_register_reads_zero(self):
        ctx = ThreadContext(0)
        ctx.sregs[0] = 99    # illegal poke; reads must still be 0
        assert ctx.read_sreg(0) == 0
        ctx.write_sreg(0, 5, 0xFF)
        assert ctx.sregs[0] == 99   # write ignored


class TestSchedulerUnit:
    ALL_READY = {0: 0, 1: 0, 2: 0, 3: 0}

    def test_rotating_cycles_through(self):
        proc = spinning_core(ProcessorConfig(num_threads=4, num_pes=4))
        order = [round_at(proc, cycle, self.ALL_READY)[0]
                 for cycle in range(8)]
        assert order == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_rotating_skips_missing(self):
        proc = spinning_core(ProcessorConfig(num_threads=4, num_pes=4))
        round_at(proc, 0, self.ALL_READY)          # granted 0
        assert round_at(proc, 1, {2: 0, 3: 0}) == [2]

    def test_fixed_always_lowest(self):
        cfg = ProcessorConfig(num_threads=4, num_pes=4,
                              scheduler=SchedulerPolicy.FIXED)
        proc = spinning_core(cfg)
        for cycle in range(4):
            assert round_at(proc, cycle, self.ALL_READY) == [0]

    def test_empty_candidates(self):
        proc = spinning_core(ProcessorConfig(num_threads=4, num_pes=4))
        assert round_at(proc, 0, {}) == []

    def test_reset(self):
        proc = spinning_core(ProcessorConfig(num_threads=4, num_pes=4))
        round_at(proc, 0, self.ALL_READY)
        proc.scheduler.reset()
        assert round_at(proc, 1, self.ALL_READY) == [0]
