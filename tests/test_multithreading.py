"""Multithreading tests: spawn/join/communication, stall hiding, modes."""

import pytest

from repro.asm import assemble
from repro.core import (
    MTMode,
    Processor,
    ProcessorConfig,
    SchedulerPolicy,
    SimulationError,
    run_program,
)


def mt_cfg(threads=4, pes=16, **kw):
    return ProcessorConfig(num_pes=pes, num_threads=threads,
                           mt_mode=MTMode.FINE, word_width=16, **kw)


def single_cfg(pes=16, **kw):
    return ProcessorConfig(num_pes=pes, num_threads=1,
                           mt_mode=MTMode.SINGLE, word_width=16, **kw)


class TestThreadLifecycle:
    def test_spawn_returns_tid(self):
        res = run_program("""
.text
main:
    tspawn s1, child
    halt
child:
    texit
""", mt_cfg())
        assert res.scalar(1) == 1    # first free context after main (tid 0)

    def test_spawn_exhaustion_returns_all_ones(self):
        res = run_program("""
.text
main:
    tspawn s1, child
    tspawn s2, child
    tspawn s3, child
    tspawn s4, child     # only 4 contexts total; main holds one
    halt
child:
    j child              # children never exit (kept alive by halt)
""", mt_cfg(threads=4))
        assert res.scalar(1) == 1
        assert res.scalar(2) == 2
        assert res.scalar(3) == 3
        assert res.scalar(4) == 0xFFFF   # allocation failed

    def test_join_waits_for_child(self):
        res = run_program("""
.text
main:
    tspawn s1, child
    tjoin  s1
    tget   s2, s1, 5     # read child's s5 after it exited? (context freed;
                         # still holds the value until reused)
    halt
child:
    li  s5, 77
    texit
""", mt_cfg())
        assert res.scalar(2) == 77

    def test_join_already_exited(self):
        res = run_program("""
.text
main:
    tspawn s1, child
    li s3, 50
wait:
    addi s3, s3, -1      # give the child time to exit
    bne  s3, s0, wait
    tjoin s1
    li s4, 1
    halt
child:
    texit
""", mt_cfg())
        assert res.scalar(4) == 1

    def test_all_threads_exit_ends_run(self):
        res = run_program("""
.text
main:
    tspawn s1, child
    texit
child:
    li s2, 9
    texit
""", mt_cfg())
        # tspawn + texit (main) + li + texit (child)
        assert res.stats.instructions == 4

    def test_join_deadlock_detected(self):
        with pytest.raises(SimulationError) as e:
            run_program("""
.text
main:
    tspawn s1, a
    tjoin  s1
    halt
a:
    li s2, 0
    tjoin s2             # joins main -> circular wait
    texit
""", mt_cfg())
        assert "deadlock" in str(e.value)

    def test_context_reuse_after_exit(self):
        res = run_program("""
.text
main:
    tspawn s1, child
    tjoin  s1
    tspawn s2, child
    tjoin  s2
    halt
child:
    texit
""", mt_cfg(threads=2))
        assert res.scalar(1) == 1
        assert res.scalar(2) == 1   # context recycled


class TestInterThreadCommunication:
    def test_tput_tget_roundtrip(self):
        res = run_program("""
.text
main:
    tspawn s1, child
    li     s2, 123
    tput   s1, s2, 7     # child's s7 = 123
    tjoin  s1
    tget   s3, s1, 8     # child's s8
    halt
child:
wait:
    beq s7, s0, wait     # spin until the value arrives
    addi s8, s7, 1
    texit
""", mt_cfg())
        assert res.scalar(3) == 124

    def test_spawned_thread_registers_zeroed(self):
        res = run_program("""
.text
main:
    li     s5, 99
    tspawn s1, child
    tjoin  s1
    tget   s2, s1, 5     # child's s5 was never written by the child
    halt
child:
    texit
""", mt_cfg())
        assert res.scalar(2) == 0


class TestStallHiding:
    REDUCTION_LOOP = """
.text
main:
    li s2, {workers}
    li s3, 0
spawn:
    beq s3, s2, work
    tspawn s4, worker
    addi s3, s3, 1
    j spawn
worker:
    nop
work:
    li s5, {iters}
    pbcast p1, s5
loop:
    paddi p1, p1, 1
    rmax  s6, p1
    add   s7, s7, s6
    addi  s5, s5, -1
    bne   s5, s0, loop
    texit
"""

    def run_reduction(self, threads, pes=256, total=48):
        workers = threads - 1
        src = self.REDUCTION_LOOP.format(workers=workers,
                                         iters=total // threads)
        cfg = (single_cfg(pes=pes) if threads == 1
               else mt_cfg(threads=threads, pes=pes))
        return run_program(src, cfg)

    def test_mt_hides_reduction_stalls(self):
        r1 = self.run_reduction(1)
        r8 = self.run_reduction(8)
        # Same total reduction work; 8 threads must be much faster.
        assert r8.cycles < r1.cycles / 2.5

    def test_ipc_approaches_one_with_threads(self):
        r8 = self.run_reduction(8)
        assert r8.stats.ipc > 0.85

    def test_single_thread_ipc_collapses_with_pes(self):
        small = self.run_reduction(1, pes=4)
        large = self.run_reduction(1, pes=1024)
        assert large.stats.ipc < small.stats.ipc

    def test_idle_slots_shrink_with_threads(self):
        r1 = self.run_reduction(1)
        r8 = self.run_reduction(8)
        assert r8.stats.idle_slots < r1.stats.idle_slots


class TestSchedulerPolicies:
    WORKER_PROGRAM = """
.text
main:
    li s2, {workers}
    li s3, 0
spawn:
    beq s3, s2, work
    tspawn s4, worker
    addi s3, s3, 1
    j spawn
worker:
    nop
work:
    li s5, 40
loop:
    addi s6, s6, 1
    addi s5, s5, -1
    bne  s5, s0, loop
    texit
"""

    def test_rotating_priority_is_fair(self):
        src = self.WORKER_PROGRAM.format(workers=3)
        res = run_program(src, mt_cfg(threads=4,
                                      scheduler=SchedulerPolicy.ROTATING))
        assert res.stats.fairness() > 0.95

    def test_fixed_priority_less_fair_under_contention(self):
        src = self.WORKER_PROGRAM.format(workers=3)
        rot = run_program(src, mt_cfg(threads=4,
                                      scheduler=SchedulerPolicy.ROTATING))
        fix = run_program(src, mt_cfg(threads=4,
                                      scheduler=SchedulerPolicy.FIXED))
        # Fixed priority can starve later threads mid-run; rotating
        # should never be less fair than fixed.
        assert rot.stats.fairness() >= fix.stats.fairness() - 1e-9

    def test_all_threads_issue(self):
        src = self.WORKER_PROGRAM.format(workers=3)
        res = run_program(src, mt_cfg(threads=4))
        assert len(res.stats.per_thread_issued) == 4

    def test_every_runnable_thread_is_looked_at_each_round(self):
        """Thread 2 runs off the end of the program at cycle 11, while
        thread 0 waits on a reduction; from cycle 12 on, thread 0 is ready
        every cycle and wins every round under fixed priority.  The round
        at cycle 12 still evaluates thread 2's next instruction, so the
        run stops there, after 11 issues, not when thread 0 halts."""
        src = (".text\nmain:\n    tspawn s4, worker\n"
               "    tspawn s5, tail\n    rsum  s6, p0\n"
               "    add   s7, s6, s6\n" + "    addi  s1, s1, 1\n" * 30
               + "    halt\nworker:\n    texit\ntail:\n"
               + "    addi  s2, s2, 1\n" * 7)
        proc = Processor(mt_cfg(threads=4, scheduler=SchedulerPolicy.FIXED))
        with pytest.raises(SimulationError) as exc:
            proc.run(assemble(src, word_width=16))
        assert str(exc.value) == \
            "thread 2: PC 43 outside the program (0..42)"
        assert proc.stats.instructions == 11


class TestMTModes:
    STORM = """
.text
main:
    tspawn s4, worker
    tspawn s4, worker
    tspawn s4, worker
work:
    li s5, 24
    pbcast p1, s5
loop:
    paddi p1, p1, 1
    rmax  s6, p1
    add   s7, s7, s6
    addi  s5, s5, -1
    bne   s5, s0, loop
    texit
worker:
    j work
"""

    def test_coarse_grain_runs_correctly(self):
        cfg = ProcessorConfig(num_pes=64, num_threads=4, word_width=16,
                              mt_mode=MTMode.COARSE)
        res = run_program(self.STORM, cfg)
        assert res.stats.instructions > 0

    def test_fine_beats_coarse_on_short_stalls(self):
        fine = run_program(self.STORM, ProcessorConfig(
            num_pes=64, num_threads=4, word_width=16, mt_mode=MTMode.FINE))
        coarse = run_program(self.STORM, ProcessorConfig(
            num_pes=64, num_threads=4, word_width=16, mt_mode=MTMode.COARSE))
        assert fine.cycles <= coarse.cycles

    def test_smt2_dual_issue(self):
        cfg = ProcessorConfig(num_pes=64, num_threads=4, word_width=16,
                              mt_mode=MTMode.SMT2)
        res = run_program(self.STORM, cfg)
        assert res.stats.instructions > 0
        # SMT2 has two issue slots per cycle.
        assert res.stats.issue_slots == 2 * res.stats.cycles

    def test_smt2_never_dual_issues_one_sequential_unit(self):
        """A scalar and a parallel divide ready in the same cycle share
        the sequential divider: SMT-2 issues one and the other waits."""
        src = """
.text
main:
    tspawn s10, worker
    pdiv   p1, p2, p3
    tjoin  s10
    halt
worker:
    sdiv   s1, s2, s3
    texit
"""
        cycles = {}
        for mode in (MTMode.FINE, MTMode.SMT2):
            res = run_program(src, ProcessorConfig(
                num_pes=1, num_threads=4, mt_mode=mode))
            assert res.stats.wait_cycles["structural"] > 0
            cycles[mode] = res.cycles
        assert cycles[MTMode.SMT2] <= cycles[MTMode.FINE]

    def test_smt2_not_slower_than_fine(self):
        fine = run_program(self.STORM, ProcessorConfig(
            num_pes=64, num_threads=4, word_width=16, mt_mode=MTMode.FINE))
        smt = run_program(self.STORM, ProcessorConfig(
            num_pes=64, num_threads=4, word_width=16, mt_mode=MTMode.SMT2))
        assert smt.cycles <= fine.cycles

    def test_results_identical_across_modes(self):
        results = {}
        for mode in (MTMode.FINE, MTMode.COARSE, MTMode.SMT2):
            cfg = ProcessorConfig(num_pes=64, num_threads=4, word_width=16,
                                  mt_mode=mode)
            res = run_program(self.STORM, cfg)
            results[mode] = res.stats.instructions
        assert len(set(results.values())) == 1
