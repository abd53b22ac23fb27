"""Coarse-grain scheduler internals + list-scheduler legality properties."""

from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.core import MTMode, ProcessorConfig
from repro.opt import basic_blocks, build_dag, schedule_block
from tests.rounds import round_at, spinning_core


def coarse_cfg(threshold=3, penalty=3):
    return ProcessorConfig(num_pes=4, num_threads=4, mt_mode=MTMode.COARSE,
                           coarse_switch_threshold=threshold,
                           coarse_switch_penalty=penalty)


ALL_READY = {0: 0, 1: 0, 2: 0, 3: 0}


class TestCoarseGrainScheduler:
    def test_sticks_with_current_thread(self):
        proc = spinning_core(coarse_cfg())
        assert round_at(proc, 0, ALL_READY) == [0]
        assert round_at(proc, 1, {0: 1, 1: 1, 2: 1, 3: 1}) == [0]

    def test_rides_out_short_stall(self):
        proc = spinning_core(coarse_cfg(threshold=5))
        round_at(proc, 0, ALL_READY)
        # Thread 0 stalled for 2 cycles (< threshold): no switch, no issue.
        assert round_at(proc, 1, {0: 3, 1: 1, 2: 1, 3: 1}) == []
        assert proc.scheduler.switches == 0

    def test_switches_on_long_stall_with_penalty(self):
        proc = spinning_core(coarse_cfg(threshold=3, penalty=4))
        sched = proc.scheduler
        round_at(proc, 0, ALL_READY)
        # Pays the flush.
        assert round_at(proc, 1, {0: 20, 1: 1, 2: 1, 3: 1}) == []
        assert sched.switches == 1
        assert sched.switch_until == 1 + 4
        # During the penalty window nothing issues.
        assert round_at(proc, 3, {0: 20, 1: 1}) == []
        # After it, the new resident thread runs.
        assert round_at(proc, 5, {0: 20, 1: 1}) == [1]

    def test_switch_target_not_stalled_thread(self):
        proc = spinning_core(coarse_cfg(penalty=0))
        round_at(proc, 0, ALL_READY)
        round_at(proc, 1, {0: 50, 2: 1})      # triggers switch to 2
        assert round_at(proc, 2, {0: 50, 2: 1}) == [2]

    def test_reset_clears_residency(self):
        proc = spinning_core(coarse_cfg())
        round_at(proc, 0, ALL_READY)
        proc.scheduler.reset()
        assert round_at(proc, 0, {3: 0}) == [3]
        assert proc.scheduler.switches == 0


LINES = st.sampled_from([
    "    addi s1, s1, 1",
    "    add  s2, s1, s3",
    "    sub  s3, s2, s1",
    "    paddi p1, p1, 1",
    "    padd p2, p1, p1",
    "    pceqi f1, p1, 3",
    "    rmax s4, p2 [f1]",
    "    rsum s5, p1",
    "    add  s1, s4, s5",
    "    plw  p3, 0(p0)",
    "    psw  p2, 1(p0)",
    "    fand f2, f1, f1",
])


class TestListSchedulerLegality:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(LINES, min_size=2, max_size=14))
    def test_schedule_is_dependence_respecting_permutation(self, lines):
        cfg = ProcessorConfig(num_pes=8, num_threads=1,
                              mt_mode=MTMode.SINGLE, word_width=16)
        prog = assemble(".text\n" + "\n".join(lines) + "\n")
        instrs = list(prog.instructions)
        out = schedule_block(instrs, cfg)

        # Permutation of the original instructions.
        assert sorted(i.encode() for i in out) == \
            sorted(i.encode() for i in instrs)

        # Every dependence edge of the original DAG still points forward.
        nodes = build_dag(instrs, cfg)
        position = {}
        remaining = list(out)
        for idx, instr in enumerate(instrs):
            # Identify by object identity (schedule_block reuses objects).
            position[idx] = next(i for i, x in enumerate(remaining)
                                 if x is instr)
        for node in nodes:
            for succ in node.succs:
                assert position[node.index] < position[succ], (
                    f"dependence {node.index}->{succ} violated")

    @settings(max_examples=30, deadline=None)
    @given(st.lists(LINES, min_size=2, max_size=12))
    def test_whole_program_blocks_preserved(self, lines):
        cfg = ProcessorConfig(num_pes=8, num_threads=1,
                              mt_mode=MTMode.SINGLE, word_width=16)
        src = (".text\nmain:\n" + "\n".join(lines)
               + "\n    bne s1, s0, main\n    halt\n")
        prog = assemble(src)
        from repro.opt import schedule_program

        sched = schedule_program(prog, cfg)
        assert len(sched.instructions) == len(prog.instructions)
        for block in basic_blocks(prog):
            orig = {i.encode() for i in
                    prog.instructions[block.start:block.end]}
            new = {i.encode() for i in
                   sched.instructions[block.start:block.end]}
            assert orig == new
