"""Execution-semantics edge cases, exercised through real programs."""

import numpy as np
import pytest

from repro.core import (
    BranchPolicy,
    MTMode,
    Processor,
    ProcessorConfig,
    run_program,
)
from repro.asm import assemble


def cfg8(**kw):
    kw.setdefault("num_pes", 8)
    kw.setdefault("num_threads", 1)
    kw.setdefault("mt_mode", MTMode.SINGLE)
    return ProcessorConfig(**kw)


def run1(src, **kw):
    return run_program(".text\n" + src, cfg8(**kw))


class TestWidthCorners:
    def test_rcount_wraps_at_narrow_width(self):
        # 300 responders cannot be represented in 8 bits: the counter's
        # scalar destination wraps, as real 8-bit hardware would.
        cfg = cfg8(num_pes=300, word_width=8)
        res = run_program("""
.text
    pceqi f1, p0, 0       # every PE responds
    rcount s1, f1
    halt
""", cfg)
        assert res.scalar(1) == 300 & 0xFF

    def test_rsum_saturates_not_wraps(self):
        cfg = cfg8(num_pes=8, word_width=8)
        res = run_program("""
.text
    li s1, 100
    pbcast p1, s1
    rsum s2, p1           # 800 saturates to 127
    halt
""", cfg)
        assert res.scalar(2) == 127

    def test_lui_at_8_bits_yields_zero(self):
        res = run1("lui s1, 0x12\nhalt", word_width=8)
        assert res.scalar(1) == 0

    def test_parallel_imm_sign_extends_then_wraps(self):
        res = run1("pli p1, -1\nrmaxu s1, p1\nhalt", word_width=8)
        assert res.scalar(1) == 0xFF

    def test_shift_by_register_width_clamps(self):
        res = run1("""
            li   s1, 1
            li   s2, 16
            sll  s3, s1, s2
            srl  s4, s1, s2
            halt
        """, word_width=16)
        assert res.scalar(3) == 0 and res.scalar(4) == 0


class TestThreadEdges:
    def test_tput_thread_id_wraps_modulo_contexts(self):
        cfg = cfg8(num_threads=4, mt_mode=MTMode.FINE, word_width=16)
        res = run_program("""
.text
main:
    li   s1, 5            # 5 mod 4 == context 1
    li   s2, 42
    tput s1, s2, 3
    tget s3, s1, 3
    halt
""", cfg)
        assert res.scalar(3) == 42

    def test_spawn_then_halt_kills_children(self):
        cfg = cfg8(num_threads=4, mt_mode=MTMode.FINE, word_width=16)
        res = run_program("""
.text
main:
    tspawn s1, child
    halt                  # machine-wide stop, child may still be running
child:
    j child
""", cfg)
        assert res.stats.instructions < 20

    def test_exited_main_does_not_stop_others(self):
        cfg = cfg8(num_threads=2, mt_mode=MTMode.FINE, word_width=16)
        res = run_program("""
.text
main:
    tspawn s1, child
    texit
child:
    li  s2, 9
    sw  s2, 0(s0)
    texit
""", cfg)
        assert res.memory(0, 1) == [9]

    def test_join_self_would_deadlock_detected(self):
        from repro.core import SimulationError
        cfg = cfg8(num_threads=2, mt_mode=MTMode.FINE, word_width=16)
        with pytest.raises(SimulationError):
            run_program("""
.text
main:
    li    s1, 0
    tjoin s1              # join myself
    halt
""", cfg)


class TestCallStacks:
    def test_nested_calls_via_manual_link_save(self):
        res = run1("""
            li   s1, 2
            call outer
            halt
        outer:
            move s10, ra      # save link
            call inner
            move ra, s10
            addi s1, s1, 100
            ret
        inner:
            addi s1, s1, 10
            ret
        """, word_width=16)
        assert res.scalar(1) == 112

    def test_jr_arbitrary_target(self):
        res = run1("""
            li   s1, there    # label as an address constant
            jr   s1
            li   s2, 99       # skipped
        there:
            li   s3, 7
            halt
        """, word_width=16)
        assert res.scalar(2) == 0 and res.scalar(3) == 7


class TestMaskedSemantics:
    def test_inactive_pes_keep_old_values(self):
        proc = Processor(cfg8(num_pes=8, word_width=16))
        proc.load(assemble("""
.text
    plw   p1, 0(p0)
    pli   p2, 5
    fclr  f1
    pceqi f1, p1, 3       # only PE with value 3
    pli   p2, 77 [f1]
    halt
""", 16))
        proc.pe.set_lmem_column(0, np.arange(8))
        res = proc.run()
        values = res.pe_reg(2)
        assert values[3] == 77
        assert (np.delete(values, 3) == 5).all()

    def test_masked_store_leaves_other_pes_memory(self):
        proc = Processor(cfg8(num_pes=4, word_width=16))
        proc.load(assemble("""
.text
    plw   p1, 0(p0)
    fclr  f1
    pceqi f1, p1, 2
    pli   p2, 9
    psw   p2, 1(p0) [f1]
    plw   p3, 1(p0)
    halt
""", 16))
        proc.pe.set_lmem_column(0, np.arange(4))
        res = proc.run()
        assert res.pe_reg(3).tolist() == [0, 0, 9, 0]

    def test_reduction_under_empty_mask_yields_identity(self):
        res = run1("""
            li    s1, 50
            pbcast p1, s1
            fclr  f1
            rmaxu s2, p1 [f1]
            rminu s3, p1 [f1]
            rsum  s4, p1 [f1]
            rand  s5, p1 [f1]
            halt
        """, word_width=16)
        assert res.scalar(2) == 0
        assert res.scalar(3) == 0xFFFF
        assert res.scalar(4) == 0
        assert res.scalar(5) == 0xFFFF

    def test_rget_with_multiple_responders_is_or(self):
        res = run1("""
            li    s1, 3
            pbcast p1, s1
            paddi p2, p1, 1     # 4 everywhere
            fset  f1
            rget  s2, p2 [f1]   # OR of many responders: 4 | 4 = 4
            halt
        """, word_width=16)
        assert res.scalar(2) == 4


class TestBranchPolicies:
    LOOP = """
    li s1, 10
loop:
    addi s1, s1, -1
    bne  s1, s0, loop
    halt
"""

    def test_pnt_faster_on_mixed_branches(self):
        stall = run1(self.LOOP, branch_policy=BranchPolicy.STALL)
        pnt = run1(self.LOOP, branch_policy=BranchPolicy.PREDICT_NOT_TAKEN)
        # The loop's final untaken branch is free under PNT; taken ones
        # still cost 2 bubbles, so PNT <= STALL here.
        assert pnt.cycles <= stall.cycles
        assert pnt.scalar(1) == stall.scalar(1) == 0

    def test_policies_agree_on_results(self):
        src = """
    li s1, 6
    li s3, 0
a:  addi s3, s3, 2
    addi s1, s1, -1
    blt  s0, s1, a
    halt
"""
        a = run1(src, branch_policy=BranchPolicy.STALL)
        b = run1(src, branch_policy=BranchPolicy.PREDICT_NOT_TAKEN)
        assert a.scalar(3) == b.scalar(3) == 12

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_branch_conditions_match_word_semantics(self, width):
        """The compiled branch ops against the bitops reference: beq/bne
        on unsigned words, blt/bge on two's-complement words."""
        from repro.asm.program import Program
        from repro.core.execute import compile_ops
        from repro.core.memory import ScalarMemory
        from repro.core.thread import ThreadStatusTable
        from repro.isa.instruction import Instruction
        from repro.pe.pe_array import PEArray
        from repro.util.bitops import to_signed, to_unsigned

        reference = {
            "beq": lambda a, b: to_unsigned(a, width) == to_unsigned(b, width),
            "bne": lambda a, b: to_unsigned(a, width) != to_unsigned(b, width),
            "blt": lambda a, b: to_signed(a, width) < to_signed(b, width),
            "bge": lambda a, b: to_signed(a, width) >= to_signed(b, width),
        }
        half, span = 1 << (width - 1), 1 << width
        values = [0, 1, 2, half - 1, half, half + 1, span - 1, span, -1,
                  -half, 3 * span + 5]
        threads = ThreadStatusTable(1)
        threads.allocate(0, 0)
        thread = threads[0]
        ops = compile_ops(
            Program(instructions=[Instruction(m, rd=1, rs=2, imm=-1)
                                  for m in reference]),
            PEArray(1, 1, width, 1), ScalarMemory(1, width), threads)
        for a in values:
            for b in values:
                thread.sregs[1:3] = [a, b]
                for pc, (m, ref) in enumerate(reference.items()):
                    # Offset -1 targets the branch itself: taken is "a
                    # pc came back", whatever the pc.
                    taken = ops[pc](thread) is not None
                    assert taken is ref(a, b), (m, a, b)


class TestPipelineInvariants:
    def test_single_issue_stage_occupancy_unique(self):
        """No two instructions may occupy the same pipeline stage in the
        same cycle on a single-issue machine (shared hardware)."""
        from repro.core.timing import stage_schedule

        cfg = cfg8(num_pes=16, word_width=16)
        proc = Processor(cfg, trace=True)
        proc.load(assemble("""
.text
    plw   p1, 0(p0)
    paddi p2, p1, 1
    rmax  s1, p2
    add   s2, s1, s1
    pceqs f1, p2, s1
    rcount s3, f1
    halt
""", 16))
        result = proc.run()
        seen: dict[tuple[str, int], int] = {}
        for rec in result.trace:
            for slot in stage_schedule(rec.instr.spec, cfg, rec.cycle,
                                       rec.fetch_cycle):
                if slot.stage in ("IF", "ID"):
                    continue   # front-end slots repeat by design
                key = (slot.stage, slot.cycle)
                assert key not in seen, key
                seen[key] = rec.pc

    def test_issue_cycles_strictly_ordered_per_thread(self):
        cfg = ProcessorConfig(num_pes=16, num_threads=4, word_width=16)
        proc = Processor(cfg, trace=True)
        proc.load(assemble("""
.text
main:
    tspawn s1, w
    tspawn s1, w
w:
    li s2, 5
l:  addi s2, s2, -1
    bne s2, s0, l
    texit
""", 16))
        result = proc.run()
        last: dict[int, int] = {}
        for rec in result.trace:
            if rec.thread in last:
                assert rec.cycle > last[rec.thread]
            last[rec.thread] = rec.cycle
