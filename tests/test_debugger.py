"""Debugger tests: breakpoints, stepping, inspection, resume."""

import pytest

from repro.asm import assemble
from repro.core import MTMode, Processor, ProcessorConfig
from repro.core.debugger import Debugger, DebuggerError
from tests.golden import ASM_DIR, VARIANTS, arch_digest
from tests.test_processor import DIRTY, READ_BACK

PROGRAM = """
.text
main:
    li   s1, 3
    li   s2, 0
loop:
    addi s2, s2, 10
    addi s1, s1, -1
    bne  s1, s0, loop
after:
    rmaxu s3, p1
    halt
"""


def make_db():
    db = Debugger(ProcessorConfig(num_pes=8, num_threads=1,
                                  mt_mode=MTMode.SINGLE, word_width=16))
    db.load(PROGRAM)
    return db


class TestBreakpoints:
    def test_break_at_label(self):
        db = make_db()
        db.breakpoint("after")
        result = db.run()
        assert result.paused
        assert db.proc.threads[0].pc == db.resolve("after")
        assert db.scalar(2) == 30       # loop completed

    def test_break_at_loop_hits_each_iteration(self):
        db = make_db()
        db.breakpoint("loop")
        values = []
        for _ in range(3):
            result = db.run()
            assert result.paused
            values.append(db.scalar(2))
        assert values == [0, 10, 20]

    def test_resume_to_completion(self):
        db = make_db()
        db.breakpoint("after")
        db.run()
        db.clear_breakpoint("after")
        result = db.run()
        assert not result.paused
        assert db.finished
        assert db.scalar(2) == 30

    def test_unknown_label(self):
        db = make_db()
        with pytest.raises(DebuggerError):
            db.breakpoint("nowhere")

    def test_pc_out_of_range(self):
        db = make_db()
        with pytest.raises(DebuggerError):
            db.breakpoint(999)

    def test_run_to_one_shot(self):
        db = make_db()
        result = db.run_to("after")
        assert result.paused
        assert db.scalar(1) == 0


class TestReload:
    def test_reload_starts_from_zeroed_state(self):
        """Loading a program again after a run zeroes what the run wrote."""
        db = make_db()
        db.load(DIRTY)
        db.run()
        db.load(READ_BACK)
        db.run()
        assert [db.scalar(r) for r in (1, 2, 3, 4)] == [0, 0, 0, 0]


class TestStepping:
    def test_step_single_instruction(self):
        db = make_db()
        db.step_instructions(1)
        assert db.proc.stats.instructions == 1
        assert db.scalar(1) == 3

    def test_step_many(self):
        db = make_db()
        db.step_instructions(5)          # li li addi addi bne
        assert db.proc.stats.instructions == 5
        assert db.scalar(2) == 10

    def test_step_past_end_finishes(self):
        db = make_db()
        result = db.step_instructions(1000)
        assert not result.paused or db.proc.halted

    def test_bad_step_count(self):
        db = make_db()
        with pytest.raises(DebuggerError):
            db.step_instructions(0)


class TestInspection:
    def test_where_names_source_line(self):
        db = make_db()
        db.run_to("loop")
        assert "addi s2" in db.where()

    def test_threads_view(self):
        db = make_db()
        db.step_instructions(1)
        views = db.threads()
        assert len(views) == 1
        assert views[0].tid == 0
        assert views[0].state == "runnable"
        assert "li" in views[0].next_instruction or \
            "ori" in views[0].next_instruction

    def test_disassemble_around_marks_pc(self):
        db = make_db()
        db.run_to("after")
        listing = db.disassemble_around()
        assert "->" in listing
        assert "rmaxu" in listing

    def test_memory_and_pe_inspection(self):
        db = make_db()
        db.proc.pe.set_lmem_column(0, range(8))
        db.run()
        assert len(db.pe_reg(1)) == 8
        assert db.memory(0, 2) == [0, 0]

    def test_no_program(self):
        db = Debugger(ProcessorConfig(num_pes=4, num_threads=1,
                                      mt_mode=MTMode.SINGLE))
        with pytest.raises(DebuggerError):
            db.run()


class TestMultithreadedDebugging:
    def test_breakpoint_in_worker(self):
        db = Debugger(ProcessorConfig(num_pes=8, num_threads=4,
                                      word_width=16))
        db.load("""
.text
main:
    tspawn s1, worker
    tjoin  s1
    halt
worker:
    li s2, 7
work:
    addi s2, s2, 1
    texit
""")
        db.breakpoint("work")
        result = db.run()
        assert result.paused
        assert db.scalar(2, thread=1) == 7
        final = db.run()
        assert not final.paused

    @pytest.mark.parametrize("variant", ["fine-rot", "coarse-rot", "smt2"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_stepping_matches_uninterrupted_run(self, k, variant):
        """Each context's cached ready time survives a pause: stepping
        k instructions at a time to the end gives the same Stats and
        final state as one uninterrupted run."""
        cfg = ProcessorConfig(num_pes=16, num_threads=4, **VARIANTS[variant])
        program = assemble((ASM_DIR / "spawn_pipeline.s").read_text(),
                           word_width=cfg.word_width)
        whole = Processor(cfg).run(program)
        db = Debugger(cfg)
        db.load(program)
        pauses = 0
        while not db.finished:
            if db.step_instructions(k).paused:
                pauses += 1
        assert pauses >= 1
        assert db.proc.stats == whole.stats
        assert arch_digest(db.proc) == arch_digest(whole.processor)
