"""Functional (untimed) execution backend.

Runs the same programs as the cycle-accurate core — through the *same*
:class:`repro.core.execute.Executor` — but with no pipeline timing: each
step executes one instruction from each live thread in round-robin
order.  Because the cycle-accurate core applies effects at issue in
program order, the two backends must produce identical architectural
results for any data-race-free program; the integration tests assert
exactly that (timing-independence of results).

Also useful on its own as a fast interpreter when only results matter,
and as the state holder of the fast-path backend
(:mod:`repro.assoc.fastpath`) for spawn-free programs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asm.program import Program
from repro.core.config import ProcessorConfig
from repro.core.execute import Executor
from repro.core.memory import ScalarMemory
from repro.core.thread import ThreadState, ThreadStatusTable
from repro.pe.pe_array import PEArray


class FunctionalError(RuntimeError):
    """Runaway program or deadlock in the functional backend."""


class FunctionalRunaway(FunctionalError):
    """The step-limit watchdog fired (program ran past ``max_steps``)."""


class FunctionalDeadlock(FunctionalError):
    """Every live thread is blocked in ``tjoin``."""


@dataclass
class FunctionalResult:
    """Architectural outcome of a functional run."""

    machine: "FunctionalMachine"
    steps: int

    def scalar(self, reg: int, thread: int = 0) -> int:
        return int(self.machine.threads[thread].read_sreg(reg))

    def pe_reg(self, reg: int, thread: int = 0) -> np.ndarray:
        return self.machine.pe.read_reg(thread, reg).copy()

    def pe_flag(self, flag: int, thread: int = 0) -> np.ndarray:
        return self.machine.pe.read_flag(thread, flag).copy()

    def memory(self, base: int, count: int) -> list[int]:
        return list(self.machine.mem.dump(base, count))


class FunctionalMachine:
    """Untimed interpreter sharing the core's execution semantics."""

    def __init__(self, config: ProcessorConfig | None = None) -> None:
        self.cfg = config or ProcessorConfig()
        cfg = self.cfg
        self.pe = PEArray(cfg.num_pes, cfg.num_threads, cfg.word_width,
                          cfg.lmem_words)
        self.mem = ScalarMemory(cfg.scalar_mem_words, cfg.word_width)
        self.threads = ThreadStatusTable(cfg.num_threads)
        self.executor = Executor(self.pe, self.mem, self.threads,
                                 cfg.word_width)
        self.halted = False
        self.program: Program | None = None

    def load(self, program: Program) -> None:
        self.program = program
        self.pe.reset()
        self.mem.reset()
        self.mem.load_image(program.data)
        self.threads = ThreadStatusTable(self.cfg.num_threads)
        self.executor = Executor(self.pe, self.mem, self.threads,
                                 self.cfg.word_width)
        self.halted = False
        self.threads.allocate(program.entry, start_cycle=0)

    def run(self, program: Program | None = None,
            max_steps: int = 10_000_000) -> FunctionalResult:
        if program is not None:
            self.load(program)
        assert self.program is not None, "no program loaded"
        prog = self.program
        steps = 0
        instructions = prog.instructions
        executor = self.executor
        threads = self.threads
        while not self.halted:
            live = threads.live_threads()
            if not live:
                break
            progressed = False
            for thread in live:
                if self.halted:
                    break
                if thread.state is ThreadState.JOINING:
                    assert thread.join_target is not None
                    target = threads[thread.join_target]
                    if target.state is ThreadState.FREE:
                        thread.state = ThreadState.RUNNABLE
                        thread.join_target = None
                    else:
                        continue
                if thread.state is not ThreadState.RUNNABLE:
                    continue
                instr = instructions[thread.pc]
                if instr.spec.mnemonic == "tjoin":
                    target = threads[
                        thread.read_sreg(instr.rs) % self.cfg.num_threads]
                    if target.state is not ThreadState.FREE:
                        thread.state = ThreadState.JOINING
                        thread.join_target = target.tid
                        continue
                outcome = executor.execute(instr, thread, steps)
                thread.pc = outcome.next_pc
                if outcome.halt:
                    self.halted = True
                if thread.state is ThreadState.EXITED:
                    threads.release(thread.tid)
                progressed = True
                steps += 1
                if steps > max_steps:
                    raise FunctionalRunaway(
                        f"exceeded {max_steps} steps at "
                        f"{prog.location_of(thread.pc)}")
            if not progressed and not self.halted:
                blocked = [t.tid for t in threads.live_threads()]
                raise FunctionalDeadlock(
                    f"deadlock: threads {blocked} all blocked in tjoin")
        return FunctionalResult(self, steps)


def run_functional(source_or_program: str | Program,
                   config: ProcessorConfig | None = None,
                   ) -> FunctionalResult:
    """Assemble (if needed) and run on the functional backend."""
    from repro.asm.assembler import assemble

    cfg = config or ProcessorConfig()
    if isinstance(source_or_program, str):
        program = assemble(source_or_program, word_width=cfg.word_width)
    else:
        program = source_or_program
    machine = FunctionalMachine(cfg)
    return machine.run(program)
