"""Functional (untimed) execution backend.

Runs the same programs as the cycle-accurate core — through the *same*
compiled ops (:func:`repro.core.execute.compile_ops`) — but with no
pipeline timing: each step executes one instruction from each live
thread in round-robin order.  Because the cycle-accurate core applies
effects at issue in program order, the two backends must produce
identical architectural results for any data-race-free program; the
integration tests assert exactly that (timing-independence of results).

:class:`FunctionalMachine` is the cycle core
(:class:`repro.core.processor.Processor`) with a round-robin ``run``:
the core's ``load`` builds its state and ops, and its timing table
names the ops a machine lacks.  Also useful on its own as a fast
interpreter when only results matter, and as the base of the
non-pipelined cost model (:mod:`repro.baselines.nonpipelined`).  The
fast backend (:mod:`repro.assoc.fastpath`) does not use it: it is the
cycle core, which folds a single-thread run of its own ops.
"""

from __future__ import annotations

from repro.asm.program import Program
from repro.core.config import ProcessorConfig
from repro.core.execute import Op
from repro.core.processor import Processor, RunResult, SimulationError
from repro.core.stats import Stats
from repro.core.thread import (
    EXITED,
    FREE,
    JOINING,
    RUNNABLE,
    ThreadContext,
)
from repro.core.timing import K_HALT, K_TJOIN, K_TSPAWN, KINDS


class FunctionalError(RuntimeError):
    """Runaway program or deadlock in the functional backend."""


class FunctionalRunaway(FunctionalError):
    """The step-limit watchdog fired (program ran past ``max_steps``)."""


class FunctionalDeadlock(FunctionalError):
    """Every live thread is blocked in ``tjoin`` (the core's message)."""


def _raising_op(message: str) -> Op:
    def op(thread: ThreadContext) -> None:
        raise SimulationError(message)
    return op


class FunctionalMachine(Processor):  # type: ignore[misc]
    """The cycle core's state and ops under an untimed round-robin run."""

    # The loaded program's kind (timing.KINDS) per pc.
    kinds: list[int]

    def load(self, program: Program) -> None:
        super().load(program)
        # An op the machine lacks raises the core's located error.
        model = self.timing_model
        for pc in model.raising_pcs():
            self.ops[pc] = _raising_op(model.entry(pc).raises)
        self.kinds = [KINDS[ins.mnemonic] for ins in program.instructions]

    def run(self, program: Program | None = None,
            max_steps: int = 10_000_000) -> RunResult:
        """Run to completion; ``stats.instructions`` counts the steps."""
        if program is not None:
            self.load(program)
        assert self.program is not None, "no program loaded"
        prog = self.program
        steps = 0
        instructions = prog.instructions
        ops, kinds = self.ops, self.kinds
        threads = self.threads
        while not self.halted:
            if not threads.live:
                break
            progressed = False
            for thread in tuple(threads.live):
                if self.halted:
                    break
                if thread.state is JOINING:
                    assert thread.join_target is not None
                    target = threads[thread.join_target]
                    if target.state is FREE:
                        thread.state = RUNNABLE
                        thread.join_target = None
                    else:
                        continue
                if thread.state is not RUNNABLE:
                    continue
                pc = thread.pc
                kind = kinds[pc]
                if kind == K_TJOIN:
                    target = threads[thread.read_sreg(instructions[pc].rs)
                                     % self.cfg.num_threads]
                    if target.state is not FREE:
                        thread.state = JOINING
                        thread.join_target = target.tid
                        continue
                if kind == K_TSPAWN:
                    ops[pc](thread, steps)
                    thread.pc = pc + 1
                else:
                    next_pc = ops[pc](thread)
                    thread.pc = pc + 1 if next_pc is None else next_pc
                if kind == K_HALT:
                    self.halted = True
                if thread.state is EXITED:
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
                    f"deadlock: threads {blocked} blocked in tjoin with "
                    f"no runnable thread")
        return RunResult(Stats(instructions=steps), self)


def run_functional(source_or_program: str | Program,
                   config: ProcessorConfig | None = None,
                   ) -> RunResult:
    """Assemble (if needed) and run on the functional backend."""
    from repro.asm.assembler import assemble

    cfg = config or ProcessorConfig()
    if isinstance(source_or_program, str):
        program = assemble(source_or_program, word_width=cfg.word_width)
    else:
        program = source_or_program
    machine = FunctionalMachine(cfg)
    return machine.run(program)
