"""Programmatic debugger for the cycle-accurate simulator.

Downstream tooling for working on KASC-MT programs: breakpoints on
instruction addresses, cycle/instruction stepping, and state inspection,
built on :meth:`Processor.run`'s clean pause mechanism::

    db = Debugger(cfg)
    db.load(source)
    db.breakpoint("loop")          # label or raw pc
    db.run()                       # stops when any thread reaches 'loop'
    print(db.where(), db.scalar(1))
    db.step_instructions(3)
    print(db.pe_reg(1))

Pauses are *pre-issue*: the run stops just before the cycle in which a
thread whose next instruction sits at a breakpoint would be scheduled,
so inspected state reflects everything architecturally older than the
breakpoint instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.assembler import assemble
from repro.asm.disassembler import format_instruction
from repro.core.archstate import LiveState
from repro.core.config import ProcessorConfig
from repro.core.processor import Processor, RunResult
from repro.core.thread import ThreadState


class DebuggerError(RuntimeError):
    """Misuse of the debugger (no program, unknown label, ...)."""


@dataclass
class ThreadView:
    """Inspection snapshot of one live thread."""

    tid: int
    pc: int
    state: str
    next_instruction: str


class Debugger(LiveState):
    """Breakpoint/stepping wrapper around a :class:`Processor`.

    ``scalar`` / ``pe_reg`` / ``pe_flag`` / ``memory`` read the paused or
    finished machine (:class:`~repro.core.archstate.ArchState`).
    """

    def __init__(self, config: ProcessorConfig | None = None) -> None:
        self.proc = Processor(config, trace=True)
        self.breakpoints: set[int] = set()
        self._finished: RunResult | None = None

    # -- program management ------------------------------------------------------

    def load(self, source_or_program) -> None:
        """Load a program (assembly text or an assembled Program)."""
        if isinstance(source_or_program, str):
            program = assemble(source_or_program,
                               word_width=self.proc.cfg.word_width)
        else:
            program = source_or_program
        self.proc.load(program)
        self._finished = None

    def _require_program(self):
        if self.proc.program is None:
            raise DebuggerError("no program loaded")
        return self.proc.program

    def resolve(self, target: int | str) -> int:
        """Resolve a label or raw address to a pc."""
        program = self._require_program()
        if isinstance(target, str):
            if target not in program.symbols:
                raise DebuggerError(f"unknown label {target!r}")
            return program.symbols[target]
        if not 0 <= target < len(program.instructions):
            raise DebuggerError(f"pc {target} outside the program")
        return target

    # -- breakpoints ---------------------------------------------------------------

    def breakpoint(self, target: int | str) -> int:
        """Set a breakpoint; returns the resolved pc."""
        pc = self.resolve(target)
        self.breakpoints.add(pc)
        return pc

    def clear_breakpoint(self, target: int | str) -> None:
        self.breakpoints.discard(self.resolve(target))

    # -- execution -------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished is not None and not self._finished.paused

    def run(self, max_cycles: int | None = None) -> RunResult:
        """Run until a breakpoint, halt, or thread exhaustion.

        Threads already parked on a breakpoint when the run starts are
        allowed to move off it before that breakpoint re-arms for them
        (otherwise resuming from a pause could never make progress).
        """
        self._require_program()
        parked = {t.tid: t.pc
                  for t in self.proc.threads.runnable_threads()
                  if t.pc in self.breakpoints}

        def stop_when(proc, cycle):
            hit = False
            for ctx in proc.threads.runnable_threads():
                if parked.get(ctx.tid) is not None \
                        and ctx.pc != parked[ctx.tid]:
                    del parked[ctx.tid]       # moved off: re-arm
                if ctx.pc in self.breakpoints \
                        and parked.get(ctx.tid) != ctx.pc:
                    hit = True
            return hit

        result = self.proc.run(max_cycles=max_cycles,
                               stop_when=stop_when if self.breakpoints
                               else None)
        self._finished = result
        return result

    def step_instructions(self, count: int = 1) -> RunResult:
        """Advance until ``count`` more instructions have issued."""
        if count < 1:
            raise DebuggerError("step count must be >= 1")
        target = self.proc.stats.instructions + count

        def stop_when(proc, cycle):
            return proc.stats.instructions >= target

        result = self.proc.run(stop_when=stop_when)
        self._finished = result
        return result

    def run_to(self, target: int | str,
               max_cycles: int | None = None) -> RunResult:
        """One-shot breakpoint: run until a thread reaches ``target``."""
        pc = self.resolve(target)

        def stop_when(proc, cycle):
            return any(t.pc == pc
                       for t in proc.threads.runnable_threads())

        result = self.proc.run(max_cycles=max_cycles, stop_when=stop_when)
        self._finished = result
        return result

    # -- inspection -------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self.proc._cycle

    @property
    def processor(self) -> Processor:
        return self.proc

    def threads(self) -> list[ThreadView]:
        """Views of every live thread."""
        program = self._require_program()
        views = []
        for ctx in self.proc.threads.live_threads():
            if 0 <= ctx.pc < len(program.instructions):
                text = format_instruction(program.instructions[ctx.pc])
            else:
                text = "<pc out of range>"
            views.append(ThreadView(ctx.tid, ctx.pc, ctx.state.value, text))
        return views

    def where(self, thread: int = 0) -> str:
        """Source location of a thread's next instruction."""
        program = self._require_program()
        ctx = self.proc.threads[thread]
        if ctx.state is ThreadState.FREE:
            return f"thread {thread}: exited"
        return program.location_of(ctx.pc)

    def disassemble_around(self, thread: int = 0, context: int = 2) -> str:
        """Listing around a thread's pc, with a marker."""
        program = self._require_program()
        pc = self.proc.threads[thread].pc
        lines = []
        lo = max(0, pc - context)
        hi = min(len(program.instructions), pc + context + 1)
        for addr in range(lo, hi):
            marker = "->" if addr == pc else "  "
            text = format_instruction(program.instructions[addr])
            lines.append(f"{marker} {addr:4d}: {text}")
        return "\n".join(lines)
