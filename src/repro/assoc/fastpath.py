"""The fast-path execution backend: functional semantics + static timing.

``repro run --backend fast`` (and the serve tier's ``"backend": "fast"``
job flag) gives the cycle core's result, **bit-identical** cycle counts
and statistics included, and skips stepping the pipeline where that is
exact.  :meth:`FastMachine.load` holds the whole routing rule:

* **Spawn-free programs** on a machine with no fetch model and no hook
  attached run once through a single-thread functional interpreter that
  records the dynamic control events (branch outcomes, ``jr`` targets,
  ``tput``/``tjoin`` targets); the recorded block path is then folded
  through the compositional block summaries of
  :class:`repro.analysis.timing.TimingAnalysis` — timing is recovered
  per *block* (memoized on pipeline state), not per instruction.  The
  interpreter calls the same compiled ops as the cycle core
  (:func:`repro.core.execute.compile_ops`), except that each straight-line
  run of scalar register writes in a loop runs as one generated function
  (:func:`repro.core.execute.fuse_scalar_runs`).

* **Everything else** runs on the machine's own cycle core
  (:class:`repro.core.processor.Processor`): spawning programs, programs
  holding an op the machine lacks
  (:meth:`repro.core.timing.TimingModel.raising_pcs`; the core raises
  the located error when that op issues, or times out first),
  fetch-modelling machines, and machines with a pipeline trace, fault
  plane, race sanitizer or cycle profiler attached.  There is one issue
  loop to keep exact, and it is exact even for racy programs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.analysis.timing import TimingAnalysis
from repro.asm.program import Program
from repro.assoc.functional import FunctionalMachine
from repro.core.config import ProcessorConfig
from repro.core.execute import fuse_scalar_runs
from repro.core.processor import Processor, RunResult, SimulationError
from repro.core.stats import Stats
from repro.core.thread import ThreadContext, ThreadState, ThreadStatusTable
from repro.core.timing import (
    K_BRANCH,
    K_HALT,
    K_JR,
    K_PLAIN,
    K_TJOIN,
    K_TPUT,
)

if TYPE_CHECKING:
    from repro.core.sanitizer import RaceSanitizer
    from repro.faults.plane import FaultPlane
    from repro.obs.profiler import CycleProfiler

FusedRuns = list[tuple[Callable[[ThreadContext], None], int] | None]

__all__ = [
    "FastMachine",
    "run_fast",
]


class FastMachine:
    """One configured fast-path machine.  Reusable across programs."""

    def __init__(self, config: ProcessorConfig | None = None,
                 trace: bool = False, faults: FaultPlane | None = None,
                 sanitizer: RaceSanitizer | None = None,
                 profiler: CycleProfiler | None = None) -> None:
        self.cfg = config or ProcessorConfig()
        self._hooks = dict(trace=trace, faults=faults, sanitizer=sanitizer,
                           profiler=profiler)
        # The fold times only a machine with no fetch model and no hook.
        self._folds = not (self.cfg.model_fetch or trace or any(
            hook is not None for hook in (faults, sanitizer, profiler)))
        # Each engine is built by the first load that picks it.
        self._fm: FunctionalMachine | None = None
        self._core: Processor | None = None
        # Whichever engine holds the loaded program's state: the
        # functional machine, or the cycle core (see load).
        self._machine: FunctionalMachine | Processor | None = None
        self._analysis: TimingAnalysis | None = None
        self._analysis_program: Program | None = None
        self._fused: FusedRuns = []

    # Architectural state lives in the engine; the accessors mirror
    # Processor's attributes for snapshot/tooling code.

    @property
    def pe(self):  # type: ignore[no-untyped-def]
        return self._engine().pe

    @property
    def mem(self):  # type: ignore[no-untyped-def]
        return self._engine().mem

    @property
    def threads(self) -> ThreadStatusTable:
        return self._engine().threads

    @property
    def program(self) -> Program | None:
        return None if self._machine is None else self._machine.program

    def _engine(self) -> FunctionalMachine | Processor:
        if self._machine is None:
            raise SimulationError("no program loaded")
        return self._machine

    def load(self, program: Program) -> None:
        machine: FunctionalMachine | Processor
        if (self._folds
                and not any(ins.mnemonic == "tspawn"
                            for ins in program.instructions)
                and not self._timing(program).model.raising_pcs()):
            if self._fm is None:
                self._fm = FunctionalMachine(self.cfg)
            machine = self._fm
            self._fused = fuse_scalar_runs(program, self.cfg.word_width)
        else:
            if self._core is None:
                self._core = Processor(self.cfg, **self._hooks)
            machine = self._core
        self._machine = machine
        machine.load(program)

    def _timing(self, program: Program) -> TimingAnalysis:
        if self._analysis is None or self._analysis_program is not program:
            self._analysis = TimingAnalysis(program, self.cfg)
            self._analysis_program = program
        return self._analysis

    def run(self, program: Program | None = None,
            max_cycles: int | None = None) -> RunResult:
        if program is not None:
            self.load(program)
        machine = self._engine()
        if isinstance(machine, Processor):
            return machine.run(max_cycles=max_cycles)
        prog = machine.program
        assert prog is not None
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        return RunResult(self._run_folded(machine, prog, limit), self)

    def _run_folded(self, fm: FunctionalMachine, prog: Program,
                    limit: int) -> Stats:
        """Spawn-free path: functional run + compositional timing fold."""
        events = self._trace_single(fm, prog, limit)
        return self._timing(prog).fold(events, max_cycles=limit)

    def _trace_single(self, fm: FunctionalMachine, prog: Program,
                      limit: int) -> list[int]:
        """Single-thread functional execution, recording fold events.

        A spawn-free program has exactly one live thread forever, so
        the round-robin scheduler collapses to straight interpretation:
        fused scalar runs where one starts, the compiled op of the pc
        everywhere else.  Returns the main thread's event stream in the
        format :meth:`TimingAnalysis.fold` reads; a truncated stream
        (watchdog) is fine because the fold re-raises the core's timeout
        exactly.
        """
        thread = fm.threads[0]
        instructions = prog.instructions
        ops, kinds = fm.ops, fm.kinds
        fused = self._fused
        events: list[int] = []
        append = events.append
        num_threads = self.cfg.num_threads
        # One issue costs >= 1 cycle, so limit + 2 steps cover every
        # issue the core could attempt before its watchdog fires.
        max_steps = limit + 2
        steps = 0
        pc = thread.pc
        n = len(instructions)
        while 0 <= pc < n and steps <= max_steps:
            run = fused[pc]
            if run is not None:
                run[0](thread)
                pc += run[1]
                steps += run[1]
                continue
            kind = kinds[pc]
            steps += 1
            if kind == K_PLAIN:
                ops[pc](thread)
                pc += 1
                continue
            if kind == K_BRANCH:
                next_pc = ops[pc](thread)
                if next_pc is None:
                    append(0)
                    pc += 1
                else:
                    append(1)
                    pc = next_pc
                continue
            if kind == K_TJOIN:
                target = fm.threads[
                    thread.read_sreg(instructions[pc].rs) % num_threads]
                if target.state is not ThreadState.FREE:
                    # The only live thread is joining a live handle:
                    # the core reports deadlock the next round.
                    raise SimulationError(
                        f"deadlock: threads [{thread.tid}] blocked in "
                        f"tjoin with no runnable thread")
                append(target.tid)
            next_pc = ops[pc](thread)
            if kind == K_TPUT:
                append(thread.read_sreg(instructions[pc].rd) % num_threads)
            pc = pc + 1 if next_pc is None else next_pc
            if kind == K_JR:
                append(pc)
            elif kind == K_HALT:
                fm.halted = True
                break
            if thread.state is not ThreadState.RUNNABLE:
                # texit on the main thread: no live threads remain.
                fm.threads.release(thread.tid)
                break
        thread.pc = pc
        return events


def run_fast(source_or_program: str | Program,
             config: ProcessorConfig | None = None,
             max_cycles: int | None = None,
             **asm_kwargs: object) -> RunResult:
    """Assemble (if needed) and run on the fast-path backend."""
    from repro.asm.assembler import assemble

    cfg = config or ProcessorConfig()
    if isinstance(source_or_program, str):
        program = assemble(source_or_program, word_width=cfg.word_width,
                           **asm_kwargs)
    else:
        program = source_or_program
    machine = FastMachine(cfg)
    return machine.run(program, max_cycles=max_cycles)
