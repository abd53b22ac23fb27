"""The fast-path execution backend: functional semantics + static timing.

``repro run --backend fast`` (and the serve tier's ``"backend": "fast"``
job flag) executes programs without stepping the cycle-accurate
pipeline wherever it can, while producing **bit-identical** cycle counts
and statistics:

* **Spawn-free programs** run once through a single-thread functional
  interpreter that records the dynamic control events (branch outcomes,
  ``jr`` targets, ``tput``/``tjoin`` targets); the recorded block path
  is then folded through the compositional block summaries of
  :class:`repro.analysis.timing.TimingAnalysis` — timing is recovered
  per *block* (memoized on pipeline state), not per instruction.  The
  interpreter calls the same compiled ops as the cycle core
  (:func:`repro.core.execute.compile_ops`), except that each straight-line
  run of scalar register writes in a loop runs as one generated function
  (:func:`repro.core.execute.fuse_scalar_runs`).

* **Spawning programs** run on the cycle core itself
  (:class:`repro.core.processor.Processor`), whose issue loop caches
  each context's ready time and recomputes it only on the events that
  can move it.  There is one issue loop to keep exact, and it is exact
  even for racy programs.  So does a program holding an op its machine
  lacks (:meth:`repro.core.timing.TimingModel.raising_pcs`): the core
  raises the located error when that op issues, or times out first.

Unsupported in this backend: ``model_fetch`` machines, pipeline traces,
the race sanitizer, the cycle profiler, and fault injection.  Callers
get :class:`FastPathError` for the former and should route the latter to
the cycle backend, which runs them at the same speed as this backend
runs spawning programs.
"""

from __future__ import annotations

from typing import Callable

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

FusedRuns = list[tuple[Callable[[ThreadContext], None], int] | None]

__all__ = [
    "FastMachine",
    "FastPathError",
    "run_fast",
]


class FastPathError(SimulationError):
    """The fast backend cannot honour this configuration or feature."""


class FastMachine:
    """One configured fast-path machine.  Reusable across programs."""

    def __init__(self, config: ProcessorConfig | None = None) -> None:
        self.cfg = config or ProcessorConfig()
        self._fm = FunctionalMachine(self.cfg)
        self._core: Processor | None = None
        # Whichever engine holds the loaded program's state: the
        # functional machine, or the cycle core for spawning programs.
        self._machine: FunctionalMachine | Processor = self._fm
        self._analysis: TimingAnalysis | None = None
        self._analysis_program: Program | None = None
        self._fused: FusedRuns = []

    # Architectural state lives in the engine; the accessors mirror
    # Processor's attributes for snapshot/tooling code.

    @property
    def pe(self):  # type: ignore[no-untyped-def]
        return self._machine.pe

    @property
    def mem(self):  # type: ignore[no-untyped-def]
        return self._machine.mem

    @property
    def threads(self) -> ThreadStatusTable:
        return self._machine.threads

    @property
    def program(self) -> Program | None:
        return self._machine.program

    @property
    def halted(self) -> bool:
        return self._machine.halted

    def load(self, program: Program) -> None:
        spawns = any(ins.mnemonic == "tspawn" for ins in program.instructions)
        if spawns or self._timing(program).model.raising_pcs():
            if self._core is None:
                self._core = Processor(self.cfg)
            self._machine = self._core
        else:
            self._machine = self._fm
            self._fused = fuse_scalar_runs(program, self.cfg.word_width)
        self._machine.load(program)

    def _timing(self, program: Program) -> TimingAnalysis:
        if self._analysis is None or self._analysis_program is not program:
            self._analysis = TimingAnalysis(program, self.cfg)
            self._analysis_program = program
        return self._analysis

    def run(self, program: Program | None = None,
            max_cycles: int | None = None) -> RunResult:
        if program is not None:
            self.load(program)
        prog = self._machine.program
        if prog is None:
            raise SimulationError("no program loaded")
        if self.cfg.model_fetch:
            raise FastPathError(
                "the fast backend does not model the fetch stage; run "
                "model_fetch configurations on the cycle backend")
        if self._machine is self._core:
            stats = self._core.run(max_cycles=max_cycles).stats
        else:
            limit = (max_cycles if max_cycles is not None
                     else self.cfg.max_cycles)
            stats = self._run_folded(prog, limit)
        return RunResult(stats, self)

    def _run_folded(self, prog: Program, limit: int) -> Stats:
        """Spawn-free path: functional run + compositional timing fold."""
        events = self._trace_single(prog, limit)
        return self._timing(prog).fold(events, max_cycles=limit)

    def _trace_single(self, prog: Program, limit: int) -> list[int]:
        """Single-thread functional execution, recording fold events.

        A spawn-free program has exactly one live thread forever, so
        the round-robin scheduler collapses to straight interpretation:
        fused scalar runs where one starts, the compiled op of the pc
        everywhere else.  Returns the main thread's event stream in the
        format :meth:`TimingAnalysis.fold` reads; a truncated stream
        (watchdog) is fine because the fold re-raises the core's timeout
        exactly.
        """
        fm = self._fm
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
