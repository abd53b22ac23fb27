"""The fast-path execution backend: the cycle core that folds.

``repro run --backend fast`` (and the serve tier's ``"backend": "fast"``
job flag) gives the cycle core's result, **bit-identical** cycle counts
and statistics included, and skips stepping the pipeline where that is
exact.  :class:`FastMachine` *is* the cycle core
(:class:`repro.core.processor.Processor`): one PE array, one memory,
one thread table and one set of compiled ops, which its
:meth:`FastMachine.load` builds as the core's does.  That load also
holds the whole routing rule:

* **Spawn-free programs** on a machine with no fetch model and no hook
  attached run once through a single-thread interpreter of the core's
  own ops and state that records the dynamic control events (branch
  outcomes, ``jr`` targets, ``tput``/``tjoin`` targets); the recorded
  block path is then folded through the compositional block summaries of
  :class:`repro.analysis.timing.TimingAnalysis` — timing is recovered
  per *block* (memoized on pipeline state), not per instruction.  Each
  straight-line run of scalar register writes in a loop runs as one
  generated function (:func:`repro.core.execute.fuse_scalar_runs`).

* **Everything else** runs on the core's issue loop: spawning programs,
  programs holding an op the machine lacks
  (:meth:`repro.core.timing.TimingModel.raising_pcs`; the core raises
  the located error when that op issues, or times out first),
  fetch-modelling machines, machines with a pipeline trace, fault plane,
  race sanitizer or cycle profiler attached, and runs with a
  ``stop_when`` predicate.  There is one issue loop to keep exact, and
  it is exact even for racy programs.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.timing import TimingAnalysis
from repro.asm.program import Program
from repro.core.config import ProcessorConfig
from repro.core.execute import fuse_scalar_runs
from repro.core.processor import Processor, RunResult
from repro.core.thread import FREE, RUNNABLE, ThreadContext
from repro.core.timing import (
    K_BRANCH,
    K_HALT,
    K_JR,
    K_PLAIN,
    K_TJOIN,
    K_TPUT,
    KINDS,
)

FusedRuns = list[tuple[Callable[[ThreadContext], None], int] | None]

__all__ = [
    "FastMachine",
    "run_fast",
]


class FastMachine(Processor):  # type: ignore[misc]
    """The cycle core that folds spawn-free runs.  Reusable across
    programs."""

    # The analysis of the last program that folded, kept across loads;
    # the loaded program's until its run folds, or None when the run
    # goes to the issue loop; and the folding program's fused runs and
    # kind (timing.KINDS) per pc.
    _analysis: TimingAnalysis | None = None
    _fold: TimingAnalysis | None = None
    _fused: FusedRuns
    _kinds: list[int]

    def load(self, program: Program) -> None:
        super().load(program)
        self._fold = None
        # The fold times only a machine with no fetch model and no hook.
        if (self.fetch is None and not self.trace_enabled
                and self.faults is None and self.sanitizer is None
                and self.profiler is None
                and not any(ins.mnemonic == "tspawn"
                            for ins in program.instructions)
                and not self.timing_model.raising_pcs()):
            analysis = self._analysis
            if analysis is None or analysis.program is not program:
                analysis = self._analysis = TimingAnalysis(program,
                                                           self.cfg)
            self._fold = analysis
            self._fused = fuse_scalar_runs(program, self.cfg.word_width)
            self._kinds = [KINDS[ins.mnemonic]
                           for ins in program.instructions]

    def run(self, program: Program | None = None,
            max_cycles: int | None = None,
            stop_when: Callable[[Any, int], bool] | None = None
            ) -> RunResult:
        if program is not None:
            self.load(program)
        analysis = self._fold
        if analysis is None or stop_when is not None:
            return super().run(max_cycles=max_cycles, stop_when=stop_when)
        # One fold per load: a later run finds the core finished.
        self._fold = None
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        stats = self.stats = analysis.fold(self._trace_single(limit),
                                           max_cycles=limit)
        self._cycle = stats.cycles + 1
        return RunResult(stats, self)

    def _trace_single(self, limit: int) -> list[int]:
        """Single-thread execution of the loaded program on the core's
        state, recording fold events.

        A spawn-free program has exactly one live thread forever, so
        the scheduler collapses to straight interpretation: fused scalar
        runs where one starts, the compiled op of the pc everywhere
        else.  Returns the main thread's event stream in the format
        :meth:`TimingAnalysis.fold` reads; a truncated stream (watchdog)
        is fine because the fold re-raises the core's timeout exactly.
        """
        threads = self.threads
        thread = threads[0]
        instructions = self.program.instructions
        ops, kinds = self.ops, self._kinds
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
                target = threads[
                    thread.read_sreg(instructions[pc].rs) % num_threads]
                if target.state is not FREE:
                    # The only live thread joins itself: the stream ends
                    # without the join's event, and the fold reports the
                    # deadlock (or the watchdog) as the core does.
                    break
                append(target.tid)
            next_pc = ops[pc](thread)
            if kind == K_TPUT:
                append(thread.read_sreg(instructions[pc].rd) % num_threads)
            pc = pc + 1 if next_pc is None else next_pc
            if kind == K_JR:
                append(pc)
            elif kind == K_HALT:
                self.halted = True
                break
            if thread.state is not RUNNABLE:
                # texit on the main thread: no live threads remain.
                threads.release(thread.tid)
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
