"""The fast-path execution backend: the cycle core that folds.

``repro run --backend fast`` (and the serve tier's ``"backend": "fast"``
job flag) gives the cycle core's result, **bit-identical** cycle counts
and statistics included, and skips stepping the pipeline where that is
exact.  :class:`FastMachine` *is* the cycle core
(:class:`repro.core.processor.Processor`): one PE array, one memory,
one thread table and one set of compiled ops, which its
:meth:`FastMachine.load` builds as the core's does.  The routing rule is
one test: a machine with a fetch model or a hook attached (pipeline
trace, fault plane, race sanitizer, cycle profiler), and a run with a
``stop_when`` predicate, run on the core's issue loop.  Every other run
folds:

* While thread 0 is the only live thread, a single-thread interpreter
  of the core's own ops and state runs the program and records the
  dynamic control events (branch outcomes, ``jr`` targets,
  ``tput``/``tjoin`` targets).  Each straight-line run of scalar
  register writes in a loop runs as one generated function
  (:func:`repro.core.execute.fuse_scalar_runs`).
* :meth:`repro.analysis.timing.TimingAnalysis.fold` folds the recorded
  block path through the compositional block summaries — timing is
  recovered per *block* (memoized on pipeline state), not per
  instruction — and returns the prefix's counters and pipeline state.
* The interpreter stops *before* an event only the issue loop handles:
  an issuing ``tspawn``, an op the machine lacks, a join of a live
  context (the thread itself) or a pc outside the program.  The machine
  then writes the prefix's timing state into its core and hands off:
  :meth:`Processor.run` issues the event instruction and everything
  after it, and raises its own errors.  A program that halts or exits
  first is folded whole.

The fold's per-(program, machine) artifacts — the analysis with its
CFG, timing table and block summaries, the fused runs and the per-pc
kinds — come from one bounded, process-wide memo keyed on the
:class:`Program` object and the configuration's values, so a job whose
pair was folded before in the process builds none of them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, NamedTuple

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
    K_TSPAWN,
    KINDS,
)

FusedRuns = list[tuple[Callable[[ThreadContext], None], int] | None]

__all__ = [
    "FastMachine",
    "run_fast",
]

#: The (program, machine) pairs whose fold artifacts the process keeps;
#: the least recently used pair is dropped first.
FOLD_MEMO_ENTRIES = 64

# The kind of a pc the single-thread run stops before: a tspawn, or an
# op the machine lacks.
_HAND_OFF = -1


class _Fold(NamedTuple):
    """What folding one program on one machine reads."""

    analysis: TimingAnalysis
    fused: FusedRuns
    kinds: list[int]        # timing.KINDS per pc, or _HAND_OFF


_folds: OrderedDict[tuple[int, tuple[object, ...]], _Fold] = OrderedDict()
_folds_lock = threading.Lock()


def _fold_for(program: Program, cfg: ProcessorConfig) -> _Fold:
    """The memoized fold artifacts of ``program`` on ``cfg``.

    Keyed on the program's identity, which its entry keeps alive (so the
    id names it while the entry lives), and the config's values."""
    key = (id(program), tuple(vars(cfg).values()))
    with _folds_lock:
        fold = _folds.get(key)
        if fold is not None:
            _folds.move_to_end(key)
            return fold
    analysis = TimingAnalysis(program, cfg)
    lacking = set(analysis.model.raising_pcs())
    fused = fuse_scalar_runs(program, cfg.word_width)
    for pc, run in enumerate(fused):
        if run and not lacking.isdisjoint(range(pc, pc + run[1])):
            fused[pc] = None
    kinds = [KINDS[ins.mnemonic] for ins in program.instructions]
    kinds = [_HAND_OFF if kind == K_TSPAWN or pc in lacking else kind
             for pc, kind in enumerate(kinds)]
    with _folds_lock:
        fold = _folds.setdefault(key, _Fold(analysis, fused, kinds))
        while len(_folds) > FOLD_MEMO_ENTRIES:
            _folds.popitem(last=False)
    return fold


class FastMachine(Processor):  # type: ignore[misc]
    """The cycle core that folds single-thread prefixes.  Reusable across
    programs."""

    # The loaded program's fold until its run folds, or None when the
    # run goes to the issue loop.
    _fold: _Fold | None = None

    def load(self, program: Program) -> None:
        fold = None
        # The fold times only a machine with no fetch model and no hook.
        if not (self.cfg.model_fetch or self.trace_enabled
                or self.faults is not None or self.sanitizer is not None
                or self.profiler is not None):
            fold = _fold_for(program, self.cfg)
            self.timing_model = fold.analysis.model
        super().load(program)
        self._fold = fold

    def run(self, program: Program | None = None,
            max_cycles: int | None = None,
            stop_when: Callable[[Any, int], bool] | None = None
            ) -> RunResult:
        if program is not None:
            self.load(program)
        # The first run after a load picks the route; a later run finds
        # the core where this one left it.
        fold, self._fold = self._fold, None
        if fold is None or stop_when is not None:
            return super().run(max_cycles=max_cycles, stop_when=stop_when)
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        events, stop = self._trace_single(fold, limit)
        prefix = fold.analysis.fold(events, max_cycles=limit, stop=stop)
        self.stats = prefix.stats
        self._cycle = prefix.last_issue + 1
        if stop is None:
            return RunResult(prefix.stats, self)
        # Hand the prefix's timing state to the core, which issues the
        # event instruction and everything after it.
        thread = self.threads[0]
        thread.score = prefix.score
        thread.min_issue = prefix.base
        thread.last_issue = prefix.last_issue
        self._unit_busy[:] = prefix.units
        if prefix.last_issue:
            # Every issue so far was a grant to thread 0.
            self.scheduler.grant(thread, prefix.last_issue)
        return super().run(max_cycles=max_cycles)

    def _trace_single(self, fold: _Fold,
                      limit: int) -> tuple[list[int], int | None]:
        """Single-thread execution of the loaded program on the core's
        state, recording fold events.

        While thread 0 is the only live thread the scheduler collapses to
        straight interpretation: fused scalar runs where one starts, the
        compiled op of the pc everywhere else.  Returns the event stream
        in the format :meth:`TimingAnalysis.fold` reads, and the pc the
        run stopped before: a ``tspawn``, an op the machine lacks, a join
        of a live context (the thread itself) or a pc outside the
        program.  The pc is None when the program ended, or when the
        stream is cut at the watchdog: the fold re-raises the core's
        timeout exactly.
        """
        threads = self.threads
        thread = threads[0]
        instructions = self.program.instructions
        ops = self.ops
        fused, kinds = fold.fused, fold.kinds
        events: list[int] = []
        append = events.append
        num_threads = self.cfg.num_threads
        # One issue costs >= 1 cycle, so limit + 2 steps cover every
        # issue the core could attempt before its watchdog fires.
        max_steps = limit + 2
        steps = 0
        stop: int | None = None
        pc = thread.pc
        n = len(instructions)
        while steps <= max_steps:
            if not 0 <= pc < n:
                stop = pc
                break
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
            if kind == _HAND_OFF:
                stop = pc
                break
            if kind == K_TJOIN:
                target = threads[
                    thread.read_sreg(instructions[pc].rs) % num_threads]
                if target.state is not FREE:
                    stop = pc
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
        return events, stop


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
