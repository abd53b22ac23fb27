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
  per *block* (memoized on pipeline state), not per instruction.

* **Spawning programs** run on the cycle core itself
  (:class:`repro.core.processor.Processor`), whose issue loop caches
  each context's ready time and recomputes it only on the events that
  can move it.  There is one issue loop to keep exact, and it is exact
  even for racy programs.

Unsupported in this backend: ``model_fetch`` machines, pipeline traces,
the race sanitizer, the cycle profiler, and fault injection.  Callers
get :class:`FastPathError` for the former and should route the latter to
the cycle backend, which runs them at the same speed as this backend
runs spawning programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.timing import TimingAnalysis
from repro.asm.program import Program
from repro.assoc.functional import FunctionalMachine
from repro.core.config import ProcessorConfig
from repro.core.execute import (
    _BRANCHES,
    _SCALAR_INT,
    Executor,
    make_scalar_int_ops,
)
from repro.core.processor import Processor, SimulationError
from repro.core.stats import Stats
from repro.core.thread import ThreadContext, ThreadState, ThreadStatusTable

__all__ = [
    "FastMachine",
    "FastPathError",
    "FastRunResult",
    "run_fast",
]


class FastPathError(SimulationError):
    """The fast backend cannot honour this configuration or feature."""


@dataclass
class FastRunResult:
    """Outcome of one fast-path run; duck-types the core's RunResult."""

    stats: Stats
    machine: "FastMachine"
    trace: list[object] = field(default_factory=list)
    paused: bool = False

    @property
    def processor(self) -> "FastMachine":
        """RunResult-compatible alias (snapshots read ``.processor``)."""
        return self.machine

    def scalar(self, reg: int, thread: int = 0) -> int:
        return int(self.machine.threads[thread].read_sreg(reg))

    def pe_reg(self, reg: int, thread: int = 0) -> np.ndarray:
        return self.machine.pe.read_reg(thread, reg).copy()

    def pe_flag(self, flag: int, thread: int = 0) -> np.ndarray:
        return self.machine.pe.read_flag(thread, flag).copy()

    def memory(self, base: int, count: int) -> list[int]:
        return list(self.machine.mem.dump(base, count))

    @property
    def cycles(self) -> int:
        return self.stats.cycles


# -- scalar micro-op compiler -------------------------------------------------
#
# The functional Executor pays a Python dispatch (mnemonic lookup, spec
# attribute reads, an ExecResult allocation) on every instruction.  For
# the scalar ALU/branch subset — the bulk of dynamic instructions in
# control- and address-arithmetic-heavy code — that outcome is statically
# known, so each pc compiles once into a closure over the *same* integer
# op tables the Executor dispatches through: arithmetic is identical by
# construction, only the dispatch disappears.

PlainOp = Callable[[ThreadContext], None]
PlainRun = tuple[PlainOp, ...]
BranchOp = Callable[[ThreadContext], bool]

# Longest chain of plain ops dispatched as one run (keeps compiling
# linear in the program size).
_MAX_RUN = 32


def _compile_fastops(
    program: Program, executor: Executor,
) -> tuple[list[PlainRun | None], list[BranchOp | None]]:
    """Per-pc closures for the scalar hot path.

    ``plain[pc]`` replaces ``Executor.execute`` for the run of scalar
    ALU / ``lui`` instructions starting at ``pc`` (control outcome
    statically the next pc), one closure per instruction;
    ``branch[pc]`` evaluates a branch condition.  Every other pc gets
    ``None`` and falls back to the Executor.
    """
    int_ops = make_scalar_int_ops(executor.width)
    mask = executor.word_mask
    width = executor.width
    n = len(program.instructions)
    plain: list[PlainOp | None] = [None] * n
    branch: list[BranchOp | None] = [None] * n
    for pc, instr in enumerate(program.instructions):
        m = instr.mnemonic
        pair = _SCALAR_INT.get(m)
        if pair is not None:
            op = int_ops[pair[0]]
            if pair[1] == "rt":
                def f_rr(t: ThreadContext, rd: int = instr.rd,
                         rs: int = instr.rs, rt: int = instr.rt,
                         op: Callable[[int, int], int] = op,
                         mask: int = mask) -> None:
                    s = t.sregs
                    v = op(s[rs] if rs else 0, s[rt] if rt else 0)
                    if rd:
                        s[rd] = v & mask
                plain[pc] = f_rr
            else:
                def f_ri(t: ThreadContext, rd: int = instr.rd,
                         rs: int = instr.rs, imm: int = instr.imm,
                         op: Callable[[int, int], int] = op,
                         mask: int = mask) -> None:
                    s = t.sregs
                    v = op(s[rs] if rs else 0, imm)
                    if rd:
                        s[rd] = v & mask
                plain[pc] = f_ri
        elif m == "lui":
            def f_lui(t: ThreadContext, rd: int = instr.rd,
                      val: int = (instr.imm << 16) & mask) -> None:
                if rd:
                    t.sregs[rd] = val
            plain[pc] = f_lui
        elif m in _BRANCHES:
            def f_br(t: ThreadContext, rd: int = instr.rd,
                     rs: int = instr.rs,
                     cmp: Callable[[int, int, int], bool] = _BRANCHES[m],
                     w: int = width) -> bool:
                s = t.sregs
                return cmp(s[rd] if rd else 0, s[rs] if rs else 0, w)
            branch[pc] = f_br
    runs: list[PlainRun | None] = [None] * (n + 1)
    for pc in range(n - 1, -1, -1):
        f = plain[pc]
        if f is not None:
            rest = runs[pc + 1]
            runs[pc] = (f,) + rest[:_MAX_RUN - 1] if rest else (f,)
    return runs[:n], branch


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
        self._plain: list[PlainRun | None] = []
        self._branch: list[BranchOp | None] = []
        self._ops_program: Program | None = None

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
    def executor(self) -> Executor:
        return self._machine.executor

    @property
    def program(self) -> Program | None:
        return self._machine.program

    @property
    def halted(self) -> bool:
        return self._machine.halted

    def load(self, program: Program) -> None:
        if any(ins.mnemonic == "tspawn" for ins in program.instructions):
            if self._core is None:
                self._core = Processor(self.cfg)
            self._machine = self._core
        else:
            self._machine = self._fm
        self._machine.load(program)

    def _timing(self, program: Program) -> TimingAnalysis:
        if self._analysis is None or self._analysis_program is not program:
            self._analysis = TimingAnalysis(program, self.cfg)
            self._analysis_program = program
        return self._analysis

    def _ops(self, program: Program,
             ) -> tuple[list[PlainRun | None], list[BranchOp | None]]:
        if self._ops_program is not program:
            self._plain, self._branch = _compile_fastops(
                program, self._fm.executor)
            self._ops_program = program
        return self._plain, self._branch

    def run(self, program: Program | None = None,
            max_cycles: int | None = None) -> FastRunResult:
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
        return FastRunResult(stats, self)

    def _run_folded(self, prog: Program, limit: int) -> Stats:
        """Spawn-free path: functional run + compositional timing fold."""
        events = self._trace_single(prog, limit)
        return self._timing(prog).fold(events, max_cycles=limit)

    def _trace_single(self, prog: Program, limit: int) -> list[int]:
        """Single-thread functional execution, recording fold events.

        A spawn-free program has exactly one live thread forever, so
        the round-robin scheduler collapses to straight interpretation —
        compiled scalar micro-ops where available, the Executor for
        everything else.  Returns the main thread's event stream in the
        format :meth:`TimingAnalysis.fold` reads; a truncated stream
        (watchdog) is fine because the fold re-raises the core's timeout
        exactly.
        """
        fm = self._fm
        thread = fm.threads[0]
        instructions = prog.instructions
        plain, branch = self._ops(prog)
        executor = fm.executor
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
            run = plain[pc]
            if run is not None:
                for f in run:
                    f(thread)
                pc += len(run)
                steps += len(run)
                continue
            g = branch[pc]
            if g is not None:
                if g(thread):
                    append(1)
                    pc += 1 + instructions[pc].imm
                else:
                    append(0)
                    pc += 1
                steps += 1
                continue
            thread.pc = pc
            instr = instructions[pc]
            m = instr.mnemonic
            if m == "tjoin":
                target = fm.threads[
                    thread.read_sreg(instr.rs) % num_threads]
                if target.state is not ThreadState.FREE:
                    # The only live thread is joining a live handle:
                    # the core reports deadlock the next round.
                    raise SimulationError(
                        f"deadlock: threads [{thread.tid}] blocked in "
                        f"tjoin with no runnable thread")
                outcome = executor.execute(instr, thread, steps)
                append(target.tid)
            elif m == "tput":
                outcome = executor.execute(instr, thread, steps)
                append(thread.read_sreg(instr.rd) % num_threads)
            elif m == "jr":
                outcome = executor.execute(instr, thread, steps)
                append(outcome.next_pc)
            else:
                outcome = executor.execute(instr, thread, steps)
            pc = outcome.next_pc
            steps += 1
            if outcome.halt:
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
             **asm_kwargs: object) -> FastRunResult:
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
