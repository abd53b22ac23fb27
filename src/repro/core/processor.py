"""The Multithreaded ASC Processor: cycle-accurate top level.

Wires together the control unit's components (thread status table,
per-thread scoreboards, scheduler), the PE array, and the
broadcast/reduction network timing model, and runs assembled programs.

Timing discipline (DESIGN.md Section 5): instruction *effects* are applied
at issue, in program order per thread; *cycle* behaviour is enforced by
per-register ready times (forwarding-aware), structural busy windows for
the sequential units, and control-resolution delays.  Because issue is
in-order and the scoreboard blocks issue until every source is
forwardable, reading architectural state at issue yields exactly the
values the real pipeline would forward.

Every timing fact about an instruction comes from the program's per-pc
table (:class:`repro.core.timing.TimingModel`).  Each context caches its
next instruction's readiness and recomputes it only after an event that
can move it: the context issues, a ``tput`` delivers to it, a join wakes
it, it is spawned, or the structural unit it waits for becomes occupied.
With a fetch model (readiness then depends on the cycle) or a fault plane
(a fault can move a PC) attached, every runnable context is recomputed
each round instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.asm.program import Program
from repro.core.config import ProcessorConfig
from repro.core import stats as st
from repro.core.execute import ExecutionError, Executor
from repro.core.fetch import FetchUnit
from repro.core.memory import ScalarMemory
from repro.core.scheduler import ThreadScheduler
from repro.core.stats import Stats
from repro.core.thread import ThreadContext, ThreadState, ThreadStatusTable
from repro.core import timing
from repro.isa.instruction import Instruction
from repro.pe.pe_array import PEArray


class SimulationError(RuntimeError):
    """Deadlock, runaway execution, or an illegal program."""


class SimTimeout(SimulationError):
    """The cycle-limit watchdog fired: the program exceeded ``max_cycles``.

    A typed subclass so callers (the fault-campaign runner, tests) can
    distinguish a hung program from other simulation failures while old
    ``except SimulationError`` code keeps working.
    """


@dataclass
class IssueRecord:
    """One issued instruction, for pipeline traces and debugging."""

    cycle: int
    thread: int
    pc: int
    instr: Instruction
    fetch_cycle: int      # when the instruction could first have issued - 1


@dataclass
class RunResult:
    """Outcome of one program run."""

    stats: Stats
    processor: "Processor"
    trace: list[IssueRecord] = field(default_factory=list)
    paused: bool = False

    # Convenience accessors used throughout tests/examples/benchmarks.

    def scalar(self, reg: int, thread: int = 0) -> int:
        return self.processor.threads[thread].read_sreg(reg)

    def pe_reg(self, reg: int, thread: int = 0) -> np.ndarray:
        return self.processor.pe.read_reg(thread, reg).copy()

    def pe_flag(self, flag: int, thread: int = 0) -> np.ndarray:
        return self.processor.pe.read_flag(thread, flag).copy()

    def memory(self, base: int, count: int) -> list[int]:
        return self.processor.mem.dump(base, count)

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class Processor:
    """One configured machine instance.  Reusable across programs."""

    def __init__(self, config: ProcessorConfig | None = None,
                 trace: bool = False, faults=None, sanitizer=None,
                 profiler=None) -> None:
        self.cfg = config or ProcessorConfig()
        cfg = self.cfg
        # Optional fault-injection plane (repro.faults.FaultPlane), race
        # sanitizer (repro.core.sanitizer.RaceSanitizer), and cycle
        # profiler (repro.obs.CycleProfiler).  All hooks hide behind
        # "is not None" checks: a machine without them pays nothing and
        # its cycle-level behaviour is bit-for-bit unchanged.
        self.faults = faults
        self.sanitizer = sanitizer
        self.profiler = profiler
        self.pe = PEArray(cfg.num_pes, cfg.num_threads, cfg.word_width,
                          cfg.lmem_words)
        self.mem = ScalarMemory(cfg.scalar_mem_words, cfg.word_width)
        self.threads = ThreadStatusTable(cfg.num_threads)
        self.executor = Executor(self.pe, self.mem, self.threads,
                                 cfg.word_width, faults=faults,
                                 sanitizer=sanitizer)
        self.scheduler = ThreadScheduler(cfg)
        self.trace_enabled = trace
        self.program: Program | None = None
        self.stats = Stats()
        self.trace: list[IssueRecord] = []
        self.halted = False
        self.paused = False
        self._cycle = 0
        self.fetch: FetchUnit | None = None
        # The loaded program's per-pc timing table, and the busy-until
        # cycle of each structural unit (indexed by timing.UNIT_*).
        self.timing_model: timing.TimingModel | None = None
        self._unit_busy = [0] * len(timing.UNIT_NAMES)

    # -- program loading --------------------------------------------------------

    def load(self, program: Program) -> None:
        """Load a program and reset all machine state."""
        self.program = program
        model = self.timing_model
        if model is None or model.program is not program:
            self.timing_model = timing.TimingModel(program, self.cfg)
        self.reset()

    def reset(self) -> None:
        """Reset architectural and microarchitectural state."""
        self.pe.reset()
        self.mem.reset()
        if self.program is not None:
            self.mem.load_image(self.program.data)
        self.threads = ThreadStatusTable(self.cfg.num_threads)
        self.executor = Executor(self.pe, self.mem, self.threads,
                                 self.cfg.word_width, faults=self.faults,
                                 sanitizer=self.sanitizer)
        self.scheduler.reset()
        self._unit_busy = [0] * len(timing.UNIT_NAMES)
        self.stats = Stats()
        self.trace = []
        self.halted = False
        self.paused = False
        self._cycle = 1   # first instruction is fetched at 0, issues at 1
        self.fetch = (FetchUnit(self.cfg.num_threads,
                                self.cfg.effective_fetch_width,
                                self.cfg.fetch_buffer_depth)
                      if self.cfg.model_fetch else None)
        if self.program is not None:
            tid = self.threads.allocate(self.program.entry, start_cycle=1)
            assert tid == 0
            if self.fetch is not None:
                self.fetch.thread_started(tid, 0)
        if self.faults is not None:
            self.faults.attach(self)
        if self.sanitizer is not None:
            self.sanitizer.attach(self)
        if self.profiler is not None:
            self.profiler.attach(self)
            if self.program is not None:
                self.profiler.on_activate(0, 1)

    # -- hazard / readiness evaluation ------------------------------------------

    def _ready_cycle(self, thread: ThreadContext,
                     cycle: int) -> tuple[int, str | None, int, int]:
        """(earliest issue cycle, binding wait cause, base cycle,
        structural unit the answer depends on or -1) for the thread's
        next instruction."""
        assert self.program is not None and self.timing_model is not None
        pc = thread.pc
        if not 0 <= pc < len(self.program.instructions):
            raise SimulationError(
                f"thread {thread.tid}: PC {pc} outside the program "
                f"(0..{len(self.program.instructions) - 1})")
        model = self.timing_model
        it = model.table[pc] or model.entry(pc)
        base = thread.min_issue
        if thread.last_issue >= base:
            base = thread.last_issue + 1
        if self.fetch is not None:
            base = max(base, self.fetch.earliest_issue(thread.tid, cycle))
        ready, cause, _ = timing.ready_cycle(it, thread.score, base,
                                             self._unit_busy)
        return ready, cause, base, it.unit

    # -- issue -------------------------------------------------------------------

    def _issue(self, thread: ThreadContext, cycle: int, base: int,
               cause: str | None) -> bool:
        """Issue the thread's next instruction; returns False if the
        instruction turned out to block (tjoin on a live thread)."""
        assert self.program is not None and self.timing_model is not None
        pc = thread.pc
        instr = self.program.instructions[pc]
        model = self.timing_model
        it = model.table[pc] or model.entry(pc)
        cfg = self.cfg
        stats = self.stats

        # tjoin gates at issue: the joining thread sleeps until the target
        # context is released, then the join completes as a plain issue.
        if it.kind == timing.K_TJOIN:
            target = self.threads[
                thread.read_sreg(instr.rs) % cfg.num_threads]
            if target.state is not ThreadState.FREE:
                thread.state = ThreadState.JOINING
                thread.join_target = target.tid
                if self.profiler is not None:
                    self.profiler.on_join_block(thread.tid, cycle, base,
                                                cause)
                return False

        if it.raises is not None:
            raise SimulationError(it.raises)

        if cause is not None and cycle > base:
            stats.wait_cycles[cause] += cycle - base

        if self.sanitizer is not None:
            # Past the tjoin gate: the instruction definitely issues
            # this cycle, so register-consumption and join edges are
            # recorded exactly once.
            self.sanitizer.on_issue(thread, instr, cfg.num_threads)

        try:
            outcome = self.executor.execute(instr, thread, cycle)
        except ExecutionError as exc:
            raise SimulationError(
                f"{exc} at {self.program.location_of(pc)}") from exc

        # Structural occupancy: every context whose cached readiness
        # waited on this unit must look again.
        unit = it.unit
        if unit >= 0:
            busy = self._unit_busy[unit]
            if cycle < busy:
                raise RuntimeError(
                    f"{timing.UNIT_NAMES[unit]} issued at {cycle} while "
                    f"busy until {busy}")
            self._unit_busy[unit] = cycle + it.occupancy
            for ctx in self.threads:
                if ctx.ready is not None and ctx.ready[3] == unit:
                    ctx.ready = None

        # Scoreboard updates for the destination register.
        if it.dest >= 0:
            thread.score[it.dest] = (cycle + it.roff, cycle + it.wb,
                                     it.klass)
        if it.kind == timing.K_TPUT:
            target = self.threads[
                thread.read_sreg(instr.rd) % cfg.num_threads]
            target.score[instr.imm] = (cycle + 2, cycle + 3, it.klass)
            target.ready = None

        # Control flow and thread state.
        resolve = (it.resolve_taken if outcome.taken
                   else it.resolve_not_taken)
        thread.min_issue = cycle + resolve
        if resolve > 1:
            stats.wait_cycles[st.STALL_CONTROL] += resolve - 1
        if self.fetch is not None:
            self.fetch.consume(thread.tid)
            if resolve > 1:
                # Squash wrong-path/sequential entries; the refetch delay
                # is covered by min_issue (the control bubble).
                self.fetch.redirect(thread.tid, cycle + resolve - 1)
        thread.pc = outcome.next_pc
        thread.last_issue = cycle
        thread.instructions_issued += 1
        thread.ready = None

        if outcome.halt:
            self.halted = True
        if thread.state is ThreadState.EXITED:
            if self.sanitizer is not None:
                self.sanitizer.on_exit(thread.tid)
            self.threads.release(thread.tid)
            self._wake_joiners(thread.tid, cycle)
        if outcome.spawned is not None:
            if self.sanitizer is not None:
                self.sanitizer.on_spawn(thread.tid, outcome.spawned, pc)
            stats.threads_spawned += 1
            if self.fetch is not None:
                self.fetch.thread_started(outcome.spawned, cycle)
            if self.profiler is not None:
                self.profiler.on_activate(outcome.spawned, cycle + 1)

        # Statistics and trace.
        stats.count_issue(thread.tid, it.eclass)
        if self.profiler is not None:
            self.profiler.on_issue(thread.tid, it.mnemonic, it.eclass,
                                   cycle, base, cause, resolve)
        if it.runit is not None:
            stats.reduction_unit_uses[it.runit] += 1
        if self.trace_enabled:
            self.trace.append(IssueRecord(cycle, thread.tid, pc, instr,
                                          fetch_cycle=base - 1))
        return True

    def _wake_joiners(self, exited_tid: int, cycle: int) -> None:
        for ctx in self.threads:
            if (ctx.state is ThreadState.JOINING
                    and ctx.join_target == exited_tid):
                ctx.state = ThreadState.RUNNABLE
                ctx.join_target = None
                ctx.min_issue = max(ctx.min_issue, cycle + 1)
                ctx.ready = None
                self.stats.wait_cycles[st.STALL_JOIN] += 1
                if self.profiler is not None:
                    self.profiler.on_join_wake(ctx.tid, cycle)

    # -- main loop ------------------------------------------------------------------

    def run(self, program: Program | None = None,
            max_cycles: int | None = None,
            stop_when=None) -> RunResult:
        """Run to completion (halt or all threads exited).

        ``stop_when(processor, cycle)`` — evaluated once per scheduling
        round — pauses the run cleanly when it returns True; the
        returned result has ``paused=True`` and a later ``run()`` call
        resumes from the same cycle.  Used by
        :class:`repro.core.debugger.Debugger`.
        """
        if program is not None:
            self.load(program)
        if self.program is None:
            raise SimulationError("no program loaded")
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        width = self.cfg.issue_width
        cycle = self._cycle
        self.paused = False

        faults = self.faults
        # Readiness that can move without an issue event is recomputed
        # every round (see the module docstring).
        recompute = faults is not None or self.fetch is not None
        runnable = ThreadState.RUNNABLE
        while not self.halted:
            if stop_when is not None and stop_when(self, cycle):
                self.paused = True
                break
            live = self.threads.live_threads()
            if not live:
                break
            if cycle > limit:
                raise SimTimeout(
                    f"exceeded max_cycles={limit}; "
                    f"live threads at {[t.pc for t in live]}")
            if faults is not None:
                faults.begin_cycle(cycle)

            if self.fetch is not None:
                self.fetch.advance_to(
                    cycle, [t.tid for t in live
                            if t.state is ThreadState.RUNNABLE])

            ready_of: dict[int, int] = {}
            candidates: list[ThreadContext] = []
            next_ready = None
            for thread in live:
                if thread.state is not runnable:
                    continue
                info = thread.ready
                if info is None or recompute:
                    info = thread.ready = self._ready_cycle(thread, cycle)
                rc = info[0]
                ready_of[thread.tid] = rc
                if rc <= cycle:
                    candidates.append(thread)
                elif next_ready is None or rc < next_ready:
                    next_ready = rc

            if not candidates:
                if next_ready is None:
                    joining = [t.tid for t in live
                               if t.state is ThreadState.JOINING]
                    raise SimulationError(
                        f"deadlock: threads {joining} blocked in tjoin "
                        f"with no runnable thread")
                skip_to = max(next_ready,
                              self.scheduler.switch_until, cycle + 1)
                self.stats.idle_slots += (skip_to - cycle) * width
                cycle = skip_to
                continue

            chosen = self.scheduler.select(candidates, cycle, ready_of,
                                           self.program)
            # Issue uses the readiness known at the round's start, even
            # when an earlier issue this round (SMT-2) invalidates it.
            issued = 0
            for thread, info in [(t, t.ready) for t in chosen]:
                if self._issue(thread, cycle, info[2], info[1]):
                    issued += 1
                if self.halted:
                    break
            self.stats.idle_slots += width - issued
            cycle += 1

        self._cycle = cycle
        self.stats.cycles = cycle - 1
        self.stats.issue_slots = self.stats.cycles * width
        if self.profiler is not None and not self.paused:
            self.profiler.finalize(self)
        return RunResult(self.stats, self, self.trace, paused=self.paused)


def run_program(source_or_program, config: ProcessorConfig | None = None,
                trace: bool = False, profiler=None,
                **asm_kwargs) -> RunResult:
    """Assemble (if needed) and run a program on a fresh processor."""
    from repro.asm.assembler import assemble

    cfg = config or ProcessorConfig()
    if isinstance(source_or_program, str):
        program = assemble(source_or_program, word_width=cfg.word_width,
                           **asm_kwargs)
    else:
        program = source_or_program
    proc = Processor(cfg, trace=trace, profiler=profiler)
    return proc.run(program)
