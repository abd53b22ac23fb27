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
next instruction's readiness (with the instruction's timing entry, which
the issue then uses) and recomputes it only after an event that can move
it: the context issues, a ``tput`` delivers to it, a join wakes it, it is
spawned, or the structural unit it waits for becomes occupied.  With a
fetch model (readiness then depends on the cycle) or a fault plane (a
fault can move a PC) attached, every runnable context is recomputed each
round instead.

A scheduling round is one pass over the live threads in tid order, the
same for every discipline, that allocates nothing when one thread
issues.  It evaluates the readiness of every runnable thread, keeps the
earliest cycle one becomes ready (the clock jumps there when none is
ready now), and keeps per issue port the ready thread the priority order
ranks first: the first tid above :attr:`ThreadScheduler.start`, else the
first.  SMT-2 has a scalar and a parallel port, the other disciplines
one.  :meth:`ThreadScheduler.grant` applies the discipline (coarse grain
reads the resident context's cached readiness) and moves the rotation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

from repro.asm.program import Program
from repro.core.archstate import LiveState
from repro.core.config import ProcessorConfig
from repro.core.execute import Op, compile_ops
from repro.core.fetch import FetchUnit
from repro.core.memory import ScalarMemory
from repro.core.scheduler import ThreadScheduler
from repro.core.stats import STALL_CONTROL, STALL_JOIN, Stats
from repro.core.thread import (
    EXITED,
    FREE,
    JOINING,
    RUNNABLE,
    ThreadContext,
    ThreadStatusTable,
)
from repro.core import timing
from repro.core.timing import (
    K_HALT,
    K_TJOIN,
    K_TPUT,
    K_TSPAWN,
    InstrTiming,
)
from repro.isa.instruction import Instruction
from repro.pe.pe_array import PEArray


# A ready cycle no thread ever reaches: the round's "none pending" mark.
_NEVER = sys.maxsize


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
class RunResult(LiveState):
    """Outcome of one program run, on any backend.

    ``processor`` is the machine that ran and holds the final state: the
    cycle core or a subclass of it (the fast backend, which is the core
    that folds, and the functional and non-pipelined machines, which run
    the core's ops untimed).
    """

    stats: Stats
    processor: Any
    trace: list[IssueRecord] = field(default_factory=list)
    paused: bool = False

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
        # The loaded program's compiled ops, one per pc.
        self.ops: list[Op] = []
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
        if self._cycle:
            # The clock is 0 only until the first reset: the thread table,
            # busy list and counters __init__ built are still untouched.
            self.threads = ThreadStatusTable(self.cfg.num_threads)
            self._unit_busy = [0] * len(timing.UNIT_NAMES)
            self.stats = Stats()
        if self.program is not None:
            self.ops = compile_ops(self.program, self.pe, self.mem,
                                   self.threads, self.faults, self.sanitizer)
        self.scheduler.reset()
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
                     cycle: int) -> tuple[int, str | None, int, InstrTiming]:
        """(earliest issue cycle, binding wait cause, base cycle, timing
        entry) for the thread's next instruction."""
        model = self.timing_model
        table = model.table
        pc = thread.pc
        if not 0 <= pc < len(table):
            raise SimulationError(
                f"thread {thread.tid}: PC {pc} outside the program "
                f"(0..{len(table) - 1})")
        it = table[pc] or model.entry(pc)
        base = thread.min_issue
        if thread.last_issue >= base:
            base = thread.last_issue + 1
        if self.fetch is not None:
            base = max(base, self.fetch.earliest_issue(thread.tid, cycle))
        ready, cause, _ = timing.ready_cycle(it, thread.score, base,
                                             self._unit_busy)
        return ready, cause, base, it

    # -- issue -------------------------------------------------------------------

    def _issue(self, thread: ThreadContext, cycle: int,
               info: tuple[int, str | None, int, InstrTiming]) -> int:
        """Issue the thread's next instruction, whose readiness ``info``
        (:meth:`_ready_cycle`) the round read; returns the number of
        instructions issued, 0 if it turned out to block (tjoin on a live
        thread)."""
        _, cause, base, it = info
        pc = thread.pc
        kind = it.kind
        stats = self.stats

        # tjoin gates at issue: the joining thread sleeps until the target
        # context is released, then the join completes as a plain issue.
        if kind == K_TJOIN:
            target = self.threads[
                thread.read_sreg(self.program.instructions[pc].rs)
                % self.cfg.num_threads]
            if target.state is not FREE:
                thread.state = JOINING
                thread.join_target = target.tid
                if self.profiler is not None:
                    self.profiler.on_join_block(thread.tid, cycle, base,
                                                cause)
                return 0

        if it.raises is not None:
            raise SimulationError(it.raises)

        if cause is not None and cycle > base:
            stats.wait_cycles[cause] += cycle - base

        if self.sanitizer is not None:
            # Past the tjoin gate: the instruction definitely issues
            # this cycle, so register-consumption and join edges are
            # recorded exactly once.
            self.sanitizer.on_issue(thread, self.program.instructions[pc],
                                    self.cfg.num_threads)

        spawned = None
        if kind == K_TSPAWN:
            spawned = self.ops[pc](thread, cycle)
            next_pc = None
        else:
            next_pc = self.ops[pc](thread)

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
                if ctx.ready is not None and ctx.ready[3].unit == unit:
                    ctx.ready = None

        # Scoreboard updates for the destination register.
        if it.dest >= 0:
            thread.score[it.dest] = (cycle + it.roff, cycle + it.wb,
                                     it.klass)
        if kind == K_TPUT:
            target = self.threads[
                thread.read_sreg(self.program.instructions[pc].rd)
                % self.cfg.num_threads]
            target.score[it.imm] = (cycle + 2, cycle + 3, it.klass)
            target.ready = None

        # Control flow and thread state.
        if next_pc is None:
            resolve = it.resolve_not_taken
            next_pc = pc + 1
        else:
            resolve = it.resolve_taken
        thread.min_issue = cycle + resolve
        if resolve > 1:
            stats.wait_cycles[STALL_CONTROL] += resolve - 1
        if self.fetch is not None:
            self.fetch.consume(thread.tid)
            if resolve > 1:
                # Squash wrong-path/sequential entries; the refetch delay
                # is covered by min_issue (the control bubble).
                self.fetch.redirect(thread.tid, cycle + resolve - 1)
        thread.pc = next_pc
        thread.last_issue = cycle
        thread.ready = None

        if kind == K_HALT:
            self.halted = True
        if thread.state is EXITED:
            if self.sanitizer is not None:
                self.sanitizer.on_exit(thread.tid)
            self.threads.release(thread.tid)
            self._wake_joiners(thread.tid, cycle)
        if spawned is not None:
            if self.sanitizer is not None:
                self.sanitizer.on_spawn(thread.tid, spawned, pc)
            stats.threads_spawned += 1
            if self.fetch is not None:
                self.fetch.thread_started(spawned, cycle)
            if self.profiler is not None:
                self.profiler.on_activate(spawned, cycle + 1)

        # Statistics and trace.
        stats.count_issue(thread.tid, it.eclass)
        if self.profiler is not None:
            self.profiler.on_issue(thread.tid, it.mnemonic, it.eclass,
                                   cycle, base, cause, resolve)
        if it.runit is not None:
            stats.reduction_unit_uses[it.runit] += 1
        if self.trace_enabled:
            self.trace.append(IssueRecord(cycle, thread.tid, pc,
                                          self.program.instructions[pc],
                                          fetch_cycle=base - 1))
        return 1

    def _wake_joiners(self, exited_tid: int, cycle: int) -> None:
        for ctx in self.threads:
            if ctx.state is JOINING and ctx.join_target == exited_tid:
                ctx.state = RUNNABLE
                ctx.join_target = None
                ctx.min_issue = max(ctx.min_issue, cycle + 1)
                ctx.ready = None
                self.stats.wait_cycles[STALL_JOIN] += 1
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

        stats = self.stats
        live = self.threads.live
        sched = self.scheduler
        dual = sched.dual
        unit_busy = self._unit_busy
        ready_cycle = self._ready_cycle
        faults = self.faults
        fetch = self.fetch
        # Readiness that can move without an issue event is recomputed
        # every round (see the module docstring).
        recompute = faults is not None or fetch is not None
        while not self.halted:
            if stop_when is not None and stop_when(self, cycle):
                self.paused = True
                break
            if not live:
                break
            if cycle > limit:
                raise SimTimeout(
                    f"exceeded max_cycles={limit}; "
                    f"live threads at {[t.pc for t in live]}")
            if faults is not None:
                faults.begin_cycle(cycle)
            if fetch is not None:
                fetch.advance_to(
                    cycle, [t.tid for t in live if t.state is RUNNABLE])

            # One pass in tid order: the readiness of every runnable
            # thread, the earliest cycle one becomes ready, and per issue
            # port the ready thread the priority order ranks first (the
            # first above ``start``, else the first): ``first`` on the
            # scalar port, the only one outside SMT-2, ``partner`` on
            # SMT-2's parallel port.  Of the two, the higher-ranked one
            # issues first.
            start = sched.start
            first = partner = None
            next_ready = _NEVER
            for thread in live:
                if thread.state is not RUNNABLE:
                    continue
                info = thread.ready
                if info is None or recompute:
                    info = thread.ready = ready_cycle(thread, cycle)
                ready = info[0]
                if ready > cycle:
                    if ready < next_ready:
                        next_ready = ready
                elif dual and info[3].klass:
                    if partner is None or partner.tid <= start < thread.tid:
                        partner = thread
                elif first is None or first.tid <= start < thread.tid:
                    first = thread

            if first is None:
                if partner is None:
                    if next_ready == _NEVER:
                        joining = [t.tid for t in live
                                   if t.state is JOINING]
                        raise SimulationError(
                            f"deadlock: threads {joining} blocked in tjoin "
                            f"with no runnable thread")
                    skip_to = max(next_ready, sched.switch_until, cycle + 1)
                    stats.idle_slots += (skip_to - cycle) * width
                    cycle = skip_to
                    continue
                first, partner = partner, None
            elif partner is not None and sched.ranks_before(partner, first):
                first, partner = partner, first

            # SMT-2's partner issues with the readiness known at the
            # round's start, even when the first issue invalidates it --
            # except a structural unit that issue just took: a scalar and
            # a parallel op sharing a sequential unit cannot both start.
            issued = 0
            thread = sched.grant(first, cycle)
            if thread is not None:
                later = partner.ready if partner is not None else None
                issued = self._issue(thread, cycle, thread.ready)
                if later is not None and not self.halted:
                    unit = later[3].unit
                    if not (issued and unit >= 0 and unit_busy[unit] > cycle):
                        issued += self._issue(partner, cycle, later)
            stats.idle_slots += width - issued
            cycle += 1

        self._cycle = cycle
        stats.cycles = cycle - 1
        stats.issue_slots = stats.cycles * width
        if self.profiler is not None and not self.paused:
            self.profiler.finalize(self)
        return RunResult(stats, self, self.trace, paused=self.paused)


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
