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

Each instruction is decoded once per configuration, as in the control
unit's decode stage (Sections 5-6): its per-pc entry
(:class:`repro.core.timing.TimingModel`) holds a compiled readiness and
an issue function with the entry's facts and attached hooks compiled
in.  Each context caches its next instruction's readiness (the entry
included) and recomputes it only after an event that can move it: the
context issues, a ``tput`` delivers to it, a join wakes it, it is
spawned, or the structural unit it waits for becomes occupied.  With a
fetch model or a fault plane (a fault can move a PC) attached, every
runnable context is recomputed each round instead.

A scheduling round is one pass over the live threads in tid order, the
same for every discipline.  It evaluates the readiness of every runnable
thread, keeps the earliest cycle one becomes ready (the clock jumps there
when none is ready now), and keeps per issue port the ready thread the
priority order ranks first: the first tid above
:attr:`ThreadScheduler.start`, else the first.  SMT-2 has a scalar and a
parallel port, the other disciplines one.  Coarse grain's
:meth:`ThreadScheduler.grant` may hold the resident thread or switch.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.asm.program import Program
from repro.core.archstate import LiveState
from repro.core.config import ProcessorConfig
from repro.core.execute import Op, OpCompiler
from repro.core.fetch import FetchUnit
from repro.core.memory import ScalarMemory
from repro.core.scheduler import ThreadScheduler
from repro.core.stats import STALL_JOIN, Stats
from repro.core.thread import JOINING, RUNNABLE, ThreadStatusTable
from repro.core import timing
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
        # profiler (repro.obs.CycleProfiler).  Hooks are compiled into the
        # ops and issue steps when attached: a machine without them pays
        # nothing and its cycle-level behaviour is bit-for-bit unchanged.
        self.faults = faults
        self.sanitizer = sanitizer
        self.profiler = profiler
        self.pe = PEArray(cfg.num_pes, cfg.num_threads, cfg.word_width,
                          cfg.lmem_words)
        self.mem = ScalarMemory(cfg.scalar_mem_words, cfg.word_width)
        self.threads = ThreadStatusTable(cfg.num_threads)
        # The loaded program's compiled ops, one per pc, from the
        # machine's one compiler, which keeps the ops it has built.
        self.ops: list[Op] = []
        self._compiler = OpCompiler(self.pe, self.mem, self.threads,
                                    faults, sanitizer)
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
            hooks = {"trace": self.trace_enabled,
                     "san": self.sanitizer is not None,
                     "prof": self.profiler is not None}
            self.timing_model = timing.TimingModel(
                program, self.cfg, tuple(h for h, on in hooks.items() if on))
        self.reset()

    def reset(self) -> None:
        """Reset architectural and microarchitectural state in place:
        the PE array zeroes what a run can have written (its record, and
        the register files of every context the run allocated), and the
        thread table clears every context."""
        self.pe.reset(self.threads.used)
        self.mem.reset()
        if self.program is not None:
            self.mem.load_image(self.program.data)
        if self._cycle:
            # The clock is 0 only until the first reset: the thread table,
            # busy list and counters __init__ built are still untouched.
            self.threads.reset()
            self._unit_busy = [0] * len(timing.UNIT_NAMES)
            self.stats = Stats()
        if self.program is not None:
            self.ops = self._compiler.ops(self.program, self.timing_model)
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
        dual, coarse = sched.dual, sched._coarse
        unit_busy = self._unit_busy
        table = self.timing_model.table
        entry = self.timing_model.entry
        n = len(table)
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
            if recompute:
                if faults is not None:
                    faults.begin_cycle(cycle)
                if fetch is not None:
                    fetch.advance_to(
                        cycle, [t.tid for t in live if t.state is RUNNABLE])
                for thread in live:
                    thread.ready = None

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
                # A context blocked in tjoin caches a readiness that is
                # never reached until its wake-up clears it.
                info = thread.ready
                if info is None:
                    if thread.state is not RUNNABLE:
                        continue
                    pc = thread.pc
                    if not 0 <= pc < n:
                        raise SimulationError(
                            f"thread {thread.tid}: PC {pc} outside the "
                            f"program (0..{n - 1})")
                    base = thread.min_issue
                    if thread.last_issue >= base:
                        base = thread.last_issue + 1
                    if fetch is not None:
                        base = max(base,
                                   fetch.earliest_issue(thread.tid, cycle))
                    info = thread.ready = (table[pc] or entry(pc)).ready(
                        thread.score, base, unit_busy)
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
            if coarse:
                thread = sched.grant(first, cycle)
            else:               # grant's rule for the other disciplines
                sched._pointer = first.tid
                thread = first
            if thread is not None:
                later = partner.ready if partner is not None else None
                info = thread.ready
                issued = info[3].issue(self, thread, cycle, info)
                if later is not None and not self.halted:
                    unit = later[3].unit
                    if not (issued and unit >= 0 and unit_busy[unit] > cycle):
                        issued += later[3].issue(self, partner, cycle, later)
            if issued != width:
                stats.idle_slots += width - issued
            cycle += 1

        self._cycle = cycle
        stats.cycles = cycle - 1
        stats.issue_slots = stats.cycles * width
        if self.profiler is not None and not self.paused:
            self.profiler.finalize(self)
        return RunResult(stats, self, self.trace, paused=self.paused)


#: Idle machines the process keeps for hook-free runs, and the state
#: (:meth:`PEArray.state_bytes`) they may hold together.  A machine costs
#: its state plus about 60 KB of objects and compiled ops (at most
#: ``OP_MEMO_ENTRIES`` of about 1 KB), and only the pages its runs wrote
#: are resident: 16 machines at 48 MiB of state keep a few MiB.
KEPT_MACHINES = 16
KEPT_MACHINE_BYTES = 48 << 20


class MachineKeeper:
    """Idle machines by (machine class, configuration values), at most
    one per key, least recently used dropped first.

    The paper's prototype is one configured machine that runs program
    after program with its state reset, not rebuilt.  :meth:`machine`
    hands a hook-free run a kept machine, whose :meth:`Processor.load`
    resets it in place, and takes it back when the run's block exits
    without raising.  :data:`MACHINES` is the process-wide instance.
    """

    def __init__(self, entries: int = KEPT_MACHINES,
                 budget: int = KEPT_MACHINE_BYTES) -> None:
        self.entries = entries
        self.budget = budget
        self._idle: OrderedDict[tuple[object, ...], Processor] = (
            OrderedDict())
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @contextlib.contextmanager
    def machine(self, cls: type, config: ProcessorConfig, faults=None,
                sanitizer=None, profiler=None):
        """A ``cls`` machine on ``config`` for one run.

        A run with a hook gets a fresh machine, since hooks are compiled
        into its ops and steps; any other gets a kept idle machine (or a
        new one), returned to the keeper when the block exits.  A block
        that raises drops it.
        """
        if faults is not None or sanitizer is not None or profiler is not None:
            yield cls(config, faults=faults, sanitizer=sanitizer,
                      profiler=profiler)
            return
        key = (cls, *vars(config).values())
        size = PEArray.state_bytes(config)
        with self._lock:
            machine = self._idle.pop(key, None)
            if machine is None:
                self.misses += 1
            else:
                self.hits += 1
                self._bytes -= size
        if machine is None:
            machine = cls(config)
        yield machine
        if size > self.budget:
            return                      # too big to keep idle
        with self._lock:
            if key in self._idle:
                return                  # another run returned one first
            self._idle[key] = machine
            self._bytes += size
            while len(self._idle) > self.entries or self._bytes > self.budget:
                _key, dropped = self._idle.popitem(last=False)
                self._bytes -= PEArray.state_bytes(dropped.cfg)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every idle machine (the counters keep counting)."""
        with self._lock:
            self._idle.clear()
            self._bytes = 0

    def stats(self) -> dict:
        """Counters plus what is retained now, as a JSON-safe dict."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "entries": len(self._idle)}


#: The keeper every serve job without hooks runs on.
MACHINES = MachineKeeper()


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
