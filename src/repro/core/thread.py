"""Hardware thread contexts and the thread status table.

"Each thread's instruction buffer, PC, and state are recorded in a data
structure called the thread status table, which is shared between the
fetch unit and the decode unit." (Section 6.3.)

Machine state is replicated per thread (Section 6): each context owns a
PC, a scalar register file, and per-thread slices of the PE register and
flag files (held in :class:`repro.pe.PEArray`).  The per-thread
scoreboard entries used for hazard detection live here too; collectively
they are the paper's *instruction status table*.
"""

from __future__ import annotations

import enum

from repro.isa import registers


class ThreadState(enum.Enum):
    FREE = "free"          # context not allocated
    RUNNABLE = "runnable"  # may issue instructions
    JOINING = "joining"    # blocked in tjoin until the target exits
    EXITED = "exited"      # transient: texit issued, context about to free


_LIVE_STATES = (ThreadState.RUNNABLE, ThreadState.JOINING)


class ThreadContext:
    """One hardware thread: PC, scalar registers, scoreboard, status."""

    __slots__ = ("tid", "state", "pc", "sregs", "min_issue", "last_issue",
                 "join_target", "score", "ready", "instructions_issued")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.state = ThreadState.FREE
        self.pc = 0
        self.sregs = [0] * registers.NUM_SCALAR_REGS
        self.min_issue = 0       # earliest next issue (control bubbles etc.)
        self.last_issue = -1
        self.join_target: int | None = None
        # Scoreboard: register key (repro.core.timing.reg_key) ->
        # (result cycle, writeback cycle, producer class) of the last
        # write, kept for hazard detection.
        self.score: dict[int, tuple[int, int, int]] = {}
        # The issue loop's cached (ready, cause, base, unit) for the next
        # instruction, or None once an event may have moved it.
        self.ready: tuple[int, str | None, int, int] | None = None
        self.instructions_issued = 0

    def activate(self, pc: int, start_cycle: int) -> None:
        """(Re)initialize the context for a newly spawned thread."""
        self.state = ThreadState.RUNNABLE
        self.pc = pc
        self.sregs = [0] * registers.NUM_SCALAR_REGS
        self.min_issue = start_cycle
        self.last_issue = start_cycle - 1
        self.join_target = None
        self.score = {}
        self.ready = None

    def read_sreg(self, idx: int) -> int:
        return 0 if idx == registers.ZERO_REG else self.sregs[idx]

    def write_sreg(self, idx: int, value: int, word_mask: int) -> None:
        if idx != registers.ZERO_REG:
            self.sregs[idx] = value & word_mask


class ThreadStatusTable:
    """All hardware contexts plus allocation bookkeeping."""

    def __init__(self, num_threads: int) -> None:
        self.contexts = [ThreadContext(tid) for tid in range(num_threads)]

    def __iter__(self):
        return iter(self.contexts)

    def __getitem__(self, tid: int) -> ThreadContext:
        return self.contexts[tid]

    def allocate(self, pc: int, start_cycle: int) -> int | None:
        """Allocate a free context (tspawn); None if all are in use."""
        for ctx in self.contexts:
            if ctx.state is ThreadState.FREE:
                ctx.activate(pc, start_cycle)
                return ctx.tid
        return None

    def release(self, tid: int) -> None:
        """Release a context (texit)."""
        self.contexts[tid].state = ThreadState.FREE

    def live_threads(self) -> list[ThreadContext]:
        return [c for c in self.contexts if c.state in _LIVE_STATES]

    def runnable_threads(self) -> list[ThreadContext]:
        return [c for c in self.contexts if c.state is ThreadState.RUNNABLE]
