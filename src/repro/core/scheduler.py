"""Thread scheduler.

"The scheduler selects a thread that has an instruction ready to execute
and issues that instruction to either the scalar datapath or the PE
array.  A rotating priority selection policy is employed to ensure
fairness between threads." (Section 6.3.)

Four disciplines are implemented (DESIGN.md experiment E8):

* **fine** — pick one ready thread per cycle by rotating (or fixed)
  priority; the paper's design.
* **single** — degenerate case with one context.
* **coarse** — stay on the current thread until it hits a stall of at
  least ``coarse_switch_threshold`` cycles, then pay
  ``coarse_switch_penalty`` flush cycles and move on (Agarwal-style
  coarse-grain multithreading, paper Section 5).
* **smt2** — extension: dual issue, at most one scalar-path and one
  parallel/reduction-path instruction per cycle from (possibly) two
  different threads, exploiting the split pipeline's two issue ports.

Every discipline ranks ready threads by one priority order: the lowest
tid above :attr:`ThreadScheduler.start`, then the lowest tid from 0.  The
issue loop's round (:meth:`repro.core.processor.Processor.run`) finds, in
its one pass over the live threads, the ready thread the order ranks
first on each issue port; :meth:`ThreadScheduler.grant` then applies the
discipline (the round inlines its rule for all but coarse grain).
"""

from __future__ import annotations

from repro.core.config import MTMode, ProcessorConfig, SchedulerPolicy
from repro.core.thread import RUNNABLE, ThreadContext


class ThreadScheduler:
    """Selects which ready thread(s) issue this cycle."""

    def __init__(self, cfg: ProcessorConfig) -> None:
        self.cfg = cfg
        self._rotating = cfg.scheduler is SchedulerPolicy.ROTATING
        self._coarse = cfg.mt_mode is MTMode.COARSE
        # SMT-2 has a second issue port: a scalar instruction (class 0)
        # and a parallel or reduction one may issue in the same cycle.
        self.dual = cfg.mt_mode is MTMode.SMT2
        self._pointer = -1          # last thread granted (rotating priority)
        # Coarse grain: the resident context, whose cached readiness
        # (ThreadContext.ready) the policy reads.
        self._current: ThreadContext | None = None
        self.switch_until = 0       # coarse-grain: no issue before this cycle
        self.switches = 0

    @property
    def start(self) -> int:
        """Priority goes to the lowest ready tid above this one, then to
        the lowest ready tid: the last thread granted under rotating
        priority, -1 (plain tid order) under fixed priority."""
        return self._pointer if self._rotating else -1

    def ranks_before(self, a: ThreadContext, b: ThreadContext) -> bool:
        """Whether the priority order ranks thread ``a`` before ``b``."""
        start, n = self.start, self.cfg.num_threads
        return (a.tid - start - 1) % n < (b.tid - start - 1) % n

    def grant(self, first: ThreadContext, cycle: int) -> ThreadContext | None:
        """The thread to issue at ``cycle``, given ``first``, the ready
        thread the priority order ranks first (of the two SMT-2 issues,
        the one that issues first), or None when none issues.

        Under coarse grain the resident thread issues when it is ready
        (its cached readiness says so) and keeps the pipeline through a
        stall shorter than the switch threshold; a longer stall, or its
        exit or join, hands the machine to ``first`` after the switch
        penalty.
        """
        if self._coarse:
            if cycle < self.switch_until:
                return None                 # pipeline flush in progress
            current = self._current
            if current is not None:
                if current.state is RUNNABLE:
                    assert current.ready is not None
                    ready = current.ready[0]
                    if ready <= cycle:
                        return current
                    if ready - cycle < self.cfg.coarse_switch_threshold:
                        return None         # ride out the short stall
                # The switch itself costs the penalty cycles.
                self.switches += 1
                self.switch_until = cycle + self.cfg.coarse_switch_penalty
                self._current = first
                self._pointer = first.tid
                return None
            self._current = first
        self._pointer = first.tid
        return first

    def reset(self) -> None:
        self._pointer = -1
        self._current = None
        self.switch_until = 0
        self.switches = 0
