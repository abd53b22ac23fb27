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
"""

from __future__ import annotations

import operator

from repro.core.config import MTMode, ProcessorConfig, SchedulerPolicy
from repro.core.thread import ThreadContext
from repro.isa.opcodes import ExecClass

_TID = operator.attrgetter("tid")


class ThreadScheduler:
    """Selects which ready thread(s) issue this cycle."""

    def __init__(self, cfg: ProcessorConfig) -> None:
        self.cfg = cfg
        self._rotating = cfg.scheduler is SchedulerPolicy.ROTATING
        self._one = cfg.mt_mode in (MTMode.SINGLE, MTMode.FINE)
        self._pointer = -1          # last thread granted (rotating priority)
        self._current: int | None = None   # coarse-grain resident thread
        self.switch_until = 0       # coarse-grain: no issue before this cycle
        self.switches = 0

    # -- priority orders -----------------------------------------------------

    def _first(self, candidates: list[ThreadContext]) -> ThreadContext:
        """The candidate the priority order ranks first: the lowest tid,
        after the last one granted when the priority rotates."""
        if self._rotating:
            pointer = self._pointer
            candidates = [t for t in candidates if t.tid > pointer] or candidates
        return min(candidates, key=_TID)

    # -- selection -------------------------------------------------------------

    def select(self, candidates: list[ThreadContext], cycle: int,
               ready_of: dict[int, int], program) -> list[ThreadContext]:
        """Return the thread(s) to issue at ``cycle``.

        ``candidates`` are RUNNABLE threads whose next instruction is
        ready now; ``ready_of`` maps *every* runnable thread id to its
        earliest-ready cycle (consulted by the coarse-grain policy).
        """
        if not candidates:
            return []
        if self._one:
            chosen = self._first(candidates)
            self._pointer = chosen.tid
            return [chosen]
        if self.cfg.mt_mode is MTMode.COARSE:
            return self._select_coarse(candidates, cycle, ready_of)
        return self._select_smt2(candidates, program)

    def _select_coarse(self, candidates: list[ThreadContext], cycle: int,
                       ready_of: dict[int, int]) -> list[ThreadContext]:
        if cycle < self.switch_until:
            return []          # pipeline flush in progress
        by_tid = {t.tid: t for t in candidates}
        if self._current is not None and self._current in by_tid:
            return [by_tid[self._current]]
        if self._current is not None and self._current in ready_of:
            # Resident thread is stalled; switch only for long stalls.
            stall = ready_of[self._current] - cycle
            if stall < self.cfg.coarse_switch_threshold:
                return []      # ride out the short stall
        chosen = self._first(candidates)
        if self._current is not None and chosen.tid != self._current:
            self.switches += 1
            self.switch_until = cycle + self.cfg.coarse_switch_penalty
            self._current = chosen.tid
            self._pointer = chosen.tid
            return []          # the switch itself costs the penalty cycles
        self._current = chosen.tid
        self._pointer = chosen.tid
        return [chosen]

    def _select_smt2(self, candidates: list[ThreadContext],
                     program) -> list[ThreadContext]:
        ordered = sorted(candidates, key=_TID)
        if self._rotating:
            later = [t for t in ordered if t.tid > self._pointer]
            ordered = later + [t for t in ordered if t.tid <= self._pointer]
        chosen: list[ThreadContext] = []
        ports_used: set[str] = set()
        for thread in ordered:
            spec = program.instructions[thread.pc].spec
            port = ("scalar" if spec.exec_class is ExecClass.SCALAR
                    else "parallel")
            if port in ports_used:
                continue
            chosen.append(thread)
            ports_used.add(port)
            if len(chosen) == 2:
                break
        if chosen:
            self._pointer = chosen[0].tid
        return chosen

    def reset(self) -> None:
        self._pointer = -1
        self._current = None
        self.switch_until = 0
        self.switches = 0
