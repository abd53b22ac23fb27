"""Dynamic race sanitizer: vector clocks over the thread instructions.

The static analyzer (:mod:`repro.analysis.concurrency`) must
over-approximate — it flags every interleaving that *could* race.  This
module is its dynamic counterpart: a FastTrack-style detector that
watches one concrete execution and reports the conflicts that execution
actually left unordered.  The two validate each other: the test suite
asserts every sanitizer report on generated multithreaded programs is
covered by a static finding.

Design, mirroring the :class:`repro.faults.plane.FaultPlane` pattern:

* the sanitizer is **opt-in** — ``Processor(cfg, sanitizer=...)`` — and
  every hook in the processor hides behind an ``is not None`` check
  and only a sanitized machine compiles ops that emit events, so a run
  without it is bit-for-bit identical to pre-sanitizer behaviour at
  zero cost;
* each hardware context carries a **vector clock**; ``tspawn`` hands
  the child a copy of the parent's clock, ``tjoin`` merges the exited
  child's final clock back, and a consumed ``tput`` delivery carries
  the sender's clock to the receiver (the delivery is the
  synchronization edge);
* scalar data memory has per-address **shadow state** (last write +
  last reads, each an epoch in some thread's clock): a store conflicts
  with any unordered previous access, a load with an unordered
  previous store;
* ``tput``/``tget`` register deliveries get per-``(thread, register)``
  **channel state**: a second delivery before the receiver observed
  the first is an overwritten delivery, a receiver write while a
  delivery is pending clobbers it, and a ``tget`` with no delivery to
  read is unsynchronized.

Clock components never reset: when a hardware context is reused after
``texit``, the new thread's own component continues from the old
value, so accesses by different incarnations of one context are never
confused.  Reports carry both pcs and both thread ids, are deduplicated
by site, and are emitted in issue order — a deterministic simulation
yields a byte-identical report.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RaceReport:
    """One dynamic conflict: what collided, where, and between whom."""

    kind: str            # memory-race | overwritten-delivery |
    #                      clobbered-delivery | unsynchronized-tget
    access: str          # store / load / tput / tget / write
    prev_access: str
    tid: int
    pc: int
    prev_tid: int
    prev_pc: int         # -1 when there is no previous site (unwritten tget)
    addr: int | None = None    # scalar-memory word, for memory races
    reg: int | None = None     # delivered register index, for deliveries

    @property
    def location(self) -> str:
        if self.addr is not None:
            return f"mem[{self.addr}]"
        return f"s{self.reg}"

    def format(self) -> str:
        prev = (f"{self.prev_access} by thread {self.prev_tid} "
                f"at pc {self.prev_pc}" if self.prev_pc >= 0
                else "no prior delivery")
        return (f"{self.kind} on {self.location}: {self.access} by thread "
                f"{self.tid} at pc {self.pc} vs {prev}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "location": self.location,
            "addr": self.addr,
            "reg": self.reg,
            "access": self.access,
            "prev_access": self.prev_access,
            "tid": self.tid,
            "pc": self.pc,
            "prev_tid": self.prev_tid,
            "prev_pc": self.prev_pc,
        }


class RaceSanitizer:
    """Vector-clock race detection over one simulation.

    Construct one, pass it to ``Processor(cfg, sanitizer=...)`` (or
    ``repro run --sanitize``), run, then read :attr:`reports`.
    ``max_reports`` bounds memory on pathological programs; sites are
    deduplicated first, so the cap only truncates genuinely distinct
    conflicts.
    """

    def __init__(self, max_reports: int = 1000) -> None:
        self.max_reports = max_reports
        self.reports: list[RaceReport] = []
        self._seen: set[tuple] = set()
        # tid -> vector clock {tid: epoch}.  Sparse: missing entries are 0.
        self._clocks: dict[int, dict[int, int]] = {}
        self._exit_clock: dict[int, dict[int, int]] = {}
        # addr -> ((write tid, write pc, write epoch) | None,
        #          {read tid: (epoch, pc)})
        self._shadow: dict[int, list] = {}
        # (target tid, reg) -> pending delivery.
        self._channels: dict[tuple[int, int], dict] = {}

    # -- lifecycle -----------------------------------------------------------

    def attach(self, processor) -> None:
        """Reset all state for a fresh run; called from Processor.reset."""
        self.reports = []
        self._seen = set()
        self._exit_clock = {}
        self._shadow = {}
        self._channels = {}
        old = self._clocks
        self._clocks = {0: {0: old.get(0, {}).get(0, 0) + 1}}

    # -- clock primitives ----------------------------------------------------

    def _vc(self, tid: int) -> dict[int, int]:
        return self._clocks.setdefault(tid, {tid: 1})

    def _tick(self, tid: int) -> None:
        vc = self._vc(tid)
        vc[tid] = vc.get(tid, 0) + 1

    def _epoch(self, tid: int) -> int:
        return self._vc(tid).get(tid, 0)

    def _ordered_before(self, tid: int, prev_tid: int,
                        prev_epoch: int) -> bool:
        """Did the event (prev_tid, prev_epoch) happen-before the
        current point of ``tid``?"""
        return prev_epoch <= self._vc(tid).get(prev_tid, 0)

    def _merge(self, tid: int, other: dict[int, int]) -> None:
        vc = self._vc(tid)
        for t, c in other.items():
            if c > vc.get(t, 0):
                vc[t] = c

    def _report(self, report: RaceReport) -> None:
        key = (report.kind, report.addr, report.reg, report.pc,
               report.prev_pc, report.tid, report.prev_tid)
        if key in self._seen or len(self.reports) >= self.max_reports:
            return
        self._seen.add(key)
        self.reports.append(report)

    # -- thread-structure events (hooked from the processor) -----------------

    def on_spawn(self, parent_tid: int, child_tid: int, pc: int) -> None:
        parent = self._vc(parent_tid)
        child = dict(parent)
        # The child's own component continues from its previous
        # incarnation, so reused contexts stay distinguishable.
        child[child_tid] = self._clocks.get(child_tid, {}) \
            .get(child_tid, 0) + 1
        self._clocks[child_tid] = child
        self._tick(parent_tid)
        # A fresh context starts with zeroed registers: stale deliveries
        # addressed to the previous incarnation are gone.
        for key in [k for k in self._channels if k[0] == child_tid]:
            del self._channels[key]

    def on_exit(self, tid: int) -> None:
        self._tick(tid)
        self._exit_clock[tid] = dict(self._vc(tid))

    def on_join(self, tid: int, target_tid: int) -> None:
        exited = self._exit_clock.get(target_tid)
        if exited is not None:
            self._merge(tid, exited)

    # -- register-file events (hooked from the processor issue path) ---------

    def on_reg_read(self, tid: int, reg: int, pc: int) -> None:
        """The owner reads one of its scalar registers: any pending
        delivery into it is consumed, which is the tput->use
        synchronization edge."""
        ch = self._channels.get((tid, reg))
        if ch is not None and not ch["consumed"]:
            ch["consumed"] = True
            self._merge(tid, ch["vc"])

    def on_reg_write(self, tid: int, reg: int, pc: int) -> None:
        """The owner overwrites a register with a pending, unread
        delivery: the delivered value is lost."""
        ch = self._channels.get((tid, reg))
        if ch is not None and not ch["consumed"]:
            self._report(RaceReport(
                kind="clobbered-delivery", access="write",
                prev_access="tput", tid=tid, pc=pc,
                prev_tid=ch["tid"], prev_pc=ch["pc"], reg=reg))
            del self._channels[(tid, reg)]

    # -- delivery events (emitted by the compiled ops) -----------------------

    def on_tput(self, tid: int, target_tid: int, reg: int, pc: int) -> None:
        ch = self._channels.get((target_tid, reg))
        if ch is not None and not ch["consumed"]:
            self._report(RaceReport(
                kind="overwritten-delivery", access="tput",
                prev_access="tput", tid=tid, pc=pc,
                prev_tid=ch["tid"], prev_pc=ch["pc"], reg=reg))
        self._channels[(target_tid, reg)] = {
            "vc": dict(self._vc(tid)), "tid": tid, "pc": pc,
            "consumed": False}
        self._tick(tid)

    def on_tget(self, tid: int, source_tid: int, reg: int, pc: int) -> None:
        ch = self._channels.get((source_tid, reg))
        if ch is not None:
            if not ch["consumed"]:
                ch["consumed"] = True
            self._merge(tid, ch["vc"])
            return
        self._report(RaceReport(
            kind="unsynchronized-tget", access="tget", prev_access="none",
            tid=tid, pc=pc, prev_tid=source_tid, prev_pc=-1, reg=reg))

    # -- scalar-memory events (emitted by the compiled ops) ------------------

    def on_load(self, tid: int, addr: int, pc: int) -> None:
        cell = self._shadow.get(addr)
        if cell is None:
            cell = [None, {}]
            self._shadow[addr] = cell
        write, reads = cell
        if write is not None:
            w_tid, w_pc, w_epoch = write
            if w_tid != tid and not self._ordered_before(tid, w_tid, w_epoch):
                self._report(RaceReport(
                    kind="memory-race", access="load", prev_access="store",
                    tid=tid, pc=pc, prev_tid=w_tid, prev_pc=w_pc,
                    addr=addr))
        reads[tid] = (self._epoch(tid), pc)

    def on_store(self, tid: int, addr: int, pc: int) -> None:
        cell = self._shadow.get(addr)
        if cell is None:
            cell = [None, {}]
            self._shadow[addr] = cell
        write, reads = cell
        if write is not None:
            w_tid, w_pc, w_epoch = write
            if w_tid != tid and not self._ordered_before(tid, w_tid, w_epoch):
                self._report(RaceReport(
                    kind="memory-race", access="store", prev_access="store",
                    tid=tid, pc=pc, prev_tid=w_tid, prev_pc=w_pc,
                    addr=addr))
        for r_tid, (r_epoch, r_pc) in reads.items():
            if r_tid != tid and not self._ordered_before(tid, r_tid, r_epoch):
                self._report(RaceReport(
                    kind="memory-race", access="store", prev_access="load",
                    tid=tid, pc=pc, prev_tid=r_tid, prev_pc=r_pc,
                    addr=addr))
        cell[0] = (tid, pc, self._epoch(tid))
        cell[1] = {}

    # -- issue-path dispatch (one call per issued instruction) ---------------

    def on_issue(self, thread, instr, num_threads: int) -> None:
        """Register-file and join bookkeeping for one issuing
        instruction; memory and delivery events fire from the compiled
        ops, which know the resolved addresses and targets."""
        tid = thread.tid
        pc = thread.pc
        for regfile, idx in instr.src_regs():
            if regfile == "s":
                self.on_reg_read(tid, idx, pc)
        if instr.mnemonic == "tjoin":
            self.on_join(tid, thread.read_sreg(instr.rs) % num_threads)
        dest = instr.dest_reg()
        if dest is not None and dest[0] == "s":
            self.on_reg_write(tid, dest[1], pc)

    # -- reporting -----------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.reports

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "count": len(self.reports),
            "races": [r.to_json() for r in self.reports],
        }
