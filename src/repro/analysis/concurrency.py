"""Whole-program thread-structure analysis and concurrency lint checks.

The paper's headline feature (Sections 5-6, Figure 3) is fine-grain
multithreading: up to 16 hardware contexts created with ``tspawn``,
synchronized with ``tjoin``, and communicating through ``tput``/``tget``
register delivery and shared scalar data memory.  The PR-1 analyzer
deliberately stopped at thread boundaries ("no register dataflow crosses
a spawn"), which left exactly the bug class multithreading introduces
invisible.  This module closes that gap, statically:

* :class:`ConcurrencyAnalysis` builds the **spawn graph** — one
  :class:`ThreadRegion` per entry (the program entry plus every
  ``tspawn`` target), each the set of blocks that entry can reach — and
  derives **happens-before** facts from the thread instructions:

  - *spawn*: an access in the parent ordered before every spawn site
    that can start the accessed region happens-before everything in the
    spawned region (the child inherits a context created after it);
  - *join*: when a region has exactly one spawn site and a ``tjoin``
    whose handle provably comes from that site dominates a parent
    access, everything in the (direct) child happens-before that
    access (``tjoin`` gates issue until the child's context is free);
  - *delivery*: a ``tput`` that round-trips through a dominating
    same-thread ``tget`` orders the two delivery endpoints.

* three lint checks consume those facts:

  - ``cross-thread-race`` — conflicting accesses to the same
    statically-known scalar-memory word from unordered regions;
  - ``lost-delivery`` — ``tput``/``tget`` register-delivery conflicts:
    overwritten deliveries, deliveries the receiver clobbers or never
    reads, and ``tget`` reads with no synchronizing ``tput``;
  - ``thread-lifecycle`` — joins on values that are not (or may not
    be) handles, joined threads that can never exit, orphan threads.

Soundness caveats (see docs/ANALYSIS.md): addresses are only compared
when the base register resolves to a compile-time constant, ``jr``
leaves the CFG incomplete (``CFG.has_indirect``), and regions reached
through handles forwarded via ``tget`` are not tracked.  The dynamic
counterpart — :class:`repro.core.sanitizer.RaceSanitizer` — adds the
execution-order edges static analysis must over-approximate; the test
suite cross-validates the two (every sanitizer-reported race on a
generated program is flagged statically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import INIT_DEF, DataflowResult
from repro.asm.program import Program
from repro.isa import registers

if TYPE_CHECKING:
    from repro.analysis.lint import AnalysisContext, Diagnostic


def const_value(program: Program, df: DataflowResult, pc: int,
                reg_idx: int) -> int | None:
    """Compile-time value of scalar register ``reg_idx`` at ``pc``, if
    its single reaching definition is a constant materialization."""
    if reg_idx == registers.ZERO_REG:
        return 0
    defs = df.reaching_defs(pc, ("s", reg_idx))
    if len(defs) != 1:
        return None
    (d,) = defs
    if d == INIT_DEF:
        return 0
    producer = program.instructions[d]
    if producer.mnemonic in ("ori", "addi") \
            and producer.rs == registers.ZERO_REG:
        return producer.imm
    if producer.mnemonic == "lui":
        return producer.imm << 16
    return None


@dataclass
class ThreadRegion:
    """The code one thread entry can execute.

    Regions may overlap: code shared between the main program and a
    spawned worker belongs to both.
    """

    index: int
    name: str
    entry_block: int
    blocks: set[int]
    pcs: frozenset[int] = frozenset()
    # tspawn pcs (anywhere in the program) that start this region.
    spawn_sites: list[int] = field(default_factory=list)

    @property
    def is_main(self) -> bool:
        return self.index == 0


@dataclass
class MemAccess:
    """One statically-resolved scalar-memory access."""

    pc: int
    addr: int
    is_store: bool


class ConcurrencyAnalysis:
    """Spawn graph + happens-before facts over a program's thread regions."""

    def __init__(self, program: Program, cfg: CFG,
                 dataflow: DataflowResult) -> None:
        self.program = program
        self.cfg = cfg
        self.df = dataflow
        self.regions: list[ThreadRegion] = []
        # Per-region caches, filled lazily.
        self._reach_plus: dict[int, dict[int, set[int]]] = {}
        self._doms: dict[int, dict[int, set[int]]] = {}
        self._build_regions()
        self._build_spawn_graph()

    # -- construction -------------------------------------------------------

    def _region_for(self, index: int, name: str, entry_block: int,
                    ) -> ThreadRegion:
        blocks = self.cfg.reachable_from(entry_block)
        pcs = frozenset(pc for b in blocks
                        for pc in self.cfg.blocks[b].range)
        return ThreadRegion(index=index, name=name, entry_block=entry_block,
                            blocks=blocks, pcs=pcs)

    def _build_regions(self) -> None:
        cfg = self.cfg
        if not cfg.blocks:
            return
        main_entry = cfg.entry_blocks[0] if cfg.entry_blocks else 0
        self.regions.append(self._region_for(0, "main", main_entry))
        for entry in cfg.spawn_entries:
            start = cfg.blocks[entry].start
            self.regions.append(self._region_for(
                len(self.regions), f"thread@{start}", entry))

    def _build_spawn_graph(self) -> None:
        program = self.program
        cfg = self.cfg
        by_entry = {r.entry_block: r for r in self.regions if not r.is_main}
        for pc, instr in enumerate(program.instructions):
            if instr.mnemonic != "tspawn":
                continue
            if not 0 <= instr.imm < len(program.instructions):
                continue
            try:
                target = cfg.block_of(instr.imm)
            except IndexError:
                continue
            region = by_entry.get(target)
            if region is not None and cfg.blocks[target].start == instr.imm:
                region.spawn_sites.append(pc)
        # Direct spawn edges: spawner region index -> spawned region index.
        self.spawn_edges: dict[int, set[int]] = {r.index: set()
                                                 for r in self.regions}
        for region in self.regions:
            if region.is_main:
                continue
            for site in region.spawn_sites:
                for parent in self.regions:
                    if site in parent.pcs and parent.index != region.index:
                        self.spawn_edges[parent.index].add(region.index)
        # Transitive descendants.
        self.descendants: dict[int, set[int]] = {}
        for region in self.regions:
            seen: set[int] = set()
            work = list(self.spawn_edges[region.index])
            while work:
                r = work.pop()
                if r in seen:
                    continue
                seen.add(r)
                work.extend(self.spawn_edges[r])
            self.descendants[region.index] = seen
        self._compute_multi_instance()

    def _compute_multi_instance(self) -> None:
        """Regions that can be live in two instances at once: spawned
        from several sites, from inside a loop, or by a multi-instance
        ancestor."""
        multi = {r.index: False for r in self.regions}
        changed = True
        while changed:
            changed = False
            for region in self.regions:
                if region.is_main or multi[region.index]:
                    continue
                flag = len(region.spawn_sites) > 1
                for site in region.spawn_sites:
                    for parent in self.regions:
                        if site not in parent.pcs:
                            continue
                        if multi[parent.index] \
                                or self.may_follow(parent.index, site, site):
                            flag = True
                if flag:
                    multi[region.index] = True
                    changed = True
        self.multi_instance = multi

    # -- intra-region order primitives --------------------------------------

    def _reach_plus_of(self, ri: int) -> dict[int, set[int]]:
        cached = self._reach_plus.get(ri)
        if cached is not None:
            return cached
        region = self.regions[ri]
        out: dict[int, set[int]] = {}
        for b in region.blocks:
            seen: set[int] = set()
            work = [s for s in self.cfg.succs.get(b, ()) if s in region.blocks]
            while work:
                n = work.pop()
                if n in seen:
                    continue
                seen.add(n)
                work.extend(s for s in self.cfg.succs.get(n, ())
                            if s in region.blocks)
            out[b] = seen
        self._reach_plus[ri] = out
        return out

    def _doms_of(self, ri: int) -> dict[int, set[int]]:
        cached = self._doms.get(ri)
        if cached is not None:
            return cached
        region = self.regions[ri]
        blocks = region.blocks
        entry = region.entry_block
        doms = {b: set(blocks) for b in blocks}
        doms[entry] = {entry}
        changed = True
        while changed:
            changed = False
            for b in blocks:
                if b == entry:
                    continue
                preds = [p for p in self.cfg.preds.get(b, ()) if p in blocks]
                new = set(blocks)
                for p in preds:
                    new &= doms[p]
                new.add(b)
                if new != doms[b]:
                    doms[b] = new
                    changed = True
        self._doms[ri] = doms
        return doms

    def may_follow(self, ri: int, pc_x: int, pc_y: int) -> bool:
        """Can ``pc_y`` execute (again) strictly after ``pc_x`` within
        region ``ri``?  True for same-block later pcs and for any block
        reachable through at least one CFG edge (so a pc inside a cycle
        may follow itself)."""
        bx = self.cfg.block_of(pc_x)
        by = self.cfg.block_of(pc_y)
        if bx == by and pc_y > pc_x:
            return True
        return by in self._reach_plus_of(ri).get(bx, ())

    def dominates(self, ri: int, pc_a: int, pc_b: int) -> bool:
        """Every path from the region entry to ``pc_b`` executes
        ``pc_a`` first (basic blocks are straight-line, so block
        dominance plus in-block order is exact)."""
        ba = self.cfg.block_of(pc_a)
        bb = self.cfg.block_of(pc_b)
        if ba == bb:
            return pc_a <= pc_b
        return ba in self._doms_of(ri).get(bb, ())

    # -- happens-before ------------------------------------------------------

    def _chain_sites(self, ra: int, rb: int) -> list[int]:
        """Spawn-site pcs inside region ``ra`` whose spawned region is,
        or transitively spawns, region ``rb``."""
        sites = []
        region_a = self.regions[ra]
        for child in self.spawn_edges[ra]:
            if child == rb or rb in self.descendants[child]:
                sites.extend(s for s in self.regions[child].spawn_sites
                             if s in region_a.pcs)
        return sites

    def _join_orders(self, parent: int, child: int, pc_parent: int) -> bool:
        """Everything the direct child executes happens-before the
        parent access at ``pc_parent``: the child has a unique spawn
        site and a ``tjoin`` on provably that handle dominates the
        access."""
        region_c = self.regions[child]
        if len(region_c.spawn_sites) != 1:
            return False
        (site,) = region_c.spawn_sites
        region_p = self.regions[parent]
        if site not in region_p.pcs:
            return False
        program = self.program
        for pc in sorted(region_p.pcs):
            instr = program.instructions[pc]
            if instr.mnemonic != "tjoin":
                continue
            defs = self.df.reaching_defs(pc, ("s", instr.rs))
            if defs == frozenset((site,)) \
                    and self.dominates(parent, pc, pc_parent):
                return True
        return False

    def ordered(self, ra: int, pc_a: int, rb: int, pc_b: int) -> bool:
        """Are the two accesses ordered by happens-before (either
        direction)?  Only claims an order the dynamic vector-clock
        sanitizer would also derive — never the reverse."""
        if ra == rb:
            return True          # program order within one instance
        for hi, hp, lo in ((ra, pc_a, rb), (rb, pc_b, ra)):
            # hi is an ancestor: its access before every relevant spawn
            # site happens-before everything in the descendant lo.
            if lo in self.descendants.get(hi, set()):
                sites = self._chain_sites(hi, lo)
                if sites and all(s != hp and not self.may_follow(hi, s, hp)
                                 for s in sites):
                    return True
        # Join: direct child fully ordered before a dominated parent access.
        if rb in self.spawn_edges.get(ra, ()) \
                and self._join_orders(ra, rb, pc_a):
            return True
        if ra in self.spawn_edges.get(rb, ()) \
                and self._join_orders(rb, ra, pc_b):
            return True
        return False

    # -- derived facts used by the checks ------------------------------------

    def mem_accesses(self, region: ThreadRegion) -> list[MemAccess]:
        """Statically-resolvable scalar-memory accesses in a region."""
        out = []
        for pc in sorted(region.pcs):
            instr = self.program.instructions[pc]
            spec = instr.spec
            if spec.exec_class.value != "scalar" \
                    or not (spec.is_load or spec.is_store):
                continue
            base = const_value(self.program, self.df, pc, instr.rs)
            if base is None:
                continue
            out.append(MemAccess(pc, base + instr.imm, spec.is_store))
        return out

    def spawn_def_regions(self, defs: frozenset[int]) -> list[ThreadRegion]:
        """Regions a handle with reaching definitions ``defs`` can name
        (one per ``tspawn`` definition whose target is a region entry)."""
        out = []
        for d in sorted(defs):
            if d == INIT_DEF:
                continue
            instr = self.program.instructions[d]
            if instr.mnemonic != "tspawn":
                continue
            for region in self.regions:
                if region.is_main:
                    continue
                if self.cfg.blocks[region.entry_block].start == instr.imm:
                    out.append(region)
        return out


# ---------------------------------------------------------------------------
# Lint checks (registered in repro.analysis.lint.ALL_CHECKS)
# ---------------------------------------------------------------------------


def check_cross_thread_race(ctx: AnalysisContext) -> list[Diagnostic]:
    """Conflicting scalar-memory accesses from unordered thread regions.

    Supersedes the PR-1 ``scalar-mem-race`` check: the ordering test is
    the happens-before relation (spawn *and* join aware) instead of the
    "any tjoin before the parent access" heuristic, shared code counts
    (the same pc executed by two threads races with itself), and a
    region that can run in several instances at once races against
    itself.  Addresses resolve only through compile-time-constant
    bases; unknown addresses are never reported.
    """
    out: list[Diagnostic] = []
    conc = ctx.concurrency()
    program = ctx.program
    accesses = [(r, conc.mem_accesses(r)) for r in conc.regions]
    reported: set[tuple[int, int, int]] = set()

    def report(ra: ThreadRegion, a: MemAccess,
               rb: ThreadRegion, b: MemAccess) -> None:
        key = (min(a.pc, b.pc), max(a.pc, b.pc), a.addr)
        if key in reported:
            return
        reported.add(key)
        kind = "store/store" if a.is_store and b.is_store else "store/load"
        first, second = (a, b) if a.pc <= b.pc else (b, a)
        out.append(ctx.diag(
            "cross-thread-race", "warning", max(a.pc, b.pc),
            f"unsynchronized {kind} race on scalar memory word {a.addr}: "
            f"{ra.name} at {program.location_of(a.pc)} vs {rb.name} at "
            f"{program.location_of(b.pc)} (no spawn/join orders them)",
            data={"addr": a.addr, "pcs": [first.pc, second.pc]}))

    for i, (ra, acc_a) in enumerate(accesses):
        # Self-races of a region that can be live twice concurrently.
        if conc.multi_instance.get(ra.index):
            for x in range(len(acc_a)):
                for y in range(x, len(acc_a)):
                    a, b = acc_a[x], acc_a[y]
                    if a.addr == b.addr and (a.is_store or b.is_store):
                        report(ra, a, ra, b)
        for rb, acc_b in accesses[i + 1:]:
            for a in acc_a:
                for b in acc_b:
                    if a.addr != b.addr or not (a.is_store or b.is_store):
                        continue
                    if a.pc == b.pc and a.pc in ra.pcs and a.pc in rb.pcs \
                            and not a.is_store:
                        continue       # shared load: no conflict
                    if conc.ordered(ra.index, a.pc, rb.index, b.pc):
                        continue
                    report(ra, a, rb, b)
    return out


_DeliverySite = tuple[int, int, frozenset[int]]


def _tput_sites(ctx: AnalysisContext,
                ) -> tuple[list[_DeliverySite], list[_DeliverySite]]:
    """(pc, reg index, handle defs) for every tput/tget in the program.

    A handle in s0 is the all-zero handle whatever writes s0 ignores, so
    its only definition is the thread-entry one.
    """
    puts: list[_DeliverySite] = []
    gets: list[_DeliverySite] = []

    def handle_defs(pc: int, reg: int) -> frozenset[int]:
        if reg == registers.ZERO_REG:
            return frozenset((INIT_DEF,))
        return ctx.dataflow.reaching_defs(pc, ("s", reg))

    for pc, instr in enumerate(ctx.program.instructions):
        if instr.mnemonic == "tput":
            puts.append((pc, instr.imm, handle_defs(pc, instr.rd)))
        elif instr.mnemonic == "tget":
            gets.append((pc, instr.imm, handle_defs(pc, instr.rs)))
    return puts, gets


def check_lost_delivery(ctx: AnalysisContext) -> list[Diagnostic]:
    """Register-delivery conflicts on the ``tput``/``tget`` channel.

    A ``tput`` writes directly into the target context's register file;
    nothing buffers or acknowledges it.  Four ways a delivery is lost:
    a second ``tput`` to the same register lands before the receiver
    observed the first; the receiver's own write clobbers it; nobody
    ever reads it; or a ``tget`` reads a register the source thread was
    never provably sent (the value read depends on scheduling).
    """
    out: list[Diagnostic] = []
    conc = ctx.concurrency()
    program = ctx.program
    df = ctx.dataflow
    puts, gets = _tput_sites(ctx)
    reported: set[tuple[object, ...]] = set()

    def emit(tag: str, pc: int, severity: str, message: str,
             data: dict[str, Any]) -> None:
        key = (tag, pc, data.get("reg"), tuple(data.get("pcs", ())))
        if key in reported:
            return
        reported.add(key)
        out.append(ctx.diag("lost-delivery", severity, pc, message,
                            data=data))

    def respawn_between(region: ThreadRegion, defs: frozenset[int],
                        p1: int, p2: int) -> bool:
        for d in defs:
            if d == INIT_DEF or d not in region.pcs:
                continue
            if program.instructions[d].mnemonic != "tspawn":
                continue
            if conc.may_follow(region.index, p1, d) \
                    and conc.may_follow(region.index, d, p2):
                return True      # a fresh thread is spawned in between
        return False

    def consumed_between(region: ThreadRegion, defs: frozenset[int],
                         idx: int, p1: int, p2: int) -> bool:
        for g, gidx, gdefs in gets:
            if gidx != idx or g not in region.pcs:
                continue
            if not shared_target(gdefs, defs):
                continue
            if conc.may_follow(region.index, p1, g) \
                    and conc.dominates(region.index, g, p2):
                return True
        return False

    def shared_target(defs1: frozenset[int],
                      defs2: frozenset[int]) -> bool:
        """Can the two handle-definition sets name one thread?  A shared
        ``tspawn`` definition does; so do two all-zero handles (both
        name hardware context 0)."""
        if (defs1 & defs2) - {INIT_DEF}:
            return True
        return defs1 == defs2 == frozenset((INIT_DEF,))

    # (1) overwritten deliveries.
    for region in conc.regions:
        local = [(p, idx, defs) for p, idx, defs in puts if p in region.pcs]
        for i, (p1, idx1, defs1) in enumerate(local):
            for p2, idx2, defs2 in local[i:]:
                if idx1 != idx2:
                    continue
                if not shared_target(defs1, defs2):
                    continue      # provably different targets
                follows = conc.may_follow(region.index, p1, p2)
                if p1 == p2 and not follows:
                    continue      # single straight-line delivery
                if p1 != p2 and not follows:
                    continue
                if respawn_between(region, defs2, p1, p2):
                    continue      # each iteration delivers to a new thread
                if consumed_between(region, defs1, idx1, p1, p2):
                    continue
                where = (f"{program.location_of(p1)} and "
                         f"{program.location_of(p2)}"
                         if p1 != p2 else
                         f"{program.location_of(p1)} (inside a loop)")
                emit("overwrite", max(p1, p2), "warning",
                     f"tput delivery into s{idx1} may be overwritten by a "
                     f"second tput before the receiving thread reads it: "
                     f"{where}",
                     {"reg": idx1, "pcs": sorted({p1, p2})})

    # (1b) overwrites from two different regions delivering to one target.
    for i, (p1, idx1, defs1) in enumerate(puts):
        for p2, idx2, defs2 in puts[i + 1:]:
            if idx1 != idx2 or not shared_target(defs1, defs2):
                continue
            regions1 = [r for r in conc.regions if p1 in r.pcs]
            regions2 = [r for r in conc.regions if p2 in r.pcs]
            if any(r1.index == r2.index
                   for r1 in regions1 for r2 in regions2):
                continue          # same-region pairs handled above
            if any(conc.ordered(r1.index, p1, r2.index, p2)
                   for r1 in regions1 for r2 in regions2):
                continue
            emit("overwrite", max(p1, p2), "warning",
                 f"unordered tput deliveries into s{idx1} of the same "
                 f"thread from {program.location_of(p1)} and "
                 f"{program.location_of(p2)}: one delivery is lost",
                 {"reg": idx1, "pcs": sorted({p1, p2})})

    # (2) receiver clobbers the delivery; (3) delivery never read.
    for p, idx, defs in puts:
        targets = conc.spawn_def_regions(defs)
        if not targets and defs == frozenset((INIT_DEF,)) and conc.regions:
            # A provably-zero handle delivers to hardware context 0:
            # the main thread.
            targets = [conc.regions[0]]
        for target in targets:
            kills = [w for w in sorted(target.pcs)
                     if program.instructions[w].dest_reg() == ("s", idx)]
            if kills:
                emit("clobber", p, "warning",
                     f"tput delivery into s{idx} races with the receiving "
                     f"thread's own write at "
                     f"{program.location_of(kills[0])}",
                     {"reg": idx, "pcs": sorted({p, kills[0]})})
        if targets:
            read = any(("s", idx) in program.instructions[w].src_regs()
                       for t in targets for w in t.pcs)
            round_trip = any(gidx == idx and shared_target(gdefs, defs)
                             for _, gidx, gdefs in gets)
            if not read and not round_trip:
                emit("unread", p, "warning",
                     f"tput delivery into s{idx} is never read by the "
                     f"target thread (no instruction in its region reads "
                     f"s{idx})",
                     {"reg": idx, "pcs": [p]})

    # (4) tget with no synchronizing tput.
    for g, idx, gdefs in gets:
        regions = [r for r in conc.regions if g in r.pcs]
        safe = False
        for region in regions:
            for p, pidx, pdefs in puts:
                if pidx != idx or p not in region.pcs:
                    continue
                if not (pdefs & gdefs) - {INIT_DEF}:
                    continue
                if conc.dominates(region.index, p, g):
                    safe = True
        if not safe:
            emit("unwritten", g, "warning",
                 f"tget of s{idx} is not synchronized with the source "
                 f"thread: no tput to s{idx} reaches it on every path, so "
                 f"the value read depends on scheduling",
                 {"reg": idx, "pcs": [g]})
    return out


def check_thread_lifecycle(ctx: AnalysisContext) -> list[Diagnostic]:
    """Handle-lifecycle bugs: joins on non-handles, join deadlocks,
    orphan threads.

    ``tjoin`` on a register that was never a ``tspawn`` result is an
    error (a zero handle joins hardware context 0 — the main thread —
    which deadlocks when main executes it).  A joined thread whose
    region contains no ``texit`` can never satisfy the join.  A spawned
    handle never passed to ``tjoin`` is reported at *info* severity:
    fork-and-forget workers that ``texit`` on their own are a
    legitimate pattern (the kernel library uses it), but the thread's
    results are then only visible through memory.
    """
    out: list[Diagnostic] = []
    conc = ctx.concurrency()
    program = ctx.program
    df = ctx.dataflow

    for pc, instr in enumerate(program.instructions):
        if instr.mnemonic != "tjoin":
            continue
        defs = df.reaching_defs(pc, ("s", instr.rs))
        name = registers.scalar_reg_name(instr.rs)
        producers = {program.instructions[d].mnemonic
                     for d in defs if d != INIT_DEF}
        if INIT_DEF in defs:
            out.append(ctx.diag(
                "thread-lifecycle", "error", pc,
                f"tjoin on possibly-uninitialized {name}: a zero handle "
                f"joins hardware context 0, which deadlocks when the main "
                f"thread reaches it",
                data={"pcs": [pc]}))
        elif producers and not producers & {"tspawn", "tget"}:
            where = ", ".join(program.location_of(d)
                              for d in sorted(defs)[:3])
            out.append(ctx.diag(
                "thread-lifecycle", "error", pc,
                f"tjoin on {name}, which is never a thread handle "
                f"(defined at {where})",
                data={"pcs": [pc]}))
        elif "tget" in producers:
            out.append(ctx.diag(
                "thread-lifecycle", "info", pc,
                f"tjoin on {name} received via tget: join cycles through "
                f"forwarded handles cannot be ruled out statically",
                data={"pcs": [pc]}))
        # Join deadlock: the joined region can never exit.
        for target in conc.spawn_def_regions(defs):
            mnems = {program.instructions[w].mnemonic for w in target.pcs}
            if "texit" in mnems:
                continue
            severity = "warning" if "halt" in mnems else "error"
            out.append(ctx.diag(
                "thread-lifecycle", severity, pc,
                f"join deadlock: {target.name} contains no texit on any "
                f"path, so this tjoin can never complete"
                + (" (a halt would stop the whole machine instead)"
                   if severity == "warning" else ""),
                data={"pcs": [pc]}))

    for pc, instr in enumerate(program.instructions):
        if instr.mnemonic != "tspawn":
            continue
        uses = df.uses_of_def.get(pc, [])
        joined = any(program.instructions[upc].mnemonic == "tjoin"
                     for upc, _reg in uses)
        if not joined:
            out.append(ctx.diag(
                "thread-lifecycle", "info", pc,
                "spawned thread is never joined: it must texit on its own "
                "and its results are only visible through memory or tget",
                data={"pcs": [pc]}))
    return out
