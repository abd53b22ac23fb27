"""Compositional static timing analysis.

The cycle-accurate core (:mod:`repro.core.processor`) discovers every
stall dynamically, instruction by instruction.  For a *single* runnable
thread, though, the pipeline is a deterministic function of (a) the
program text, (b) the machine configuration, and (c) the dynamically
taken block path — so timing can be made a *static* artifact.

This module computes, for every basic block of
:mod:`repro.analysis.cfg`, a **pipeline-state transfer summary**: given
the pipeline state at block entry (in-flight register writes still on
their way to a forwarding path, structural-unit busy windows), replay
the block's issue schedule once and record

* the issue-slot occupancy (relative issue cycle of every instruction,
  hence the block's ``advance`` — how far the issue clock moves),
* the stall cycles charged per hazard bucket (the paper's Figure-2
  taxonomy, exactly as the core attributes them),
* the pipeline state at block exit, *normalized* so that any in-flight
  write or busy window that provably can no longer delay a future
  instruction is dropped.

Because the normalized exit state is finite and small, summaries are
memoized on ``(block, entry state, control event)`` and whole-program
cycle counts are obtained by **folding** summaries along the dynamic
block path — the list of branch outcomes / ``jr`` targets recorded by
the fast backend's functional run (see :meth:`TimingAnalysis.fold` for
the event format).  The fold reproduces the core's counters bit-for-bit:
cycles, issue/idle slots, per-bucket wait cycles, and reduction-unit
uses.  Every per-instruction fact comes from the core's own per-pc
timing table (:class:`repro.core.timing.TimingModel`) and the readiness
rule its entries carry compiled (``InstrTiming.ready``).

The block transfer is the only static replay of the pipeline.  Three
more consumers read it besides the fold:

* lint's stall estimate (:func:`repro.analysis.hazards.estimate_stalls`)
  replays each block with a per-instruction detail list and pins every
  wait on its binding producer;
* :func:`static_cycle_bound` folds the summaries over every path of an
  acyclic CFG, so its bound is the exact worst case over those paths
  (lint check ``static-cycle-bound``);
* :func:`check_static_timing_bound` iterates a self-loop's summary to
  its pipeline-state fixpoint, giving loops an exact steady-state
  per-iteration cycle count and stall attribution (single-threaded).

Soundness of the normalization (why pruning cannot change timing): a
consumer issued at or after the block's exit base ``t2`` binds a RAW
entry only when ``result + 1 - read_off > ready >= t2``; with scalar
reads at ``d + 2`` and parallel/flag reads at ``d + b + 3``, entries
with ``result <= t2 + 1`` (scalar) or ``result <= t2 + b + 2``
(parallel/flag) can never bind.  The WAW bound uses the *minimum*
consumer writeback offset per register file (3 scalar, ``b + 4``
parallel/flag).  Structural windows with ``busy_until <= t2`` likewise
never bind.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.analysis.cfg import CFG, build_cfg
from repro.asm.program import Program
from repro.core import stats as st
from repro.core.config import ProcessorConfig
from repro.core.processor import SimTimeout, SimulationError
from repro.core.stats import Stats
from repro.core.timing import (
    K_BRANCH,
    K_HALT,
    K_JR,
    K_JUMP,
    K_TEXIT,
    K_TJOIN,
    K_TPUT,
    ScoreEntry,
    TimingModel,
    UNIT_NAMES,
)

if TYPE_CHECKING:
    from repro.analysis.lint import AnalysisContext, Diagnostic

__all__ = [
    "BlockSummary",
    "EMPTY_STATE",
    "PipelineState",
    "Prefix",
    "TimingAnalysis",
    "check_static_cycle_bound",
    "check_static_timing_bound",
    "check_unreachable_block",
    "static_cycle_bound",
]

# How a block (and possibly the run) ends.
END_NONE = 0
END_HALT = 1
END_EXIT = 2

# Pipeline state at a block boundary, relative to the boundary's issue
# base: in-flight writes as (reg key, result, writeback, producer class)
# and busy units as (unit id, busy_until); both sorted, hence hashable
# and canonical.
ScoreItem = tuple[int, int, int, int]
UnitItem = tuple[int, int]
PipelineState = tuple[tuple[ScoreItem, ...], tuple[UnitItem, ...]]

EMPTY_STATE: PipelineState = ((), ())


@dataclass(frozen=True)
class BlockSummary:
    """Transfer summary of one block under one entry state + event."""

    advance: int                     # exit issue base relative to entry base
    last_rel: int                    # relative issue cycle of the last instr
    next_pc: int                     # successor pc (meaningless if end != 0)
    end: int                         # END_NONE / END_HALT / END_EXIT
    issued: int
    counts: tuple[int, int, int]     # scalar / parallel / reduction issues
    waits: tuple[tuple[str, int], ...]
    runits: tuple[tuple[str, int], ...]
    exit_state: PipelineState


class Prefix(NamedTuple):
    """A folded run, or the prefix of one, in absolute cycles: what the
    cycle core's state holds once the last folded instruction issued.

    ``stats`` are the core's counters at that point (``cycles`` and
    ``issue_slots`` are set only when the run ended); ``last_issue`` is
    the cycle of the last issue (0 before any), ``base`` thread 0's
    earliest next issue, ``score`` its scoreboard and ``units`` the busy
    window of each structural unit, less what cannot bind an issue at or
    after ``base``.
    """

    stats: Stats
    last_issue: int
    base: int
    score: dict[int, ScoreEntry]
    units: list[int]


EventKey = bool | int | None

# One issue of a detail replay: (pc, relative issue cycle, wait cause or
# None, wait cycles, register key of the binding producer or -1).
IssueDetail = tuple[int, int, str | None, int, int]


class TimingAnalysis:
    """Compositional block summaries + the path fold over them."""

    def __init__(self, program: Program,
                 config: ProcessorConfig | None = None,
                 cfg: CFG | None = None) -> None:
        self.program = program
        self.config = config or ProcessorConfig()
        self.cfg = cfg if cfg is not None else build_cfg(program)
        self.model = TimingModel(program, self.config)
        n = len(program.instructions)
        self._block_end = [0] * n
        self._block_index = [0] * n
        for bi, block in enumerate(self.cfg.blocks):
            for pc in block.range:
                self._block_end[pc] = block.end
                self._block_index[pc] = bi
        self._memo: dict[tuple[int, EventKey, PipelineState],
                         BlockSummary] = {}

    # -- summaries -----------------------------------------------------------

    def block_summary(self, start: int, entry: PipelineState,
                      event: EventKey) -> BlockSummary:
        """Memoized transfer of the block containing ``start``.

        ``event`` is the normalized dynamic fact for the block's
        terminator: taken? for a branch, the target pc for ``jr``,
        self-delivery? for ``tput``, None otherwise.  ``start`` may be
        any pc (a ``jr`` can land mid-block); the replay runs to the end
        of the containing block.
        """
        key = (start, event, entry)
        cached = self._memo.get(key)
        if cached is None:
            # One summary per key even when threads fold at once.
            cached = self._memo.setdefault(
                key, self._transfer(start, event, entry))
        return cached

    def _transfer(self, start: int, event: EventKey, entry: PipelineState,
                  detail: list[IssueDetail] | None = None,
                  stop: int | None = None) -> BlockSummary:
        """Replay the block's issue schedule from a relative clock of 0.

        The core's issue loop (:meth:`repro.core.processor.Processor.run`)
        for a single runnable thread whose entry issue base is cycle 0:
        the same per-pc table, the same readiness rule, the same wait
        accounting.  When ``detail`` is given, one :data:`IssueDetail`
        per issued instruction is appended to it.  With ``stop`` the
        replay ends before that pc, ahead of the block's terminator.
        """
        model = self.model
        table = model.table
        end = self._block_end[start] if stop is None else stop
        score: dict[int, tuple[int, int, int]] = {
            k: (res, wb, pk) for (k, res, wb, pk) in entry[0]}
        units = [0] * len(UNIT_NAMES)
        for uid, until in entry[1]:
            units[uid] = until
        min_issue = 0
        last = -1
        waits: dict[str, int] = {}
        counts = [0, 0, 0]
        runits: dict[str, int] = {}
        issued = 0
        run_end = END_NONE
        next_pc = end
        pc = start
        while pc < end:
            it = table[pc] or model.entry(pc)
            if it.raises is not None:
                raise SimulationError(it.raises)
            base = min_issue if min_issue > last + 1 else last + 1
            cycle, cause, _, _, binding = it.ready(score, base, units)
            if detail is not None:
                detail.append((pc, cycle, cause, cycle - base, binding))
            if cause is not None and cycle > base:
                waits[cause] = waits.get(cause, 0) + (cycle - base)
            if it.unit >= 0:
                units[it.unit] = cycle + it.occupancy
            if it.dest >= 0:
                score[it.dest] = (cycle + it.roff, cycle + it.wb, it.klass)
            kind = it.kind
            resolve = it.resolve_not_taken
            if kind == K_BRANCH:
                if event:
                    resolve = it.resolve_taken
                    next_pc = it.target
                else:
                    next_pc = pc + 1
            elif kind == K_JUMP:
                next_pc = it.target
            elif kind == K_JR:
                assert isinstance(event, int)
                next_pc = event
            elif kind == K_TPUT:
                # The core reads the handle again *after* execute when it
                # notes the delivery in the receiver's scoreboard; the
                # event is that post-execute target.  Only a
                # self-delivery lands on this thread's scoreboard.
                if event:
                    score[it.imm] = (cycle + 2, cycle + 3, it.klass)
                next_pc = pc + 1
            elif kind == K_HALT:
                run_end = END_HALT
            elif kind == K_TEXIT:
                run_end = END_EXIT
            min_issue = cycle + resolve
            if resolve > 1:
                waits[st.STALL_CONTROL] = (
                    waits.get(st.STALL_CONTROL, 0) + resolve - 1)
            last = cycle
            issued += 1
            counts[it.klass] += 1
            if it.runit is not None:
                runits[it.runit] = runits.get(it.runit, 0) + 1
            pc += 1
        t2 = min_issue if min_issue > last + 1 else last + 1
        return BlockSummary(
            advance=t2,
            last_rel=last,
            next_pc=next_pc,
            end=run_end,
            issued=issued,
            counts=(counts[0], counts[1], counts[2]),
            waits=tuple(sorted(waits.items())),
            runits=tuple(sorted(runits.items())),
            exit_state=self._normalize(score, units, t2),
        )

    def _normalize(self, score: dict[int, tuple[int, int, int]],
                   units: list[int], t2: int) -> PipelineState:
        """Drop state that provably cannot delay any instruction >= t2."""
        b = self.config.broadcast_depth
        keep: list[ScoreItem] = []
        for key, (res, wb, pk) in score.items():
            if key < 32:                   # scalar file
                if res <= t2 + 1 and wb <= t2 + 2:
                    continue
            else:                          # parallel / flag files
                if res <= t2 + b + 2 and wb <= t2 + b + 3:
                    continue
            keep.append((key, res - t2, wb - t2, pk))
        keep.sort()
        busy = tuple((uid, until - t2) for uid, until in enumerate(units)
                     if until > t2)
        return (tuple(keep), busy)

    # -- the path fold -------------------------------------------------------

    def fold(self, events: list[int], max_cycles: int | None = None,
             stop: int | None = None) -> Prefix:
        """Cycle-exact statistics and pipeline state from a recorded block
        path.

        ``events`` is the main thread's event stream from a single-thread
        run while it is the only live thread: one plain ``int`` per
        executed event instruction, in program order, whose meaning the
        instruction kind at that pc fixes:

        * a branch — 1 if taken, else 0;
        * ``jr`` — the resolved next pc;
        * ``tput`` — the target tid (``rd % num_threads``) read *after*
          the delivery executes, because that is when the cycle core
          reads the handle again to note the delivery in the receiver's
          scoreboard (a self-delivery into ``rd`` changes the answer);
        * ``tjoin`` — the target tid, a free context: the join completes.

        Everything else needs no event: the block path is fully
        determined by these plus the program text.  ``stop`` is the pc
        the run stopped before, at an event only the issue loop handles
        (a ``tspawn``, an op the machine lacks, a join of a live context,
        a pc outside the program): the fold then ends there, replaying
        the last block up to ``stop``, and the core carries on from the
        returned :class:`Prefix`.  Without ``stop`` the run ended
        (``halt`` or ``texit``), or its stream was cut at the watchdog.
        Raises :class:`SimTimeout` with the cycle core's message when an
        issue of the folded path lands past ``max_cycles``.
        """
        program = self.program
        n = len(program.instructions)
        limit = (max_cycles if max_cycles is not None
                 else self.config.max_cycles)
        t = 1                        # issue base of the next block (abs)
        last_abs = 0                 # last issue cycle so far (abs)
        pc = program.entry
        state = EMPTY_STATE
        idx = 0
        ended = False
        # The previous block's summary fixes the next block's pc and
        # entry state, so (id of the previous summary, event) names the
        # next summary without hashing the state again.  Each link counts
        # its uses; the counters are summed once per link after the walk.
        links: dict[tuple[int, EventKey], list] = {}
        prev = 0
        model = self.model
        table = model.table
        memo = self._memo
        block_end = self._block_end
        while 0 <= pc < n:
            end = block_end[pc] - 1
            event: EventKey = None
            consumes = False
            upto: int | None = None
            if idx == len(events) and stop is not None and pc <= stop <= end:
                # The last block: the run stopped before ``stop``.
                if stop == pc:
                    break
                upto = stop
                link = links[(-1, None)] = [
                    self._transfer(pc, None, state, stop=stop), 0]
            else:
                term = table[end] or model.entry(end)
                if term.kind == K_BRANCH:
                    consumes = True
                    event = idx < len(events) and bool(events[idx])
                elif term.kind == K_JR:
                    consumes = True
                    event = events[idx] if idx < len(events) else 0
                elif term.kind == K_TPUT:
                    consumes = True
                    event = idx < len(events) and events[idx] == 0
                elif term.kind == K_TJOIN:
                    consumes = True
                link = links.get((prev, event))
                if link is None:
                    s = memo.get((pc, event, state))
                    if s is None:
                        try:
                            s = self.block_summary(pc, state, event)
                        except SimulationError:
                            # An op the machine lacks, beyond where the
                            # watchdog cut the stream.
                            raise self._timeout(pc, event, state, t,
                                                limit) from None
                    link = links[(prev, event)] = [s, 0]
            s = link[0]
            if t + s.last_rel > limit:
                raise self._timeout(pc, event, state, t, limit, upto)
            if consumes:
                idx += 1
            link[1] += 1
            last_abs = t + s.last_rel
            t += s.advance
            state = s.exit_state
            if upto is not None:
                break
            if s.end != END_NONE:
                ended = True
                break
            if prev == id(s) and event is True:
                # A one-block self-loop whose link led back to its own
                # summary: every further taken outcome repeats that link.
                # Take the run of them at once, but only the iterations
                # whose last issue fits under the watchdog, so the one
                # that crosses it is replayed (and raises) as usual.
                try:
                    run = events.index(0, idx) - idx
                except ValueError:
                    run = len(events) - idx
                k = min(run, (limit - t - s.last_rel) // s.advance + 1)
                if k > 0:
                    idx += k
                    link[1] += k
                    last_abs = t + (k - 1) * s.advance + s.last_rel
                    t += k * s.advance
            prev = id(s)
            pc = s.next_pc
        issued_total = 0
        counts = [0, 0, 0]
        waits: Counter[str] = Counter()
        runits: Counter[str] = Counter()
        for s, times in links.values():
            issued_total += s.issued * times
            for i in range(3):
                counts[i] += s.counts[i] * times
            for cause, cnt in s.waits:
                waits[cause] += cnt * times
            for name, cnt in s.runits:
                runits[name] += cnt * times
        stats = Stats()
        width = self.config.issue_width
        if ended:
            stats.cycles = last_abs
            stats.issue_slots = last_abs * width
        stats.instructions = issued_total
        stats.scalar_instructions = counts[0]
        stats.parallel_instructions = counts[1]
        stats.reduction_instructions = counts[2]
        stats.idle_slots = last_abs * width - issued_total
        if issued_total:
            stats.per_thread_issued[0] = issued_total
        stats.wait_cycles = waits
        stats.reduction_unit_uses = runits
        units = [0] * len(UNIT_NAMES)
        for uid, until in state[1]:
            units[uid] = t + until
        return Prefix(stats, last_abs, t,
                      {key: (t + res, t + wb, pk)
                       for key, res, wb, pk in state[0]}, units)

    def _timeout(self, pc: int, event: EventKey, state: PipelineState,
                 t: int, limit: int, stop: int | None = None) -> SimTimeout:
        """The core's watchdog error for the block from ``pc``, entered at
        issue base ``t``, some issue of which lands past ``limit``.

        The issue cycles within a block do not depend on the terminator
        event, so a detail replay pinpoints the first such issue even on
        a stream cut at the watchdog, ahead of any op the machine lacks.
        """
        detail: list[IssueDetail] = []
        try:
            self._transfer(pc, event, state, detail, stop)
        except SimulationError:
            pass
        ipc = next(ipc for ipc, rel, *_ in detail if t + rel > limit)
        return SimTimeout(f"exceeded max_cycles={limit}; "
                          f"live threads at {[ipc]}")


# ---------------------------------------------------------------------------
# Static worst-case cycle bound
# ---------------------------------------------------------------------------

def _topological_order(cfg: CFG) -> list[int] | None:
    """Blocks reachable from the entries in topological order, or None
    when the reachable graph has a cycle (Kahn's algorithm)."""
    reach = cfg.reachable()
    indegree = dict.fromkeys(reach, 0)
    for bi in reach:
        for succ in cfg.succs[bi]:
            indegree[succ] += 1
    order = [bi for bi in sorted(reach) if not indegree[bi]]
    for bi in order:                    # grows while it is walked
        for succ in cfg.succs[bi]:
            indegree[succ] -= 1
            if not indegree[succ]:
                order.append(succ)
    return order if len(order) == len(reach) else None


def static_cycle_bound(program: Program, config: ProcessorConfig,
                       analysis: TimingAnalysis | None = None) -> int | None:
    """Exact worst-case cycle count over every CFG path, or None when no
    finite static bound exists.

    None for loops, indirect jumps, thread operations (a ``tjoin`` or
    ``tget`` can block indefinitely), ops the machine cannot execute and
    ``model_fetch`` machines (the summaries do not model fetch).
    Otherwise the block summaries are folded over the acyclic CFG in
    topological order, both outcomes of every branch, keeping the latest
    entry cycle per (block, entry state): the result is the latest last
    issue over all paths, which is the core's cycle count on the slowest
    path.  Sound, and equal to the measured cycles of straight-line code.
    """
    if config.model_fetch:
        return None
    if analysis is None:
        analysis = TimingAnalysis(program, config)
    cfg = analysis.cfg
    if cfg.has_indirect or any(instr.spec.is_thread_op
                               for instr in program.instructions):
        return None
    if not cfg.blocks:
        return 0
    order = _topological_order(cfg)
    if order is None:
        return None
    n = len(program.instructions)
    block_index = analysis._block_index
    # Block index -> {entry state: latest entry cycle over the paths}.
    entries: list[dict[PipelineState, int]] = [{} for _ in cfg.blocks]
    entries[cfg.entry_blocks[0]][EMPTY_STATE] = 1
    worst = 0
    try:
        for bi in order:
            block = cfg.blocks[bi]
            term = analysis.model.entry(block.end - 1)
            events: tuple[EventKey, ...] = (
                (True, False) if term.kind == K_BRANCH else (None,))
            for state, t in entries[bi].items():
                for event in events:
                    s = analysis.block_summary(block.start, state, event)
                    worst = max(worst, t + s.last_rel)
                    if s.end != END_NONE or not 0 <= s.next_pc < n:
                        continue            # the path ends here
                    succ = entries[block_index[s.next_pc]]
                    if succ.get(s.exit_state, 0) < t + s.advance:
                        succ[s.exit_state] = t + s.advance
    except SimulationError:
        return None                     # op not executable on this machine
    return worst


# ---------------------------------------------------------------------------
# Lint checks (registered in repro.analysis.lint.ALL_CHECKS)
# ---------------------------------------------------------------------------

def check_unreachable_block(ctx: "AnalysisContext") -> list["Diagnostic"]:
    """Blocks only infeasible branch edges reach.

    A feasibility layer over the interval domain: branches whose
    condition is provably constant have their dead edge pruned, and
    blocks that only dead edges reach are reported.  Complements
    ``unreachable-code`` (pure graph reachability) — blocks that check
    already flags are skipped.  Indirect jumps disable the check (any
    pc could be a ``jr`` target).
    """
    cfg = ctx.cfg
    if cfg.has_indirect:
        return []
    program = ctx.program
    absres = ctx.absint()
    graph_reach = cfg.reachable()
    succs: dict[int, list[int]] = {
        bi: list(cfg.succs.get(bi, [])) for bi in range(len(cfg.blocks))}
    pruned: list[tuple[int, int, int, bool]] = []
    by_start = {blk.start: i for i, blk in enumerate(cfg.blocks)}
    for bi in sorted(graph_reach):
        block = cfg.blocks[bi]
        term_pc = block.end - 1
        instr = program.instructions[term_pc]
        if not instr.spec.is_branch:
            continue
        verdict = absres.branch_verdict(term_pc)
        if verdict is None:
            continue
        target_bi = by_start.get(term_pc + 1 + instr.imm)
        fall_bi = by_start.get(block.end)
        dead_bi = fall_bi if verdict else target_bi
        if dead_bi is None or dead_bi == (target_bi if verdict else fall_bi):
            continue
        if dead_bi in succs[bi]:
            succs[bi].remove(dead_bi)
            pruned.append((bi, dead_bi, term_pc, verdict))
    if not pruned:
        return []
    feasible: set[int] = set()
    work = list(cfg.entry_blocks)
    while work:
        bi = work.pop()
        if bi in feasible:
            continue
        feasible.add(bi)
        work.extend(succs.get(bi, ()))
    out: list["Diagnostic"] = []
    pruned_json = [{"from_block": a, "to_block": d, "branch_pc": pc,
                    "always_taken": verdict}
                   for a, d, pc, verdict in pruned]
    for bi in sorted(graph_reach - feasible):
        block = cfg.blocks[bi]
        out.append(ctx.diag(
            "unreachable-block", "warning", block.start,
            f"block pc {block.start}..{block.end - 1} is unreachable "
            f"under branch feasibility: every path to it crosses a "
            f"branch whose condition is provably constant",
            data={"block": bi, "pruned_edges": pruned_json}))
    return out


def check_static_cycle_bound(ctx: "AnalysisContext") -> list["Diagnostic"]:
    """Programs whose worst-case path runs past ``max_cycles``.

    The bound is exact on that path, so the watchdog kills every run
    that takes it — every run, for straight-line code."""
    bound = static_cycle_bound(ctx.program, ctx.config, ctx.timing())
    if bound is None or bound <= ctx.config.max_cycles:
        return []
    pc = ctx.program.entry if ctx.program.instructions else 0
    return [ctx.diag(
        "static-cycle-bound", "warning", pc,
        f"the slowest path through the program takes {bound} cycles, "
        f"more than max_cycles={ctx.config.max_cycles}: the watchdog "
        f"will kill every run that takes it (every run, in "
        f"straight-line code)",
        data={"bound": bound, "max_cycles": ctx.config.max_cycles})]


def check_static_timing_bound(ctx: "AnalysisContext") -> list["Diagnostic"]:
    """Exact per-loop stall attribution from the timing summaries.

    For every reachable self-loop (a block whose terminating branch
    targets its own start), iterate the block's transfer summary to its
    pipeline-state fixpoint and report — at *info* severity, matching
    the unguarded-reduction diagnostics it upgrades — the steady-state
    cycles per iteration and the exact stall breakdown a single thread
    pays, naming the dominant hazard bucket.
    """
    if ctx.config.model_fetch:
        return []
    out: list["Diagnostic"] = []
    analysis = ctx.timing()
    for bi in sorted(ctx.cfg.reachable()):
        block = ctx.cfg.blocks[bi]
        term_pc = block.end - 1
        instr = ctx.program.instructions[term_pc]
        if not instr.spec.is_branch:
            continue
        if term_pc + 1 + instr.imm != block.start:
            continue
        state = EMPTY_STATE
        summary: BlockSummary | None = None
        try:
            for _ in range(16):
                nxt = analysis.block_summary(block.start, state, True)
                if nxt.exit_state == state:
                    summary = nxt
                    break
                state = nxt.exit_state
        except SimulationError:
            continue                 # op not executable on this machine
        if summary is None:
            continue                 # no small fixpoint; stay silent
        stalls = dict(summary.waits)
        total = sum(stalls.values())
        if not total:
            continue
        dominant = sorted(stalls.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        out.append(ctx.diag(
            "static-timing-bound", "info", block.start,
            f"loop at {ctx.program.location_of(block.start)} settles at "
            f"{summary.advance} cycles/iteration single-threaded, "
            f"{total} of them stalls (dominant: {dominant[0]}, "
            f"{dominant[1]} cycle{'s' if dominant[1] != 1 else ''}/iter)",
            data={"block": bi, "loop_header_pc": block.start,
                  "cycles_per_iteration": summary.advance,
                  "stalls": stalls,
                  "dominant_stall": dominant[0]}))
    return out
