"""The ``repro lint`` pass manager and its checks.

Each check is a function ``(AnalysisContext) -> list[Diagnostic]``
registered in :data:`ALL_CHECKS`.  Checks are purely static — they
consume the CFG, the dataflow result, and the machine configuration,
never an execution.  Diagnostics carry full source provenance via the
assembler's ``source_map``.

Checks
------
``uninitialized-read``
    A register (or execution-mask flag) is read on some path before any
    instruction writes it.  All registers reset to zero at thread
    start, so this is legal — but almost always a latent bug, and for
    mask flags it silently deactivates every PE.  Registers delivered
    by ``tput`` inter-thread communication are exempt.
``unreachable-code``
    A basic block no entry (program start or ``tspawn`` target) can
    reach.  ``jal`` is treated as a call (its fall-through stays
    reachable); ``jr`` has no static successors.
``mask-scope``
    A *masked* write to a flag register whose prior value was not
    unconditionally cleared (``fclr``) or set (``fset``): PEs outside
    the mask keep stale responder bits, the classic associative-code
    bug (the paper's search idiom is fclr -> masked compare -> reduce).
``thread-context``
    A thread handle produced by ``tspawn`` is used with ``tput`` /
    ``tget`` / ``tjoin`` after a ``tjoin`` on the same handle already
    released the context.
``cross-thread-race``
    Two thread regions access the same statically-known scalar-memory
    word, at least one writing, with no spawn/join happens-before edge
    ordering them (:mod:`repro.analysis.concurrency`).  Supersedes the
    PR-1 ``scalar-mem-race`` check.  Addresses are resolved only when
    the base register's value is a compile-time constant; unknown
    addresses are never reported (the check under-approximates rather
    than cry wolf).
``lost-delivery``
    ``tput``/``tget`` register-delivery conflicts: a delivery
    overwritten before the receiver reads it, clobbered by the
    receiver's own write, never read at all, or a ``tget`` with no
    synchronizing ``tput`` on every path.
``thread-lifecycle``
    Handle-lifecycle bugs: ``tjoin`` on a value that is not (or may
    not be) a thread handle, joins that can never complete because the
    target region has no ``texit``, and (at *info* severity) spawned
    threads that are never joined.
``unguarded-reduction``
    A masked value reduction (``rmax``, ``rsum``, ...) whose responder
    flag is never tested with ``rany``/``rcount`` anywhere in the
    program.  An empty responder set returns the unit's identity
    element, which silently poisons downstream arithmetic — the same
    hazard class fault campaigns classify as silent data corruption.
    Reported at *info* severity: many kernels guarantee a non-empty
    responder set by construction.
``lmem-out-of-bounds``
    A ``plw``/``psw`` whose abstract address interval
    (:mod:`repro.analysis.absint`) proves the access faults: *error*
    when every address in the interval is outside local memory,
    *warning* when a constrained interval partially escapes.
``width-overflow``
    Arithmetic that provably wraps at the configured word width: an
    ``add``/``mul`` whose interval lower bounds already exceed the word
    mask, a ``sub`` that must borrow, a shift whose constant count
    discards every bit, or a ``lui`` at a width that cannot hold any
    upper-immediate bits.
``dead-search``
    A reduction whose execution mask — or, for ``rcount``/``rany``/
    ``rfirst``, the flag being tested — is *provably* all-zero in the
    abstract state: the search can never respond and the reduction
    returns its identity element unconditionally.
``static-cycle-bound``
    For acyclic single-thread programs, the slowest path through the CFG
    takes more than ``max_cycles`` cycles (the block timing summaries of
    :mod:`repro.analysis.timing` price every path exactly): the watchdog
    kills every run that takes that path — every run, in straight-line
    code.
``unreachable-block``
    A block the plain CFG reaches but branch *feasibility* does not:
    some branch condition is provably constant in the interval domain,
    and every path to the block crosses such a branch's dead edge.
    Complements ``unreachable-code`` (pure graph reachability).
``static-timing-bound``
    Exact steady-state timing for self-loop blocks: the loop's
    per-iteration cycle count once the pipeline state reaches its
    fixpoint, with per-bucket stall attribution
    (:mod:`repro.analysis.timing`) — upgrading the info-level hazard
    diagnostics with the cycle-exact cost the core would measure.

Suppression
-----------
A diagnostic can be acknowledged in the assembly source with a tracked
annotation: any instruction whose source line contains
``lint: allow(<check-name>)`` (inside a ``#`` comment) has that check's
diagnostics filtered from the report.  The annotation is per-line and
per-check, so suppressions stay visible at the offending site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.absint import (
    AbsintResult,
    analyze_intervals,
    check_dead_search,
    check_lmem_out_of_bounds,
    check_width_overflow,
)
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.concurrency import (
    ConcurrencyAnalysis,
    check_cross_thread_race,
    check_lost_delivery,
    check_thread_lifecycle,
)
from repro.analysis.dataflow import (
    INIT_DEF,
    DataflowResult,
    analyze_dataflow,
)
from repro.analysis.hazards import (
    HazardEdge,
    StallEstimate,
    estimate_stalls,
    hazard_edges,
)
from repro.analysis.timing import (
    TimingAnalysis,
    check_static_cycle_bound,
    check_static_timing_bound,
    check_unreachable_block,
)
from repro.asm.program import Program
from repro.core.config import ProcessorConfig
from repro.isa import registers

SEVERITIES = ("error", "warning", "info")

# Version of the ``repro lint --json`` report layout.  Bumped to 2 when
# the report header gained the resolved machine configuration and
# diagnostics gained the optional structured ``data`` payload.
LINT_JSON_SCHEMA = 2


@dataclass
class Diagnostic:
    """One lint finding, with source provenance.

    ``data`` is an optional structured payload (e.g. the racing memory
    address and the pcs of both accesses) used by tooling and the
    static/dynamic cross-validation tests; it is emitted in JSON only
    when present, so reports without it are unchanged.
    """

    check: str
    severity: str
    pc: int
    message: str
    lineno: int | None = None
    source: str | None = None
    data: dict[str, Any] | None = None

    def format(self, filename: str = "<program>") -> str:
        loc = (f"{filename}:{self.lineno}" if self.lineno is not None
               else f"{filename}:pc={self.pc}")
        out = f"{loc}: {self.severity}[{self.check}]: {self.message}"
        if self.source:
            out += f"\n    {self.source.strip()}"
        return out

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "check": self.check,
            "severity": self.severity,
            "pc": self.pc,
            "lineno": self.lineno,
            "source": self.source.strip() if self.source else None,
            "message": self.message,
        }
        if self.data is not None:
            out["data"] = self.data
        return out


@dataclass
class AnalysisContext:
    """Shared analysis state handed to every check."""

    program: Program
    config: ProcessorConfig
    cfg: CFG = field(init=False)
    dataflow: DataflowResult = field(init=False)
    _concurrency: ConcurrencyAnalysis | None = field(init=False,
                                                    default=None, repr=False)
    _absint: AbsintResult | None = field(init=False, default=None,
                                         repr=False)
    _timing: TimingAnalysis | None = field(init=False, default=None,
                                           repr=False)

    def __post_init__(self) -> None:
        self.cfg = build_cfg(self.program)
        self.dataflow = analyze_dataflow(self.cfg)

    def concurrency(self) -> ConcurrencyAnalysis:
        """Spawn graph + happens-before facts, built once per context."""
        if self._concurrency is None:
            self._concurrency = ConcurrencyAnalysis(
                self.program, self.cfg, self.dataflow)
        return self._concurrency

    def absint(self) -> AbsintResult:
        """Abstract-interpretation fixpoint, computed once per context."""
        if self._absint is None:
            self._absint = analyze_intervals(self.program, self.config,
                                             self.cfg)
        return self._absint

    def timing(self) -> TimingAnalysis:
        """Block timing summaries, built once per context: the stall
        estimate, the hazard edges and both timing checks read them."""
        if self._timing is None:
            self._timing = TimingAnalysis(self.program, self.config,
                                          self.cfg)
        return self._timing

    def diag(self, check: str, severity: str, pc: int, message: str,
             data: dict[str, Any] | None = None) -> Diagnostic:
        src = self.program.source_map.get(pc)
        return Diagnostic(check, severity, pc, message,
                          lineno=src.lineno if src else None,
                          source=src.text if src else None,
                          data=data)


@dataclass
class LintReport:
    """Diagnostics plus the hazard/stall analysis for one program."""

    diagnostics: list[Diagnostic]
    estimate: StallEstimate
    hazards: list[HazardEdge]

    @property
    def findings(self) -> list[Diagnostic]:
        """Diagnostics that count as failures under ``--strict``."""
        return [d for d in self.diagnostics
                if d.severity in ("error", "warning")]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

_HARDWIRED = {("s", registers.ZERO_REG), ("p", registers.ZERO_REG),
              ("f", registers.ALWAYS_FLAG)}


def check_uninitialized_read(ctx: AnalysisContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    df = ctx.dataflow
    program = ctx.program
    reach = ctx.cfg.reachable()
    for bi in sorted(reach):
        block = ctx.cfg.blocks[bi]
        for pc in block.range:
            instr = program.instructions[pc]
            for reg in instr.src_regs():
                if reg in _HARDWIRED:
                    continue
                if reg[0] == "s" and reg[1] in df.tput_regs:
                    continue      # delivered by inter-thread tput
                defs = df.reaching_defs(pc, reg)
                if INIT_DEF not in defs:
                    continue
                name = registers.REGFILE_NAMERS[reg[0]](reg[1])
                if reg[0] == "f" and instr.spec.masked \
                        and reg == ("f", instr.mf):
                    msg = (f"execution mask {name} may be read before "
                           f"any write; unset mask bits deactivate "
                           f"their PEs")
                else:
                    only = "" if len(defs) > 1 else "every path"
                    msg = (f"{name} may be read before any write "
                           f"({'on some path' if only == '' else only}"
                           f"; registers reset to zero at thread start)")
                out.append(ctx.diag("uninitialized-read", "warning", pc,
                                    msg))
    return out


def check_unreachable_code(ctx: AnalysisContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for bi in ctx.cfg.unreachable_blocks():
        block = ctx.cfg.blocks[bi]
        out.append(ctx.diag(
            "unreachable-code", "warning", block.start,
            f"unreachable code: no entry or spawn target reaches "
            f"pc {block.start}..{block.end - 1}"))
    return out


_CLEARING = ("fclr", "fset")


def check_mask_scope(ctx: AnalysisContext) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    df = ctx.dataflow
    program = ctx.program
    for bi in sorted(ctx.cfg.reachable()):
        for pc in ctx.cfg.blocks[bi].range:
            instr = program.instructions[pc]
            dest = instr.dest_reg()
            if dest is None or dest[0] != "f":
                continue
            if not instr.spec.masked or instr.mf == registers.ALWAYS_FLAG:
                continue          # unmasked writes update every PE
            # The write is partial.  Find what the untouched PEs keep:
            # any reaching def that is not an unconditional clear/set
            # leaves stale responder bits behind.
            stale = []
            for d in df.reaching_defs(pc, dest):
                if d == INIT_DEF:
                    continue      # zero-initialized == cleared
                producer = program.instructions[d]
                if producer.mnemonic in _CLEARING \
                        and producer.dest_reg() == dest:
                    continue
                stale.append(d)
            if not stale:
                continue
            name = registers.flag_reg_name(dest[1])
            mask = registers.flag_reg_name(instr.mf)
            where = ", ".join(
                program.location_of(d) for d in sorted(stale)[:3])
            out.append(ctx.diag(
                "mask-scope", "warning", pc,
                f"masked write to {name} under [{mask}] merges with "
                f"stale values from {where}; PEs outside the mask keep "
                f"their old {name} — insert 'fclr {name}' if "
                f"unintended"))
    return out


def check_thread_context(ctx: AnalysisContext) -> list[Diagnostic]:
    """Use of a thread handle after ``tjoin`` released the context.

    Forward dataflow over scalar registers with the tiny lattice
    unknown < handle(pc) < released(pc); merges of unequal states fall
    to unknown so the check cannot false-positive.
    """
    out: list[Diagnostic] = []
    program = ctx.program
    cfg = ctx.cfg
    n_blocks = len(cfg.blocks)
    # Block-entry states: sreg index -> ("handle" | "released", def pc).
    in_state: list[dict[int, tuple[str, int]] | None] = \
        [None] * n_blocks
    for entry in cfg.entry_blocks:
        in_state[entry] = {}

    def transfer(state: dict[int, tuple[str, int]], pc: int,
                 report: bool) -> None:
        instr = program.instructions[pc]
        spec = instr.spec
        if spec.mnemonic in ("tput", "tget", "tjoin"):
            # tput carries the handle in rd (rs is the value sent);
            # tget and tjoin carry it in rs.
            handle_reg = instr.rd if spec.mnemonic == "tput" else instr.rs
            tag = state.get(handle_reg)
            if report and tag is not None and tag[0] == "released":
                name = registers.scalar_reg_name(handle_reg)
                out.append(ctx.diag(
                    "thread-context", "error", pc,
                    f"{spec.mnemonic} uses thread handle {name} after "
                    f"{program.location_of(tag[1])} joined and "
                    f"released that context"))
            if spec.mnemonic == "tjoin" and tag is not None \
                    and tag[0] == "handle":
                state[handle_reg] = ("released", pc)
        dest = instr.dest_reg()
        if dest is not None and dest[0] == "s":
            if spec.mnemonic == "tspawn":
                state[dest[1]] = ("handle", pc)
            else:
                state.pop(dest[1], None)

    changed = True
    while changed:
        changed = False
        for bi in range(n_blocks):
            if in_state[bi] is None:
                continue
            state = dict(in_state[bi])
            for pc in cfg.blocks[bi].range:
                transfer(state, pc, report=False)
            for succ in cfg.succs.get(bi, ()):
                cur = in_state[succ]
                if cur is None:
                    in_state[succ] = dict(state)
                    changed = True
                    continue
                for reg in list(cur):
                    if state.get(reg) != cur[reg]:
                        del cur[reg]        # conflicting facts: unknown
                        changed = True

    for bi in range(n_blocks):
        if in_state[bi] is None:
            continue
        state = dict(in_state[bi])
        for pc in cfg.blocks[bi].range:
            transfer(state, pc, report=True)
    return out


def check_unguarded_reduction(ctx: AnalysisContext) -> list[Diagnostic]:
    from repro.network.reduction import REDUCTION_FNS

    out: list[Diagnostic] = []
    program = ctx.program
    # Flags that *some* rany/rcount in the program inspects: the
    # guarded set.  Flow-insensitive on purpose — a guard anywhere is
    # taken as evidence the author thought about emptiness.
    guarded = {instr.rs for instr in program.instructions
               if instr.mnemonic in ("rany", "rcount")}
    for bi in sorted(ctx.cfg.reachable()):
        block = ctx.cfg.blocks[bi]
        for pc in block.range:
            instr = program.instructions[pc]
            if instr.mnemonic not in REDUCTION_FNS:
                continue
            mf = instr.mf
            if mf == registers.ALWAYS_FLAG or mf in guarded:
                continue
            out.append(ctx.diag(
                "unguarded-reduction", "info", pc,
                f"{instr.mnemonic} result is consumed without a "
                f"responder guard: no rany/rcount ever tests f{mf}, so "
                f"an empty responder set silently yields the identity "
                f"element"))
    return out


ALL_CHECKS: dict[str, Callable[[AnalysisContext], list[Diagnostic]]] = {
    "uninitialized-read": check_uninitialized_read,
    "unreachable-code": check_unreachable_code,
    "mask-scope": check_mask_scope,
    "thread-context": check_thread_context,
    "cross-thread-race": check_cross_thread_race,
    "lost-delivery": check_lost_delivery,
    "thread-lifecycle": check_thread_lifecycle,
    "unguarded-reduction": check_unguarded_reduction,
    "lmem-out-of-bounds": check_lmem_out_of_bounds,
    "width-overflow": check_width_overflow,
    "dead-search": check_dead_search,
    "static-cycle-bound": check_static_cycle_bound,
    "unreachable-block": check_unreachable_block,
    "static-timing-bound": check_static_timing_bound,
}


def _suppressed(diag: Diagnostic) -> bool:
    """True when the finding's source line carries a tracked allow."""
    return (diag.source is not None
            and f"lint: allow({diag.check})" in diag.source)


def lint_program(program: Program, config: ProcessorConfig | None = None,
                 checks: list[str] | None = None) -> LintReport:
    """Run the lint pipeline; returns diagnostics + hazard analysis."""
    cfg = config or ProcessorConfig()
    ctx = AnalysisContext(program, cfg)
    names = list(ALL_CHECKS) if checks is None else checks
    diagnostics: list[Diagnostic] = []
    for name in names:
        try:
            check = ALL_CHECKS[name]
        except KeyError:
            raise ValueError(
                f"unknown lint check {name!r} (available: "
                f"{', '.join(sorted(ALL_CHECKS))})") from None
        diagnostics.extend(d for d in check(ctx) if not _suppressed(d))
    # Deterministic order: primary (pc, check) per the report contract,
    # with severity/message tiebreaks so --json output is byte-stable.
    diagnostics.sort(key=lambda d: (d.pc, d.check, d.severity, d.message))
    estimate = estimate_stalls(program, cfg, ctx.timing())
    return LintReport(
        diagnostics=diagnostics,
        estimate=estimate,
        hazards=hazard_edges(program, cfg, estimate),
    )
