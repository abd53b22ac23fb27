"""Static hazard classification and stall-cycle estimation.

Reproduces the paper's Figure-2 hazard taxonomy *symbolically*: every
RAW dependence in the program is labeled broadcast / reduction /
broadcast-reduction / plain-RAW per Section 4.2, and priced in stall
cycles against a concrete :class:`ProcessorConfig` using the very same
latency model (:mod:`repro.core.timing`) the cycle-accurate core
enforces.

The estimator replays every basic block through the block transfer of
:class:`repro.analysis.timing.TimingAnalysis` — the replay the fast
backend folds, on the core's own per-pc timing table and readiness rule
— and charges each instruction's wait to the binding dependence edge.
On **straight-line** programs (no control transfers or thread
operations before the final ``halt``) each block starts from the
previous block's exit state, so the estimate is exact against the
single-threaded simulator: the totals equal the measured
``stats.wait_cycles`` counter for counter, which the differential test
suite asserts.  On programs with control flow every block starts from
a clean scoreboard, with every branch taken, making the result a
per-iteration lower bound (loop-carried dependences are not priced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import Counter

from repro.analysis.timing import EMPTY_STATE, IssueDetail, TimingAnalysis
from repro.asm.program import Program
from repro.core import stats as st
from repro.core.config import ProcessorConfig
from repro.core.processor import SimulationError
from repro.core.timing import K_BRANCH, K_JR
from repro.opt.blocks import basic_blocks


@dataclass
class HazardEdge:
    """One classified RAW dependence with its static stall estimate."""

    producer_pc: int
    consumer_pc: int
    regfile: str
    reg: int
    hazard: str            # a repro.core.stats.STALL_* label
    min_gap: int           # minimum legal issue-cycle gap (>= 1)
    stall_cycles: int      # stalls charged to this edge by the replay

    @property
    def stall_potential(self) -> int:
        """Worst-case stalls if the pair issues back-to-back."""
        return self.min_gap - 1


@dataclass
class StallEstimate:
    """Static stall prediction for one program on one machine config."""

    config: ProcessorConfig
    total: int = 0
    by_cause: Counter[str] = field(default_factory=Counter)
    edges: list[HazardEdge] = field(default_factory=list)
    control_stalls: int = 0
    structural_stalls: int = 0
    waw_stalls: int = 0
    exact: bool = False    # True only for straight-line programs
    # (producer pc, consumer pc) -> (cause, stall cycles) for the RAW /
    # WAW edges the replay found binding.
    pair_stalls: dict[tuple[int, int], tuple[str, int]] = field(
        default_factory=dict)

    def describe(self) -> str:
        kind = "exact" if self.exact else "per-block lower bound"
        causes = ", ".join(f"{c}={n}" for c, n in sorted(
            self.by_cause.items()))
        return (f"static stall estimate ({kind}): {self.total} cycle(s)"
                + (f"; {causes}" if causes else ""))


def is_straight_line(program: Program) -> bool:
    """True if the program has no control transfer or thread operation
    before its final instruction (which may be ``halt``).

    On such programs the static replay is cycle-exact against the
    single-threaded simulator.
    """
    instrs = program.instructions
    if not instrs:
        return True
    for instr in instrs[:-1]:
        spec = instr.spec
        if spec.is_branch or spec.is_jump or spec.is_thread_op \
                or spec.is_halt:
            return False
    last = instrs[-1].spec
    return not (last.is_branch or last.is_jump or last.is_thread_op)


def hazard_edges(program: Program, cfg: ProcessorConfig,
                 estimate: StallEstimate | None = None) -> list[HazardEdge]:
    """Every in-block RAW dependence, classified and priced.

    ``stall_cycles`` carries the replay-attributed stalls of ``estimate``
    (default: :func:`estimate_stalls`) for edges the static model found
    binding; non-binding edges report 0 (their latency is hidden by
    intervening instructions).
    """
    from repro.analysis.deps import build_block_deps

    if estimate is None:
        estimate = estimate_stalls(program, cfg)
    pair_stalls = estimate.pair_stalls
    edges: list[HazardEdge] = []
    seen: set[tuple[int, int, tuple[str, int]]] = set()
    for block in basic_blocks(program):
        instrs = program.instructions[block.start:block.end]
        deps = build_block_deps(instrs, cfg)
        for e in deps.raw_edges():
            ppc = block.start + e.src
            cpc = block.start + e.dst
            bound = pair_stalls.get((ppc, cpc))
            stall = bound[1] if bound is not None else 0
            assert e.reg is not None and e.hazard is not None
            # A consumer reading the same register in two operand
            # slots yields one raw_edges() entry per slot; the extra
            # rows repeat the same dependence (and would double-count
            # its attributed stall in any column sum).
            key = (ppc, cpc, e.reg)
            if key in seen:
                continue
            seen.add(key)
            edges.append(HazardEdge(
                producer_pc=ppc, consumer_pc=cpc,
                regfile=e.reg[0], reg=e.reg[1],
                hazard=e.hazard, min_gap=e.latency,
                stall_cycles=stall))
    return edges


def estimate_stalls(program: Program, cfg: ProcessorConfig,
                    analysis: TimingAnalysis | None = None
                    ) -> StallEstimate:
    """Static stall-cycle estimate for ``program`` on ``cfg``.

    Straight-line programs chain each block's exit state into the next
    block and the result is exact against the single-threaded
    simulator; otherwise each basic block is replayed from a clean
    scoreboard (a per-iteration lower bound: loop-carried and
    cross-block dependences are not priced).  ``analysis`` supplies the
    block transfers (default: a fresh :class:`TimingAnalysis`).
    """
    if analysis is None:
        analysis = TimingAnalysis(program, cfg)
    model = analysis.model
    estimate = StallEstimate(config=cfg)
    estimate.exact = is_straight_line(program)
    state = EMPTY_STATE
    writer: dict[int, int] = {}      # register key -> pc of its last write
    for block in analysis.cfg.blocks:
        # Outside straight-line code a branch counts as taken and a
        # ``jr`` or ``tput`` terminator's event changes nothing in the
        # block: a tput self-delivery lands after the block's last issue.
        kind = model.entry(block.end - 1).kind
        event = True if kind == K_BRANCH else 0 if kind == K_JR else None
        detail: list[IssueDetail] = []
        try:
            summary = analysis._transfer(block.start, event, state, detail)
        except SimulationError as exc:
            raise ValueError(str(exc)) from None
        if estimate.exact:
            state = summary.exit_state
        for pc, _, cause, stall, binding in detail:
            it = model.entry(pc)
            control = it.resolve_taken - 1
            if control > 0:
                estimate.control_stalls += control
                estimate.by_cause[st.STALL_CONTROL] += control
                estimate.total += control
            if cause is not None:
                estimate.by_cause[cause] += stall
                estimate.total += stall
                if cause == st.STALL_STRUCTURAL:
                    estimate.structural_stalls += stall
                elif cause == st.STALL_WAW:
                    estimate.waw_stalls += stall
                if binding >= 0:
                    estimate.pair_stalls[(writer[binding], pc)] = (
                        cause, stall)
            if it.dest >= 0:
                writer[it.dest] = pc
    return estimate
