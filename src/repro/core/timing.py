"""The pipeline latency model.

This module is the quantitative heart of the reproduction: it encodes the
stage structure of Figure 1 and produces exactly the hazard penalties of
Figure 2 (see the derivation in DESIGN.md Section 5).

Conventions
-----------
``c`` is an instruction's *issue* cycle (the cycle it leaves the decode
stage).  Stage occupancy relative to ``c``::

    scalar:     IF(c-1) ID(c) SR(c+1) EX(c+2) MA(c+3) WB(c+4)
    parallel:   IF ID SR  B1..Bb(c+2 .. c+b+1)  PR(c+b+2)  EX(c+b+3)
                [MA(c+b+4) for loads/stores]  WB
    reduction:  IF ID SR  B1..Bb  PR(c+b+2)  R1..Rr(c+b+3 .. c+b+r+2)  WB

A producer's **result cycle** ``R`` is the cycle during which its value
first exists on a forwarding path; a consumer stage scheduled at cycle
``>= R + 1`` receives it.  Consumers read scalar registers at ``d + 2``
(scalar EX and broadcast-input B1 coincide) and parallel/flag registers
at ``d + b + 2`` (the PR stage), where ``d`` is the consumer's issue
cycle.

Resulting hazard penalties relative to back-to-back issue (``d = c + 1``):

* scalar ALU → anything: **0** (forwarding; Figure 2 top);
* scalar load → anything: 1 (classic load-use);
* reduction → scalar: **b + r** (Figure 2 middle);
* reduction → parallel: **b + r** (Figure 2 bottom);
* resolver (rfirst) → parallel: r (the consumer's own broadcast overlaps
  the resolver's prefix network — an effect the paper does not call out
  but that falls out of its stage structure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import stats as st
from repro.core.config import (
    BranchPolicy,
    DividerKind,
    MultiplierKind,
    ProcessorConfig,
)
from repro.isa.opcodes import OPCODES, ExecClass, OpSpec
from repro.network.falkoff import falkoff_cycles
from repro.pe.seq_units import (
    PIPELINED_MUL_LATENCY,
    sequential_div_latency,
    sequential_mul_latency,
)

if TYPE_CHECKING:
    from repro.asm.program import Program

# Consumer read-point offsets relative to the consumer's issue cycle.
SCALAR_READ_OFFSET = 2      # scalar EX / broadcast input B1


def parallel_read_offset(cfg: ProcessorConfig) -> int:
    """Parallel/flag operand forward point: the PE EX stage.

    Registers are *read* in PR (``d + b + 2``) but "forwarding paths are
    provided so that the results of an ALU operation can be sent back to
    the ALU before they are written into one of the register files"
    (Section 6.2), so a value is needed no earlier than the consumer's PE
    EX stage at ``d + b + 3`` — making dependent back-to-back parallel
    ALU instructions stall-free, like their scalar counterparts.
    """
    return cfg.broadcast_depth + 3


def _exec_latency(spec: OpSpec, cfg: ProcessorConfig) -> int:
    """Cycles spent in the execute unit (1 for the ALU)."""
    if spec.is_mul:
        if cfg.multiplier is MultiplierKind.NONE:
            raise ValueError(
                f"{spec.mnemonic}: no multiplier configured")
        if cfg.multiplier is MultiplierKind.PIPELINED:
            return PIPELINED_MUL_LATENCY
        return sequential_mul_latency(cfg.word_width)
    if spec.is_div:
        if cfg.divider is DividerKind.NONE:
            raise ValueError(f"{spec.mnemonic}: no divider configured")
        return sequential_div_latency(cfg.word_width)
    return 1


def reduction_compute_cycles(spec: OpSpec, cfg: ProcessorConfig) -> int:
    """Cycles the reduction network spends on one operation.

    Pipelined network: the tree depth ``r`` (initiation rate 1/cycle).
    Legacy unpipelined network: max/min runs the bit-serial Falkoff
    algorithm (W cycles); the other reductions settle combinationally in
    one (slow) clock.
    """
    if cfg.pipelined_reduction:
        return cfg.reduction_depth
    if spec.reduction_unit == "maxmin":
        return falkoff_cycles(cfg.word_width)
    return 1


def result_offset(spec: OpSpec, cfg: ProcessorConfig) -> int | None:
    """Offset of the producer's result cycle ``R`` from its issue cycle,
    or None for instructions with no register destination."""
    if spec.dest is None and spec.implicit_dest is None:
        return None
    b = cfg.broadcast_depth
    if spec.exec_class is ExecClass.SCALAR:
        if spec.is_load:
            return 3                      # end of MA
        if spec.is_mul or spec.is_div:
            return 1 + _exec_latency(spec, cfg)
        return 2                          # end of EX
    if spec.exec_class is ExecClass.PARALLEL:
        if spec.is_load:
            return b + 4                  # end of PE MA
        return b + 2 + _exec_latency(spec, cfg)
    # Reduction: value reaches the control unit (or, for the resolver,
    # the PEs) at the end of the last reduction stage.
    return b + 2 + reduction_compute_cycles(spec, cfg)


def writeback_offset(spec: OpSpec, cfg: ProcessorConfig) -> int | None:
    """Architectural writeback cycle offset (used for WAW ordering)."""
    r = result_offset(spec, cfg)
    return None if r is None else r + 1


def raw_issue_gap(producer: OpSpec, regfile: str,
                  cfg: ProcessorConfig) -> int:
    """Minimum issue-cycle gap imposed by a RAW dependence (>= 1).

    The single shared formula behind the core's scoreboard, the static
    list scheduler, and the static hazard analyzer: the consumer may
    issue once the producer's result cycle precedes the consumer's read
    point for ``regfile`` ('s' reads at ``d + 2``, 'p'/'f' at the PE EX
    stage).  A gap of 1 means back-to-back issue is stall-free; the
    *stall potential* of the dependence is ``gap - 1``.
    """
    roff = result_offset(producer, cfg)
    if roff is None:
        return 1
    read_off = (SCALAR_READ_OFFSET if regfile == "s"
                else parallel_read_offset(cfg))
    return max(1, roff + 1 - read_off)


def control_resolve_offset(spec: OpSpec, cfg: ProcessorConfig,
                           taken: bool) -> int:
    """Earliest next same-thread issue offset after a control instruction.

    Branches and ``jr`` resolve in EX (c+2): next issue at c+3 (two
    bubbles).  Direct jumps resolve in decode: next issue at c+2 (one
    bubble).  Under predict-not-taken an untaken branch costs nothing.
    """
    if spec.is_branch:
        if (cfg.branch_policy is BranchPolicy.PREDICT_NOT_TAKEN
                and not taken):
            return 1
        return 3
    if spec.is_jump:
        return 2 if spec.mnemonic in ("j", "jal") else 3
    return 1


def classify_raw(producer_spec: OpSpec, consumer_spec: OpSpec) -> str:
    """Classify a RAW wait by the paper's hazard taxonomy (Section 4.2).

    * *broadcast hazard* — "a parallel instruction uses the result of an
      earlier scalar instruction";
    * *reduction hazard* — "a scalar instruction uses the result of an
      earlier reduction instruction";
    * *broadcast-reduction hazard* — "a parallel instruction uses the
      result of an earlier reduction instruction";
    * everything else is a plain scalar or parallel RAW dependency.
    """
    pclass = producer_spec.exec_class
    cclass = consumer_spec.exec_class
    if pclass is ExecClass.REDUCTION:
        return (st.STALL_REDUCTION if cclass is ExecClass.SCALAR
                else st.STALL_BCAST_REDUCTION)
    if pclass is ExecClass.SCALAR:
        return (st.STALL_RAW_SCALAR if cclass is ExecClass.SCALAR
                else st.STALL_BROADCAST)
    return st.STALL_RAW_PARALLEL


# ---------------------------------------------------------------------------
# The per-pc timing table and the readiness rule
# ---------------------------------------------------------------------------

# Instruction kinds: what the issue loop and the timing fold treat
# specially.  Everything not listed is K_PLAIN (including tget, whose
# delivery read needs no special timing).
K_PLAIN = 0
K_BRANCH = 1
K_JUMP = 2          # j / jal: static target
K_JR = 3            # indirect: the target is known only once it executes
K_TSPAWN = 4
K_TEXIT = 5
K_TPUT = 6
K_TJOIN = 7
K_HALT = 8

# Structural units: non-pipelined resources shared machine-wide (the PE
# array is lockstep, so one busy window per kind of unit).
UNIT_MUL = 0
UNIT_DIV = 1
UNIT_REDUCTION = 2
UNIT_NAMES = ("sequential multiplier", "sequential divider",
              "unpipelined reduction network")

# Execution classes as small ints: 0 scalar / 1 parallel / 2 reduction.
_CLASS_INDEX = {ExecClass.SCALAR: 0, ExecClass.PARALLEL: 1,
                ExecClass.REDUCTION: 2}
_CLASSES = tuple(_CLASS_INDEX)

# classify_raw over class indices: RAW_CAUSE[producer * 3 + consumer].
_CLASS_REPS = {spec.exec_class: spec for spec in OPCODES.values()}
RAW_CAUSE = tuple(classify_raw(_CLASS_REPS[producer], _CLASS_REPS[consumer])
                  for producer in _CLASSES for consumer in _CLASSES)

# Register keys: one flat namespace over the three register files, so a
# scoreboard is a plain int-keyed dict.  Scalar register s<i> has key i.
_RF_CODE = {"s": 0, "p": 1, "f": 2}


def reg_key(regfile: str, idx: int) -> int:
    return (_RF_CODE[regfile] << 5) | idx


# A scoreboard entry: (result cycle, writeback cycle, producer class) of
# the last in-flight write to a register; consumers may append fields.
ScoreEntry = tuple[int, ...]


@dataclass(slots=True)
class InstrTiming:
    """Every timing fact about the instruction at one pc (read-only by
    convention: a frozen dataclass would triple the cost of building
    one, which single-pass programs pay per instruction)."""

    mnemonic: str
    kind: int
    klass: int                       # 0 scalar / 1 parallel / 2 reduction
    eclass: str                      # exec_class.value, for Stats buckets
    srcs: tuple[tuple[int, int], ...]  # (reg key, consumer read offset)
    dest: int                        # reg key, or -1 (none, or raises)
    roff: int                        # result offset (when dest >= 0)
    wb: int                          # writeback offset (when dest >= 0)
    unit: int                        # structural unit id, or -1
    occupancy: int                   # unit busy cycles when unit >= 0
    resolve_taken: int               # next-issue offset after a taken branch
    resolve_not_taken: int           # ... untaken branch / non-branch
    runit: str | None                # reduction_unit for Stats, or None
    raises: str | None               # SimulationError message, or None
    imm: int
    target: int                      # branch / j / jal target pc, else 0


def _op_timing(spec: OpSpec, cfg: ProcessorConfig) -> tuple:
    """The pc-independent facts of one mnemonic on one machine."""
    if spec.is_branch:
        kind = K_BRANCH
    elif spec.is_jump:
        kind = K_JUMP if spec.mnemonic in ("j", "jal") else K_JR
    elif spec.is_halt:
        kind = K_HALT
    else:
        kind = {"tspawn": K_TSPAWN, "texit": K_TEXIT, "tput": K_TPUT,
                "tjoin": K_TJOIN}.get(spec.mnemonic, K_PLAIN)
    missing = None
    if spec.is_mul and cfg.multiplier is MultiplierKind.NONE:
        missing = "multiplier"
    elif spec.is_div and cfg.divider is DividerKind.NONE:
        missing = "divider"
    roff = None if missing else result_offset(spec, cfg)
    unit, occupancy = -1, 0
    if spec.is_mul and cfg.multiplier is MultiplierKind.SEQUENTIAL:
        unit, occupancy = UNIT_MUL, sequential_mul_latency(cfg.word_width)
    elif spec.is_div and cfg.divider is DividerKind.SEQUENTIAL:
        unit, occupancy = UNIT_DIV, sequential_div_latency(cfg.word_width)
    elif (spec.exec_class is ExecClass.REDUCTION
          and not cfg.pipelined_reduction):
        unit = UNIT_REDUCTION
        occupancy = reduction_compute_cycles(spec, cfg)
    return (kind, _CLASS_INDEX[spec.exec_class], spec.exec_class.value,
            -1 if roff is None else roff, unit, occupancy,
            control_resolve_offset(spec, cfg, True),
            control_resolve_offset(spec, cfg, False),
            spec.reduction_unit, missing)


class TimingModel:
    """The per-pc timing table of one (program, machine) pair.

    Entry ``pc`` holds what the issue logic needs to know about the
    instruction there, computed once from the offsets above: the cycle
    core (:class:`repro.core.processor.Processor`), the compositional
    timing fold (:mod:`repro.analysis.timing`) and the static stall
    replay (:mod:`repro.analysis.hazards`) all read it.  Entries are
    built on first use, so a pc that never issues costs nothing.
    """

    def __init__(self, program: "Program", config: ProcessorConfig) -> None:
        self.program = program
        self.config = config
        self.table: list[InstrTiming | None] = (
            [None] * len(program.instructions))
        self._ops: dict[str, tuple] = {}
        self._parallel_read = parallel_read_offset(config)

    def entry(self, pc: int) -> InstrTiming:
        it = self.table[pc]
        if it is None:
            it = self.table[pc] = self._build(pc)
        return it

    def _build(self, pc: int) -> InstrTiming:
        instr = self.program.instructions[pc]
        op = self._ops.get(instr.mnemonic)
        if op is None:
            op = self._ops[instr.mnemonic] = _op_timing(instr.spec,
                                                        self.config)
        (kind, klass, eclass, roff, unit, occupancy, resolve_taken,
         resolve_not_taken, runit, missing) = op
        p_off = self._parallel_read
        srcs = tuple((reg_key(rf, idx), SCALAR_READ_OFFSET if rf == "s"
                      else p_off) for rf, idx in instr.src_regs())
        d = instr.dest_reg()
        raises = None
        if missing is not None:
            raises = (f"{instr.mnemonic} needs a {missing} but none is "
                      f"configured, at {self.program.location_of(pc)}")
        if kind == K_BRANCH:
            target = pc + 1 + instr.imm
        elif kind == K_JUMP:
            target = instr.target
        else:
            target = 0
        return InstrTiming(
            mnemonic=instr.mnemonic, kind=kind, klass=klass, eclass=eclass,
            srcs=srcs,
            dest=-1 if d is None or raises else reg_key(d[0], d[1]),
            roff=roff, wb=roff + 1, unit=unit, occupancy=occupancy,
            resolve_taken=resolve_taken,
            resolve_not_taken=resolve_not_taken, runit=runit,
            raises=raises, imm=instr.imm, target=target)


def ready_cycle(it: InstrTiming, score: dict[int, ScoreEntry], base: int,
                unit_busy: list[int],
                ) -> tuple[int, str | None, ScoreEntry | None]:
    """The readiness rule: when may ``it`` issue, at the earliest ``base``?

    Returns (earliest issue cycle, binding wait cause, binding scoreboard
    entry).  A consumer waits for each source's result to reach its read
    point (RAW), for the last write to its destination to retire (WAW),
    and for its structural unit to free up.  Checks run in that order and
    a later check binds only if strictly later — the attribution the
    paper's hazard taxonomy (and :class:`~repro.core.stats.Stats`) uses.
    The structural check binds no entry.
    """
    ready = base
    cause: str | None = None
    binding: ScoreEntry | None = None
    for key, read_off in it.srcs:
        e = score.get(key)
        if e is not None and e[0] + 1 - read_off > ready:
            ready = e[0] + 1 - read_off
            cause = RAW_CAUSE[e[2] * 3 + it.klass]
            binding = e
    if it.dest >= 0:
        e = score.get(it.dest)
        if e is not None and e[1] + 1 - it.wb > ready:
            ready = e[1] + 1 - it.wb
            cause = st.STALL_WAW
            binding = e
    if it.unit >= 0 and unit_busy[it.unit] > ready:
        ready = unit_busy[it.unit]
        cause = st.STALL_STRUCTURAL
        binding = None
    return ready, cause, binding


@dataclass(frozen=True)
class StageSlot:
    """One (stage name, absolute cycle) occupancy entry."""

    stage: str
    cycle: int


def stage_schedule(spec: OpSpec, cfg: ProcessorConfig, issue_cycle: int,
                   fetch_cycle: int | None = None) -> list[StageSlot]:
    """Full stage occupancy of one instruction, Figure-1/2 style.

    ``fetch_cycle`` defaults to ``issue_cycle - 1``; when the instruction
    waited in decode, the ID stage repeats ("a stall is indicated by
    having the instruction repeat the instruction decode stage",
    Section 4.2).
    """
    c = issue_cycle
    f = fetch_cycle if fetch_cycle is not None else c - 1
    slots = [StageSlot("IF", f)]
    slots.extend(StageSlot("ID", cyc) for cyc in range(f + 1, c + 1))
    slots.append(StageSlot("SR", c + 1))
    b = cfg.broadcast_depth
    if spec.exec_class is ExecClass.SCALAR:
        lat = 1
        if spec.is_mul or spec.is_div:
            lat = _exec_latency(spec, cfg)
        for i in range(lat):
            slots.append(StageSlot("EX" if lat == 1 else f"EX{i + 1}",
                                   c + 2 + i))
        slots.append(StageSlot("MA", c + 1 + lat + 1))
        slots.append(StageSlot("WB", c + 1 + lat + 2))
        return slots
    for i in range(b):
        slots.append(StageSlot(f"B{i + 1}", c + 2 + i))
    slots.append(StageSlot("PR", c + b + 2))
    if spec.exec_class is ExecClass.PARALLEL:
        lat = _exec_latency(spec, cfg)
        for i in range(lat):
            slots.append(StageSlot("EX" if lat == 1 else f"EX{i + 1}",
                                   c + b + 3 + i))
        cursor = c + b + 2 + lat
        if spec.is_load or spec.is_store:
            cursor += 1
            slots.append(StageSlot("MA", cursor))
        slots.append(StageSlot("WB", cursor + 1))
        return slots
    r = reduction_compute_cycles(spec, cfg)
    for i in range(r):
        slots.append(StageSlot(f"R{i + 1}", c + b + 3 + i))
    slots.append(StageSlot("WB", c + b + r + 3))
    return slots
