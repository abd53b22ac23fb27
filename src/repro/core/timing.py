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

import functools
import itertools
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from types import FunctionType
from typing import TYPE_CHECKING, Any, Callable

from repro.core import stats as st
from repro.core.config import (
    BranchPolicy,
    DividerKind,
    MultiplierKind,
    ProcessorConfig,
)
from repro.core.execute import MACHINE_FREE, Op, _div, _nop
from repro.core.execute import machine_free_op, scalar_text
from repro.core.thread import FREE, JOINING
from repro.isa.instruction import Instruction
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
# the last in-flight write to a register.
ScoreEntry = tuple[int, int, int]


@dataclass(slots=True)
class InstrTiming:
    """Every timing fact about the instruction at one pc, with its
    decoded step (read-only by convention: a frozen dataclass would
    triple the cost of building one)."""

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
    imm: int                         # when the entry uses it, else 0
    target: int                      # branch / j / jal target pc, else 0
    op: Op | None = None             # the op when it binds no machine state
    # The step (:func:`compile_step`): ready(score, base, unit_busy) ->
    # (cycle, cause, base, entry, binding register key or -1); issue(
    # machine, thread, cycle, readiness) -> 1, or 0 for a blocked tjoin.
    ready: Any = None
    issue: Any = None


def _kind(spec: OpSpec) -> int:
    if spec.is_branch:
        return K_BRANCH
    if spec.is_jump:
        return K_JUMP if spec.mnemonic in ("j", "jal") else K_JR
    if spec.is_halt:
        return K_HALT
    return {"tspawn": K_TSPAWN, "texit": K_TEXIT, "tput": K_TPUT,
            "tjoin": K_TJOIN}.get(spec.mnemonic, K_PLAIN)


#: The kind of every mnemonic.
KINDS: dict[str, int] = {m: _kind(spec) for m, spec in OPCODES.items()}


def _op_timing(spec: OpSpec, cfg: ProcessorConfig) -> tuple:
    """The pc-independent facts of one mnemonic on one machine."""
    kind = KINDS[spec.mnemonic]
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


def lacks_a_unit(cfg: ProcessorConfig) -> bool:
    """Whether the machine has no multiplier or no divider: only then can
    an op need a unit it lacks."""
    return (cfg.multiplier is MultiplierKind.NONE
            or cfg.divider is DividerKind.NONE)


#: The decoded (instruction, configuration) pairs the process keeps; the
#: least recently used is dropped first.
DECODE_MEMO_ENTRIES = 4096

_decoded: OrderedDict[tuple[object, ...], InstrTiming] = OrderedDict()
_IMM_BOUND = MACHINE_FREE | {"tput"}
_config_ids: dict[tuple[object, ...], int] = {}
_next_config_id = itertools.count()
_decode_lock = threading.Lock()

class TimingModel:
    """The per-pc timing table of one (program, machine) pair.

    Entry ``pc`` holds what the issue logic needs to know about the
    instruction there, computed once from the offsets above, with its
    machine-free op and compiled step: the cycle core
    (:class:`repro.core.processor.Processor`) issues through the steps and
    the block summaries of :mod:`repro.analysis.timing` read the facts and
    the readiness.  Entries come on first use from one bounded decode memo
    keyed on the instruction's fields and the configuration's values (and
    the ``hooks`` compiled in: ``trace``, ``san``, ``prof``); an entry that
    raises names its program's location and is not kept.
    """

    def __init__(self, program: "Program", config: ProcessorConfig,
                 hooks: tuple[str, ...] = ()) -> None:
        self.program = program
        self.config = config
        self.table: list[InstrTiming | None] = (
            [None] * len(program.instructions))
        self._hooks = hooks
        self._lacks = lacks_a_unit(config)
        values = (*vars(config).values(), *hooks)
        with _decode_lock:
            if (values not in _config_ids
                    and len(_config_ids) >= DECODE_MEMO_ENTRIES):
                _config_ids.clear()         # ids are never reused
            self._cid = _config_ids.setdefault(values, next(_next_config_id))

    def entry(self, pc: int) -> InstrTiming:
        it = self.table[pc]
        if it is None:
            it = self.table[pc] = self._decode(pc)
        return it

    def raising_pcs(self) -> list[int]:
        """Every pc whose entry raises (an op needing a unit the machine
        lacks); on a machine with both units, none without a look."""
        if not self._lacks:
            return []
        return [pc for pc in range(len(self.table))
                if self.entry(pc).raises is not None]

    def _decode(self, pc: int) -> InstrTiming:
        ins = self.program.instructions[pc]
        m = ins.mnemonic
        # A branch's target and jal's link depend on the pc; only a
        # machine-free op's operand and tput's register on the immediate.
        key = (m, ins.rd, ins.rs, ins.rt, ins.mf, ins.imm if m in _IMM_BOUND
               else 0, ins.target, self._cid,
               pc if KINDS[m] == K_BRANCH or m == "jal" else None)
        with _decode_lock:
            it = _decoded.get(key)
            if it is not None:
                _decoded.move_to_end(key)
                return it
        it = _build(ins, pc, self.config, self._hooks, self.program)
        if it.raises is not None:
            return it       # its message names this program's location
        with _decode_lock:
            it = _decoded.setdefault(key, it)
            while len(_decoded) > DECODE_MEMO_ENTRIES:
                _decoded.popitem(last=False)
        return it


def _build(ins: Instruction, pc: int, config: ProcessorConfig,
           hooks: tuple[str, ...], program: "Program") -> InstrTiming:
    """Decode one instruction: its entry, machine-free op and step."""
    (kind, klass, eclass, roff, unit, occupancy, resolve_taken,
     resolve_not_taken, runit, missing) = _op_timing(ins.spec, config)
    p_off = parallel_read_offset(config)
    srcs = tuple((reg_key(rf, idx), SCALAR_READ_OFFSET if rf == "s"
                  else p_off) for rf, idx in ins.src_regs())
    d = ins.dest_reg()
    raises = None
    if missing is not None:
        raises = (f"{ins.mnemonic} needs a {missing} but none is "
                  f"configured, at {program.location_of(pc)}")
    if kind == K_BRANCH:
        target = pc + 1 + ins.imm
    elif kind == K_JUMP:
        target = ins.target
    else:
        target = 0
    it = InstrTiming(
        mnemonic=ins.mnemonic, kind=kind, klass=klass, eclass=eclass,
        srcs=srcs, dest=-1 if d is None or raises else reg_key(d[0], d[1]),
        roff=roff, wb=roff + 1, unit=unit, occupancy=occupancy,
        resolve_taken=resolve_taken, resolve_not_taken=resolve_not_taken,
        runit=runit, raises=raises, target=target,
        imm=ins.imm if ins.mnemonic in _IMM_BOUND else 0,
        op=machine_free_op(pc, ins, config.word_width))
    it.ready, it.issue = compile_step(it, ins, config, hooks)
    return it


# ---------------------------------------------------------------------------
# The compiled step
# ---------------------------------------------------------------------------
#
# A template line holds before ``|`` the flags it needs; a step keeps the
# lines whose flags its entry or an attached hook sets, a run of ``src``
# lines once per source register (``#`` its index).  Each set of flags is
# compiled once; an entry's copy has its facts as parameter defaults.
#
# The readiness rule, for the core and the block summaries alike: at the
# earliest ``base``, an entry waits for each source's result to reach its
# read point (RAW), for the last write to its destination to retire (WAW)
# and for its structural unit to free up.  A later check binds only if
# strictly later, the attribution of the paper's hazard taxonomy (and of
# Stats); ``binding`` is the register key of the binding entry, or -1.

_READY = """\
            |def ready(score, base, busy, IT, C, D, W, U, PARAMS):
            |    r = base
            |    cause = None
            |    binding = -1
src         |    e = score.get(K#)
src         |    if e is not None and e[0] + O# > r:
src         |        r = e[0] + O#
src         |        cause = C[e[2]]
src         |        binding = K#
dest        |    e = score.get(D)
dest        |    if e is not None and e[1] + W > r:
dest        |        r = e[1] + W
dest        |        cause = WAW
dest        |        binding = D
unit        |    if busy[U] > r:
unit        |        r = busy[U]
unit        |        cause = STRUCTURAL
unit        |        binding = -1
            |    return r, cause, base, IT, binding
"""

_ISSUE = """\
            |def issue(m, t, cycle, info, IT, OP, N, rd, rs, rt, b, ra, rb, M, H,
            |          T, IMM, D, ROFF, WB, KL, U, OCC, BUSY, RT, RNT, RUNIT):
raises      |    raise SimulationError(IT.raises)
            |    pc = t.pc
            |    stats = m.stats
join        |    target = m.threads[t.read_sreg(rs) % N]
join        |    if target.state is not FREE:
join        |        t.state = JOINING
join        |        t.join_target = target.tid
join        |        t.ready = (NEVER, info[1], info[2], IT, -1)
join prof   |        m.profiler.on_join_block(t.tid, cycle, info[2], info[1])
join        |        return 0
            |    cause = info[1]
            |    if cause is not None and cycle > info[2]:
            |        stats.wait_cycles[cause] += cycle - info[2]
san         |    m.sanitizer.on_issue(t, m.program.instructions[pc], N)
spawn       |    spawned = m.ops[pc](t, cycle)
call        |    OP(t)
mop         |    m.ops[pc](t)
jump        |    nxt = OP(t)
write       |    s = t.sregs
write       |    s[rd] = EXPR
branch      |    s = t.sregs
branch      |    taken = EXPR
unit        |    busy = m._unit_busy
unit        |    if cycle < busy[U]:
unit        |        raise RuntimeError(BUSY % (cycle, busy[U]))
unit        |    busy[U] = cycle + OCC
unit        |    for ctx in m.threads:
unit        |        if ctx.ready is not None and ctx.ready[3].unit == U:
unit        |            ctx.ready = None
dest        |    t.score[D] = (cycle + ROFF, cycle + WB, KL)
tput        |    target = m.threads[t.read_sreg(rd) % N]
tput        |    target.score[IMM] = (cycle + 2, cycle + 3, KL)
tput        |    target.ready = None
seq         |    t.pc = pc + 1
seq         |    resolve = 1
branch      |    if taken:
branch      |        t.pc = T
branch      |        resolve = RT
branch      |    else:
branch      |        t.pc = pc + 1
branch      |        resolve = RNT
jump        |    t.pc = nxt
jump        |    resolve = RT
            |    t.min_issue = cycle + resolve
fetch       |    m.fetch.consume(t.tid)
ctl         |    if resolve > 1:
ctl         |        stats.wait_cycles[CONTROL] += resolve - 1
ctl fetch   |        m.fetch.redirect(t.tid, cycle + resolve - 1)
            |    t.last_issue = cycle
            |    t.ready = None
halt        |    m.halted = True
exit san    |    m.sanitizer.on_exit(t.tid)
exit        |    m.threads.release(t.tid)
exit        |    m._wake_joiners(t.tid, cycle)
spawn       |    if spawned is not None:
spawn san   |        m.sanitizer.on_spawn(t.tid, spawned, pc)
spawn       |        stats.threads_spawned += 1
spawn fetch |        m.fetch.thread_started(spawned, cycle)
spawn prof  |        m.profiler.on_activate(spawned, cycle + 1)
            |    stats.instructions += 1
            |    stats.per_thread_issued[t.tid] += 1
scalar      |    stats.scalar_instructions += 1
parallel    |    stats.parallel_instructions += 1
reduction   |    stats.reduction_instructions += 1
prof        |    m.profiler.on_issue(t.tid, IT.mnemonic, IT.eclass, cycle, info[2], cause, resolve)
runit       |    stats.reduction_unit_uses[RUNIT] += 1
trace       |    m.trace.append(IssueRecord(cycle, t.tid, pc,
trace       |                               m.program.instructions[pc], info[2] - 1))
            |    return 1
"""

# Per kind, the issue flags; a plain scalar write runs inline (none: s0).
_KIND_FLAGS = {K_TJOIN: "join seq", K_TPUT: "mop tput seq",
               K_TSPAWN: "spawn seq", K_TEXIT: "call seq exit",
               K_HALT: "seq halt", K_BRANCH: "ctl branch",
               K_JUMP: "ctl jump", K_JR: "ctl jump"}


@functools.cache
def _template(template: str, flags: frozenset[str], sources: int = 0,
              expr: str = "") -> Callable[..., Callable[..., Any]]:
    """A maker of the function of the template's lines whose flags hold,
    with ``EXPR`` as ``expr``, compiled once per process."""
    from repro.core.processor import IssueRecord, SimulationError
    out: list[str] = []
    group: list[str] = []
    for line in template.splitlines() + ["|"]:
        want, _, code = line.partition("|")
        if "src" in want.split():
            group.append(code)
            continue
        out += [g.replace("#", str(i)) for i in range(sources) for g in group]
        group = []
        if flags.issuperset(want.split()):
            out.append(code.replace("EXPR", expr).replace(
                ", PARAMS", "".join(f", K{i}, O{i}" for i in range(sources))))
    namespace: dict[str, Any] = {
        "FREE": FREE, "JOINING": JOINING, "NEVER": sys.maxsize, "_div": _div,
        "CONTROL": st.STALL_CONTROL, "WAW": st.STALL_WAW,
        "STRUCTURAL": st.STALL_STRUCTURAL, "IssueRecord": IssueRecord,
        "SimulationError": SimulationError}
    exec("\n".join(out), namespace)
    proto = namespace[out[0][4:out[0].index("(")]]
    # An entry's copy: its facts default the trailing parameters.
    return lambda *facts: FunctionType(proto.__code__, namespace,
                                       proto.__name__, facts)


def compile_step(it: InstrTiming, ins: Instruction, config: ProcessorConfig,
                 hooks: tuple[str, ...] = ()) -> tuple[Callable[..., Any],
                                                       Callable[..., int]]:
    """The (ready, issue) pair of one entry (see :class:`InstrTiming`).
    The issue has the named hooks and the config's fetch model compiled
    in, so a step without them tests for none, and runs a scalar write
    or branch as its :data:`~repro.core.execute.SCALAR_EXPR` text."""
    flags = {name for name, on in (("dest", it.dest >= 0),
                                   ("unit", it.unit >= 0)) if on}
    ready = _template(_READY, frozenset(flags), len(it.srcs))(
        it, RAW_CAUSE[it.klass::3], it.dest, 1 - it.wb, it.unit,
        *(v for key, off in it.srcs for v in (key, 1 - off)))
    flags.update(hooks, ("fetch",) if config.model_fetch else (),
                 _KIND_FLAGS.get(it.kind, "seq").split(), (it.eclass,))
    if it.kind == K_PLAIN and it.op is not _nop:
        flags.add("mop" if it.op is None else "write")
    if it.runit is not None:
        flags.add("runit")
    expr = (scalar_text(ins) if "write" in flags or it.kind == K_BRANCH
            else "")
    width = config.word_width
    issue = _template(_ISSUE, frozenset({"raises"} if it.raises else flags),
                      0, expr)(
        it, it.op, config.num_threads, ins.rd, ins.rs, ins.rt, ins.imm,
        ins.rd, ins.rs, (1 << width) - 1, 1 << (width - 1), it.target,
        it.imm, it.dest, it.roff, it.wb, it.klass, it.unit, it.occupancy,
        f"{UNIT_NAMES[max(it.unit, 0)]} issued at %d while busy until %d",
        it.resolve_taken, it.resolve_not_taken, it.runit)
    return ready, issue


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
