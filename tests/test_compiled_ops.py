"""Compiled ops against the reference units, and the issue loop's
bookkeeping against the rules it replaced.

* The scalar path executes one op on Python ints; the PE ALU
  (:data:`repro.pe.alu.INT_OPS`) executes the same base ops on numpy
  vectors.  Both must agree on every corner: wrapping W-bit arithmetic,
  the ``min(count & 63, 31)`` shift clamp, truncating signed division
  with the all-ones divide-by-zero result, and MIN / -1.  Per-pc ops and
  the fast path's fused runs are both checked.
* Every parallel and reduction op, in both compiled variants (healthy,
  and behind an empty fault plane), has the effect the reference units
  (``INT_OPS``, ``CMP_OPS``, ``FLAG_OPS``, ``REDUCTION_FNS``,
  ``PEArray.load``/``store``) give, on random machine states.
* The live-thread list and the scheduler's ``min`` pick agree with
  recomputing and sorting.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest

from repro.asm.program import Program
from repro.core.config import MTMode, ProcessorConfig, SchedulerPolicy
from repro.core.execute import (
    _PARALLEL_CMP,
    _PARALLEL_INT,
    _SCALAR_INT,
    _SCALAR_WRITES,
    compile_ops,
    fuse_scalar_runs,
)
from repro.core.memory import ScalarMemory
from repro.core.thread import ThreadState, ThreadStatusTable
from repro.faults import FaultPlane
from repro.isa import registers
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODES, ExecClass, ImmKind
from repro.network import reduction as red
from repro.pe.alu import CMP_OPS, FLAG_OPS, INT_OPS
from repro.pe.pe_array import MemoryFault, PEArray
from repro.util.bitops import to_unsigned
from tests.rounds import round_at, spinning_core

WIDTHS = (8, 16, 32)
DRAWS = 1500


def _imm_range(mnemonic: str) -> tuple[int, int]:
    kind = OPCODES[mnemonic].imm_kind
    bits = 13 if mnemonic.startswith("p") else 16
    if kind is ImmKind.SHAMT:
        return 0, 31
    if kind is ImmKind.UNSIGNED:
        return 0, (1 << bits) - 1
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def _edges(width: int) -> list[int]:
    half, span = 1 << (width - 1), 1 << width
    return [0, 1, 2, 3, 5, width - 1, width, width + 1, 31, 32, 33, 63,
            64, half - 1, half, half + 1, span - 2, span - 1]


def _operands(width: int, rng: np.random.Generator,
              ) -> tuple[np.ndarray, np.ndarray]:
    """Edge pairs (including x / 0 and MIN / -1), then random draws.

    ``a`` is sometimes a 32-bit value: s14 holds a full-width link
    after ``jal``.  ``b`` covers every shift count 0..63.
    """
    edges = _edges(width)
    span = 1 << width
    a = [x for x in edges for _ in edges]
    b = [y for _ in edges for y in edges] + list(range(64))
    a += list(rng.integers(0, span, len(b) - len(a) + DRAWS)) + list(
        rng.integers(0, 1 << 32, DRAWS // 10))
    b += list(rng.integers(0, span, len(a) - len(b)))
    return np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


def _thread_table(num_threads: int = 1) -> ThreadStatusTable:
    threads = ThreadStatusTable(num_threads)
    for _ in range(num_threads):
        threads.allocate(0, 0)
    return threads


def _looped(body: list[Instruction]) -> Program:
    """``body`` followed by a branch back to its start: only runs inside
    a loop are fused."""
    return Program(instructions=body + [
        Instruction("bne", rd=1, rs=0, imm=-len(body) - 1),
        Instruction("halt")])


class _ScalarPaths:
    """One scalar instruction as its per-pc op and inside a fused run
    (followed by a filler write to s4), on a one-thread machine."""

    def __init__(self, instr: Instruction, width: int) -> None:
        self.threads = _thread_table()
        self.thread = self.threads[0]
        program = _looped([instr, Instruction("add", rd=4, rs=1, rt=2)])
        self.op = compile_ops(program, PEArray(1, 1, width, 1),
                              ScalarMemory(16, width), self.threads)[0]
        run = fuse_scalar_runs(program, width)[0]
        assert run is not None and run[1] == 2
        self.run = run[0]

    def results(self, a: int, b: int) -> tuple[int, int]:
        s = self.thread.sregs
        s[1:4] = [a, b, 0]
        assert self.op(self.thread) is None
        per_pc = s[3]
        s[1:4] = [a, b, 0]
        self.run(self.thread)
        return per_pc, s[3]


REGISTER_FORMS = sorted(m for m, (_b, src) in _SCALAR_INT.items()
                        if src == "rt")
IMMEDIATE_FORMS = sorted(m for m, (_b, src) in _SCALAR_INT.items()
                         if src == "imm")


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("mnemonic", REGISTER_FORMS)
def test_scalar_register_form_matches_vector_alu(mnemonic, width):
    base = _SCALAR_INT[mnemonic][0]
    rng = np.random.default_rng([width, len(mnemonic), ord(mnemonic[-1])])
    a, b = _operands(width, rng)
    expected = INT_OPS[base](a, b, width)
    paths = _ScalarPaths(Instruction(mnemonic, rd=3, rs=1, rt=2), width)
    for x, y, want in zip(a.tolist(), b.tolist(), expected.tolist()):
        assert paths.results(x, y) == (want, want), (mnemonic, x, y)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("mnemonic", IMMEDIATE_FORMS)
def test_scalar_immediate_form_matches_vector_alu(mnemonic, width):
    base = _SCALAR_INT[mnemonic][0]
    lo, hi = _imm_range(mnemonic)
    rng = np.random.default_rng([width, len(mnemonic), ord(mnemonic[0])])
    imms = sorted({lo, lo + 1, -1 if lo < 0 else lo, 0 if lo <= 0 else lo,
                   1, hi - 1, hi} | set(rng.integers(lo, hi + 1, 32).tolist()))
    a, _ = _operands(width, rng)
    a = np.concatenate([a[:18 * 18:19], rng.choice(a, 32)])
    for imm in imms:
        paths = _ScalarPaths(Instruction(mnemonic, rd=3, rs=1, imm=imm),
                             width)
        expected = INT_OPS[base](a, np.full_like(a, imm), width)
        for x, want in zip(a.tolist(), expected.tolist()):
            assert paths.results(x, 0) == (want, want), (mnemonic, x, imm)


# -- fused runs ------------------------------------------------------------------

def _random_scalar_write(rng: np.random.Generator) -> Instruction:
    mnemonic = str(rng.choice(sorted(_SCALAR_WRITES)))
    fields = {name: int(rng.integers(0, 16)) for name in ("rd", "rs")}
    if _SCALAR_WRITES[mnemonic][1] == "rt":
        fields["rt"] = int(rng.integers(0, 16))
    else:
        lo, hi = _imm_range(mnemonic)
        fields["imm"] = int(rng.integers(lo, hi + 1))
        if mnemonic == "lui":
            fields.pop("rs")
    return Instruction(mnemonic, **fields)


@pytest.mark.parametrize("width", WIDTHS)
def test_fused_runs_equal_their_per_pc_ops(width):
    rng = np.random.default_rng(width)
    for _ in range(40):
        body = [_random_scalar_write(rng)
                for _ in range(int(rng.integers(2, 40)))]
        program = _looped(body)
        threads = _thread_table()
        thread = threads[0]
        ops = compile_ops(program, PEArray(1, 1, width, 1),
                          ScalarMemory(16, width), threads)[:len(body)]
        runs = fuse_scalar_runs(program, width)[:len(body)] + [None]
        assert runs[0] is not None
        for _ in range(5):
            start = [0] + [int(v) for v in rng.integers(
                0, 1 << width, registers.NUM_SCALAR_REGS - 1)]
            start[registers.LINK_REG] = int(rng.integers(0, 1 << 32))
            thread.sregs[:] = start
            for op in ops:
                assert op(thread) is None
            want = list(thread.sregs)
            thread.sregs[:] = start
            pc = 0
            while runs[pc] is not None:
                fn, length = runs[pc]
                fn(thread)
                pc += length
            for op in ops[pc:]:
                op(thread)
            assert thread.sregs == want, [str(i) for i in body]


def test_runs_are_fused_in_loops_and_break_at_targets():
    lines = [Instruction("addi", rd=1, rs=1, imm=1),
             Instruction("addi", rd=5, rs=5, imm=1),
             Instruction("addi", rd=2, rs=2, imm=1),   # branch target
             Instruction("addi", rd=3, rs=3, imm=1),
             Instruction("bne", rd=1, rs=0, imm=-3),
             Instruction("addi", rd=4, rs=4, imm=1),
             Instruction("addi", rd=6, rs=6, imm=1),
             Instruction("halt")]
    runs = fuse_scalar_runs(Program(instructions=lines), 16)
    assert [None if r is None else r[1] for r in runs] == [
        None, None, 2, None, None, None, None, None]


# -- parallel and reduction ops ------------------------------------------------

NUM_PES, LMEM = 37, 8


def _random_machine(width: int, rng: np.random.Generator):
    pe = PEArray(NUM_PES, 2, width, LMEM)
    pe.regs[:] = rng.integers(0, 1 << width, pe.regs.shape)
    pe.flags[:] = rng.random(pe.flags.shape) < 0.5
    pe.lmem[:] = rng.integers(0, 1 << width, pe.lmem.shape)
    pe.flags[:, 6] = True           # masks with every PE active
    pe.flags[:, 7] = False          # and with none (reduction identities)
    pe._pin_constants()
    # p5 holds local-memory addresses; plw/psw offsets of -1..1 keep
    # them in range except for an occasional PE that faults.
    pe.regs[:, 5] = rng.integers(1, LMEM - 1, (2, NUM_PES))
    if rng.random() < 0.3:
        pe.regs[:, 5, int(rng.integers(NUM_PES))] = LMEM + 3
    threads = _thread_table(2)
    for ctx in threads:
        ctx.sregs[1:] = [int(v) for v in rng.integers(
            0, 1 << width, registers.NUM_SCALAR_REGS - 1)]
        ctx.sregs[registers.LINK_REG] = int(rng.integers(0, 1 << 32))
    return pe, threads


def _reference(pe: PEArray, thread, ins: Instruction) -> None:
    """An instruction's effect through the reference units."""
    m, tid, width = ins.mnemonic, thread.tid, pe.word_width
    mask = pe.read_flag(tid, ins.mf)

    def operand_b(bsrc: str) -> np.ndarray:
        if bsrc == "pt":
            return pe.read_reg(tid, ins.rt)
        value = (thread.read_sreg(ins.rt) if bsrc == "st"
                 else to_unsigned(ins.imm, width))
        return np.full(pe.num_pes, value, dtype=np.int64)

    if m in _PARALLEL_INT:
        base, bsrc = _PARALLEL_INT[m]
        pe.write_reg(tid, ins.rd, INT_OPS[base](
            pe.read_reg(tid, ins.rs), operand_b(bsrc), width), mask)
    elif m in _PARALLEL_CMP:
        base, bsrc = _PARALLEL_CMP[m]
        pe.write_flag(tid, ins.rd, CMP_OPS[base](
            pe.read_reg(tid, ins.rs), operand_b(bsrc), width), mask)
    elif m == "pbcast":
        pe.write_reg(tid, ins.rd, np.full(pe.num_pes, thread.read_sreg(
            ins.rs), dtype=np.int64), mask)
    elif m == "psel":
        pe.write_reg(tid, ins.rd, np.where(
            mask, pe.read_reg(tid, ins.rs), pe.read_reg(tid, ins.rt)),
            np.ones(pe.num_pes, dtype=bool))
    elif m == "plw":
        pe.write_reg(tid, ins.rd, pe.load(
            pe.read_reg(tid, ins.rs) + ins.imm, mask), mask)
    elif m == "psw":
        pe.store(pe.read_reg(tid, ins.rs) + ins.imm,
                 pe.read_reg(tid, ins.rd), mask)
    elif m in FLAG_OPS:
        pe.write_flag(tid, ins.rd, FLAG_OPS[m](
            pe.read_flag(tid, ins.rs), pe.read_flag(tid, ins.rt)), mask)
    elif m in ("fnot", "fmov"):
        a = pe.read_flag(tid, ins.rs)
        pe.write_flag(tid, ins.rd, ~a if m == "fnot" else a, mask)
    elif m in ("fset", "fclr"):
        pe.write_flag(tid, ins.rd, np.full(pe.num_pes, m == "fset"), mask)
    elif m in red.REDUCTION_FNS:
        thread.write_sreg(ins.rd, red.REDUCTION_FNS[m][0](
            pe.read_reg(tid, ins.rs), mask, width), pe.word_mask)
    elif m in ("rcount", "rany"):
        unit = red.count_responders if m == "rcount" else red.any_responders
        thread.write_sreg(ins.rd, unit(pe.read_flag(tid, ins.rs), mask),
                          pe.word_mask)
    elif m == "rfirst":
        pe.write_flag(tid, ins.rd, red.resolve_first(
            pe.read_flag(tid, ins.rs), mask), mask)
    else:
        raise AssertionError(m)


def _random_instruction(m: str, rng: np.random.Generator) -> Instruction:
    spec = OPCODES[m]
    fields = {}
    for regfile, name in ([spec.dest] if spec.dest else []) + list(spec.srcs):
        if name != "mf":
            fields[name] = int(rng.integers(
                0, registers.REGFILE_SIZES[regfile]))
    if spec.masked:
        fields["mf"] = int(rng.integers(0, registers.NUM_FLAG_REGS))
    if spec.imm_kind is not None:
        lo, hi = _imm_range(m)
        fields["imm"] = int(rng.integers(lo, hi + 1))
    if m in ("plw", "psw"):
        fields["rs"], fields["imm"] = 5, int(rng.integers(-1, 2))
    return Instruction(m, **fields)


def _state(pe: PEArray, threads: ThreadStatusTable) -> tuple:
    return (pe.regs.tobytes(), pe.flags.tobytes(), pe.lmem.tobytes(),
            [list(ctx.sregs) for ctx in threads])


DATA_PARALLEL = sorted(m for m, spec in OPCODES.items()
                       if spec.exec_class is not ExecClass.SCALAR)
OP_CLASSES = {
    "parallel_alu": sorted(_PARALLEL_INT),
    "compare": sorted(_PARALLEL_CMP),
    "flag": ["fand", "fandn", "fclr", "fmov", "fnot", "for", "fset", "fxor"],
    "local_memory": ["plw", "psw"],
    "broadcast_select": ["pbcast", "psel"],
    "reduction": sorted(list(red.REDUCTION_FNS) + ["rany", "rcount"]),
    "rfirst": ["rfirst"],
}


def test_op_classes_cover_every_data_parallel_mnemonic():
    assert sorted(itertools.chain(*OP_CLASSES.values())) == DATA_PARALLEL


@pytest.mark.parametrize("hooked", [False, True], ids=["healthy", "hooked"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("op_class", sorted(OP_CLASSES))
def test_compiled_op_equals_reference(op_class, width, hooked):
    """On random states with random masks and operand fields (aliasing
    included), each compiled op has the reference effect, or raises
    the reference's exception."""
    rng = np.random.default_rng([width, len(op_class), hooked])
    cfg = ProcessorConfig(num_pes=NUM_PES, num_threads=2, word_width=width,
                          lmem_words=LMEM)
    for m in OP_CLASSES[op_class]:
        for trial in range(12):
            ins = _random_instruction(m, rng)
            pe, threads = _random_machine(width, rng)
            ref_pe, ref_threads = copy.deepcopy((pe, threads))
            faults = FaultPlane([], cfg) if hooked else None
            op = compile_ops(Program(instructions=[ins]), pe,
                             ScalarMemory(1, width), threads, faults)[0]
            tid = trial % 2
            try:
                _reference(ref_pe, ref_threads[tid], ins)
            except MemoryFault:
                with pytest.raises(MemoryFault):
                    op(threads[tid])
                continue
            assert op(threads[tid]) is None
            assert _state(pe, threads) == _state(ref_pe, ref_threads), (
                str(ins), tid)


# -- the issue loop's bookkeeping ------------------------------------------------

def test_live_list_follows_allocate_and_release():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 8):
        table = ThreadStatusTable(n)
        for _ in range(300):
            free = [c.tid for c in table if c.state is ThreadState.FREE]
            if free and (rng.random() < 0.5 or len(free) == n):
                table.allocate(0, 0)
            else:
                ctx = table[int(rng.choice(
                    [c.tid for c in table if c.state is not
                     ThreadState.FREE]))]
                if rng.random() < 0.3:
                    ctx.state = ThreadState.JOINING
                else:
                    table.release(ctx.tid)
            assert table.live == [
                c for c in table.contexts
                if c.state in (ThreadState.RUNNABLE, ThreadState.JOINING)]


@pytest.mark.parametrize("policy", [SchedulerPolicy.FIXED,
                                    SchedulerPolicy.ROTATING],
                         ids=["fixed", "rotating"])
def test_select_picks_what_sorting_picked(policy):
    """The round issues the ready thread the priority order ranks first,
    and the rotation moves to it."""
    rng = np.random.default_rng(len(policy.value))
    for n in (2, 3, 8):
        cfg = ProcessorConfig(num_pes=4, num_threads=n,
                              mt_mode=MTMode.FINE, scheduler=policy)
        proc = spinning_core(cfg)
        for _ in range(200):
            k = int(rng.integers(1, n + 1))
            candidates = [int(i) for i in rng.permutation(n)[:k]]
            pointer = int(rng.integers(-1, n))
            proc.scheduler._pointer = pointer
            if policy is SchedulerPolicy.FIXED:
                want = min(candidates)
            else:
                want = min(candidates, key=lambda t: (t - pointer - 1) % n)
            assert round_at(proc, 0, dict.fromkeys(candidates, 0)) == [want]
            assert proc.scheduler._pointer == want
