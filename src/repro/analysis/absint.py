"""Abstract interpretation over the CFG: values, responder sets, addresses.

Three composable abstract domains, evaluated together in one forward
fixed-point over the :mod:`repro.analysis.cfg` graph:

* **Value ranges** — every scalar and parallel register is tracked as an
  unsigned interval.  Parallel registers abstract the *set* of per-PE
  values (every PE's value lies in the interval); the write port wraps
  to ``W`` bits, so the parallel top element is ``[0, 2**W - 1]`` while
  the scalar top is ``[0, 2**32 - 1]`` (``jal`` stores a full-width PC
  in the link register — the control unit's address path is wider than
  the data path).
* **Mask / responder sets** — every flag register is tracked as a
  tri-state: provably all-zero (no PE responds), provably all-one
  (every PE responds), or mixed.  This is the domain behind the
  ``dead-search`` check: a reduction whose mask is all-zero returns its
  unit's identity element without inspecting any PE.
* **Local-memory address ranges** — ``plw``/``psw`` addresses are the
  raw (unwrapped) sum of the base parallel register and the immediate,
  exactly as the PE array computes them, so the derived interval bounds
  every lmem access (the ``lmem-out-of-bounds`` check).

Transfer functions mirror :mod:`repro.core.execute` op for op; when both
operands are compile-time constants the engine *calls the concrete ALU*
(:data:`repro.pe.alu.INT_OPS`) so corner semantics — shift clamping,
division by zero, wrapping — cannot drift.  Soundness contract (tested
property-wise, mirroring the PR-4 dynamic ⊆ static pattern): for a
fault-free run, every concrete register value, flag vector, and lmem
address observed at ``pc`` lies inside ``before[pc]``.

Cross-thread effects are handled conservatively: scalar registers named
as any ``tput`` delivery target are pinned to the word-top interval
everywhere (a delivery can land between any two instructions), and
``tget``/``lw``/``plw`` results are top.  Programs containing ``jr``
(``CFG.has_indirect``) seed *every* block with the top state, since the
static graph cannot enumerate indirect targets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.cfg import CFG, build_cfg
from repro.asm.program import Program
from repro.core.config import ProcessorConfig
from repro.core.execute import _BRANCHES, _PARALLEL_CMP, _PARALLEL_INT, _SCALAR_INT
from repro.isa import registers
from repro.isa.instruction import Instruction
from repro.network.reduction import REDUCTION_FNS
from repro.pe.alu import INT_OPS
from repro.util.bitops import (
    mask_for_width,
    max_signed,
    min_signed,
    to_unsigned,
)

if TYPE_CHECKING:                       # pragma: no cover - typing only
    from repro.analysis.lint import AnalysisContext, Diagnostic

# The control unit's PC/address path width (matches core.execute).
_PC_MASK = 0xFFFFFFFF

# Join visits to one block before widening kicks in.
_WIDEN_AFTER = 3

# The compare each branch takes on when it holds (bge: when clt fails).
_BRANCH_CMP = {"beq": "ceq", "bne": "cne", "blt": "clt", "bge": "clt"}


# ---------------------------------------------------------------------------
# The interval domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Unsigned integer interval ``[lo, hi]``; ``lo > hi`` is bottom.

    Register intervals always satisfy ``0 <= lo <= hi <= 2**32 - 1``;
    raw immediates are represented as (possibly negative) singleton
    intervals only while feeding a transfer function.
    """

    lo: int
    hi: int

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Classic interval widening: a growing bound jumps to its
        extreme, so fixed-point chains terminate on loops."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Interval(0 if other.lo < self.lo else self.lo,
                        _PC_MASK if other.hi > self.hi else self.hi)

    def shifted(self, offset: int) -> "Interval":
        """Raw (unwrapped) translation — the lmem address computation."""
        return Interval(self.lo + offset, self.hi + offset)

    def __str__(self) -> str:
        if self.is_bottom:
            return "[bottom]"
        if self.is_const:
            return f"[{self.lo}]"
        return f"[{self.lo}, {self.hi}]"


BOTTOM = Interval(0, -1)
TOP = Interval(0, _PC_MASK)


def const(value: int) -> Interval:
    """Singleton interval."""
    return Interval(value, value)


# ---------------------------------------------------------------------------
# The responder-set (flag) domain
# ---------------------------------------------------------------------------

# Tri-state abstraction of one flag register across the PE array.
F_BOTTOM = 0          # unreachable
F_ZERO = 1            # provably 0 in every PE (empty responder set)
F_ONE = 2             # provably 1 in every PE (all PEs respond)
F_TOP = 3             # mixed / unknown

FLAG_STATE_NAMES = {F_BOTTOM: "bottom", F_ZERO: "all-zero",
                    F_ONE: "all-one", F_TOP: "mixed"}


def f_join(a: int, b: int) -> int:
    """Least upper bound in the flag lattice."""
    if a == F_BOTTOM:
        return b
    if b == F_BOTTOM:
        return a
    return a if a == b else F_TOP


def f_const(bit: bool) -> int:
    return F_ONE if bit else F_ZERO


def flag_allows(state: int, flags: np.ndarray) -> bool:
    """Whether a concrete flag vector is a member of the abstract state
    (the soundness predicate used by the property tests)."""
    if state == F_TOP:
        return True
    if state == F_ZERO:
        return not bool(np.asarray(flags, dtype=bool).any())
    if state == F_ONE:
        return bool(np.asarray(flags, dtype=bool).all())
    return False


# ---------------------------------------------------------------------------
# Machine state abstraction
# ---------------------------------------------------------------------------

class AbsState:
    """One program point's abstract machine state.

    ``sregs``/``pregs`` are interval lists (16 each); ``flags`` is a
    list of 8 tri-states.  The hardwired cells (s0, p0, f0) are pinned
    by every constructor and write path.
    """

    __slots__ = ("sregs", "pregs", "flags")

    def __init__(self, sregs: list[Interval], pregs: list[Interval],
                 flags: list[int]) -> None:
        self.sregs = sregs
        self.pregs = pregs
        self.flags = flags

    def copy(self) -> "AbsState":
        return AbsState(list(self.sregs), list(self.pregs), list(self.flags))

    def join_from(self, other: "AbsState", widen: bool = False) -> bool:
        """In-place join (with optional widening); True if anything grew."""
        changed = False
        for regs, oregs in ((self.sregs, other.sregs),
                            (self.pregs, other.pregs)):
            for i, (cur, new) in enumerate(zip(regs, oregs)):
                joined = cur.join(new)
                if widen and joined != cur:
                    joined = cur.widen(joined)
                if joined != cur:
                    regs[i] = joined
                    changed = True
        for i, (cur, new) in enumerate(zip(self.flags, other.flags)):
            joined = f_join(cur, new)
            if joined != cur:
                self.flags[i] = joined
                changed = True
        return changed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbsState):
            return NotImplemented
        return (self.sregs == other.sregs and self.pregs == other.pregs
                and self.flags == other.flags)

    def __hash__(self) -> int:          # pragma: no cover - not hashed
        raise TypeError("AbsState is mutable and unhashable")


@dataclass
class AbsintResult:
    """Fixed-point result: the abstract state *before* every pc.

    ``before[pc]`` is None when ``pc`` is statically unreachable.
    ``volatile_sregs`` are the ``tput`` delivery targets pinned to the
    word-top interval throughout.
    """

    program: Program
    config: ProcessorConfig
    cfg: CFG
    before: list[AbsState | None]
    volatile_sregs: frozenset[int]

    def lmem_address_interval(self, pc: int) -> Interval | None:
        """Abstract lmem address range of the ``plw``/``psw`` at ``pc``
        (raw base + immediate, unwrapped — exactly what the PE array
        bounds-checks), or None if ``pc`` is unreachable or not a
        parallel memory access."""
        state = self.before[pc]
        instr = self.program.instructions[pc]
        if state is None or not instr.spec.has_mem_operand \
                or instr.spec.exec_class.value != "parallel":
            return None
        return state.pregs[instr.rs].shifted(instr.imm)

    def branch_verdict(self, pc: int) -> bool | None:
        """True / False when the branch at ``pc`` is provably taken / not
        taken from the state before it; None when unknown or unreachable.
        ``beq``/``bne`` compare unsigned words and ``blt``/``bge`` two's
        complement, through the parallel compares' transfer function."""
        state = self.before[pc]
        if state is None:
            return None
        instr = self.program.instructions[pc]
        flag = self._interpreter._cmp(_BRANCH_CMP[instr.mnemonic],
                                      state.sregs[instr.rd],
                                      state.sregs[instr.rs])
        if flag not in (F_ONE, F_ZERO):
            return None
        return (flag == F_ONE) != (instr.mnemonic == "bge")

    @cached_property
    def _interpreter(self) -> "_Interpreter":
        return _Interpreter(self.program, self.config, self.cfg)


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------

class _Interpreter:
    """The worklist engine plus per-instruction transfer functions."""

    def __init__(self, program: Program, config: ProcessorConfig,
                 cfg: CFG | None = None) -> None:
        self.program = program
        self.config = config
        self.cfg = cfg if cfg is not None else build_cfg(program)
        self.width = config.word_width
        self.mask = mask_for_width(config.word_width)
        self.word_top = Interval(0, self.mask)
        # Scalar registers any tput can deliver into, in any thread: a
        # delivery may land between any two instructions of the
        # receiver, so these never narrow below the word-top interval.
        self.volatile = frozenset(
            instr.imm for instr in program.instructions
            if instr.mnemonic == "tput")

    # -- states ---------------------------------------------------------------

    def entry_state(self) -> AbsState:
        """Thread start: every register zero (f0 hardwired to one)."""
        sregs = [self.word_top if i in self.volatile else const(0)
                 for i in range(registers.NUM_SCALAR_REGS)]
        pregs = [const(0)] * registers.NUM_PARALLEL_REGS
        flags = [F_ZERO] * registers.NUM_FLAG_REGS
        flags[registers.ALWAYS_FLAG] = F_ONE
        return AbsState(sregs, pregs, flags)

    def top_state(self) -> AbsState:
        """Know-nothing state (used when ``jr`` makes the CFG partial)."""
        sregs = [TOP] * registers.NUM_SCALAR_REGS
        pregs = [self.word_top] * registers.NUM_PARALLEL_REGS
        flags = [F_TOP] * registers.NUM_FLAG_REGS
        sregs[registers.ZERO_REG] = const(0)
        pregs[registers.ZERO_REG] = const(0)
        flags[registers.ALWAYS_FLAG] = F_ONE
        return AbsState(sregs, pregs, flags)

    # -- fixed point ----------------------------------------------------------

    def run(self) -> AbsintResult:
        cfg = self.cfg
        n_blocks = len(cfg.blocks)
        in_states: list[AbsState | None] = [None] * n_blocks
        if cfg.has_indirect:
            # jr targets are not statically enumerable; every block may
            # be entered with arbitrary state.  Sound, maximally coarse.
            for bi in range(n_blocks):
                in_states[bi] = self.top_state()
        else:
            for bi in cfg.entry_blocks:
                state = in_states[bi]
                if state is None:
                    in_states[bi] = self.entry_state()
                else:
                    state.join_from(self.entry_state())

        work: deque[int] = deque(
            bi for bi in range(n_blocks) if in_states[bi] is not None)
        queued = set(work)
        joins = [0] * n_blocks
        while work:
            bi = work.popleft()
            queued.discard(bi)
            src = in_states[bi]
            assert src is not None
            state = src.copy()
            for pc in cfg.blocks[bi].range:
                self.step(state, pc)
            for succ in cfg.succs.get(bi, ()):
                cur = in_states[succ]
                if cur is None:
                    in_states[succ] = state.copy()
                    changed = True
                else:
                    changed = cur.join_from(
                        state, widen=joins[succ] >= _WIDEN_AFTER)
                if changed:
                    joins[succ] += 1
                    if succ not in queued:
                        work.append(succ)
                        queued.add(succ)

        before: list[AbsState | None] = [None] * len(
            self.program.instructions)
        for bi in range(n_blocks):
            src = in_states[bi]
            if src is None:
                continue
            state = src.copy()
            for pc in cfg.blocks[bi].range:
                before[pc] = state.copy()
                self.step(state, pc)
        return AbsintResult(program=self.program, config=self.config,
                            cfg=cfg, before=before,
                            volatile_sregs=self.volatile)

    # -- write ports ----------------------------------------------------------

    def _write_s(self, state: AbsState, idx: int, value: Interval) -> None:
        if idx == registers.ZERO_REG:
            return
        if idx in self.volatile:
            value = value.join(self.word_top)
        state.sregs[idx] = value

    def _write_p(self, state: AbsState, idx: int, value: Interval,
                 mask: int) -> None:
        """Masked parallel write: outside-mask PEs keep their old value."""
        if idx == registers.ZERO_REG or mask == F_ZERO:
            return
        if mask == F_ONE:
            state.pregs[idx] = value
        else:
            state.pregs[idx] = state.pregs[idx].join(value)

    def _write_f(self, state: AbsState, idx: int, value: int,
                 mask: int) -> None:
        if idx == registers.ALWAYS_FLAG or mask == F_ZERO:
            return
        if mask == F_ONE:
            state.flags[idx] = value
        else:
            state.flags[idx] = f_join(state.flags[idx], value)

    # -- ALU transfer ---------------------------------------------------------

    def _wrap_range(self, lo: int, hi: int) -> Interval:
        """Tightest interval containing ``{v & word_mask : lo <= v <= hi}``.

        If the raw range fits inside one ``2**W`` page the wrap is a
        translation; otherwise the wrapped set spans the whole word.
        """
        if lo > hi:
            return BOTTOM
        if (lo >> self.width) == (hi >> self.width):
            return Interval(lo & self.mask, hi & self.mask)
        return self.word_top

    def _word_view(self, iv: Interval) -> Interval:
        """Interval of ``value & word_mask`` — what every ALU op reads."""
        return self._wrap_range(iv.lo, iv.hi)

    def _signed_view(self, iv: Interval) -> tuple[int, int] | None:
        """Signed range of a word-view interval, or None when the
        pattern interval straddles the sign boundary."""
        half = 1 << (self.width - 1)
        if iv.hi < half:
            return iv.lo, iv.hi
        if iv.lo >= half:
            return iv.lo - 2 * half, iv.hi - 2 * half
        return None

    def _concrete(self, base: str, a: int, b: int) -> int:
        """One concrete ALU op, via the vector ALU that the compiled
        scalar ops are tested against — corner cases cannot drift."""
        fn = INT_OPS[base]
        return int(fn(np.array([a], dtype=np.int64),
                      np.array([b], dtype=np.int64), self.width)[0])

    def _binop(self, base: str, a: Interval, b: Interval) -> Interval:
        """Abstract counterpart of ``INT_OPS[base]``; result ⊆ word-top."""
        if a.is_bottom or b.is_bottom:
            return BOTTOM
        if a.is_const and b.is_const:
            return const(self._concrete(base, a.lo, b.lo))
        if base == "add":
            return self._wrap_range(a.lo + b.lo, a.hi + b.hi)
        if base == "sub":
            return self._wrap_range(a.lo - b.hi, a.hi - b.lo)
        wa, wb = self._word_view(a), self._word_view(b)
        if base == "and":
            return Interval(0, min(wa.hi, wb.hi))
        if base in ("or", "xor", "nor"):
            bits = max(wa.hi.bit_length(), wb.hi.bit_length())
            or_iv = Interval(max(wa.lo, wb.lo) if base == "or" else 0,
                             (1 << bits) - 1)
            if base == "nor":
                return Interval(self.mask - or_iv.hi, self.mask - or_iv.lo)
            return or_iv
        if base in ("sll", "srl", "sra"):
            return self._shift(base, wa, b)
        if base == "mul":
            products = (wa.lo * wb.lo, wa.lo * wb.hi,
                        wa.hi * wb.lo, wa.hi * wb.hi)
            return self._wrap_range(min(products), max(products))
        if base == "div":
            return self.word_top
        if base == "slt":
            sa, sb = self._signed_view(wa), self._signed_view(wb)
            if sa is not None and sb is not None:
                if sa[1] < sb[0]:
                    return const(1)
                if sa[0] >= sb[1]:
                    return const(0)
            return Interval(0, 1)
        if base == "sltu":
            if wa.hi < wb.lo:
                return const(1)
            if wa.lo >= wb.hi:
                return const(0)
            return Interval(0, 1)
        raise AssertionError(f"unhandled ALU base {base!r}")

    def _shift(self, base: str, wa: Interval, b: Interval) -> Interval:
        """Shift transfer: exact for constant counts (mirroring the
        ALU's ``min(count & 63, 31)`` clamp), conservative otherwise."""
        if not b.is_const:
            if base == "srl":
                return Interval(0, wa.hi)     # right shift never grows
            return self.word_top
        count = min(b.lo & mask_for_width(6), 31)
        if base == "sll":
            if count >= self.width:
                return const(0)
            return self._wrap_range(wa.lo << count, wa.hi << count)
        if base == "srl":
            if count >= self.width:
                return const(0)
            return Interval(wa.lo >> count, wa.hi >> count)
        # sra: overshift fills with the sign bit, which equals an
        # arithmetic shift by width-1 for W-bit operands.
        signed = self._signed_view(wa)
        if signed is None:
            return self.word_top
        count = min(count, self.width - 1)
        return self._wrap_range(signed[0] >> count, signed[1] >> count)

    def _cmp(self, base: str, a: Interval, b: Interval) -> int:
        """Parallel comparison → responder tri-state.  ``F_ONE`` and
        ``F_ZERO`` are *must* facts over every active PE."""
        if a.is_bottom or b.is_bottom:
            return F_BOTTOM
        wa, wb = self._word_view(a), self._word_view(b)
        if base in ("ceq", "cne"):
            if wa.is_const and wb.is_const:
                eq: int | None = F_ONE if wa.lo == wb.lo else F_ZERO
            elif wa.hi < wb.lo or wb.hi < wa.lo:
                eq = F_ZERO
            else:
                eq = None
            if eq is None:
                return F_TOP
            if base == "cne":
                return F_ONE if eq == F_ZERO else F_ZERO
            return eq
        if base in ("cltu", "cleu"):
            lo_a, hi_a, lo_b, hi_b = wa.lo, wa.hi, wb.lo, wb.hi
        else:
            sa, sb = self._signed_view(wa), self._signed_view(wb)
            if sa is None or sb is None:
                return F_TOP
            lo_a, hi_a = sa
            lo_b, hi_b = sb
        if base in ("clt", "cltu"):
            if hi_a < lo_b:
                return F_ONE
            if lo_a >= hi_b:
                return F_ZERO
        else:                           # cle / cleu
            if hi_a <= lo_b:
                return F_ONE
            if lo_a > hi_b:
                return F_ZERO
        return F_TOP

    @staticmethod
    def _flag_binop(mnemonic: str, a: int, b: int) -> int:
        if a == F_BOTTOM or b == F_BOTTOM:
            return F_BOTTOM
        if mnemonic == "fand":
            if F_ZERO in (a, b):
                return F_ZERO
            if a == F_ONE and b == F_ONE:
                return F_ONE
            return F_TOP
        if mnemonic == "for":
            if F_ONE in (a, b):
                return F_ONE
            if a == F_ZERO and b == F_ZERO:
                return F_ZERO
            return F_TOP
        if mnemonic == "fxor":
            if a != F_TOP and b != F_TOP:
                return F_ONE if a != b else F_ZERO
            return F_TOP
        # fandn: a & ~b
        if a == F_ZERO or b == F_ONE:
            return F_ZERO
        if a == F_ONE and b == F_ZERO:
            return F_ONE
        return F_TOP

    @staticmethod
    def _flag_not(a: int) -> int:
        if a == F_ZERO:
            return F_ONE
        if a == F_ONE:
            return F_ZERO
        return a

    # -- per-instruction step --------------------------------------------------

    def step(self, state: AbsState, pc: int) -> None:
        """Apply one instruction's abstract effects in place."""
        instr = self.program.instructions[pc]
        m = instr.mnemonic

        # -- scalar path ------------------------------------------------------
        if m in _SCALAR_INT:
            base, bsrc = _SCALAR_INT[m]
            a = state.sregs[instr.rs]
            b = (state.sregs[instr.rt] if bsrc == "rt"
                 else const(instr.imm))
            self._write_s(state, instr.rd, self._binop(base, a, b))
            return
        if m == "lui":
            self._write_s(state, instr.rd,
                          const((instr.imm << 16) & self.mask))
            return
        if m == "lw":
            self._write_s(state, instr.rd, self.word_top)
            return
        if m in ("sw", "tput", "tjoin", "j", "jr", "halt") or m in _BRANCHES:
            return                      # no local register effect
        if m == "jal":
            # Link register holds a full-width PC, wider than W bits.
            self._write_s(state, registers.LINK_REG, const(pc + 1))
            return
        if m == "tspawn":
            # Child tid on success, the all-ones sentinel when the
            # thread table is full — both W-bit patterns.
            self._write_s(state, instr.rd, self.word_top)
            return
        if m == "texit":
            return
        if m == "tget":
            self._write_s(state, instr.rd, self.word_top)
            return

        # -- parallel path ------------------------------------------------------
        mask = state.flags[instr.mf]
        if m in _PARALLEL_INT:
            base, bsrc = _PARALLEL_INT[m]
            a = state.pregs[instr.rs]
            if bsrc == "pt":
                b = state.pregs[instr.rt]
            elif bsrc == "st":
                b = state.sregs[instr.rt]
            else:
                b = const(to_unsigned(instr.imm, self.width))
            self._write_p(state, instr.rd, self._binop(base, a, b), mask)
            return
        if m in _PARALLEL_CMP:
            base, bsrc = _PARALLEL_CMP[m]
            a = state.pregs[instr.rs]
            if bsrc == "pt":
                b = state.pregs[instr.rt]
            elif bsrc == "st":
                b = state.sregs[instr.rt]
            else:
                b = const(to_unsigned(instr.imm, self.width))
            self._write_f(state, instr.rd, self._cmp(base, a, b), mask)
            return
        if m == "pbcast":
            self._write_p(state, instr.rd,
                          self._word_view(state.sregs[instr.rs]), mask)
            return
        if m == "psel":
            # mf is the per-PE selector, not an execution mask; the
            # write is unmasked.
            sel = state.flags[instr.mf]
            if sel == F_ONE:
                value = state.pregs[instr.rs]
            elif sel == F_ZERO:
                value = state.pregs[instr.rt]
            else:
                value = state.pregs[instr.rs].join(state.pregs[instr.rt])
            self._write_p(state, instr.rd, value, F_ONE)
            return
        if m == "plw":
            self._write_p(state, instr.rd, self.word_top, mask)
            return
        if m == "psw":
            return
        if m in ("fand", "for", "fxor", "fandn"):
            value = self._flag_binop(m, state.flags[instr.rs],
                                     state.flags[instr.rt])
            self._write_f(state, instr.rd, value, mask)
            return
        if m == "fnot":
            self._write_f(state, instr.rd,
                          self._flag_not(state.flags[instr.rs]), mask)
            return
        if m == "fmov":
            self._write_f(state, instr.rd, state.flags[instr.rs], mask)
            return
        if m in ("fset", "fclr"):
            self._write_f(state, instr.rd, f_const(m == "fset"), mask)
            return

        # -- reduction path ------------------------------------------------------
        if m in REDUCTION_FNS:
            if mask == F_ZERO:
                value = const(_reduction_identity(m, self.width))
            else:
                value = self.word_top
            self._write_s(state, instr.rd, value)
            return
        if m == "rcount":
            if mask == F_ZERO or state.flags[instr.rs] == F_ZERO:
                value = const(0)
            else:
                value = self._wrap_range(0, self.config.num_pes)
            self._write_s(state, instr.rd, value)
            return
        if m == "rany":
            if mask == F_ZERO or state.flags[instr.rs] == F_ZERO:
                value = const(0)
            else:
                value = Interval(0, 1)
            self._write_s(state, instr.rd, value)
            return
        if m == "rfirst":
            # At most one responder bit survives the resolver; inactive
            # PEs of the *mask* keep their old destination bit.
            if mask == F_ZERO or state.flags[instr.rs] == F_ZERO:
                fvalue = F_ZERO
            else:
                fvalue = F_TOP
            self._write_f(state, instr.rd, fvalue, mask)
            return
        raise AssertionError(
            f"absint transfer missing for mnemonic {m!r}")  # pragma: no cover


def _reduction_identity(mnemonic: str, width: int) -> int:
    """Identity element a reduction unit returns for an empty responder
    set (matches :mod:`repro.network.reduction` exactly)."""
    if mnemonic == "rand":
        return mask_for_width(width)
    if mnemonic in ("ror", "rget", "rmaxu", "rsum"):
        return 0
    if mnemonic == "rmax":
        return to_unsigned(min_signed(width), width)
    if mnemonic == "rmin":
        return max_signed(width)
    if mnemonic == "rminu":
        return mask_for_width(width)
    raise AssertionError(f"not a value reduction: {mnemonic!r}")


def analyze_intervals(program: Program, config: ProcessorConfig,
                      cfg: CFG | None = None) -> AbsintResult:
    """Run the abstract interpreter to a fixed point.

    Returns the abstract state *before* every reachable pc across all
    three domains (value intervals, responder tri-states, and — derived
    on demand — lmem address ranges).
    """
    return _Interpreter(program, config, cfg).run()


# ---------------------------------------------------------------------------
# Lint checks (registered in repro.analysis.lint.ALL_CHECKS)
# ---------------------------------------------------------------------------

def check_lmem_out_of_bounds(ctx: "AnalysisContext") -> list["Diagnostic"]:
    """``plw``/``psw`` whose abstract address range escapes local memory.

    Errors when *every* possible address is out of range (any active PE
    faults); warns on a partial escape only when the base register is
    meaningfully constrained, so unknown bases never cry wolf.
    """
    out: list["Diagnostic"] = []
    absint = ctx.absint()
    words = ctx.config.lmem_words
    for bi in sorted(ctx.cfg.reachable()):
        for pc in ctx.cfg.blocks[bi].range:
            instr = ctx.program.instructions[pc]
            if instr.mnemonic not in ("plw", "psw"):
                continue
            state = absint.before[pc]
            if state is None or state.flags[instr.mf] == F_ZERO:
                continue                # provably no PE accesses memory
            addr = state.pregs[instr.rs].shifted(instr.imm)
            data = {"lo": addr.lo, "hi": addr.hi, "lmem_words": words}
            if addr.hi < 0 or addr.lo >= words:
                out.append(ctx.diag(
                    "lmem-out-of-bounds", "error", pc,
                    f"{instr.mnemonic} address {addr} is always outside "
                    f"local memory [0, {words}); every active PE faults",
                    data=data))
            elif (addr.lo < 0 or addr.hi >= words) \
                    and addr.hi - addr.lo < mask_for_width(
                        ctx.config.word_width):
                out.append(ctx.diag(
                    "lmem-out-of-bounds", "warning", pc,
                    f"{instr.mnemonic} address {addr} may fall outside "
                    f"local memory [0, {words})", data=data))
    return out


def check_width_overflow(ctx: "AnalysisContext") -> list["Diagnostic"]:
    """Arithmetic that *provably* wraps or discards bits at width W.

    Must-conditions only: the interval bounds prove every execution
    wraps (add/sub/mul), every shifted-in bit is lost (constant shift
    count >= W), or the result is constant zero (``lui`` at W <= 16).
    """
    out: list["Diagnostic"] = []
    absint = ctx.absint()
    interp = _Interpreter(ctx.program, ctx.config, ctx.cfg)
    width, word_mask = ctx.config.word_width, mask_for_width(
        ctx.config.word_width)
    for bi in sorted(ctx.cfg.reachable()):
        for pc in ctx.cfg.blocks[bi].range:
            instr = ctx.program.instructions[pc]
            m = instr.mnemonic
            state = absint.before[pc]
            if state is None:
                continue
            if m == "lui" and width <= 16 and instr.imm != 0:
                out.append(ctx.diag(
                    "width-overflow", "warning", pc,
                    f"lui shifts the immediate past the {width}-bit "
                    f"word: the result is always 0 at this width"))
                continue
            base, operands = _alu_operands(interp, state, instr)
            if base is None or operands is None:
                continue
            a, b = operands
            wa, wb = interp._word_view(a), interp._word_view(b)
            parallel = instr.spec.exec_class.value != "scalar"
            if parallel and state.flags[instr.mf] == F_ZERO:
                continue                # no PE executes the op
            msg: str | None = None
            if base == "add" and a.lo + b.lo > word_mask:
                msg = (f"addition provably wraps: operand ranges "
                       f"{a} + {b} exceed the {width}-bit word")
            elif base == "sub" and wa.hi < wb.lo:
                msg = (f"subtraction provably wraps: {wa} < {wb} "
                       f"borrows past zero at width {width}")
            elif base == "mul" and wa.lo * wb.lo > word_mask:
                msg = (f"multiplication provably overflows: "
                       f"{wa} * {wb} exceeds the {width}-bit word")
            elif base in ("sll", "srl") and b.is_const \
                    and min(b.lo & mask_for_width(6), 31) >= width \
                    and not wa.is_bottom and wa.hi > 0:
                msg = (f"shift count {b.lo} >= word width {width}: "
                       f"the result is always 0")
            elif base == "sll" and b.is_const and b.lo < width \
                    and (wa.lo << min(b.lo, 31)) > word_mask:
                msg = (f"left shift provably discards set bits: "
                       f"{wa} << {b.lo} exceeds the {width}-bit word")
            if msg is not None:
                out.append(ctx.diag("width-overflow", "warning", pc, msg,
                                    data={"op": base}))
    return out


def _alu_operands(interp: _Interpreter, state: AbsState,
                  instr: Instruction) -> tuple[
                      str | None, tuple[Interval, Interval] | None]:
    """(base op, abstract operands) of an ALU instruction, else Nones."""
    m = instr.mnemonic
    if m in _SCALAR_INT:
        base, bsrc = _SCALAR_INT[m]
        a = state.sregs[instr.rs]
        b = (state.sregs[instr.rt] if bsrc == "rt" else const(instr.imm))
        return base, (a, b)
    if m in _PARALLEL_INT:
        base, bsrc = _PARALLEL_INT[m]
        a = state.pregs[instr.rs]
        if bsrc == "pt":
            b = state.pregs[instr.rt]
        elif bsrc == "st":
            b = state.sregs[instr.rt]
        else:
            b = const(to_unsigned(instr.imm, interp.width))
        return base, (a, b)
    return None, None


def check_dead_search(ctx: "AnalysisContext") -> list["Diagnostic"]:
    """Reductions whose responder set is provably empty.

    The responder-set domain proves the mask flag (or the counted
    source flag) is all-zero at the reduction: the unit returns its
    identity element without inspecting a single PE, which is almost
    always a dead associative search feeding garbage downstream.
    """
    out: list["Diagnostic"] = []
    absint = ctx.absint()
    for bi in sorted(ctx.cfg.reachable()):
        for pc in ctx.cfg.blocks[bi].range:
            instr = ctx.program.instructions[pc]
            m = instr.mnemonic
            if m not in REDUCTION_FNS and m not in ("rcount", "rany",
                                                    "rfirst"):
                continue
            state = absint.before[pc]
            if state is None:
                continue
            if state.flags[instr.mf] == F_ZERO:
                out.append(ctx.diag(
                    "dead-search", "warning", pc,
                    f"{m} executes with a provably empty responder set: "
                    f"mask {registers.flag_reg_name(instr.mf)} is "
                    f"all-zero here, so the unit returns its identity "
                    f"element"))
            elif m in ("rcount", "rany", "rfirst") \
                    and state.flags[instr.rs] == F_ZERO:
                out.append(ctx.diag(
                    "dead-search", "warning", pc,
                    f"{m} tests flag "
                    f"{registers.flag_reg_name(instr.rs)}, which is "
                    f"provably all-zero here: the search can never "
                    f"respond"))
    return out


__all__ = [
    "AbsState",
    "AbsintResult",
    "BOTTOM",
    "F_BOTTOM",
    "F_ONE",
    "F_TOP",
    "F_ZERO",
    "Interval",
    "TOP",
    "analyze_intervals",
    "check_dead_search",
    "check_lmem_out_of_bounds",
    "check_width_overflow",
    "flag_allows",
]
