"""The ASC query compiler: expression IR -> KASC-MT assembly.

:class:`AscProgram` is the user entry point::

    prog = AscProgram(width=16)
    age    = prog.load_field(1)
    dept   = prog.load_field(2)
    salary = prog.load_field(3)
    sel    = (age >= 30) & (dept == 2)
    prog.output(prog.count(sel))
    prog.output(prog.min(salary, where=sel, signed=False))
    query  = prog.compile()
    counts = query.run(num_pes=64, lmem={1: ages, 2: depts, 3: salaries})

Compilation is a single forward pass over the construction-ordered op
list with linear-scan register allocation (registers freed at their
holder's last use).  ``s15`` is reserved as the compiler temporary for
materializing immediates that do not fit an instruction's immediate
field; ``f0`` backs the implicit all-cells responder set.

Flag expressions are evaluated over *all* PEs; selection is applied at
the reductions (the ``where=`` mask), matching how the associative
hardware is used.  Loops and field mutation are out of scope — this is
the query subset of the ASC model, sufficient for every search/aggregate
workload in :mod:`repro.programs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asclang.ir import (
    AscLangError,
    FlagValue,
    Op,
    ParallelValue,
    ScalarValue,
    Value,
)
from repro.asm.assembler import assemble
from repro.core.config import ProcessorConfig
from repro.core.processor import Processor

_TEMP = "s15"

# Immediate-form availability per base op.
_P_IMM_OPS = {"add": "paddi", "and": "pandi", "or": "pori", "xor": "pxori"}
_CMP_IMM_OPS = {"ceq": "pceqi", "cne": "pcnei", "clt": "pclti",
                "cle": "pclei"}
_IMM13_MIN, _IMM13_MAX = -4096, 4095
_UIMM13_MAX = 8191

_REDUCE_MNEMONICS = {
    "max": ("rmax", "rmaxu"),
    "min": ("rmin", "rminu"),
}


@dataclass
class CompiledQuery:
    """Assembly text + run helper for one compiled query.

    ``validation`` holds the translation-validation proof
    (:class:`repro.analysis.equiv.EquivReport`) when the query was
    compiled with ``validate=True``; ``None`` otherwise.
    """

    source: str
    width: int
    num_outputs: int
    output_names: list[str]
    validation: object | None = None

    def run(self, num_pes: int, lmem: dict[int, np.ndarray] | None = None,
            config: ProcessorConfig | None = None) -> dict[str, int]:
        """Execute on a fresh simulator; returns named outputs."""
        cfg = config or ProcessorConfig(num_pes=num_pes,
                                        word_width=self.width)
        if cfg.word_width != self.width:
            raise AscLangError(
                f"query compiled for W={self.width}, config has "
                f"W={cfg.word_width}")
        program = assemble(self.source, word_width=self.width)
        proc = Processor(cfg)
        proc.load(program)
        proc.pe.load_lmem((lmem or {}).items())
        result = proc.run()
        mem = result.memory(0, self.num_outputs)
        return dict(zip(self.output_names, mem))


class _RegPool:
    """Linear-scan register pool for one register file."""

    def __init__(self, prefix: str, indices: list[int]) -> None:
        self.prefix = prefix
        self.free = list(reversed(indices))
        self.capacity = len(indices)

    def alloc(self) -> str:
        if not self.free:
            raise AscLangError(
                f"query too complex: out of {self.prefix}-registers "
                f"({self.capacity} available); split the query or reuse "
                f"fewer live values")
        return f"{self.prefix}{self.free.pop()}"

    def release(self, name: str) -> None:
        self.free.append(int(name[1:]))


class AscProgram:
    """Builder for one associative query (see module docstring)."""

    def __init__(self, width: int = 16) -> None:
        self.width = width
        self.ops: list[Op] = []
        self._next_node = 0
        self._outputs: list[tuple[int, str]] = []   # (node, name)
        self._all_cells: FlagValue | None = None

    # -- IR construction ------------------------------------------------------

    def _emit(self, opcode: str, args: tuple, kind: str | None) -> int | None:
        result = None
        if kind is not None:
            result = self._next_node
            self._next_node += 1
        self.ops.append(Op(opcode, args, result, kind))
        return result

    def _operand(self, value) -> tuple[str, object]:
        """Classify an operand: ('p'|'f'|'s', node) or ('imm', int)."""
        if isinstance(value, Value):
            if value.program is not self:
                raise AscLangError("value belongs to a different AscProgram")
            return (value.kind, value.node)
        if isinstance(value, (int, np.integer)):
            return ("imm", int(value))
        raise AscLangError(f"unsupported operand {value!r}")

    # public constructors

    def load_field(self, col: int, name: str | None = None) -> ParallelValue:
        """Load local-memory column ``col`` (one word per PE)."""
        if col < 0:
            raise AscLangError("field column must be non-negative")
        node = self._emit("load_field", (col,), "p")
        return ParallelValue(self, node)

    def constant(self, value: int) -> ParallelValue:
        """A parallel constant (broadcast to every PE)."""
        node = self._emit("pconst", (int(value),), "p")
        return ParallelValue(self, node)

    def scalar(self, value: int) -> ScalarValue:
        """A scalar constant in the control unit."""
        node = self._emit("sconst", (int(value),), "s")
        return ScalarValue(self, node)

    def all_cells(self) -> FlagValue:
        """The implicit every-PE responder set (hardwired flag f0)."""
        if self._all_cells is None:
            node = self._emit("fall", (), "f")
            self._all_cells = FlagValue(self, node)
        return self._all_cells

    # internal expression builders (called by Value operators)

    def _parallel_binary(self, base, a, other) -> ParallelValue:
        kind, operand = self._operand(other)
        node = self._emit("pbin", (base, a.node, kind, operand), "p")
        return ParallelValue(self, node)

    def _parallel_shift(self, base, a, amount) -> ParallelValue:
        if not isinstance(amount, int) or not 0 <= amount <= 31:
            raise AscLangError("shift amount must be a constant 0..31")
        node = self._emit("pshift", (base, a.node, amount), "p")
        return ParallelValue(self, node)

    def _parallel_compare(self, base, a, other) -> FlagValue:
        kind, operand = self._operand(other)
        node = self._emit("pcmp", (base, a.node, kind, operand), "f")
        return FlagValue(self, node)

    def _parallel_compare_swapped(self, base, a, other) -> FlagValue:
        # a > b == b < a; a >= b == b <= a.
        if isinstance(other, ParallelValue):
            node = self._emit("pcmp", (base, other.node, "p", a.node), "f")
            return FlagValue(self, node)
        # No scalar-first compare form: a > s  ==  not (a <= s).
        inverse = {"clt": "cle", "cle": "clt"}[base]
        inner = self._parallel_compare(inverse, a, other)
        return self._flag_not(inner)

    def _flag_binary(self, base, a, b) -> FlagValue:
        node = self._emit("fbin", (base, a.node, b.node), "f")
        return FlagValue(self, node)

    def _flag_not(self, a) -> FlagValue:
        node = self._emit("fnot", (a.node,), "f")
        return FlagValue(self, node)

    def _scalar_binary(self, base, a, other) -> ScalarValue:
        kind, operand = self._operand(other)
        if kind not in ("s", "imm"):
            raise AscLangError("scalar ops take ScalarValue or int operands")
        node = self._emit("sbin", (base, a.node, kind, operand), "s")
        return ScalarValue(self, node)

    # -- associative operations --------------------------------------------------

    def _mask_node(self, where: FlagValue | None) -> int:
        if where is None:
            return self.all_cells().node
        if not isinstance(where, FlagValue):
            raise AscLangError("where= must be a FlagValue responder set")
        return where.node

    def _reduce(self, mnemonic: str, value: ParallelValue,
                where: FlagValue | None) -> ScalarValue:
        if not isinstance(value, ParallelValue):
            raise AscLangError("reductions take a ParallelValue")
        node = self._emit("reduce",
                          (mnemonic, value.node, self._mask_node(where)),
                          "s")
        return ScalarValue(self, node)

    def max(self, value, where=None, signed=True) -> ScalarValue:
        return self._reduce("rmax" if signed else "rmaxu", value, where)

    def min(self, value, where=None, signed=True) -> ScalarValue:
        return self._reduce("rmin" if signed else "rminu", value, where)

    def sum(self, value, where=None) -> ScalarValue:
        """Saturating sum (the sum unit)."""
        return self._reduce("rsum", value, where)

    def bit_and(self, value, where=None) -> ScalarValue:
        return self._reduce("rand", value, where)

    def bit_or(self, value, where=None) -> ScalarValue:
        return self._reduce("ror", value, where)

    def count(self, responders: FlagValue) -> ScalarValue:
        """Exact responder count (response counter)."""
        node = self._emit("rflag", ("rcount", responders.node,
                                    self.all_cells().node), "s")
        return ScalarValue(self, node)

    def any(self, responders: FlagValue) -> ScalarValue:
        """Some/none responder detection (0 or 1)."""
        node = self._emit("rflag", ("rany", responders.node,
                                    self.all_cells().node), "s")
        return ScalarValue(self, node)

    def pick_one(self, responders: FlagValue) -> FlagValue:
        """Multiple-response resolver: one-hot first responder."""
        node = self._emit("rfirst", (responders.node,
                                     self.all_cells().node), "f")
        return FlagValue(self, node)

    def get(self, value: ParallelValue, one_hot: FlagValue) -> ScalarValue:
        """Read the selected PE's value (rget under a one-hot mask)."""
        node = self._emit("rget", (value.node, one_hot.node), "s")
        return ScalarValue(self, node)

    def select(self, cond: FlagValue, a: ParallelValue,
               b: ParallelValue) -> ParallelValue:
        """Per-PE conditional: cond ? a : b (psel)."""
        node = self._emit("psel", (cond.node, a.node, b.node), "p")
        return ParallelValue(self, node)

    def between(self, value: ParallelValue, lo, hi) -> FlagValue:
        """Responders with ``lo <= value < hi`` (signed, like pclt)."""
        return (value >= lo) & (value < hi)

    def abs_diff(self, a: ParallelValue, b) -> ParallelValue:
        """Per-PE ``|a - b|`` via compare + select (no abs instruction)."""
        if not isinstance(b, ParallelValue):
            b = self.constant(b) if isinstance(b, int) else b
        if isinstance(b, ScalarValue):
            raise AscLangError("abs_diff takes a ParallelValue or int")
        return self.select(a < b, b - a, a - b)

    def top_k(self, value: ParallelValue, k: int,
              where: FlagValue | None = None, signed: bool = False,
              prefix: str = "top") -> list[ScalarValue]:
        """Emit the unrolled associative top-k extraction.

        The canonical ASC idiom (reduce → search → resolve → retire),
        threaded functionally through the responder set; each extracted
        value is also registered as an output ``{prefix}{i}``.
        """
        if k < 1:
            raise AscLangError("top_k needs k >= 1")
        alive = self.all_cells() if where is None else where
        results = []
        for i in range(k):
            extreme = self.max(value, where=alive, signed=signed)
            self.output(extreme, f"{prefix}{i}")
            one = self.pick_one(alive & (value == extreme))
            alive = alive & ~one
            results.append(extreme)
        return results

    def output(self, value: ScalarValue, name: str | None = None) -> None:
        """Mark a scalar result; stored to scalar memory on completion."""
        if not isinstance(value, ScalarValue):
            raise AscLangError("only ScalarValue results can be output")
        self._outputs.append((value.node,
                              name or f"out{len(self._outputs)}"))

    # -- compilation ------------------------------------------------------------

    def compile(self, optimize: bool = False,
                validate: bool = False) -> CompiledQuery:
        """Lower the query to assembly.

        With ``optimize=True`` the emitted program is additionally run
        through the static list scheduler for the *default* machine shape
        (callers targeting a specific machine should schedule the
        assembled Program themselves with :func:`repro.opt.schedule_program`).

        With ``validate=True`` (requires ``optimize=True``) the scheduled
        output is translation-validated against the unscheduled program
        (:func:`repro.analysis.equiv.validate_programs`); a refutation
        raises :class:`AscLangError` and a proof is kept on
        :attr:`CompiledQuery.validation`.
        """
        if validate and not optimize:
            raise AscLangError(
                "validate=True requires optimize=True: only the "
                "scheduled pipeline has a transform to validate")
        if not self._outputs:
            raise AscLangError("query has no outputs")
        lines = [".text", "main:"]
        emitter = _Emitter(self, lines)
        for index, op in enumerate(self.ops):
            emitter.emit(index, op)
        for slot, (node, _name) in enumerate(self._outputs):
            reg = emitter.reg_of(node)
            lines.append(f"    sw {reg}, {slot}(s0)")
        lines.append("    halt")
        source = "\n".join(lines) + "\n"
        validation = None
        if optimize:
            from repro.core.config import MTMode
            from repro.opt import schedule_program
            from repro.asm.disassembler import format_instruction

            cfg = ProcessorConfig(num_pes=16, num_threads=1,
                                  word_width=self.width,
                                  mt_mode=MTMode.SINGLE)
            unscheduled = assemble(source, word_width=self.width)
            scheduled = schedule_program(unscheduled, cfg)
            if validate:
                from repro.analysis.equiv import validate_programs

                validation = validate_programs(
                    unscheduled, scheduled, self.width,
                    transform="asclang.compile(optimize=True)")
                if not validation.equivalent:
                    raise AscLangError(
                        "translation validation refuted the optimized "
                        "query:\n" + validation.format())
            body = "\n".join("    " + format_instruction(i)
                             for i in scheduled.instructions)
            source = ".text\nmain:\n" + body + "\n"
        return CompiledQuery(source, self.width, len(self._outputs),
                             [name for _, name in self._outputs],
                             validation=validation)


class _Emitter:
    """Forward-pass code emitter with linear-scan register allocation."""

    def __init__(self, program: AscProgram, lines: list[str]) -> None:
        self.program = program
        self.lines = lines
        self.pools = {
            "p": _RegPool("p", list(range(1, 16))),
            "f": _RegPool("f", list(range(1, 8))),
            "s": _RegPool("s", list(range(1, 14))),
        }
        self.regs: dict[int, str] = {}
        self.last_use = self._compute_last_use()

    def _compute_last_use(self) -> dict[int, int]:
        last: dict[int, int] = {}
        for index, op in enumerate(self.program.ops):
            for node in self._arg_nodes(op):
                last[node] = index
        # Output nodes live to the end.
        end = len(self.program.ops)
        for node, _name in self.program._outputs:
            last[node] = end
        return last

    @staticmethod
    def _arg_nodes(op: Op):
        """Node ids referenced by an op (skips literals)."""
        if op.opcode in ("load_field", "pconst", "sconst", "fall"):
            return ()
        if op.opcode == "pshift":
            return (op.args[1],)
        if op.opcode in ("pbin", "pcmp", "sbin"):
            base, a, kind, operand = op.args
            return (a, operand) if kind != "imm" else (a,)
        if op.opcode == "fbin":
            return (op.args[1], op.args[2])
        if op.opcode == "fnot":
            return (op.args[0],)
        if op.opcode in ("reduce", "rflag"):
            return (op.args[1], op.args[2])
        if op.opcode == "rfirst":
            return (op.args[0], op.args[1])
        if op.opcode == "rget":
            return (op.args[0], op.args[1])
        if op.opcode == "psel":
            return op.args
        raise AssertionError(op.opcode)

    def reg_of(self, node: int) -> str:
        try:
            return self.regs[node]
        except KeyError:
            raise AscLangError(
                f"internal error: node {node} has no register (used after "
                f"being freed?)")

    def _alloc(self, op: Op) -> str:
        if op.opcode == "fall":
            reg = "f0"              # hardwired all-ones flag
        else:
            reg = self.pools[op.kind].alloc()
        self.regs[op.result] = reg
        return reg

    def _free_dead(self, index: int, op: Op) -> None:
        for node in set(self._arg_nodes(op)):
            if self.last_use.get(node) == index:
                reg = self.regs.pop(node)
                if reg != "f0":
                    self.pools[reg[0]].release(reg)

    def _line(self, text: str) -> None:
        self.lines.append(f"    {text}")

    def _materialize(self, value: int) -> str:
        """Load an immediate into the compiler temporary."""
        self._line(f"li {_TEMP}, {value}")
        return _TEMP

    # -- per-op emission -----------------------------------------------------------

    def emit(self, index: int, op: Op) -> None:
        handler = getattr(self, f"_emit_{op.opcode}")
        handler(op)
        self._free_dead(index, op)

    def _emit_load_field(self, op: Op) -> None:
        dest = self._alloc(op)
        self._line(f"plw {dest}, {op.args[0]}(p0)")

    def _emit_pconst(self, op: Op) -> None:
        dest = self._alloc(op)
        value = op.args[0]
        if _IMM13_MIN <= value <= _IMM13_MAX:
            self._line(f"pli {dest}, {value}")
        else:
            temp = self._materialize(value)
            self._line(f"pbcast {dest}, {temp}")

    def _emit_sconst(self, op: Op) -> None:
        dest = self._alloc(op)
        self._line(f"li {dest}, {op.args[0]}")

    def _emit_fall(self, op: Op) -> None:
        self._alloc(op)   # bound to f0; no code

    def _emit_pbin(self, op: Op) -> None:
        base, a, kind, operand = op.args
        a_reg = self.reg_of(a)
        if kind == "p":
            b_reg = self.reg_of(operand)
            dest = self._alloc(op)
            self._line(f"p{base} {dest}, {a_reg}, {b_reg}")
            return
        if kind == "s":
            b_reg = self.reg_of(operand)
            dest = self._alloc(op)
            self._line(f"p{base}s {dest}, {a_reg}, {b_reg}")
            return
        value = operand
        if base == "add" and _IMM13_MIN <= value <= _IMM13_MAX:
            dest = self._alloc(op)
            self._line(f"paddi {dest}, {a_reg}, {value}")
            return
        if base == "sub" and _IMM13_MIN <= -value <= _IMM13_MAX:
            dest = self._alloc(op)
            self._line(f"paddi {dest}, {a_reg}, {-value}")
            return
        if base in _P_IMM_OPS and 0 <= value <= _UIMM13_MAX:
            dest = self._alloc(op)
            self._line(f"{_P_IMM_OPS[base]} {dest}, {a_reg}, {value}")
            return
        temp = self._materialize(value)
        dest = self._alloc(op)
        self._line(f"p{base}s {dest}, {a_reg}, {temp}")

    def _emit_pshift(self, op: Op) -> None:
        base, a, amount = op.args
        a_reg = self.reg_of(a)
        dest = self._alloc(op)
        self._line(f"p{base}i {dest}, {a_reg}, {amount}")

    def _emit_pcmp(self, op: Op) -> None:
        base, a, kind, operand = op.args
        a_reg = self.reg_of(a)
        if kind == "p":
            b_reg = self.reg_of(operand)
            dest = self._alloc(op)
            self._line(f"p{base} {dest}, {a_reg}, {b_reg}")
            return
        if kind == "s":
            b_reg = self.reg_of(operand)
            dest = self._alloc(op)
            self._line(f"p{base}s {dest}, {a_reg}, {b_reg}")
            return
        value = operand
        if base in _CMP_IMM_OPS and _IMM13_MIN <= value <= _IMM13_MAX:
            dest = self._alloc(op)
            self._line(f"{_CMP_IMM_OPS[base]} {dest}, {a_reg}, {value}")
            return
        temp = self._materialize(value)
        dest = self._alloc(op)
        self._line(f"p{base}s {dest}, {a_reg}, {temp}")

    def _emit_fbin(self, op: Op) -> None:
        base, a, b = op.args
        a_reg, b_reg = self.reg_of(a), self.reg_of(b)
        dest = self._alloc(op)
        self._line(f"{base} {dest}, {a_reg}, {b_reg}")

    def _emit_fnot(self, op: Op) -> None:
        a_reg = self.reg_of(op.args[0])
        dest = self._alloc(op)
        self._line(f"fnot {dest}, {a_reg}")

    def _emit_reduce(self, op: Op) -> None:
        mnemonic, value, mask = op.args
        v_reg = self.reg_of(value)
        m_reg = self.reg_of(mask)
        dest = self._alloc(op)
        suffix = "" if m_reg == "f0" else f" [{m_reg}]"
        self._line(f"{mnemonic} {dest}, {v_reg}{suffix}")

    def _emit_rflag(self, op: Op) -> None:
        mnemonic, flags, mask = op.args
        f_reg = self.reg_of(flags)
        m_reg = self.reg_of(mask)
        dest = self._alloc(op)
        suffix = "" if m_reg == "f0" else f" [{m_reg}]"
        self._line(f"{mnemonic} {dest}, {f_reg}{suffix}")

    def _emit_rfirst(self, op: Op) -> None:
        flags, mask = op.args
        f_reg = self.reg_of(flags)
        m_reg = self.reg_of(mask)
        dest = self._alloc(op)
        suffix = "" if m_reg == "f0" else f" [{m_reg}]"
        self._line(f"rfirst {dest}, {f_reg}{suffix}")

    def _emit_rget(self, op: Op) -> None:
        value, one_hot = op.args
        v_reg = self.reg_of(value)
        h_reg = self.reg_of(one_hot)
        dest = self._alloc(op)
        self._line(f"rget {dest}, {v_reg} [{h_reg}]")

    def _emit_sbin(self, op: Op) -> None:
        base, a, kind, operand = op.args
        a_reg = self.reg_of(a)
        if kind == "s":
            b_reg = self.reg_of(operand)
            dest = self._alloc(op)
            self._line(f"{base} {dest}, {a_reg}, {b_reg}")
            return
        value = operand
        if base == "add" and -32768 <= value <= 32767:
            dest = self._alloc(op)
            self._line(f"addi {dest}, {a_reg}, {value}")
            return
        if base == "sub" and -32768 <= -value <= 32767:
            dest = self._alloc(op)
            self._line(f"addi {dest}, {a_reg}, {-value}")
            return
        if base in ("and", "or", "xor") and 0 <= value <= 0xFFFF:
            dest = self._alloc(op)
            self._line(f"{base}i {dest}, {a_reg}, {value}")
            return
        temp = self._materialize(value)
        dest = self._alloc(op)
        self._line(f"{base} {dest}, {a_reg}, {temp}")

    def _emit_psel(self, op: Op) -> None:
        cond, a, b = op.args
        c_reg = self.reg_of(cond)
        a_reg, b_reg = self.reg_of(a), self.reg_of(b)
        dest = self._alloc(op)
        self._line(f"psel {dest}, {a_reg}, {b_reg}, {c_reg}")
