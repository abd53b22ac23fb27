"""Two-pass assembler for the KASC-MT ISA.

Source syntax (MIPS-flavoured)::

    # comment (';' also starts a comment)
    .equ  LIMIT, 100          # symbolic constant
    .data                     # scalar data section (word addressed)
    table:  .word 3, 1, 4, 1, 5
            .space 4          # four zero words
    .text                     # code section (default at start of file)
    main:
            li    s1, LIMIT   # pseudo-instruction
    loop:   addi  s1, s1, -1
            padds p1, p1, s1 [f2]   # optional [fN] execution mask
            plw   p2, 4(p3)   [f1]
            bne   s1, s0, loop
            halt

Labels in ``.text`` resolve to instruction addresses (the PC is an
instruction index); labels in ``.data`` resolve to scalar-memory word
addresses.  Immediate expressions support integers (decimal, hex, binary,
char literals), symbols, unary minus and binary ``+``/``-``.

Pseudo-instructions (expanded during assembly; ``s15``/``at`` is the
reserved assembler temporary):

====================  =====================================================
``nop``               ``add s0, s0, s0``
``li rd, imm``        ``ori``/``addi``/``lui+ori`` depending on the value
``la rd, label``      ``ori rd, s0, label``
``move rd, rs``       ``add rd, rs, s0``
``not rd, rs``        ``nor rd, rs, s0``
``neg rd, rs``        ``sub rd, s0, rs``
``b label``           ``beq s0, s0, label``
``beqz/bnez r, l``    ``beq/bne r, s0, l``
``bgt/ble a, b, l``   ``blt/bge b, a, l``
``call label``        ``jal label``
``ret``               ``jr ra``
``pli pd, imm [f]``   ``paddi pd, p0, imm [f]``
``pmov pd, ps [f]``   ``por pd, ps, p0 [f]``
``rnone rd, fs [f]``  ``rany rd, fs [f]`` ; ``sltiu rd, rd, 1``
====================  =====================================================
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.asm.program import Program, SourceLine
from repro.isa import registers
from repro.isa.instruction import Instruction, IsaError
from repro.isa.opcodes import OPCODES, ImmKind

AT = registers.ASM_TEMP_REG


class AsmError(ValueError):
    """Assembly failure with source location context."""

    def __init__(self, message: str, lineno: int | None = None,
                 line: str | None = None) -> None:
        loc = f"line {lineno}: " if lineno is not None else ""
        src = f"\n    {line.strip()}" if line else ""
        super().__init__(f"{loc}{message}{src}")
        self.lineno = lineno


_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*)\s*:\s*(.*)$")
_MASK_RE = re.compile(r"\[\s*(f[0-7])\s*\]\s*$", re.IGNORECASE)
_MEM_RE = re.compile(r"^(.*)\(\s*([A-Za-z_$][\w$]*)\s*\)$")
_TOKEN_RE = re.compile(
    r"\s*(?:(0x[0-9A-Fa-f]+|0b[01]+|\d+)|('(?:\\.|[^'])')|([A-Za-z_.][\w.]*)"
    r"|([+\-()]))"
)


def li_representable(value: int, word_width: int) -> bool:
    """Whether ``li`` can load the literal ``value`` at ``word_width``:
    any imm16 pattern (``ori``/``addi``) and, at W = 32, any 32-bit
    pattern (``lui`` + ``ori``)."""
    return (-0x8000 <= value <= 0xFFFF
            or (word_width == 32 and -(1 << 31) <= value < (1 << 32)))


@dataclass
class _Item:
    """One source statement surviving to pass 2."""

    lineno: int
    text: str
    kind: str                 # "instr" | "word" | "space"
    mnemonic: str = ""
    operands: list[str] = field(default_factory=list)
    mask: str | None = None
    address: int = 0          # text or data address depending on kind
    exprs: list[str] = field(default_factory=list)  # for .word
    count: int = 0            # for .space
    expansion: int = 0        # index within a pseudo-op expansion


class Assembler:
    """Two-pass assembler; see module docstring for syntax."""

    def __init__(self, word_width: int = 8) -> None:
        self.word_width = word_width

    # -- public API ----------------------------------------------------------

    def assemble(self, source: str) -> Program:
        """Assemble ``source`` into a :class:`Program`."""
        items, symbols = self._pass1(source)
        return self._pass2(items, symbols)

    # -- pass 1: parse, expand pseudos, lay out addresses ---------------------

    def _pass1(self, source: str) -> tuple[list[_Item], dict[str, int]]:
        symbols: dict[str, int] = {}
        items: list[_Item] = []
        section = "text"
        text_addr = 0
        data_addr = 0

        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = re.split(r"[#;]", raw, maxsplit=1)[0].strip()
            while True:
                m = _LABEL_RE.match(line)
                if not m:
                    break
                label, line = m.group(1), m.group(2).strip()
                if label in symbols:
                    raise AsmError(f"duplicate label {label!r}", lineno, raw)
                symbols[label] = text_addr if section == "text" else data_addr

            if not line:
                continue

            if line.startswith("."):
                section, text_addr, data_addr = self._directive(
                    line, raw, lineno, items, symbols, section,
                    text_addr, data_addr,
                )
                continue

            if section != "text":
                raise AsmError("instructions only allowed in .text",
                               lineno, raw)

            expanded = self._parse_instr(line, raw, lineno)
            for k, (mnemonic, operands, mask) in enumerate(expanded):
                items.append(_Item(lineno, raw, "instr", mnemonic=mnemonic,
                                   operands=operands, mask=mask,
                                   address=text_addr, expansion=k))
                text_addr += 1
        return items, symbols

    def _directive(self, line: str, raw: str, lineno: int,
                   items: list[_Item], symbols: dict[str, int],
                   section: str, text_addr: int, data_addr: int,
                   ) -> tuple[str, int, int]:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".text":
            return "text", text_addr, data_addr
        if name == ".data":
            return "data", text_addr, data_addr
        if name == ".equ":
            bits = [b.strip() for b in rest.split(",", 1)]
            if len(bits) != 2 or not bits[0]:
                raise AsmError(".equ requires 'name, value'", lineno, raw)
            if bits[0] in symbols:
                raise AsmError(f"duplicate symbol {bits[0]!r}", lineno, raw)
            symbols[bits[0]] = self._eval(bits[1], symbols, lineno, raw)
            return section, text_addr, data_addr
        if name == ".word":
            if section != "data":
                raise AsmError(".word only allowed in .data", lineno, raw)
            exprs = [e.strip() for e in rest.split(",") if e.strip()]
            if not exprs:
                raise AsmError(".word requires at least one value", lineno, raw)
            items.append(_Item(lineno, raw, "word", address=data_addr,
                               exprs=exprs))
            return section, text_addr, data_addr + len(exprs)
        if name == ".space":
            if section != "data":
                raise AsmError(".space only allowed in .data", lineno, raw)
            count = self._eval(rest, symbols, lineno, raw)
            if count < 0:
                raise AsmError(".space count must be non-negative", lineno, raw)
            items.append(_Item(lineno, raw, "space", address=data_addr,
                               count=count))
            return section, text_addr, data_addr + count
        raise AsmError(f"unknown directive {name!r}", lineno, raw)

    def _parse_instr(self, line: str, raw: str, lineno: int,
                     ) -> list[tuple[str, list[str], str | None]]:
        """Split one statement and expand pseudo-instructions."""
        mask = None
        m = _MASK_RE.search(line)
        if m:
            mask = m.group(1).lower()
            line = line[: m.start()].strip()
            if not line:
                raise AsmError("execution mask without an instruction",
                               lineno, raw)
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        opstring = parts[1] if len(parts) > 1 else ""
        operands = [o.strip() for o in opstring.split(",")] if opstring.strip() else []
        if any(not o for o in operands):
            raise AsmError("empty operand", lineno, raw)
        return self._expand(mnemonic, operands, mask, raw, lineno)

    def _expand(self, mnemonic: str, ops: list[str], mask: str | None,
                raw: str, lineno: int,
                ) -> list[tuple[str, list[str], str | None]]:
        def need(n: int) -> None:
            if len(ops) != n:
                raise AsmError(
                    f"{mnemonic} expects {n} operand(s), got {len(ops)}",
                    lineno, raw)

        if mnemonic in OPCODES:
            return [(mnemonic, ops, mask)]
        if mnemonic == "nop":
            need(0)
            return [("add", ["s0", "s0", "s0"], None)]
        if mnemonic == "li":
            need(2)
            return self._expand_li(ops[0], ops[1], raw, lineno)
        if mnemonic == "la":
            need(2)
            return [("ori", [ops[0], "s0", ops[1]], None)]
        if mnemonic == "move":
            need(2)
            return [("add", [ops[0], ops[1], "s0"], None)]
        if mnemonic == "not":
            need(2)
            return [("nor", [ops[0], ops[1], "s0"], None)]
        if mnemonic == "neg":
            need(2)
            return [("sub", [ops[0], "s0", ops[1]], None)]
        if mnemonic == "b":
            need(1)
            return [("beq", ["s0", "s0", ops[0]], None)]
        if mnemonic == "beqz":
            need(2)
            return [("beq", [ops[0], "s0", ops[1]], None)]
        if mnemonic == "bnez":
            need(2)
            return [("bne", [ops[0], "s0", ops[1]], None)]
        if mnemonic == "bgt":
            need(3)
            return [("blt", [ops[1], ops[0], ops[2]], None)]
        if mnemonic == "ble":
            need(3)
            return [("bge", [ops[1], ops[0], ops[2]], None)]
        if mnemonic == "call":
            need(1)
            return [("jal", ops, None)]
        if mnemonic == "ret":
            need(0)
            return [("jr", ["ra"], None)]
        if mnemonic == "pli":
            need(2)
            return [("paddi", [ops[0], "p0", ops[1]], mask)]
        if mnemonic == "pmov":
            need(2)
            return [("por", [ops[0], ops[1], "p0"], mask)]
        if mnemonic == "rnone":
            need(2)
            return [("rany", ops, mask),
                    ("sltiu", [ops[0], ops[0], "1"], None)]
        raise AsmError(f"unknown mnemonic {mnemonic!r}", lineno, raw)

    def _expand_li(self, rd: str, expr: str, raw: str, lineno: int,
                   ) -> list[tuple[str, list[str], str | None]]:
        """Expand ``li``; numeric literals choose the shortest encoding."""
        try:
            value = self._eval(expr, {}, lineno, raw)
        except AsmError:
            # Symbolic (possibly forward-referenced): addresses and .equ
            # constants are required to fit in an unsigned imm16.
            return [("ori", [rd, "s0", expr], None)]
        if not li_representable(value, self.word_width):
            raise AsmError(
                f"li value {value} not representable at word width "
                f"{self.word_width}", lineno, raw)
        if 0 <= value <= 0xFFFF:
            return [("ori", [rd, "s0", str(value)], None)]
        if -0x8000 <= value < 0:
            return [("addi", [rd, "s0", str(value)], None)]
        uval = value & 0xFFFFFFFF
        return [
            ("lui", [rd, str((uval >> 16) & 0xFFFF)], None),
            ("ori", [rd, rd, str(uval & 0xFFFF)], None),
        ]

    # -- pass 2: resolve symbols, build instructions --------------------------

    def _pass2(self, items: list[_Item], symbols: dict[str, int]) -> Program:
        data_len = 0
        for item in items:
            if item.kind != "instr":
                data_len = max(data_len, item.address
                               + (len(item.exprs) if item.kind == "word"
                                  else item.count))
        data = [0] * data_len
        instructions: list[Instruction] = []
        source_map: dict[int, SourceLine] = {}

        for item in items:
            if item.kind == "word":
                for i, expr in enumerate(item.exprs):
                    data[item.address + i] = self._eval(
                        expr, symbols, item.lineno, item.text)
            elif item.kind == "space":
                pass  # already zero-filled
            else:
                instr = self._build(item, symbols)
                assert item.address == len(instructions), (
                    "pass-1/pass-2 address mismatch")
                source_map[item.address] = SourceLine(
                    item.lineno, item.text, item.expansion)
                instructions.append(instr)
        # Invariant: every emitted instruction — pseudo-op expansions
        # included — carries source provenance.
        assert set(source_map) == set(range(len(instructions))), \
            "assembler source_map does not cover every instruction"
        return Program(instructions=instructions, data=data,
                       symbols=dict(symbols), source_map=source_map)

    def _build(self, item: _Item, symbols: dict[str, int]) -> Instruction:
        spec = OPCODES[item.mnemonic]
        fields: dict[str, int] = {}
        if len(item.operands) != len(spec.operands):
            raise AsmError(
                f"{item.mnemonic} expects {len(spec.operands)} operand(s), "
                f"got {len(item.operands)}", item.lineno, item.text)
        if item.mask is not None and not spec.masked:
            raise AsmError(
                f"{item.mnemonic} does not accept an execution mask",
                item.lineno, item.text)
        for text, (kind, fname) in zip(item.operands, spec.operands):
            self._operand(text, kind, fname, fields, symbols, spec, item)
        if item.mask is not None:
            fields["mf"] = registers.parse_flag_reg(item.mask)
        try:
            return Instruction(spec.mnemonic, **fields)
        except IsaError as exc:
            raise AsmError(str(exc), item.lineno, item.text)

    def _operand(self, text: str, kind: str, fname: str,
                 fields: dict[str, int], symbols: dict[str, int],
                 spec, item: _Item) -> None:
        lineno, raw = item.lineno, item.text
        try:
            if kind == "sreg":
                fields[fname] = registers.parse_scalar_reg(text)
            elif kind == "preg":
                fields[fname] = registers.parse_parallel_reg(text)
            elif kind == "freg":
                fields[fname] = registers.parse_flag_reg(text)
            elif kind in ("imm", "regidx"):
                value = self._eval(text, symbols, lineno, raw)
                if spec.imm_kind is ImmKind.OFFSET:
                    # Branch targets may be written as labels; a label
                    # resolves to an absolute address which we convert to
                    # a PC-relative offset (relative to the next
                    # instruction, as fetched hardware would see it).
                    if self._is_symbolic(text, symbols):
                        value = value - (item.address + 1)
                fields[fname] = value
            elif kind == "target":
                value = self._eval(text, symbols, lineno, raw)
                fields[fname] = value
            elif kind in ("mem_s", "mem_p"):
                m = _MEM_RE.match(text)
                if not m:
                    raise AsmError(
                        f"expected 'offset(reg)' operand, got {text!r}",
                        lineno, raw)
                offset, base = m.group(1).strip(), m.group(2)
                fields["imm"] = (self._eval(offset, symbols, lineno, raw)
                                 if offset else 0)
                parse = (registers.parse_scalar_reg if kind == "mem_s"
                         else registers.parse_parallel_reg)
                fields["rs"] = parse(base)
            else:  # pragma: no cover - exhaustive over operand kinds
                raise AssertionError(kind)
        except registers.RegisterError as exc:
            raise AsmError(str(exc), lineno, raw)

    # -- expression evaluation -------------------------------------------------

    def _is_symbolic(self, text: str, symbols: dict[str, int]) -> bool:
        return any(tok in symbols for tok in re.findall(r"[A-Za-z_.][\w.]*", text))

    def _eval(self, text: str, symbols: dict[str, int],
              lineno: int, raw: str) -> int:
        """Evaluate an integer expression: ints, chars, symbols, + - ()."""
        tokens: list[str | int] = []
        pos = 0
        text = text.strip()
        if not text:
            raise AsmError("empty expression", lineno, raw)
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise AsmError(f"bad expression {text!r}", lineno, raw)
            num, char, sym, op = m.groups()
            if num is not None:
                tokens.append(int(num, 0))
            elif char is not None:
                body = char[1:-1]
                decoded = body.encode().decode("unicode_escape")
                if len(decoded) != 1:
                    raise AsmError(f"bad char literal {char}", lineno, raw)
                tokens.append(ord(decoded))
            elif sym is not None:
                if sym not in symbols:
                    raise AsmError(f"undefined symbol {sym!r}", lineno, raw)
                tokens.append(symbols[sym])
            else:
                tokens.append(op)
            pos = m.end()

        result, rest = self._eval_expr(tokens, lineno, raw)
        if rest:
            raise AsmError(f"trailing tokens in expression {text!r}",
                           lineno, raw)
        return result

    def _eval_expr(self, tokens: list, lineno: int, raw: str,
                   ) -> tuple[int, list]:
        value, tokens = self._eval_term(tokens, lineno, raw)
        while tokens and tokens[0] in ("+", "-"):
            op, tokens = tokens[0], tokens[1:]
            rhs, tokens = self._eval_term(tokens, lineno, raw)
            value = value + rhs if op == "+" else value - rhs
        return value, tokens

    def _eval_term(self, tokens: list, lineno: int, raw: str,
                   ) -> tuple[int, list]:
        if not tokens:
            raise AsmError("unexpected end of expression", lineno, raw)
        head, rest = tokens[0], tokens[1:]
        if head == "-":
            value, rest = self._eval_term(rest, lineno, raw)
            return -value, rest
        if head == "+":
            return self._eval_term(rest, lineno, raw)
        if head == "(":
            value, rest = self._eval_expr(rest, lineno, raw)
            if not rest or rest[0] != ")":
                raise AsmError("unbalanced parentheses", lineno, raw)
            return value, rest[1:]
        if isinstance(head, int):
            return head, rest
        raise AsmError(f"unexpected token {head!r} in expression",
                       lineno, raw)


#: Retention budget of the program memo behind :func:`assemble`, in
#: instructions (a kernel-library instruction, with its source line and
#: fingerprint, holds about 420 B, so about 1.7 MiB).  An entry costs its
#: instructions plus one unit per 16 data words, or one unit per 64 bytes
#: of source text when that is more, and at least one unit: a long
#: comment or a large ``.space`` cannot pin memory its instruction count
#: does not show.
MEMO_BUDGET = 4096


class ProgramMemo:
    """Bounded LRU of assembled programs.

    Keyed by ``(source, word_width)``, the assembler's only inputs, so
    every caller that assembles the same text gets the same immutable
    :class:`Program`; :data:`PROGRAM_MEMO` is the process-wide instance.
    Least recently used entries are evicted first once the retained cost
    passes ``budget``; a program that costs more than the whole budget is
    returned but not kept.
    """

    def __init__(self, budget: int = MEMO_BUDGET) -> None:
        self.budget = budget
        self._entries: OrderedDict[tuple[str, int], tuple[Program, int]] = \
            OrderedDict()
        self._lock = threading.Lock()
        self._cost = 0
        self.instructions = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def assemble(self, source: str, word_width: int) -> Program:
        key = (source, word_width)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0]
            self.misses += 1
        program = Assembler(word_width=word_width).assemble(source)
        cost = max(1, len(program) + len(program.data) // 16,
                   len(source) // 64)
        if cost > self.budget:
            return program
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:      # another thread assembled it first
                return raced[0]
            self._entries[key] = (program, cost)
            self._cost += cost
            self.instructions += len(program)
            while self._cost > self.budget:
                _, (old, old_cost) = self._entries.popitem(last=False)
                self._cost -= old_cost
                self.instructions -= len(old)
                self.evictions += 1
        return program

    def stats(self) -> dict:
        """Counters plus what is retained now, as a JSON-safe dict."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "programs": len(self._entries),
                    "instructions": self.instructions,
                    "budget": self.budget}


#: The memo :func:`assemble` consults.
PROGRAM_MEMO = ProgramMemo()


def assemble(source: str, word_width: int = 8) -> Program:
    """Assemble ``source``; returns a shared, immutable :class:`Program`.

    Each distinct ``(source, word_width)`` is assembled once per process
    and served from :data:`PROGRAM_MEMO` after that, so callers must not
    expect a fresh object.  ``Assembler(word_width).assemble(source)``
    always builds a new (equal) one.
    """
    return PROGRAM_MEMO.assemble(source, word_width)
