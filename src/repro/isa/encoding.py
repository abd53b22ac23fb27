"""Binary instruction encoding and decoding.

32-bit fixed-width words; formats per :mod:`repro.isa.opcodes`:

=======  ==========================================================
Format   Layout (msb..lsb)
=======  ==========================================================
R        op[31:26] rd[25:21] rs[20:16] rt[15:11] mf[10:8] funct[7:0]
I        op[31:26] rd[25:21] rs[20:16] imm16[15:0]
IP       op[31:26] rd[25:21] rs[20:16] mf[15:13] imm13[12:0]
J        op[31:26] target[25:0]
=======  ==========================================================

Signed immediates (``SIGNED``/``OFFSET`` kinds) are stored two's
complement in the imm field and sign-extended on decode, so the
``Instruction.imm`` attribute always carries the semantic value.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.isa.instruction import Instruction, IsaError
from repro.isa.opcodes import Format, ImmKind, lookup
from repro.util.bitops import sign_extend, wrap_to_width

WORD_BITS = 32


class DecodeError(IsaError):
    """Raised when a word does not decode to any defined instruction."""


def _imm_is_signed(kind: ImmKind | None) -> bool:
    return kind in (ImmKind.SIGNED, ImmKind.OFFSET)


def encode(instr: Instruction) -> int:
    """Pack an :class:`Instruction` into its 32-bit machine word.

    Instructions validate their fields when built and are immutable, so
    every field is in range here.
    """
    spec = instr.spec
    word = (spec.opcode & 0x3F) << 26
    if spec.fmt is Format.R:
        word |= (instr.rd & 0x1F) << 21
        word |= (instr.rs & 0x1F) << 16
        word |= (instr.rt & 0x1F) << 11
        word |= (instr.mf & 0x7) << 8
        word |= spec.funct & 0xFF
    elif spec.fmt is Format.I:
        word |= (instr.rd & 0x1F) << 21
        word |= (instr.rs & 0x1F) << 16
        word |= wrap_to_width(instr.imm, 16)
    elif spec.fmt is Format.IP:
        word |= (instr.rd & 0x1F) << 21
        word |= (instr.rs & 0x1F) << 16
        word |= (instr.mf & 0x7) << 13
        word |= wrap_to_width(instr.imm, 13)
    elif spec.fmt is Format.J:
        word |= instr.target & 0x3FFFFFF
    else:  # pragma: no cover - exhaustive over Format
        raise AssertionError(spec.fmt)
    return word


def decode(word: int) -> Instruction:
    """Unpack a 32-bit machine word into an :class:`Instruction`."""
    if not 0 <= word < (1 << WORD_BITS):
        raise DecodeError(f"word out of 32-bit range: {word:#x}")
    opcode = (word >> 26) & 0x3F
    funct = word & 0xFF
    spec = lookup(opcode, funct)
    if spec is None:
        raise DecodeError(
            f"undefined instruction word {word:#010x} "
            f"(opcode={opcode}, funct={funct})"
        )
    rd, rs = (word >> 21) & 0x1F, (word >> 16) & 0x1F
    signed = _imm_is_signed(spec.imm_kind)
    fields: dict[str, int]
    if spec.fmt is Format.R:
        fields = dict(rd=rd, rs=rs, rt=(word >> 11) & 0x1F,
                      mf=(word >> 8) & 0x7)
    elif spec.fmt is Format.I:
        raw = word & 0xFFFF
        fields = dict(rd=rd, rs=rs,
                      imm=sign_extend(raw, 16) if signed else raw)
    elif spec.fmt is Format.IP:
        raw = word & 0x1FFF
        fields = dict(rd=rd, rs=rs, mf=(word >> 13) & 0x7,
                      imm=sign_extend(raw, 13) if signed else raw)
    elif spec.fmt is Format.J:
        fields = dict(target=word & 0x3FFFFFF)
    else:  # pragma: no cover
        raise AssertionError(spec.fmt)
    try:
        return Instruction(spec.mnemonic, **fields)
    except IsaError as exc:
        raise DecodeError(f"word {word:#010x} decodes to invalid fields: {exc}")


def encode_program(instructions: Sequence[Instruction]) -> list[int]:
    """Encode a whole instruction sequence."""
    return [encode(i) for i in instructions]


def decode_program(words: Sequence[int]) -> list[Instruction]:
    """Decode a whole word sequence."""
    return [decode(w) for w in words]
