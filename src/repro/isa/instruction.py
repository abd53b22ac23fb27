"""Decoded instruction representation.

An :class:`Instruction` is the in-simulator form of one 32-bit machine
word: its :class:`~repro.isa.opcodes.OpSpec` plus concrete field values.
The same object flows through the assembler (which constructs it from
source text), the encoder (which packs it to a word), the decoder (which
unpacks a word), and the pipeline (which reads its hazard roles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import registers
from repro.isa.opcodes import OPCODES, ExecClass, Format, ImmKind, OpSpec


class IsaError(ValueError):
    """Raised for malformed instructions (bad fields, unknown mnemonics)."""


#: One shared ``(regfile, index)`` tuple per register: interned programs
#: keep their instructions for the life of the process, so their hazard
#: roles point at these instead of each holding copies.
_REGS = {(regfile, index): (regfile, index)
         for regfile, size in registers.REGFILE_SIZES.items()
         for index in range(size)}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction; immutable once constructed.

    ``rd``/``rs``/``rt`` are register-field values (interpretation depends
    on the opcode: scalar, parallel or flag index — see the OpSpec operand
    table).  ``mf`` is the mask-flag field.  ``imm`` holds the semantic
    immediate (already sign-extended where the kind is signed).  ``target``
    holds an absolute instruction address for J-format.

    Assembled programs are interned and shared by every job that
    assembled the same text, so no field may change after construction;
    the hazard roles are computed once, here, for the same reason.
    """

    mnemonic: str
    rd: int = 0
    rs: int = 0
    rt: int = 0
    mf: int = registers.ALWAYS_FLAG
    imm: int = 0
    target: int = 0
    _dest: tuple[str, int] | None = field(
        init=False, repr=False, compare=False)
    _srcs: tuple[tuple[str, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mnemonic not in OPCODES:
            raise IsaError(f"unknown mnemonic: {self.mnemonic!r}")
        self.validate()
        spec = self.spec
        if spec.dest is not None:
            regfile, fname = spec.dest
            dest = _REGS[regfile, self._field(fname)]
        elif spec.implicit_dest is not None:
            dest = _REGS["s", spec.implicit_dest]
        else:
            dest = None
        srcs = [_REGS[regfile, self._field(fname)]
                for regfile, fname in spec.srcs]
        if spec.masked:
            srcs.append(_REGS["f", self.mf])
        object.__setattr__(self, "_dest", dest)
        object.__setattr__(self, "_srcs", tuple(srcs))

    # -- static metadata ---------------------------------------------------

    @property
    def spec(self) -> OpSpec:
        return OPCODES[self.mnemonic]

    @property
    def exec_class(self) -> ExecClass:
        return self.spec.exec_class

    # -- hazard roles -------------------------------------------------------

    def _field(self, name: str) -> int:
        if name == "link":
            return registers.LINK_REG
        return getattr(self, name)

    def dest_reg(self) -> tuple[str, int] | None:
        """The (regfile, index) this instruction writes, or None.

        Writes to the hardwired-zero registers (s0/p0) and to f0 are
        architectural no-ops but are still reported here; the register
        files themselves ignore them.
        """
        return self._dest

    def src_regs(self) -> tuple[tuple[str, int], ...]:
        """All (regfile, index) pairs this instruction reads.

        Includes the mask flag for masked instructions (the mask is a true
        data dependency: it is read in the PR stage).
        """
        return self._srcs

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check all field values are in range for this opcode."""
        spec = self.spec
        roles: list[tuple[str, str]] = []
        if spec.dest is not None:
            roles.append(spec.dest)
        roles.extend(spec.srcs)
        for regfile, fname in roles:
            if fname == "link":
                continue
            value = self._field(fname)
            size = registers.REGFILE_SIZES[regfile]
            if not 0 <= value < size:
                raise IsaError(
                    f"{self.mnemonic}: {regfile}-register field {fname}="
                    f"{value} out of range (0..{size - 1})"
                )
        if spec.masked or any(f == "mf" for _, f in spec.srcs):
            if not 0 <= self.mf < registers.NUM_FLAG_REGS:
                raise IsaError(
                    f"{self.mnemonic}: mask flag {self.mf} out of range"
                )
        if spec.imm_kind is not None:
            self._validate_imm(spec)
        if spec.fmt is Format.J and not 0 <= self.target < (1 << 26):
            raise IsaError(f"{self.mnemonic}: jump target out of range")

    def _validate_imm(self, spec: OpSpec) -> None:
        kind = spec.imm_kind
        bits = 13 if spec.fmt is Format.IP else 16
        if kind in (ImmKind.SIGNED, ImmKind.OFFSET):
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        elif kind is ImmKind.UNSIGNED:
            lo, hi = 0, (1 << bits) - 1
        elif kind is ImmKind.SHAMT:
            lo, hi = 0, 31
        elif kind is ImmKind.REGIDX:
            lo, hi = 0, registers.NUM_SCALAR_REGS - 1
        elif kind is ImmKind.TARGET:
            lo, hi = 0, (1 << bits) - 1
        else:  # pragma: no cover - exhaustive over ImmKind
            raise AssertionError(kind)
        if not lo <= self.imm <= hi:
            raise IsaError(
                f"{self.mnemonic}: immediate {self.imm} out of range "
                f"[{lo}, {hi}] for {kind.value}"
            )

    # -- encoding round trip (implemented in repro.isa.encoding) -------------

    def encode(self) -> int:
        from repro.isa.encoding import encode

        return encode(self)

    @staticmethod
    def decode(word: int) -> "Instruction":
        from repro.isa.encoding import decode

        return decode(word)

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        from repro.asm.disassembler import format_instruction

        return format_instruction(self)
