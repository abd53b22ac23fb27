"""Assembled program container."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.isa.instruction import Instruction


@dataclass(frozen=True, slots=True)
class SourceLine:
    """Provenance of one assembled instruction.

    ``expansion`` is the instruction's index within its source
    statement's pseudo-op expansion: 0 for the first (or only) emitted
    instruction, 1+ for the extra instructions a pseudo-op (``li``,
    ``rnone``, ...) expands into.
    """

    lineno: int
    text: str
    expansion: int = 0


@dataclass(frozen=True)
class Program:
    """The output of the assembler: code, initialized data and symbols.

    * ``instructions`` — instruction memory, one entry per word; the PC is
      an index into this tuple.
    * ``data`` — initial contents of the control unit's scalar data
      memory (word-addressed).
    * ``symbols`` — label/``.equ`` values (text labels are instruction
      addresses, data labels are scalar-memory word addresses).
    * ``source_map`` — instruction index → originating source line, used
      for simulator tracebacks and pipeline traces.

    A program is immutable: :func:`~repro.asm.assembler.assemble` hands
    one shared object to every caller that assembles the same text.
    ``instructions`` and ``data`` are tuples (sequences passed in are
    copied); ``symbols`` and ``source_map`` are debug metadata and must
    be treated as read-only.
    """

    instructions: tuple[Instruction, ...] = ()
    data: tuple[int, ...] = ()
    symbols: dict[str, int] = field(default_factory=dict)
    source_map: dict[int, SourceLine] = field(default_factory=dict)
    entry: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "data", tuple(self.data))

    def __len__(self) -> int:
        return len(self.instructions)

    def encode(self) -> list[int]:
        """Machine words for the whole text section."""
        return [instr.encode() for instr in self.instructions]

    @cached_property
    def fingerprint(self) -> dict:
        """The execution-relevant bits: machine words, data image, entry.

        Exactly what the hardware would see; symbols and the source map
        stay out.  :func:`repro.serve.identity.job_key` hashes this for
        every job, so it is computed once and kept with the program.  It
        is not a field: it takes no part in ``==`` and must not be
        mutated.
        """
        return {"words": tuple(self.encode()),
                "data": tuple(int(w) for w in self.data),
                "entry": self.entry}

    def location_of(self, pc: int) -> str:
        """Human-readable source location for a PC, for diagnostics."""
        src = self.source_map.get(pc)
        if src is None:
            return f"pc={pc}"
        return f"pc={pc} (line {src.lineno}: {src.text.strip()})"
