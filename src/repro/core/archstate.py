"""The architectural-state accessors, defined once.

Every view of a machine's outcome answers ``scalar``, ``pe_reg``,
``pe_flag`` and ``memory`` the same way: the live
:class:`~repro.core.processor.RunResult` of any backend, the debugger,
and the pickle-safe :class:`~repro.serve.snapshot.ResultSnapshot`.  The
accessors read four planes, named as the snapshot's fields: ``scalars``
(thread × register), ``pe_regs`` (thread × register × PE), ``pe_flags``
(thread × flag × PE) and ``mem_words`` (scalar data memory).  The
snapshot holds the planes; :class:`LiveState` reads them from a running
machine.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.memory import check_dump


class ArchState:
    """``scalar`` / ``pe_reg`` / ``pe_flag`` / ``memory`` over the planes.

    Scalars come back as ``int``, PE registers as ``int64`` copies, flags
    as ``bool`` copies and memory as a list of ``int``; a memory range
    outside the RAM raises :class:`~repro.core.memory.ScalarMemoryFault`.
    """

    scalars: Any
    pe_regs: np.ndarray
    pe_flags: np.ndarray
    mem_words: Any

    def scalar(self, reg: int, thread: int = 0) -> int:
        return int(self.scalars[thread][reg])

    def pe_reg(self, reg: int, thread: int = 0) -> np.ndarray:
        return self.pe_regs[thread, reg].astype(np.int64)

    def pe_flag(self, flag: int, thread: int = 0) -> np.ndarray:
        return self.pe_flags[thread, flag].copy()

    def memory(self, base: int, count: int) -> list[int]:
        check_dump(base, count, len(self.mem_words))
        return self.mem_words[base:base + count].tolist()


class LiveState(ArchState):
    """The planes of ``self.processor``: any machine with ``threads``,
    ``pe`` and ``mem`` (the cycle core, which the fast backend is, or the
    functional machine).  The PE planes are read-only views, so reading
    them leaves the machine's record of written state as it is."""

    processor: Any

    @property
    def scalars(self) -> list[list[int]]:
        return [ctx.sregs for ctx in self.processor.threads]

    @property
    def pe_regs(self) -> np.ndarray:
        return self.processor.pe.frozen("regs")

    @property
    def pe_flags(self) -> np.ndarray:
        return self.processor.pe.frozen("flags")

    @property
    def mem_words(self) -> np.ndarray:
        return self.processor.mem.dump_array()
