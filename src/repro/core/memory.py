"""Control-unit scalar data memory.

Word-addressed, single-cycle access in the MA stage (the prototype keeps
all data on-chip; off-chip memory is future work in the paper).
"""

from __future__ import annotations

import array

import numpy as np

from repro.util.bitops import mask_for_width


class ScalarMemoryFault(RuntimeError):
    """Raised on an out-of-range scalar memory access."""


def _typecode(word_width: int) -> str:
    """The unsigned ``array`` typecode whose items are ``word_width`` bits."""
    for code in "BHIL":
        if array.array(code).itemsize * 8 == word_width:
            return code
    raise ValueError(f"no unsigned {word_width}-bit array typecode")


def check_dump(base: int, count: int, words: int) -> None:
    """Raise unless ``count`` words from ``base`` fit a ``words``-word RAM."""
    if not 0 <= base < words:
        raise ScalarMemoryFault(
            f"scalar dump address {base} out of range "
            f"(memory has {words} words)")
    if count < 0 or base + count > words:
        raise ScalarMemoryFault("dump range out of bounds")


class ScalarMemory:
    """Word-addressed scalar RAM with W-bit storage.

    The words live in an ``array.array`` of the unsigned W-bit typecode,
    so :meth:`dump_array` copies the whole memory in one step.  It is not
    a numpy array: indexing one yields numpy scalars, whose wraparound
    would leak into the compiled ops' Python-int arithmetic.
    """

    def __init__(self, words: int, word_width: int) -> None:
        self.words = words
        self.word_mask = mask_for_width(word_width)
        self._typecode = _typecode(word_width)
        self.reset()

    def _check(self, addr: int, what: str) -> None:
        if not 0 <= addr < self.words:
            raise ScalarMemoryFault(
                f"scalar {what} address {addr} out of range "
                f"(memory has {self.words} words)")

    def load(self, addr: int) -> int:
        self._check(addr, "load")
        return self._mem[addr]

    def store(self, addr: int, value: int) -> None:
        self._check(addr, "store")
        self._mem[addr] = value & self.word_mask

    def load_image(self, data: list[int], base: int = 0) -> None:
        """Copy an assembled program's ``.data`` section into memory."""
        if base < 0 or base + len(data) > self.words:
            raise ScalarMemoryFault(
                f"data image of {len(data)} words at base {base} does not "
                f"fit in {self.words}-word memory")
        for i, value in enumerate(data):
            self._mem[base + i] = value & self.word_mask

    def dump(self, base: int, count: int) -> list[int]:
        check_dump(base, count, self.words)
        return self._mem[base:base + count].tolist()

    def dump_array(self) -> np.ndarray:
        """A numpy copy of every word, in the unsigned W-bit dtype."""
        return np.array(self._mem)

    def reset(self) -> None:
        self._mem = array.array(self._typecode, [0]) * self.words
