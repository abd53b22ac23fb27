"""Sequential (non-pipelined) functional units and their structural hazards.

Section 6.2: the multiplier "is optional and can be implemented in one of
two ways" — fast, fully pipelined hard-multiplier blocks, or "a sequential
multiplier that uses fewer FPGA resources, but is slower and cannot be
used by multiple threads simultaneously".  The divider "is only available
as a sequential unit".

The PE array operates in lockstep, so each *kind* of sequential unit is a
single shared resource from the issue logic's point of view: while any
thread's sequential multiply is in flight, no other multiply may begin.
The cycle core keeps one busy-until cycle per kind of unit (see
:data:`repro.core.timing.UNIT_NAMES`); this module holds their latencies.
"""

from __future__ import annotations

# Latency presets (cycles).  A W-bit sequential multiplier retires one bit
# of the multiplier operand per cycle; the restoring divider needs W + 2.
PIPELINED_MUL_LATENCY = 3


def sequential_mul_latency(word_width: int) -> int:
    """Cycles for one sequential multiply at the given word width."""
    return word_width


def sequential_div_latency(word_width: int) -> int:
    """Cycles for one sequential divide at the given word width."""
    return word_width + 2
