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
:data:`repro.core.timing.UNIT_NAMES`); :class:`SequentialUnit` is the
same busy-window bookkeeping as a standalone object.
"""

from __future__ import annotations

from dataclasses import dataclass

# Latency presets (cycles).  A W-bit sequential multiplier retires one bit
# of the multiplier operand per cycle; the restoring divider needs W + 2.
PIPELINED_MUL_LATENCY = 3


def sequential_mul_latency(word_width: int) -> int:
    """Cycles for one sequential multiply at the given word width."""
    return word_width


def sequential_div_latency(word_width: int) -> int:
    """Cycles for one sequential divide at the given word width."""
    return word_width + 2


@dataclass
class SequentialUnit:
    """Busy-window bookkeeping for one non-pipelined unit."""

    name: str
    latency: int
    busy_until: int = 0          # first cycle the unit is free again
    busy_cycles_total: int = 0   # statistics
    uses: int = 0

    def ready_at(self, cycle: int) -> int:
        """Earliest cycle ≥ ``cycle`` at which a new op may start."""
        return max(cycle, self.busy_until)

    def is_free(self, cycle: int) -> bool:
        return cycle >= self.busy_until

    def occupy(self, cycle: int) -> int:
        """Start an operation at ``cycle``; returns result-ready cycle."""
        if cycle < self.busy_until:
            raise RuntimeError(
                f"{self.name} issued at {cycle} while busy until "
                f"{self.busy_until}")
        self.busy_until = cycle + self.latency
        self.busy_cycles_total += self.latency
        self.uses += 1
        return self.busy_until

    def reset(self) -> None:
        self.busy_until = 0
        self.busy_cycles_total = 0
        self.uses = 0
