"""Processing-element array: state, ALU semantics, sequential units."""

from repro.pe.pe_array import MemoryFault, PEArray
from repro.pe.alu import CMP_OPS, FLAG_OPS, INT_OPS
from repro.pe.seq_units import (
    PIPELINED_MUL_LATENCY,
    sequential_div_latency,
    sequential_mul_latency,
)

__all__ = [
    "MemoryFault",
    "PEArray",
    "CMP_OPS",
    "FLAG_OPS",
    "INT_OPS",
    "PIPELINED_MUL_LATENCY",
    "sequential_div_latency",
    "sequential_mul_latency",
]
