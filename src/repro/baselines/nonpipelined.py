"""The non-pipelined (multi-cycle) ASC Processor model.

Models the scalable ASC Processor of Wang & Walker [6] (paper Section 3):
no instruction pipelining at all — every instruction runs to completion
(fetch, decode, broadcast, execute, write back) before the next starts —
and max/min reductions use the bit-serial Falkoff algorithm at one bit
per cycle.

Implemented as a cost model over the functional interpreter: the
architectural semantics come from the shared compiled ops (so results
are identical to the other machines) while cycles are charged per
instruction class:

* scalar:     4 cycles (IF, ID, EX, WB);
* parallel:   5 cycles (IF, ID, broadcast-settle, EX, WB);
* reduction:  5 + extra, where extra is W - 1 additional cycles for the
  bit-serial Falkoff max/min and 0 for the single-settle OR/AND tree;
* sequential multiply/divide add their unit latencies;
* taken branches/jumps add 1 refetch cycle.

The unpipelined broadcast also caps the clock rate; that penalty lives in
:func:`repro.fpga.timing_model.nonpipelined_broadcast_fmax_mhz` so that
cycle counts and clock effects can be reported separately (experiment E3).
"""

from __future__ import annotations

from repro.asm.program import Program
from repro.assoc.functional import FunctionalMachine
from repro.core.config import MTMode, MultiplierKind, ProcessorConfig
from repro.core.processor import RunResult
from repro.core.stats import Stats
from repro.core.thread import EXITED, RUNNABLE
from repro.core.timing import K_HALT, K_TSPAWN
from repro.isa.opcodes import ExecClass
from repro.network.falkoff import falkoff_cycles
from repro.pe.seq_units import (
    sequential_div_latency,
    sequential_mul_latency,
)

SCALAR_CYCLES = 4
PARALLEL_CYCLES = 5
REDUCTION_BASE_CYCLES = 5
TAKEN_REDIRECT_CYCLES = 1


def nonpipelined_config(num_pes: int = 16, word_width: int = 8,
                        **overrides) -> ProcessorConfig:
    """Configuration for the non-pipelined machine (always 1 thread)."""
    return ProcessorConfig(num_pes=num_pes, num_threads=1,
                           word_width=word_width, mt_mode=MTMode.SINGLE,
                           pipelined_broadcast=False,
                           pipelined_reduction=False,
                           multiplier=MultiplierKind.SEQUENTIAL,
                           **overrides)


def instruction_cost(spec, cfg: ProcessorConfig, taken: bool) -> int:
    """Cycles the multi-cycle machine spends on one instruction."""
    if spec.exec_class is ExecClass.SCALAR:
        cost = SCALAR_CYCLES
    elif spec.exec_class is ExecClass.PARALLEL:
        cost = PARALLEL_CYCLES
    else:
        cost = REDUCTION_BASE_CYCLES
        if spec.reduction_unit == "maxmin":
            cost += falkoff_cycles(cfg.word_width) - 1
    if spec.is_mul:
        cost += sequential_mul_latency(cfg.word_width) - 1
    if spec.is_div:
        cost += sequential_div_latency(cfg.word_width) - 1
    if taken and (spec.is_branch or spec.is_jump):
        cost += TAKEN_REDIRECT_CYCLES
    return cost


class NonPipelinedMachine(FunctionalMachine):
    """Multi-cycle single-threaded ASC machine (cost model + interpreter)."""

    def __init__(self, config: ProcessorConfig | None = None) -> None:
        config = config or nonpipelined_config()
        if config.num_threads != 1:
            raise ValueError("the non-pipelined ASC Processor is "
                             "single-threaded")
        super().__init__(config)

    def run(self, program: Program | None = None,
            max_steps: int = 10_000_000) -> RunResult:
        if program is not None:
            self.load(program)
        thread = self.threads[0]
        cycles = 0
        instructions = 0
        while not self.halted and thread.state is RUNNABLE:
            pc = thread.pc
            kind = self.kinds[pc]
            next_pc = None
            if kind == K_TSPAWN:
                self.ops[pc](thread, cycles)
            else:
                next_pc = self.ops[pc](thread)
            cycles += instruction_cost(self.program.instructions[pc].spec,
                                       self.cfg, next_pc is not None)
            instructions += 1
            thread.pc = pc + 1 if next_pc is None else next_pc
            if kind == K_HALT:
                self.halted = True
            if thread.state is EXITED:
                self.threads.release(thread.tid)
            if instructions > max_steps:
                raise RuntimeError(
                    f"non-pipelined run exceeded {max_steps} instructions")
        return RunResult(Stats(cycles=cycles, instructions=instructions),
                         self)
