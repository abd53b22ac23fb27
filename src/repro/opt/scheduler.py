"""Latency-aware static instruction scheduling (list scheduling).

Implements the ILP alternative the paper weighs against multithreading
(Section 5): "The compiler or programmer could schedule the instructions
in order to diminish the number of stall cycles, but the exact latency
of reduction instructions depends on the number of PEs ... Furthermore,
for a large machine, the latency could be much higher than the degree of
instruction-level parallelism (ILP) in the code."

The dependence DAG per basic block (RAW/WAR/WAW over all three register
files including execution masks, conservative memory ordering per
address space) comes from the shared analysis machinery
(:func:`repro.analysis.deps.build_block_deps`) with RAW edges weighted
by the *same* latency model the cycle-accurate core enforces; the pass
then list-schedules by critical-path priority.  Because the scheduler
targets a specific :class:`ProcessorConfig`, its effectiveness is
machine-dependent — exactly the compile-time-unknown-latency problem
the paper points out, which experiment E10 quantifies.

Semantics preservation: reordering respects every data/memory/control
dependence, control transfers stay in final position, barriers (thread
ops, halt) are immovable, and blocks keep their extents so no label or
branch offset changes.  The tests re-run every kernel after scheduling
and require identical architectural outputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.asm.program import Program
from repro.core import timing
from repro.core.config import ProcessorConfig
from repro.isa.instruction import Instruction
from repro.opt.blocks import basic_blocks


def raw_edge_latency(producer: Instruction, consumer: Instruction,
                     regfile: str, cfg: ProcessorConfig) -> int:
    """Minimum issue-cycle gap for a RAW dependence (>= 1).

    Mirrors the core's scoreboard math: the consumer may issue once the
    producer's result cycle precedes the consumer's read point.
    """
    return timing.raw_issue_gap(producer.spec, regfile, cfg)


@dataclass
class DepNode:
    """One instruction in the block's dependence DAG."""

    index: int                      # position within the block
    instr: Instruction
    succs: dict[int, int] = field(default_factory=dict)  # succ -> latency
    num_preds: int = 0
    priority: int = 0               # critical-path length to block exit

    def add_succ(self, other: "DepNode", latency: int) -> None:
        prev = self.succs.get(other.index)
        if prev is None or latency > prev:
            if prev is None:
                other.num_preds += 1
            self.succs[other.index] = latency


def build_dag(instrs: list[Instruction], cfg: ProcessorConfig,
              ) -> list[DepNode]:
    """Dependence DAG for one basic block's instructions.

    The edges come from the shared per-block dependence analysis
    (:func:`repro.analysis.deps.build_block_deps`), reduced to the
    max-latency-per-pair successor form list scheduling consumes.
    """
    from repro.analysis.deps import build_block_deps

    nodes = [DepNode(i, ins) for i, ins in enumerate(instrs)]
    succ_maps = build_block_deps(instrs, cfg).successor_latencies()
    for src, succ_map in enumerate(succ_maps):
        for dst, latency in succ_map.items():
            nodes[src].succs[dst] = latency
            nodes[dst].num_preds += 1

    # Critical-path priorities (reverse topological order = reverse
    # index order, since all edges go forward in a basic block).
    for node in reversed(nodes):
        node.priority = max(
            (lat + nodes[succ].priority
             for succ, lat in node.succs.items()), default=0)
    return nodes


def schedule_block_order(instrs: list[Instruction], cfg: ProcessorConfig,
                         ) -> list[int]:
    """List-schedule one basic block; returns the permutation of
    block-relative indices (``order[k]`` = original index of the
    instruction scheduled into slot ``k``)."""
    if len(instrs) <= 1:
        return list(range(len(instrs)))
    nodes = build_dag(instrs, cfg)
    earliest = [0] * len(nodes)
    preds_left = [n.num_preds for n in nodes]
    # ``ready``: issuable now, ordered by critical-path priority (original
    # index as a stable tiebreak).  ``pending``: dependences satisfied but
    # result latency not yet elapsed, ordered by earliest issue time.
    ready: list[tuple[int, int]] = []
    pending: list[tuple[int, int, int]] = []
    for node in nodes:
        if preds_left[node.index] == 0:
            heapq.heappush(ready, (-node.priority, node.index))

    order: list[int] = []
    clock = 0
    while ready or pending:
        while pending and pending[0][0] <= clock:
            _, negprio, idx = heapq.heappop(pending)
            heapq.heappush(ready, (negprio, idx))
        if not ready:
            clock = pending[0][0]
            continue
        _, idx = heapq.heappop(ready)
        node = nodes[idx]
        order.append(idx)
        issue = clock
        clock += 1
        for succ, lat in node.succs.items():
            earliest[succ] = max(earliest[succ], issue + lat)
            preds_left[succ] -= 1
            if preds_left[succ] == 0:
                if earliest[succ] <= clock:
                    heapq.heappush(ready, (-nodes[succ].priority, succ))
                else:
                    heapq.heappush(pending,
                                   (earliest[succ], -nodes[succ].priority,
                                    succ))
    assert len(order) == len(instrs)
    return order


def schedule_block(instrs: list[Instruction], cfg: ProcessorConfig,
                   ) -> list[Instruction]:
    """List-schedule one basic block; returns the new instruction order."""
    return [instrs[i] for i in schedule_block_order(instrs, cfg)]


class ListScheduler:
    """Whole-program static scheduler targeting one machine config."""

    def __init__(self, cfg: ProcessorConfig) -> None:
        self.cfg = cfg

    def run(self, program: Program) -> Program:
        """Return a new, semantically equivalent, scheduled Program.

        The source map is transferred exactly: each block's scheduled
        permutation maps every output slot back to the input pc whose
        provenance it inherits (pseudo-op expansions included).
        """
        new_instrs: list[Instruction] = list(program.instructions)
        new_source_map = dict(program.source_map)
        for block in basic_blocks(program):
            block_in = program.instructions[block.start:block.end]
            perm = schedule_block_order(block_in, self.cfg)
            new_instrs[block.start:block.end] = \
                [block_in[i] for i in perm]
            for slot, orig in enumerate(perm):
                src = program.source_map.get(block.start + orig)
                if src is not None:
                    new_source_map[block.start + slot] = src
                else:
                    new_source_map.pop(block.start + slot, None)
        return Program(
            instructions=new_instrs,
            data=program.data,
            symbols=dict(program.symbols),
            source_map=new_source_map,
            entry=program.entry,
        )


def schedule_program(program: Program, cfg: ProcessorConfig) -> Program:
    """Convenience wrapper around :class:`ListScheduler`."""
    return ListScheduler(cfg).run(program)


def schedule_program_verified(program: Program, cfg: ProcessorConfig,
                              ) -> tuple[Program, "EquivReport"]:
    """Schedule and translation-validate in one step.

    Returns the scheduled program together with the
    :class:`repro.analysis.equiv.EquivReport` proving (or refuting) its
    block-by-block equivalence to the input.  Callers that demand a
    validated schedule must check ``report.equivalent`` — the scheduled
    program is returned either way so refutations can be inspected.
    """
    from repro.analysis.equiv import EquivReport, validate_programs

    scheduled = ListScheduler(cfg).run(program)
    report: EquivReport = validate_programs(program, scheduled,
                                            cfg.word_width)
    return scheduled, report
