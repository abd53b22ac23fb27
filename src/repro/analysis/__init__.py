"""Static analysis over assembled programs.

The paper's central quantitative argument (Sections 4-5) is *static*:
broadcast, reduction, and broadcast-reduction hazards cost up to
``b + r`` stall cycles, and compile-time scheduling cannot hide them
because the reduction latency depends on the PE count.  This package
reproduces that argument symbolically, from the program text alone:

* :mod:`repro.analysis.cfg` — control-flow graph over the basic blocks
  of :mod:`repro.opt.blocks`, with spawned-thread entry points;
* :mod:`repro.analysis.dataflow` — reaching definitions, liveness, and
  def-use chains across all three register files and execution masks;
* :mod:`repro.analysis.deps` — the per-block dependence graph (RAW /
  WAR / WAW / memory / barrier) shared with the list scheduler;
* :mod:`repro.analysis.hazards` — the Figure-2 hazard classifier and a
  static stall-cycle estimate, replayed through the block summaries of
  :mod:`repro.analysis.timing`, that exactly reproduces the
  cycle-accurate core's stall counters on straight-line code;
* :mod:`repro.analysis.concurrency` — spawn graph, thread regions, and
  happens-before facts over ``tspawn``/``tjoin``/``tput``/``tget``,
  powering the cross-thread race / delivery / lifecycle lint checks;
* :mod:`repro.analysis.absint` — abstract interpretation over value
  intervals, responder-set (flag) tri-states, and local-memory address
  ranges;
* :mod:`repro.analysis.equiv` — symbolic-execution translation
  validation proving scheduler/compiler output equivalent to its input
  block by block (``repro verify``);
* :mod:`repro.analysis.timing` — compositional static timing:
  per-basic-block pipeline-state transfer summaries whose fold along a
  dynamic block path reproduces the cycle-accurate core's cycle counts
  exactly (the engine behind ``repro run --backend fast``), and whose
  fold over every path of an acyclic CFG is the exact worst-case cycle
  bound;
* :mod:`repro.analysis.lint` — the ``repro lint`` pass manager.
"""

from repro.analysis.absint import (
    AbsintResult,
    AbsState,
    Interval,
    analyze_intervals,
    flag_allows,
)

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.concurrency import (
    ConcurrencyAnalysis,
    ThreadRegion,
)
from repro.analysis.dataflow import (
    INIT_DEF,
    DataflowResult,
    Definition,
    analyze_dataflow,
)
from repro.analysis.deps import BlockDeps, DepEdge, build_block_deps
from repro.analysis.equiv import (
    VERIFY_JSON_SCHEMA,
    EquivReport,
    Mismatch,
    validate_programs,
)
from repro.analysis.hazards import (
    HazardEdge,
    StallEstimate,
    estimate_stalls,
    hazard_edges,
    is_straight_line,
)
from repro.analysis.lint import (
    ALL_CHECKS,
    LINT_JSON_SCHEMA,
    AnalysisContext,
    Diagnostic,
    LintReport,
    lint_program,
)
from repro.analysis.timing import (
    BlockSummary,
    TimingAnalysis,
    check_static_timing_bound,
    check_unreachable_block,
    static_cycle_bound,
)

__all__ = [
    "AbsintResult",
    "AbsState",
    "Interval",
    "analyze_intervals",
    "flag_allows",
    "VERIFY_JSON_SCHEMA",
    "EquivReport",
    "Mismatch",
    "validate_programs",
    "CFG",
    "build_cfg",
    "ConcurrencyAnalysis",
    "ThreadRegion",
    "INIT_DEF",
    "DataflowResult",
    "Definition",
    "analyze_dataflow",
    "BlockDeps",
    "DepEdge",
    "build_block_deps",
    "HazardEdge",
    "StallEstimate",
    "estimate_stalls",
    "hazard_edges",
    "is_straight_line",
    "ALL_CHECKS",
    "LINT_JSON_SCHEMA",
    "AnalysisContext",
    "Diagnostic",
    "LintReport",
    "lint_program",
    "BlockSummary",
    "TimingAnalysis",
    "check_static_timing_bound",
    "check_unreachable_block",
    "static_cycle_bound",
]
