"""Processor configuration.

One :class:`ProcessorConfig` describes a complete machine instance — the
multithreaded prototype of the paper by default, and, through its knobs,
the predecessor/baseline machines and every ablation in the benchmark
suite (see DESIGN.md experiment index).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.network.tree import broadcast_latency, reduction_latency
from repro.util.bitops import SUPPORTED_WIDTHS, mask_for_width
from repro.util.fields import check, rule


class MTMode(enum.Enum):
    """Hardware multithreading discipline (paper Section 5)."""

    SINGLE = "single"    # one hardware thread context, no multithreading
    FINE = "fine"        # fine-grain: switch threads every cycle (the paper's choice)
    COARSE = "coarse"    # coarse-grain: switch only on long-latency stalls
    SMT2 = "smt2"        # extension: dual-issue, one scalar + one parallel/reduction port


class BranchPolicy(enum.Enum):
    """Front-end branch handling."""

    STALL = "stall"                    # thread waits until the branch resolves in EX
    PREDICT_NOT_TAKEN = "predict_not_taken"  # penalty only on taken branches


class SchedulerPolicy(enum.Enum):
    """Thread selection among ready threads."""

    ROTATING = "rotating"  # rotating priority, "to ensure fairness" (Section 6.3)
    FIXED = "fixed"        # always the lowest-numbered ready thread


class MultiplierKind(enum.Enum):
    """PE multiplier implementation (Section 6.2)."""

    NONE = "none"              # pmul/pmuls/smul are illegal
    PIPELINED = "pipelined"    # hard multiplier blocks: initiation 1/cycle
    SEQUENTIAL = "sequential"  # shared, blocking, W cycles


class DividerKind(enum.Enum):
    """PE divider implementation (Section 6.2: sequential only, or absent)."""

    NONE = "none"
    SEQUENTIAL = "sequential"


@dataclass
class ProcessorConfig:
    """Static machine parameters.

    Defaults describe the synthesized prototype of Section 7: 16 PEs,
    8-bit datapath, 1 KB (1024-word) local memory per PE, 16 hardware
    thread contexts, fine-grain multithreading with a rotating-priority
    scheduler, pipelined broadcast/reduction networks.
    """

    num_pes: int = rule("processing elements (PEs) p", 16, lo=1)
    num_threads: int = rule("hardware thread contexts T", 16, lo=1)
    word_width: int = rule("word width W in bits", 8,
                           choices=SUPPORTED_WIDTHS)
    lmem_words: int = rule("local-memory words per PE", 1024, lo=1)
    scalar_mem_words: int = rule("scalar data-memory words", 4096, lo=1)

    broadcast_arity: int = rule("broadcast-tree arity k", 2, lo=2)
    # Legacy-machine switches: the 2005 pipelined ASC Processor has
    # pipelined instruction execution but *unpipelined* broadcast and
    # reduction networks (Section 3); these flags reproduce it.
    pipelined_broadcast: bool = rule("pipelined broadcast network", True)
    pipelined_reduction: bool = rule("pipelined reduction network", True)

    mt_mode: MTMode = rule("multithreading discipline", MTMode.FINE)
    scheduler: SchedulerPolicy = rule("thread selection among ready threads",
                                      SchedulerPolicy.ROTATING)
    branch_policy: BranchPolicy = rule("front-end branch handling",
                                       BranchPolicy.STALL)
    coarse_switch_penalty: int = rule("pipeline-flush cycles per coarse "
                                      "switch", 3, lo=0)
    coarse_switch_threshold: int = rule("shortest stall that triggers a "
                                        "coarse switch", 3, lo=0)

    multiplier: MultiplierKind = rule("PE multiplier (Section 6.2)",
                                      MultiplierKind.PIPELINED)
    divider: DividerKind = rule("PE divider", DividerKind.SEQUENTIAL)

    # Front-end model (Figure 3's fetch unit).  Off by default: the
    # ideal front end is faithful for a single-issue machine whose fetch
    # bandwidth matches its issue width; enabling it bounds instruction
    # supply by fetch_width/cycle and per-thread buffer depth.
    model_fetch: bool = rule("model the fetch unit", False)
    fetch_width: int | None = rule("instructions fetched per cycle; null: "
                                   "the issue width", None, lo=1)
    fetch_buffer_depth: int = rule("fetch-buffer entries per thread", 2, lo=1)

    max_cycles: int = rule("cycle watchdog", 10_000_000, lo=1)

    def __post_init__(self) -> None:
        check(self, ValueError)
        if self.mt_mode is MTMode.SINGLE and self.num_threads != 1:
            raise ValueError(
                "single-threaded mode requires num_threads == 1 "
                f"(got {self.num_threads})")
        if self.mt_mode is not MTMode.SINGLE and self.num_threads < 2:
            raise ValueError(f"{self.mt_mode.value} multithreading needs "
                             ">= 2 thread contexts")
        # Thread ids travel through W-bit scalar registers (tspawn's
        # failure sentinel is the all-ones word): more contexts than the
        # word can name would silently alias.  Reject instead of wrap.
        if self.num_threads > mask_for_width(self.word_width):
            raise ValueError(
                f"num_threads={self.num_threads} cannot be named by a "
                f"{self.word_width}-bit word (max "
                f"{mask_for_width(self.word_width)}); thread ids would wrap")
        # Cache the derived network depths: they are consulted on every
        # hazard check in the simulator's inner loop (profiled hot).
        # Configurations are treated as immutable after construction;
        # use dataclasses.replace() to derive variants.
        self._broadcast_depth = (
            1 if not self.pipelined_broadcast
            else broadcast_latency(self.num_pes, self.broadcast_arity))
        self._reduction_depth = (
            1 if not self.pipelined_reduction
            else reduction_latency(self.num_pes))

    # -- derived network latencies (paper Section 4) -------------------------

    @property
    def broadcast_depth(self) -> int:
        """Pipelined broadcast stages ``b = ceil(log_k p)``.

        For an *unpipelined* broadcast network the instruction still
        crosses the wires within a single (slow) clock, so the pipeline
        sees one broadcast stage; the clock-rate cost appears in the FPGA
        timing model, not here.
        """
        return self._broadcast_depth

    @property
    def reduction_depth(self) -> int:
        """Pipelined reduction stages ``r = ceil(log2 p)`` (see above)."""
        return self._reduction_depth

    @property
    def issue_width(self) -> int:
        return 2 if self.mt_mode is MTMode.SMT2 else 1

    @property
    def effective_fetch_width(self) -> int:
        return self.fetch_width if self.fetch_width is not None \
            else self.issue_width

    def describe(self) -> str:
        """One-line summary used in benchmark headers."""
        return (f"p={self.num_pes} T={self.num_threads} W={self.word_width} "
                f"k={self.broadcast_arity} b={self.broadcast_depth} "
                f"r={self.reduction_depth} mt={self.mt_mode.value}")
