"""Fault models: what can break, where, and when.

A :class:`FaultSpec` is one seeded, fully deterministic fault: a *site*
(which physical structure is hit), a *kind* (transient upset, stuck-at
cell, or permanently dead component), a trigger cycle, and the
site-specific coordinates (PE index, register index, bit position,
thread).  Specs are plain frozen dataclasses so a campaign's fault list
can be serialized, diffed, and replayed bit-for-bit.

The sites mirror the structures of the FPGA prototype (Section 6 of the
paper) that soft errors and manufacturing defects hit first:

* ``pe_reg`` / ``pe_flag``  — PE register-file words and flag bits;
* ``scalar_reg``            — control-unit scalar registers (per thread);
* ``thread_pc``             — a thread context's program counter;
* ``broadcast``             — a flit in the pipelined broadcast tree
  (corrupts the value seen by one subtree of PEs);
* ``reduction``             — a reduction-tree node (corrupts one scalar
  reduction result in flight);
* ``dead_pe``               — a permanently failed PE: reads as garbage,
  ignores writes, and pollutes the responder set until masked out;
* ``dead_link``             — a permanently failed reduction-tree link:
  an aligned subtree of leaves silently drops out of every reduction.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace

from repro.core.config import ProcessorConfig
from repro.util.fields import check, from_json, rule


class FaultSite(enum.Enum):
    """Physical structure a fault targets."""

    PE_REG = "pe_reg"
    PE_FLAG = "pe_flag"
    SCALAR_REG = "scalar_reg"
    THREAD_PC = "thread_pc"
    BROADCAST = "broadcast"
    REDUCTION = "reduction"
    DEAD_PE = "dead_pe"
    DEAD_LINK = "dead_link"


class FaultKind(enum.Enum):
    """Temporal behaviour of a fault."""

    TRANSIENT = "transient"   # single-event upset at the trigger cycle
    STUCK_AT = "stuck_at"     # bit forced to ``stuck_value`` from the trigger on
    PERMANENT = "permanent"   # component dead from the trigger cycle on


# Sites that only make sense for a given kind.
_PERMANENT_ONLY = (FaultSite.DEAD_PE, FaultSite.DEAD_LINK)
_TRANSIENT_ONLY = (FaultSite.BROADCAST, FaultSite.REDUCTION)


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault.

    ``pe``/``thread``/``reg``/``bit`` are interpreted per site; out-of-
    range values are wrapped by the injector (a fault generator does not
    need to know the machine shape).  ``level`` selects the tree level
    for broadcast/dead-link subtree faults.
    """

    site: FaultSite = rule("structure the fault hits")
    kind: FaultKind = rule("transient upset, stuck-at cell or dead part")
    cycle: int = rule("trigger cycle", lo=0)
    pe: int = rule("PE index", 0, lo=0)
    thread: int = rule("thread context", 0, lo=0)
    reg: int = rule("register index", 0, lo=0)
    bit: int = rule("bit position", 0, lo=0)
    level: int = rule("tree level of the subtree hit", 0, lo=0)
    stuck_value: int = rule("value a stuck-at bit holds", 0, choices=(0, 1))
    label: str = rule("free-form label", "", compare=False)

    def __post_init__(self) -> None:
        check(self, ValueError)
        if self.site in _PERMANENT_ONLY and self.kind is not FaultKind.PERMANENT:
            raise ValueError(f"{self.site.value} faults must be permanent")
        if self.site in _TRANSIENT_ONLY and self.kind is not FaultKind.TRANSIENT:
            raise ValueError(f"{self.site.value} faults must be transient")

    def describe(self) -> str:
        coords = {
            FaultSite.PE_REG: f"pe{self.pe}.p{self.reg}[{self.bit}]",
            FaultSite.PE_FLAG: f"pe{self.pe}.f{self.reg}",
            FaultSite.SCALAR_REG: f"t{self.thread}.s{self.reg}[{self.bit}]",
            FaultSite.THREAD_PC: f"t{self.thread}.pc[{self.bit}]",
            FaultSite.BROADCAST: f"subtree(pe{self.pe}, level {self.level})[{self.bit}]",
            FaultSite.REDUCTION: f"root[{self.bit}]",
            FaultSite.DEAD_PE: f"pe{self.pe}",
            FaultSite.DEAD_LINK: f"subtree(pe{self.pe}, level {self.level})",
        }[self.site]
        extra = f"={self.stuck_value}" if self.kind is FaultKind.STUCK_AT else ""
        return f"{self.kind.value} {self.site.value} {coords}{extra} @cycle {self.cycle}"

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "site": self.site.value,
            "kind": self.kind.value,
            "cycle": self.cycle,
            "pe": self.pe,
            "thread": self.thread,
            "reg": self.reg,
            "bit": self.bit,
            "level": self.level,
            "stuck_value": self.stuck_value,
        }

    @staticmethod
    def from_json(data: dict) -> "FaultSpec":
        return from_json(FaultSpec, data, "fault", ValueError)


# Default site mix for random campaigns: transient upsets dominate (as
# they do in the field), with a tail of hard faults.
DEFAULT_SITE_WEIGHTS = (
    (FaultSite.PE_REG, FaultKind.TRANSIENT, 24),
    (FaultSite.PE_FLAG, FaultKind.TRANSIENT, 12),
    (FaultSite.SCALAR_REG, FaultKind.TRANSIENT, 12),
    (FaultSite.THREAD_PC, FaultKind.TRANSIENT, 6),
    (FaultSite.BROADCAST, FaultKind.TRANSIENT, 10),
    (FaultSite.REDUCTION, FaultKind.TRANSIENT, 10),
    (FaultSite.PE_REG, FaultKind.STUCK_AT, 8),
    (FaultSite.SCALAR_REG, FaultKind.STUCK_AT, 6),
    (FaultSite.DEAD_PE, FaultKind.PERMANENT, 8),
    (FaultSite.DEAD_LINK, FaultKind.PERMANENT, 4),
)


def random_fault_specs(count: int, cfg: ProcessorConfig, seed: int,
                       max_cycle: int,
                       sites: list[FaultSite] | None = None,
                       ) -> list[FaultSpec]:
    """Deterministically draw ``count`` fault specs for a machine shape.

    The same ``(count, cfg, seed, max_cycle, sites)`` always yields the
    same list — campaigns are reproducible run-to-run by construction.
    Trigger cycles are uniform in ``[1, max_cycle]``.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    menu = DEFAULT_SITE_WEIGHTS
    if sites is not None:
        wanted = set(sites)
        menu = [m for m in DEFAULT_SITE_WEIGHTS if m[0] in wanted]
        if not menu:
            raise ValueError(f"no known fault sites in {sorted(s.value for s in wanted)}")
    choices = [m[:2] for m in menu]
    weights = [m[2] for m in menu]
    specs: list[FaultSpec] = []
    for i in range(count):
        site, kind = rng.choices(choices, weights=weights, k=1)[0]
        spec = FaultSpec(
            site=site, kind=kind,
            cycle=rng.randint(1, max(1, max_cycle)),
            pe=rng.randrange(cfg.num_pes),
            thread=rng.randrange(cfg.num_threads),
            reg=rng.randrange(16),
            bit=rng.randrange(cfg.word_width),
            level=rng.randrange(4),
            stuck_value=rng.randrange(2),
        )
        specs.append(replace(spec, label=f"f{i:04d}:{spec.describe()}"))
    return specs
