"""Predecessor and related-work machine models."""

from repro.baselines.machines import (
    multithreaded_asc,
    pipelined_asc_2005,
    single_threaded_pipelined_asc,
)
from repro.baselines.nonpipelined import (
    NonPipelinedMachine,
    instruction_cost,
    nonpipelined_config,
)
from repro.baselines.related_work import (
    HOARE_2004,
    LI_2003,
    MT_ASC_PROTOTYPE,
    RELATED_MACHINES,
    ReferenceMachine,
)

__all__ = [
    "multithreaded_asc",
    "pipelined_asc_2005",
    "single_threaded_pipelined_asc",
    "NonPipelinedMachine",
    "instruction_cost",
    "nonpipelined_config",
    "HOARE_2004",
    "LI_2003",
    "MT_ASC_PROTOTYPE",
    "RELATED_MACHINES",
    "ReferenceMachine",
]
