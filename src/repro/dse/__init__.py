"""Design-space exploration: cached sweeps and Pareto frontiers.

``repro dse`` sweeps the paper's architectural axes — PEs, thread
contexts, word width, broadcast-tree arity, local-memory depth — runs
representative kernels at every feasible grid point through the batch
runner (content-addressed cache, fast backend),
fits each point against an FPGA device, prices it with the
activity-weighted power/thermal model, and reports the Pareto frontier
over cycles x fmax x LEs x RAM x power.
"""

from repro.dse.pareto import (
    SENSE_MAX,
    SENSE_MIN,
    dominates,
    pareto_frontier,
)
from repro.dse.spec import (
    AXIS_ORDER,
    BACKEND_POLICIES,
    DEFAULT_KERNELS,
    DesignPoint,
    DseSpecError,
    SweepSpec,
)
from repro.dse.runner import (
    DSE_SCHEMA,
    FRONTIER_AXES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_UNFIT,
    DseRunner,
    PointOutcome,
    SweepReport,
)

__all__ = [
    "SENSE_MAX",
    "SENSE_MIN",
    "dominates",
    "pareto_frontier",
    "AXIS_ORDER",
    "BACKEND_POLICIES",
    "DEFAULT_KERNELS",
    "DesignPoint",
    "DseSpecError",
    "SweepSpec",
    "DSE_SCHEMA",
    "FRONTIER_AXES",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_UNFIT",
    "DseRunner",
    "PointOutcome",
    "SweepReport",
]
