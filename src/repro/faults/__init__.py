"""Deterministic fault injection, detection, and graceful degradation.

Public surface:

* :class:`FaultSpec` / :class:`FaultSite` / :class:`FaultKind` and
  :func:`random_fault_specs` — seeded fault models (:mod:`.spec`);
* :class:`FaultPlane` — the injection/detection/recovery state machine
  hooked into the core (:mod:`.plane`);
* :func:`run_self_test` — the associative pattern self-test
  (:mod:`.detect`);
* :func:`run_kernel_degraded` — mask-out recovery onto surviving PEs
  (:mod:`.degrade`);
* :func:`run_campaign` — the ``repro faultsim`` campaign engine
  (:mod:`.campaign`).
"""

from repro.faults.campaign import (
    OUTCOMES,
    CampaignError,
    CampaignReport,
    FaultResult,
    run_campaign,
)
from repro.faults.degrade import DegradedRun, run_kernel_degraded
from repro.faults.detect import SelfTestResult, run_self_test, self_test_source
from repro.faults.plane import FaultPlane
from repro.faults.spec import (
    DEFAULT_SITE_WEIGHTS,
    FaultKind,
    FaultSite,
    FaultSpec,
    random_fault_specs,
)

__all__ = [
    "OUTCOMES",
    "CampaignError",
    "CampaignReport",
    "DEFAULT_SITE_WEIGHTS",
    "DegradedRun",
    "FaultKind",
    "FaultPlane",
    "FaultResult",
    "FaultSite",
    "FaultSpec",
    "SelfTestResult",
    "random_fault_specs",
    "run_campaign",
    "run_kernel_degraded",
    "run_self_test",
    "self_test_source",
]
