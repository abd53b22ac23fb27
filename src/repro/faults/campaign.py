"""Fault-injection campaigns: N seeded faults, one outcome bucket each.

A campaign runs a library kernel once fault-free (the *golden* run),
draws ``faults`` deterministic :class:`FaultSpec`\\ s whose trigger
cycles span the golden execution, then re-runs the kernel once per
fault on a fresh machine and classifies what happened:

========  ===========================================================
outcome   meaning
========  ===========================================================
masked    run completed, outputs match golden, nothing noticed it
detected  a detection mechanism fired (parity alarm or the post-run
          self-test found the broken component)
sdc       silent data corruption: outputs differ, nothing noticed
crash     the simulated machine raised (bad PC, memory fault, ...)
hang      the cycle watchdog (:class:`~repro.core.processor.SimTimeout`)
          fired at ``watchdog_factor`` × the golden cycle count
========  ===========================================================

Every injection lands in exactly one bucket; detection takes priority
over sdc/masked (a flagged run would be discarded and retried, whatever
its outputs), and crash/hang are terminal by construction.  The whole
report is a pure function of ``(kernel, config, faults, seed, sites)``
— rerunning a campaign yields byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.asm.assembler import assemble
from repro.core.config import ProcessorConfig
from repro.core.execute import ExecutionError
from repro.core.memory import ScalarMemoryFault
from repro.core.processor import Processor, SimTimeout, SimulationError
from repro.faults.detect import run_self_test
from repro.faults.plane import FaultPlane
from repro.faults.spec import FaultKind, FaultSite, FaultSpec, random_fault_specs
from repro.pe.pe_array import MemoryFault
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from repro.programs.runner import extract_outputs, run_kernel
from repro.util.tables import format_table

OUTCOMES = ("masked", "detected", "sdc", "crash", "hang")

_CRASHES = (ExecutionError, MemoryFault, ScalarMemoryFault)


@dataclass
class FaultResult:
    """Classification of one injected fault."""

    spec: FaultSpec
    outcome: str
    detail: str = ""
    cycles: int = 0            # 0 for crash/hang
    injections: int = 0        # how many times the fault actually fired

    def to_json(self) -> dict:
        return {"fault": self.spec.to_json(), "outcome": self.outcome,
                "detail": self.detail, "cycles": self.cycles,
                "injections": self.injections}


@dataclass
class CampaignReport:
    """Aggregated results of one fault-injection campaign."""

    kernel: str
    seed: int
    num_faults: int
    golden_cycles: int
    golden_outputs: dict
    config: dict
    results: list[FaultResult] = field(default_factory=list)

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.results if r.outcome == outcome)

    @property
    def counts(self) -> dict[str, int]:
        return {o: self.count(o) for o in OUTCOMES}

    @property
    def coverage(self) -> float:
        """Fraction of non-masked faults that did not escape silently."""
        bad = sum(1 for r in self.results if r.outcome != "masked")
        return 1.0 - self.count("sdc") / bad if bad else 1.0

    def to_json(self) -> str:
        """Stable JSON: a pure function of the campaign inputs."""
        payload = {
            "kernel": self.kernel,
            "seed": self.seed,
            "num_faults": self.num_faults,
            "config": self.config,
            "golden": {"cycles": self.golden_cycles,
                       "outputs": self.golden_outputs},
            "outcomes": self.counts,
            "coverage": round(self.coverage, 6),
            "results": [r.to_json() for r in self.results],
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    def render(self) -> str:
        total = max(len(self.results), 1)
        rows = [(o, self.count(o), f"{100 * self.count(o) / total:.1f}%")
                for o in OUTCOMES]
        table = format_table(("outcome", "count", "share"), rows)
        head = (f"fault campaign: kernel={self.kernel} faults="
                f"{self.num_faults} seed={self.seed} "
                f"golden_cycles={self.golden_cycles}")
        tail = f"detection coverage (non-masked, non-silent): {self.coverage:.3f}"
        sdc = [r for r in self.results if r.outcome == "sdc"]
        lines = [head, table, tail]
        if sdc:
            lines.append("silent corruptions:")
            lines.extend(f"  {r.spec.label}" for r in sdc)
        return "\n".join(lines)


def _classify(spec: FaultSpec, plane: FaultPlane, proc: Processor,
              measured: dict, golden: dict) -> tuple[str, str]:
    """Pick the single outcome bucket for a run that completed."""
    detected = plane.detected
    detail = ""
    if detected:
        detail = plane.alarms[0]["kind"]
    elif spec.kind is not FaultKind.TRANSIENT:
        # Hard faults outlive the run: screen for them the way an
        # operator would, with the associative self-test.  Transient
        # re-injection is suppressed so the test sees only persistent
        # damage.
        plane.transients_enabled = False
        st = run_self_test(proc)
        plane.transients_enabled = True
        if not st.passed:
            detected = True
            if st.failing.any():
                detail = f"self-test: {int(st.failing.sum())} failing PEs"
            else:
                detail = "self-test: reduction tree undercounts responders"
        elif plane.detected:
            detected, detail = True, plane.alarms[0]["kind"]
    corrupted = measured != golden
    if detected:
        return "detected", detail + ("; outputs corrupted" if corrupted else "")
    if corrupted:
        diffs = sorted(k for k in golden if measured.get(k) != golden[k])
        return "sdc", f"outputs differ: {', '.join(diffs)}"
    return "masked", ""


@dataclass(frozen=True)
class _FaultTask:
    """Picklable unit of campaign work: one fault against one kernel run.

    Carries everything a worker process needs (the assembled program,
    machine config, kernel image/oracle, golden outputs) so the parallel
    path computes exactly the same pure function as the serial loop.
    """

    spec: FaultSpec
    program: object
    cfg: ProcessorConfig
    kernel: object
    parity: bool
    watchdog: int
    golden_out: dict


def _run_one_fault(task: _FaultTask) -> FaultResult:
    """Inject one fault on a fresh machine and classify the outcome."""
    spec, cfg, kernel = task.spec, task.cfg, task.kernel
    plane = FaultPlane([spec], cfg, parity=task.parity)
    proc = Processor(cfg, faults=plane)
    proc.load(task.program)
    proc.pe.load_lmem(kernel.lmem.items())
    try:
        result = proc.run(max_cycles=task.watchdog)
    except SimTimeout as exc:
        return FaultResult(spec, "hang", str(exc),
                           injections=len(plane.injection_log))
    except (SimulationError, *_CRASHES) as exc:
        return FaultResult(spec, "crash", f"{type(exc).__name__}: {exc}",
                           injections=len(plane.injection_log))
    measured = extract_outputs(kernel, result)
    fired = len(plane.injection_log)
    outcome, detail = _classify(spec, plane, proc, measured,
                                task.golden_out)
    return FaultResult(spec, outcome, detail, cycles=result.cycles,
                       injections=fired)


def run_campaign(kernel_name: str,
                 cfg: ProcessorConfig | None = None,
                 faults: int = 100,
                 seed: int = 0,
                 sites: list[FaultSite] | None = None,
                 parity: bool = True,
                 watchdog_factor: int = 4,
                 jobs: int = 1,
                 registry=None) -> CampaignReport:
    """Run a seeded fault-injection campaign over one library kernel.

    ``jobs`` > 1 fans the per-fault runs out over a process pool
    (``repro.serve.pool``); each fault is an independent simulation and
    results are reassembled in spec order, so the report — including its
    JSON rendering — is byte-identical to the serial campaign.

    ``registry`` (a :class:`~repro.obs.MetricsRegistry`) receives
    ``fault_campaigns_total``, ``fault_runs_total{outcome}``, and the
    ``fault_campaign_coverage`` gauge when given; the report itself is
    unaffected, so metrics never perturb reproducibility.
    """
    if kernel_name not in ALL_KERNEL_BUILDERS:
        raise ValueError(f"unknown kernel {kernel_name!r}; choose from "
                         f"{', '.join(sorted(ALL_KERNEL_BUILDERS))}")
    cfg = cfg or ProcessorConfig()
    kernel = ALL_KERNEL_BUILDERS[kernel_name](cfg.num_pes)
    cfg = replace(cfg, word_width=kernel.word_width)

    golden = run_kernel(kernel, cfg)
    golden_out = golden.measured
    watchdog = golden.cycles * watchdog_factor + 100
    program = assemble(kernel.source, word_width=cfg.word_width)

    specs = random_fault_specs(faults, cfg, seed, max_cycle=golden.cycles,
                               sites=sites)
    report = CampaignReport(
        kernel=kernel_name, seed=seed, num_faults=faults,
        golden_cycles=golden.cycles, golden_outputs=golden_out,
        config={"num_pes": cfg.num_pes, "word_width": cfg.word_width,
                "num_threads": cfg.num_threads,
                "parity": parity, "watchdog_factor": watchdog_factor})

    from repro.serve.pool import map_ordered

    tasks = [_FaultTask(spec, program, cfg, kernel, parity, watchdog,
                        golden_out) for spec in specs]
    report.results.extend(map_ordered(_run_one_fault, tasks, jobs=jobs,
                                      registry=registry))
    if registry is not None:
        registry.counter("fault_campaigns_total",
                         "fault-injection campaigns executed").inc()
        runs = registry.counter("fault_runs_total",
                                "fault injections classified, by outcome",
                                labels=("outcome",))
        for outcome, n in report.counts.items():
            if n:
                runs.inc(n, outcome=outcome)
        registry.gauge("fault_campaign_coverage",
                       "detection coverage of the latest campaign",
                       ).set(round(report.coverage, 6))
    return report
