"""The sweep driver: grid -> batch jobs -> fitted, powered Pareto report.

:class:`DseRunner` turns a validated :class:`~repro.dse.spec.SweepSpec`
into one :class:`SweepReport`:

1. every grid point is *fitted first* against the spec's device through
   the calibrated resource model — infeasible points are reported as
   ``status: "unfit"`` (with the overflowing resource named) and never
   simulated;
2. fitting points run their representative kernels through the shared
   :class:`~repro.serve.batch.BatchRunner` — on the fast backend
   unless the policy is ``cycle`` (both give the same ``Stats``; the
   fast machine runs on its own cycle core whatever it cannot fold),
   with the content-addressed cache making warm re-sweeps nearly free;
3. each surviving point gets its frontier metrics — total cycles across
   kernels, the timing model's fmax, LEs/RAM from the resource model,
   and total power from the activity-weighted power model (the measured
   per-class issue rates of *this point's own runs* drive the dynamic
   term) — and the non-dominated set becomes the Pareto frontier.

Determinism contract: :meth:`SweepReport.to_json` is a pure function of
the spec and the simulated architecture — point order is the canonical
grid order, floats are rounded once, and nothing operational (wall
times, cache origins, worker counts) appears in it.  Operational
counters live in :attr:`SweepReport.ops` so callers can assert cache
behaviour without breaking byte-identical re-sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.stats import Stats
from repro.dse.pareto import pareto_frontier
from repro.dse.spec import DesignPoint, SweepSpec
from repro.fpga.fitter import fits
from repro.fpga.power import ActivityProfile, PowerReport, power_report
from repro.fpga.resource_model import total_resources
from repro.fpga.timing_model import fmax_mhz
from repro.obs.metrics import MetricsRegistry
from repro.serve.batch import BatchRunner
from repro.serve.jobs import Job
from repro.util.tables import format_table

#: Shape version of :meth:`SweepReport.to_json`.
DSE_SCHEMA = 1

#: The frontier axes, in report order, with their optimization senses.
FRONTIER_AXES = (
    ("cycles", "min"),
    ("fmax_mhz", "max"),
    ("logic_elements", "min"),
    ("ram_blocks", "min"),
    ("total_power_mw", "min"),
)

STATUS_OK = "ok"
STATUS_UNFIT = "unfit"
STATUS_ERROR = "error"


@dataclass
class PointOutcome:
    """Everything the sweep learned about one design point."""

    point: DesignPoint
    status: str
    cycles_by_kernel: dict = field(default_factory=dict)
    cycles: int = 0
    fmax: float = 0.0
    logic_elements: int = 0
    ram_blocks: int = 0
    power: PowerReport | None = None
    unfit_reason: str = ""
    errors: dict = field(default_factory=dict)

    @property
    def point_id(self) -> str:
        return self.point.point_id

    def metrics(self) -> tuple:
        """The frontier metric tuple, rounded exactly like the JSON."""
        power = round(self.power.total_mw, 3) if self.power else 0.0
        return (self.cycles, round(self.fmax, 3), self.logic_elements,
                self.ram_blocks, power)

    def to_json(self) -> dict:
        out: dict = {
            "point": self.point_id,
            "axes": self.point.axes_json(),
            "status": self.status,
            "logic_elements": self.logic_elements,
            "ram_blocks": self.ram_blocks,
        }
        if self.status == STATUS_OK:
            fmax = round(self.fmax, 3)
            out["cycles"] = self.cycles
            out["cycles_by_kernel"] = {k: self.cycles_by_kernel[k]
                                       for k in sorted(self.cycles_by_kernel)}
            out["fmax_mhz"] = fmax
            out["runtime_us"] = round(self.cycles / fmax, 3) if fmax else 0.0
            out["power"] = self.power.to_json() if self.power else None
        elif self.status == STATUS_UNFIT:
            out["unfit_reason"] = self.unfit_reason
        else:
            out["errors"] = {k: self.errors[k] for k in sorted(self.errors)}
        return out


@dataclass
class SweepReport:
    """One sweep's deterministic payload plus operational counters."""

    spec: SweepSpec
    outcomes: list = field(default_factory=list)
    frontier_ids: list = field(default_factory=list)
    ops: dict = field(default_factory=dict)

    def outcome(self, point_id: str) -> PointOutcome:
        for out in self.outcomes:
            if out.point_id == point_id:
                return out
        raise KeyError(point_id)

    @property
    def statuses(self) -> dict:
        counts: dict = {}
        for out in self.outcomes:
            counts[out.status] = counts.get(out.status, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        """Unfit points are a finding; errored points are a failure."""
        return all(out.status != STATUS_ERROR for out in self.outcomes)

    def to_json(self) -> dict:
        """Deterministic payload: spec echo, points, frontier — no ops."""
        by_id = {out.point_id: out for out in self.outcomes}
        return {
            "schema": DSE_SCHEMA,
            "spec": self.spec.to_json(),
            "frontier_axes": [{"metric": m, "sense": s}
                              for m, s in FRONTIER_AXES],
            "points": [out.to_json() for out in self.outcomes],
            "frontier": [
                {"point": pid,
                 "metrics": dict(zip([m for m, _ in FRONTIER_AXES],
                                     by_id[pid].metrics()))}
                for pid in self.frontier_ids
            ],
        }

    def render(self) -> str:
        """Human-readable sweep summary + frontier table."""
        frontier = set(self.frontier_ids)
        rows = []
        for out in self.outcomes:
            if out.status == STATUS_OK:
                power = round(out.power.total_mw, 1) if out.power else "-"
                rows.append((out.point_id, out.status,
                             out.cycles, round(out.fmax, 1),
                             out.logic_elements, out.ram_blocks, power,
                             "*" if out.point_id in frontier else ""))
            else:
                rows.append((out.point_id, out.status, "-", "-",
                             out.logic_elements, out.ram_blocks, "-", ""))
        table = format_table(
            ("point", "status", "cycles", "fmax MHz", "LEs", "RAM",
             "power mW", "pareto"),
            rows, title=f"design-space sweep '{self.spec.name}' "
                        f"({self.spec.device.name})",
            align_right_from=2)
        statuses = ", ".join(f"{k}={v}"
                             for k, v in sorted(self.statuses.items()))
        lines = [table, "",
                 f"{len(self.outcomes)} points ({statuses}); "
                 f"frontier: {len(self.frontier_ids)} point(s)"]
        if self.ops:
            lines.append(
                f"cache: {self.ops.get('cache_served', 0)} of "
                f"{self.ops.get('jobs', 0)} jobs served from cache "
                f"({self.ops.get('cache_served_rate', 0.0):.0%}); "
                f"elapsed {self.ops.get('elapsed_s', 0.0):.2f}s")
        return "\n".join(lines)


class DseRunner:
    """Run design-space sweeps through a shared batch runner.

    ``runner`` supplies the cache, worker pool, and resilience policy;
    when omitted a hermetic serial runner with a disabled cache is
    created.  ``registry`` defaults to the runner's, so sweep progress
    counters land next to the batch/cache/pool metrics.
    """

    def __init__(self, runner: BatchRunner | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.runner = runner if runner is not None else BatchRunner()
        self.registry = (registry if registry is not None
                         else self.runner.registry)
        self._sweeps = self.registry.counter(
            "dse_sweeps_total", "design-space sweeps executed")
        self._points = self.registry.counter(
            "dse_points_total", "sweep points evaluated, by status",
            labels=("status",))
        self._progress = self.registry.gauge(
            "dse_sweep_progress", "phase progress of the current sweep",
            labels=("phase",))
        self._elapsed = self.registry.histogram(
            "dse_sweep_seconds", "wall time of whole sweeps")

    def sweep(self, spec: SweepSpec) -> SweepReport:
        """Execute one sweep; see the module docstring for the phases."""
        started = time.perf_counter()
        points = spec.expand()
        self._progress.set(len(points), phase="expanded")

        fit_points: list[DesignPoint] = []
        outcomes: dict[str, PointOutcome] = {}
        for point in points:
            usage = total_resources(point.config)
            outcome = PointOutcome(
                point=point, status=STATUS_OK,
                logic_elements=usage.logic_elements,
                ram_blocks=usage.ram_blocks)
            if not fits(point.config, spec.device):
                outcome.status = STATUS_UNFIT
                outcome.unfit_reason = self._unfit_reason(
                    usage, spec.device)
            else:
                fit_points.append(point)
            outcomes[point.point_id] = outcome
        self._progress.set(len(fit_points), phase="fitted")

        jobs = [self._job(point, kernel, spec)
                for point in fit_points for kernel in spec.kernels]
        report = self.runner.run(jobs) if jobs else None
        results = {r.name: r for r in report.results} if report else {}

        for point in fit_points:
            outcome = outcomes[point.point_id]
            totals = Stats()
            for kernel in spec.kernels:
                res = results[f"{point.point_id}/{kernel}"]
                if res.status != "ok" or res.snapshot is None:
                    outcome.status = STATUS_ERROR
                    outcome.errors[kernel] = (res.error
                                              or f"status {res.status}")
                    continue
                stats = res.snapshot.stats
                outcome.cycles_by_kernel[kernel] = stats.cycles
                totals.cycles += stats.cycles
                totals.scalar_instructions += stats.scalar_instructions
                totals.parallel_instructions += stats.parallel_instructions
                totals.reduction_instructions += stats.reduction_instructions
            if outcome.status != STATUS_OK:
                continue
            outcome.cycles = totals.cycles
            outcome.fmax = fmax_mhz(point.config)
            outcome.power = power_report(
                point.config, ActivityProfile.from_stats(totals),
                clock_mhz=outcome.fmax)

        ordered = [outcomes[p.point_id] for p in points]
        frontier = pareto_frontier(
            [(out.point_id, out.metrics()) for out in ordered
             if out.status == STATUS_OK],
            senses=[sense for _, sense in FRONTIER_AXES])
        result = SweepReport(
            spec=spec, outcomes=ordered,
            frontier_ids=[key for key, _ in frontier])

        elapsed = time.perf_counter() - started
        batch_metrics = report.to_json()["metrics"] if report else {}
        jobs_total = len(results)
        cache_served = report.cache_served if report else 0
        result.ops = {
            "elapsed_s": round(elapsed, 4),
            "jobs": jobs_total,
            "computed": report.computed if report else 0,
            "cache_served": cache_served,
            "cache_served_rate": round(cache_served / jobs_total, 6)
            if jobs_total else 0.0,
            "cache": batch_metrics.get("cache", {}),
        }
        self._sweeps.inc()
        for status, count in result.statuses.items():
            self._points.inc(count, status=status)
        self._progress.set(len(points), phase="done")
        self._elapsed.observe(elapsed)
        return result

    @staticmethod
    def _job(point: DesignPoint, kernel: str, spec: SweepSpec) -> Job:
        # The width kwarg carries the word-width axis into the kernel
        # build; every library kernel accepts it.
        return Job(name=f"{point.point_id}/{kernel}", kernel=kernel,
                   kernel_args={"width": point.config.word_width},
                   config=point.config, max_cycles=spec.max_cycles,
                   backend="cycle" if spec.backend == "cycle" else "fast")

    @staticmethod
    def _unfit_reason(usage, device) -> str:
        parts = []
        if usage.logic_elements > device.logic_elements:
            parts.append(f"logic {usage.logic_elements} > "
                         f"{device.logic_elements} LEs")
        if usage.ram_blocks > device.ram_blocks:
            parts.append(f"ram {usage.ram_blocks} > "
                         f"{device.ram_blocks} blocks")
        return "; ".join(parts) or "does not fit"
