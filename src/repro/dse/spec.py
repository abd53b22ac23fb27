"""Declarative sweep specifications for ``repro dse``.

A :class:`SweepSpec` names the configuration grid to explore — the five
architectural axes the paper's design discussion turns on — plus the
representative kernels to run at every point and the FPGA device to fit
against::

    {"name": "example",
     "axes": {"num_pes": [8, 16, 32], "num_threads": [4, 8],
              "word_width": [8, 16]},
     "kernels": ["vector_mac", "count_matches"],
     "device": "EP2C35"}

Axis values are validated *up front* through the exact same bounds
checks :class:`~repro.core.config.ProcessorConfig` enforces at
construction: each axis is probed independently against the base
configuration (so ``word_width: [12]`` fails fast with a message naming
the axis), and then every grid point is constructed once (so coupled
constraints — e.g. more thread contexts than a narrow word can name —
fail before any simulation runs, naming the offending point).  A sweep
can therefore never die mid-flight on a config error.

Expansion order is canonical: axes iterate in :data:`AXIS_ORDER` with
sorted, de-duplicated values, so the same spec always produces the same
point list — the determinism the content-addressed cache and the
byte-identical re-sweep guarantee build on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.config import MTMode, ProcessorConfig
from repro.fpga.devices import Device, device_by_name
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from repro.serve.jobs import MAX_JOB_CYCLES, config_from_json
from repro.util.fields import check, from_json, rule

#: Sweepable ProcessorConfig fields, in canonical expansion order.
AXIS_ORDER = ("num_pes", "num_threads", "word_width", "broadcast_arity",
              "lmem_words")

#: Axis-name shorthand used in point ids (stable, human-scannable).
_AXIS_TAG = {"num_pes": "p", "num_threads": "t", "word_width": "w",
             "broadcast_arity": "k", "lmem_words": "m"}

#: Default representative kernels: one embarrassingly parallel (pure
#: data-parallel MAC), one search-heavy, one reduction-heavy — together
#: they exercise the datapath, the broadcast tree, and the reduction
#: tree, the three structures the frontier axes trade against.
DEFAULT_KERNELS = ("vector_mac", "count_matches", "assoc_max_extract")

#: Execution-backend policies for sweep jobs.
BACKEND_POLICIES = ("auto", "fast", "cycle")


class DseSpecError(ValueError):
    """A sweep specification is malformed or out of bounds."""


@dataclass(frozen=True)
class DesignPoint:
    """One fully-resolved configuration in the sweep grid."""

    point_id: str
    axes: dict
    config: ProcessorConfig

    def axes_json(self) -> dict:
        return {name: self.axes[name] for name in AXIS_ORDER
                if name in self.axes}


@dataclass
class SweepSpec:
    """A validated sweep: axes x kernels, fitted against one device."""

    axes: dict = rule("swept config fields to value lists; axes are "
                      "`num_pes`, `num_threads`, `word_width`, "
                      "`broadcast_arity`, `lmem_words`", factory=dict)
    kernels: tuple[str, ...] = rule("library kernels run at every point",
                                    DEFAULT_KERNELS)
    device: Device = rule("FPGA catalog device each point is fitted "
                          "against", factory=lambda: device_by_name("EP2C35"))
    base: dict = rule("non-swept config fields (a job's `config`)",
                      factory=dict)
    backend: str = rule("`auto` is the fast path with a cycle-core "
                        "fallback per job", "auto", choices=BACKEND_POLICIES)
    max_cycles: int | None = rule("per-job cycle limit", None, lo=1,
                                  hi=MAX_JOB_CYCLES)
    name: str = rule("sweep name", "sweep")

    def __post_init__(self) -> None:
        check(self, DseSpecError)
        self._validate_axes()
        self._validate_kernels()

    # -- validation ----------------------------------------------------------

    def _base_config(self) -> ProcessorConfig:
        try:
            return config_from_json(self.base)
        except ValueError as exc:
            raise DseSpecError(f"bad base config: {exc}") from exc

    def _validate_axes(self) -> None:
        if not self.axes:
            raise DseSpecError(
                f"a sweep needs at least one axis; choose from "
                f"{', '.join(AXIS_ORDER)}")
        unknown = sorted(set(self.axes) - set(AXIS_ORDER))
        if unknown:
            raise DseSpecError(
                f"unknown sweep axis(es): {', '.join(unknown)}; "
                f"choose from {', '.join(AXIS_ORDER)}")
        for name in AXIS_ORDER:
            if name not in self.axes:
                continue
            values = self.axes[name]
            if not isinstance(values, (list, tuple)) or not values:
                raise DseSpecError(
                    f"axis {name!r} must be a non-empty list of integers")
            for value in values:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise DseSpecError(
                        f"axis {name!r}: values must be integers, "
                        f"got {value!r}")
        # Construct every grid point through the ProcessorConfig bounds
        # checks now, so a bad axis fails at parse time — never
        # mid-sweep.  _expand_validated attributes the failure to a
        # single axis whenever one is unconditionally to blame.
        self._expand_validated()

    def _validate_kernels(self) -> None:
        if not self.kernels:
            raise DseSpecError("a sweep needs at least one kernel")
        unknown = sorted(set(self.kernels) - set(ALL_KERNEL_BUILDERS))
        if unknown:
            raise DseSpecError(
                f"unknown kernel(s): {', '.join(unknown)}; choose from "
                f"{', '.join(sorted(ALL_KERNEL_BUILDERS))}")

    @staticmethod
    def _point_base(base: ProcessorConfig, axes: dict) -> ProcessorConfig:
        """Apply axis values onto the base config (may raise ValueError).

        ``mt_mode`` tracks the thread axis the same way the CLI does:
        one context means single-threaded, several mean fine-grain —
        unless the base config explicitly picked a multithreaded mode
        that stays legal.
        """
        fields = dict(axes)
        threads = fields.get("num_threads", base.num_threads)
        if threads == 1:
            fields["mt_mode"] = MTMode.SINGLE
        elif base.mt_mode is MTMode.SINGLE:
            fields["mt_mode"] = MTMode.FINE
        return dataclasses.replace(base, **fields)

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "SweepSpec":
        """Parse and validate a JSON sweep document."""
        given = {}
        device = obj.get("device") if isinstance(obj, dict) else None
        if isinstance(device, str):
            try:
                given["device"] = device_by_name(device)
            except KeyError as exc:
                raise DseSpecError(str(exc.args[0])) from exc
        return from_json(cls, obj, "spec", DseSpecError, **given)

    # -- expansion -----------------------------------------------------------

    @property
    def axis_values(self) -> dict:
        """Sorted, de-duplicated values per swept axis (canonical)."""
        return {name: sorted(set(self.axes[name]))
                for name in AXIS_ORDER if name in self.axes}

    def num_points(self) -> int:
        total = 1
        for values in self.axis_values.values():
            total *= len(values)
        return total

    def expand(self) -> list[DesignPoint]:
        """The full grid, in canonical order, every point validated."""
        return self._expand_validated()

    def _expand_validated(self) -> list[DesignPoint]:
        """Construct every grid point; diagnose failures per axis.

        When every point carrying some axis value fails the config
        bounds checks, that value is unconditionally bad and the error
        names the axis (``axis 'word_width' value 12: ...``).  When
        only *combinations* fail (legal per axis, illegal coupled — say
        more thread contexts than a narrow word can name), the error
        names the first offending point instead.
        """
        base = self._base_config()
        grids = self.axis_values
        combos: list[dict] = [{}]
        for name, values in grids.items():
            combos = [dict(combo, **{name: v})
                      for combo in combos for v in values]
        points: list[DesignPoint] = []
        failures: list[tuple[dict, str]] = []
        for combo in combos:
            try:
                cfg = self._point_base(base, combo)
            except ValueError as exc:
                failures.append((combo, str(exc)))
                continue
            point_id = "-".join(f"{_AXIS_TAG[name]}{combo[name]}"
                                for name in AXIS_ORDER if name in combo)
            points.append(DesignPoint(point_id, combo, cfg))
        if failures:
            for name, values in grids.items():
                for value in values:
                    failed = [(c, msg) for c, msg in failures
                              if c[name] == value]
                    carrying = sum(1 for c in combos if c[name] == value)
                    if failed and len(failed) == carrying:
                        raise DseSpecError(
                            f"axis {name!r} value {value}: {failed[0][1]}")
            combo, msg = failures[0]
            axes_desc = ", ".join(f"{name}={combo[name]}"
                                  for name in AXIS_ORDER if name in combo)
            raise DseSpecError(
                f"infeasible grid point ({axes_desc}): {msg} "
                f"({len(failures)} of {len(combos)} points infeasible)")
        return points

    def to_json(self) -> dict:
        """Canonical echo of the spec (rides in the sweep report)."""
        return {
            "name": self.name,
            "axes": self.axis_values,
            "kernels": list(self.kernels),
            "device": self.device.name,
            "base": {k: self.base[k] for k in sorted(self.base)},
            "backend": self.backend,
            "max_cycles": self.max_cycles,
        }
