"""Job descriptions for the batch runner and service.

A :class:`Job` names one simulation: a program (inline assembly source,
a ``.s`` file, or a library kernel), a machine configuration, optional
PE local-memory columns, an optional fault to inject, and an optional
cycle limit.  :meth:`Job.prepare` assembles it into a
:class:`PreparedJob` — the canonical ``(key, program, config, lmem)``
tuple everything downstream (cache, pool, service) operates on.

JSON form (one object per job; ``python -m repro batch`` reads a list,
or ``{"jobs": [...]}``)::

    {"name": "sweep-t8", "kernel": "count_matches",
     "config": {"num_pes": 32, "num_threads": 8}}
    {"name": "inline", "source": ".text\\nmain:\\n  halt\\n",
     "lmem": {"0": [1, 2, 3]}, "max_cycles": 100000}
    {"name": "from-file", "file": "examples/asm/assoc_search.s",
     "config": {"word_width": 16}}

``config`` keys are :class:`~repro.core.config.ProcessorConfig` field
names; enum fields take their string values (e.g. ``"mt_mode": "fine"``).
``"sanitize": true`` attaches the vector-clock race sanitizer to the
run; detected races ride back in the snapshot's ``races`` section (and
in the cache key, so sanitized results are cached separately).
``"profile": true`` attaches the cycle profiler the same way; the
attribution rides back in the snapshot's ``profile`` section.
``"verify": true`` demands a *validated schedule*: the worker runs the
static list scheduler, translation-validates its output against the
assembled program (:mod:`repro.analysis.equiv`), executes the scheduled
program only on a proof, and fails the job with the refutation report
otherwise; the proof summary rides back in the snapshot's ``verify``
section.
``"kernel_args"`` passes keyword arguments through to the kernel
builder (e.g. ``{"kernel": "vector_mac", "kernel_args": {"width": 8}}``
builds the kernel on an 8-bit datapath); only valid with ``kernel``.
The design-space sweeper uses this to carry its word-width axis into
kernel programs.  The arguments shape the assembled program and the
inherited config, so they are captured by the content key automatically.
``"backend": "fast"`` executes on the fast-path backend
(:mod:`repro.assoc.fastpath`): the cycle backend's result, computed by
functional execution plus compositional static timing where that is
exact, and by the fast machine's own cycle core otherwise (a ``fault``,
``sanitize`` or ``profile`` job among them).
Kernel jobs inherit the kernel's word width and local-memory image, same
as ``repro faultsim`` does.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass, field

from repro.asm.assembler import assemble
from repro.asm.program import Program
from repro.core.config import ProcessorConfig
from repro.faults.spec import FaultSpec
from repro.pe.pe_array import PEArray
from repro.programs.kernels import ALL_KERNEL_BUILDERS, KERNEL_ARG_RULES
from repro.programs.runner import KernelSetupError, check_fit
from repro.serve.identity import job_key
from repro.util.fields import Rule, check, from_json, rule, table

#: A job's cycle limit, and its config's, is at most the default watchdog.
MAX_JOB_CYCLES = ProcessorConfig.max_cycles
#: Bytes of simulated machine state one job may allocate
#: (:meth:`PEArray.state_bytes`).
MAX_JOB_BYTES = 256 << 20


#: A local-memory column key: an integer, not a bool.
_COLUMN = Rule("column", int)
#: A kernel's ``width`` argument: a word width the machine can have.
_WIDTH = table(ProcessorConfig).rules["word_width"]


class JobError(ValueError):
    """A job description is malformed or names unknown entities."""


class UnfitJobError(JobError):
    """A job's kernel builds but its machine cannot host it (too few PEs
    or local words): a batch fails that job alone."""


def config_from_json(spec: dict | None) -> ProcessorConfig:
    """Build a :class:`ProcessorConfig` from a JSON dict of field values."""
    try:
        return from_json(ProcessorConfig, {} if spec is None else spec,
                         "config", JobError)
    except JobError:
        raise
    except ValueError as exc:
        raise JobError(f"bad config: {exc}") from exc


def job_name(obj) -> str:
    """A job object's display name: its first non-empty string among
    ``name``, ``kernel`` and ``file``, else ``"inline"``."""
    if not isinstance(obj, dict):
        return "?"
    return next((obj[k] for k in ("name", "kernel", "file")
                 if isinstance(obj.get(k), str) and obj[k]), "inline")


@dataclass
class PreparedJob:
    """A job resolved to the exact computation the pool executes.

    :func:`~repro.serve.identity.job_key` hashes every field but ``name``
    and ``key``.
    """

    name: str
    key: str
    program: Program
    config: ProcessorConfig
    lmem: dict = field(default_factory=dict)
    max_cycles: int | None = None
    fault: FaultSpec | None = None
    sanitize: bool = False
    profile: bool = False
    verify: bool = False
    backend: str = "cycle"


@dataclass
class Job:
    """One simulation request (see the module docstring for JSON form)."""

    name: str = rule("display name; a JSON job defaults it to its kernel "
                     "or file", "inline")
    source: str | None = rule("inline assembly source", None)
    kernel: str | None = rule("a library kernel to build and run", None)
    kernel_args: dict = rule("kernel builder keyword arguments", factory=dict)
    config: ProcessorConfig = rule("the machine (table below)",
                                   factory=ProcessorConfig)
    lmem: dict = rule("PE local-memory columns", factory=dict)
    max_cycles: int | None = rule("cycle limit", None, lo=1,
                                  hi=MAX_JOB_CYCLES)
    fault: FaultSpec | None = rule("a fault to inject", None)
    sanitize: bool = rule("attach the race sanitizer", False)
    profile: bool = rule("attach the cycle profiler", False)
    verify: bool = rule("run a translation-validated schedule", False)
    backend: str = rule("execution backend", "cycle",
                        choices=("cycle", "fast"))

    def __post_init__(self) -> None:
        check(self, lambda msg: JobError(f"job {self.name!r}: {msg}"))
        if (self.source is None) == (self.kernel is None):
            raise JobError(
                f"job {self.name!r}: exactly one of source/kernel required")
        if self.kernel_args and self.kernel is None:
            raise JobError(
                f"job {self.name!r}: kernel_args requires a kernel job")
        # The limits hold before the kernel builder allocates anything.
        if self.config.max_cycles > MAX_JOB_CYCLES:
            raise JobError(
                f"job {self.name!r}: 'config.max_cycles' must be at most "
                f"{MAX_JOB_CYCLES}, got {self.config.max_cycles}")
        for col in self.lmem:
            if not _COLUMN.accepts(col):
                raise JobError(f"job {self.name!r}: 'lmem' column keys must "
                               f"be integers, got {col!r}")
        if any(not 0 <= col < self.config.lmem_words for col in self.lmem):
            raise JobError(
                f"job {self.name!r}: 'lmem' columns must be below the "
                f"config's lmem_words={self.config.lmem_words}, got "
                f"{sorted(self.lmem)}")
        state = PEArray.state_bytes(self.config)
        if state > MAX_JOB_BYTES:
            raise JobError(
                f"job {self.name!r}: the config's machine state needs "
                f"{state} bytes, more than the {MAX_JOB_BYTES} a job may use")

    @classmethod
    def from_json(cls, obj: dict, base_dir: str | pathlib.Path | None = None,
                  ) -> "Job":
        """Parse one job object; ``file`` paths resolve against base_dir."""
        if not isinstance(obj, dict):
            raise JobError(f"'job' must be an object, got {obj!r}")
        # A null job field is an absent one.
        doc = {k: v for k, v in obj.items() if v is not None}
        if doc.get("name", "") == "":
            doc["name"] = job_name(obj)
        name = doc["name"]

        def bad(msg: str) -> JobError:
            return JobError(f"job {name!r}: {msg}")

        path = doc.pop("file", None)
        if path is not None:
            if not isinstance(path, str):
                raise bad(f"'file' must be a string, got {path!r}")
            if "source" in doc:
                raise bad("give either 'source' or 'file', not both")
            path = pathlib.Path(path)
            if base_dir is not None and not path.is_absolute():
                path = pathlib.Path(base_dir) / path
            try:
                doc["source"] = path.read_text()
            except OSError as exc:
                raise bad(f"cannot read {path}: {exc}") from exc
        for key, parse in (("config", config_from_json),
                           ("fault", FaultSpec.from_json)):
            if key in doc:
                try:
                    doc[key] = parse(doc[key])
                except ValueError as exc:
                    raise bad(str(exc)) from None
        if isinstance(doc.get("lmem"), dict):
            lmem = {}
            for col, values in doc["lmem"].items():
                if not (str(col).isdecimal() and isinstance(values, list)
                        and all(type(v) is int and -1 << 63 <= v < 1 << 63
                                for v in values)):
                    raise bad(f"lmem column {col!r} must be a list of "
                              f"64-bit integers, got {values!r}")
                lmem[int(col)] = values
            doc["lmem"] = lmem
        return from_json(cls, doc, "job", bad)

    def prepare(self, key: str | None = None) -> PreparedJob:
        """Assemble and hash this job into its canonical form.

        ``key`` is this job's key when the caller already knows it (from
        :data:`~repro.serve.identity.KEY_MEMO`); it is not hashed again.
        """
        cfg = self.config
        lmem = dict(self.lmem)
        if self.kernel is not None:
            if self.kernel not in ALL_KERNEL_BUILDERS:
                raise JobError(
                    f"unknown kernel {self.kernel!r}; choose from "
                    f"{', '.join(sorted(ALL_KERNEL_BUILDERS))}")
            bad_args = (f"job {self.name!r}: bad kernel_args for "
                        f"{self.kernel!r}")
            rules = KERNEL_ARG_RULES[self.kernel]
            for arg, value in self.kernel_args.items():
                if arg in rules and not rules[arg].accepts(value):
                    raise JobError(f"{bad_args}: '{arg}' must be "
                                   f"{rules[arg].what}, got {value!r}")
            # A kernel's width is its machine's: one rule for every kernel.
            width = self.kernel_args.get("width")
            if width is not None and not _WIDTH.accepts(width):
                raise JobError(f"{bad_args}: 'word_width' must be "
                               f"{_WIDTH.what}, got {width!r}")
            try:
                kern = ALL_KERNEL_BUILDERS[self.kernel](
                    cfg.num_pes, **self.kernel_args)
                cfg = dataclasses.replace(cfg, word_width=kern.word_width)
                check_fit(kern, cfg)
            except (TypeError, OverflowError) as exc:
                raise JobError(f"{bad_args}: {exc}") from exc
            except ValueError as exc:
                error = (UnfitJobError if isinstance(exc, KernelSetupError)
                         else JobError)
                raise error(
                    f"job {self.name!r}: cannot build kernel "
                    f"{self.kernel!r} at {cfg.num_pes} PEs: {exc}") from exc
            source = kern.source
            for col, values in kern.lmem.items():
                lmem.setdefault(col, values)
        else:
            source = self.source
        try:
            program = assemble(source, word_width=cfg.word_width)
        except Exception as exc:
            raise JobError(f"job {self.name!r}: assembly failed: {exc}") \
                from exc
        prepared = PreparedJob(
            name=self.name, key="", program=program, config=cfg, lmem=lmem,
            max_cycles=self.max_cycles, fault=self.fault,
            sanitize=self.sanitize, profile=self.profile, verify=self.verify,
            backend=self.backend)
        prepared.key = job_key(prepared) if key is None else key
        return prepared


def jobs_from_json(payload, base_dir=None) -> list[Job]:
    """Parse a jobs document: a list of job objects or ``{"jobs": [...]}``."""
    if isinstance(payload, dict):
        payload = payload.get("jobs")
    if not isinstance(payload, list):
        raise JobError("jobs document must be a list or {'jobs': [...]}")
    if not payload:
        raise JobError("jobs document is empty")
    return [Job.from_json(obj, base_dir=base_dir) for obj in payload]
