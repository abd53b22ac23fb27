"""The golden net: frozen cycle-core results over a program x machine matrix.

``tests/data/golden_stats.json`` maps a case id to the full
:class:`~repro.core.stats.Stats`, a digest of the final architectural
state and a digest of the result-snapshot JSON (the ``result`` of a
``--full`` reply, and the body of ``repro run --json``) of one
cycle-core run.  The cases cover

* the reference-shape kernel library (p=32, T=16 fine, W=16);
* the program x machine matrices of ``test_examples_parity`` and
  ``test_kernels_parity`` in ``test_timing_static.py``;
* ``reduction_storm`` at 1, 4 and 8 threads, and at 8 threads on the
  coarse, SMT-2 and unpipelined-reduction machines;
* one ``model_fetch`` machine.

Because the fast backend runs spawning programs on the core itself, a
"cycle vs fast" comparison cannot catch a change in multithreaded timing;
this file can.  Regenerate it with ``python tools/update_golden.py`` only
after an intentional timing-model change, and re-measure EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from collections import Counter
from typing import Callable

import numpy as np

from repro.asm import assemble
from repro.core import MTMode, Processor, ProcessorConfig
from repro.core.config import DividerKind, MultiplierKind, SchedulerPolicy
from repro.programs.kernels import ALL_KERNEL_BUILDERS, reduction_storm
from repro.serve.identity import canonical_json
from repro.serve.snapshot import ResultSnapshot

ROOT = pathlib.Path(__file__).resolve().parent.parent
ASM_DIR = ROOT / "examples" / "asm"
GOLDEN_PATH = ROOT / "tests" / "data" / "golden_stats.json"

# Machine variants of the parity matrices.
VARIANTS = {
    "fine-rot": dict(mt_mode=MTMode.FINE, scheduler=SchedulerPolicy.ROTATING),
    "fine-fixed": dict(mt_mode=MTMode.FINE, scheduler=SchedulerPolicy.FIXED),
    "coarse-rot": dict(mt_mode=MTMode.COARSE,
                       scheduler=SchedulerPolicy.ROTATING),
    "coarse-fixed": dict(mt_mode=MTMode.COARSE,
                         scheduler=SchedulerPolicy.FIXED),
    "smt2": dict(mt_mode=MTMode.SMT2, scheduler=SchedulerPolicy.ROTATING),
    "seq-muldiv": dict(mt_mode=MTMode.FINE,
                       scheduler=SchedulerPolicy.ROTATING,
                       multiplier=MultiplierKind.SEQUENTIAL,
                       divider=DividerKind.SEQUENTIAL),
    "flat-reduce": dict(mt_mode=MTMode.FINE,
                        scheduler=SchedulerPolicy.ROTATING,
                        pipelined_reduction=False,
                        pipelined_broadcast=False),
}
KERNEL_VARIANTS = ("fine-rot", "coarse-fixed", "smt2")
STORM_THREADS = (1, 4, 8)
STORM_VARIANTS = ("coarse-rot", "smt2", "flat-reduce")


@dataclasses.dataclass(frozen=True)
class Case:
    """One golden run: a program, its machine and its lmem image."""

    source: str
    config: ProcessorConfig
    lmem: dict[int, list[int]]


def _reference_kernel(name: str):
    builder = ALL_KERNEL_BUILDERS[name]
    if name == "reduction_storm":
        return builder(32, total_iters=32, threads=4)
    if name == "mst_prim":
        return builder(32, n=12)
    return builder(32)


def _kernel_case(kern, **cfg_kwargs) -> Case:
    cfg = ProcessorConfig(word_width=kern.word_width, **cfg_kwargs)
    lmem = {int(c): [int(v) for v in vals] for c, vals in kern.lmem.items()}
    return Case(kern.source, cfg, lmem)


def cases() -> dict[str, Callable[[], Case]]:
    """Case id -> builder, for every golden run."""
    out: dict[str, Callable[[], Case]] = {}
    for name in sorted(ALL_KERNEL_BUILDERS):
        out[f"reference/{name}"] = (
            lambda name=name: _kernel_case(
                _reference_kernel(name), num_pes=32, num_threads=16))
    for path in sorted(ASM_DIR.glob("*.s")):
        for variant in sorted(VARIANTS):
            out[f"example/{path.stem}/{variant}"] = (
                lambda path=path, variant=variant: Case(
                    path.read_text(),
                    ProcessorConfig(num_pes=16, num_threads=4,
                                    **VARIANTS[variant]), {}))
    for name in sorted(ALL_KERNEL_BUILDERS):
        for variant in KERNEL_VARIANTS:
            out[f"kernel/{name}/{variant}"] = (
                lambda name=name, variant=variant: _kernel_case(
                    ALL_KERNEL_BUILDERS[name](16), num_pes=16,
                    num_threads=8, **VARIANTS[variant]))
    for threads in STORM_THREADS:
        out[f"storm/threads{threads}"] = (
            lambda threads=threads: _kernel_case(
                reduction_storm(64, total_iters=64, threads=threads),
                num_pes=64, num_threads=8))
    for variant in STORM_VARIANTS:
        out[f"storm/threads8/{variant}"] = (
            lambda variant=variant: _kernel_case(
                reduction_storm(64, total_iters=64, threads=8),
                num_pes=64, num_threads=8, **VARIANTS[variant]))
    out["fetch/reduction_storm"] = lambda: _kernel_case(
        reduction_storm(16, total_iters=32, threads=4), num_pes=16,
        num_threads=4, model_fetch=True)
    return out


def _counter(counter: Counter) -> dict[str, int]:
    return {str(k): int(v) for k, v in sorted(counter.items()) if v}


def stats_record(stats) -> dict:
    """Every Stats field as JSON data (zero Counter entries dropped)."""
    out = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        out[f.name] = (_counter(value) if isinstance(value, Counter)
                       else int(value))
    return out


def arch_digest(machine) -> str:
    """sha256 over the final registers, PE array, memory and thread states."""
    h = hashlib.sha256()
    for ctx in machine.threads:
        h.update(f"{ctx.state.name}:{[int(v) for v in ctx.sregs]};".encode())
    for array in (machine.pe.regs, machine.pe.flags, machine.pe.lmem):
        h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    h.update(np.asarray(machine.mem.dump(0, machine.mem.words),
                        dtype=np.int64).tobytes())
    return h.hexdigest()


def snapshot_json_digest(result) -> str:
    """sha256 over the canonical JSON of the run's result snapshot."""
    payload = canonical_json(ResultSnapshot.from_result(result).to_json())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def record(case: Case) -> dict:
    """Run one case on the cycle core: its golden record."""
    program = assemble(case.source, word_width=case.config.word_width)
    proc = Processor(case.config)
    proc.load(program)
    for col, values in sorted(case.lmem.items()):
        padded = np.zeros(case.config.num_pes, dtype=np.int64)
        n = min(len(values), case.config.num_pes)
        padded[:n] = values[:n]
        proc.pe.set_lmem_column(col, padded)
    result = proc.run()
    return {"stats": stats_record(result.stats), "arch": arch_digest(proc),
            "snapshot_json": snapshot_json_digest(result)}


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())
