"""Kernel runner: assemble, load, initialize PE memory, run, extract."""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.assembler import assemble
from repro.assoc.functional import FunctionalMachine
from repro.core.config import ProcessorConfig
from repro.core.processor import Processor, RunResult
from repro.programs.kernels import Kernel


class KernelSetupError(ValueError):
    """Configuration cannot host the kernel (too few PEs / memory)."""


def check_fit(kernel: Kernel, cfg: ProcessorConfig) -> None:
    """Raise :class:`KernelSetupError` unless ``cfg`` can host ``kernel``."""
    if cfg.word_width != kernel.word_width:
        raise KernelSetupError(
            f"{kernel.name} is built for W={kernel.word_width}, "
            f"config has W={cfg.word_width}")
    if cfg.num_pes < kernel.min_pes:
        raise KernelSetupError(
            f"{kernel.name} needs >= {kernel.min_pes} PEs")
    if cfg.lmem_words < kernel.min_lmem_words:
        raise KernelSetupError(
            f"{kernel.name} needs >= {kernel.min_lmem_words} local words")


def extract_outputs(kernel: Kernel, result) -> dict[str, object]:
    """Pull the kernel's declared outputs from a run result."""
    out: dict[str, object] = {}
    for name, spec in kernel.outputs.items():
        if spec[0] == "scalar":
            out[name] = result.scalar(spec[1])
        elif spec[0] == "memory":
            out[name] = result.memory(spec[1], spec[2])
        else:  # pragma: no cover - exhaustive over output kinds
            raise AssertionError(spec)
    return out


@dataclass
class KernelRun:
    """Result of one kernel execution."""

    kernel: Kernel
    result: RunResult
    measured: dict[str, object]

    @property
    def correct(self) -> bool:
        return self.measured == {k: kernel_norm(v)
                                 for k, v in self.kernel.expected.items()}

    @property
    def cycles(self) -> int:
        return self.result.cycles


def kernel_norm(value):
    """Normalize expected values for comparison (numpy -> python)."""
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return int(value)


def run_kernel(kernel: Kernel, cfg: ProcessorConfig,
               trace: bool = False) -> KernelRun:
    """Run a kernel cycle-accurately and extract its outputs."""
    check_fit(kernel, cfg)
    program = assemble(kernel.source, word_width=cfg.word_width)
    proc = Processor(cfg, trace=trace)
    proc.load(program)
    proc.pe.load_lmem(kernel.lmem.items())
    result = proc.run()
    return KernelRun(kernel, result, extract_outputs(kernel, result))


def run_kernel_functional(kernel: Kernel, cfg: ProcessorConfig,
                          ) -> dict[str, object]:
    """Run a kernel on the untimed backend; returns extracted outputs."""
    check_fit(kernel, cfg)
    program = assemble(kernel.source, word_width=cfg.word_width)
    machine = FunctionalMachine(cfg)
    machine.load(program)
    machine.pe.load_lmem(kernel.lmem.items())
    result = machine.run()
    return extract_outputs(kernel, result)


def verify_kernel(kernel: Kernel, cfg: ProcessorConfig) -> KernelRun:
    """Run and raise if any output deviates from the kernel's oracle."""
    run = run_kernel(kernel, cfg)
    expected = {k: kernel_norm(v) for k, v in kernel.expected.items()}
    if run.measured != expected:
        raise AssertionError(
            f"{kernel.name}: expected {expected}, measured {run.measured}")
    return run
