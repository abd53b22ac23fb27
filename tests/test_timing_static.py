"""Differential validation of the fast execution backend.

The fast path (:mod:`repro.assoc.fastpath`) promises *bit-identical*
counters to the cycle-accurate core: functional execution supplies the
dynamic block path, compositional timing summaries
(:mod:`repro.analysis.timing`) supply the cycles.  These tests hold it
to that promise three ways:

* **enumerated parity** — every ``examples/asm`` program and every
  library kernel, across scheduler/mode/pipeline variants, compared on
  the full :class:`~repro.core.stats.Stats` dataclass *and* the final
  architectural state (registers, PE array, memory, thread states);
* **generated parity** — hypothesis-built multithreaded programs
  (spawn/join/tput across FINE/COARSE x ROTATING/FIXED) with the same
  strong comparison, plus error/timeout parity under tight cycle
  limits.  Spawning programs run on the cycle core on both backends,
  so these compare the core's cached ready times against the same loop
  recomputing every context's readiness each round;
* **static soundness** — ``static_cycle_bound`` is a true upper bound
  on acyclic programs and declines to answer (None) when no finite
  bound exists, and the two timing-powered lint checks
  (``unreachable-block``, ``static-timing-bound``) report claims the
  cycle core can be made to confirm.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.absint import static_cycle_bound
from repro.analysis.lint import lint_program
from repro.asm import assemble
from repro.assoc.fastpath import FastMachine, FastPathError, run_fast
from repro.core import MTMode, Processor, ProcessorConfig
from repro.core.config import DividerKind, MultiplierKind
from repro.core.processor import SimTimeout, SimulationError
from repro.faults import FaultKind, FaultPlane, FaultSite, FaultSpec
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from tests.golden import KERNEL_VARIANTS, VARIANTS

ASM_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples" / "asm"


def _arch_state(machine):
    """Everything architecturally visible after a run, as plain data."""
    return {
        "threads": [(ctx.state.name, [int(v) for v in ctx.sregs])
                    for ctx in machine.threads],
        "pe_regs": machine.pe.regs.tolist(),
        "pe_flags": machine.pe.flags.astype(np.int64).tolist(),
        "memory": [int(w) for w in machine.mem.dump(0, machine.mem.words)],
    }


def _run_one(make_machine, program, cfg, lmem=None, max_cycles=None):
    """Run to (outcome-kind, payload); exceptions become comparable data."""
    machine = make_machine(cfg)
    machine.load(program)
    for col, values in sorted((lmem or {}).items()):
        padded = np.zeros(cfg.num_pes, dtype=np.int64)
        n = min(len(values), cfg.num_pes)
        padded[:n] = values[:n]
        machine.pe.set_lmem_column(int(col), padded)
    try:
        result = machine.run(max_cycles=max_cycles)
    except (SimTimeout, SimulationError, RuntimeError, ValueError) as exc:
        return ("raise", (type(exc).__name__, str(exc)))
    return ("ok", (result.stats, _arch_state(machine)))


def recomputing_core(cfg):
    """The cycle core with its ready-time cache out of play.

    An attached fault plane (here an empty one) makes the issue loop
    recompute every runnable context's readiness each round.
    """
    return Processor(cfg, faults=FaultPlane([], cfg))


def assert_parity(program, cfg, lmem=None, max_cycles=None,
                  machines=(Processor, FastMachine)):
    """Two machines (by default the two backends) must agree completely
    — results or exceptions."""
    make_c, make_f = machines
    kind_c, payload_c = _run_one(make_c, program, cfg, lmem, max_cycles)
    kind_f, payload_f = _run_one(make_f, program, cfg, lmem, max_cycles)
    assert kind_c == kind_f, (payload_c, payload_f)
    if kind_c == "raise":
        assert payload_c == payload_f
    else:
        stats_c, arch_c = payload_c
        stats_f, arch_f = payload_f
        assert stats_f == stats_c
        assert arch_f == arch_c


# ---------------------------------------------------------------------------
# enumerated parity: examples and kernels x machine variants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize(
    "path", sorted(ASM_DIR.glob("*.s")), ids=lambda p: p.stem)
def test_examples_parity(path, variant):
    cfg = ProcessorConfig(num_pes=16, num_threads=4, **VARIANTS[variant])
    program = assemble(path.read_text(), word_width=cfg.word_width)
    assert_parity(program, cfg)


@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
@pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
def test_kernels_parity(name, variant):
    kern = ALL_KERNEL_BUILDERS[name](16)
    cfg = ProcessorConfig(num_pes=16, num_threads=8,
                          word_width=kern.word_width, **VARIANTS[variant])
    program = assemble(kern.source, word_width=cfg.word_width)
    lmem = {int(c): [int(v) for v in vals] for c, vals in kern.lmem.items()}
    assert_parity(program, cfg, lmem=lmem)


# ---------------------------------------------------------------------------
# generated parity: hypothesis multithreaded programs
# ---------------------------------------------------------------------------

SCALAR_OPS = ("add", "sub", "xor", "and", "or", "sll", "srl", "slt",
              "smul")


@st.composite
def mt_programs(draw):
    """Spawn/join/tput-heavy sources in the shape real MT code takes."""
    workers = draw(st.integers(1, 3))
    lines = [".text", "main:"]
    for w in range(workers):
        lines.append(f"    tspawn s{10 + w}, worker{w}")
    if draw(st.booleans()):
        slot = draw(st.integers(0, 3))
        lines.append(f"    addi s2, s0, {draw(st.integers(1, 60))}")
        lines.append(f"    tput s10, s2, {slot}")
    count = draw(st.integers(2, 12))
    lines += [
        f"    addi s1, s0, {count}",
        "mloop:",
    ]
    for _ in range(draw(st.integers(1, 3))):
        # rd avoids s1 (limit) and s9 (counter) for guaranteed exit.
        op = draw(st.sampled_from(SCALAR_OPS))
        rd = draw(st.integers(2, 7))
        lines.append(f"    {op} s{rd}, s{draw(st.integers(1, 7))}, "
                     f"s{draw(st.integers(1, 7))}")
    if draw(st.booleans()):
        lines.append("    paddi p1, p1, 1")
    if draw(st.booleans()):
        lines.append("    rsum s8, p1")
    lines += [
        "    addi s9, s9, 1",
        "    blt s9, s1, mloop",
    ]
    for w in range(workers):
        lines.append(f"    tjoin s{10 + w}")
    lines.append("    halt")
    for w in range(workers):
        wcount = draw(st.integers(1, 10))
        lines += [
            f"worker{w}:",
            f"    addi s1, s0, {wcount}",
            f"wloop{w}:",
        ]
        for _ in range(draw(st.integers(1, 2))):
            # rd stays off s1/s2 so the loop counter is never clobbered
            # and the generated program terminates on its own.
            op = draw(st.sampled_from(SCALAR_OPS))
            lines.append(f"    {op} s{draw(st.integers(3, 7))}, "
                         f"s{draw(st.integers(1, 7))}, "
                         f"s{draw(st.integers(1, 7))}")
        lines += [
            "    addi s2, s2, 1",
            f"    blt s2, s1, wloop{w}",
            "    texit",
        ]
    return "\n".join(lines) + "\n"


mt_variants = st.sampled_from(
    ["fine-rot", "fine-fixed", "coarse-rot", "coarse-fixed", "smt2",
     "seq-muldiv"])


@settings(max_examples=60, deadline=None)
@given(source=mt_programs(), variant=mt_variants,
       threads=st.sampled_from([4, 8]))
def test_mt_differential(source, variant, threads):
    cfg = ProcessorConfig(num_pes=8, num_threads=threads,
                          **VARIANTS[variant])
    program = assemble(source, word_width=cfg.word_width)
    # Generous enough for every generated program; bounds the rare
    # pathological schedule so a single example can never stall CI.
    assert_parity(program, cfg, max_cycles=20_000,
                  machines=(recomputing_core, Processor))


@settings(max_examples=25, deadline=None)
@given(source=mt_programs(), variant=mt_variants,
       limit=st.integers(1, 120))
def test_mt_timeout_parity(source, variant, limit):
    """Tight cycle limits: SimTimeout type *and message* must match."""
    cfg = ProcessorConfig(num_pes=8, num_threads=4, **VARIANTS[variant])
    program = assemble(source, word_width=cfg.word_width)
    assert_parity(program, cfg, max_cycles=limit,
                  machines=(recomputing_core, Processor))


def test_join_wake_drops_cached_readiness():
    """The joiner's readiness was cached with a load-use wait before it
    blocked; after the wake-up it must be recomputed, not replayed."""
    src = """
.text
main:
    tspawn s1, worker
    sw    s1, 0(s0)
    lw    s2, 0(s0)
    tjoin s2              # waits on the load, then blocks on the worker
    halt
worker:
    li    s3, 12
wloop:
    addi  s3, s3, -1
    bne   s3, s0, wloop
    texit
"""
    cfg = ProcessorConfig(num_pes=4, num_threads=4)
    program = assemble(src, word_width=cfg.word_width)
    assert_parity(program, cfg, machines=(recomputing_core, Processor))


def test_pc_fault_is_seen_by_the_next_round():
    """With a fault plane attached, readiness is recomputed each round:
    a PC flipped off an instruction waiting on a reduction issues the
    new pc's instruction without charging the old wait."""
    src = """
.text
main:
    rsum  s1, p1
    add   s2, s1, s1      # waits b + r cycles on the reduction
    halt
    addi  s3, s0, 5       # pc 3: reached only through the fault
    halt
"""
    cfg = ProcessorConfig(num_pes=1024, num_threads=1, mt_mode=MTMode.SINGLE,
                          word_width=16)
    program = assemble(src, word_width=cfg.word_width)
    flip = FaultSpec(FaultSite.THREAD_PC, FaultKind.TRANSIENT, cycle=5,
                     thread=0, bit=1)        # pc 1 -> pc 3
    result = Processor(cfg, faults=FaultPlane([flip], cfg)).run(program)
    assert result.scalar(3) == 5 and result.scalar(2) == 0
    assert not result.stats.wait_cycles


MISSING_UNIT = {
    "smul": ("multiplier", dict(multiplier=MultiplierKind.NONE)),
    "sdiv": ("divider", dict(divider=DividerKind.NONE)),
    "pdiv": ("divider", dict(divider=DividerKind.NONE)),
}


@pytest.mark.parametrize("machine", [Processor, FastMachine],
                         ids=["cycle", "fast"])
@pytest.mark.parametrize("in_flight", [True, False],
                         ids=["dest-in-flight", "dest-idle"])
@pytest.mark.parametrize("mnemonic", sorted(MISSING_UNIT))
def test_missing_unit_is_a_located_simulation_error(mnemonic, in_flight,
                                                    machine):
    """An op the machine lacks fails at issue with the pc named, whether
    or not a write to its destination is still in flight."""
    unit, overrides = MISSING_UNIT[mnemonic]
    rf = "p" if mnemonic.startswith("p") else "s"
    reg = 1 if in_flight else 3
    first = f"paddi p{reg}, p0, 3" if rf == "p" else f"li s{reg}, 3"
    source = (f".text\nmain:\n    {first}\n"
              f"    {mnemonic} {rf}1, {rf}{reg}, {rf}{reg}\n    halt\n")
    cfg = ProcessorConfig(num_pes=4, **overrides)
    program = assemble(source, word_width=cfg.word_width)
    with pytest.raises(SimulationError) as exc:
        machine(cfg).run(program)
    assert str(exc.value) == (
        f"{mnemonic} needs a {unit} but none is configured, at "
        f"{program.location_of(1)}")
    assert "pc=1" in str(exc.value)


def test_deadlock_parity():
    src = ".text\nmain:\n    tjoin s1\n    halt\n"
    cfg = ProcessorConfig(num_pes=4, num_threads=4)
    program = assemble(src, word_width=cfg.word_width)
    assert_parity(program, cfg)


def test_fast_rejects_model_fetch():
    cfg = ProcessorConfig(model_fetch=True)
    program = assemble(".text\nmain:\n    halt\n", word_width=cfg.word_width)
    machine = FastMachine(cfg)
    machine.load(program)
    with pytest.raises(FastPathError):
        machine.run()


def test_run_fast_convenience():
    src = ".text\nmain:\n    addi s1, s0, 7\n    halt\n"
    result = run_fast(src)
    assert result.scalar(1) == 7
    assert result.cycles == Processor(ProcessorConfig()).run(
        assemble(src, word_width=8)).stats.cycles


# ---------------------------------------------------------------------------
# static soundness: the path-free bound and the lint checks
# ---------------------------------------------------------------------------

@st.composite
def acyclic_programs(draw):
    """Straight-line scalar code with only-forward branches."""
    lines = [".text", "main:"]
    n = draw(st.integers(3, 12))
    for i in range(n):
        if draw(st.integers(0, 3)) == 0 and i < n - 1:
            lines.append(f"    beq s{draw(st.integers(0, 3))}, "
                         f"s{draw(st.integers(0, 3))}, skip{i}")
            lines.append(f"    addi s{draw(st.integers(1, 5))}, s0, "
                         f"{draw(st.integers(0, 50))}")
            lines.append(f"skip{i}:")
        else:
            op = draw(st.sampled_from(SCALAR_OPS))
            lines.append(f"    {op} s{draw(st.integers(1, 5))}, "
                         f"s{draw(st.integers(1, 5))}, "
                         f"s{draw(st.integers(1, 5))}")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(source=acyclic_programs())
def test_static_bound_dominates_exact_count(source):
    cfg = ProcessorConfig(num_pes=4)
    program = assemble(source, word_width=cfg.word_width)
    bound = static_cycle_bound(program, cfg)
    assert bound is not None
    result = Processor(cfg).run(program)
    assert bound >= result.stats.cycles


def test_static_bound_declines_loops_and_spawns():
    looped = assemble(
        ".text\nmain:\n    addi s1, s1, 1\n    blt s1, s2, main\n    halt\n",
        word_width=8)
    assert static_cycle_bound(looped, ProcessorConfig(num_pes=4)) is None
    spawning = assemble(
        ".text\nmain:\n    tspawn s1, w\n    tjoin s1\n    halt\n"
        "w:\n    texit\n", word_width=8)
    assert static_cycle_bound(spawning, ProcessorConfig(num_pes=4)) is None


def test_unreachable_block_lint():
    src = """
.text
main:
    addi s1, s0, 5
    blt  s1, s0, dead      # 5 < 0 is provably false
    halt
dead:
    addi s2, s0, 1
    halt
"""
    cfg = ProcessorConfig(num_pes=4)
    program = assemble(src, word_width=cfg.word_width)
    report = lint_program(program, cfg, checks=["unreachable-block"])
    diags = [d for d in report.diagnostics if d.check == "unreachable-block"]
    assert len(diags) == 1
    d = diags[0]
    assert d.severity == "warning"
    assert d.data["pruned_edges"][0]["always_taken"] is False
    # The flagged block really is dead: the cycle core never executes it.
    result = Processor(cfg).run(program)
    assert result.scalar(2) == 0


def test_unreachable_block_lint_stays_quiet_on_live_code():
    src = """
.text
main:
    addi s1, s0, 5
    blt  s0, s1, live      # 0 < 5 is provably true; fall-through dies,
    addi s3, s0, 9         # but no *block* becomes unreachable here
live:
    halt
"""
    program = assemble(src, word_width=8)
    report = lint_program(program, ProcessorConfig(num_pes=4),
                          checks=["unreachable-block"])
    blocks = [d for d in report.diagnostics
              if d.check == "unreachable-block"]
    # The fall-through straight-line block IS dead and must be flagged.
    assert len(blocks) == 1
    assert blocks[0].data["pruned_edges"][0]["always_taken"] is True


def test_static_timing_bound_lint_matches_measured_loop_cost():
    """The advertised cycles/iteration must equal the cycle core's own
    steady-state delta when the loop runs longer."""
    src_template = """
.text
main:
    addi s1, s0, {count}
loop:
    smul s2, s1, s1
    add  s3, s2, s2
    addi s1, s1, -1
    bne  s1, s0, loop
    halt
"""
    cfg = ProcessorConfig(num_pes=4, word_width=16)
    program = assemble(src_template.format(count=20),
                       word_width=cfg.word_width)
    report = lint_program(program, cfg, checks=["static-timing-bound"])
    diags = [d for d in report.diagnostics
             if d.check == "static-timing-bound"]
    assert len(diags) == 1
    d = diags[0]
    assert d.severity == "info"
    per_iter = d.data["cycles_per_iteration"]
    assert d.data["stalls"]
    assert d.data["dominant_stall"] in d.data["stalls"]
    short = Processor(cfg).run(
        assemble(src_template.format(count=20), word_width=cfg.word_width))
    long = Processor(cfg).run(
        assemble(src_template.format(count=50), word_width=cfg.word_width))
    assert long.stats.cycles - short.stats.cycles == 30 * per_iter


def test_lint_report_order_is_deterministic():
    """New checks must respect the (pc, check, severity, message) sort."""
    src = """
.text
main:
    addi s1, s0, 5
    blt  s1, s0, dead
loop:
    smul s2, s1, s1
    add  s3, s2, s2
    addi s1, s1, -1
    bne  s1, s0, loop
    halt
dead:
    addi s4, s0, 1
    halt
"""
    cfg = ProcessorConfig(num_pes=4)
    program = assemble(src, word_width=cfg.word_width)
    report = lint_program(program, cfg)
    keys = [(d.pc, d.check, d.severity, d.message)
            for d in report.diagnostics]
    assert keys == sorted(keys)
    checks = {d.check for d in report.diagnostics}
    assert "unreachable-block" in checks
    assert "static-timing-bound" in checks


def test_fast_snapshot_roundtrip():
    """FastRunResult satisfies the snapshot protocol end to end."""
    from repro.serve.snapshot import ResultSnapshot

    kern = ALL_KERNEL_BUILDERS["count_matches"](8)
    cfg = ProcessorConfig(num_pes=8, num_threads=2,
                          word_width=kern.word_width)
    program = assemble(kern.source, word_width=cfg.word_width)
    lmem = {int(c): list(v) for c, v in kern.lmem.items()}

    def capture(make):
        machine = make(cfg)
        machine.load(program)
        for col, values in sorted(lmem.items()):
            padded = np.zeros(cfg.num_pes, dtype=np.int64)
            padded[:min(len(values), cfg.num_pes)] = \
                values[:cfg.num_pes]
            machine.pe.set_lmem_column(col, padded)
        return ResultSnapshot.from_result(machine.run())

    snap_c = capture(Processor)
    snap_f = capture(FastMachine)
    assert snap_f.schema == 5
    assert snap_c == snap_f
