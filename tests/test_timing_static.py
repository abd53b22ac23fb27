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
* **generated parity** — programs from the shared generator on the
  shared machine axis, through :func:`tests.oracle.check_backends`,
  plus error/timeout parity under tight cycle limits.  The fast
  backend folds a run up to its first ``tspawn`` (or other event only
  the issue loop handles) and hands the rest to its cycle core, so
  spawning programs also compare the core's cached ready times against
  the same loop recomputing every context's readiness each round;
* **static soundness** — ``static_cycle_bound`` is a true upper bound
  on acyclic programs and declines to answer (None) when no finite
  bound exists, and the two timing-powered lint checks
  (``unreachable-block``, ``static-timing-bound``) report claims the
  cycle core can be made to confirm.
"""

import contextlib
import dataclasses
import gc
import itertools
import pathlib
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.analysis.lint import lint_program
from repro.analysis.timing import TimingAnalysis, static_cycle_bound
from repro.asm import Assembler, assemble
from repro.assoc import FunctionalMachine, fastpath
from repro.assoc.fastpath import FastMachine, run_fast
from repro.core import MTMode, Processor, ProcessorConfig
from repro.core.config import DividerKind, MultiplierKind
from repro.core.processor import SimTimeout, SimulationError
from repro.faults import FaultKind, FaultPlane, FaultSite, FaultSpec
from repro.pe import PEArray
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from tests.golden import KERNEL_VARIANTS, VARIANTS
from tests.oracle import (
    PROPERTY,
    assert_parity,
    check_backends,
    check_static_bound,
    check_watchdog,
    examples,
    outcome,
    recomputing_core,
)
from tests.strategies import machines, programs

ASM_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples" / "asm"


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
# generated parity: the shared generator on the shared axis
# ---------------------------------------------------------------------------

@examples(60)
@given(program=programs(), cfg=machines(threads=(4, 8), unitless=True))
def test_mt_differential(program, cfg):
    # Generous enough for every generated program; bounds the rare
    # pathological schedule so a single example can never stall CI.
    check_backends(program, cfg, max_cycles=20_000)


@PROPERTY
@given(program=programs(), cfg=machines(threads=(4, 8), unitless=True),
       limit=st.integers(1, 120))
def test_mt_timeout_parity(program, cfg, limit):
    """Tight cycle limits: SimTimeout type *and message* must match,
    also at and just below the cycles the run takes."""
    check_backends(program, cfg, max_cycles=limit)
    check_watchdog(program, cfg)


# One-block counted loops: the scalar-heavy program of
# benchmarks/bench_sim_throughput.py, and a countdown with a parallel op
# in its body.  Each window of cycle limits cuts a loop mid-run.
SELF_LOOPS = {
    "scalar_heavy": (
        ".text\nmain:\n    li   s1, 150\nouter:\n    li   s2, 100\n"
        "inner:\n    addi s3, s3, 1\n    add  s4, s4, s3\n"
        "    xor  s5, s5, s4\n    slt  s6, s3, s2\n    addi s2, s2, -1\n"
        "    bne  s2, s0, inner\n    addi s1, s1, -1\n"
        "    bne  s1, s0, outer\n    halt\n",
        (range(300, 340), range(795, 835))),
    "parallel_countdown": (
        ".text\nmain:\n    li    s1, 40\nloop:\n    paddi p1, p1, 1\n"
        "    addi  s1, s1, -1\n    bne   s1, s0, loop\n    halt\n",
        (range(60, 90), range(185, 202))),
}


@pytest.mark.parametrize("name", sorted(SELF_LOOPS))
def test_watchdog_inside_a_self_loop(name):
    """The fast backend and the fold raise the core's SimTimeout text for
    every limit that cuts a self-loop mid-run: from the functional run's
    own event stream, from the whole run's stream, and from one truncated
    right after the last event the core consumes before the limit."""
    source, windows = SELF_LOOPS[name]
    cfg = ProcessorConfig(num_pes=16, num_threads=1, mt_mode=MTMode.SINGLE,
                          word_width=16)
    program = assemble(source, word_width=cfg.word_width)
    whole = Processor(cfg, trace=True).run(program).trace
    # A branch's event is 1 when the next issue is not the next pc.
    events = [int(nxt.pc != rec.pc + 1)
              for rec, nxt in zip(whole, whole[1:])
              if rec.instr.spec.is_branch]
    analysis = TimingAnalysis(program, cfg)
    for limit in (limit for window in windows for limit in window):
        core = Processor(cfg, trace=True)
        with pytest.raises(SimTimeout) as want:
            core.run(program, max_cycles=limit)
        consumed = sum(rec.instr.spec.is_branch for rec in core.trace)
        with pytest.raises(SimTimeout) as fast:
            run_fast(program, config=cfg, max_cycles=limit)
        assert str(fast.value) == str(want.value), limit
        for stream in (events, events[:consumed]):
            with pytest.raises(SimTimeout) as folded:
                analysis.fold(stream, max_cycles=limit)
            assert str(folded.value) == str(want.value), (limit, len(stream))


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


@pytest.mark.parametrize("machine", [Processor, FastMachine,
                                     FunctionalMachine],
                         ids=["cycle", "fast", "functional"])
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


def test_missing_unit_stops_the_fast_run():
    """The fast backend raises the core's error for an op the machine
    lacks, not a fault of a later instruction it ran past it; and the
    watchdog still fires first when it would on the core."""
    cfg = ProcessorConfig(num_pes=4, divider=DividerKind.NONE)
    program = assemble(".text\nmain:\n    pdiv p1, p1, p1\n"
                       "    sw s1, -1(s0)\n    halt\n",
                       word_width=cfg.word_width)
    with pytest.raises(SimulationError, match="needs a divider"):
        FastMachine(cfg).run(program)
    assert_parity(program, cfg)
    late = assemble(".text\nmain:\n" + "    addi s1, s1, 1\n" * 10
                    + "    pdiv p1, p1, p1\n    halt\n",
                    word_width=cfg.word_width)
    for limit in (5, 10, 11, 12, None):
        assert_parity(late, cfg, max_cycles=limit)


def test_missing_unit_in_a_loop_fails_at_once():
    """Under the default watchdog, not after 10,000,000 cycles of it."""
    cfg = ProcessorConfig(num_pes=4, divider=DividerKind.NONE)
    program = assemble("main: pdiv p1, p1, p1\n    j main\n",
                       word_width=cfg.word_width)
    started = time.perf_counter()
    with pytest.raises(SimulationError, match="needs a divider"):
        FastMachine(cfg).run(program)
    assert time.perf_counter() - started < 1.0


def test_load_use_across_a_block_boundary():
    """A load issued last in a block still stalls its consumer at the
    start of the next: the fold keeps the load's scoreboard entry."""
    cfg = ProcessorConfig(num_pes=4)
    program = assemble(".text\nmain:\n    li   s9, 3\nloop:\n"
                       "    beq  s9, s0, join\n    lw   s1, 16(s0)\n"
                       "join:\n    add  s2, s1, s1\n    addi s9, s9, -1\n"
                       "    bne  s9, s0, loop\n    halt\n",
                       word_width=cfg.word_width)
    assert_parity(program, cfg)


def test_deadlock_parity():
    src = ".text\nmain:\n    tjoin s1\n    halt\n"
    cfg = ProcessorConfig(num_pes=4, num_threads=4)
    program = assemble(src, word_width=cfg.word_width)
    assert_parity(program, cfg)


@pytest.mark.parametrize("threads", [1, 4])
def test_deadlock_under_the_watchdog(threads):
    """A thread that joins itself after a load-use stall: under every
    limit the fast backend raises what the core raises, the watchdog's
    SimTimeout while the join's try or the round after it lies past the
    limit, else the deadlock."""
    cfg = ProcessorConfig(num_pes=4, num_threads=threads,
                          mt_mode=MTMode.SINGLE if threads == 1
                          else MTMode.FINE)
    program = assemble(".text\nmain:\n    lw s1, 16(s0)\n"
                       "    add s2, s1, s1\n    tjoin s0\n    halt\n",
                       word_width=cfg.word_width)
    raised = set()
    for limit in range(1, 12):
        assert_parity(program, cfg, max_cycles=limit)
        raised.add(outcome(Processor, program, cfg, max_cycles=limit)[1][0])
    assert raised == {"SimTimeout", "SimulationError"}


def test_fast_rejects_model_fetch():
    """The fast backend refuses no fetch-modelling machine: a fetch model
    is one of the three things that keep a run off the fold, so the
    program, spawning or not, runs whole on the machine's own cycle
    core, fetch unit included, and gives the core's ``Stats`` and
    state."""
    cfg = ProcessorConfig(num_pes=4, model_fetch=True, fetch_width=1)
    spawn_free = ".text\nmain:\n    li s1, 5\nloop:\n    addi s2, s2, 3\n" \
        "    paddi p1, p1, 1\n    addi s1, s1, -1\n    bne s1, s0, loop\n" \
        "    halt\n"
    spawning = ".text\nmain:\n    tspawn s4, w\n    tspawn s4, w\nw:\n" \
        "    li s5, 3\nloop:\n    paddi p1, p1, 1\n    addi s5, s5, -1\n" \
        "    bne s5, s0, loop\n    texit\n"
    for source in (spawn_free, spawning):
        program = assemble(source, word_width=cfg.word_width)
        assert_parity(program, cfg)
        result = FastMachine(cfg).run(program)
        assert result.processor.fetch.total_fetched >= \
            result.stats.instructions


#: A spawning program, a spawn-free one and one holding an op a machine
#: without a divider lacks: each folds, the first and last only up to
#: the ``tspawn`` or the ``sdiv``, where the core takes over.
ROUTES = (".text\nmain:\n    tspawn s1, w\n    tjoin s1\n    halt\n"
          "w:\n    texit\n",
          ".text\nmain:\n    halt\n",
          ".text\nmain:\n    sdiv s1, s1, s1\n    halt\n")


def test_one_pe_array_across_every_route(monkeypatch):
    """A fast machine builds one PE array, at construction, and every
    load keeps it, whichever route the program takes; the last load
    alone picks the route."""
    built = []
    init = PEArray.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PEArray, "__init__", counting_init)
    cfg = ProcessorConfig(num_pes=4, num_threads=2, divider=DividerKind.NONE)
    machine = FastMachine(cfg)
    assert built == [machine.pe]
    for source in ROUTES + ROUTES[:1]:
        program = assemble(source, word_width=cfg.word_width)
        machine.load(program)
        assert built == [machine.pe]
    assert machine.run().stats == Processor(cfg).run(program).stats


#: Four runs of one machine without a divider, each reading its own local
#: memory: a folded run, a spawning run the core takes over at the
#: ``tspawn``, a fold the watchdog stops (limit 40) and a run the core
#: takes over at an op the machine lacks.
REUSED = (
    (".text\nmain:\n    plw p1, 0(p0)\n    paddi p1, p1, 1\n"
     "    psw p1, 1(p0)\n    li s1, 3\nloop:\n    addi s2, s2, 5\n"
     "    addi s1, s1, -1\n    bne s1, s0, loop\n    halt\n", None),
    (".text\nmain:\n    tspawn s1, w\n    plw p2, 1(p0)\n    tjoin s1\n"
     "    halt\nw:\n    plw p1, 0(p0)\n    psw p1, 2(p0)\n    texit\n",
     None),
    (".text\nmain:\n    plw p1, 2(p0)\n    li s1, 50\nloop:\n"
     "    paddi p1, p1, 1\n    addi s1, s1, -1\n    bne s1, s0, loop\n"
     "    halt\n", 40),
    (".text\nmain:\n    plw p1, 0(p0)\n    pdiv p2, p1, p1\n    halt\n",
     None),
)


def test_one_machine_reused_across_routes(monkeypatch):
    """One fast machine, reused, gives a fresh core's outcome on each run
    of ``REUSED``: the fold and the core share one state, so a load that
    resets too little shows here."""
    folds = []
    fold = TimingAnalysis.fold

    def counting_fold(self, *args, **kwargs):
        folds.append(self.program)
        return fold(self, *args, **kwargs)

    monkeypatch.setattr(TimingAnalysis, "fold", counting_fold)
    cfg = ProcessorConfig(num_pes=4, num_threads=2, divider=DividerKind.NONE)
    machine = FastMachine(cfg)
    kinds = []
    for run, (source, limit) in enumerate(REUSED):
        program = assemble(source, word_width=cfg.word_width)
        lmem = {col: [10 * run + col + pe for pe in range(4)]
                for col in range(3)}
        expected = outcome(Processor, program, cfg, lmem, limit)
        folds.clear()
        assert outcome(lambda _: machine, program, cfg, lmem,
                       limit) == expected, run
        assert len(folds) == 1, run
        if expected[0] == "ok":
            # A second run finds the machine finished, as the core does.
            assert machine.run().stats == expected[1][0], run
        kinds.append(expected[0] if expected[0] == "ok"
                     else expected[1][0])
    assert kinds == ["ok", "ok", "SimTimeout", "SimulationError"]


def test_run_after_a_pause_resumes_on_the_core():
    """A ``stop_when`` run goes to the core, so the run after its pause
    resumes there, as on the core, instead of folding from the entry."""
    cfg = ProcessorConfig(num_pes=4)
    program = assemble(".text\nmain:\n    li s1, 30\nloop:\n"
                       "    addi s2, s2, 1\n    addi s1, s1, -1\n"
                       "    bne s1, s0, loop\n    halt\n",
                       word_width=cfg.word_width)
    resumed = []
    for make in (Processor, FastMachine):
        machine = make(cfg)
        machine.load(program)
        assert machine.run(stop_when=lambda _, cycle: cycle >= 20).paused
        resumed.append(machine.run().stats)
    assert resumed[1] == resumed[0]


# One program per cause of a hand-off, the mnemonic of its event (none
# for a pc escape) and the machine fields it needs.  Each loops, starts a
# sequential divide and a reduction, and meets its event while both are
# in flight.  The tspawn follows a jump's bubble at a block start, and
# another divide waits for the divider right after it; the smul and the
# tjoin sit mid-block; the jr jumps to the reduction's sum, 48, past the
# program's end.
_PREFIX = (".text\nmain:\n    li s1, 3\nloop:\n    paddi p1, p1, 1\n"
           "    addi s1, s1, -1\n    bne s1, s0, loop\n"
           "    sdiv s2, s1, s1\n    rsum s5, p1\n")
HAND_OFFS = {
    "tspawn": (_PREFIX + "    j spawn\nspawn:\n    tspawn s4, worker\n"
               "    sdiv s3, s1, s1\n    add s6, s5, s5\n    tjoin s4\n"
               "    halt\nworker:\n    paddi p2, p2, 2\n    texit\n",
               "tspawn", {}),
    "missing-unit": (_PREFIX + "    smul s3, s5, s5\n    halt\n", "smul",
                     dict(multiplier=MultiplierKind.NONE)),
    "self-join": (_PREFIX + "    tjoin s5\n    halt\n", "tjoin", {}),
    "pc-escape": (_PREFIX + "    jr s5\n", None, {}),
}
DISCIPLINES = {
    "single": dict(mt_mode=MTMode.SINGLE, num_threads=1),
    **{name: dict(VARIANTS[name], num_threads=4)
       for name in ("fine-rot", "fine-fixed", "coarse-rot", "smt2")},
}


@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
@pytest.mark.parametrize("cause", sorted(HAND_OFFS))
def test_hand_off_at_each_cause(cause, discipline, monkeypatch):
    """The fold stops before each event only the issue loop handles and
    hands its prefix to the core, which starts at the cycle after the
    prefix's last issue; under cycle limits on both sides of that cycle
    and at the run's own length the fast backend gives a fresh core's
    ``Stats`` and state, or its error, and an unlimited run leaves the
    same counters even where the core raises."""
    source, mnemonic, fields = HAND_OFFS[cause]
    cfg = ProcessorConfig(num_pes=16, **DISCIPLINES[discipline], **fields)
    program = assemble(source, word_width=cfg.word_width)
    core = Processor(cfg, trace=True)
    try:
        length = core.run(program).stats.cycles
    except SimulationError:
        length = None
    prefix = [rec.cycle for rec in itertools.takewhile(
        lambda rec: rec.instr.mnemonic != mnemonic, core.trace)]
    hand_off = 1 + max(prefix, default=0)
    entered = []
    run = Processor.run

    def recording_run(self, *args, **kwargs):
        if isinstance(self, FastMachine):
            entered.append(self._cycle)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Processor, "run", recording_run)
    limits = {hand_off - 2, hand_off - 1, hand_off, hand_off + 1}
    if length is not None:
        limits |= {length - 1, length}
    for limit in sorted(limit for limit in limits if limit >= 1) + [None]:
        entered.clear()
        assert_parity(program, cfg, max_cycles=limit)
        fits = limit is None or limit >= hand_off - 1
        assert entered == ([hand_off] if fits else []), limit
    counters = []
    for machine in (Processor(cfg), FastMachine(cfg)):
        with contextlib.suppress(SimulationError):
            machine.run(program)
        counters.append((machine.stats, machine.scheduler._pointer, [
            (ctx.min_issue, ctx.last_issue, ctx.instructions_issued)
            for ctx in machine.threads]))
    assert counters[1] == counters[0]


def _fresh(source, cfg):
    """A program no memo has seen: assembled anew, not interned."""
    return Assembler(cfg.word_width).assemble(source)


def _count_analyses(monkeypatch):
    built = []
    real = fastpath.TimingAnalysis

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(fastpath, "TimingAnalysis", counting)
    return built


MEMO_LOOP = (".text\nmain:\n    li s1, 20\nloop:\n    paddi p1, p1, 1\n"
             "    rsum s2, p1\n    addi s1, s1, -1\n    bne s1, s0, loop\n"
             "    halt\n")


def test_fold_memo_serves_every_machine_of_a_pair(monkeypatch):
    """A second fresh machine folding the same (program, config values)
    builds no analysis and gives the same ``Stats``; a config one timing
    field apart builds its own."""
    built = _count_analyses(monkeypatch)
    cfg = ProcessorConfig(num_pes=16, num_threads=2)
    program = _fresh(MEMO_LOOP, cfg)
    miss = FastMachine(cfg).run(program).stats
    assert len(built) == 1
    same = ProcessorConfig(num_pes=16, num_threads=2)
    assert FastMachine(same).run(program).stats == miss
    assert len(built) == 1
    assert miss == Processor(cfg).run(program).stats
    wide = dataclasses.replace(cfg, broadcast_arity=4)
    assert wide.broadcast_depth != cfg.broadcast_depth
    assert FastMachine(wide).run(program).stats == \
        Processor(wide).run(program).stats
    assert len(built) == 2


def test_fold_memo_releases_evicted_programs():
    """The memo is bounded: past its cap the least recently folded
    program is dropped, and nothing else keeps it alive."""
    cfg = ProcessorConfig(num_pes=4)
    first = _fresh(".text\nmain:\n    halt\n", cfg)
    FastMachine(cfg).run(first)
    held = weakref.ref(first)
    del first
    gc.collect()
    assert held() is not None
    for i in range(fastpath.FOLD_MEMO_ENTRIES):
        FastMachine(cfg).run(_fresh(
            f".text\nmain:\n    addi s1, s0, {i}\n    halt\n", cfg))
    gc.collect()
    assert held() is None


@pytest.mark.parametrize("cap", [None, 2], ids=["kept", "evicting"])
def test_fold_memo_under_threads(cap, monkeypatch):
    """Four threads fold three fresh programs at once, switching every
    microsecond, under the memo's own cap or one of 2 that evicts all
    the time: no thread fails, every run gives the core's ``Stats``, the
    memo stays bounded and, with room for all three, each program keeps
    one set of fold artifacts."""
    if cap is not None:
        monkeypatch.setattr(fastpath, "FOLD_MEMO_ENTRIES", cap)
    cfg = ProcessorConfig(num_pes=16, num_threads=2)
    programs = [_fresh(MEMO_LOOP.replace("20", str(n)), cfg)
                for n in (5, 6, 7)]
    want = [Processor(cfg).run(program).stats for program in programs]
    folds, runs, errors = [], [], []
    start = threading.Barrier(4)

    def work(shift):
        try:
            start.wait(timeout=60)
            for k in range(1200):
                # Each program twice in a row: a hit, unless another
                # thread evicted it in between.
                i = (k // 2 + shift) % 3
                folds.append((i, fastpath._fold_for(programs[i], cfg)))
                if k % 20 == 0:
                    runs.append(FastMachine(cfg).run(programs[i]).stats
                                == want[i])
        except Exception as exc:     # reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,))
                   for shift in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(runs) == 4 * 60 and all(runs)
    assert len(fastpath._folds) <= fastpath.FOLD_MEMO_ENTRIES
    if cap is None:
        assert len({(i, id(fold)) for i, fold in folds}) == 3


def test_run_fast_convenience():
    src = ".text\nmain:\n    addi s1, s0, 7\n    halt\n"
    result = run_fast(src)
    assert result.scalar(1) == 7
    assert result.cycles == Processor(ProcessorConfig()).run(
        assemble(src, word_width=8)).stats.cycles


# ---------------------------------------------------------------------------
# static soundness: the path-free bound and the lint checks
# ---------------------------------------------------------------------------

@examples(50)
@given(program=programs(spawn=False, control="acyclic"), cfg=machines())
def test_static_bound_dominates_exact_count(program, cfg):
    check_static_bound(program, cfg)


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
    """A fast-backend RunResult satisfies the snapshot protocol end to
    end."""
    from repro.serve.snapshot import ResultSnapshot

    kern = ALL_KERNEL_BUILDERS["count_matches"](8)
    cfg = ProcessorConfig(num_pes=8, num_threads=2,
                          word_width=kern.word_width)
    program = assemble(kern.source, word_width=cfg.word_width)
    lmem = {int(c): list(v) for c, v in kern.lmem.items()}

    def capture(make):
        machine = make(cfg)
        machine.load(program)
        machine.pe.load_lmem(sorted(lmem.items()))
        return ResultSnapshot.from_result(machine.run())

    snap_c = capture(Processor)
    snap_f = capture(FastMachine)
    assert snap_f.schema == 5
    assert snap_c == snap_f
