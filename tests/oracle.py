"""One oracle for every promise the backends and the analyses make.

The property tests draw programs from :func:`tests.strategies.programs`
and machines from :func:`tests.strategies.machines`, and assert through
one check per promise:

* :func:`check_backends` — the cycle core and the fast backend give the
  same ``Stats`` and final state, or raise the same error;
  :func:`check_watchdog` also at the cycle limit a run just fits;
* :func:`check_functional` — on race-free programs the functional
  machine reaches the cycle core's state in every thread;
* :func:`check_disciplines` — the multithreading disciplines agree per
  thread and retire the same instruction count;
* :func:`check_issue_accounting` — ``instructions`` is the per-thread
  issue total;
* :func:`check_static_bound` — ``static_cycle_bound`` bounds the cycles
  of acyclic programs and equals them on straight-line ones;
* :func:`check_schedule` — the scheduled program is proved equivalent
  and reaches the same state;
* :func:`check_profile` — the profiler's buckets are conserved and a
  profiled run's ``Stats`` are a plain run's;
* :func:`check_sanitizer` and :func:`check_schedule_independent` — every
  dynamic race is covered statically, and a statically clean program is
  schedule-independent;
* :func:`check_absint` — every concrete state lies in the abstract one;
* :func:`check_kept_machine` — a kept machine is a fresh machine: a
  program run on a machine that just ran others (which may have stored
  to local memory, spawned threads, hit the watchdog or raised) ends in
  the state it reaches on a fresh machine.

To add a promise, write its ``check_*`` here and a short ``@given`` test
over the generator and the axis, decorated with :data:`PROPERTY` or
:func:`examples`.
"""

import dataclasses

from hypothesis import HealthCheck, settings

from repro.analysis import lint_program
from repro.analysis.absint import analyze_intervals, flag_allows
from repro.analysis.timing import static_cycle_bound
from repro.assoc import FunctionalMachine
from repro.assoc.fastpath import FastMachine
from repro.core import Processor, RaceSanitizer
from repro.core.execute import ExecutionError
from repro.core.memory import ScalarMemoryFault
from repro.faults import FaultPlane
from repro.isa import registers
from repro.obs import ALL_KINDS, CycleProfiler
from repro.obs.profiler import K_ISSUE
from repro.opt.scheduler import schedule_program_verified
from repro.pe.pe_array import MemoryFault
from repro.serve.snapshot import ResultSnapshot
from tests.golden import KERNEL_VARIANTS, VARIANTS


def examples(n: int) -> settings:
    """Settings of an oracle or fuzz property: ``n`` examples under the
    ``ci`` profile, scaled with the active one (10x under ``deep``), and
    no deadline."""
    scale = settings.default.max_examples / settings.get_profile(
        "ci").max_examples
    return settings(deadline=None, max_examples=max(1, round(n * scale)),
                    suppress_health_check=[HealthCheck.too_slow])


#: The settings of a property with no count of its own.
PROPERTY = examples(25)

#: The faults a generated program may raise, the same on every backend.
FAULTS = (MemoryFault, ScalarMemoryFault, ExecutionError)
CONCURRENCY_CHECKS = ("cross-thread-race", "lost-delivery",
                      "thread-lifecycle")


def listing(program) -> str:
    return "\n".join(f"{pc:4d}  {ins}"
                     for pc, ins in enumerate(program.instructions))


def spawns(program) -> bool:
    return any(ins.mnemonic == "tspawn" for ins in program.instructions)


def fingerprint(result, threads=None) -> dict:
    """A run's final architectural state: the ArchState planes of the
    first ``threads`` contexts (all by default), the local memory and
    the thread states."""
    machine = result.processor
    n = len(result.scalars) if threads is None else threads
    return {
        "threads": [(machine.threads[t].state.name,
                     [int(v) for v in result.scalars[t]]) for t in range(n)],
        "pe_regs": result.pe_regs[:n].tolist(),
        "pe_flags": result.pe_flags[:n].tolist(),
        "memory": result.mem_words.tolist(),
        "lmem": machine.pe.frozen("lmem").tolist(),
    }


def outcome(make_machine, program, cfg, lmem=None, max_cycles=None,
            threads=None):
    """Run to ``("ok", (stats, fingerprint))`` or ``("raise", (type,
    message))``: errors become comparable data."""
    machine = make_machine(cfg)
    machine.load(program)
    machine.pe.load_lmem(sorted((lmem or {}).items()))
    try:
        result = (machine.run() if max_cycles is None
                  else machine.run(max_cycles=max_cycles))
    except (RuntimeError, ValueError) as exc:
        return ("raise", (type(exc).__name__, str(exc)))
    return ("ok", (result.stats, fingerprint(result, threads)))


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
    make_a, make_b = machines
    kind_a, payload_a = outcome(make_a, program, cfg, lmem, max_cycles)
    kind_b, payload_b = outcome(make_b, program, cfg, lmem, max_cycles)
    assert kind_a == kind_b, (payload_a, payload_b, listing(program))
    if kind_a == "raise":
        assert payload_b == payload_a, listing(program)
    else:
        assert payload_b[0] == payload_a[0], listing(program)
        assert payload_b[1] == payload_a[1], listing(program)


def check_backends(program, cfg, max_cycles=None):
    """cycle == fast, on ``Stats`` and state, or the same exception.

    The fast backend folds up to the first issuing ``tspawn`` and hands
    the rest to its core, so a spawning program also compares the core
    with the recomputing core, which checks the core's cached ready
    times on the multithreaded rest.  On a fetch-modelling machine the
    core recomputes readiness every round anyway, so there the fast
    backend's routing to its core is what is compared.
    """
    assert_parity(program, cfg, max_cycles=max_cycles)
    if spawns(program):
        assert_parity(program, cfg, max_cycles=max_cycles,
                      machines=(recomputing_core, Processor))


def check_watchdog(program, cfg):
    """At a run's own cycle count C the backends agree on both sides of
    the watchdog: both finish under ``max_cycles=C`` and both time out,
    with one message, under ``C - 1``."""
    kind, payload = outcome(Processor, program, cfg)
    if kind == "ok":
        for limit in {payload[0].cycles, max(1, payload[0].cycles - 1)}:
            check_backends(program, cfg, max_cycles=limit)


def check_functional(program, cfg, threads=None):
    """The functional machine reaches the cycle core's final state, or
    raises its fault (race-free programs), an op its machine lacks
    included; a deadlock raises ``FunctionalDeadlock`` with the core's
    message."""
    kind_c, payload_c = outcome(Processor, program, cfg, threads=threads)
    kind_f, payload_f = outcome(FunctionalMachine, program, cfg,
                                threads=threads)
    assert kind_f == kind_c, (payload_c, payload_f, listing(program))
    if kind_c == "ok":
        assert payload_f[1] == payload_c[1], listing(program)
    else:
        if payload_f[0] == "FunctionalDeadlock":
            payload_f = ("SimulationError", payload_f[1])
        assert payload_f == payload_c, listing(program)


def check_disciplines(program, cfg):
    """Every discipline of ``KERNEL_VARIANTS`` and the functional machine
    reach the same state in every thread, and the disciplines retire the
    same instruction count (race-free programs)."""
    runs = [outcome(Processor, program,
                    dataclasses.replace(cfg, **VARIANTS[variant]))
            for variant in KERNEL_VARIANTS]
    assert all(kind == "ok" for kind, _ in runs), (runs, listing(program))
    assert len({stats.instructions for _, (stats, _) in runs}) == 1
    for _, (_, state) in runs[1:]:
        assert state == runs[0][1][1], listing(program)
    check_functional(program, cfg)


def check_issue_accounting(program, cfg):
    """``instructions`` is the per-thread issue total, and every
    ``tspawn`` spawned a thread."""
    stats = Processor(cfg).run(program).stats
    assert stats.instructions == sum(stats.per_thread_issued.values())
    assert stats.threads_spawned == sum(
        ins.mnemonic == "tspawn" for ins in program.instructions)


def check_static_bound(program, cfg, exact=False):
    """``static_cycle_bound`` is at least the cycles of an unlimited run
    of an acyclic program, and equal to them on straight-line code (a
    run that faults has no cycle count)."""
    bound = static_cycle_bound(program, cfg)
    assert bound is not None, listing(program)
    try:
        cycles = Processor(cfg).run(program).stats.cycles
    except FAULTS:
        return
    if exact:
        assert bound == cycles, listing(program)
    else:
        assert cycles <= bound, listing(program)


def check_schedule(program, cfg):
    """The list scheduler's output is proved equivalent by
    :mod:`repro.analysis.equiv` and reaches the same final state (or
    also faults) on a spawn-free program."""
    scheduled, report = schedule_program_verified(program, cfg)
    assert report.equivalent, report.format() + "\n" + listing(program)
    kind_a, payload_a = outcome(Processor, program, cfg)
    kind_b, payload_b = outcome(Processor, scheduled, cfg)
    assert kind_a == kind_b, (payload_a, payload_b, listing(program))
    if kind_a == "ok":
        assert payload_b[1] == payload_a[1], listing(program)


def assert_conserved(result, profiler, cfg, name=""):
    """The profiler's timeline tiles every context's ``[1, cycles + 1)``
    span, its buckets sum to ``threads x cycles`` and its counters
    mirror ``Stats``."""
    stats = result.stats
    totals = profiler.bucket_totals()
    expected = cfg.num_threads * stats.cycles
    assert sum(totals.values()) == expected, \
        f"buckets {dict(totals)} != {expected} thread-cycles\n{name}"
    assert set(totals) <= set(ALL_KINDS)
    for tid, spans in profiler.intervals.items():
        cursor = 1
        for iv in spans:
            assert iv.start == cursor and iv.end > iv.start, \
                f"t{tid}: gap/overlap at {iv}\n{name}"
            cursor = iv.end
        assert cursor == stats.cycles + 1, \
            f"t{tid}: timeline ends at {cursor}\n{name}"
    assert profiler.wait_by_cause() == dict(stats.wait_cycles), name
    assert sum(profiler.issue_counts.values()) == stats.instructions, name
    assert totals[K_ISSUE] == stats.instructions, name


def check_profile(program, cfg):
    """Profiler conservation, and a profiled run's ``Stats`` equal a
    plain run's."""
    profiler = CycleProfiler()
    result = Processor(cfg, profiler=profiler).run(program)
    assert_conserved(result, profiler, cfg, listing(program))
    assert result.stats == Processor(cfg).run(program).stats


def covered_statically(report, diagnostics):
    """Is one sanitizer report matched by a static finding?"""
    if report.kind == "memory-race":
        return any(d.check == "cross-thread-race"
                   and d.data["addr"] == report.addr for d in diagnostics)
    return any(d.check == "lost-delivery"
               and d.data.get("reg") == report.reg for d in diagnostics)


def run_sanitized(program, cfg, max_cycles=20_000):
    sanitizer = RaceSanitizer()
    result = Processor(cfg, sanitizer=sanitizer).run(program,
                                                     max_cycles=max_cycles)
    return result, sanitizer


def check_sanitizer(program, cfg):
    """Every report of the race sanitizer is covered by a static
    concurrency finding."""
    _, sanitizer = run_sanitized(program, cfg)
    diagnostics = lint_program(program, cfg).diagnostics
    for report in sanitizer.reports:
        assert covered_statically(report, diagnostics), \
            f"{report.format()}\nnot covered in:\n{listing(program)}"


def check_schedule_independent(program, grid):
    """No concurrency finding (info included: an orphan thread is a
    pattern whose cleanliness the analyzer cannot prove) -> the same
    scalar-memory image on every machine of ``grid``, and a silent
    sanitizer.  Register files may differ: the value a plain read sees
    of an in-flight ``tput`` is timing-dependent by design."""
    if any(d.check in CONCURRENCY_CHECKS
           for d in lint_program(program, grid[0]).diagnostics):
        return
    images = []
    for cfg in grid:
        result, sanitizer = run_sanitized(program, cfg)
        assert sanitizer.clean, (f"{sanitizer.reports[0].format()}\nunder "
                                 f"{cfg.mt_mode}/{cfg.scheduler}")
        images.append(result.mem_words.tolist())
    assert all(image == images[0] for image in images), listing(program)


def check_absint(program, cfg):
    """At every pc a straight-line run executes, the concrete machine
    state is a member of the abstract state the fixpoint computed:
    intervals hold the registers, flag tri-states admit the flags, and
    the lmem address interval covers every lane's address."""
    res = analyze_intervals(program, cfg)
    proc = Processor(cfg)
    proc.load(program)
    thread = proc.threads[0]
    pc = program.entry
    for _ in range(len(program.instructions) + 1):
        state = res.before[pc]
        assert state is not None, \
            f"pc {pc} executed but statically unreachable"
        for i in range(registers.NUM_SCALAR_REGS):
            v = 0 if i == registers.ZERO_REG else thread.sregs[i]
            assert state.sregs[i].contains(v), \
                f"pc {pc}: s{i}={v} outside {state.sregs[i]}"
        for i in range(registers.NUM_PARALLEL_REGS):
            for v in proc.pe.read_reg(0, i):
                assert state.pregs[i].contains(int(v)), \
                    f"pc {pc}: p{i} lane={int(v)} outside {state.pregs[i]}"
        for j in range(registers.NUM_FLAG_REGS):
            assert flag_allows(state.flags[j], proc.pe.read_flag(0, j)), \
                f"pc {pc}: f{j} vector outside abstract state " \
                f"{state.flags[j]}"
        instr = program.instructions[pc]
        if instr.spec.has_mem_operand \
                and instr.spec.exec_class.value == "parallel":
            iv = res.lmem_address_interval(pc)
            assert iv is not None
            for base in proc.pe.read_reg(0, instr.rs):
                assert iv.contains(int(base) + instr.imm), \
                    f"pc {pc}: lmem addr {int(base) + instr.imm} outside {iv}"
        if instr.mnemonic == "halt":
            return
        try:
            next_pc = proc.ops[pc](thread)
        except FAULTS:
            # The concrete machine faulted; every state checked up to
            # here was covered, which is all soundness promises.
            return
        pc = pc + 1 if next_pc is None else next_pc
    raise AssertionError("straight-line program did not halt")


def _kept_outcome(machine, program, lmem, max_cycles):
    """One run on ``machine`` as the pool runs a job: load, local memory,
    run, snapshot; errors become comparable data."""
    machine.load(program)
    machine.pe.load_lmem(sorted((lmem or {}).items()))
    try:
        result = machine.run(max_cycles=max_cycles)
    except (RuntimeError, ValueError) as exc:
        return ("raise", (type(exc).__name__, str(exc)))
    return ("ok", (result.stats, fingerprint(result),
                   ResultSnapshot.from_result(result)))


def check_kept_machine(make_machine, before, program, cfg, lmem=None,
                       max_cycles=None):
    """A kept machine is a fresh machine.  ``program`` run on one machine
    after each ``(program, lmem, max_cycles)`` run of ``before`` (twice,
    so the second run of each reuses the ops and row views the first
    compiled) gives the ``Stats``, final state (every context's state and
    registers, the PE planes, scalar and local memory) and snapshot a
    fresh machine gives, or raises the same error."""
    kept = make_machine(cfg)
    for run in [*before, *before]:
        _kept_outcome(kept, *run)
    got = _kept_outcome(kept, program, lmem, max_cycles)
    want = _kept_outcome(make_machine(cfg), program, lmem, max_cycles)
    assert got[0] == want[0], (got[1], want[1], listing(program))
    if got[0] == "raise":
        assert got[1] == want[1], listing(program)
    else:
        for mine, fresh in zip(got[1], want[1]):
            assert mine == fresh, listing(program)
