"""H1 — Host-side simulator throughput (not a paper experiment).

Measures the Python simulator's own speed — simulated cycles and issued
instructions per host second — at several machine sizes, using real
pytest-benchmark timing rounds.  This is the practicality check for the
reproduction substrate: the vectorized PE array means simulation cost
grows with *issued instructions*, not with PEs, so kilocycle runs on
4096-PE machines stay interactive.
"""

import time

import pytest

from repro.bench import Experiment
from repro.core import MTMode, ProcessorConfig, Processor
from repro.asm import assemble
from repro.assoc.fastpath import run_fast
from repro.programs import reduction_storm

SOURCE_CACHE: dict[int, object] = {}

# Scalar-heavy workload: control flow and address arithmetic, the mix
# that dominates real program skeletons and that the fast backend folds
# without ever touching the PE array.  ~90k issued instructions.
SCALAR_HEAVY = """
.text
main:
    li   s1, 150
outer:
    li   s2, 100
inner:
    addi s3, s3, 1
    add  s4, s4, s3
    xor  s5, s5, s4
    slt  s6, s3, s2
    addi s2, s2, -1
    bne  s2, s0, inner
    addi s1, s1, -1
    bne  s1, s0, outer
    halt
"""

# Mixed workload: every iteration pays real numpy datapath work
# (parallel multiply/add over the PE array plus a tree reduction), so
# the fast path's win here is dispatch only.
MIXED = """
.text
main:
    li    s1, 400
    li    s2, 3
loop:
    pmuls p1, p1, s2
    paddi p1, p1, 7
    rsum  s4, p1
    add   s5, s5, s4
    addi  s1, s1, -1
    bne   s1, s0, loop
    halt
"""


def make_ready(pes):
    kernel = reduction_storm(pes, total_iters=128, threads=8)
    cfg = ProcessorConfig(num_pes=pes, num_threads=8, word_width=16)
    program = assemble(kernel.source, word_width=16)
    return cfg, program


@pytest.mark.parametrize("pes", [16, 256, 4096])
def test_simulation_throughput(benchmark, pes):
    cfg, program = make_ready(pes)

    def run_once():
        proc = Processor(cfg)
        return proc.run(program)

    result = benchmark(run_once)

    exp = Experiment("H1", f"host throughput at p={pes}")
    mean_s = benchmark.stats.stats.mean
    t = exp.new_table(("metric", "value"))
    t.add_row("simulated cycles / run", result.stats.cycles)
    t.add_row("instructions / run", result.stats.instructions)
    t.add_row("host seconds / run", round(mean_s, 4))
    t.add_row("sim cycles per host second",
              int(result.stats.cycles / mean_s))
    t.add_row("instructions per host second",
              int(result.stats.instructions / mean_s))
    exp.report()

    # Practicality bar: at least 10k simulated cycles per host second
    # even on the largest machine (typically far higher).
    assert result.stats.cycles / mean_s > 10_000


def _time_best(fn, repeats=2):
    """Best-of-N wall time and the (deterministic) result of one run."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_backend_throughput():
    """BENCH_sim_throughput — fast backend vs the cycle-accurate core.

    One row per (workload, backend).  Every fast row must be *cycle
    exact* — the full Stats dataclass, not just the headline count,
    equals the cycle backend's — and the scalar-heavy workload (the
    fast path's design target) must clear a 10x throughput bar.  The
    mixed row is reported for honesty: its cost is genuine numpy
    datapath work, so the speedup is real but smaller.  The
    multithreaded row folds only up to its first ``tspawn`` and hands
    the rest of the run to the cycle core, so its "speedup" stays about
    1x and mostly measures noise.  Each fast row's best of 2 is a run
    that reuses the memoized timing analysis: only the first run of a
    (program, machine) pair in the process builds it.  The scalar-heavy
    inner loop is a one-block self-loop, which the fast backend runs as
    one generated function; the cycle core issues it through its
    compiled issue steps.
    """
    workloads = []
    for name, source, pes, threads in (
            ("scalar_heavy", SCALAR_HEAVY, 16, 1),
            ("mixed_parallel", MIXED, 256, 1),
    ):
        cfg = ProcessorConfig(num_pes=pes, num_threads=1,
                              mt_mode=MTMode.SINGLE, word_width=16)
        workloads.append((name, assemble(source, word_width=16), cfg))
    storm = reduction_storm(64, total_iters=64, threads=8)
    storm_cfg = ProcessorConfig(num_pes=64, num_threads=8, word_width=16)
    workloads.append(("reduction_storm_mt",
                      assemble(storm.source, word_width=16), storm_cfg))

    exp = Experiment("BENCH_sim_throughput",
                     "execution backend throughput: cycle core vs "
                     "functional+static-timing fast path")
    t = exp.new_table(("workload", "backend", "cycles", "instructions",
                       "host_s", "cycles_per_s", "exact", "speedup"))
    speedups = {}
    for name, program, cfg in workloads:
        cyc_s, cyc = _time_best(lambda: Processor(cfg).run(program))
        fast_s, fast = _time_best(lambda: run_fast(program, config=cfg))
        exact = fast.stats == cyc.stats
        speedup = cyc_s / fast_s
        speedups[name] = (exact, speedup)
        t.add_row(name, "cycle", cyc.stats.cycles, cyc.stats.instructions,
                  round(cyc_s, 4), int(cyc.stats.cycles / cyc_s), "yes", 1.0)
        t.add_row(name, "fast", fast.stats.cycles, fast.stats.instructions,
                  round(fast_s, 4), int(fast.stats.cycles / fast_s),
                  "yes" if exact else "NO", round(speedup, 1))
    exp.finding(
        "fast backend is cycle-exact on every workload; scalar-heavy "
        f"speedup {speedups['scalar_heavy'][1]:.1f}x, mixed "
        f"{speedups['mixed_parallel'][1]:.1f}x, multithreaded (the cycle "
        f"core after the first tspawn) "
        f"{speedups['reduction_storm_mt'][1]:.1f}x")
    exp.report()

    # Exactness is the hard guarantee: every row, full Stats equality.
    assert all(exact for exact, _ in speedups.values()), speedups
    # Throughput bar on the design-target workload.  The measured value
    # was 17.4-24.1x on a 2-vCPU VM (2026-10, six runs with compiled
    # issue steps in the core and generated self-loops in the fast path;
    # 13.7-29.5x for the code before them, alongside).
    assert speedups["scalar_heavy"][1] >= 10, speedups


def test_profiler_overhead(benchmark):
    """BENCH_obs — the cycle profiler's cost, and the detached run's
    freedom from it.

    The profiler hooks into the core through ``is not None`` guards, so
    a detached machine must be *bit-identical* to one that never heard
    of profiling (asserted on pickled snapshots, the strong form), and
    an attached run should cost only a modest constant factor.
    """
    import pickle
    import time

    from repro.obs import CycleProfiler
    from repro.serve.snapshot import ResultSnapshot

    cfg, program = make_ready(256)

    def run_once(profiler=None):
        return Processor(cfg, profiler=profiler).run(program)

    detached = benchmark(run_once)
    attached = run_once(CycleProfiler())
    assert pickle.dumps(ResultSnapshot.from_result(detached)) == \
        pickle.dumps(ResultSnapshot.from_result(attached))

    started = time.perf_counter()
    run_once(CycleProfiler())
    attached_s = time.perf_counter() - started
    detached_s = benchmark.stats.stats.mean

    exp = Experiment("BENCH_obs", "cycle-profiler overhead at p=256")
    t = exp.new_table(("metric", "value"))
    t.add_row("detached host seconds / run", round(detached_s, 4))
    t.add_row("attached host seconds / run", round(attached_s, 4))
    t.add_row("attached / detached", round(attached_s / detached_s, 2))
    t.add_row("snapshots bit-identical", "yes")
    exp.report()

    # Lenient bound — shared CI machines are noisy; the real guarantee
    # is the bit-identity assertion above.
    assert attached_s / detached_s < 10
