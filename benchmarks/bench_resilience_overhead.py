"""BENCH_resilience — the resilience hooks cost ~nothing when idle.

Host-level companion to BENCH_serve: the deadline guard, seeded
backoff, quarantine, circuit breaker, and chaos plane all hide behind
``is not None`` / empty-plan checks, so a batch run with every knob
armed but no fault firing must produce bit-identical snapshots at
essentially the baseline cost.  Two regimes over the same kernel jobs:

* **baseline**  plain serial batch, hooks absent (default knobs),
* **armed**     deadline + backoff + quarantine + empty chaos plane
                attached, none of them ever firing.

Both timed batches run warm, after one untimed batch has built the
kernels and assembled their programs.  Asserts identity of results and
a generous wall-clock bound.  The idle
hooks are per-job constant work, but an armed deadline also costs one
worker start per batch: jobs with a deadline always run in worker
processes, one under ``jobs=1``, because SIGALRM reaches only a main
thread (12–19 ms per batch on a 2-vCPU VM).  Archived as
``BENCH_resilience.json`` when ``REPRO_RESULTS_DIR`` is set.
"""

from repro.bench import Experiment
from repro.core import ProcessorConfig
from repro.serve import (BackoffPolicy, BatchRunner, ChaosPlane, Job,
                         Quarantine, ResultCache)

KERNELS = ("count_matches", "histogram", "vector_mac")


def make_jobs() -> list:
    jobs = []
    for kernel in KERNELS:
        for pes in (16, 32):
            jobs.append(Job(name=f"{kernel}-p{pes}", kernel=kernel,
                            config=ProcessorConfig(num_pes=pes,
                                                   num_threads=8)))
    return jobs


def test_resilience_overhead(once):
    jobs = make_jobs()

    def run_baseline():
        return BatchRunner(cache=ResultCache.disabled()).run(jobs)

    # One untimed batch first: it pays for building the kernels and the
    # first assembly of each program, which would otherwise land on
    # whichever timed batch runs first.
    run_baseline()
    baseline = once(run_baseline)
    armed = BatchRunner(cache=ResultCache.disabled(),
                        deadline_s=60.0,
                        backoff=BackoffPolicy(seed=1),
                        quarantine=Quarantine(),
                        chaos=ChaosPlane([])).run(jobs)

    assert baseline.ok and armed.ok
    # Arming the hooks is not a semantics change: same snapshots, in
    # order, and nothing tripped.
    assert [r.snapshot for r in armed.results] == \
        [r.snapshot for r in baseline.results]
    assert all(r.status == "ok" for r in armed.results)
    assert armed.resilience["quarantine"]["quarantined"] == {}
    # The acceptance bar: idle hooks stay within noise of the baseline.
    # The bound is deliberately generous — kernels dominate; the hooks
    # add constant per-job work (one setitimer pair, empty dict checks)
    # and the deadline one worker start per batch.
    assert armed.elapsed_s <= baseline.elapsed_s * 2.0 + 0.1, \
        (armed.elapsed_s, baseline.elapsed_s)

    exp = Experiment("BENCH_resilience",
                     f"idle resilience-hook overhead ({len(jobs)} jobs)")
    t = exp.new_table(("regime", "elapsed s", "jobs/s"))
    for label, report in (("baseline (hooks absent)", baseline),
                          ("armed (hooks idle)", armed)):
        t.add_row(label, round(report.elapsed_s, 4),
                  round(len(report.results) / max(report.elapsed_s, 1e-9),
                        1))
    overhead = (armed.elapsed_s / max(baseline.elapsed_s, 1e-9) - 1) * 100
    exp.finding(f"armed-but-idle resilience hooks cost "
                f"{overhead:+.1f}% wall clock over the baseline batch "
                f"(snapshots bit-identical)")
    exp.report()
