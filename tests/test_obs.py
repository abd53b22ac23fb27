"""Observability layer lockdown: conservation, bit-identity, trace schema.

Four independent nets over ``repro.obs``:

* **conservation** — on generated multithreaded programs across every
  (mt_mode, scheduler) combination, the profiler's timeline tiles every
  context's ``[1, cycles+1)`` span exactly (buckets sum to
  ``threads x cycles``), its mirror counters equal ``Stats`` verbatim,
  and per-opcode issue counts sum to ``stats.instructions``;
* **bit-identity** — a run with the profiler attached produces a
  byte-identical pickled :class:`ResultSnapshot` to a detached run
  (the hooks are observation-only by construction);
* **trace schema** — the Chrome-trace exporter's conventions (fixed key
  order, metadata first, globally monotonic timestamps, valid B/E
  nesting per track) plus a golden file freezing the exact bytes;
* **cross-checks** — every stage value-change in the VCD export appears
  in the trace's stage tracks with identical cycle bounds, and the
  metrics registry mirrors the serving stack's plain counters exactly.
"""

import json
import pathlib
import pickle

import pytest
from hypothesis import given

from repro.asm import assemble
from repro.core import stats as stx
from repro.core.config import ProcessorConfig
from repro.core.processor import run_program
from repro.core.vcd import build_vcd
from repro.obs import (
    PROFILE_SCHEMA,
    TRACE_SCHEMA,
    CycleProfiler,
    MetricError,
    MetricsRegistry,
    build_trace,
    render_hazard_timeline,
    render_report,
    render_trace,
)
from repro.obs.chrome_trace import PID_STAGES, PID_THREADS
from repro.obs.profiler import K_ISSUE
from repro.serve.batch import BatchRunner
from repro.serve.cache import ResultCache
from repro.serve.dispatch import Dispatcher
from repro.serve.jobs import Job
from repro.serve.snapshot import ResultSnapshot
from tests.oracle import PROPERTY, check_profile
from tests.strategies import MODE_GRID, MODE_IDS, programs

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples" / "asm")
    .glob("*.s"))


def run_profiled(source, cfg):
    profiler = CycleProfiler()
    result = run_program(source, cfg, trace=True, profiler=profiler)
    return result, profiler


# -- generated-program conservation (the tentpole invariant) ------------------

class TestConservation:
    @pytest.mark.parametrize("cfg", MODE_GRID, ids=MODE_IDS)
    @PROPERTY
    @given(program=programs(wild=False, shared=True))
    def test_generated_programs_conserve(self, cfg, program):
        check_profile(program, cfg)

    @pytest.mark.parametrize("cfg", MODE_GRID, ids=MODE_IDS)
    @pytest.mark.parametrize("path", EXAMPLES,
                             ids=[p.stem for p in EXAMPLES])
    def test_example_programs_conserve(self, path, cfg):
        check_profile(assemble(path.read_text(), word_width=cfg.word_width),
                      cfg)

    def test_examples_present(self):
        assert len(EXAMPLES) >= 5

    def test_to_json_shape(self):
        result, profiler = run_profiled(EXAMPLES[0].read_text(),
                                        MODE_GRID[0])
        payload = profiler.to_json()
        assert payload["schema"] == PROFILE_SCHEMA
        assert payload["cycles"] == result.stats.cycles
        assert sum(payload["buckets"].values()) == \
            payload["threads"] * payload["cycles"]
        assert sum(payload["issue_by_opcode"].values()) == \
            result.stats.instructions
        # JSON-safe and deterministic.
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(json.loads(json.dumps(payload)), sort_keys=True)

    def test_report_renders(self):
        _, profiler = run_profiled(EXAMPLES[0].read_text(), MODE_GRID[0])
        text = render_report(profiler)
        assert "cycle attribution" in text
        assert "issue by opcode" in text
        assert "hazard timeline" in text
        strip = render_hazard_timeline(profiler, width=20)
        assert strip.count("|") == 2 * profiler.num_threads

    def test_hazard_timeline_marks_reduction_stall(self):
        source = (".text\nmain:\n    plw p1, 0(p0)\n"
                  "    rsum s1, p1\n    add s2, s1, s1\n    halt\n")
        result, profiler = run_profiled(source, MODE_GRID[0])
        assert result.stats.wait_cycles[stx.STALL_REDUCTION] > 0
        assert "R" in render_hazard_timeline(profiler)


class TestBitIdentity:
    """Attaching the profiler must not perturb the simulation."""

    @pytest.mark.parametrize("cfg", MODE_GRID, ids=MODE_IDS)
    def test_snapshot_bytes_identical(self, cfg):
        source = EXAMPLES[0].read_text()
        attached = run_program(source, cfg, profiler=CycleProfiler())
        detached = run_program(source, cfg)
        blob_a = pickle.dumps(ResultSnapshot.from_result(attached))
        blob_b = pickle.dumps(ResultSnapshot.from_result(detached))
        assert blob_a == blob_b

    def test_profile_is_deterministic(self):
        cfg = MODE_GRID[0]
        source = EXAMPLES[0].read_text()
        _, p1 = run_profiled(source, cfg)
        _, p2 = run_profiled(source, cfg)
        assert p1.to_json() == p2.to_json()


# -- Chrome-trace exporter ----------------------------------------------------

GOLDEN_TRACE = pathlib.Path(__file__).resolve().parent / "data" / \
    "chrome_trace_golden.json"

GOLDEN_SOURCE = """\
.text
main:
    tspawn s1, worker
    li    s2, 7
    tput  s1, s2, 4
    tjoin s1
    halt

worker:
    plw   p1, 0(p0)
    padds p2, p1, s4
    rsum  s5, p2
    texit
"""

GOLDEN_CFG = ProcessorConfig(num_pes=4, num_threads=2, word_width=16)

EVENT_KEYS = {
    "M": ["name", "ph", "ts", "pid", "tid", "args"],
    "B": ["name", "cat", "ph", "ts", "pid", "tid", "args"],
    "E": ["name", "cat", "ph", "ts", "pid", "tid"],
    "X": ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"],
}


def validate_trace(trace):
    """Structural schema every emitted trace must satisfy."""
    events = trace["traceEvents"]
    assert trace["otherData"]["schema"] == TRACE_SCHEMA
    seen_real = False
    last_ts = 0
    stacks = {}
    for event in events:
        assert list(event) == EVENT_KEYS[event["ph"]], event
        if event["ph"] == "M":
            assert not seen_real, "metadata must precede duration events"
            assert event["ts"] == 0
            continue
        seen_real = True
        assert event["ts"] >= last_ts, "timestamps must be monotonic"
        last_ts = event["ts"]
        if event["ph"] == "X":
            assert event["dur"] > 0
            continue
        track = (event["pid"], event["tid"])
        stack = stacks.setdefault(track, [])
        if event["ph"] == "B":
            stack.append(event)
        else:
            assert stack, f"E without B on track {track}: {event}"
            opened = stack.pop()
            assert opened["name"] == event["name"]
            assert opened["ts"] <= event["ts"]
    for track, stack in stacks.items():
        assert not stack, f"unclosed spans on track {track}"


class TestChromeTrace:
    def trace(self):
        result, profiler = run_profiled(GOLDEN_SOURCE, GOLDEN_CFG)
        return build_trace(profiler, result.trace, GOLDEN_CFG), \
            result, profiler

    def test_schema_valid(self):
        trace, _, _ = self.trace()
        validate_trace(trace)

    @pytest.mark.parametrize("cfg", MODE_GRID, ids=MODE_IDS)
    @pytest.mark.parametrize("path", EXAMPLES,
                             ids=[p.stem for p in EXAMPLES])
    def test_schema_valid_on_examples(self, path, cfg):
        result, profiler = run_profiled(path.read_text(), cfg)
        validate_trace(build_trace(profiler, result.trace, cfg))

    def test_span_cycles_match_profile(self):
        trace, _, profiler = self.trace()
        thread_cycles = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "B" and event["pid"] == PID_THREADS:
                tid = event["tid"]
                thread_cycles[tid] = thread_cycles.get(tid, 0) + \
                    event["args"]["cycles"]
        for tid, spans in profiler.intervals.items():
            expected = sum(iv.cycles for iv in spans
                           if iv.kind != "free")
            assert thread_cycles.get(tid, 0) == expected

    def test_stage_tracks_need_config(self):
        _, result, profiler = self.trace()
        with pytest.raises(ValueError):
            build_trace(profiler, result.trace, None)

    def test_render_is_stable(self):
        r1, p1 = run_profiled(GOLDEN_SOURCE, GOLDEN_CFG)
        r2, p2 = run_profiled(GOLDEN_SOURCE, GOLDEN_CFG)
        assert render_trace(p1, r1.trace, GOLDEN_CFG) == \
            render_trace(p2, r2.trace, GOLDEN_CFG)

    def test_golden_file(self):
        """Byte-exact rendering, frozen on disk.  Regenerate with
        ``python tools/update_trace_golden.py`` after an intentional
        exporter or timing-model change."""
        result, profiler = run_profiled(GOLDEN_SOURCE, GOLDEN_CFG)
        rendered = render_trace(profiler, result.trace, GOLDEN_CFG)
        assert rendered == GOLDEN_TRACE.read_text(), \
            "trace bytes changed; regenerate tests/data via " \
            "tools/update_trace_golden.py if intentional"


# -- VCD <-> trace cross-check ------------------------------------------------

def parse_vcd(text):
    """Extract stage value-changes and issue rises from a VCD dump."""
    idents = {}
    stage_changes = []          # (cycle, stage, pc)
    issue_cycles = {}           # tid -> {cycle}
    t = None
    for line in text.splitlines():
        if line.startswith("$var"):
            parts = line.split()
            idents[parts[3]] = parts[4]
        elif line.startswith("#"):
            t = int(line[1:])
        elif t is None:
            continue
        elif line.startswith("bz "):
            continue
        elif line.startswith("b"):
            value, ident = line.split()
            stage_changes.append((t, idents[ident], int(value[1:], 2)))
        elif line[0] in "01":
            name = idents[line[1:]]
            if line[0] == "1" and name.startswith("issue_t"):
                issue_cycles.setdefault(
                    int(name[len("issue_t"):]), set()).add(t)
    return stage_changes, issue_cycles


def trace_stage_spans(trace):
    """(stage, start, end, pc) complete-event spans, stage tracks only."""
    stage_names = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "M" and event["pid"] == PID_STAGES \
                and event["name"] == "thread_name":
            stage_names[event["tid"]] = event["args"]["name"]
    return [(stage_names[e["tid"]], e["ts"], e["ts"] + e["dur"],
             e["args"]["pc"])
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == PID_STAGES]


class TestVcdCrossCheck:
    @pytest.mark.parametrize("cfg", MODE_GRID[:2], ids=MODE_IDS[:2])
    def test_every_vcd_stage_change_is_in_the_trace(self, cfg):
        result, profiler = run_profiled(GOLDEN_SOURCE, cfg)
        trace = build_trace(profiler, result.trace, cfg)
        spans = trace_stage_spans(trace)
        stage_changes, _ = parse_vcd(build_vcd(result.trace, cfg))
        assert stage_changes, "VCD produced no stage activity"
        for cycle, stage, pc in stage_changes:
            assert any(s == stage and start <= cycle < end and spc == pc
                       for s, start, end, spc in spans), \
                f"VCD change ({cycle}, {stage}, pc={pc}) missing"

    @pytest.mark.parametrize("cfg", MODE_GRID[:2], ids=MODE_IDS[:2])
    def test_issue_cycles_match_profiler(self, cfg):
        result, profiler = run_profiled(GOLDEN_SOURCE, cfg)
        _, issue_cycles = parse_vcd(build_vcd(result.trace, cfg))
        for tid, cycles in issue_cycles.items():
            from_profile = set()
            for iv in profiler.intervals[tid]:
                if iv.kind == K_ISSUE:
                    from_profile.update(range(iv.start, iv.end))
            assert cycles == from_profile


# -- metrics registry ---------------------------------------------------------

class TestMetrics:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs", labels=("origin",))
        c.inc(origin="computed")
        c.inc(2, origin="cached")
        assert c.value(origin="cached") == 2
        assert c.total == 3
        assert c.series() == [("origin=cached", 2),
                              ("origin=computed", 1)]

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("n", "n")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_counter_rejects_wrong_labels(self):
        c = MetricsRegistry().counter("n", "n", labels=("a",))
        with pytest.raises(MetricError):
            c.inc(b="x")
        with pytest.raises(MetricError):
            c.inc()

    def test_gauge(self):
        g = MetricsRegistry().gauge("depth", "queue depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4

    def test_histogram(self):
        h = MetricsRegistry().histogram("lat", "latency",
                                        buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 100.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(101.05)
        snap = h.snapshot()
        assert snap["series"][""]["counts"] == [1, 3, 3, 4]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", "h", buckets=(2.0, 1.0))

    def test_register_or_fetch(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x")
        b = reg.counter("x_total", "x")
        assert a is b
        with pytest.raises(MetricError):
            reg.gauge("x_total", "x")
        with pytest.raises(MetricError):
            reg.counter("x_total", "x", labels=("k",))

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "has space", "has-dash"):
            with pytest.raises(MetricError):
                reg.counter(bad, "x")

    def test_snapshot_is_deterministic_json(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "b").inc()
        reg.gauge("a_gauge", "a").set(1.5)
        reg.histogram("c_seconds", "c", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a_gauge", "b_total", "c_seconds"]
        json.dumps(snap)    # JSON-safe
        assert snap["b_total"]["value"] == 1     # ints stay ints

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs run", labels=("op",)).inc(op="run")
        reg.histogram("lat_seconds", "latency",
                      buckets=(0.1, 1.0)).observe(0.05)
        text = reg.render_prometheus()
        assert "# HELP jobs_total jobs run" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{op="run"} 1' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")


# -- serving-stack integration ------------------------------------------------

INLINE = (".text\nmain:\n    plw p1, 0(p0)\n    rsum s1, p1\n"
          "    halt\n")


def make_job(name="j", profile=False, **kwargs):
    return Job(name=name, source=INLINE,
               config=ProcessorConfig(num_pes=4, num_threads=2,
                                      word_width=16),
               profile=profile, **kwargs)


class TestServeProfile:
    def test_profile_flag_changes_job_key(self):
        plain = make_job().prepare()
        profiled = make_job(profile=True).prepare()
        assert plain.key != profiled.key

    def test_profile_flag_parses_from_json(self):
        job = Job.from_json({"source": INLINE, "profile": True})
        assert job.profile is True
        assert Job.from_json({"source": INLINE}).profile is False

    def test_batch_populates_profile_section(self):
        report = BatchRunner().run([make_job(profile=True), make_job()])
        profiled, plain = report.results
        assert profiled.snapshot.profile is not None
        assert profiled.snapshot.profile["schema"] == PROFILE_SCHEMA
        assert profiled.snapshot.schema == 5
        assert plain.snapshot.profile is None
        # The profile rides through JSON serialization.
        payload = profiled.snapshot.to_json()
        assert sum(payload["profile"]["buckets"].values()) == \
            payload["profile"]["threads"] * payload["profile"]["cycles"]

    def test_profiled_and_plain_stats_agree(self):
        report = BatchRunner().run([make_job(profile=True), make_job()])
        profiled, plain = report.results
        assert profiled.snapshot.stats == plain.snapshot.stats


class TestRegistryIntegration:
    def test_cache_mirrors_stats(self, tmp_path):
        reg = MetricsRegistry()
        cache = ResultCache(cache_dir=tmp_path / "c", registry=reg)
        runner = BatchRunner(cache=cache, registry=reg)
        runner.run([make_job()])
        runner.run([make_job()])
        events = reg.get("cache_events_total")
        assert events.value(event="misses") == cache.stats.misses
        assert events.value(event="stores") == cache.stats.stores
        assert events.value(event="mem_hits") == cache.stats.mem_hits
        assert cache.stats.mem_hits >= 1

    def test_batch_publishes(self):
        reg = MetricsRegistry()
        runner = BatchRunner(registry=reg)
        runner.run([make_job("a"), make_job("b", profile=True)])
        assert reg.get("batch_runs_total").value() == 1
        assert reg.get("batch_jobs_total").total == 2
        assert reg.get("pool_tasks_total").value(path="serial") == 2
        assert reg.get("batch_elapsed_seconds").count() == 1

    def test_serve_stats_reply_carries_snapshot(self):
        reg = MetricsRegistry()
        session = Dispatcher(runner=BatchRunner(registry=reg),
                             registry=reg)
        job = {"source": INLINE,
               "config": {"num_pes": 4, "num_threads": 2,
                          "word_width": 16},
               "profile": True}
        reply = session.handle_line(json.dumps({"op": "run", "job": job}))
        assert reply["ok"]
        stats = session.handle_line('{"op": "stats"}')
        metrics = stats["metrics"]
        assert metrics["serve_requests_total"]["series"] == \
            {"op=run": 1, "op=stats": 1}
        assert metrics["batch_runs_total"]["value"] == 1
        json.dumps(stats, sort_keys=True)   # reply is JSON-safe

    def test_campaign_publishes(self):
        from repro.faults.campaign import run_campaign

        reg = MetricsRegistry()
        report = run_campaign("count_matches",
                              ProcessorConfig(num_pes=8, word_width=16),
                              faults=3, registry=reg)
        assert reg.get("fault_campaigns_total").value() == 1
        assert reg.get("fault_runs_total").total == 3
        assert reg.get("fault_campaign_coverage").value() == \
            pytest.approx(report.coverage, abs=1e-6)
