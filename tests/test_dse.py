"""Design-space exploration: Pareto math, sweep specs, runner, surfaces.

The hypothesis suites here are the lock on the two report guarantees:

* the frontier is *sound and complete* — exactly the non-dominated
  points, nothing dominated sneaks in, nothing non-dominated is lost;
* the frontier is *canonical* — permuting or duplicating the input
  changes nothing, which is what makes sweep reports byte-comparable.

The runner tests then pin the operational story: unfit points are
findings (not crashes), warm re-sweeps are byte-identical and almost
entirely cache-served, and the monotone axis the paper leans on (more
PEs never hurts an embarrassingly parallel kernel) really is monotone
in the model.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from repro.dse import (
    DEFAULT_KERNELS,
    DSE_SCHEMA,
    FRONTIER_AXES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_UNFIT,
    DseRunner,
    DseSpecError,
    SweepSpec,
    dominates,
    pareto_frontier,
)
from repro.fpga import device_by_name
from repro.serve.batch import BatchRunner
from repro.serve.cache import ResultCache
from repro.serve.dispatch import DETERMINISTIC_OPS, Dispatcher
from tests.strategies import (
    SWEEP_AXIS_POOLS,
    keyed_metric_points,
    metric_tuples,
    sense_lists,
    sweep_axes,
)


# -- dominance ----------------------------------------------------------------

class TestDominates:
    def test_strict_dominance_min(self):
        assert dominates((1, 1), (2, 2), ["min", "min"])

    def test_one_axis_better_suffices(self):
        assert dominates((1, 2), (2, 2), ["min", "min"])

    def test_equal_tuples_never_dominate(self):
        assert not dominates((3, 3), (3, 3), ["min", "min"])

    def test_tradeoff_is_incomparable(self):
        assert not dominates((1, 5), (5, 1), ["min", "min"])
        assert not dominates((5, 1), (1, 5), ["min", "min"])

    def test_max_sense_flips_direction(self):
        assert dominates((9,), (1,), ["max"])
        assert not dominates((1,), (9,), ["max"])

    def test_mixed_senses(self):
        # (cycles min, fmax max): fewer cycles at higher fmax dominates.
        assert dominates((100, 80.0), (200, 50.0), ["min", "max"])
        assert not dominates((100, 50.0), (200, 80.0), ["min", "max"])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            dominates((1, 2), (1,), ["min", "min"])

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError, match="sense"):
            dominates((1,), (2,), ["down"])

    def test_sense_count_must_match_metrics(self):
        with pytest.raises(ValueError, match="senses"):
            dominates((1, 2), (3, 4), ["min"])

    @given(metric_tuples(3), metric_tuples(3), sense_lists(3))
    def test_antisymmetric(self, a, b, senses):
        assert not (dominates(a, b, senses) and dominates(b, a, senses))

    @given(metric_tuples(4), sense_lists(4))
    def test_irreflexive(self, a, senses):
        assert not dominates(a, a, senses)


# -- frontier soundness, completeness, canonical form -------------------------

class TestParetoFrontier:
    SENSES2 = ["min", "min"]

    def test_simple_frontier(self):
        points = [("a", (1, 4)), ("b", (2, 2)), ("c", (4, 1)),
                  ("d", (3, 3))]     # d dominated by b
        front = pareto_frontier(points, self.SENSES2)
        assert [k for k, _ in front] == ["a", "b", "c"]

    def test_equal_metric_points_all_survive(self):
        points = [("a", (1, 1)), ("b", (1, 1)), ("z", (2, 2))]
        front = pareto_frontier(points, self.SENSES2)
        assert [k for k, _ in front] == ["a", "b"]

    def test_empty_input(self):
        assert pareto_frontier([], self.SENSES2) == []

    def test_single_point(self):
        assert pareto_frontier([("only", (7, 7))], self.SENSES2) == \
            [("only", (7.0, 7.0))]

    @given(keyed_metric_points(arity=3), sense_lists(3))
    @settings(max_examples=150, deadline=None)
    def test_sound_and_complete(self, points, senses):
        """Frontier == exactly the non-dominated subset."""
        front = dict(pareto_frontier(points, senses))
        by_key = dict((k, tuple(m)) for k, m in points)
        for key, metrics in by_key.items():
            dominated = any(dominates(other, metrics, senses)
                            for other in by_key.values())
            if dominated:
                assert key not in front
            else:
                assert front[key] == metrics

    @given(keyed_metric_points(arity=3), sense_lists(3),
           hs.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_permutation_and_duplication_invariant(self, points, senses,
                                                   rng):
        baseline = pareto_frontier(points, senses)
        shuffled = list(points)
        rng.shuffle(shuffled)
        assert pareto_frontier(shuffled, senses) == baseline
        doubled = shuffled + shuffled
        assert pareto_frontier(doubled, senses) == baseline

    @given(keyed_metric_points(arity=2), sense_lists(2))
    @settings(max_examples=100, deadline=None)
    def test_frontier_internally_nondominated(self, points, senses):
        front = pareto_frontier(points, senses)
        for (_, a), (_, b) in itertools.permutations(front, 2):
            assert not dominates(a, b, senses)

    @given(keyed_metric_points(arity=2), sense_lists(2))
    @settings(max_examples=100, deadline=None)
    def test_nonempty_input_nonempty_frontier(self, points, senses):
        if points:
            assert pareto_frontier(points, senses)


# -- sweep specs --------------------------------------------------------------

class TestSweepSpec:
    def test_expansion_is_canonical(self):
        spec = SweepSpec(axes={"num_threads": [4, 2], "num_pes": [16, 8]})
        ids = [p.point_id for p in spec.expand()]
        # axes iterate in AXIS_ORDER with sorted values
        assert ids == ["p8-t2", "p8-t4", "p16-t2", "p16-t4"]

    def test_axis_values_deduplicated(self):
        spec = SweepSpec(axes={"num_pes": [8, 8, 4]})
        assert spec.axis_values == {"num_pes": [4, 8]}
        assert spec.num_points() == 2

    def test_point_configs_carry_axis_values(self):
        spec = SweepSpec(axes={"num_pes": [4], "word_width": [32]})
        (point,) = spec.expand()
        assert point.config.num_pes == 4
        assert point.config.word_width == 32

    def test_thread_axis_tracks_mt_mode(self):
        spec = SweepSpec(axes={"num_threads": [1, 4]})
        single, fine = spec.expand()
        assert single.config.mt_mode.value == "single"
        assert fine.config.mt_mode.value == "fine"

    def test_out_of_range_axis_fails_fast_with_axis_name(self):
        with pytest.raises(DseSpecError,
                           match=r"axis 'word_width' value 12"):
            SweepSpec(axes={"word_width": [8, 12]})

    def test_oversubscribed_threads_names_axis(self):
        # 300 thread ids cannot be named by an 8-bit word: every point
        # carrying the value fails, so the axis is blamed directly.
        with pytest.raises(DseSpecError,
                           match=r"axis 'num_threads' value 300"):
            SweepSpec(axes={"num_threads": [300], "word_width": [8]})

    def test_unconditionally_bad_value_blamed_across_grid(self):
        # With widths [8, 16] in the grid, 300 threads fails only at
        # width 8 — so width 8 is the value whose every point fails,
        # and the error is attributed there.
        with pytest.raises(DseSpecError,
                           match=r"axis 'word_width' value 8"):
            SweepSpec(axes={"num_threads": [300], "word_width": [8, 16]})

    def test_coupled_infeasibility_names_the_point(self):
        # 300 threads fits a 16-bit mask but not an 8-bit one, and both
        # axes also carry legal points: neither value is unconditionally
        # bad, so the error names the offending grid point.
        with pytest.raises(DseSpecError,
                           match=r"infeasible grid point "
                                 r"\(num_threads=300, word_width=8\)"):
            SweepSpec(axes={"num_threads": [2, 300],
                            "word_width": [8, 16]})

    def test_coupled_legal_grid_expands(self):
        spec = SweepSpec(axes={"num_threads": [200], "word_width": [16]})
        (point,) = spec.expand()
        assert point.config.num_threads == 200

    def test_unknown_axis_rejected(self):
        with pytest.raises(DseSpecError, match="unknown sweep axis"):
            SweepSpec(axes={"voltage": [1]})

    def test_empty_axes_rejected(self):
        with pytest.raises(DseSpecError, match="at least one axis"):
            SweepSpec(axes={})

    def test_empty_axis_values_rejected(self):
        with pytest.raises(DseSpecError, match="non-empty"):
            SweepSpec(axes={"num_pes": []})

    def test_non_integer_axis_value_rejected(self):
        with pytest.raises(DseSpecError, match="must be integers"):
            SweepSpec(axes={"num_pes": [8, "many"]})

    def test_bool_axis_value_rejected(self):
        with pytest.raises(DseSpecError, match="must be integers"):
            SweepSpec(axes={"num_pes": [True]})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(DseSpecError, match="unknown kernel"):
            SweepSpec(axes={"num_pes": [4]}, kernels=("warp_drive",))

    def test_bad_backend_rejected(self):
        with pytest.raises(DseSpecError, match="backend"):
            SweepSpec(axes={"num_pes": [4]}, backend="quantum")

    def test_bad_base_config_rejected(self):
        with pytest.raises(DseSpecError, match="bad base config"):
            SweepSpec(axes={"num_pes": [4]}, base={"num_pes": -1})

    def test_from_json_unknown_field_rejected(self):
        with pytest.raises(DseSpecError, match="unknown spec field"):
            SweepSpec.from_json({"axes": {"num_pes": [4]}, "axis": {}})

    def test_from_json_unknown_device_rejected(self):
        with pytest.raises(DseSpecError, match="EP2C35"):
            SweepSpec.from_json({"axes": {"num_pes": [4]},
                                 "device": "EP99"})

    def test_from_json_requires_axes_object(self):
        with pytest.raises(DseSpecError, match="'axes'"):
            SweepSpec.from_json({"axes": [4, 8]})

    @pytest.mark.parametrize("value", ["abc", -5, 0, 1.5, True])
    def test_max_cycles_must_be_null_or_a_positive_int(self, value):
        doc = {"axes": {"num_pes": [4]}, "kernels": ["vector_mac"],
               "max_cycles": value}
        error = (f"'max_cycles' must be null or an integer in 1..10000000, "
                 f"got {value!r}")
        with pytest.raises(DseSpecError) as info:
            SweepSpec.from_json(doc)
        assert str(info.value) == error
        reply = Dispatcher().handle_line(json.dumps({"op": "dse",
                                                     "spec": doc}))
        assert reply == {"ok": False, "error": error}

    def test_from_json_defaults(self):
        spec = SweepSpec.from_json({"axes": {"num_pes": [4]}})
        assert spec.kernels == tuple(DEFAULT_KERNELS)
        assert spec.device.name == "EP2C35"
        assert spec.backend == "auto"

    def test_to_json_is_canonical(self):
        a = SweepSpec.from_json({"axes": {"num_pes": [8, 4, 8]},
                                 "name": "x"})
        b = SweepSpec.from_json({"axes": {"num_pes": [4, 8]},
                                 "name": "x"})
        assert a.to_json() == b.to_json()

    @given(sweep_axes())
    @settings(max_examples=60, deadline=None)
    def test_legal_axis_pools_always_expand(self, axes):
        spec = SweepSpec(axes=axes, kernels=("vector_mac",))
        points = spec.expand()
        assert len(points) == spec.num_points()
        assert len({p.point_id for p in points}) == len(points)
        for point in points:
            for name, value in point.axes.items():
                assert getattr(point.config, name) == value
                assert value in SWEEP_AXIS_POOLS[name]


# -- the sweep runner ---------------------------------------------------------

def make_runner(tmp_path=None, mem_entries=512):
    cache = (ResultCache(cache_dir=tmp_path / "cache")
             if tmp_path is not None
             else ResultCache(mem_entries=mem_entries))
    return DseRunner(BatchRunner(cache=cache))


SMALL_SPEC = {"name": "small",
              "axes": {"num_pes": [2, 4], "num_threads": [1, 2]},
              "kernels": ["vector_mac", "count_matches"]}


class TestDseRunner:
    def test_sweep_statuses_and_frontier(self):
        report = make_runner().sweep(SweepSpec.from_json(SMALL_SPEC))
        assert report.ok
        assert report.statuses == {STATUS_OK: 4}
        ok_ids = {o.point_id for o in report.outcomes}
        assert set(report.frontier_ids) <= ok_ids
        assert report.frontier_ids   # non-empty on an all-ok sweep

    def test_report_json_shape(self):
        report = make_runner().sweep(SweepSpec.from_json(SMALL_SPEC))
        payload = report.to_json()
        assert payload["schema"] == DSE_SCHEMA
        assert payload["spec"]["name"] == "small"
        assert [a["metric"] for a in payload["frontier_axes"]] == \
            [m for m, _ in FRONTIER_AXES]
        point = payload["points"][0]
        assert point["status"] == STATUS_OK
        assert set(point["cycles_by_kernel"]) == \
            {"vector_mac", "count_matches"}
        assert point["power"]["total_mw"] > 0
        for entry in payload["frontier"]:
            assert set(entry["metrics"]) == {m for m, _ in FRONTIER_AXES}

    def test_payload_has_no_operational_fields(self):
        report = make_runner().sweep(SweepSpec.from_json(SMALL_SPEC))
        text = json.dumps(report.to_json())
        for field in ("elapsed", "cache", "origin", "jobs_per_s"):
            assert field not in text
        assert report.ops["jobs"] == 8

    def test_unfit_points_are_findings_not_crashes(self):
        spec = SweepSpec.from_json(
            {"name": "unfit", "axes": {"num_pes": [4, 1024]},
             "kernels": ["vector_mac"], "device": "EP2C35"})
        report = make_runner().sweep(spec)
        assert report.ok          # unfit is a finding, not a failure
        assert report.statuses == {STATUS_OK: 1, STATUS_UNFIT: 1}
        unfit = report.outcome("p1024")
        assert unfit.status == STATUS_UNFIT
        assert "ram" in unfit.unfit_reason or "logic" in unfit.unfit_reason
        assert report.frontier_ids == ["p4"]
        # the unfit point was never simulated
        assert report.ops["jobs"] == 1
        assert unfit.to_json()["unfit_reason"] == unfit.unfit_reason

    def test_all_unfit_sweep_has_empty_frontier(self):
        spec = SweepSpec.from_json(
            {"axes": {"num_pes": [512, 1024]}, "kernels": ["vector_mac"],
             "device": "FLEX 10K70"})
        report = make_runner().sweep(spec)
        assert report.ok
        assert report.statuses == {STATUS_UNFIT: 2}
        assert report.frontier_ids == []
        assert report.ops["jobs"] == 0

    def test_more_pes_never_worsens_parallel_kernel_cycles(self):
        """The monotone axis: vector_mac is embarrassingly parallel."""
        spec = SweepSpec.from_json(
            {"axes": {"num_pes": [1, 2, 4, 8, 16, 32]},
             "kernels": ["vector_mac"], "device": "EP1S80"})
        report = make_runner().sweep(spec)
        assert report.statuses == {STATUS_OK: 6}
        cycles = [report.outcome(f"p{p}").cycles
                  for p in (1, 2, 4, 8, 16, 32)]
        assert cycles == sorted(cycles, reverse=True) or \
            all(a >= b for a, b in zip(cycles, cycles[1:]))

    def test_timeout_points_error_and_fail_the_sweep(self):
        spec = SweepSpec.from_json(
            {"axes": {"num_pes": [2]}, "kernels": ["vector_mac"],
             "backend": "cycle", "max_cycles": 1})
        report = make_runner().sweep(spec)
        assert not report.ok
        outcome = report.outcome("p2")
        assert outcome.status == STATUS_ERROR
        assert "vector_mac" in outcome.errors
        assert report.frontier_ids == []

    def test_cycle_and_fast_backends_agree_on_cycles(self):
        base = {"axes": {"num_pes": [4, 8]}, "kernels": ["vector_mac",
                                                         "count_matches"]}
        fast = make_runner().sweep(
            SweepSpec.from_json(dict(base, backend="fast")))
        cycle = make_runner().sweep(
            SweepSpec.from_json(dict(base, backend="cycle")))
        for out in fast.outcomes:
            assert out.cycles_by_kernel == \
                cycle.outcome(out.point_id).cycles_by_kernel

    def test_metrics_published(self):
        runner = make_runner()
        runner.sweep(SweepSpec.from_json(SMALL_SPEC))
        snap = runner.registry.snapshot()
        assert snap["dse_sweeps_total"]["value"] == 1
        assert snap["dse_points_total"]["series"]["status=ok"] == 4
        assert snap["dse_sweep_seconds"]["series"][""]["count"] == 1


class TestWarmSweeps:
    def test_warm_resweep_byte_identical_and_cache_served(self, tmp_path):
        """The acceptance bar: >=90% cache-served, byte-identical JSON."""
        spec = SweepSpec.from_json(
            {"name": "warm", "axes": {"num_pes": [2, 4],
                                      "num_threads": [1, 2]},
             "kernels": ["vector_mac", "count_matches"]})
        runner = make_runner(tmp_path)
        cold = runner.sweep(spec)
        warm = runner.sweep(spec)
        cold_bytes = json.dumps(cold.to_json(), sort_keys=True)
        warm_bytes = json.dumps(warm.to_json(), sort_keys=True)
        assert cold_bytes == warm_bytes
        assert cold.ops["cache_served"] == 0
        assert warm.ops["cache_served_rate"] >= 0.9
        assert warm.ops["computed"] == 0

    def test_warm_resweep_survives_process_restart(self, tmp_path):
        """A fresh runner over the same disk cache stays warm."""
        spec = SweepSpec.from_json(
            {"axes": {"num_pes": [2, 4]}, "kernels": ["vector_mac"]})
        first = make_runner(tmp_path).sweep(spec)
        second = make_runner(tmp_path).sweep(spec)
        assert json.dumps(first.to_json(), sort_keys=True) == \
            json.dumps(second.to_json(), sort_keys=True)
        assert second.ops["cache_served_rate"] >= 0.9

    def test_overlapping_sweep_reuses_shared_points(self, tmp_path):
        """A wider sweep only pays for the points the narrow one lacked."""
        runner = make_runner(tmp_path)
        runner.sweep(SweepSpec.from_json(
            {"axes": {"num_pes": [2, 4]}, "kernels": ["vector_mac"]}))
        wider = runner.sweep(SweepSpec.from_json(
            {"axes": {"num_pes": [2, 4, 8]}, "kernels": ["vector_mac"]}))
        assert wider.ops["cache_served"] == 2
        assert wider.ops["computed"] == 1

    def test_render_mentions_cache_line(self):
        report = make_runner().sweep(SweepSpec.from_json(SMALL_SPEC))
        text = report.render()
        assert "design-space sweep" in text
        assert "cache:" in text
        assert "frontier" in text


# -- serving surface ----------------------------------------------------------

class TestDispatcherDseOp:
    def make(self, **kw):
        return Dispatcher(BatchRunner(cache=ResultCache(mem_entries=64)),
                          **kw)

    def test_dse_is_a_deterministic_op(self):
        assert "dse" in DETERMINISTIC_OPS

    def test_dse_request_returns_frontier(self):
        d = self.make()
        reply = d.handle_line(json.dumps(
            {"op": "dse", "spec": {"axes": {"num_pes": [2, 4]},
                                   "kernels": ["vector_mac"]}}))
        assert reply["ok"]
        assert reply["sweep"]["schema"] == DSE_SCHEMA
        assert [p["point"] for p in reply["sweep"]["points"]] == \
            ["p2", "p4"]
        assert reply["sweep"]["frontier"]

    def test_dse_reply_is_deterministic(self):
        d = self.make()
        line = json.dumps({"op": "dse",
                           "spec": {"axes": {"num_pes": [2]},
                                    "kernels": ["vector_mac"]}})
        assert d.handle_line(line) == d.handle_line(line)

    def test_dse_missing_spec_rejected(self):
        reply = self.make().handle_line(json.dumps({"op": "dse"}))
        assert not reply["ok"]
        assert "spec" in reply["error"]

    def test_dse_bad_spec_names_axis(self):
        reply = self.make().handle_line(json.dumps(
            {"op": "dse", "spec": {"axes": {"word_width": [12]}}}))
        assert not reply["ok"]
        assert "word_width" in reply["error"]

    def test_dse_respects_max_pending(self):
        d = self.make(max_pending=2)
        reply = d.handle_line(json.dumps(
            {"op": "dse", "spec": {"axes": {"num_pes": [2, 4]},
                                   "kernels": ["vector_mac",
                                               "count_matches"]}}))
        assert not reply["ok"]
        assert reply["error"] == "overloaded"
        assert reply["requested"] == 4

    def test_dse_request_id_echoed(self):
        reply = self.make().handle_line(json.dumps(
            {"op": "dse", "id": 7,
             "spec": {"axes": {"num_pes": [2]},
                      "kernels": ["vector_mac"]}}))
        assert reply["id"] == 7


# -- CLI ----------------------------------------------------------------------

class TestDseCli:
    def write_spec(self, tmp_path, spec):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_cli_renders_table(self, tmp_path, capsys):
        from repro.cli import main
        spec = self.write_spec(tmp_path, {
            "axes": {"num_pes": [2, 4]}, "kernels": ["vector_mac"]})
        assert main(["dse", spec, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "design-space sweep" in out
        assert "p2" in out and "p4" in out

    def test_cli_json_warm_rerun_byte_identical(self, tmp_path, capsys):
        from repro.cli import main
        spec = self.write_spec(tmp_path, {
            "name": "cli", "axes": {"num_pes": [2, 4]},
            "kernels": ["vector_mac"]})
        cache = str(tmp_path / "cache")
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        ops = tmp_path / "ops.json"
        assert main(["dse", spec, "--json", "--cache-dir", cache,
                     "--output", str(out1)]) == 0
        assert main(["dse", spec, "--json", "--cache-dir", cache,
                     "--output", str(out2), "--ops-json", str(ops)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        ops_data = json.loads(ops.read_text())
        assert ops_data["cache_served_rate"] >= 0.9
        payload = json.loads(out1.read_text())
        assert payload["frontier"]

    def test_cli_bad_spec_exits_1(self, tmp_path, capsys):
        from repro.cli import main
        spec = self.write_spec(tmp_path, {"axes": {"word_width": [12]}})
        assert main(["dse", spec, "--no-cache"]) == 1
        assert "word_width" in capsys.readouterr().err

    def test_cli_missing_file_exits_1(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["dse", str(tmp_path / "nope.json"),
                     "--no-cache"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_cli_errored_sweep_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        spec = self.write_spec(tmp_path, {
            "axes": {"num_pes": [2]}, "kernels": ["vector_mac"],
            "backend": "cycle", "max_cycles": 1})
        assert main(["dse", spec, "--no-cache"]) == 2
        assert "errored" in capsys.readouterr().err

    def test_example_spec_file_is_valid(self):
        import pathlib
        payload = json.loads(pathlib.Path("examples/dse_sweep.json")
                             .read_text())
        spec = SweepSpec.from_json(payload)
        assert spec.num_points() == 24
        assert device_by_name(payload["device"]) is spec.device
