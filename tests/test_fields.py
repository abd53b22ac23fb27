"""Field rules: one declaration per document field, one message format."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import ProcessorConfig
from repro.dse import DseRunner, SweepSpec
from repro.programs import kernels
from repro.serve.chaos import ChaosKind, ChaosSpec
from repro.serve.dispatch import Dispatcher
from repro.serve.jobs import (
    MAX_JOB_BYTES,
    MAX_JOB_CYCLES,
    Job,
    JobError,
    config_from_json,
)
from repro.util.fields import table


class TestRules:
    def test_python_and_json_construction_share_one_message(self):
        with pytest.raises(ValueError) as direct:
            ProcessorConfig(num_pes=0)
        with pytest.raises(JobError) as parsed:
            config_from_json({"num_pes": 0})
        assert str(direct.value) == "'num_pes' must be an integer >= 1, got 0"
        assert str(parsed.value) == f"bad config: {direct.value}"

    def test_a_bool_is_not_an_int_and_an_int_is_a_number(self):
        with pytest.raises(ValueError, match="'num_pes' must be an integer"):
            ProcessorConfig(num_pes=True)
        assert ChaosSpec(ChaosKind.SLOW_WORKER, delay_s=1).delay_s == 1

    def test_numpy_integers_count_as_ints(self):
        assert ProcessorConfig(num_pes=np.int64(8)).num_pes == 8

    def test_enum_values_parse_and_bad_ones_list_the_choices(self):
        assert config_from_json({"mt_mode": "coarse"}).mt_mode.value == \
            "coarse"
        with pytest.raises(JobError, match="'mt_mode' must be one of "
                                           "'single', 'fine'"):
            config_from_json({"mt_mode": "bogus"})

    def test_every_field_rule_has_a_doc_line(self):
        for cls in (ProcessorConfig, Job, SweepSpec, ChaosSpec):
            rules = table(cls).rules
            assert [f.name for f in dataclasses.fields(cls)] == list(rules)
            assert all(rule.doc for rule in rules.values())


class TestJobLimits:
    def test_the_cycle_ceiling_is_the_default_watchdog(self):
        assert MAX_JOB_CYCLES == ProcessorConfig().max_cycles

    def test_a_python_built_job_is_held_to_the_limits(self):
        cfg = ProcessorConfig(num_pes=1 << 20)
        with pytest.raises(JobError, match="machine state needs"):
            Job(name="big", kernel="vector_mac", config=cfg)
        with pytest.raises(JobError, match="'max_cycles' must be null"):
            Job(name="long", source="x: j x", max_cycles=MAX_JOB_CYCLES + 1)
        assert MAX_JOB_BYTES == 256 << 20

    def test_unfit_sweep_points_never_become_jobs(self):
        # 32,768 PEs need more state than a job may use, and do not fit
        # the device: the sweep reports the point unfit and runs the rest.
        spec = SweepSpec(axes={"num_pes": [4, 32768]},
                         kernels=("vector_mac",))
        report = DseRunner().sweep(spec)
        assert report.statuses == {"ok": 1, "unfit": 1}


class TestKernelArguments:
    def test_rules_survive_a_wrapped_builder(self, monkeypatch):
        original = kernels.ALL_KERNEL_BUILDERS["vector_mac"]
        monkeypatch.setitem(kernels.ALL_KERNEL_BUILDERS, "vector_mac",
                            lambda *a, **k: original(*a, **k))
        job = Job(name="v", kernel="vector_mac", kernel_args={"seed": 3})
        assert job.prepare().key
        with pytest.raises(JobError, match="'iters' must be an integer, "
                                           "got True"):
            Job(name="v", kernel="vector_mac",
                kernel_args={"iters": True}).prepare()

    def test_list_arguments_are_checked_per_item(self):
        with pytest.raises(JobError, match="'pattern' must be null or a "
                                           "list of integers"):
            Job(name="s", kernel="string_match",
                kernel_args={"pattern": [1, "a"]}).prepare()


class TestRequestEnvelope:
    def test_only_job_carrying_ops_reject_extra_fields(self):
        ses = Dispatcher()
        assert ses.handle_line('{"op": "ping", "pad": "xxxx"}') == \
            {"ok": True, "pong": True}
        reply = ses.handle_line(json.dumps(
            {"op": "batch", "jobs": [], "deadline": 1}))
        assert reply == {"ok": False, "error": "unknown batch request "
                                               "field(s): deadline"}

    def test_a_null_tenant_is_the_default_one(self):
        reply = Dispatcher().handle_line(json.dumps(
            {"op": "run", "tenant": None,
             "job": {"source": ".text\nmain:\n    halt\n"}}))
        assert reply["ok"] is True
