"""The job key memo: a job keyed once is looked up, not built again.

:data:`repro.serve.identity.KEY_MEMO` maps the digest of a validated
job's identity text (every field but ``name``) to the key
:func:`~repro.serve.identity.job_key` gave it.  It is sound only if that
text determines the key: kernel builders must be pure functions of their
arguments, the memo's key must be the key preparing the job gives, and a
job the text cannot render must miss, not fail.  A repeated request must
get the reply it got the first time, a failed run must run again, and a
warm re-sweep must build no kernel.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro.programs.kernels as kernels
import repro.serve.jobs as jobs_module
from repro.core.config import ProcessorConfig
from repro.dse import DseRunner, SweepSpec
from repro.faults import FaultKind, FaultSite, FaultSpec
from repro.serve.batch import BatchRunner
from repro.serve.cache import ResultCache
from repro.serve.dispatch import Dispatcher, canonical_reply
from repro.serve.identity import KeyMemo, job_digest, job_key
from repro.serve.jobs import Job

REPO = pathlib.Path(__file__).resolve().parent.parent

DEMO = ".text\nmain:\n    lw    s1, 0(s0)\n    addi  s1, s1, 3\n" \
       "    sw    s1, 1(s0)\n    halt\n"
SMALL = ProcessorConfig(num_pes=4, word_width=16)

KEYS_CHILD = """
import json
from repro.core.config import ProcessorConfig
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from repro.serve.jobs import Job

keys = {}
for name in sorted(ALL_KERNEL_BUILDERS):
    for pes in (16, 64):
        built = {Job(name=name, kernel=name,
                     config=ProcessorConfig(num_pes=pes)).prepare().key
                 for _ in range(2)}
        assert len(built) == 1, (name, pes, built)
        keys[f"{name}@{pes}"] = built.pop()
print(json.dumps(keys))
"""


def kernel_keys(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", KEYS_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_kernel_keys_alike_in_two_processes():
    first, second = kernel_keys("1"), kernel_keys("2024")
    assert len(first) == 2 * len(kernels.ALL_KERNEL_BUILDERS)
    assert first == second


FAULT = FaultSpec(site=FaultSite.PE_REG, kind=FaultKind.TRANSIENT, cycle=2,
                  pe=1, reg=1, bit=0, label="upset")

#: Renderable jobs: kernels with and without arguments, inline source
#: with lmem, a fault, and every run flag.
SPREAD = {
    "vector_mac": Job(name="v", kernel="vector_mac"),
    "vector_mac-args": Job(name="v", kernel="vector_mac",
                           kernel_args={"iters": 40, "seed": 9, "width": 8},
                           config=ProcessorConfig(num_pes=32)),
    "histogram-fast": Job(name="h", kernel="histogram",
                          kernel_args={"bins": 12, "seed": 3},
                          backend="fast"),
    "count_matches-lmem": Job(name="c", kernel="count_matches",
                              lmem={7: [1, 2, 3]}),
    "inline-lmem": Job(name="i", source=DEMO, config=SMALL,
                       lmem={0: [5, 6], 3: [7]}),
    "inline-fault": Job(name="f", source=DEMO, config=SMALL, fault=FAULT),
    "inline-max-cycles": Job(name="m", source=DEMO, config=SMALL,
                             max_cycles=500),
    "inline-sanitize": Job(name="s", source=DEMO, config=SMALL,
                           sanitize=True),
    "inline-profile": Job(name="p", source=DEMO, config=SMALL,
                          profile=True),
    "inline-verify": Job(name="y", source=DEMO, config=SMALL, verify=True),
}


@pytest.mark.parametrize("case", sorted(SPREAD))
def test_the_memo_key_is_the_prepared_key(case, fresh_key_memo):
    job = SPREAD[case]
    runner = BatchRunner(ResultCache(cache_dir=None))
    first = runner.run([job]).results[0]
    digest = job_digest(job)
    assert digest is not None
    key = fresh_key_memo.get(digest)
    assert key == job_key(job.prepare()) == first.key
    again = runner.run([dataclasses.replace(job, name="renamed")])
    assert again.results[0].key == key
    assert again.results[0].origin == "memory-cache"
    assert again.results[0].name == "renamed"


#: Python-API jobs holding numpy values, which the text cannot render.
NUMPY = {
    "kernel_args": Job(name="n", kernel="vector_mac",
                       kernel_args={"seed": np.int64(9)}),
    "lmem": Job(name="n", source=DEMO, config=SMALL,
                lmem={0: np.array([5, 6], dtype=np.int64)}),
}


@pytest.mark.parametrize("case", sorted(NUMPY))
def test_numpy_values_are_a_memo_miss_not_an_error(case, fresh_key_memo):
    job = NUMPY[case]
    assert job_digest(job) is None
    runner = BatchRunner(ResultCache(cache_dir=None))
    before = fresh_key_memo.stats()
    first = runner.run([job]).results[0]
    second = runner.run([job]).results[0]
    assert first.key == second.key == job_key(job.prepare())
    assert (first.origin, second.origin) == ("computed", "memory-cache")
    after = fresh_key_memo.stats()
    assert [after[n] - before[n] for n in ("hits", "misses")] == [0, 2]
    assert after["entries"] == 0


def test_every_field_but_name_is_in_the_text():
    base = Job(name="base", source=DEMO, config=SMALL)
    variants = {
        "source": {"source": DEMO + "\n"},
        "kernel": {"source": None, "kernel": "vector_mac"},
        "kernel_args": {"source": None, "kernel": "vector_mac",
                        "kernel_args": {"seed": 1}},
        "config": {"config": dataclasses.replace(SMALL, num_pes=8)},
        "lmem": {"lmem": {0: [1]}},
        "max_cycles": {"max_cycles": 100},
        "fault": {"fault": FAULT},
        "sanitize": {"sanitize": True},
        "profile": {"profile": True},
        "verify": {"verify": True},
        "backend": {"backend": "fast"},
    }
    assert set(variants) == {f.name for f in dataclasses.fields(Job)} \
        - {"name"}
    digests = {job_digest(dataclasses.replace(base, **fields))
               for fields in variants.values()} | {job_digest(base)}
    assert None not in digests and len(digests) == len(variants) + 1
    assert job_digest(dataclasses.replace(base, name="other")) == \
        job_digest(base)
    relabeled = dataclasses.replace(FAULT, label="another label")
    assert job_digest(dataclasses.replace(base, fault=relabeled)) == \
        job_digest(dataclasses.replace(base, fault=FAULT))


class TestBound:
    def test_least_recently_used_goes_first(self):
        memo = KeyMemo(entries=2)
        memo.put(b"a", "ka")
        memo.put(b"b", "kb")
        assert memo.get(b"a") == "ka"        # b is now the oldest
        memo.put(b"c", "kc")
        assert (memo.get(b"a"), memo.get(b"b"), memo.get(b"c")) == \
            ("ka", None, "kc")
        assert memo.stats() == {"hits": 3, "misses": 1, "evictions": 1,
                                "entries": 2}


class TestRepeatedRequests:
    def test_a_failed_or_refused_job_gets_the_same_reply_twice(
            self, fresh_key_memo):
        """A refused job is never keyed, and a run stopped by its
        max_cycles is never cached: each is computed again."""
        session = Dispatcher()
        lines = [json.dumps({"op": "run", "id": n, "job": job})
                 for n, job in enumerate((
                     {"kernel": "mst_prim", "kernel_args": {"n": 12},
                      "config": {"lmem_words": 8}},
                     {"source": "x: j x", "max_cycles": 50}))]
        replies = [[canonical_reply(session.handle_line(line))
                    for line in lines] for _ in range(2)]
        assert replies[0] == replies[1]
        refused, stopped = map(json.loads, replies[1])
        assert "needs >= 14 local words" in refused["error"]
        assert (stopped["status"], stopped["origin"]) == \
            ("timeout", "computed")
        origins = session.registry.get("batch_jobs_total")
        assert origins.snapshot()["series"] == {
            "origin=computed": 2, "origin=refused": 2}
        assert fresh_key_memo.stats()["entries"] == 1


SWEEP = {"name": "memo", "axes": {"num_pes": [4, 8], "word_width": [8, 16]},
         "kernels": ["vector_mac", "count_matches"], "backend": "auto"}


def counting_builders(monkeypatch) -> list:
    calls: list = []
    for name, builder in list(kernels.ALL_KERNEL_BUILDERS.items()):
        def counted(*args, _name=name, _builder=builder, **kwargs):
            calls.append(_name)
            return _builder(*args, **kwargs)
        monkeypatch.setitem(kernels.ALL_KERNEL_BUILDERS, name, counted)
    return calls


class TestWarmResweep:
    def test_a_warm_resweep_builds_no_kernel(self, monkeypatch,
                                             fresh_key_memo):
        calls = counting_builders(monkeypatch)
        spec = SweepSpec.from_json(SWEEP)
        runner = DseRunner(BatchRunner(ResultCache(cache_dir=None)))
        cold = runner.sweep(spec)
        assert len(calls) == cold.ops["jobs"] == 8
        del calls[:]
        warm = runner.sweep(spec)
        assert calls == []
        assert warm.ops["cache_served"] == 8
        assert json.dumps(warm.to_json(), sort_keys=True) == \
            json.dumps(cold.to_json(), sort_keys=True)

    def test_a_sweep_on_a_fresh_cache_hashes_no_job(self, monkeypatch,
                                                    fresh_key_memo):
        spec = SweepSpec.from_json(SWEEP)
        first = DseRunner(BatchRunner(ResultCache(cache_dir=None))).sweep(
            spec)
        hashed = []
        real = jobs_module.job_key
        monkeypatch.setattr(jobs_module, "job_key",
                            lambda prepared: hashed.append(prepared)
                            or real(prepared))
        second = DseRunner(BatchRunner(ResultCache(cache_dir=None))).sweep(
            spec)
        assert hashed == []
        assert second.ops["computed"] == 8
        assert json.dumps(second.to_json(), sort_keys=True) == \
            json.dumps(first.to_json(), sort_keys=True)
