"""Concurrency analyzer + race sanitizer tests.

The headline property (ISSUE acceptance criterion): the static
analyzer over-approximates the dynamic one.  On generated
multithreaded programs, every race the vector-clock sanitizer reports
during a concrete run is covered by a static finding, and a program
the static analyzer calls race-free produces identical memory outcomes
under every multithreading mode and scheduler policy.
"""

import json
import pathlib
import pickle

import pytest
from hypothesis import given

from repro.analysis import lint_program
from repro.asm import assemble
from repro.cli import main as cli_main
from repro.core import Processor, ProcessorConfig, RaceSanitizer
from repro.serve.jobs import Job
from repro.serve.pool import execute_prepared
from repro.serve.snapshot import ResultSnapshot
from tests import oracle
from tests.strategies import MODE_GRID, machines, programs

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples" / "asm"

MT = ProcessorConfig(num_pes=4, num_threads=4, word_width=16,
                     lmem_words=64, scalar_mem_words=256)


def diags(source, check=None, cfg=MT):
    program = assemble(source, word_width=cfg.word_width)
    out = lint_program(program, cfg).diagnostics
    if check is not None:
        out = [d for d in out if d.check == check]
    return out


def run_sanitized(source, cfg=MT):
    return oracle.run_sanitized(assemble(source, word_width=cfg.word_width),
                                cfg)


# ---------------------------------------------------------------------------
# Fixture programs (shared between static, dynamic, and cross-validation
# tests).
# ---------------------------------------------------------------------------

RACY = """
.text
main:
    ori    s2, s0, 7
    sw     s2, 20(s0)
    tspawn s1, worker
    ori    s3, s0, 5
    sw     s3, 20(s0)
    tjoin  s1
    lw     s4, 20(s0)
    halt
worker:
    ori    s2, s0, 9
    sw     s2, 20(s0)
    texit
"""

CLEAN_JOIN = """
.text
main:
    ori    s2, s0, 7
    sw     s2, 20(s0)
    tspawn s1, worker
    tjoin  s1
    lw     s3, 20(s0)
    sw     s2, 20(s0)
    halt
worker:
    ori    s2, s0, 9
    sw     s2, 20(s0)
    texit
"""

DYN_OVERWRITE = """
.text
main:
    tspawn s1, worker
    ori    s2, s0, 1
    tput   s1, s2, 4
    ori    s2, s0, 2
    tput   s1, s2, 4
    tjoin  s1
    halt
worker:
    addi   s3, s3, 1
    addi   s3, s3, 1
    addi   s3, s3, 1
    addi   s3, s3, 1
    addi   s3, s3, 1
    addi   s3, s3, 1
    add    s5, s4, s0
    texit
"""

DYN_CLOBBER = """
.text
main:
    tspawn s1, worker
    tjoin  s1
    ori    s4, s0, 3
    halt
worker:
    ori    s2, s0, 1
    tput   s0, s2, 4
    texit
"""

DYN_UNSYNC_TGET = """
.text
main:
    tspawn s1, worker
    tget   s6, s1, 5
    tjoin  s1
    halt
worker:
    texit
"""


# ---------------------------------------------------------------------------
# cross-thread-race (static)
# ---------------------------------------------------------------------------

class TestCrossThreadRace:
    def test_racy_store_store(self):
        out = diags(RACY, "cross-thread-race")
        assert len(out) == 1
        d = out[0]
        assert d.severity == "warning"
        assert d.data["addr"] == 20
        assert "store/store" in d.message

    def test_join_orders_everything(self):
        assert diags(CLEAN_JOIN, "cross-thread-race") == []

    def test_pre_spawn_store_is_ordered(self):
        src = """
.text
main:
    ori    s2, s0, 7
    sw     s2, 20(s0)
    tspawn s1, worker
    tjoin  s1
    lw     s3, 20(s0)
    halt
worker:
    ori    s2, s0, 9
    sw     s2, 20(s0)
    texit
"""
        assert diags(src, "cross-thread-race") == []

    def test_shared_code_store_races_with_itself(self):
        # main falls through into the spawn target: one sw executed by
        # two threads.
        src = """
.text
main:
    tspawn s1, shared
shared:
    ori    s2, s0, 9
    sw     s2, 16(s0)
    texit
"""
        out = diags(src, "cross-thread-race")
        assert len(out) == 1
        assert out[0].data["addr"] == 16
        assert out[0].data["pcs"][0] == out[0].data["pcs"][1]

    def test_multi_instance_region_races_with_itself(self):
        src = """
.text
main:
    ori    s3, s0, 2
loop:
    tspawn s1, worker
    addi   s3, s3, -1
    bne    s3, s0, loop
    halt
worker:
    ori    s2, s0, 9
    sw     s2, 24(s0)
    texit
"""
        out = diags(src, "cross-thread-race")
        assert len(out) == 1
        assert out[0].data["addr"] == 24

    def test_unknown_base_never_reported(self):
        src = """
.text
main:
    ori    s2, s0, 7
    add    s4, s2, s2
    tspawn s1, worker
    sw     s2, 0(s4)
    tjoin  s1
    halt
worker:
    ori    s2, s0, 9
    add    s4, s2, s2
    sw     s2, 0(s4)
    texit
"""
        assert diags(src, "cross-thread-race") == []


# ---------------------------------------------------------------------------
# lost-delivery (static)
# ---------------------------------------------------------------------------

class TestLostDelivery:
    def test_overwritten_delivery(self):
        out = diags(DYN_OVERWRITE, "lost-delivery")
        assert len(out) == 1
        assert "overwritten" in out[0].message
        assert out[0].data["reg"] == 4

    def test_tget_between_consumes(self):
        src = """
.text
main:
    tspawn s1, worker
    ori    s2, s0, 1
    tput   s1, s2, 4
    tget   s6, s1, 4
    ori    s2, s0, 2
    tput   s1, s2, 4
    tjoin  s1
    halt
worker:
    add    s3, s4, s0
    texit
"""
        assert diags(src, "lost-delivery") == []

    def test_respawn_between_suppresses(self):
        # The reduction_storm shape: each loop iteration delivers to a
        # freshly spawned thread, so nothing is overwritten.
        src = """
.text
main:
    ori    s3, s0, 2
    ori    s2, s0, 7
loop:
    tspawn s1, worker
    tput   s1, s2, 4
    addi   s3, s3, -1
    bne    s3, s0, loop
    halt
worker:
    add    s5, s4, s0
    texit
"""
        assert diags(src, "lost-delivery") == []

    def test_receiver_clobber(self):
        src = """
.text
main:
    tspawn s1, worker
    ori    s2, s0, 5
    tput   s1, s2, 4
    tjoin  s1
    halt
worker:
    ori    s4, s0, 1
    add    s3, s4, s0
    texit
"""
        out = diags(src, "lost-delivery")
        assert any("races with the receiving" in d.message
                   and d.data["reg"] == 4 for d in out)

    def test_unread_delivery(self):
        src = """
.text
main:
    tspawn s1, worker
    ori    s2, s0, 5
    tput   s1, s2, 4
    tjoin  s1
    halt
worker:
    texit
"""
        out = diags(src, "lost-delivery")
        assert len(out) == 1
        assert "never read" in out[0].message

    def test_unwritten_tget(self):
        out = diags(DYN_UNSYNC_TGET, "lost-delivery")
        assert len(out) == 1
        assert "not synchronized" in out[0].message
        assert out[0].data["reg"] == 5

    def test_dominating_tput_synchronizes_tget(self):
        src = """
.text
main:
    tspawn s1, worker
    ori    s2, s0, 5
    tput   s1, s2, 4
    tget   s6, s1, 4
    tjoin  s1
    halt
worker:
    add    s3, s4, s0
    texit
"""
        assert diags(src, "lost-delivery") == []

    def test_zero_handle_tputs_share_context_zero(self):
        # Two s0-handle deliveries both land in context 0 (main): the
        # second overwrites the first.
        src = """
.text
main:
    tspawn s1, worker
    tjoin  s1
    add    s7, s4, s0
    halt
worker:
    ori    s2, s0, 1
    tput   s0, s2, 4
    ori    s2, s0, 2
    tput   s0, s2, 4
    texit
"""
        out = diags(src, "lost-delivery")
        assert len(out) == 1
        assert "overwritten" in out[0].message
        assert out[0].data["reg"] == 4

    def test_zero_handle_clobber_targets_main(self):
        out = diags(DYN_CLOBBER, "lost-delivery")
        assert any("races with the receiving" in d.message
                   and d.data["reg"] == 4 for d in out)

    def test_zero_handle_survives_a_write_to_s0(self):
        # s0 ignores writes, so the nop leaves the handle naming main.
        out = diags(DYN_CLOBBER.replace("    tput   s0, s2, 4",
                                        "    nop\n    tput   s0, s2, 4"),
                    "lost-delivery")
        assert any("races with the receiving" in d.message
                   and d.data["reg"] == 4 for d in out)


# ---------------------------------------------------------------------------
# thread-lifecycle (static)
# ---------------------------------------------------------------------------

class TestThreadLifecycle:
    def test_join_on_uninitialized_handle(self):
        out = diags(".text\nmain:\n    tjoin s1\n    halt\n",
                    "thread-lifecycle")
        assert any(d.severity == "error"
                   and "possibly-uninitialized" in d.message for d in out)

    def test_join_on_non_handle(self):
        src = ".text\nmain:\n    ori s1, s0, 1\n    tjoin s1\n    halt\n"
        out = diags(src, "thread-lifecycle")
        assert any(d.severity == "error"
                   and "never a thread handle" in d.message for d in out)

    def test_join_deadlock_no_texit(self):
        src = """
.text
main:
    tspawn s1, worker
    tjoin  s1
    halt
worker:
spin:
    j spin
"""
        out = diags(src, "thread-lifecycle")
        assert any(d.severity == "error" and "join deadlock" in d.message
                   for d in out)

    def test_joined_region_halting_is_warning(self):
        src = """
.text
main:
    tspawn s1, worker
    tjoin  s1
    halt
worker:
    halt
"""
        out = diags(src, "thread-lifecycle")
        assert any(d.severity == "warning" and "join deadlock" in d.message
                   for d in out)

    def test_orphan_thread_is_info_only(self):
        src = """
.text
main:
    tspawn s1, worker
    halt
worker:
    texit
"""
        program = assemble(src, word_width=MT.word_width)
        report = lint_program(program, MT)
        orphans = [d for d in report.diagnostics
                   if d.check == "thread-lifecycle"]
        assert any("never joined" in d.message for d in orphans)
        assert all(d.severity == "info" for d in orphans)
        assert report.findings == []       # info never fails --strict

    def test_join_on_forwarded_handle_is_info(self):
        src = """
.text
main:
    tspawn s1, worker
    tget   s3, s1, 5
    tjoin  s3
    halt
worker:
    texit
"""
        out = diags(src, "thread-lifecycle")
        assert any(d.severity == "info" and "via tget" in d.message
                   for d in out)


# ---------------------------------------------------------------------------
# RaceSanitizer (dynamic)
# ---------------------------------------------------------------------------

class TestSanitizer:
    def test_racy_program_reports_memory_race(self):
        _, san = run_sanitized(RACY)
        assert not san.clean
        assert len(san.reports) == 1
        r = san.reports[0]
        assert r.kind == "memory-race"
        assert r.addr == 20
        assert {r.tid, r.prev_tid} == {0, 1}
        assert r.location == "mem[20]"

    def test_clean_program_is_silent(self):
        _, san = run_sanitized(CLEAN_JOIN)
        assert san.clean
        assert san.to_json() == {"clean": True, "count": 0, "races": []}

    def test_reports_are_deterministic(self):
        _, a = run_sanitized(RACY)
        _, b = run_sanitized(RACY)
        assert [r.to_json() for r in a.reports] \
            == [r.to_json() for r in b.reports]

    def test_overwritten_delivery_detected(self):
        _, san = run_sanitized(DYN_OVERWRITE)
        assert any(r.kind == "overwritten-delivery" and r.reg == 4
                   for r in san.reports)

    def test_clobbered_delivery_detected(self):
        _, san = run_sanitized(DYN_CLOBBER)
        assert any(r.kind == "clobbered-delivery" and r.reg == 4
                   for r in san.reports)

    def test_unsynchronized_tget_detected(self):
        _, san = run_sanitized(DYN_UNSYNC_TGET)
        assert any(r.kind == "unsynchronized-tget" and r.reg == 5
                   and r.prev_pc == -1 for r in san.reports)

    def test_sanitizer_does_not_perturb_execution(self):
        program = assemble(RACY, word_width=MT.word_width)
        plain = Processor(MT).run(program)
        sanitized = Processor(MT, sanitizer=RaceSanitizer()).run(program)
        assert ResultSnapshot.from_result(plain) \
            == ResultSnapshot.from_result(sanitized)

    def test_reusable_across_runs(self):
        san = RaceSanitizer()
        program = assemble(RACY, word_width=MT.word_width)
        Processor(MT, sanitizer=san).run(program)
        first = [r.to_json() for r in san.reports]
        Processor(MT, sanitizer=san).run(program)
        assert [r.to_json() for r in san.reports] == first


# ---------------------------------------------------------------------------
# Static/dynamic cross-validation
# ---------------------------------------------------------------------------

FIXED_PROGRAMS = {
    "racy": RACY,
    "clean-join": CLEAN_JOIN,
    "dyn-overwrite": DYN_OVERWRITE,
    "dyn-clobber": DYN_CLOBBER,
    "dyn-unsync-tget": DYN_UNSYNC_TGET,
}


@pytest.mark.parametrize("name", sorted(FIXED_PROGRAMS))
def test_fixed_programs_cross_validate(name):
    oracle.check_sanitizer(
        assemble(FIXED_PROGRAMS[name], word_width=MT.word_width), MT)


@oracle.examples(60)
@given(program=programs(control="straight", wild=False, shared=True),
       cfg=machines(threads=(4, 8)))
def test_sanitizer_reports_are_statically_covered(program, cfg):
    """Property A: dynamic reports form a subset of static findings."""
    oracle.check_sanitizer(program, cfg)


@oracle.examples(60)
@given(program=programs(control="straight", wild=False, shared=True))
def test_statically_clean_programs_are_schedule_independent(program):
    """Property B: no concurrency findings -> the scalar-memory image is
    identical under every mt mode and scheduler, and the sanitizer stays
    silent."""
    oracle.check_schedule_independent(program, MODE_GRID)


# ---------------------------------------------------------------------------
# CLI: repro run --sanitize, repro lint exit codes and JSON header
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_sanitize_exit_three_on_race(self, capsys):
        rc = cli_main(["run", str(EXAMPLES / "race_demo.s"), "--sanitize"])
        assert rc == 3
        assert "race(s) detected" in capsys.readouterr().err

    def test_run_sanitize_clean_exit_zero(self, capsys):
        rc = cli_main(["run", str(EXAMPLES / "spawn_pipeline.s"),
                       "--sanitize"])
        assert rc == 0
        assert "no races detected" in capsys.readouterr().out

    def test_run_sanitize_json_payload(self, capsys):
        rc = cli_main(["run", str(EXAMPLES / "race_demo.s"),
                       "--sanitize", "--json"])
        assert rc == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["sanitizer"]["count"] == 1
        (race,) = payload["sanitizer"]["races"]
        assert race["kind"] == "memory-race"
        assert race["addr"] == 20

    def test_run_without_sanitize_has_no_section(self, capsys):
        rc = cli_main(["run", str(EXAMPLES / "race_demo.s"), "--json"])
        assert rc == 0
        assert "sanitizer" not in json.loads(capsys.readouterr().out)

    def test_run_sanitize_json_is_byte_stable(self, capsys):
        cli_main(["run", str(EXAMPLES / "race_demo.s"),
                  "--sanitize", "--json"])
        first = capsys.readouterr().out
        cli_main(["run", str(EXAMPLES / "race_demo.s"),
                  "--sanitize", "--json"])
        assert capsys.readouterr().out == first

    def test_lint_json_header(self, tmp_path, capsys):
        path = tmp_path / "p.s"
        path.write_text(".text\nori s1, s0, 1\nhalt\n")
        assert cli_main(["lint", str(path), "--json", "--pes", "8",
                         "--threads", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert payload["machine"]["pes"] == 8
        assert payload["machine"]["threads"] == 2
        assert payload["machine"]["mt_mode"] == "fine"
        assert payload["machine"]["scheduler"] == "rotating"

    def test_lint_json_is_byte_stable(self, capsys):
        cli_main(["lint", str(EXAMPLES / "race_demo.s"), "--json"])
        first = capsys.readouterr().out
        cli_main(["lint", str(EXAMPLES / "race_demo.s"), "--json"])
        assert capsys.readouterr().out == first

    def test_lint_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.s"
        clean.write_text(".text\nori s1, s0, 1\nhalt\n")
        assert cli_main(["lint", str(clean), "--strict"]) == 0
        assert cli_main(["lint", str(tmp_path / "missing.s")]) == 1
        bad = tmp_path / "bad.s"
        bad.write_text(".text\nnotaninstruction s1\n")
        assert cli_main(["lint", str(bad)]) == 1
        assert cli_main(["lint", str(EXAMPLES / "race_demo.s"),
                         "--strict", "--quiet"]) == 2
        capsys.readouterr()

    def test_lint_kernels_strict_clean(self, capsys):
        assert cli_main(["lint", "--kernels", "--strict", "--quiet"]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Examples regression: the shipped .s files lint exactly as pinned.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.s")), ids=lambda p: p.name)
def test_examples_lint_as_pinned(path, capsys):
    rc = cli_main(["lint", str(path), "--strict", "--json"])
    payload = json.loads(capsys.readouterr().out)
    findings = [d for d in payload["diagnostics"]
                if d["severity"] in ("error", "warning")]
    if path.name == "race_demo.s":
        assert rc == 2
        assert len(findings) == 1
        assert findings[0]["check"] == "cross-thread-race"
        assert findings[0]["data"]["addr"] == 20
    else:
        assert rc == 0
        assert findings == []


# ---------------------------------------------------------------------------
# Serve integration: the sanitize flag is part of the job identity and
# races ride along in the snapshot.
# ---------------------------------------------------------------------------

class TestServe:
    def test_sanitize_flag_changes_job_key(self):
        base = {"name": "r", "source": RACY,
                "config": {"num_pes": 4, "num_threads": 4,
                           "word_width": 16}}
        plain = Job.from_json(dict(base)).prepare()
        sanitized = Job.from_json(dict(base, sanitize=True)).prepare()
        assert plain.key != sanitized.key
        assert sanitized.sanitize

    def test_unknown_field_still_rejected(self):
        with pytest.raises(Exception, match="unknown job field"):
            Job.from_json({"name": "x", "source": RACY, "sanitise": True})

    def test_races_ride_in_snapshot(self):
        job = Job.from_json({
            "name": "r", "source": RACY, "sanitize": True,
            "config": {"num_pes": 4, "num_threads": 4, "word_width": 16}})
        outcome = execute_prepared(job.prepare())
        assert outcome.ok
        races = outcome.snapshot.races
        assert len(races) == 1
        assert races[0]["kind"] == "memory-race"
        assert races[0]["addr"] == 20
        assert outcome.snapshot.to_json()["races"] == races
        restored = pickle.loads(pickle.dumps(outcome.snapshot))
        assert restored == outcome.snapshot

    def test_unsanitized_snapshot_has_no_races(self):
        job = Job.from_json({
            "name": "r", "source": RACY,
            "config": {"num_pes": 4, "num_threads": 4, "word_width": 16}})
        outcome = execute_prepared(job.prepare())
        assert outcome.snapshot.races is None
        assert "races" not in outcome.snapshot.to_json()
