"""Translation validation: proofs, refutations, and the verify surfaces.

Three layers under test.  The validator itself
(:func:`repro.analysis.equiv.validate_programs`) must *prove* every
legal schedule (completeness — asserted over the kernel library and
fuzzed programs) and *refute* every illegal one with a pc-level
counterexample (soundness — asserted with a deliberately broken
scheduler mutation).  On top of it sit the three user surfaces:
``schedule_program_verified``, the asclang ``validate=True`` pipeline,
the ``repro verify`` CLI command (exit 4 on refutation), and the
serve-job ``"verify": true`` flag.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

import repro.opt.scheduler as sched_mod
from repro.analysis.equiv import (
    VERIFY_JSON_SCHEMA,
    validate_programs,
)
from repro.asclang import AscLangError, AscProgram
from repro.asm.assembler import assemble
from repro.asm.program import Program
from repro.cli import main
from repro.core.config import ProcessorConfig
from repro.isa.instruction import Instruction
from repro.opt.scheduler import schedule_program_verified
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from tests.strategies import instructions, machine_configs

# A RAW chain: any reorder of the first three instructions is illegal.
DEPENDENT_CHAIN = """
.text
main:
    addi s1, s0, 5
    addi s2, s1, 1
    add  s3, s1, s2
    halt
"""


def _broken_schedule_block_order(instrs, cfg):
    """A deliberately-illegal scheduler: swaps the first two slots of
    every block big enough to have them, dependences be damned."""
    order = _ORIGINAL_ORDER(instrs, cfg)
    if len(order) >= 3:
        order = list(order)
        order[0], order[1] = order[1], order[0]
    return order


_ORIGINAL_ORDER = sched_mod.schedule_block_order


@pytest.fixture
def broken_scheduler(monkeypatch):
    monkeypatch.setattr(sched_mod, "schedule_block_order",
                        _broken_schedule_block_order)


# ---------------------------------------------------------------------------
# The validator itself
# ---------------------------------------------------------------------------

class TestValidator:
    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_every_kernel_schedule_is_proved(self, name):
        kern = ALL_KERNEL_BUILDERS[name](16)
        cfg = ProcessorConfig(word_width=kern.word_width,
                              num_pes=max(kern.min_pes, 16),
                              lmem_words=max(kern.min_lmem_words, 64))
        program = assemble(kern.source, word_width=kern.word_width)
        scheduled, report = schedule_program_verified(program, cfg)
        assert report.equivalent, report.format()
        assert report.blocks_checked > 0
        assert len(scheduled.instructions) == len(program.instructions)

    def test_independent_swap_is_proved(self):
        """Completeness: a legal reorder of independent instructions is
        equivalent, not a false alarm."""
        original = assemble(
            ".text\nmain:\n  addi s1, s0, 1\n  addi s2, s0, 2\n  halt\n")
        swapped = Program(
            instructions=[original.instructions[1],
                          original.instructions[0],
                          original.instructions[2]],
            entry=original.entry)
        report = validate_programs(original, swapped, 16)
        assert report.equivalent, report.format()

    def test_dependent_swap_is_refuted_with_pc_counterexample(self):
        original = assemble(DEPENDENT_CHAIN)
        swapped = Program(
            instructions=[original.instructions[1],
                          original.instructions[0]]
            + list(original.instructions[2:]),
            entry=original.entry)
        report = validate_programs(original, swapped, 16)
        assert not report.equivalent
        locations = {m.location for m in report.mismatches}
        # s2 is computed from a stale s1; s3 inherits the poison.
        assert "s2" in locations and "s3" in locations
        s2 = next(m for m in report.mismatches if m.location == "s2")
        assert s2.original_pc == 1 and s2.transformed_pc == 0
        payload = report.to_json()
        assert payload["equivalent"] is False
        assert any(m["location"] == "s2"
                   and m["original_pc"] == 1 and m["transformed_pc"] == 0
                   for m in payload["mismatches"])
        assert "REFUTED" in report.format()

    def test_length_mismatch_is_structural(self):
        original = assemble(".text\nmain:\n  addi s1, s0, 1\n  halt\n")
        truncated = Program(instructions=list(original.instructions[1:]),
                            entry=0)
        report = validate_programs(original, truncated, 16)
        assert not report.equivalent
        assert report.mismatches[0].location == "structure"

    def test_memory_reorder_is_refuted(self):
        """Two stores to potentially-equal addresses must keep order."""
        original = assemble(
            """
            .text
            main:
                sw s1, 0(s4)
                sw s2, 0(s5)
                halt
            """)
        swapped = Program(
            instructions=[original.instructions[1],
                          original.instructions[0],
                          original.instructions[2]],
            entry=original.entry)
        report = validate_programs(original, swapped, 16)
        assert not report.equivalent
        assert any(m.location == "smem" for m in report.mismatches)

    def test_event_reorder_is_refuted(self):
        """Cross-thread effects are an ordered sequence, never commuted."""
        original = assemble(
            """
            .text
            main:
                tput s1, s2, 3
                tput s1, s3, 4
                halt
            """)
        swapped = Program(
            instructions=[original.instructions[1],
                          original.instructions[0],
                          original.instructions[2]],
            entry=original.entry)
        report = validate_programs(original, swapped, 16)
        assert not report.equivalent
        assert any(m.location == "events" for m in report.mismatches)


def _straight_line(instr) -> bool:
    spec = instr.spec
    return not (spec.is_branch or spec.is_jump or spec.is_halt
                or spec.is_thread_op)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(body=hs.lists(instructions().filter(_straight_line),
                     min_size=1, max_size=24),
       cfg=machine_configs(max_pes=8))
def test_scheduler_output_is_always_proved(body, cfg):
    """Completeness under fuzz: the validator never refutes a legal
    schedule, whatever the dependence structure thrown at it."""
    program = Program(instructions=body + [Instruction("halt")])
    _, report = schedule_program_verified(program, cfg)
    assert report.equivalent, report.format()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(body=hs.lists(instructions().filter(_straight_line),
                     min_size=3, max_size=12),
       cfg=machine_configs(max_pes=8))
def test_broken_scheduler_never_proves_a_semantic_change(body, cfg):
    """Soundness under fuzz: force an arbitrary first-two swap; if the
    validator proves it, the swapped pair must truly be independent —
    running both programs must give identical architectural state."""
    import numpy as np

    from repro.core.processor import Processor

    program = Program(instructions=body + [Instruction("halt")])
    order = _ORIGINAL_ORDER(program.instructions, cfg)
    swapped_order = list(order)
    swapped_order[0], swapped_order[1] = swapped_order[1], swapped_order[0]
    mutated = Program(
        instructions=[program.instructions[i] for i in swapped_order],
        entry=program.entry)
    report = validate_programs(program, mutated, cfg.word_width)
    if not report.equivalent:
        return                         # refutations need no cross-check
    outs = []
    for prog in (program, mutated):
        proc = Processor(cfg)
        proc.load(prog)
        try:
            proc.run(max_cycles=100_000)
        except Exception:
            return                     # faulting programs prove nothing
        outs.append((list(proc.threads[0].sregs),
                     proc.pe.regs.tolist(),
                     proc.pe.flags.astype(np.int64).tolist(),
                     proc.mem.dump(0, proc.mem.words)))
    assert outs[0] == outs[1], "validator proved a semantic change"


# ---------------------------------------------------------------------------
# schedule_program_verified + the broken-scheduler mutation
# ---------------------------------------------------------------------------

class TestVerifiedScheduling:
    def test_refutes_broken_scheduler(self, broken_scheduler):
        program = assemble(DEPENDENT_CHAIN)
        scheduled, report = schedule_program_verified(
            program, ProcessorConfig())
        assert not report.equivalent
        # The scheduled program comes back anyway, for inspection.
        assert len(scheduled.instructions) == len(program.instructions)
        assert any(m.original_pc is not None for m in report.mismatches)


# ---------------------------------------------------------------------------
# asclang validate=True
# ---------------------------------------------------------------------------

class TestAscLangValidation:
    def _query(self):
        prog = AscProgram(width=16)
        v = prog.load_field(0)
        prog.output(prog.count(v == 5), "hits")
        return prog

    def test_validated_compile_attaches_proof(self):
        query = self._query().compile(optimize=True, validate=True)
        assert query.validation is not None
        assert query.validation.equivalent
        assert query.validation.transform == "asclang.compile(optimize=True)"

    def test_validate_requires_optimize(self):
        with pytest.raises(AscLangError, match="requires optimize=True"):
            self._query().compile(validate=True)

    def test_validated_compile_raises_on_refutation(self, broken_scheduler):
        with pytest.raises(AscLangError, match="refuted"):
            self._query().compile(optimize=True, validate=True)


# ---------------------------------------------------------------------------
# The repro verify CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.s"
    path.write_text(DEPENDENT_CHAIN)
    return str(path)


class TestVerifyCli:
    def test_verify_proves_a_file(self, chain_file, capsys):
        assert main(["verify", chain_file]) == 0
        assert "proved equivalent" in capsys.readouterr().out

    def test_verify_kernels(self, capsys):
        assert main(["verify", "--kernels"]) == 0
        out = capsys.readouterr().out
        assert out.count("proved equivalent") == len(ALL_KERNEL_BUILDERS)

    def test_verify_json_payload(self, chain_file, capsys):
        assert main(["verify", chain_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == VERIFY_JSON_SCHEMA
        assert payload["equivalent"] is True
        assert payload["transform"] == "opt.scheduler"
        assert payload["mismatches"] == []

    def test_verify_exit_4_with_counterexample(self, chain_file, capsys,
                                               broken_scheduler):
        assert main(["verify", chain_file, "--json"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is False
        mism = payload["mismatches"]
        assert mism and all({"location", "original", "transformed",
                             "original_pc", "transformed_pc", "block"}
                            <= set(m) for m in mism)

    def test_verify_missing_file_exit_1(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.s")]) == 1

    def test_verify_no_targets_exit_1(self):
        assert main(["verify"]) == 1


# ---------------------------------------------------------------------------
# Serve jobs with "verify": true
# ---------------------------------------------------------------------------

class TestServeVerify:
    def test_verify_flag_changes_the_cache_key(self):
        from repro.serve.jobs import Job

        plain = Job(name="a", source=DEPENDENT_CHAIN).prepare()
        verified = Job(name="a", source=DEPENDENT_CHAIN,
                       verify=True).prepare()
        assert plain.key != verified.key

    def test_verified_job_carries_proof_summary(self):
        from repro.serve.jobs import Job
        from repro.serve.pool import execute_prepared

        outcome = execute_prepared(
            Job(name="a", source=DEPENDENT_CHAIN, verify=True).prepare())
        assert outcome.ok
        verify = outcome.snapshot.verify
        assert verify is not None and verify["equivalent"] is True
        assert outcome.snapshot.to_json()["verify"] == verify

    def test_verified_job_matches_plain_outputs(self):
        import numpy as np

        from repro.serve.jobs import Job
        from repro.serve.pool import execute_prepared

        plain = execute_prepared(
            Job(name="a", source=DEPENDENT_CHAIN).prepare())
        verified = execute_prepared(
            Job(name="a", source=DEPENDENT_CHAIN, verify=True).prepare())
        assert plain.ok and verified.ok
        assert np.array_equal(verified.snapshot.scalars,
                              plain.snapshot.scalars)
        assert np.array_equal(verified.snapshot.mem_words,
                              plain.snapshot.mem_words)

    def test_refuted_job_fails_with_report(self, broken_scheduler):
        from repro.serve.jobs import Job
        from repro.serve.pool import STATUS_ERROR, execute_prepared

        outcome = execute_prepared(
            Job(name="a", source=DEPENDENT_CHAIN, verify=True).prepare())
        assert outcome.status == STATUS_ERROR
        assert "refuted" in outcome.error
        assert outcome.snapshot is None

    def test_job_json_round_trip_carries_verify(self):
        from repro.serve.jobs import Job

        job = Job.from_json({"name": "a", "source": DEPENDENT_CHAIN,
                             "verify": True})
        assert job.verify is True
        assert Job.from_json(
            {"name": "a", "source": DEPENDENT_CHAIN}).verify is False
