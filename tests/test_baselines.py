"""Baseline machine tests: legacy cost models, ordering, related work."""

import pytest

from repro.asm import assemble
from repro.baselines import (
    HOARE_2004,
    LI_2003,
    MT_ASC_PROTOTYPE,
    NonPipelinedMachine,
    RELATED_MACHINES,
    instruction_cost,
    multithreaded_asc,
    nonpipelined_config,
    pipelined_asc_2005,
    single_threaded_pipelined_asc,
)
from repro.core import MTMode, ProcessorConfig, SimulationError
from repro.core.config import DividerKind
from repro.isa.opcodes import OPCODES
from repro.programs import assoc_max_extract, run_kernel
from repro.programs.runner import extract_outputs


class TestConfigFactories:
    def test_multithreaded_asc_is_paper_default(self):
        cfg = multithreaded_asc()
        assert cfg.num_threads == 16
        assert cfg.pipelined_broadcast and cfg.pipelined_reduction
        assert cfg.mt_mode is MTMode.FINE

    def test_single_threaded_ablation(self):
        cfg = single_threaded_pipelined_asc(num_pes=64)
        assert cfg.num_threads == 1
        assert cfg.pipelined_broadcast

    def test_2005_machine_has_unpipelined_network(self):
        cfg = pipelined_asc_2005(num_pes=50)
        assert not cfg.pipelined_broadcast
        assert not cfg.pipelined_reduction
        assert cfg.broadcast_depth == 1

    def test_nonpipelined_config_single_thread(self):
        cfg = nonpipelined_config()
        assert cfg.num_threads == 1


class TestInstructionCost:
    def test_scalar_cost(self):
        cfg = nonpipelined_config(word_width=8)
        assert instruction_cost(OPCODES["add"], cfg, taken=False) == 4

    def test_parallel_cost(self):
        cfg = nonpipelined_config()
        assert instruction_cost(OPCODES["padd"], cfg, taken=False) == 5

    def test_maxmin_uses_falkoff(self):
        cfg = nonpipelined_config(word_width=8)
        assert instruction_cost(OPCODES["rmax"], cfg, taken=False) == 5 + 7
        cfg16 = nonpipelined_config(word_width=16)
        assert instruction_cost(OPCODES["rmax"], cfg16, taken=False) == 5 + 15

    def test_logic_reduction_single_settle(self):
        cfg = nonpipelined_config()
        assert instruction_cost(OPCODES["ror"], cfg, taken=False) == 5

    def test_taken_branch_redirect(self):
        cfg = nonpipelined_config()
        assert instruction_cost(OPCODES["beq"], cfg, True) == 5
        assert instruction_cost(OPCODES["beq"], cfg, False) == 4

    def test_sequential_multiplier(self):
        cfg = nonpipelined_config(word_width=8)
        assert instruction_cost(OPCODES["pmul"], cfg, False) == 5 + 7


class TestNonPipelinedMachine:
    def test_results_match_pipelined_machines(self):
        kernel = assoc_max_extract(16, rounds=4)
        cfg = nonpipelined_config(16, 16)
        machine = NonPipelinedMachine(cfg)
        machine.load(assemble(kernel.source, 16))
        machine.pe.load_lmem(kernel.lmem.items())
        result = machine.run()
        measured = extract_outputs(kernel, result)
        assert measured == {k: int(v) for k, v in kernel.expected.items()}

    def test_slower_than_pipelined(self):
        kernel = assoc_max_extract(16, rounds=6)
        cfg = nonpipelined_config(16, 16)
        machine = NonPipelinedMachine(cfg)
        machine.load(assemble(kernel.source, 16))
        machine.pe.load_lmem(kernel.lmem.items())
        legacy_cycles = machine.run().cycles

        mt = run_kernel(kernel, ProcessorConfig(num_pes=16, word_width=16))
        assert legacy_cycles > mt.result.cycles

    def test_rejects_multithreaded_config(self):
        with pytest.raises(ValueError):
            NonPipelinedMachine(ProcessorConfig(num_pes=4, num_threads=4,
                                                word_width=8))

    def test_instruction_count_tracked(self):
        machine = NonPipelinedMachine(nonpipelined_config(4))
        result = machine.run(assemble(".text\nli s1, 1\nhalt\n", 8))
        assert result.stats.instructions == 2
        assert result.cycles == 8

    def test_an_op_the_machine_lacks_raises_the_cores_error(self):
        cfg = nonpipelined_config(4, divider=DividerKind.NONE)
        program = assemble(".text\nli s1, 7\nli s2, 2\nsdiv s3, s1, s2\n"
                           "halt\n", 8)
        with pytest.raises(SimulationError) as exc:
            NonPipelinedMachine(cfg).run(program)
        assert str(exc.value) == ("sdiv needs a divider but none is "
                                  f"configured, at {program.location_of(2)}")


class TestGenerationOrdering:
    """The paper's narrative: each generation is faster than the last."""

    def test_three_generations_ordered(self):
        kernel = assoc_max_extract(16, rounds=6)
        # Generation 1/2: non-pipelined.
        machine = NonPipelinedMachine(nonpipelined_config(16, 16))
        machine.load(assemble(kernel.source, 16))
        machine.pe.load_lmem(kernel.lmem.items())
        gen2 = machine.run().cycles
        # Generation 3: pipelined execution, unpipelined network.
        gen3 = run_kernel(kernel, pipelined_asc_2005(16, 16)).cycles
        # Generation 4: this paper (even with a single active thread the
        # pipelined network wins on this kernel).
        gen4 = run_kernel(kernel,
                          multithreaded_asc(16, word_width=16)).cycles
        assert gen2 > gen3 > gen4


class TestRelatedWork:
    def test_headline_characteristics(self):
        assert LI_2003.num_pes == 95 and LI_2003.fmax_mhz == 68.0
        assert not LI_2003.pipelined_broadcast
        assert HOARE_2004.num_pes == 88 and HOARE_2004.fmax_mhz == 121.0
        assert HOARE_2004.pipelined_broadcast
        assert not HOARE_2004.pipelined_execution
        assert MT_ASC_PROTOTYPE.multithreaded

    def test_runtime_model(self):
        # 1000 instructions on [10]: 4000 cycles at 68 MHz.
        assert LI_2003.runtime_us(1000) == pytest.approx(4000 / 68.0)
        assert HOARE_2004.runtime_us(1000) == pytest.approx(3000 / 121.0)

    def test_three_machines_registered(self):
        assert len(RELATED_MACHINES) == 3
        names = {m.name for m in RELATED_MACHINES}
        assert len(names) == 3
