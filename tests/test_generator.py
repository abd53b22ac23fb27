"""The program generator emits every construct the oracle relies on.

A fixed sample of the shape :func:`tests.strategies.programs` draws for
the conservation test (derandomized, so the same draws every run) must
hold every body opcode, every skeleton construct (the fold's delivery
and join events in spawn-free programs included) and, run across
``MODE_GRID`` as the conservation test runs them, the common wait causes.
"""

from collections import Counter

from hypothesis import Phase, given, settings

from repro.core import Processor
from repro.core import stats as stx
from repro.core.execute import fuse_scalar_runs
from tests.strategies import BODY_MNEMONICS, MODE_GRID, programs

SAMPLE = 300
SKELETON = ("tspawn", "tjoin", "tput", "tget", "texit", "halt", "jal", "jr")
SHAPES = ("spawn-free", "spawning", "loop", "forward-branch",
          "taken-forward-branch", "masked", "fused-run", "self-tput",
          "self-tget", "spawn-free-tjoin")
#: The waits every 300-program sample reached over eight seeds here.
#: Broadcast, broadcast-reduction and parallel RAW waits come from rarer
#: pairs and reach most samples, not all; the coarse switch penalty is
#: counted by no machine.
WAIT_CAUSES = (stx.STALL_CONTROL, stx.STALL_JOIN, stx.STALL_RAW_SCALAR,
               stx.STALL_REDUCTION, stx.STALL_STRUCTURAL, stx.STALL_WAW)


def constructs(program):
    """The opcodes and shapes one program holds."""
    out = {ins.mnemonic for ins in program.instructions}
    out.add("spawning" if "tspawn" in out else "spawn-free")
    for ins in program.instructions:
        if ins.spec.is_branch:
            out.add("forward-branch" if ins.imm >= 0 else "loop")
            if ins.imm >= 0 and ins.rd == ins.rs and ins.mnemonic in (
                    "beq", "bge"):
                out.add("taken-forward-branch")
        if ins.spec.masked and ins.mf:
            out.add("masked")
        # The fold's delivery and join events in a spawn-free program.
        if ins.mnemonic == "tput" and ins.rd == 0:
            out.add("self-tput")
        if ins.mnemonic == "tget" and ins.rs == 0:
            out.add("self-tget")
    if "tjoin" in out and "spawn-free" in out:
        out.add("spawn-free-tjoin")
    if any(fuse_scalar_runs(program, 16)):
        out.add("fused-run")
    return out


def test_generator_covers_every_construct():
    seen, causes, draws = Counter(), Counter(), []

    @settings(max_examples=SAMPLE, derandomize=True, database=None,
              deadline=None, phases=[Phase.generate])
    @given(programs(wild=False, shared=True))
    def sample(program):
        seen.update(constructs(program))
        draws.append(program)
        cfg = MODE_GRID[len(draws) % len(MODE_GRID)]
        causes.update(cause for cause, n in
                      Processor(cfg).run(program).stats.wait_cycles.items()
                      if n)

    sample()
    assert len(draws) == SAMPLE
    missing = [c for c in (*BODY_MNEMONICS, *SKELETON, *SHAPES)
               if not seen[c]]
    assert not missing, missing
    assert set(WAIT_CAUSES) <= set(causes), causes
