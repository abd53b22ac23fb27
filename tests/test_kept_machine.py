"""A kept machine is a fresh machine.

The serve tier runs every hook-free job on a machine it keeps per
configuration (:class:`repro.core.processor.MachineKeeper`), reset in
place between programs.  :func:`tests.oracle.check_kept_machine` states
the promise that makes this sound; here it runs over generated programs
(stores to local memory, spawns, watchdog stops and pc errors among the
runs before) and after every library kernel, on both backends, and the
keeper's own rules are checked.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.assoc.fastpath import FastMachine
from repro.core import Processor
from repro.core.processor import MachineKeeper
from repro.faults import FaultPlane
from repro.pe.pe_array import PEArray
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from tests.golden import KERNEL_VARIANTS
from tests.oracle import PROPERTY, check_kept_machine, examples
from tests.strategies import machine, machines, programs

BACKENDS = (Processor, FastMachine)

#: Local-memory images for the generated machines (16 local words).
IMAGES = st.dictionaries(
    st.integers(0, 15), st.lists(st.integers(-3, (1 << 16) + 3), max_size=17),
    max_size=3)

#: A run before the one compared: program, image, and a cycle limit that
#: may stop it at the watchdog.
RUNS = st.tuples(programs(), IMAGES, st.sampled_from((None, 4, 40)))


@examples(40)
@given(before=st.lists(RUNS, min_size=1, max_size=2), program=programs(),
       lmem=IMAGES, cfg=machines(fetch=True),
       backend=st.sampled_from(BACKENDS))
def test_a_kept_machine_is_a_fresh_machine(before, program, lmem, cfg,
                                           backend):
    check_kept_machine(backend, before, program, cfg, lmem)


def _kernel_run(name, cfg):
    kern = ALL_KERNEL_BUILDERS[name](cfg.num_pes)
    from repro.asm.assembler import assemble
    return assemble(kern.source, word_width=cfg.word_width), kern.lmem, None


@pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
@PROPERTY
@given(program=programs(), variant=st.sampled_from(KERNEL_VARIANTS),
       backend=st.sampled_from(BACKENDS))
def test_after_a_kernel_a_kept_machine_is_fresh(name, program, variant,
                                               backend):
    """Every kernel (multiword_add stores to local memory, reduction_storm
    spawns, mst_prim loads 18 columns) before a generated program."""
    cfg = machine(variant, threads=8, pes=16, width=16, lmem_words=32,
                  scalar_mem_words=128)
    check_kept_machine(backend, [_kernel_run(name, cfg)], program, cfg)


#: Pairs of instructions that differ in one operand field.
TWINS = {"rd": ("paddi p1, p0, 5", "paddi p2, p0, 5"),
         "rs": ("padd p3, p1, p2", "padd p3, p2, p2"),
         "rt": ("padd p3, p1, p1", "padd p3, p1, p2"),
         "mf": ("paddi p1, p1, 5 [f1]", "paddi p1, p1, 5 [f2]"),
         "imm": ("paddi p1, p1, 5", "paddi p1, p1, 6")}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field", sorted(TWINS))
def test_ops_that_differ_in_one_operand_are_not_shared(field, backend):
    """The op memo keys every operand: the second program's op is not
    the first's."""
    from repro.asm.assembler import Assembler

    cfg = machine(threads=1, pes=4, width=16)
    first, second = (Assembler(16).assemble(
        ".text\n    li s1, 3\n    pbcast p1, s1\n    li s2, 9\n"
        f"    pbcast p2, s2\n    fset f1\n    {line}\n    halt\n")
        for line in TWINS[field])
    check_kept_machine(backend, [(first, None, None)], second, cfg)


class TestKeeper:
    def cfg(self, pes=4, **kw):
        return machine(threads=2, pes=pes, **kw)

    def test_a_hook_free_run_gets_the_machine_the_last_one_returned(self):
        keeper = MachineKeeper()
        with keeper.machine(Processor, self.cfg()) as first:
            pass
        with keeper.machine(Processor, self.cfg()) as again:
            assert again is first
        with keeper.machine(FastMachine, self.cfg()) as fast:
            assert fast is not first        # one per class and config
        with keeper.machine(Processor, self.cfg(pes=8)) as other:
            assert other is not first       # and per config values
        assert keeper.stats() == {"hits": 1, "misses": 3, "evictions": 0,
                                  "entries": 3}

    def test_a_hooked_run_gets_a_fresh_machine_never_kept(self):
        keeper = MachineKeeper()
        cfg = self.cfg()
        plane = FaultPlane([], cfg)
        with keeper.machine(Processor, cfg, faults=plane) as proc:
            assert proc.faults is plane
        assert keeper.stats()["entries"] == 0
        with keeper.machine(Processor, cfg) as proc:
            assert proc.faults is None

    def test_a_run_that_raises_drops_its_machine(self):
        keeper = MachineKeeper()
        with pytest.raises(RuntimeError):
            with keeper.machine(Processor, self.cfg()):
                raise RuntimeError("boom")
        assert keeper.stats()["entries"] == 0

    def test_idle_machines_are_bounded_in_count_and_bytes(self):
        one = PEArray.state_bytes(self.cfg())
        keeper = MachineKeeper(entries=2, budget=3 * one)
        for pes in (4, 5, 6):
            with keeper.machine(Processor, self.cfg(pes=pes)):
                pass
        assert keeper.stats() == {"hits": 0, "misses": 3, "evictions": 1,
                                  "entries": 2}
        big = self.cfg(lmem_words=1 << 16)
        assert PEArray.state_bytes(big) > keeper.budget
        with keeper.machine(Processor, big):
            pass                            # too big to keep idle
        assert keeper.stats()["entries"] == 2
        keeper.clear()
        assert keeper.stats()["entries"] == 0

    def test_the_op_memo_is_bounded(self, monkeypatch):
        from repro.asm.assembler import Assembler
        from repro.core import execute

        monkeypatch.setattr(execute, "OP_MEMO_ENTRIES", 8)
        proc = Processor(dataclasses.replace(self.cfg(), word_width=16))
        for k in range(3):
            body = "".join(f"    paddi p1, p1, {k * 10 + i}\n"
                           for i in range(10))
            proc.run(Assembler(16).assemble(f".text\n{body}    halt\n"))
        assert len(proc._compiler.memo) == 8
