"""Differential testing: generated programs on the shared machine axis.

Draws terminating spawn-free programs (full-ISA bodies in straight-line
code, forward branches, counted loops and calls) and checks through
:mod:`tests.oracle` that the cycle-accurate core in every configuration,
the fast backend, the functional backend and the statically rescheduled
binary produce bit-identical architectural state.  Any divergence
between the timing model's issue order and true program order, any
forwarding-window bug, any fold or scheduler-legality bug shows up as a
state or ``Stats`` mismatch.
"""

from hypothesis import given, strategies as st

from repro.core import Processor
from tests.oracle import (
    PROPERTY,
    check_backends,
    check_functional,
    check_schedule,
    examples,
    outcome,
)
from tests.strategies import machine, machines, programs


class TestRandomProgramEquivalence:
    @examples(40)
    @given(program=programs(spawn=False),
           cfgs=st.lists(machines(fetch=True, unitless=True),
                         min_size=5, max_size=5))
    def test_all_backends_agree(self, program, cfgs):
        for cfg in cfgs:
            check_backends(program, cfg)
            check_functional(program, cfg)

    @PROPERTY
    @given(program=programs(spawn=False), cfg=machines())
    def test_static_scheduling_preserves_state(self, program, cfg):
        check_schedule(program, cfg)

    @PROPERTY
    @given(program=programs(spawn=False, wild=False),
           pes=st.sampled_from([4, 16, 64]))
    def test_pe_count_never_changes_scalar_semantics_shape(self, program,
                                                           pes):
        """Timing knobs (PE count changes b, r) must not change *whether*
        the program completes or how many instructions retire: it
        completes on both machines, or deadlocks alike on both (a join of
        handle 1 joins the only thread)."""
        runs = [outcome(Processor, program, machine(threads=1, pes=p))
                for p in (pes, pes * 2)]
        if runs[0][0] == "raise":
            assert runs[1] == runs[0], runs
            assert runs[0][1][1].startswith("deadlock:"), runs
        else:
            assert [kind for kind, _ in runs] == ["ok", "ok"], runs
            assert len({stats.instructions for _, (stats, _) in runs}) == 1
