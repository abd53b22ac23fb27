"""Multithreaded differential testing.

Generated race-free programs (no stores, deliveries or unjoined workers,
so every thread's architectural state is schedule-independent) run under
fine-grain, coarse-grain, SMT-2 and the functional backend; each
thread's final state must be identical everywhere.  Catches scheduler
bugs that single-threaded differential testing cannot (lost wakeups,
mis-ordered per-thread issue, cross-thread scoreboard leaks).
"""

from hypothesis import given

from tests.oracle import PROPERTY, check_disciplines, check_issue_accounting
from tests.strategies import machines, programs


class TestMultithreadedEquivalence:
    @PROPERTY
    @given(program=programs(spawn=True, race_free=True, wild=False),
           cfg=machines(threads=(4, 8)))
    def test_all_disciplines_agree_per_thread(self, program, cfg):
        check_disciplines(program, cfg)

    @PROPERTY
    @given(program=programs(spawn=True, wild=False),
           cfg=machines(threads=(4, 8)))
    def test_issue_accounting_invariant(self, program, cfg):
        check_issue_accounting(program, cfg)
