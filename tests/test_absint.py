"""Abstract interpretation: domain algebra, checks, and soundness.

The centrepiece is the fuzzed soundness property: for random
straight-line programs on random machine shapes, every concrete
architectural state the machine passes through is a member of the
abstract state the fixpoint computed for that pc — intervals contain
the register values, flag tri-states admit the flag vectors, and the
lmem address interval covers every lane's effective address.  Abstract
interpretation with a soundness hole produces lint checks that lie, so
this property is the load-bearing test of the whole module.
"""

import pytest
from hypothesis import given

from repro.analysis.absint import (
    BOTTOM,
    TOP,
    F_ONE,
    F_TOP,
    F_ZERO,
    Interval,
    analyze_intervals,
    const,
    f_join,
    flag_allows,
)
from repro.analysis.lint import lint_program
from repro.analysis.timing import static_cycle_bound
from repro.asm.assembler import assemble
from repro.core.config import ProcessorConfig
from repro.core.processor import Processor
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from tests.oracle import check_absint, check_static_bound, examples
from tests.strategies import machines, programs


# ---------------------------------------------------------------------------
# Domain algebra
# ---------------------------------------------------------------------------

class TestIntervalDomain:
    def test_bottom_identity_of_join(self):
        assert BOTTOM.join(const(5)) == const(5)
        assert const(5).join(BOTTOM) == const(5)

    def test_join_is_hull(self):
        assert Interval(2, 4).join(Interval(7, 9)) == Interval(2, 9)

    def test_widen_jumps_to_extremes(self):
        grown = Interval(0, 10).widen(Interval(0, 11))
        assert grown.hi == TOP.hi
        shrunk_lo = Interval(5, 10).widen(Interval(4, 10))
        assert shrunk_lo.lo == 0

    def test_contains_and_const(self):
        assert const(7).is_const
        assert const(7).contains(7)
        assert not const(7).contains(8)
        assert BOTTOM.is_bottom

    def test_flag_lattice_join(self):
        assert f_join(F_ZERO, F_ZERO) == F_ZERO
        assert f_join(F_ZERO, F_ONE) == F_TOP
        assert f_join(F_TOP, F_ONE) == F_TOP

    def test_flag_allows(self):
        import numpy as np

        zeros = np.zeros(4, dtype=bool)
        ones = np.ones(4, dtype=bool)
        mixed = np.array([True, False, True, False])
        assert flag_allows(F_ZERO, zeros) and not flag_allows(F_ZERO, mixed)
        assert flag_allows(F_ONE, ones) and not flag_allows(F_ONE, mixed)
        assert all(flag_allows(F_TOP, v) for v in (zeros, ones, mixed))


# ---------------------------------------------------------------------------
# The four absint-backed lint checks
# ---------------------------------------------------------------------------

def _lint(source: str, **cfg) -> list:
    config = ProcessorConfig(**cfg)
    program = assemble(source, word_width=config.word_width)
    return lint_program(program, config).diagnostics


class TestAbsintChecks:
    def test_lmem_out_of_bounds_error(self):
        diags = _lint(
            """
            .text
            main:
                addi  s1, s0, 100
                pbcast p1, s1
                psw   p2, 0(p1)
                halt
            """,
            lmem_words=64)
        found = [d for d in diags if d.check == "lmem-out-of-bounds"]
        assert found and found[0].severity == "error"

    def test_lmem_in_bounds_is_silent(self):
        diags = _lint(
            """
            .text
            main:
                addi  s1, s0, 3
                pbcast p1, s1
                psw   p2, 0(p1)
                halt
            """,
            lmem_words=64)
        assert not [d for d in diags if d.check == "lmem-out-of-bounds"]

    def test_width_overflow_on_narrow_lui(self):
        diags = _lint(
            """
            .text
            main:
                lui s1, 1
                halt
            """,
            word_width=8)
        assert [d for d in diags if d.check == "width-overflow"]

    def test_dead_search_on_cleared_flag(self):
        diags = _lint(
            """
            .text
            main:
                fclr  f1
                rcount s1, f1
                halt
            """)
        assert [d for d in diags if d.check == "dead-search"]

    def test_live_search_is_silent(self):
        diags = _lint(
            """
            .text
            main:
                pceqi f1, p1, 0
                rcount s1, f1
                halt
            """)
        assert not [d for d in diags if d.check == "dead-search"]

    def test_static_cycle_bound_fires_when_watchdog_too_small(self):
        source = """
            .text
            main:
                addi s1, s0, 1
                halt
        """
        program = assemble(source)
        bound = static_cycle_bound(program, ProcessorConfig())
        assert bound is not None and bound > 0


class TestStaticCycleBound:
    def test_no_bound_for_loops(self):
        program = assemble(
            """
            .text
            main:
                addi s1, s1, 1
                bne  s1, s2, main
                halt
            """)
        assert static_cycle_bound(program, ProcessorConfig()) is None

    def test_no_bound_with_threads(self):
        program = assemble(
            """
            .text
            main:
                tspawn s1, worker
                tjoin  s1
                halt
            worker:
                texit
            """)
        assert static_cycle_bound(program, ProcessorConfig()) is None

    def test_no_bound_on_model_fetch_machines(self):
        """The block summaries do not model fetch, so no bound there."""
        program = assemble(".text\naddi s1, s0, 1\nhalt\n")
        assert static_cycle_bound(
            program, ProcessorConfig(model_fetch=True)) is None

    def test_long_straight_line_code_raises_no_false_alarm(self):
        """3,000 addi halt in 3,001 cycles, inside max_cycles=100,000."""
        source = ".text\n" + "addi s1, s1, 1\n" * 3000 + "halt\n"
        cfg = ProcessorConfig(max_cycles=100_000)
        program = assemble(source)
        assert static_cycle_bound(program, cfg) == 3001
        assert Processor(cfg).run(program).stats.cycles == 3001
        assert not [d for d in _lint(source, max_cycles=100_000)
                    if d.check == "static-cycle-bound"]

    def test_finding_carries_the_exact_bound(self):
        source = ".text\n" + "addi s1, s1, 1\n" * 30 + "halt\n"
        diags = [d for d in _lint(source, max_cycles=20)
                 if d.check == "static-cycle-bound"]
        assert [(d.severity, d.data) for d in diags] == [
            ("warning", {"bound": 31, "max_cycles": 20})]

    @pytest.mark.parametrize(
        "name", ["count_matches", "image_threshold", "vector_mac"])
    def test_bound_dominates_measured_cycles(self, name):
        """The bound is sound: actual cycle counts never exceed it."""
        kern = ALL_KERNEL_BUILDERS[name](8)
        cfg = ProcessorConfig(word_width=kern.word_width, num_pes=8,
                              lmem_words=max(kern.min_lmem_words, 64))
        program = assemble(kern.source, word_width=kern.word_width)
        bound = static_cycle_bound(program, cfg)
        if bound is None:
            pytest.skip(f"kernel {name} has no static bound (loops)")
        proc = Processor(cfg)
        proc.load(program)
        proc.pe.load_lmem(kern.lmem.items())
        result = proc.run(max_cycles=bound)
        assert result.stats.cycles <= bound


# ---------------------------------------------------------------------------
# Fuzzed soundness: dynamic state ⊆ static abstraction, at every pc
# ---------------------------------------------------------------------------

STRAIGHT = programs(spawn=False, control="straight")


@examples(150)
@given(program=STRAIGHT, cfg=machines())
def test_absint_is_sound_on_straight_line_programs(program, cfg):
    """Zero false negatives: at every executed pc the concrete machine
    state is a member of the abstract state the fixpoint computed."""
    check_absint(program, cfg)


@examples(50)
@given(program=STRAIGHT, cfg=machines())
def test_static_cycle_bound_is_sound(program, cfg):
    """For straight-line programs the proven bound dominates reality,
    measured without a cycle limit: an unsound bound must show as
    cycles above it, not as a SimTimeout the test would swallow."""
    check_static_bound(program, cfg)


@examples(50)
@given(program=STRAIGHT, cfg=machines())
def test_static_cycle_bound_is_exact_on_straight_line_programs(program,
                                                               cfg):
    """Straight-line code has one path, and the bound is its cycles."""
    check_static_bound(program, cfg, exact=True)


# ---------------------------------------------------------------------------
# Kernel-library coverage: the abstraction holds on real programs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
def test_kernels_analyze_without_bottom_surprises(name):
    """Every reachable pc of every kernel gets a non-bottom state."""
    kern = ALL_KERNEL_BUILDERS[name](16)
    cfg = ProcessorConfig(word_width=kern.word_width,
                          num_pes=max(kern.min_pes, 16),
                          lmem_words=max(kern.min_lmem_words, 64))
    program = assemble(kern.source, word_width=kern.word_width)
    res = analyze_intervals(program, cfg)
    reachable = [pc for pc, st in enumerate(res.before) if st is not None]
    assert reachable, f"kernel {name}: nothing reachable?"
    for pc in reachable:
        state = res.before[pc]
        assert not any(iv.is_bottom for iv in state.sregs)
        assert not any(iv.is_bottom for iv in state.pregs)
