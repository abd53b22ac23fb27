"""High-level AscContext API and functional-backend equivalence tests."""

import pytest
from hypothesis import given, strategies as st

from repro.assoc import AscContext, AscError, run_functional
from repro.core import ProcessorConfig, run_program
from repro.util.bitops import to_signed


class TestAscContextFields:
    def test_add_and_read_field(self):
        ctx = AscContext(4, width=8)
        ctx.add_field("x", [1, 2, 3, 4])
        assert ctx.field_values("x").tolist() == [1, 2, 3, 4]

    def test_scalar_fill(self):
        ctx = AscContext(3)
        ctx.add_field("x", 7)
        assert ctx.field_values("x").tolist() == [7, 7, 7]

    def test_values_wrap_at_width(self):
        ctx = AscContext(2, width=8)
        ctx.add_field("x", [300, -1])
        assert ctx.field_values("x").tolist() == [44, 255]

    def test_signed_view(self):
        ctx = AscContext(2, width=8)
        ctx.add_field("x", [0xFF, 1])
        assert ctx.field_values("x", signed=True).tolist() == [-1, 1]

    def test_duplicate_field(self):
        ctx = AscContext(2)
        ctx.add_field("x")
        with pytest.raises(AscError):
            ctx.add_field("x")

    def test_unknown_field(self):
        with pytest.raises(AscError):
            AscContext(2).field("nope")

    def test_fields_listing(self):
        ctx = AscContext(2)
        ctx.add_field("a")
        ctx.add_field("b")
        assert ctx.fields == ("a", "b")

    def test_needs_cells(self):
        with pytest.raises(AscError):
            AscContext(0)


class TestSearchesAndResponders:
    def setup_method(self):
        self.ctx = AscContext(6, width=16)
        self.ctx.add_field("v", [5, 10, 15, 10, 20, 10])

    def test_eq_search(self):
        resp = self.ctx["v"] == 10
        assert len(resp) == 3

    def test_comparison_searches(self):
        assert len(self.ctx["v"] > 10) == 2
        assert len(self.ctx["v"] >= 10) == 5
        assert len(self.ctx["v"] < 10) == 1
        assert len(self.ctx["v"] != 10) == 3

    def test_signed_comparison(self):
        ctx = AscContext(2, width=8)
        ctx.add_field("v", [0xFF, 1])     # -1, 1 signed
        assert len(ctx["v"] < 0) == 1

    def test_combined_responders(self):
        both = (self.ctx["v"] >= 10) & (self.ctx["v"] <= 15)
        assert len(both) == 4
        either = (self.ctx["v"] == 5) | (self.ctx["v"] == 20)
        assert len(either) == 2
        neither = ~either
        assert len(neither) == 4

    def test_any_and_count(self):
        assert self.ctx.any(self.ctx["v"] == 10)
        assert not self.ctx.any(self.ctx["v"] == 99)
        assert self.ctx.count(self.ctx["v"] == 99) == 0

    def test_pick_one_is_first(self):
        resp = self.ctx["v"] == 10
        assert self.ctx.pick_one(resp) == 1

    def test_pick_one_empty(self):
        assert self.ctx.pick_one(self.ctx["v"] == 99) is None

    def test_each_responder_order(self):
        resp = self.ctx["v"] == 10
        assert list(self.ctx.each_responder(resp)) == [1, 3, 5]

    def test_field_expression_arithmetic(self):
        doubled = self.ctx["v"] + self.ctx["v"]
        assert self.ctx.max(doubled) == 40
        shifted = self.ctx["v"] - 5
        assert self.ctx.min(shifted) == 0


class TestReductions:
    def setup_method(self):
        self.ctx = AscContext(4, width=8)
        self.ctx.add_field("v", [1, 2, 3, 4])

    def test_max_min_sum(self):
        assert self.ctx.max("v") == 4
        assert self.ctx.min("v") == 1
        assert self.ctx.sum("v") == 10

    def test_masked_reductions(self):
        resp = self.ctx["v"] >= 3
        assert self.ctx.max("v", where=~resp) == 2
        assert self.ctx.sum("v", where=resp) == 7

    def test_sum_saturates_like_hardware(self):
        ctx = AscContext(4, width=8)
        ctx.add_field("v", [100, 100, 100, 100])
        assert ctx.sum("v") == 127

    def test_empty_responder_set_is_not_all_cells(self):
        # Regression: Responders with no bits set is falsy, and a naive
        # `where or all_cells()` silently widened reductions to every
        # cell (caught by the asclang differential tests).
        empty = self.ctx["v"] > 99
        assert len(empty) == 0
        assert self.ctx.sum("v", where=empty) == 0
        assert self.ctx.max("v", where=empty, signed=False) == 0
        assert self.ctx.min("v", where=empty, signed=False) == 255
        assert self.ctx.bit_and("v", where=empty) == 255
        assert self.ctx.bit_or("v", where=empty) == 0

    def test_signed_extrema(self):
        ctx = AscContext(2, width=8)
        ctx.add_field("v", [0xFF, 1])
        assert ctx.max("v") == 1              # signed: -1 < 1
        assert ctx.max("v", signed=False) == 0xFF

    def test_bitwise(self):
        assert self.ctx.bit_or("v") == 7
        assert self.ctx.bit_and("v") == 0

    def test_get_cell(self):
        assert self.ctx.get("v", 2) == 3
        with pytest.raises(AscError):
            self.ctx.get("v", 9)

    def test_set_field_masked(self):
        resp = self.ctx["v"] >= 3
        self.ctx.set_field("v", 0, where=resp)
        assert self.ctx.field_values("v").tolist() == [1, 2, 0, 0]

    def test_set_field_expression(self):
        self.ctx.set_field("v", self.ctx["v"] + 1)
        assert self.ctx.field_values("v").tolist() == [2, 3, 4, 5]

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=32))
    def test_max_matches_numpy_signed(self, values):
        ctx = AscContext(len(values), width=8)
        ctx.add_field("v", values)
        expected = max(to_signed(v, 8) for v in values)
        assert ctx.max("v") == expected


PROGRAM = """
.text
main:
    li    s1, 9
    pbcast p1, s1
    paddi p1, p1, 1
    rsum  s2, p1
    rmax  s3, p1
    pceqi f1, p1, 10
    rcount s4, f1
    halt
"""

THREADED = """
.text
main:
    tspawn s1, child
    li     s2, 5
    tput   s1, s2, 3
    tjoin  s1
    tget   s5, s1, 4
    halt
child:
wait:
    beq  s3, s0, wait
    addi s4, s3, 10
    texit
"""


class TestFunctionalBackend:
    def test_matches_cycle_accurate(self):
        cfg = ProcessorConfig(num_pes=8, word_width=16)
        timed = run_program(PROGRAM, cfg)
        untimed = run_functional(PROGRAM, cfg)
        for reg in range(1, 5):
            assert timed.scalar(reg) == untimed.scalar(reg), reg

    def test_threaded_program_matches(self):
        cfg = ProcessorConfig(num_pes=8, num_threads=4, word_width=16)
        timed = run_program(THREADED, cfg)
        untimed = run_functional(THREADED, cfg)
        assert timed.scalar(5) == untimed.scalar(5) == 15

    def test_pe_state_matches(self):
        cfg = ProcessorConfig(num_pes=8, word_width=16)
        timed = run_program(PROGRAM, cfg)
        untimed = run_functional(PROGRAM, cfg)
        assert (timed.pe_reg(1) == untimed.pe_reg(1)).all()
        assert (timed.pe_flag(1) == untimed.pe_flag(1)).all()

    def test_memory_matches(self):
        src = """
.data
x: .word 5
.text
    lw   s1, x(s0)
    addi s1, s1, 1
    sw   s1, x(s0)
    halt
"""
        cfg = ProcessorConfig(num_pes=4, word_width=16)
        assert run_program(src, cfg).memory(0, 1) == \
            run_functional(src, cfg).memory(0, 1) == [6]

    def test_step_count_reported(self):
        cfg = ProcessorConfig(num_pes=4, word_width=16)
        res = run_functional(".text\nli s1, 1\nhalt\n", cfg)
        assert res.stats.instructions == 2

    def test_deadlock_detected(self):
        from repro.assoc import FunctionalError
        cfg = ProcessorConfig(num_pes=4, num_threads=2, word_width=16)
        with pytest.raises(FunctionalError):
            run_functional("""
.text
main:
    tspawn s1, a
    tjoin  s1
    halt
a:
    tjoin s0      # joins main (tid 0): circular
    texit
""", cfg)
