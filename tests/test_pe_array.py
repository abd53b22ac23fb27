"""PE array state tests: masked writes, pinned constants, local memory."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.isa import registers as regs
from repro.pe import MemoryFault, PEArray


def make(pes=8, threads=4, width=8, lmem=64) -> PEArray:
    return PEArray(pes, threads, width, lmem)


class TestConstruction:
    def test_shapes(self):
        pe = make(pes=8, threads=4)
        assert pe.regs.shape == (4, regs.NUM_PARALLEL_REGS, 8)
        assert pe.flags.shape == (4, regs.NUM_FLAG_REGS, 8)
        assert pe.lmem.shape == (8, 64)

    def test_rejects_zero_pes(self):
        with pytest.raises(ValueError):
            make(pes=0)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            make(threads=0)

    def test_initial_constants(self):
        pe = make()
        assert (pe.read_reg(0, regs.ZERO_REG) == 0).all()
        assert pe.read_flag(0, regs.ALWAYS_FLAG).all()


class TestRegisterWrites:
    def test_masked_write(self):
        pe = make(pes=4)
        mask = np.array([True, False, True, False])
        pe.write_reg(0, 1, np.array([10, 20, 30, 40]), mask)
        assert pe.read_reg(0, 1).tolist() == [10, 0, 30, 0]

    def test_write_wraps_to_width(self):
        pe = make(pes=2, width=8)
        pe.write_reg(0, 1, np.array([300, -1]), np.ones(2, bool))
        assert pe.read_reg(0, 1).tolist() == [44, 255]

    def test_p0_write_ignored(self):
        pe = make(pes=4)
        pe.write_reg(0, regs.ZERO_REG, np.full(4, 7), np.ones(4, bool))
        assert (pe.read_reg(0, regs.ZERO_REG) == 0).all()

    def test_f0_write_ignored(self):
        pe = make(pes=4)
        pe.write_flag(0, regs.ALWAYS_FLAG, np.zeros(4, bool),
                      np.ones(4, bool))
        assert pe.read_flag(0, regs.ALWAYS_FLAG).all()

    def test_threads_isolated(self):
        pe = make(pes=4, threads=2)
        pe.write_reg(0, 1, np.full(4, 9), np.ones(4, bool))
        assert (pe.read_reg(1, 1) == 0).all()

    def test_masked_flag_write(self):
        pe = make(pes=4)
        mask = np.array([True, True, False, False])
        pe.write_flag(0, 2, np.array([True, False, True, True]), mask)
        assert pe.read_flag(0, 2).tolist() == [True, False, False, False]

    @given(st.integers(1, 15), st.integers(0, 3))
    def test_write_read_roundtrip(self, reg, thread):
        pe = make(pes=8, threads=4)
        values = np.arange(8, dtype=np.int64)
        pe.write_reg(thread, reg, values, np.ones(8, bool))
        assert pe.read_reg(thread, reg).tolist() == values.tolist()


class TestLocalMemory:
    def test_load_store_roundtrip(self):
        pe = make(pes=4, lmem=16)
        addr = np.array([0, 1, 2, 3])
        pe.store(addr, np.array([5, 6, 7, 8]), np.ones(4, bool))
        assert pe.load(addr, np.ones(4, bool)).tolist() == [5, 6, 7, 8]

    def test_masked_store(self):
        pe = make(pes=4, lmem=16)
        addr = np.zeros(4, dtype=np.int64)
        pe.store(addr, np.full(4, 9), np.array([True, False, False, False]))
        # PE 0 wrote its own word; other PEs' word 0 untouched.
        assert pe.lmem[0, 0] == 9
        assert pe.lmem[1, 0] == 0

    def test_masked_load_inactive_returns_zero(self):
        pe = make(pes=2, lmem=4)
        pe.lmem[:, 0] = 7
        out = pe.load(np.zeros(2, np.int64), np.array([True, False]))
        assert out.tolist() == [7, 0]

    def test_out_of_range_load_faults_only_if_active(self):
        pe = make(pes=2, lmem=4)
        bad = np.array([99, 0])
        with pytest.raises(MemoryFault):
            pe.load(bad, np.ones(2, bool))
        # Inactive PE with a bad address does not fault (it is masked off).
        out = pe.load(bad, np.array([False, True]))
        assert out.tolist() == [0, 0]

    def test_store_fault_message_has_pe(self):
        pe = make(pes=2, lmem=4)
        with pytest.raises(MemoryFault) as e:
            pe.store(np.array([0, -1]), np.zeros(2, np.int64),
                     np.ones(2, bool))
        assert "PE 1" in str(e.value)

    def test_store_wraps_values(self):
        pe = make(pes=1, lmem=4, width=8)
        pe.store(np.array([0]), np.array([257]), np.ones(1, bool))
        assert pe.lmem[0, 0] == 1

    def test_column_io(self):
        pe = make(pes=4, lmem=8)
        pe.set_lmem_column(3, np.array([1, 2, 3, 4]))
        assert pe.get_lmem_column(3).tolist() == [1, 2, 3, 4]

    def test_column_shape_checked(self):
        pe = make(pes=4)
        with pytest.raises(ValueError):
            pe.set_lmem_column(0, np.array([1, 2]))

    def test_column_range_checked(self):
        pe = make(pes=4, lmem=8)
        with pytest.raises(MemoryFault):
            pe.set_lmem_column(8, np.zeros(4))
        with pytest.raises(MemoryFault):
            pe.get_lmem_column(-1)


class TestReset:
    def test_a_fresh_array_is_not_refilled(self):
        """Until a plane, a view of one or a write method is used, the
        planes still hold what np.zeros gave them: reset writes nothing."""
        pe = make(pes=4)
        for plane in (pe._regs, pe._flags, pe._lmem):
            plane.setflags(write=False)
        pe.reset()
        pe.reset()
        pe.read_reg(0, 1)                   # a view its caller may write
        with pytest.raises(ValueError, match="read-only"):
            pe.reset()

    @pytest.mark.parametrize("write", [
        lambda pe: pe.read_reg(0, 1).fill(5),
        lambda pe: pe.read_flag(0, 1).fill(True),
        lambda pe: pe.regs.__setitem__((0, 1), 5),
        lambda pe: pe.flags.__setitem__((0, 1), True),
        lambda pe: pe.lmem.__setitem__((slice(None), 0), 9),
        lambda pe: pe.set_lmem_column(0, np.full(4, 9)),
        lambda pe: pe.store(np.zeros(4, np.int64), np.full(4, 9),
                            np.ones(4, bool)),
    ], ids=["read_reg", "read_flag", "regs", "flags", "lmem",
            "set_lmem_column", "store"])
    def test_reset_after_any_write_path_zeroes(self, write):
        pe = make(pes=4)
        write(pe)
        pe.reset()
        assert not pe.regs[:, 1].any() and not pe.flags[:, 1].any()
        assert not pe.lmem.any()
        assert pe.read_flag(0, regs.ALWAYS_FLAG).all()

    def test_reset_clears_everything_but_constants(self):
        pe = make(pes=4)
        pe.write_reg(0, 1, np.full(4, 5), np.ones(4, bool))
        pe.write_flag(0, 1, np.ones(4, bool), np.ones(4, bool))
        pe.lmem[:, 0] = 9
        pe.reset()
        assert (pe.read_reg(0, 1) == 0).all()
        assert not pe.read_flag(0, 1).any()
        assert (pe.lmem == 0).all()
        assert pe.read_flag(0, regs.ALWAYS_FLAG).all()
