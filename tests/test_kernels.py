"""Kernel library integration tests: every kernel against its oracle, on
both backends, across machine shapes."""

import pickle

import numpy as np
import networkx as nx
import pytest

from repro.core import MTMode, ProcessorConfig
from repro.programs import (
    ALL_KERNEL_BUILDERS,
    KernelSetupError,
    assoc_max_extract,
    count_matches,
    database_query,
    mst_prim,
    reduction_storm,
    run_kernel,
    run_kernel_functional,
    string_match,
    vector_mac,
    verify_kernel,
)
from repro.programs.runner import kernel_norm
from repro.programs.workloads import (
    mst_weight_reference,
    random_complete_graph,
)


def cfg16(pes=64, threads=16, **kw):
    return ProcessorConfig(num_pes=pes, num_threads=threads,
                           word_width=16, **kw)


def build(name, pes):
    builder = ALL_KERNEL_BUILDERS[name]
    if name == "reduction_storm":
        return builder(pes, total_iters=32, threads=4)
    if name == "mst_prim":
        return builder(pes, n=min(pes, 12))
    return builder(pes)


class TestAllKernelsVerify:
    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_kernel_correct_on_prototype_shape(self, name):
        verify_kernel(build(name, 64), cfg16(64))

    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_kernel_correct_on_small_array(self, name):
        verify_kernel(build(name, 16), cfg16(16))

    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_functional_backend_agrees(self, name):
        kernel = build(name, 32)
        cfg = cfg16(32)
        timed = run_kernel(kernel, cfg).measured
        untimed = run_kernel_functional(kernel, cfg)
        assert timed == untimed

    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_timing_independence_across_thread_counts(self, name):
        # Architectural outputs must not depend on the machine's timing
        # configuration (kernels are single-threaded except the storm).
        if name == "reduction_storm":
            pytest.skip("storm kernel varies its own thread count")
        kernel = build(name, 32)
        a = run_kernel(kernel, cfg16(32, threads=2)).measured
        b = run_kernel(kernel, cfg16(32, threads=16)).measured
        c = run_kernel(kernel, ProcessorConfig(
            num_pes=32, num_threads=1, word_width=16,
            mt_mode=MTMode.SINGLE)).measured
        assert a == b == c


class TestPrototypeWidth:
    """The paper's machine is 8-bit; the width-parametric kernels must
    verify there too (data generators clamp to the word width)."""

    @pytest.mark.parametrize("threads", [1, 4])
    def test_reduction_storm_at_w8(self, threads):
        kernel = reduction_storm(16, total_iters=16, threads=threads,
                                 width=8)
        cfg = (ProcessorConfig(num_pes=16, num_threads=1, word_width=8,
                               mt_mode=MTMode.SINGLE) if threads == 1 else
               ProcessorConfig(num_pes=16, num_threads=4, word_width=8))
        verify_kernel(kernel, cfg)

    def test_max_extract_at_w8(self):
        kernel = assoc_max_extract(16, rounds=5, width=8)
        verify_kernel(kernel, ProcessorConfig(num_pes=16, word_width=8))

    def test_count_matches_at_w8(self):
        kernel = count_matches(16, width=8)
        verify_kernel(kernel, ProcessorConfig(num_pes=16, word_width=8))

    def test_vector_mac_at_w8(self):
        kernel = vector_mac(16, iters=6, width=8)
        verify_kernel(kernel, ProcessorConfig(num_pes=16, word_width=8))


class TestKernelGuards:
    def test_width_mismatch_rejected(self):
        kernel = vector_mac(16)
        with pytest.raises(KernelSetupError):
            run_kernel(kernel, ProcessorConfig(num_pes=16, word_width=8))

    def test_too_few_pes_rejected(self):
        kernel = mst_prim(64, n=32)
        with pytest.raises(KernelSetupError):
            run_kernel(kernel, cfg16(16))

    def test_lmem_requirement(self):
        kernel = mst_prim(16, n=12)
        small = ProcessorConfig(num_pes=16, word_width=16, lmem_words=4)
        with pytest.raises(KernelSetupError):
            run_kernel(kernel, small)

    @pytest.mark.parametrize("build, count", [
        (lambda count: vector_mac(16, iters=count), "iters"),
        (lambda count: assoc_max_extract(16, rounds=count), "rounds"),
        (lambda count: reduction_storm(16, total_iters=2 * count,
                                       threads=2), "iters"),
    ], ids=["vector_mac", "assoc_max_extract", "reduction_storm"])
    def test_loop_count_li_cannot_load_is_rejected_up_front(self, build,
                                                            count):
        """A count past the width's ``li`` range fails before the
        builder's reference loop runs over it (10**9 iterations would
        hold the caller for minutes)."""
        build(0xFFFF)
        with pytest.raises(ValueError, match=f"{count}=65536 is not "
                                             "representable by li"):
            build(1 << 16)

    @pytest.mark.parametrize("build, message", [
        (lambda: vector_mac(16, iters=0), "iters=0"),
        (lambda: vector_mac(16, iters=-5), "iters=-5"),
        (lambda: assoc_max_extract(16, rounds=0), "rounds=0"),
        (lambda: assoc_max_extract(16, rounds=-5), "rounds=-5"),
        (lambda: vector_mac(16, iters=256, width=8), "iters=256"),
        (lambda: assoc_max_extract(16, rounds=256, width=8), "rounds=256"),
        (lambda: vector_mac(16, iters=1 << 16, width=32), "iters=65536"),
        (lambda: assoc_max_extract(16, rounds=1 << 16, width=32),
         "rounds=65536"),
        (lambda: reduction_storm(16, total_iters=1 << 16, width=32),
         "iters=65536"),
        (lambda: reduction_storm(16, total_iters=300, width=8), "iters=300"),
    ], ids=["mac-0", "mac-neg", "max-0", "max-neg", "mac-w8", "max-w8",
            "mac-w32", "max-w32", "storm-w32", "storm-w8"])
    def test_loop_count_outside_the_countdown_range_is_rejected(self, build,
                                                               message):
        """The countdown runs ``count`` times only for 1..2**W - 1: at
        W = 8, ``li s1, 300`` loads 44, and a count <= 0 wraps to
        2**W - |count| iterations.  Past 65,535 the builder's own
        reference loop would hold the caller, before any deadline."""
        with pytest.raises(ValueError,
                           match=f"{message} is not representable by li"):
            build()

    def test_loop_count_at_the_width_limit_runs_exactly(self):
        kernel = reduction_storm(16, total_iters=255, width=8)
        verify_kernel(kernel, ProcessorConfig(num_pes=16, word_width=8))


class TestMstKernel:
    def test_matches_networkx(self):
        for seed in (1, 2, 3):
            kernel = mst_prim(32, n=10, seed=seed)
            run = run_kernel(kernel, cfg16(32))
            weights = random_complete_graph(10, 16, seed=seed)
            graph = nx.from_numpy_array(weights)
            nx_weight = int(nx.minimum_spanning_tree(graph).size(
                weight="weight"))
            assert run.measured["mst_weight"] == nx_weight

    def test_reference_matches_networkx(self):
        for seed in range(5):
            weights = random_complete_graph(13, 16, seed=seed)
            graph = nx.from_numpy_array(weights)
            nx_weight = int(nx.minimum_spanning_tree(graph).size(
                weight="weight"))
            assert mst_weight_reference(weights) == nx_weight

    def test_vertices_equal_pes(self):
        verify_kernel(mst_prim(16, n=16), cfg16(16))


class TestStringMatchKernel:
    def test_finds_planted_occurrences(self):
        kernel = string_match(64, pattern=[2, 3], occurrences=5)
        run = verify_kernel(kernel, cfg16(64))
        assert run.measured["matches"] >= 5

    def test_longer_pattern(self):
        kernel = string_match(128, pattern=[1, 2, 3, 4], occurrences=4)
        verify_kernel(kernel, cfg16(128))

    def test_first_start_is_minimal(self):
        kernel = string_match(64, pattern=[1, 2], occurrences=3, seed=9)
        run = verify_kernel(kernel, cfg16(64))
        assert run.measured["first_start"] == kernel.expected["first_start"]


class TestStormKernel:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_correct_at_thread_counts(self, threads):
        kernel = reduction_storm(64, total_iters=32, threads=threads)
        verify_kernel(kernel, cfg16(64))

    def test_more_threads_fewer_cycles(self):
        runs = {}
        for t in (1, 8):
            kernel = reduction_storm(256, total_iters=64, threads=t)
            runs[t] = run_kernel(kernel, cfg16(256)).cycles
        assert runs[8] < runs[1]

    def test_rejects_more_threads_than_iters(self):
        with pytest.raises(ValueError):
            reduction_storm(16, total_iters=4, threads=8)


class TestKernelMetadata:
    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_outputs_cover_expected(self, name):
        kernel = build(name, 32)
        assert set(kernel.outputs) == set(kernel.expected)
        assert kernel.notes

    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_kernel_pickles_before_and_after_its_oracle_runs(self, name):
        """Fault campaigns pickle the kernel into every worker task, so
        its deferred oracle must pickle, read or unread."""
        kernel = build(name, 32)
        unread = pickle.loads(pickle.dumps(kernel))
        expected = kernel.expected
        read = pickle.loads(pickle.dumps(kernel))
        assert unread.expected == expected == read.expected
        assert unread.source == read.source == kernel.source

    def test_kernel_norm(self):
        assert kernel_norm(np.int64(5)) == 5
        assert kernel_norm([np.int64(1), 2]) == [1, 2]

    def test_determinism(self):
        a = database_query(32, seed=3)
        b = database_query(32, seed=3)
        assert a.expected == b.expected
        assert a.source == b.source
