"""ASCII viz tests + golden Stats regression net.

The golden records freeze the cycle core's full statistics, final
architectural state and result-snapshot JSON over the kernel suite and
the parity matrices.  If a core change shifts any of them, the test
fails and the new numbers must be reviewed (and EXPERIMENTS.md
re-measured) deliberately rather than silently drifting.
"""

import functools

import pytest

from repro.bench import bar_chart, line_chart, sparkline
from repro.programs import ALL_KERNEL_BUILDERS
from tests.golden import cases, load_golden, record


class TestBarChart:
    def test_proportional_bars(self):
        out = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("█") == 10        # max fills the width
        assert lines[0].count("█") == 5

    def test_title(self):
        assert bar_chart(["x"], [1], title="T").splitlines()[0] == "T"

    def test_zero_values(self):
        out = bar_chart(["a"], [0.0])
        assert "█" not in out

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1, 2])

    def test_empty(self):
        assert bar_chart([], [], title="t") == "t"


class TestLineChart:
    def test_contains_all_points(self):
        out = line_chart([1, 2, 3], [1.0, 5.0, 3.0], height=4)
        assert out.count("●") == 3

    def test_flat_series(self):
        out = line_chart([1, 2], [2.0, 2.0])
        assert out.count("●") == 2

    def test_mismatched(self):
        with pytest.raises(ValueError):
            line_chart([1], [1, 2])


class TestSparkline:
    def test_monotone(self):
        s = sparkline([1, 2, 3, 4])
        assert s[0] == "▁" and s[-1] == "█"

    def test_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


# The golden net (tests/golden.py): full Stats, an architectural-state
# digest and a snapshot-JSON digest per case, frozen in
# tests/data/golden_stats.json.  Regenerate with tools/update_golden.py
# after an intentional timing-model change.
GOLDEN = load_golden()
CASES = cases()


@functools.cache
def measure(case_id):
    """One cycle-core run per case, shared by the Stats and JSON tests."""
    return record(CASES[case_id]())


def check_golden(case_id):
    measured = measure(case_id)
    expected = GOLDEN[case_id]
    changed = {k: (expected["stats"][k], v)
               for k, v in measured["stats"].items()
               if expected["stats"].get(k) != v}
    assert (measured["stats"], measured["arch"]) == \
        (expected["stats"], expected["arch"]), (
        f"{case_id}: golden run changed (stats {changed}, arch digest "
        f"{'same' if measured['arch'] == expected['arch'] else 'differs'})"
        f"; if intentional, run tools/update_golden.py and re-measure "
        f"EXPERIMENTS.md")


class TestGoldenCycles:
    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_cycle_count_frozen(self, name):
        check_golden(f"reference/{name}")

    @pytest.mark.parametrize(
        "case_id", sorted(c for c in CASES if not c.startswith("reference/")))
    def test_stats_frozen(self, case_id):
        check_golden(case_id)

    def test_golden_covers_all_kernels(self):
        assert set(GOLDEN) == set(CASES)
        assert {c.split("/")[1] for c in CASES
                if c.startswith("reference/")} == set(ALL_KERNEL_BUILDERS)


class TestGoldenSnapshots:
    @pytest.mark.parametrize("case_id", sorted(CASES))
    def test_snapshot_json_frozen(self, case_id):
        """The snapshot JSON a reply carries is frozen byte for byte."""
        assert measure(case_id)["snapshot_json"] == \
            GOLDEN[case_id]["snapshot_json"], (
                f"{case_id}: result-snapshot JSON changed; replies of "
                f"'repro run --json' and 'serve' would differ")
