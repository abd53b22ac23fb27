#!/usr/bin/env python
"""Regenerate tests/data/golden_stats.json, the golden Stats net.

Each case (see tests/golden.py) records the full Stats, a digest of the
final architectural state and a digest of the result-snapshot JSON of
one cycle-core run.  Run after an
*intentional* timing-model change, review the diff, and re-measure
EXPERIMENTS.md:  python tools/update_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.golden import GOLDEN_PATH, cases, record  # noqa: E402


def main() -> None:
    golden = {case_id: record(build())
              for case_id, build in sorted(cases().items())}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")
    print(f"updated {GOLDEN_PATH}: {len(golden)} cases")
    for case_id, rec in golden.items():
        print(f"  {case_id:40s} {rec['stats']['cycles']}")


if __name__ == "__main__":
    main()
