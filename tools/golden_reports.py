"""Rewrite the golden suite reports that tier-1 compares byte for byte.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/golden_reports.py

Runs ``run_suite("all")`` for seeds 0 and 7 with the counts of perfbench's
``suite-all`` workload (the default counts divided by 16, from
``perfbench/workloads.py::suite_counts``) and writes each report, without
its ``_runtime`` line, to ``tests/golden/suite_all_seed<seed>.json``
together with the Python and numpy versions that made it.
``tests/test_golden_reports.py`` re-runs each report with the counts stored
in the file and compares the bytes.  A change that rewrites the files says
which details moved, and why.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SUITE_SCALE, suite_counts  # noqa: E402

from funkgeo.suites import RunConfig, run_suite  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
SEEDS = (0, 7)


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    counts = suite_counts(ROOT / "src", SUITE_SCALE)
    for seed in SEEDS:
        report = run_suite("all", RunConfig(seed=seed, counts=dict(counts)))
        del report["_runtime"]
        payload = {"python": platform.python_version(), "numpy": np.__version__,
                   "report": report}
        path = GOLDEN / f"suite_all_seed{seed}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
