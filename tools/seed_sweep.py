"""Run every suite over many seeds and list the checks that fail.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/seed_sweep.py

Runs ``run_suite("all")`` for seeds 0-199 with the counts of perfbench's
``suite-all`` workload (the default counts divided by 16, from
``perfbench/workloads.py::suite_counts``), then for seeds 0-19 at default
counts.  Prints one line per failing check and exits 1 if any check fails.
Takes about a minute on a 2-vCPU host (65 s with Python 3.11 and numpy 2.4),
so CI runs it with the tier-1 tests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SUITE_SCALE, suite_counts  # noqa: E402

from funkgeo.suites import RunConfig, run_suite  # noqa: E402

SWEEPS = (("1/16", range(200), suite_counts(ROOT / "src", SUITE_SCALE)),
          ("default", range(20), {}))


def main() -> int:
    failures = 0
    for label, seeds, counts in SWEEPS:
        for seed in seeds:
            report = run_suite("all", RunConfig(seed=seed, counts=dict(counts)))
            for check in report["checks"]:
                if not check["passed"]:
                    failures += 1
                    print(f"{label} counts, seed {seed}: {check['suite']}/{check['name']} "
                          f"{json.dumps(check['detail'])}", flush=True)
    print(f"{failures} failing checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
