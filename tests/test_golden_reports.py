"""Suite reports stay byte-identical for a fixed seed.

Each file under ``tests/golden`` holds one ``run_suite("all")`` report,
without its ``_runtime`` line, and the Python and numpy versions that made
it; ``tools/golden_reports.py`` rewrites them.  The test re-runs each
report with the seed and counts stored in the file.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from funkgeo.suites import RunConfig, run_suite

GOLDEN = sorted((Path(__file__).parent / "golden").glob("suite_all_seed*.json"))


def _differ(a, b) -> bool:
    # Compared as written, so that a NaN equals itself.
    return json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


def first_difference(stored: dict, fresh: dict) -> str:
    """Where two reports first differ: a check and its detail key, or a top-level key."""
    for old, new in zip(stored["checks"], fresh["checks"]):
        if not _differ(old, new):
            continue
        where = f"{old['suite']}/{old['name']}"
        for key in ("suite", "name", "passed"):
            if old[key] != new[key]:
                return f"{where}: {key} {old[key]!r} -> {new[key]!r}"
        for key in sorted(set(old["detail"]) | set(new["detail"])):
            if _differ(old["detail"].get(key), new["detail"].get(key)):
                return (f"{where}: detail {key!r} "
                        f"{old['detail'].get(key)!r} -> {new['detail'].get(key)!r}")
    if len(stored["checks"]) != len(fresh["checks"]):
        return f"{len(stored['checks'])} checks -> {len(fresh['checks'])}"
    for key in sorted(set(stored) | set(fresh)):
        if _differ(stored.get(key), fresh.get(key)):
            return f"report key {key!r}"
    return "formatting only"


def test_golden_files_exist():
    assert len(GOLDEN) == 2


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_report_bytes_match_golden(path):
    text = path.read_text(encoding="utf-8")
    golden = json.loads(text)
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    if {k: golden[k] for k in versions} != versions:
        pytest.skip(f"{path.name} was made with Python {golden['python']} and numpy "
                    f"{golden['numpy']}; this is Python {versions['python']} and numpy "
                    f"{versions['numpy']}, whose rounding may differ")
    stored = golden["report"]
    fresh = run_suite("all", RunConfig(seed=stored["seed"], counts=stored["count_overrides"]))
    del fresh["_runtime"]
    payload = json.dumps(dict(versions, report=fresh), indent=2, sort_keys=True) + "\n"
    assert payload == text, f"{path.name}: first difference at {first_difference(stored, fresh)}"
