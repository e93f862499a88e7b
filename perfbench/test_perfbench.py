"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT, smoke=True):
    size = ["--smoke"] if smoke else []
    proc = subprocess.run([sys.executable, "perfbench/run.py", *size, "--seconds", "0.2",
                           *args], capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    meta = [json.loads(x) for x in lines if x.startswith('{"meta"')]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc.returncode, result, meta


def result_lines(*args):
    """Every result line of a run, for runs of more than one workload."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0.2",
                           *args], capture_output=True, text=True, cwd=ROOT, timeout=600)
    return proc.returncode, [json.loads(x) for x in proc.stdout.splitlines()
                             if x.startswith('{"correct"')]


@pytest.mark.parametrize("workload", GATED)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result, _ = bench("--workload", workload, "--trace", str(trace))
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_default_run_covers_the_gated_workloads():
    code, results = result_lines()
    assert code == 0
    assert len(results) == len(GATED)
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all({k: v["unit"] for k, v in r["metrics"].items()} == declared for r in results)


def test_suite_pass_reports_the_checks_of_suite_all(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import funkgeo
    import workloads

    wl = workloads.make("suite-all", 0, True, ROOT / "src")
    wl.setup(funkgeo)
    reports = wl.run_pass([])
    assert [c for r in reports for c in r["checks"]] == \
        funkgeo.run_suite("all", wl.cfg)["checks"]


def test_traced_counts_match_the_code():
    _, result, _ = bench("--workload", "queries", "--trace", "1")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["metric_engine.funk.contains_per_call"] == 3.0
    assert m["metric_engine.hilbert.ray_casts_per_call"] == 2.0
    assert m["geodesy.triangle_report.ray_casts_per_call"] == 6.0
    assert m["trace.overhead_ratio"] > 0.0


def test_seed_changes_inputs_not_metric_names():
    runs = [bench("--workload", "queries", "--seed", str(s)) for s in (0, 1)]
    hashes = {meta[0]["meta"]["input_hash"] for _, _, meta in runs}
    assert len(hashes) == 2
    assert runs[0][1]["metrics"].keys() == runs[1][1]["metrics"].keys()


@pytest.mark.parametrize("workload", GATED)
def test_injected_wrong_result_is_caught(workload):
    code, result, _ = bench("--workload", workload, "--inject-fault")
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    if workload == "bulk":  # the vectorized kernels are checked too, not only the loop
        assert result["failed"] == result["attempted"]


@pytest.mark.xfail(strict=True, reason="nearest_on_convex misses the optimum on vertex "
                   "contacts and foot_certificate tries only single active "
                   "constraints, so some feet fail their checks")
def test_projection_feet_pass_their_checks():
    code, result, _ = bench("--workload", "projection", "--seed", "3", smoke=False)
    assert code == 0 and result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("--workload", "queries", cwd=tmp_path)
    assert code != 0 and result is None
