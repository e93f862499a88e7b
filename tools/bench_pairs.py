"""Compare two checkouts on the benchmark, in alternating pairs of runs.

Usage (from anywhere):

    python3 tools/bench_pairs.py --base ../parent --head . --seed 5000 \
        --out BENCH_<n>.json

For each workload of ``BENCHMARK.json`` and each of ten pairs i, both
checkouts run ``python3 perfbench/run.py --workload W --seconds 25 --trace 0
--seed <seed + i>``; the order inside a pair alternates, so a drift of the
host's speed during the session falls on both sides alike.  The JSON holds,
per workload and metric, the median and quartiles of each side, the ratio
of the medians, the pairs the head won, and whether the head's median is
better than the base's by more than the base's interquartile range.  One
traced run per side and workload (``--trace 1``, seed of the first pair)
adds the per-layer metrics, which show where a saving comes from.  A
``tier1`` row runs the tier-1 tests (``python3 -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``) on both
sides in ten alternating pairs too, and records their wall time and their
counts of passed and failed tests.  The JSON also records the ``src/`` line
count of each side, a hash of the files each side runs (so an uncommitted
tree is identified too) and the versions used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

PAIRS = 10
SECONDS = 25  # BENCHMARK.json's run_seconds


def run(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds",
         str(SECONDS), "--trace", str(trace), "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"perfbench/run.py in {checkout} exited with code {proc.returncode} "
            f"and no result line; the end of its stderr:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_tier1(checkout: Path) -> dict:
    """One tier-1 run: its wall time and the counts of its summary line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    wall = time.perf_counter() - t0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error)", last)}
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def compare(base_vals: list[float], head_vals: list[float], better: str | None) -> dict:
    """Both sides' summaries, the ratio of medians, pairs won and the IQR test."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base_vals, head_vals))
    base, head = summary(base_vals), summary(head_vals)
    return {
        "better": better,
        "base": base,
        "head": head,
        "head_over_base": head["median"] / base["median"],
        "head_wins": int(wins),
        "gain_beyond_base_iqr": bool(
            sign * (head["median"] - base["median"]) > base["q3"] - base["q1"]),
    }


def alternating(sides: dict, call, label: str, show=lambda r: r) -> dict:
    """``call(checkout, i)`` for each of the pairs, the order alternating inside a pair."""
    runs = {"base": [], "head": []}
    for i in range(PAIRS):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            r = call(sides[side], i)
            runs[side].append(r)
            print(label, i, side, show(r), file=sys.stderr, flush=True)
    return runs


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((checkout / "src").rglob("*.py")))


def tree_hash(checkout: Path) -> str:
    """SHA-256 over the paths and contents of BENCHMARK.json, src/ and perfbench/."""
    files = [checkout / "BENCHMARK.json"] + sorted(
        p for d in ("src", "perfbench") for p in (checkout / d).rglob("*")
        if p.is_file() and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(checkout)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def summary(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "values": [float(v) for v in values]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--head", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((args.head / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"base": args.base, "head": args.head}
    report = {
        "command": f"python3 perfbench/run.py --workload W --seconds {SECONDS} "
                   "--trace 0 --seed S",
        "pairs": PAIRS,
        "seeds": [args.seed + i for i in range(PAIRS)],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": f"{platform.machine()}, {platform.processor() or 'unknown cpu'}",
        "tree_sha256": {k: tree_hash(v) for k, v in sides.items()},
        "src_lines": {k: src_lines(v) for k, v in sides.items()},
        "workloads": {},
    }
    for workload in workloads:
        runs = alternating(
            sides, lambda c, i: run(c, workload, args.seed + i), workload,
            lambda r: (r["correct"], {k: round(v["value"], 4) for k, v in r["metrics"].items()}))
        metrics = {name: compare(*([r["metrics"][name]["value"] for r in runs[s]]
                                   for s in ("base", "head")), better.get(name))
                   for name in runs["base"][0]["metrics"]}
        traced = {s: run(sides[s], workload, args.seed, trace=1)
                  for s in sides}
        report["workloads"][workload] = {
            "correct": {s: all(r["correct"] and r["exit_code"] == 0 for r in runs[s])
                        for s in runs},
            "attempted": {s: [r["attempted"] for r in runs[s]] for s in runs},
            "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
            "metrics": metrics,
            "per_layer": {name: {s: traced[s]["metrics"][name]["value"] for s in sides}
                          for name in traced["base"]["metrics"]},
        }
    tier1 = alternating(sides, lambda c, i: run_tier1(c), "tier1")
    report["tier1"] = {
        "command": "PYTHONPATH=src python3 -m pytest -q --continue-on-collection-errors",
        "wall_s": compare(*([r["wall_s"] for r in tier1[s]] for s in ("base", "head")),
                          "lower"),
        "passed": {s: [r["passed"] for r in tier1[s]] for s in tier1},
        "failed": {s: [r["failed"] for r in tier1[s]] for s in tier1},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
