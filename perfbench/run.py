"""The funkgeo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py                         # every gated workload, in turn
    python3 perfbench/run.py --workload queries --seed 3 --seconds 25 --trace 0

Each workload runs in fresh child processes (``child.py``) with BLAS and
OpenMP pinned to one thread: a few set-up-only children give the median
set-up time, and one more child runs the workload.  ``--trace 0`` reports
the end-to-end metrics of an untraced run, ``--trace 1`` the per-layer
metrics of a traced one.  Each workload prints its metrics with their
units, then one JSON result line (``correct``, ``attempted``, ``failed``,
``metrics``); with ``--workload`` that line is the last of standard output.
With no ``--workload`` the gated workloads (those of ``BENCHMARK.json``)
run in turn; ``projection`` runs only when it is named.

The command fails (exit code 1) when any output check fails, and with
exit code 2 when the program's sources are not in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("queries", "bulk", "projection", "suite-all")
GATED = ("queries", "bulk", "suite-all")  # the workloads of BENCHMARK.json
SETUP_RUNS = 4  # set-up-only children; the workload child gives one more sample
CHILD_TIMEOUT_S = 170
SPANS_DIR = ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str]) -> dict:
    """Run child.py to completion and parse the JSON of its last line."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


END_TO_END_UNITS = {"throughput_ops_s": "ops/s", "latency_p50_us": "us",
                    "latency_p99_us": "us", "wall_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
LAYER_UNITS = (  # by name suffix
    ("calls_per_op", "calls/op"), ("self_us_per_op", "us/op"), ("_per_call", "calls/call"),
    ("ns_per_pair", "ns"), ("us_per_call", "us"), ("calls_per_foot", "calls/foot"),
    ("_per_point", "calls/point"), ("_share", "ratio"), ("_ratio", "ratio"), ("_s", "s"),
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    # us_per_call is a time, not a count: test it before the count suffixes.
    if metric.endswith("us_per_call"):
        return "us"
    return next(u for suffix, u in LAYER_UNITS if metric.endswith(suffix))


def metadata(results: dict) -> dict:
    src = ROOT / "src" / "funkgeo"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"versions": results.get("versions"), "git_sha": sha, "nproc": os.cpu_count(),
            "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
            "input_hash": results.get("input_hash")}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 inject_fault: bool) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    setups = [run_child(common + ["--mode", "setup"])["setup"]
              for _ in range(0 if smoke else SETUP_RUNS)]
    extra = ["--mode", "trace" if trace else "run"]
    if trace:
        extra += ["--spans", str(ROOT / SPANS_DIR / f"spans-{name}.npz")]
    if inject_fault:
        extra.append("--inject-fault")
    res = run_child(common + extra)
    setups.append(res["setup"])
    med = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
    metrics = dict(res["metrics"])
    if trace:
        metrics["setup.import_s"] = med["import_s"]
        metrics["setup.warmup_s"] = med["warmup_s"]
    else:
        metrics["setup_s"] = med["setup_s"]
    res["metrics"] = metrics
    res["error_rate"] = res["failed"] / res["attempted"]
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: every gated workload)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one pass, for the benchmark's own tests")
    ap.add_argument("--inject-fault", action="store_true",
                    help="skew the program's Funk values, to show the checks catch it")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "funkgeo" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'funkgeo'}; "
              "run from the root of a funkgeo checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(GATED)
    failed_any = False
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke,
                           args.inject_fault)
        for metric, value in res["metrics"].items():
            print(f"{name:<11} {metric:<56} {value:>16.6f} {unit_of(metric)}")
        print(f"{name:<11} {'error_rate':<56} {res['error_rate']:>16.6f} ratio "
              f"({res['failed']} of {res['attempted']} failed)")
        print(json.dumps({"workload": name, "seed": args.seed,
                          "meta": metadata(res)}, sort_keys=True))
        print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": {k: {"value": v, "unit": unit_of(k)}
                                      for k, v in res["metrics"].items()}}))
        failed_any |= res["failed"] > 0
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
