"""One workload in a fresh process: set-up, warm-up pass, timed or traced passes.

Started by ``run.py`` from the root of a checkout, with BLAS and OpenMP
pinned to one thread.  Prints one JSON object on its last line.

Modes:
  setup  import the program, build the domains and warm up, then exit;
  run    then time passes for ``--seconds`` with no tracing installed;
  trace  then time passes for half of ``--seconds`` untraced and for the
         other half traced, and derive the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
MIN_PASSES = 3


def call_times_us(lat_ns: list, passes: int, long_calls: bool) -> np.ndarray:
    """Each call of a pass at one time of its samples, in us.

    Every pass makes the same calls in the same order, so each call has as
    many samples as the run has passes.  A shared host's speed changes in
    phases: on a 2-vCPU Xeon VM, a pure-Python loop ran at 0.55-0.6 of its
    best speed for most of a run, with fast stretches making up anywhere
    from a few to a quarter of its passes.  A call of about 100 us lies in
    one phase, so its median or 10th percentile follows whichever phase
    holds that share of a run, and it takes its fastest sample, which holds
    while the run has any fast stretch at all.  A call of a second or so,
    such as a suite, spans many phases itself, and a run has only about
    eight of them: the fastest rests on one lucky pass, and the median
    follows whichever phase holds half of the passes.  With ``long_calls``
    a call takes the 25th percentile of its samples, between the two.
    """
    lat = np.asarray(lat_ns, dtype=float).reshape(passes, -1) / 1e3
    return np.percentile(lat, 25, axis=0) if long_calls else lat.min(axis=0)


def run_metrics(lat_ns: list, passes: int, wl) -> dict:
    """End-to-end timings of a run, from the time of each call.

    ``wall_s`` is one pass with every call at its time (``call_times_us``),
    and ``throughput_ops_s`` the operations of one pass over it.
    ``latency_p50_us`` and ``latency_p99_us`` are percentiles of those
    times over the calls of a pass.

    With ``wl.whole_pass`` the latency of one call is that of a whole pass, so
    both percentiles equal ``wall_s``.  ``suite-all`` times its 15 suites one
    by one, for ``wall_s``, but the median and tail of its suites would
    follow whichever suite lies there for the seed.
    """
    calls = call_times_us(lat_ns, passes, wl.long_calls)
    wall = float(calls.sum()) / 1e6
    return {
        "throughput_ops_s": wl.ops_per_pass / wall,
        "latency_p50_us": wall * 1e6 if wl.whole_pass else float(np.median(calls)),
        "latency_p99_us": wall * 1e6 if wl.whole_pass else float(np.percentile(calls, 99)),
        "wall_s": wall,
    }


def timed_passes(wl, first, ref_ok, budget_ns: float, min_passes: int, tracer=None):
    """Closed loop of passes until the budget is spent; returns its record."""
    lat: list[int] = []
    pass_ns: list[int] = []
    attempted = failed = 0
    while sum(pass_ns) < budget_ns or len(pass_ns) < min_passes:
        t0 = perf_counter_ns()
        out = wl.run_pass(lat, tracer)
        pass_ns.append(perf_counter_ns() - t0)
        a, f = wl.tally(first, out, ref_ok)
        attempted += a
        failed += f
    return {"lat": lat, "pass_ns": pass_ns, "attempted": attempted, "failed": failed}


def inject_fault(fg) -> None:
    """Skew every Funk value from a ray cast by one part in a million.

    Both conversions from exit parameters are skewed: the scalar one and the
    one of the vectorized ``funk_batch`` kernels.
    """
    engine = sys.modules["funkgeo.metric_engine"]
    scalar, batch = engine._from_parameter, engine._batch_from_parameters
    engine._from_parameter = lambda t: scalar(t) * (1.0 + 1e-6)
    engine._batch_from_parameters = lambda t, lengths: batch(t, lengths) * (1.0 + 1e-6)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--spans", default=None, help="where the traced phase writes its spans")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = perf_counter()
    import funkgeo as fg
    import_s = perf_counter() - t0

    import tracer as tr
    import workloads

    wl = workloads.make(args.workload, args.seed, args.smoke, SRC)
    t1 = perf_counter()
    wl.setup(fg)
    warmup_s = perf_counter() - t1
    result = {"setup": {"import_s": import_s, "warmup_s": warmup_s,
                        "setup_s": import_s + warmup_s},
              "input_hash": wl.input_hash()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.inject_fault:
        inject_fault(fg)
    stray = tr.wrapped_attributes()
    if stray:
        raise RuntimeError(f"untraced run sees tracing wrappers: {stray}")

    first = wl.run_pass([])
    ref_ok = wl.check(first)
    attempted, failed = wl.tally(first, first, ref_ok)
    budget = args.seconds * 1e9
    min_passes = 1 if args.smoke else MIN_PASSES

    if args.mode == "run":
        rec = timed_passes(wl, first, ref_ok, budget, min_passes)
        result["metrics"] = run_metrics(rec["lat"], len(rec["pass_ns"]), wl)
        result["metrics"]["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["calls"] = len(rec["lat"])
        result["passes"] = len(rec["pass_ns"])
    else:
        plain = timed_passes(wl, first, ref_ok, budget / 2, 1)
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = timed_passes(wl, first, ref_ok, budget / 2, 1, tracer)
        finally:
            tracer.uninstall()
        stray = tr.wrapped_attributes()
        if stray:
            raise RuntimeError(f"tracing wrappers left behind: {stray}")
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans)
        rec = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
        passes = len(traced["pass_ns"])
        spans = tracer.arrays()
        layers = tr.layer_metrics(tracer.names, spans, passes * wl.ops_per_pass,
                                  sum(traced["pass_ns"]))
        for name in sys.modules["funkgeo.suites"].SUITES:
            i = tracer.names.index(f"suites.{name}")
            dur = (spans["end"] - spans["start"])[spans["name"] == i]
            layers[f"suites.{name}.wall_s"] = float(dur.sum()) / 1e9 / passes
        layers["trace.overhead_ratio"] = float(
            call_times_us(traced["lat"], passes, wl.long_calls).sum()
            / call_times_us(plain["lat"], len(plain["pass_ns"]), wl.long_calls).sum())
        result["metrics"] = layers
        result["spans"] = int(len(spans["name"]))
        result["passes"] = passes

    result["attempted"] = attempted + rec["attempted"]
    result["failed"] = failed + rec["failed"]
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": sys.modules["scipy"].__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
