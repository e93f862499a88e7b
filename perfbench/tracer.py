"""Spans around the program's public functions, installed at run time.

The tracer wraps functions and domain methods of the ``funkgeo`` modules
from outside: every module attribute bound to a wrapped function is
rebound (so ``projection.funk`` and ``suites.funk_batch`` are caught, not
only ``metric_engine.funk``), and so are the values of ``suites.SUITES``.
Each call records one span: name, start, end, parent span, operation id,
the id of its first argument (the domain, for the calls measured here)
and, for some calls, a size.  Spans stay in memory in flat arrays and are
written out once, when the traced phase ends.

:func:`layer_metrics` turns the spans into the benchmark's per-layer
metrics.  Self time is a span's time minus the time of its child spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np

MARK = "_perfbench_span"

KINDS = {"HPolytope": "hpolytope", "EuclideanBall": "ball",
         "AffineImage": "affine_image", "IntersectionDomain": "intersection"}

# (module, function, size of the call from (args, kwargs) or None)
FUNCTIONS = (
    ("convex_core", "as_point", None),
    ("convex_core", "supporting_functional", None),
    ("metric_engine", "funk", None),
    ("metric_engine", "reverse_funk", None),
    ("metric_engine", "hilbert", None),
    ("metric_engine", "max_symmetrized", None),
    ("metric_engine", "relative_funk", None),
    ("metric_engine", "funk_batch", lambda a, k: len(a[1])),
    ("_linprog", "solve_lp", None),
    ("_linprog", "feasible_point", None),
    ("projection", "nearest_on_segment", None),
    ("projection", "nearest_on_convex", None),
    ("projection", "forward_ball_reaches", None),
    ("projection", "_golden_min", None),
    ("projection", "_sublevel_edge", None),
    ("projection", "foot_certificate", None),
    ("ball_geometry", "forward_ball", None),
    ("ball_geometry", "backward_ball", None),
    ("ball_geometry", "sphere_sample", lambda a, k: a[1] if len(a) > 1 else k["k"]),
    ("geodesy", "triangle_report", None),
    ("geodesy", "verify_geodesic", None),
    ("geodesy", "verify_hilbert_geodesic", None),
    ("finsler_tangent", "tangent_norm", None),
    ("finsler_tangent", "finite_difference_check", None),
    ("classical_oracles", "menelaus_product", None),
    ("classical_oracles", "ceva_product", None),
    ("classical_oracles", "cross_ratio", None),
    ("suites", "sample_interior", lambda a, k: a[2] if len(a) > 2 else k["m"]),
)
METHODS = ("contains", "ray_boundary")


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "funkgeo" or n.startswith("funkgeo.")) and m is not None]


class Tracer:
    """Records spans while installed; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.last = array("i")  # one past the last span of the subtree
        self.obj = array("q")
        self.size = array("q")
        self.stack = [-1]
        self.op_id = -1
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, size=None, kinded: bool = False):
        nid = self._id(name)
        kind_ids = {cls: self._id(f"{name}.{kind}") for cls, kind in KINDS.items()} \
            if kinded else {}
        names, parents, ops, starts, ends, lasts, objs, sizes = (
            self.name, self.parent, self.op, self.start, self.end, self.last,
            self.obj, self.size)
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(kind_ids.get(type(args[0]).__name__, nid) if kinded else nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            objs.append(id(args[0]) if args else 0)
            sizes.append(size(args, kwargs) if size is not None else 0)
            ends.append(0)
            lasts.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
                lasts[idx] = len(starts)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function and method, wherever it is bound."""
        mods = _modules()
        for modname, fname, size in FUNCTIONS:
            orig = getattr(sys.modules[f"funkgeo.{modname}"], fname)
            w = self._wrap(orig, f"{modname}.{fname}", size, kinded=fname == "funk_batch")
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, w)
        core = sys.modules["funkgeo.convex_core"]
        for clsname, kind in KINDS.items():
            cls = getattr(core, clsname)
            for meth in METHODS:
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, f"convex_core.{meth}.{kind}"))
        suites = sys.modules["funkgeo.suites"].SUITES
        for name, fn in list(suites.items()):
            self._undo.append((suites, name, fn))
            suites[name] = self._wrap(fn, f"suites.{name}")

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._undo.clear()

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "last": np.frombuffer(self.last, dtype=np.int32),
                "obj": np.frombuffer(self.obj, dtype=np.int64),
                "size": np.frombuffer(self.size, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def wrapped_attributes() -> list[str]:
    """Every place in the program where a tracing wrapper is still bound."""
    found = []
    for m in _modules():
        for attr, value in vars(m).items():
            if hasattr(value, MARK):
                found.append(f"{m.__name__}.{attr}")
            if isinstance(value, type):
                found += [f"{m.__name__}.{attr}.{k}" for k, v in vars(value).items()
                          if hasattr(v, MARK)]
            if isinstance(value, dict):
                found += [f"{m.__name__}.{attr}[{k!r}]" for k, v in value.items()
                          if hasattr(v, MARK)]
    return found


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_names() -> list[str]:
    """The per-layer metric names, in report order."""
    kinds = list(KINDS.values())
    names = ["convex_core.as_point.calls_per_op", "convex_core.as_point.self_us_per_op"]
    for meth in METHODS:
        for k in kinds:
            names += [f"convex_core.{meth}.{k}.calls_per_op",
                      f"convex_core.{meth}.{k}.self_us_per_op"]
    names += ["metric_engine.funk.contains_per_call",
              "metric_engine.hilbert.ray_casts_per_call"]
    names += [f"metric_engine.funk_batch.{k}.ns_per_pair" for k in kinds]
    names += ["metric_engine.funk_batch.scalar_fallback_share",
              "linprog.solve_lp.calls_per_op", "linprog.solve_lp.us_per_call",
              "linprog.solve_lp.self_share",
              "projection.forward_ball_reaches.calls_per_foot",
              "projection.nearest_on_segment.funk_calls_per_foot",
              "geodesy.triangle_report.ray_casts_per_call",
              "finsler_tangent.tangent_norm.self_us_per_op",
              "ball_geometry.sphere_sample.ray_casts_per_point",
              "suites.sample_interior.self_share", "suites.sample_interior.accept_ratio"]
    return names


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(names: list[str], s: dict, ops: int, busy_ns: int) -> dict:
    """Per-layer values from the spans of a traced phase.

    ``ops`` is the number of operations the phase completed and
    ``busy_ns`` the time they took; shares are of that time.
    """
    ids = {n: i for i, n in enumerate(names)}
    name, parent, dur = s["name"], s["parent"], s["end"] - s["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child
    n_names = len(names)
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    self_total = np.bincount(name, weights=self_ns, minlength=n_names)

    def idx(n):
        return ids.get(n, -1)

    def count(n):
        return int(calls[idx(n)]) if idx(n) >= 0 else 0

    def self_us(n):
        return float(self_total[idx(n)]) / 1e3 if idx(n) >= 0 else 0.0

    def in_subtrees(outer: str, inner_prefix: str, same_obj: bool, direct: bool = False):
        """Spans named ``inner_prefix*`` below each ``outer`` span."""
        inner = np.isin(name, [i for n, i in ids.items() if n.startswith(inner_prefix)])
        if idx(outer) < 0:
            return 0
        hits = 0
        for i in np.flatnonzero(name == idx(outer)):
            lo, hi = i + 1, s["last"][i]
            sel = inner[lo:hi]
            if same_obj:
                sel &= s["obj"][lo:hi] == s["obj"][i]
            if direct:
                sel &= parent[lo:hi] == i
            hits += int(sel.sum())
        return hits

    out = {}
    kinds = list(KINDS.values())
    out["convex_core.as_point.calls_per_op"] = _ratio(count("convex_core.as_point"), ops)
    out["convex_core.as_point.self_us_per_op"] = _ratio(self_us("convex_core.as_point"), ops)
    for meth in METHODS:
        for k in kinds:
            n = f"convex_core.{meth}.{k}"
            out[f"{n}.calls_per_op"] = _ratio(count(n), ops)
            out[f"{n}.self_us_per_op"] = _ratio(self_us(n), ops)
    # Calls a metric makes on its own domain; nested calls on the parts of
    # a composed domain are counted by the per-kind metrics above.
    out["metric_engine.funk.contains_per_call"] = _ratio(
        in_subtrees("metric_engine.funk", "convex_core.contains.", True),
        count("metric_engine.funk"))
    out["metric_engine.hilbert.ray_casts_per_call"] = _ratio(
        in_subtrees("metric_engine.hilbert", "convex_core.ray_boundary.", True),
        count("metric_engine.hilbert"))
    batch = [i for n, i in ids.items() if n.startswith("metric_engine.funk_batch.")]
    for k in kinds:
        i = idx(f"metric_engine.funk_batch.{k}")
        pairs = int(s["size"][name == i].sum()) if i >= 0 else 0
        out[f"metric_engine.funk_batch.{k}.ns_per_pair"] = _ratio(total[i] if i >= 0 else 0, pairs)
    in_batch = np.isin(parent, np.flatnonzero(np.isin(name, batch))) & has_parent
    fallback = dur[in_batch & (name == idx("metric_engine.funk"))].sum()
    out["metric_engine.funk_batch.scalar_fallback_share"] = _ratio(
        fallback, sum(total[i] for i in batch))
    lp = idx("_linprog.solve_lp")
    out["linprog.solve_lp.calls_per_op"] = _ratio(count("_linprog.solve_lp"), ops)
    out["linprog.solve_lp.us_per_call"] = _ratio(total[lp] / 1e3 if lp >= 0 else 0,
                                                  count("_linprog.solve_lp"))
    out["linprog.solve_lp.self_share"] = _ratio(self_us("_linprog.solve_lp") * 1e3, busy_ns)
    out["projection.forward_ball_reaches.calls_per_foot"] = _ratio(
        in_subtrees("projection.nearest_on_convex", "projection.forward_ball_reaches", False),
        count("projection.nearest_on_convex"))
    out["projection.nearest_on_segment.funk_calls_per_foot"] = _ratio(
        in_subtrees("projection.nearest_on_segment", "metric_engine.funk", True),
        count("projection.nearest_on_segment"))
    out["geodesy.triangle_report.ray_casts_per_call"] = _ratio(
        in_subtrees("geodesy.triangle_report", "convex_core.ray_boundary.", True),
        count("geodesy.triangle_report"))
    out["finsler_tangent.tangent_norm.self_us_per_op"] = _ratio(
        self_us("finsler_tangent.tangent_norm"), ops)
    sph = idx("ball_geometry.sphere_sample")
    out["ball_geometry.sphere_sample.ray_casts_per_point"] = _ratio(
        in_subtrees("ball_geometry.sphere_sample", "convex_core.ray_boundary.", False, True),
        int(s["size"][name == sph].sum()) if sph >= 0 else 0)
    si = idx("suites.sample_interior")
    out["suites.sample_interior.self_share"] = _ratio(self_us("suites.sample_interior") * 1e3,
                                                      busy_ns)
    out["suites.sample_interior.accept_ratio"] = _ratio(
        int(s["size"][name == si].sum()) if si >= 0 else 0,
        in_subtrees("suites.sample_interior", "convex_core.contains.", False, True))
    return out
