"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload draws all of its inputs from the seed with the benchmark's
own code, builds the program's domains from them, and then repeats one
*pass* over the inputs: a fixed list of calls a single caller makes one
after another (a closed loop with one client).  The first pass is the
warm-up; its outputs are checked against ``reference``, and every later
pass must reproduce them bit for bit.

An *operation* is what ``throughput_ops_s`` counts: one call for
``queries`` and ``projection``, one point pair for ``bulk``, and one suite
check for ``suite-all``.  A *call* is what the latency percentiles time:
one program call, which for ``suite-all`` is one suite of
``run_suite("all")``.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import reference as ref

# Suite sample counts are scaled by this factor so that one `suite all`
# pass takes a few seconds.  `completeness.horizon` is not a sample count:
# scaled down it fails `backward_cauchy_chord_tail` for every seed.
SUITE_SCALE = 16
SMOKE_SUITE_SCALE = 64
UNSCALED_COUNTS = ("completeness.horizon",)


# ---------------------------------------------------------------------------
# domain specs and sampling (benchmark side only)


def box_spec(lo, hi):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    n = lo.size
    A = np.vstack([np.eye(n), -np.eye(n)])
    return ("poly", A, np.concatenate([hi, -lo]))


def random_polytope_spec(rng, dim, extra=3):
    """A jittered box plus a few random cuts, with 0 well inside."""
    hi = 1.0 + rng.uniform(0.0, 0.5, dim)
    lo = -(1.0 + rng.uniform(0.0, 0.5, dim))
    _, A, b = box_spec(lo, hi)
    cuts = rng.standard_normal((extra, dim))
    cuts /= np.linalg.norm(cuts, axis=1, keepdims=True)
    return ("poly", np.vstack([A, cuts]), np.concatenate([b, rng.uniform(0.7, 1.5, extra)]))


def random_map(rng, dim):
    while True:
        M = rng.standard_normal((dim, dim))
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] > 0.2 and s[-1] > 0.05 * s[0]:
            return M, rng.uniform(-0.5, 0.5, dim)


def sample(spec, rng, m, bound, min_margin):
    """m points at least ``min_margin`` inside, by rejection from a box."""
    if spec[0] == "affine":
        _, inner, M, t = spec
        out = np.empty((0, M.shape[0]))
        while len(out) < m:
            P = sample(inner, rng, m, bound, min_margin) @ M.T + t
            out = np.vstack([out, P[ref.margin(spec, P) > min_margin]])
        return out[:m]
    dim = _dim(spec)
    out = np.empty((0, dim))
    while len(out) < m:
        P = rng.uniform(-bound, bound, (4 * m, dim))
        out = np.vstack([out, P[ref.margin(spec, P) > min_margin]])
    return out[:m]


def _dim(spec):
    kind = spec[0]
    if kind == "poly":
        return spec[1].shape[1]
    if kind == "ball":
        return spec[1].size
    if kind == "affine":
        return spec[2].shape[0]
    return _dim(spec[1][0])


def build(fg, spec, witness=None):
    """The program's domain for a spec."""
    kind = spec[0]
    if kind == "poly":
        return fg.HPolytope(spec[1], spec[2], witness=witness)
    if kind == "ball":
        return fg.EuclideanBall(spec[1], spec[2])
    if kind == "affine":
        return fg.AffineImage(build(fg, spec[1], np.zeros(_dim(spec))),
                              fg.AffineMap(spec[2], spec[3]))
    return fg.IntersectionDomain([build(fg, p, witness) for p in spec[1]], witness=witness)


def standard_domains(rng):
    """The five domains of `queries` and `bulk`, one of each kind and more."""
    inner3 = box_spec(-np.ones(3), np.ones(3))
    M, t = random_map(rng, 3)
    return {
        "square": box_spec([-1.0, -1.0], [1.0, 1.0]),
        "poly4": random_polytope_spec(rng, 4),
        "ball3": ("ball", rng.uniform(-0.2, 0.2, 3), float(rng.uniform(0.8, 1.2))),
        "affine": ("affine", inner3, M, t),
        "inter": ("inter", (box_spec([-1.0, -1.0], [1.0, 1.0]),
                            ("ball", np.array([0.3, 0.0]), 1.1))),
    }


# Sampling boxes: every standard domain but the affine image lies inside
# [-B, B]^dim.  The affine image is sampled through its preimage.
BOUNDS = {"square": 1.0, "poly4": 1.5, "ball3": 1.4, "affine": 1.0, "inter": 1.0}


def build_standard(fg, specs):
    return {name: build(fg, spec, np.zeros(_dim(spec))) for name, spec in specs.items()}


def _hash(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


class Workload:
    """One workload: inputs drawn from a seed, one pass, output checks."""

    ops_per_pass = 0  # operations that throughput_ops_s counts, per pass
    whole_pass = False  # whether the latency percentiles time whole passes
    long_calls = False  # whether a call spans many phases of host speed

    def setup(self, fg) -> None:
        """Build the program's domains and warm up (timed as set-up)."""
        raise NotImplementedError

    def run_pass(self, lat: list, tracer=None) -> list:
        """One pass; appends one latency in ns per call to ``lat``."""
        raise NotImplementedError

    def check(self, outputs) -> np.ndarray:
        """Per-call verdicts of the first pass against the reference."""
        raise NotImplementedError

    def tally(self, first, outputs, ref_ok) -> tuple[int, int]:
        """(attempted, failed) calls of one pass.

        A call fails when it raised, when the first pass's output for it
        failed its reference check, or when this pass did not reproduce
        the first pass bit for bit.
        """
        good = [r is not None and bool(ok) and _key(r) == _key(f)
                for r, f, ok in zip(outputs, first, ref_ok)]
        return len(good), len(good) - sum(good)


def _key(r):
    if r is None:
        return None
    if isinstance(r, float):
        return r
    if isinstance(r, np.ndarray):
        return r.tobytes()
    if hasattr(r, "defect"):
        return (r.defect, np.concatenate(r.hits).tobytes(), r.aligned)
    return (r.distance, np.asarray(r.point).tobytes())  # a Foot


def _timed_calls(calls, lat: list, tracer=None) -> list:
    """Run (fn, args) calls in order; a raised error yields None.

    With a tracer, each call is its own operation in the spans.
    """
    out = []
    for fn, args in calls:
        if tracer is not None:
            tracer.op_id += 1
        t0 = perf_counter_ns()
        try:
            r = fn(*args)
        except Exception:  # a failed call is counted, not fatal
            r = None
        lat.append(perf_counter_ns() - t0)
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# queries


# Every public single-pair call, each equally often on every domain.  These
# are the calls behind the CLI's `dist` metrics (funk, rfunk, hilbert,
# maxsym, relfunk) and `tangent`, plus `triangle_report`, whose defect is
# what `geodesic verify` reports for a three-point polyline.  QUERY_REPEATS
# sets the length of a pass: 1050 calls, so that ten lie beyond its 99th
# percentile.
QUERY_CALLS = ("funk", "reverse_funk", "hilbert", "max_symmetrized", "relative_funk",
               "tangent_norm", "triangle_report")
QUERY_REPEATS = 30
OUTER_SCALE = 1.5  # englobing box of relative_funk: the domain's bounding box, scaled


def bounding_half_width(name: str, spec) -> float:
    """A half-width B such that the domain lies inside [-B, B]^dim."""
    if spec[0] == "affine":  # the image of the cube [-1, 1]^3
        _, _, M, t = spec
        return float(np.abs(_box_corners(-np.ones(3), np.ones(3)) @ M.T + t).max())
    return BOUNDS[name]


class Queries(Workload):
    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng([seed, 1])
        self.specs = standard_domains(rng)
        self.outer_specs = {}
        for k, spec in self.specs.items():
            w = OUTER_SCALE * bounding_half_width(k, spec) * np.ones(_dim(spec))
            self.outer_specs[k] = box_spec(-w, w)
        mix = [(call, dom) for call in QUERY_CALLS for dom in self.specs
               for _ in range(1 if smoke else QUERY_REPEATS)]
        self.ops = []
        for i in rng.permutation(len(mix)):
            call, dom = mix[i]
            pts = sample(self.specs[dom], rng, 3, BOUNDS[dom], 0.02)
            if call == "tangent_norm":
                pts[1] = rng.standard_normal(pts.shape[1])
            self.ops.append((call, dom, pts))
        self.ops_per_pass = len(self.ops)

    def input_hash(self) -> str:
        return _hash(*(p for _, _, p in self.ops))

    def setup(self, fg) -> None:
        self.domains = build_standard(fg, self.specs)
        self.outers = {k: build(fg, s, np.zeros(_dim(s))) for k, s in self.outer_specs.items()}
        self.fg = fg
        # First calls: the englobing-containment verdicts of relative_funk,
        # then one call of every kind on every domain.
        seen = set()
        for call, dom, pts in self.ops:
            if (call, dom) not in seen:
                seen.add((call, dom))
                fn, args = self._call(call, dom, pts)
                fn(*args)

    def _call(self, call, dom, pts):
        fn = getattr(self.fg, call)
        d = self.domains[dom]
        x, y, z = pts
        if call == "relative_funk":
            return fn, (d, self.outers[dom], x, y)
        if call == "triangle_report":
            return fn, (d, x, y, z)
        return fn, (d, x, y)

    def run_pass(self, lat, tracer=None):
        # Resolved per pass, so a traced pass calls the wrapped functions.
        return _timed_calls([self._call(*op) for op in self.ops], lat, tracer)

    def check(self, outputs):
        ok = np.zeros(len(self.ops), dtype=bool)
        for i, ((call, dom, pts), r) in enumerate(zip(self.ops, outputs)):
            if r is None:
                continue
            spec = self.specs[dom]
            x, y, z = pts[0:1], pts[1:2], pts[2:3]
            if call == "funk":
                want = ref.funk(spec, x, y)[0]
            elif call == "reverse_funk":
                want = ref.funk(spec, y, x)[0]
            elif call == "hilbert":
                want = 0.5 * (ref.funk(spec, x, y)[0] + ref.funk(spec, y, x)[0])
            elif call == "max_symmetrized":
                want = max(ref.funk(spec, x, y)[0], ref.funk(spec, y, x)[0])
            elif call == "relative_funk":
                want = ref.funk(spec, x, y)[0] + ref.funk(self.outer_specs[dom], y, x)[0]
            elif call == "tangent_norm":
                want = ref.tangent_norm(spec, x, y)[0]
            else:  # triangle_report: defect and the three exits
                want = ref.funk(spec, x, y)[0] + ref.funk(spec, y, z)[0] - ref.funk(spec, x, z)[0]
                hits = np.vstack([ref.exit_points(spec, x, y), ref.exit_points(spec, y, z),
                                  ref.exit_points(spec, x, z)])
                ok[i] = bool(ref.close(r.defect, want)) and bool(
                    np.all(np.abs(np.vstack(r.hits) - hits) <= 1e-9))
                continue
            ok[i] = bool(ref.close(r, want))
        return ok


# ---------------------------------------------------------------------------
# bulk


# Pairs per funk_batch call.  The sizes give every domain a similar share
# of a pass at the commit that added this benchmark, from the costs
# measured there (10th percentile of 30 calls, one thread of a 2-vCPU Xeon
# VM, Python 3.11, numpy 2.4): a call costs
# 85-111 us plus 184-410 ns per pair on the square, the 4-d polytope and
# the ball, and 211-277 us per pair on the affine image and the
# intersection (a per-pair loop).  So 8192 pairs take 1.6-3.4 ms and 8
# pairs 1.7-2.2 ms.  BULK_CALLS independent batches per domain only set
# the length of a pass.
BULK_SIZES = {"square": 8192, "poly4": 8192, "ball3": 8192, "affine": 8, "inter": 8}
BULK_CALLS = 4


class Bulk(Workload):
    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng([seed, 2])
        self.specs = standard_domains(rng)
        calls = 1 if smoke else BULK_CALLS
        self.batches = []
        for dom, size in BULK_SIZES.items():
            size = max(2, size // 32) if smoke else size
            for _ in range(calls):
                X = sample(self.specs[dom], rng, size, BOUNDS[dom], 0.02)
                Y = sample(self.specs[dom], rng, size, BOUNDS[dom], 0.02)
                self.batches.append((dom, X, Y))
        self.ops_per_pass = sum(len(X) for _, X, _ in self.batches)

    def input_hash(self) -> str:
        return _hash(*(a for _, X, Y in self.batches for a in (X, Y)))

    def setup(self, fg) -> None:
        self.domains = build_standard(fg, self.specs)
        self.fg = fg
        for dom, (X, Y) in {d: (X, Y) for d, X, Y in self.batches}.items():
            fg.funk_batch(self.domains[dom], X[:2], Y[:2])

    def run_pass(self, lat, tracer=None):
        fn = self.fg.funk_batch
        return _timed_calls([(fn, (self.domains[d], X, Y)) for d, X, Y in self.batches],
                            lat, tracer)

    def check(self, outputs):
        return np.array([r is not None and r.shape == (len(X),)
                         and bool(np.all(ref.close(r, ref.funk(self.specs[d], X, Y))))
                         for (d, X, Y), r in zip(self.batches, outputs)], dtype=bool)


# ---------------------------------------------------------------------------
# projection


def _segment_spec(p, q):
    """The segment [p, q] in the plane as a degenerate polytope."""
    u = (q - p) / np.linalg.norm(q - p)
    n = np.array([u[1], -u[0]])
    return ("poly", np.array([n, -n, u, -u]), np.array([n @ p, -(n @ p), u @ q, -(u @ p)]))


def _polygon_vertices(rng, center, radius, k=5):
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        if np.min(np.diff(np.append(ang, ang[0] + 2.0 * np.pi))) > 0.4:
            return center + radius * np.column_stack([np.cos(ang), np.sin(ang)])


# (kind of query, number per pass): every kind equally often
PROJECTION_MIX = (("box2", 4), ("polygon2", 4), ("box3", 4), ("seg_ball", 4), ("seg_square", 4))


class Projection(Workload):
    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng([seed, 3])
        self.specs = {"square": box_spec([-1.0, -1.0], [1.0, 1.0]),
                      "poly3": random_polytope_spec(rng, 3),
                      "ball": ("ball", np.zeros(2), 1.0)}
        self.queries = []  # (kind, domain name, x, target vertices or segment ends)
        for kind, count in PROJECTION_MIX:
            for _ in range(1 if smoke else count):
                self.queries.append(self._draw(rng, kind))
        self.ops_per_pass = len(self.queries)

    def _draw(self, rng, kind):
        if kind in ("seg_ball", "seg_square"):
            dom = "ball" if kind == "seg_ball" else "square"
            x, p, q = sample(self.specs[dom], rng, 3, 1.0, 0.15)
            return kind, dom, x, np.vstack([p, q])
        dom = "poly3" if kind == "box3" else "square"
        while True:
            if kind == "box2":
                lo = rng.uniform(-0.6, 0.2, 2)
                V = np.array([lo, np.minimum(lo + rng.uniform(0.15, 0.5, 2), 0.85)])
            elif kind == "polygon2":
                V = _polygon_vertices(rng, rng.uniform(-0.4, 0.4, 2), rng.uniform(0.15, 0.35))
            else:
                c, h = rng.uniform(-0.3, 0.3, 3), rng.uniform(0.1, 0.3, 3)
                V = np.array([c - h, c + h])
            x = sample(self.specs[dom], rng, 1, 1.5, 0.05)[0]
            corners, target = _target(kind, V)
            if ref.margin(target, x[None])[0] < -0.05 and \
                    ref.margin(self.specs[dom], corners).min() > 0.02:
                return kind, dom, x, V

    def input_hash(self) -> str:
        return _hash(*(a for _, _, x, V in self.queries for a in (x, V)))

    def setup(self, fg) -> None:
        self.fg = fg
        domains = {"square": fg.HPolytope.box([-1.0, -1.0], [1.0, 1.0]),
                   "poly3": build(fg, self.specs["poly3"], np.zeros(3)),
                   "ball": fg.EuclideanBall(np.zeros(2), 1.0)}
        self.calls = []  # (function name, domain, x, target or segment ends)
        for kind, dom, x, V in self.queries:
            if kind.startswith("seg"):
                self.calls.append(("nearest_on_segment", domains[dom], x, (V[0], V[1])))
            elif kind == "polygon2":
                self.calls.append(("nearest_on_convex", domains[dom], x,
                                   fg.HPolytope.from_polygon_vertices(V)))
            else:
                self.calls.append(("nearest_on_convex", domains[dom], x,
                                   fg.HPolytope.box(V[0], V[1])))
        # First calls of both drivers (and the polytopes' first LPs).
        for name in ("nearest_on_convex", "nearest_on_segment"):
            call = next(c for c in self.calls if c[0] == name)
            getattr(fg, name)(*call[1:])

    def run_pass(self, lat, tracer=None):
        return _timed_calls([(getattr(self.fg, c[0]), c[1:]) for c in self.calls], lat, tracer)

    def check(self, outputs):
        fg = self.fg
        ok = np.zeros(len(self.queries), dtype=bool)
        rng = np.random.default_rng(0)
        for i, ((kind, dom, x, V), call, foot) in enumerate(zip(self.queries, self.calls, outputs)):
            if foot is None:
                continue
            spec = self.specs[dom]
            y = np.asarray(foot.point, dtype=float)
            if kind.startswith("seg"):
                p, q = V
                tspec = _segment_spec(p, q)
                target = fg.HPolytope(tspec[1], tspec[2], vertices=V)
                inside = foot.param is not None and 0.0 <= foot.param <= 1.0 and \
                    np.linalg.norm(y - (p + foot.param * (q - p))) <= 1e-12
                probes = p + np.linspace(0.0, 1.0, 65)[:, None] * (q - p)
            else:
                target = call[3]
                corners, tspec = _target(kind, V)
                inside = ref.margin(tspec, y[None])[0] >= -1e-9
                w = rng.dirichlet(np.ones(len(corners)), 64)
                probes = np.vstack([corners, w @ corners])
            reach = ref.funk(spec, np.tile(x, (len(probes), 1)), probes)
            dist_ok = foot.distance <= reach.min() + 1e-9 and bool(
                ref.close(foot.distance, ref.funk(spec, x[None], y[None])[0]))
            try:
                cert = fg.foot_certificate(call[1], x, y, target)
            except Exception:  # a raised certificate check is a failed check
                cert = False
            ok[i] = bool(inside and dist_ok and cert)
        return ok


def _target(kind, V):
    """Corners and spec of a box (V = low and high corner) or polygon target."""
    if kind == "polygon2":
        return V, _polygon_spec(V)
    return _box_corners(V[0], V[1]), box_spec(V[0], V[1])


def _box_corners(lo, hi):
    return np.array(np.meshgrid(*zip(lo, hi))).reshape(len(lo), -1).T


def _polygon_spec(V):
    """Polygon with vertices in counter-clockwise order as a polytope."""
    c = V.mean(axis=0)
    rows, th = [], []
    for p, q in zip(V, np.roll(V, -1, axis=0)):
        n = np.array([q[1] - p[1], p[0] - q[0]])
        n = n if n @ (c - p) < 0 else -n
        rows.append(n)
        th.append(n @ p)
    return ("poly", np.array(rows), np.array(th))


# ---------------------------------------------------------------------------
# suite-all


def suite_counts(src: Path, scale: int) -> dict:
    """Every sample count of the suites, scaled down by ``scale``."""
    text = (src / "funkgeo" / "suites.py").read_text()
    found = re.findall(r'cfg\.count\("([a-z_.]+)",\s*([0-9_]+)\)', text)
    return {k: max(1, round(int(v.replace("_", "")) / scale))
            for k, v in found if k not in UNSCALED_COUNTS}


class SuiteAll(Workload):
    """``run_suite("all")`` as its 15 suites, each timed as one call.

    ``run_suite("all", cfg)`` runs every suite of ``SUITES`` in order with
    the same ``cfg``, and each suite draws from its own ``cfg.rng(salt)``,
    so a pass does the work of ``funkgeo suite all`` and reports the same
    checks.
    """

    whole_pass = True
    long_calls = True

    def __init__(self, seed: int, smoke: bool, src: Path):
        self.seed = seed
        self.counts = suite_counts(src, SMOKE_SUITE_SCALE if smoke else SUITE_SCALE)
        self.ops_per_pass = 0  # known after the first pass

    def input_hash(self) -> str:
        return hashlib.sha256(json.dumps([self.seed, self.counts], sort_keys=True)
                              .encode()).hexdigest()[:16]

    def setup(self, fg) -> None:
        self.fg = fg
        self.cfg = fg.RunConfig(seed=self.seed, counts=dict(self.counts))
        self.names = list(sys.modules["funkgeo.suites"].SUITES)

    def run_pass(self, lat, tracer=None):
        reports = _timed_calls([(self._suite, (name,)) for name in self.names], lat, tracer)
        if not self.ops_per_pass and all(r is not None for r in reports):
            self.ops_per_pass = sum(len(r["checks"]) for r in reports)
        return reports

    def _suite(self, name):
        report = self.fg.run_suite(name, self.cfg)
        report.pop("_runtime")
        return report

    def check(self, outputs):
        return np.array([r is not None and r["passed"] and all(c["passed"] for c in r["checks"])
                         for r in outputs])

    def tally(self, first, outputs, ref_ok) -> tuple[int, int]:
        """(attempted, failed) suite checks of one pass.

        A check fails when it did not pass or when its entry differs from
        the first pass; a suite that raised fails every check it has in the
        first pass (at least one).
        """
        attempted = failed = 0
        for report, base in zip(outputs, first):
            if report is None or base is None or len(report["checks"]) != len(base["checks"]):
                n = max(1, len(base["checks"]) if base is not None else 0)
                attempted, failed = attempted + n, failed + n
                continue
            bad = sum(bool(not c["passed"] or c != d)
                      for c, d in zip(report["checks"], base["checks"]))
            same_body = {k: v for k, v in report.items() if k != "checks"} == \
                {k: v for k, v in base.items() if k != "checks"}
            attempted += len(report["checks"])
            failed += bad if same_body and report["passed"] else max(bad, 1)
        return attempted, failed


def make(name: str, seed: int, smoke: bool, src: Path) -> Workload:
    if name == "queries":
        return Queries(seed, smoke)
    if name == "bulk":
        return Bulk(seed, smoke)
    if name == "projection":
        return Projection(seed, smoke)
    if name == "suite-all":
        return SuiteAll(seed, smoke, src)
    raise ValueError(f"unknown workload {name!r}")
