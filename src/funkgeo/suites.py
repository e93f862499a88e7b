"""Reproducible property suites.

Each suite exercises one group of invariants at desk scale.  It is a
generator that yields its checks one by one, and :func:`run_suite` wraps
them in a deterministic report (seed, count overrides, one pass/fail entry
per check, its detail the measured value).  Gates are constants written at
each check; only sample counts (``cfg.count``) are set per run, and a suite
reads all of them before its first check.  Check k of a suite draws from
its own random stream, ``np.random.default_rng([seed, salt, k])`` with the
suite's salt from :data:`SALTED`, so a change to one check's draws moves
only its own report entry, and those of the checks that reuse its samples.
Checks are always executed and reported in definition order, so reports
are byte-stable for a fixed seed apart from the single run-metadata line.
"""

from __future__ import annotations

import math
import time
from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .ball_geometry import backward_ball, forward_ball, sandwich, sphere_sample
from .classical_oracles import ceva_product, cross_ratio, menelaus_product
from .convex_core import (
    AffineImage,
    AffineMap,
    EuclideanBall,
    GeometryError,
    HPolytope,
    IntersectionDomain,
    LinearForm,
    _row_lengths,
    supporting_functional,
)
from .finsler_tangent import (
    convergence_order,
    finite_difference_check,
    polytope_support_form,
    tangent_norm,
)
from .geodesy import (
    FaceCone,
    cone_member,
    polyline_face_witness,
    triangle_batch,
    triangle_report,
    unique_geodesic_pair,
    verify_geodesic,
    verify_hilbert_geodesic,
)
from .metric_engine import (
    distance_from_ratio,
    funk,
    funk_batch,
    funk_polytope_closed_form,
    funk_unit_ball_closed_form,
    hilbert,
    minkowski_max_distance,
    ratio_from_distances,
    relative_funk,
)
from .projection import (
    foot_certificate,
    forward_ball_reaches,
    is_perpendicular,
    nearest_on_convex,
    nearest_on_segment,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict


@dataclass
class RunConfig:
    """Seed and count overrides of a run, and the count keys its checks read."""

    seed: int = 0
    counts: dict = field(default_factory=dict)
    read: set = field(default_factory=set, init=False, repr=False, compare=False)

    def count(self, key: str, default: int) -> int:
        self.read.add(key)
        return int(self.counts.get(key, default))


# A suite: sent each check's generator, it yields that check's result.  The
# quotes keep numpy from loading numpy.random when this module is imported.
Checks = Generator[CheckResult, "np.random.Generator", None]


# ---------------------------------------------------------------------------
# deterministic geometry generators


def unit_square() -> HPolytope:
    return HPolytope.box([-1.0, -1.0], [1.0, 1.0])


def unit_ball(dim: int = 2) -> EuclideanBall:
    return EuclideanBall(np.zeros(dim), 1.0)


def random_polytope(rng: np.random.Generator, dim: int, extra: int = 3) -> HPolytope:
    """Bounded polytope: a jittered box plus a few random cuts, 0 interior."""
    rows, th = [], []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        rows += [e, -e]
        th += [1.0 + rng.uniform(0.0, 0.5), 1.0 + rng.uniform(0.0, 0.5)]
    for _ in range(extra):
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)  # th below is drawn as the cut's distance from 0
        rows.append(a)
        th.append(rng.uniform(0.7, 1.5))
    return HPolytope(np.array(rows), np.array(th), witness=np.zeros(dim))


def random_polygon(rng: np.random.Generator, k: int = 6) -> HPolytope:
    """Random convex polygon with vertex data (points on a stretched circle)."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
    while np.min(np.diff(angles)) < 0.15:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    stretch = np.diag(rng.uniform(0.7, 1.4, 2))
    return HPolytope.from_polygon_vertices(circle @ stretch)


def sample_interior(domain, rng: np.random.Generator, m: int,
                    bound: float = 1.7, min_margin: float = 1e-6) -> np.ndarray:
    """m interior points by rejection from a bounding box, drawn 4*m at a time."""
    return _accepted(m, lambda k: rng.uniform(-bound, bound, size=(4 * m, domain.dim)),
                     lambda block: domain._margins(block) > min_margin)[0]


def _accepted(n: int, draw, accept) -> tuple[np.ndarray, int]:
    """The first n rows that ``accept`` passes, drawn by ``draw(k)`` in blocks while
    k rows are still missing, and the number of rows it rejected on the way.  It
    draws one block at least, so that n = 0 gives no rows of the drawn shape."""
    blocks, have, rejected = [], 0, 0
    while not blocks or have < n:
        block = draw(n - have)
        ok = accept(block)
        blocks.append(block[ok])
        have, rejected = have + int(ok.sum()), rejected + int((~ok).sum())
    return np.concatenate(blocks)[:n], rejected


def random_affine_map(rng: np.random.Generator, dim: int) -> AffineMap:
    while True:
        M = rng.standard_normal((dim, dim))
        svals = np.linalg.svd(M, compute_uv=False)
        if svals[-1] > 1e-3 * svals[0] and svals[-1] > 0.05:
            return AffineMap(M, rng.uniform(-0.5, 0.5, dim))


def random_projective_map(rng: np.random.Generator,
                          corners: np.ndarray) -> np.ndarray:
    """3x3 projective matrix keeping the given 2-d points well inside the chart."""
    while True:
        P = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        hom = np.column_stack([corners, np.ones(len(corners))]) @ P.T
        if np.min(hom[:, 2]) < 0.3:
            continue
        if abs(np.linalg.det(P)) < 1e-3:
            continue
        return P


def apply_projective(P: np.ndarray, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(pts)
    hom = np.column_stack([pts, np.ones(len(pts))]) @ P.T
    return hom[:, :2] / hom[:, 2:]


def _intersect_lines(p0, d0, p1, d1):
    """Row intersections of the 2-d lines p0 + s*d0 and p1 + u*d1 by Cramer's rule;
    nan rows where the lines are near parallel."""
    r = p1 - p0
    det = d1[:, 0] * d0[:, 1] - d0[:, 0] * d1[:, 1]
    s = np.divide(d1[:, 0] * r[:, 1] - r[:, 0] * d1[:, 1], det,
                  out=np.full(len(det), np.nan), where=np.abs(det) >= 1e-6)
    return p0 + s[:, None] * d0


def _well_formed(S: np.ndarray) -> np.ndarray:
    """Rows (A, B, C, A', B', C') of finite points whose triangle ABC has doubled
    area at least 0.2."""
    U, V = S[:, 1] - S[:, 0], S[:, 2] - S[:, 0]
    return np.isfinite(S).all(axis=(1, 2)) & (np.abs(U[:, 0] * V[:, 1] - U[:, 1] * V[:, 0]) >= 0.2)


# ---------------------------------------------------------------------------
# suites


def suite_convex_core(cfg: RunConfig) -> Checks:
    n_rays = cfg.count("convex_core.rays", 2000)
    n_monotone = cfg.count("convex_core.monotone", 300)
    n_equivariance = cfg.count("convex_core.equivariance", 300)
    n_support = cfg.count("convex_core.support", 10_000)
    n_intersection = cfg.count("convex_core.intersection", 400)
    rng = yield
    square = unit_square()
    ball = unit_ball()
    rotated = AffineImage(square, random_affine_map(rng, 2))
    inter = IntersectionDomain([square, EuclideanBall([0.3, 0.0], 1.1)],
                               witness=[0.0, 0.0])
    domains = [square, ball, rotated, inter]

    worst = 0.0
    for domain in domains:
        pts = sample_interior(domain, rng, n_rays // len(domains), bound=2.0)
        for x in pts:
            y = x + 0.3 * rng.standard_normal(domain.dim)
            if domain.contains(y) <= 1e-6 or np.linalg.norm(y - x) < 1e-6:
                continue
            hit = domain.ray_boundary(x, y)
            if not hit.at_infinity:
                worst = max(worst, abs(domain.contains(hit.point)))
    gate = tol.EPS_BD
    rng = yield CheckResult("ray_cast_boundary_consistency", worst <= gate,
                            {"max_abs_margin": worst, "tolerance": gate})

    ok = True
    worst_jump = 0.0
    for _ in range(n_monotone):
        dim = int(rng.integers(2, 5))
        poly = random_polytope(rng, dim)
        x = sample_interior(poly, rng, 1, bound=1.6)[0]
        y = x + 0.2 * rng.standard_normal(dim)
        if poly.contains(y) <= 1e-6 or np.linalg.norm(y - x) < 1e-6:
            continue
        t_old = poly.ray_boundary(x, y).t
        j = int(rng.integers(0, poly.b.size))
        slack_x = poly.b[j] - poly.A[j] @ x
        b_new = poly.b.copy()
        b_new[j] -= 0.5 * slack_x
        t_new = poly.shifted(b_new).ray_boundary(x, y).t
        if np.isfinite(t_old) or np.isfinite(t_new):
            jump = t_new - t_old if np.isfinite(t_new) and np.isfinite(t_old) else (
                np.inf if np.isfinite(t_new) and not np.isfinite(t_old) else 0.0)
            worst_jump = max(worst_jump, jump)
            ok = ok and (jump <= 1e-12)
    rng = yield CheckResult("hit_parameter_monotone_in_slack", ok,
                            {"max_increase": worst_jump, "trials": n_monotone})

    worst = 0.0
    for _ in range(n_equivariance):
        amap = random_affine_map(rng, 2)
        image = AffineImage(square, amap)
        x = sample_interior(square, rng, 1, bound=1.0)[0]
        y = sample_interior(square, rng, 1, bound=1.0)[0]
        if np.linalg.norm(y - x) < 1e-4:
            continue
        hit = square.ray_boundary(x, y)
        hit_img = image.ray_boundary(amap(x), amap(y))
        if hit.at_infinity != hit_img.at_infinity:
            worst = np.inf
            continue
        if not hit.at_infinity:
            worst = max(worst, float(np.linalg.norm(hit_img.point - amap(hit.point))))
    gate = tol.EPS_GEOM
    rng = yield CheckResult("affine_equivariance_of_ray_cast", worst <= gate,
                            {"max_point_gap": worst, "tolerance": gate})

    worst = -np.inf
    for domain in domains:
        boundary = []
        pts = sample_interior(domain, rng, 50, bound=2.0)
        for x in pts:
            y = x + rng.standard_normal(domain.dim)
            if domain.contains(y) <= 1e-6 or np.linalg.norm(y - x) < 1e-6:
                continue
            hit = domain.ray_boundary(x, y)
            if not hit.at_infinity:
                boundary.append(hit.point)
        samples = sample_interior(domain, rng, max(1, n_support // len(domains)), bound=2.0)
        for a in boundary[:20]:
            h = supporting_functional(domain, a)
            worst = max(worst, float(np.max(samples @ h.coeffs + h.offset)))
    rng = yield CheckResult("supporting_functional_below_one", worst < 1.0 + tol.EPS_BD,
                            {"max_value_on_interior": worst})

    worst = 0.0
    parts = [square, EuclideanBall([0.3, 0.0], 1.1)]
    both = IntersectionDomain(parts, witness=[0.0, 0.0])
    pts = sample_interior(both, rng, n_intersection, bound=1.0)
    for x, y in zip(pts[::2], pts[1::2]):
        if np.linalg.norm(y - x) < 1e-6:
            continue
        t_both = both.ray_boundary(x, y).t
        t_min = min(p.ray_boundary(x, y).t for p in parts)
        worst = max(worst, abs(t_both - t_min))
    gate = tol.EPS_GEOM
    rng = yield CheckResult("intersection_hit_is_min_of_children", worst <= gate,
                            {"max_parameter_gap": worst, "tolerance": gate})


def suite_oracle_closedform(cfg: RunConfig) -> Checks:
    per_dim = cfg.count("oracle.pairs_per_dim", 2500)
    rng = yield
    gate = 1e-9

    worst = 0.0
    for dim in (2, 3, 4, 5):
        poly = random_polytope(rng, dim)
        X = sample_interior(poly, rng, per_dim, bound=1.6)
        Y = sample_interior(poly, rng, per_dim, bound=1.6)
        gap = funk_polytope_closed_form(poly, X, Y) - funk_batch(poly, X, Y)
        worst = max(worst, float(np.max(np.abs(gap))))
    rng = yield CheckResult("polytope_closed_form_matches_ray_cast", worst <= gate,
                            {"max_gap": worst, "tolerance": gate,
                             "pairs": 4 * per_dim})

    worst = 0.0
    for dim in (2, 3, 4, 5):
        ball = unit_ball(dim)
        X = sample_interior(ball, rng, per_dim, bound=1.0)
        Y = sample_interior(ball, rng, per_dim, bound=1.0)
        gap = funk_unit_ball_closed_form(X, Y) - funk_batch(ball, X, Y)
        worst = max(worst, float(np.max(np.abs(gap))))
    rng = yield CheckResult("unit_ball_closed_form_matches_ray_cast", worst <= gate,
                            {"max_gap": worst, "tolerance": gate,
                             "pairs": 4 * per_dim})


def suite_axioms(cfg: RunConfig) -> Checks:
    total = cfg.count("axioms.triples", 100_000)
    n_proj = cfg.count("axioms.projectivity", 10_000)
    n_sep = cfg.count("axioms.separation", 5000)
    rng = yield
    domains = [(unit_square(), 1.0), (random_polytope(rng, 3), 1.6),
               (unit_ball(), 1.0)]
    share = max(1, total // len(domains))

    # Samples stay 1e-2 clear of the boundary: the 1e-12 slack budget is a
    # statement about the metric, not about the conditioning of slacks of
    # nearly-boundary points (their relative error alone exceeds it).
    min_value = np.inf
    max_violation = -np.inf
    for domain, bound in domains:
        X = sample_interior(domain, rng, share, bound=bound, min_margin=1e-2)
        Y = sample_interior(domain, rng, share, bound=bound, min_margin=1e-2)
        Z = sample_interior(domain, rng, share, bound=bound, min_margin=1e-2)
        fxy = funk_batch(domain, X, Y)
        fyz = funk_batch(domain, Y, Z)
        fxz = funk_batch(domain, X, Z)
        min_value = min(min_value, float(np.min([fxy.min(), fyz.min(), fxz.min()])))
        max_violation = max(max_violation, float(np.max(fxz - fxy - fyz)))
    gate = 1e-12
    rng = yield CheckResult("nonnegativity", min_value >= 0.0,
                            {"min_value": min_value, "triples": total})
    rng = yield CheckResult("triangle_inequality", max_violation <= gate,
                            {"max_violation": max_violation, "tolerance": gate,
                             "triples": total})

    worst = 0.0
    share = max(1, n_proj // len(domains))
    for domain, bound in domains:
        X = sample_interior(domain, rng, share, bound=bound)
        Y = sample_interior(domain, rng, share, bound=bound)
        s = rng.uniform(0.05, 0.95, len(X))[:, None]
        Z = X + s * (Y - X)
        gap = np.abs(funk_batch(domain, X, Y)
                     - funk_batch(domain, X, Z) - funk_batch(domain, Z, Y))
        worst = max(worst, float(np.max(gap)))
    gate = 1e-9
    rng = yield CheckResult("projectivity_on_segments", worst <= gate,
                            {"max_gap": worst, "tolerance": gate,
                             "triples": n_proj})

    min_f = np.inf
    share = max(1, n_sep // 2)
    for domain, bound in [(unit_square(), 1.0), (unit_ball(), 1.0)]:
        X = sample_interior(domain, rng, share, bound=bound)
        Y = sample_interior(domain, rng, share, bound=bound)
        keep = np.linalg.norm(Y - X, axis=1) > 1e-6
        min_f = min(min_f, float(np.min(funk_batch(domain, X[keep], Y[keep]))))
    half_plane = HPolytope([[0.0, -1.0]], [0.0], witness=[0.0, 1.0])
    X = np.column_stack([rng.uniform(-3, 3, 200), rng.uniform(0.2, 3.0, 200)])
    Y = X + np.column_stack([rng.uniform(0.1, 2.0, 200), np.zeros(200)])
    parallel = funk_batch(half_plane, X, Y)
    rng = yield CheckResult(
        "separation_iff_bounded",
        min_f > 0.0 and float(np.max(np.abs(parallel))) == 0.0,
        {"min_bounded_value": min_f,
         "max_parallel_value": float(np.max(np.abs(parallel)))})


def suite_monotonicity(cfg: RunConfig) -> Checks:
    pairs = cfg.count("monotonicity.pairs", 4000)
    rng = yield

    worst = -np.inf
    share = max(1, pairs // 2)
    for dim in (2, 3):
        outer = random_polytope(rng, dim)
        inner = outer.shifted(outer.b - 0.15)
        X = sample_interior(inner, rng, share, bound=1.6, min_margin=1e-2)
        Y = sample_interior(inner, rng, share, bound=1.6, min_margin=1e-2)
        worst = max(worst, float(np.max(funk_batch(outer, X, Y)
                                        - funk_batch(inner, X, Y))))
    rng = yield CheckResult("smaller_domain_larger_distance", worst <= 1e-12,
                            {"max_violation": worst})

    square = unit_square()
    disk = EuclideanBall([0.3, 0.0], 1.1)
    both = IntersectionDomain([square, disk], witness=[0.0, 0.0])
    X = sample_interior(both, rng, 500, bound=1.0)
    Y = sample_interior(both, rng, 500, bound=1.0)
    worst = float(np.max(np.abs(funk_batch(both, X, Y) - np.maximum(
        funk_batch(square, X, Y), funk_batch(disk, X, Y)))))
    gate = 1e-9
    rng = yield CheckResult("intersection_distance_is_max", worst <= gate,
                            {"max_gap": worst, "tolerance": gate})

    box3 = HPolytope.box([-1.0, -1.2, -0.9], [1.1, 1.0, 1.3])
    origin = np.array([0.1, 0.0, 0.05])
    U = np.linalg.qr(rng.standard_normal((3, 2)))[0][:, :2].T  # 2 x 3 chart
    slice_poly = HPolytope(box3.A @ U.T, box3.b - box3.A @ origin)
    Xp = sample_interior(slice_poly, rng, 400, bound=1.3)
    Yp = sample_interior(slice_poly, rng, 400, bound=1.3)
    ambient_x = origin + Xp @ U
    ambient_y = origin + Yp @ U
    gap = np.abs(funk_batch(slice_poly, Xp, Yp)
                 - funk_batch(box3, ambient_x, ambient_y))
    gate = 1e-9
    rng = yield CheckResult("plane_slice_inherits_distance",
                            float(np.max(gap)) <= gate,
                            {"max_gap": float(np.max(gap)), "tolerance": gate})


def suite_invariance(cfg: RunConfig) -> Checks:
    maps = cfg.count("invariance.affine_maps", 1000)
    pairs_per_map = cfg.count("invariance.pairs_per_map", 8)
    proj_maps = cfg.count("invariance.projective_maps", 1000)
    n_orthant = cfg.count("invariance.orthant_pairs", 10_000)
    rng = yield
    square = unit_square()
    gate = 1e-9

    worst = 0.0
    for _ in range(maps):
        amap = random_affine_map(rng, 2)
        image = AffineImage(square, amap)
        X = sample_interior(square, rng, pairs_per_map, bound=1.0)
        Y = sample_interior(square, rng, pairs_per_map, bound=1.0)
        gap = np.abs(funk_batch(image, amap(X), amap(Y)) - funk_batch(square, X, Y))
        worst = max(worst, float(np.max(gap)))
    rng = yield CheckResult("funk_affine_invariance", worst <= gate,
                            {"max_gap": worst, "maps": maps, "tolerance": gate})

    gate_h = 1e-9
    corners = square.vertices
    worst = 0.0
    for _ in range(proj_maps):
        P = random_projective_map(rng, corners)
        try:
            image = HPolytope.from_polygon_vertices(apply_projective(P, corners))
        except GeometryError:
            continue
        X = sample_interior(square, rng, 4, bound=1.0, min_margin=1e-3)
        Y = sample_interior(square, rng, 4, bound=1.0, min_margin=1e-3)
        # Row Hilbert distances, 0.5 * (F(X, Y) + F(Y, X)), in both charts.
        XY, YX = np.vstack([X, Y]), np.vstack([Y, X])
        F = funk_batch(image, apply_projective(P, XY), apply_projective(P, YX))
        G = funk_batch(square, XY, YX)
        worst = max(worst, float(np.max(np.abs(0.5 * (F[:4] + F[4:]) - 0.5 * (G[:4] + G[4:])))))
    rng = yield CheckResult("hilbert_projective_invariance", worst <= gate_h,
                            {"max_gap": worst, "maps": proj_maps,
                             "tolerance": gate_h})

    # H(x, y) = 1/2 log [b, x, y, a] for the exits a (past y) and b (behind x).
    X = sample_interior(square, rng, 200, bound=1.0)
    Y = sample_interior(square, rng, 200, bound=1.0)
    A = X + square._exits(X, Y)[:, None] * (Y - X)
    B = Y + square._exits(Y, X)[:, None] * (X - Y)
    H = np.array([hilbert(square, x, y) for x, y in zip(X, Y)])
    worst = float(np.max(np.abs(H - 0.5 * np.log(cross_ratio(B, X, Y, A))) / np.maximum(1.0, H)))
    rng = yield CheckResult("hilbert_is_half_log_cross_ratio", worst <= 1e-9,
                            {"max_relative_gap": worst, "tolerance": 1e-9})

    polys = [unit_square(), random_polygon(rng)]
    worst = -np.inf
    for poly in polys:
        diam = float(np.max([np.linalg.norm(u - v) for u in poly.vertices
                             for v in poly.vertices]))
        X = sample_interior(poly, rng, 100, bound=1.5)
        bounds = np.log(diam / np.array([sandwich(poly, x).lambda_x for x in X]))
        Y = sample_interior(poly, rng, 40 * len(X), bound=1.5)
        rf = funk_batch(poly, Y, np.repeat(X, 40, axis=0)).reshape(len(X), 40)
        worst = max(worst, float(np.max(rf.max(axis=1) - bounds)))
    gate_rb = 1e-9
    rng = yield CheckResult("reverse_funk_diameter_bound", worst <= gate_rb,
                            {"max_excess": worst, "tolerance": gate_rb})

    worst = 0.0
    for dim in (2, 4):
        orthant = HPolytope(-np.eye(dim), np.zeros(dim), witness=np.ones(dim))
        X, Y = np.exp(rng.uniform(-2, 2, size=(2, max(1, n_orthant // 2), dim)))
        direct = funk_batch(orthant, X, Y)
        mapped = minkowski_max_distance(np.log(X), np.log(Y))
        worst = max(worst, float(np.max(np.abs(direct - mapped))))
    rng = yield CheckResult("orthant_log_isometry", worst <= 1e-12,
                            {"max_gap": worst, "pairs": n_orthant})


def suite_completeness(cfg: RunConfig) -> Checks:
    horizon = cfg.count("completeness.horizon", 10_000)
    configs = cfg.count("completeness.ball_configs", 50)
    rng = yield
    square = unit_square()
    b = np.array([-1.0, 0.0])
    a = np.array([1.0, 0.0])

    def chord(k: int) -> np.ndarray:
        return b + (1.0 / k) * (a - b)

    # The sequence marches toward the boundary point b; the distance from a
    # later point back to an earlier one exits at the far endpoint a and
    # shrinks like log((1 - 1/m)/(1 - 1/k)), so the tail supremum vanishes
    # even though the points never converge inside the domain.
    sups = {}
    for k in (10, 100, 1000):
        ms = sorted(set(np.unique(np.geomspace(k, horizon, 40).astype(int))
                        .tolist() + [horizon]))
        sups[k] = max(funk(square, chord(m), chord(k)) for m in ms if m >= k)
    decreasing = sups[10] > sups[100] > sups[1000]
    limit_is_boundary = abs(square.contains(b)) <= tol.EPS_BD \
        and np.linalg.norm(chord(horizon) - b) < 1e-3
    gate = 1e-3
    rng = yield CheckResult(
        "backward_cauchy_chord_tail", sups[1000] < gate and decreasing
        and limit_is_boundary,
        {"tail_sup_at_k1000": sups[1000], "tolerance": gate,
         "sups": {str(k): v for k, v in sups.items()}, "horizon": horizon})

    ok = True
    worst_margin = np.inf
    for poly in (square, random_polygon(rng)):
        for _ in range(configs):
            x = sample_interior(poly, rng, 1, bound=1.5, min_margin=1e-2)[0]
            rho = rng.uniform(0.1, 3.0)
            ball = forward_ball(poly, x, rho)
            pts = sphere_sample(ball, 32, seed=cfg.seed)
            outer = (1.0 - math.exp(-rho)) * sandwich(poly, x).Lambda_x
            margins = poly._margins(pts)
            worst_margin = min(worst_margin, float(margins.min()))
            ok = ok and bool(np.all(margins > 0.0)) \
                and bool(np.all(np.linalg.norm(pts - x, axis=1) <= outer + 1e-9))
    rng = yield CheckResult("forward_balls_relatively_compact", ok,
                            {"min_interior_margin": worst_margin})


def suite_ratio(cfg: RunConfig) -> Checks:
    n = cfg.count("ratio.configs", 10_000)
    rng = yield
    gate = 1e-10

    worst_rt = 0.0
    worst_fwd = 0.0
    # |y - x| >= 1e-4 keeps F(x, y) above 1e-5 in these bounded domains.
    for i, (domain, bound) in enumerate([(unit_square(), 1.6), (random_polytope(rng, 3), 1.6),
                                         (unit_ball(), 1.0)]):
        pairs, _ = _accepted(
            len(range(i, n, 3)),
            lambda k: sample_interior(domain, rng, 2 * k, bound=bound).reshape(k, 2, domain.dim),
            lambda B: np.linalg.norm(B[:, 1] - B[:, 0], axis=1) >= 1e-4)
        X, Y = pairs[:, 0], pairs[:, 1]
        t = rng.uniform(0.0, 0.95 * np.minimum(domain._exits(X, Y), 10.0))
        fxy = funk_batch(domain, X, Y)
        fxz = funk_batch(domain, X, X + t[:, None] * (Y - X))
        for f_y, f_z, t_z in zip(fxy.tolist(), fxz.tolist(), t.tolist()):
            t_back = ratio_from_distances(f_y, f_z)
            worst_rt = max(worst_rt, abs(distance_from_ratio(f_y, t_back) - f_z))
            worst_fwd = max(worst_fwd, abs(distance_from_ratio(f_y, t_z) - f_z))
    rng = yield CheckResult("ratio_round_trip", worst_rt <= gate,
                            {"max_gap": worst_rt, "configs": n, "tolerance": gate})
    rng = yield CheckResult("distance_from_geometric_ratio", worst_fwd <= gate,
                            {"max_gap": worst_fwd, "tolerance": gate})

    t_val = ratio_from_distances(math.log(2.0), math.log(4.0))
    back = distance_from_ratio(math.log(2.0), 1.5)
    worked = (abs(t_val - 1.5) <= 1e-12 and abs(back - math.log(4.0)) <= 1e-12
              and abs(ratio_from_distances(math.log(2.0), math.log(2.0)) - 1.0) <= 1e-12
              and abs(ratio_from_distances(math.log(2.0), 0.0)) <= 1e-12
              and abs(distance_from_ratio(math.log(2.0), 1.0) - math.log(2.0)) <= 1e-12
              and abs(distance_from_ratio(math.log(2.0), 0.0)) <= 1e-12)
    rng = yield CheckResult("worked_ratio_instance", worked,
                            {"t": t_val, "recovered_distance": back})


def suite_balls(cfg: RunConfig) -> Checks:
    samples = cfg.count("balls.sphere_samples", 1000)
    rng = yield
    square = unit_square()
    ball = unit_ball()
    gate = 1e-8

    worst = 0.0
    domains = [square, ball, random_polygon(rng),
               AffineImage(square, random_affine_map(rng, 2))]
    for domain in domains:
        x = sample_interior(domain, rng, 1, bound=2.0, min_margin=1e-2)[0]
        rho = rng.uniform(0.2, 2.0)
        pts = sphere_sample(forward_ball(domain, x, rho), max(3, samples // len(domains)),
                            seed=cfg.seed)
        gap = np.abs(funk_batch(domain, np.tile(x, (len(pts), 1)), pts) - rho)
        worst = max(worst, float(np.max(gap)))
    rng = yield CheckResult("forward_sphere_at_exact_radius", worst <= gate,
                            {"max_gap": worst, "tolerance": gate})

    x0 = np.array([0.3, -0.2])
    rho = 0.7
    fb = forward_ball(ball, x0, rho)
    realized = fb.realized
    center_gap = float(np.linalg.norm(realized.center - math.exp(-rho) * x0))
    radius_gap = abs(realized.radius - (1.0 - math.exp(-rho)))
    rng = yield CheckResult(
        "unit_ball_forward_ball_is_euclidean",
        isinstance(realized, EuclideanBall) and max(center_gap, radius_gap) <= 1e-9,
        {"center_gap": center_gap, "radius_gap": radius_gap})

    x1 = np.array([0.2, 0.1])
    x2 = np.array([-0.4, 0.3])
    rho1, rho2 = 0.5, 1.1
    b1 = forward_ball(square, x1, rho1)
    b2 = forward_ball(square, x2, rho2)
    lam1 = -math.expm1(-rho1)
    lam2 = -math.expm1(-rho2)
    # Composite of the two homotheties: the dilation carrying ball 1 to 2.
    Q = x2 + lam2 * (x1 - x2) + (lam2 / lam1) * (sphere_sample(b1, 64, seed=cfg.seed) - x1)
    worst = float(np.max(np.abs(b2.realized._margins(Q))))
    rng = yield CheckResult("forward_balls_similar", worst <= tol.EPS_GEOM,
                            {"max_boundary_margin": worst})

    fb = forward_ball(square, np.array([0.2, -0.3]), 0.8)
    pts = sphere_sample(fb, 200, seed=cfg.seed)
    mids = 0.5 * (pts + pts[rng.permutation(len(pts))])
    min_margin = float(fb.realized._margins(mids).min())
    rng = yield CheckResult("forward_balls_convex", min_margin >= -tol.EPS_GEOM,
                            {"min_midpoint_margin": min_margin})

    bb = backward_ball(square, np.zeros(2), math.log(2.0))
    pts = sample_interior(square, rng, 300, bound=1.0)
    equal = bool(np.all((bb.realized._margins(pts) > 0.0) == (square._margins(pts) > 0.0)))
    bb_large = backward_ball(square, np.array([0.4, -0.2]), 4.0)
    covered = bool(np.all(bb_large.realized._margins(pts) > 0.0))
    rng = yield CheckResult("backward_ball_saturates_to_domain",
                            equal and covered, {"samples": len(pts)})

    x = np.array([0.3, 0.2])
    rho = 0.5
    bb = backward_ball(square, x, rho)
    worst = 0.0
    certified = 0
    for p in sphere_sample(bb, 64, seed=cfg.seed):
        if bb.radius_is_certified(p):
            certified += 1
            worst = max(worst, abs(funk(square, p, x) - rho))
    rng = yield CheckResult("backward_sphere_radius_on_homothet_side",
                            certified > 0 and worst <= gate,
                            {"max_gap": worst, "certified_points": certified})

    tiny = forward_ball(square, np.zeros(2), 1e-6)
    spread = float(np.max(np.linalg.norm(
        sphere_sample(tiny, 16, seed=cfg.seed), axis=1)))
    rng = yield CheckResult("forward_ball_shrinks_to_center", spread <= 2e-6,
                            {"max_distance": spread})


def suite_sandwich(cfg: RunConfig) -> Checks:
    configs = cfg.count("sandwich.configs", 100)
    rng = yield
    polys = [unit_square(), random_polygon(rng),
             HPolytope.box([-0.8, -1.1, -0.9], [1.2, 0.9, 1.0])]

    fwd_ok, bwd_ok = True, True
    fwd_excess, bwd_excess = 0.0, 0.0
    for poly in polys:
        for _ in range(configs):
            x = sample_interior(poly, rng, 1, bound=1.5, min_margin=1e-2)[0]
            rho = rng.uniform(0.05, 2.5)
            cons = sandwich(poly, x)
            lo, hi = cons.forward_bracket(rho)
            r = np.linalg.norm(sphere_sample(forward_ball(poly, x, rho), 32,
                                             seed=cfg.seed) - x, axis=1)
            fwd_ok = fwd_ok and bool(np.all((lo - 1e-9 <= r) & (r <= hi + 1e-9)))
            fwd_excess = max(fwd_excess, float(np.max(lo - r)), float(np.max(r - hi)))
            if rho <= math.log(2.0):
                lo, hi = cons.backward_bracket(rho)
                r = np.linalg.norm(sphere_sample(backward_ball(poly, x, rho), 32,
                                                 seed=cfg.seed) - x, axis=1)
                bwd_ok = bwd_ok and bool(np.all((lo - 1e-9 <= r) & (r <= hi + 1e-9)))
                bwd_excess = max(bwd_excess, float(np.max(lo - r)), float(np.max(r - hi)))
    rng = yield CheckResult("forward_sphere_inside_euclidean_annulus", fwd_ok,
                            {"max_excess": fwd_excess, "configs": configs})
    rng = yield CheckResult("backward_sphere_inside_euclidean_annulus", bwd_ok,
                            {"max_excess": bwd_excess})

    sq = unit_square()
    c1 = sandwich(sq, np.zeros(2))
    c2 = sandwich(sq, np.array([0.5, 0.0]))
    exact = (abs(c1.lambda_x - 1.0) <= 1e-12
             and abs(c1.Lambda_x - math.sqrt(2.0)) <= 1e-12
             and abs(c2.lambda_x - 0.5) <= 1e-12
             and abs(c2.Lambda_x - math.sqrt(1.5 ** 2 + 1.0)) <= 1e-12)
    rng = yield CheckResult("square_constants_exact", exact,
                            {"lambda_center": c1.lambda_x, "Lambda_center": c1.Lambda_x})


def _edge_aligned_triples(rng: np.random.Generator, m: int) -> np.ndarray:
    """m triples (m, 3, 2) of square points whose forward hits all land on the edge x1 = 1.

    Heights stay within a narrow band so every chord's slope is small
    enough that its extension leaves through the right edge.
    """
    across = rng.uniform([-0.6, -0.05, 0.4], [-0.4, 0.05, 0.6], (m, 3))
    return np.stack([across, 0.4 + rng.uniform(0.0, 0.05, (m, 3))], axis=2)


def suite_triangle(cfg: RunConfig) -> Checks:
    n_edge = cfg.count("triangle.edge_triples", 1000)
    n_ball = cfg.count("triangle.ball_triples", 10_000)
    n_pert = cfg.count("triangle.perturbed", 300)
    rng = yield
    square = unit_square()
    ball = unit_ball()

    defect, aligned = triangle_batch(square, *_edge_aligned_triples(rng, n_edge).swapaxes(0, 1))
    worst_defect = float(np.max(np.abs(defect)))
    rng = yield CheckResult("square_edge_triples_reach_equality",
                            worst_defect <= 1e-9 and bool(aligned.all()),
                            {"max_defect": worst_defect, "triples": n_edge})

    # Near-collinear triples are regenerated: the hits of an almost-straight
    # triple cluster on a short boundary arc, whose deviation from a line is
    # quadratic in the thinness, so the rank flag would be exercised inside
    # its own tolerance band rather than on genuinely bent triples.
    def well_apart(T):
        leg, chord = T[:, 1] - T[:, 0], T[:, 2] - T[:, 0]
        sides = np.linalg.norm(np.stack([leg, chord, T[:, 2] - T[:, 1]]), axis=2)
        off_line = np.abs(chord[:, 0] * leg[:, 1] - chord[:, 1] * leg[:, 0])
        return (sides.min(axis=0) >= 1e-2) & (off_line >= 1e-2 * sides[1])

    triples, redrawn = _accepted(
        n_ball, lambda k: sample_interior(ball, rng, 3 * k, bound=1.0).reshape(k, 3, 2),
        well_apart)
    defect, aligned = triangle_batch(ball, *triples.swapaxes(0, 1))
    min_defect = float(defect.min())
    misclassified = int(np.sum(aligned | (defect <= 0.0)))
    rng = yield CheckResult("ball_triples_strictly_inside_inequality",
                            misclassified == 0,
                            {"min_defect": min_defect, "triples": n_ball,
                             "misclassified": misclassified,
                             "redrawn_near_collinear": redrawn})

    # In a strictly convex domain only collinear triples reach equality, so
    # nudging the middle point off the chord must produce a visible defect.
    X, Z = sample_interior(ball, rng, 2 * n_pert, bound=1.0, min_margin=0.25).reshape(2, -1, 2)
    far = np.linalg.norm(Z - X, axis=1) >= 0.3
    X, Z, s = X[far], Z[far], rng.uniform(0.3, 0.7, n_pert)[far, None]
    D = (Z - X) / np.linalg.norm(Z - X, axis=1, keepdims=True)
    defect, _ = triangle_batch(ball, X, X + s * (Z - X) + 1e-2 * D @ [[0.0, 1.0], [-1.0, 0.0]], Z)
    min_pert = float(np.min(defect, initial=np.inf))
    rng = yield CheckResult("perturbation_breaks_equality", min_pert > 1e-6,
                            {"min_defect": min_pert})


def suite_geodesic(cfg: RunConfig) -> Checks:
    n = cfg.count("geodesic.square_polylines", 200)
    n_ball = cfg.count("geodesic.ball_polylines", 1000)
    n_pairs = cfg.count("geodesic.unique_pairs", 300)
    rng = yield
    square = unit_square()
    ball = unit_ball()
    right_edge = next(iter(square.active_face(np.array([1.0, 0.0]))))

    all_pass = True
    cone_ok = True
    for x, y, z in _edge_aligned_triples(rng, n):
        ok, _ = verify_geodesic(square, [x, y, z])
        all_pass = all_pass and ok
        witness = polyline_face_witness(square, [x, y, z])
        cone_ok = cone_ok and bool(witness)
        if witness:
            cone = FaceCone(base=x, face=witness)
            cone_ok = cone_ok and cone_member(square, cone, y - x)
            cone_ok = cone_ok and cone_member(
                square, FaceCone(base=y, face=witness), z - y)
    rng = yield CheckResult("square_face_aligned_polylines_are_geodesic",
                            all_pass, {"polylines": n})
    rng = yield CheckResult("geodesics_admit_face_cone_witness", cone_ok, {})

    bent_fail = True
    done = 0
    while done < n_ball:
        pts = sample_interior(ball, rng, 3, bound=1.0)
        u, v = pts[1] - pts[0], pts[2] - pts[0]
        if float((u @ u) * (v @ v) - (u @ v) ** 2) < 1e-8:
            continue
        ok, defect = verify_geodesic(ball, [pts[0], pts[1], pts[2]])
        bent_fail = bent_fail and (not ok) and defect > 0.0
        done += 1
    rng = yield CheckResult("ball_bent_polylines_never_geodesic", bent_fail,
                            {"polylines": n_ball})

    x = np.array([-0.5, 0.5])
    y = np.array([0.0, 0.6])
    z = np.array([0.5, 0.5])
    ok_h, defect_h = verify_hilbert_geodesic(square, [x, y, z])
    fwd = polyline_face_witness(square, [x, y, z])
    bwd = polyline_face_witness(square, [x, y, z], reverse=True)
    rng = yield CheckResult("hilbert_geodesic_needs_two_faces",
                            ok_h and bool(fwd) and bool(bwd),
                            {"defect": defect_h,
                             "forward_face": sorted(fwd),
                             "backward_face": sorted(bwd)})

    x2 = np.array([-0.5, 0.9])
    y2 = np.array([0.0, 0.5])
    z2 = np.array([0.5, 0.45])
    ok_f, _ = verify_geodesic(square, [x2, y2, z2])
    ok_h2, defect_h2 = verify_hilbert_geodesic(square, [x2, y2, z2])
    bwd2 = polyline_face_witness(square, [x2, y2, z2], reverse=True)
    rng = yield CheckResult("one_sided_alignment_is_not_hilbert_geodesic",
                            ok_f and not ok_h2 and not bwd2,
                            {"hilbert_defect": defect_h2})

    # Forward balls of a non-strictly-convex domain are not geodesically
    # convex: a bent geodesic joins two ball points through an outside point.
    px = np.array([-0.5, 0.45])
    py = np.array([0.0, 0.5])
    pz = np.array([0.5, 0.45])
    anchor = np.array([0.0, -0.5])
    rho_mid = 0.5 * (max(funk(square, anchor, px), funk(square, anchor, pz))
                     + funk(square, anchor, py))
    fb = forward_ball(square, anchor, rho_mid)
    bent_ok, _ = verify_geodesic(square, [px, py, pz])
    rng = yield CheckResult(
        "forward_balls_not_geodesically_convex_in_polytopes",
        bent_ok and fb.realized.contains(px) > 0.0
        and fb.realized.contains(pz) > 0.0 and fb.realized.contains(py) < 0.0,
        {"radius": rho_mid})

    ball_unique = all(
        unique_geodesic_pair(ball, p, q)
        for p, q in zip(sample_interior(ball, rng, n_pairs, bound=1.0),
                        sample_interior(ball, rng, n_pairs, bound=1.0))
        if np.linalg.norm(q - p) > 1e-3)
    edge_pair = not unique_geodesic_pair(square, np.array([0.0, 0.0]),
                                         np.array([0.5, 0.1]))
    corner_pair = unique_geodesic_pair(square, np.array([0.0, 0.0]),
                                       np.array([0.5, 0.5]))
    rng = yield CheckResult("unique_geodesy_matches_exposedness",
                            ball_unique and edge_pair and corner_pair,
                            {"right_edge_index": right_edge})


def suite_projection(cfg: RunConfig) -> Checks:
    configs = cfg.count("projection.configs", 4)
    n_conv = cfg.count("projection.convex_targets", 25)
    rng = yield
    square = unit_square()
    ball = unit_ball()

    # The foot is optimal against a dense grid of F along the segment, and every
    # grid point within 1e-9 of its distance or of the grid minimum lies within
    # one step of it: the ball has one minimiser.
    grid = np.linspace(0.0, 1.0, 2001)
    worst_excess, worst_offset = 0.0, 0.0
    for _ in range(configs):
        x = sample_interior(ball, rng, 1, bound=1.0, min_margin=0.2)[0]
        p = sample_interior(ball, rng, 1, bound=1.0, min_margin=0.15)[0]
        q = sample_interior(ball, rng, 1, bound=1.0, min_margin=0.15)[0]
        foot = nearest_on_segment(ball, x, (p, q))
        values = funk_batch(ball, np.tile(x, (grid.size, 1)), p + grid[:, None] * (q - p))
        low = float(values.min())
        worst_excess = max(worst_excess, (foot.distance - low) / (1.0 + low))
        near = grid[values <= max(foot.distance, low) + 1e-9]
        worst_offset = max(worst_offset, float(np.max(np.abs(near - foot.param))))
    step = float(grid[1])
    rng = yield CheckResult("ball_feet_optimal_and_unique",
                            worst_excess <= 1e-11 and worst_offset <= step,
                            {"max_excess": worst_excess, "max_offset": worst_offset,
                             "grid_step": step})

    seg = (np.array([0.5, -0.25]), np.array([0.5, 0.25]))
    grid = np.linspace(0.0, 1.0, 101)
    values = funk_batch(square, np.zeros((grid.size, 2)),
                        seg[0] + grid[:, None] * (seg[1] - seg[0]))
    ties = np.flatnonzero(values <= values.min() + 1e-9)
    two_feet = ties.size >= 2 and (grid[ties[-1]] - grid[ties[0]]) > 0.5
    foot = nearest_on_segment(square, np.zeros(2), seg)
    rng = yield CheckResult(
        "square_flat_sphere_gives_multiple_feet",
        two_feet and abs(foot.distance - math.log(2.0)) <= 1e-10
        and float(np.linalg.norm(foot.point - np.array([0.5, 0.0]))) <= 1e-6,
        {"tie_count": int(ties.size), "foot": foot.point.tolist()})

    a_set = HPolytope([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [-0.5, 0.9, 0.9, 0.9],
                      vertices=[[0.5, -0.9], [0.5, 0.9], [0.9, -0.9], [0.9, 0.9]])
    half = nearest_on_convex(square, np.zeros(2), a_set)
    cert_ok = half.certificate is not None and foot_certificate(
        square, np.zeros(2), half.point, a_set)
    halfspace_ok = (abs(half.distance - math.log(2.0)) <= 1e-9
                    and abs(half.point[0] - 0.5) <= 1e-8 and cert_ok)
    rng = yield CheckResult("halfspace_target_foot_and_certificate",
                            halfspace_ok,
                            {"distance": half.distance,
                             "foot": half.point.tolist()})

    all_cert = True
    non_near_false = True
    for _ in range(n_conv):
        lo = rng.uniform(-0.6, 0.2, 2)
        hi = lo + rng.uniform(0.15, 0.5, 2)
        hi = np.minimum(hi, 0.85)
        target = HPolytope.box(lo, hi)
        x = sample_interior(square, rng, 1, bound=1.0, min_margin=0.05)[0]
        if target.contains(x) >= -0.05:
            continue
        foot = nearest_on_convex(square, x, target)
        all_cert = all_cert and foot_certificate(square, x, foot.point, target)
        far = target.vertices[int(np.argmax(
            [funk(square, x, v) for v in target.vertices]))]
        if funk(square, x, far) > foot.distance + 1e-3:
            non_near_false = non_near_false and not foot_certificate(
                square, x, far, target)
    rng = yield CheckResult("nearest_on_convex_always_certifies", all_cert,
                            {"targets": n_conv})
    rng = yield CheckResult("non_nearest_points_fail_certificate",
                            non_near_false, {})

    # The LP's radius rho* is tight: the ball reaches A at rho* and not below
    # it, and rho* = -log(1 - s*) for the foot's gauge s* about the origin.
    rho = half.distance
    rho_grid = np.linspace(0.05, 1.5, 20)
    feas = [forward_ball_reaches(square, np.zeros(2), r, a_set) is not None
            for r in rho_grid]
    monotone = all(not (feas[i] and not feas[i + 1]) for i in range(len(feas) - 1))
    gap = abs(rho + math.log1p(-np.max(square.A @ half.point / square.b)))
    rng = yield CheckResult(
        "optimal_radius_is_tight",
        monotone and forward_ball_reaches(square, np.zeros(2), rho, a_set) is not None
        and forward_ball_reaches(square, np.zeros(2), rho * (1.0 - 1e-6), a_set) is None
        and gap <= 1e-12,
        {"rho_gap": gap})

    plane = LinearForm([0.0, 1.0], 0.0)
    perp = is_perpendicular(ball, np.zeros(2), np.array([0.0, 1.0]), plane)
    tilted = is_perpendicular(ball, np.zeros(2), np.array([0.0, 1.0]),
                              LinearForm([-0.1, 1.0], 0.0))
    consistent = True
    for t in np.linspace(0.05, 0.9, 20):
        foot = nearest_on_segment(ball, np.array([0.0, float(t)]),
                                  (np.array([-0.9, 0.0]), np.array([0.9, 0.0])))
        consistent = consistent and float(np.linalg.norm(foot.point)) <= 1e-6
    rng = yield CheckResult("perpendicular_ray_projects_to_base",
                            perp and not tilted and consistent, {})

    # Polytope variant via the LP route: the plane slice {x1 = 0} is a
    # degenerate polytope; flat spheres allow ties, so the base is asserted
    # to be *a* nearest point (equal distance), not the unique one.
    slab = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                     [0.0, 0.0, 0.9, 0.9])
    perp_sq = is_perpendicular(square, np.zeros(2), np.array([1.0, 0.0]),
                               LinearForm([1.0, 0.0], 0.0))
    base_is_nearest = True
    for t in np.linspace(0.05, 0.9, 20):
        x = np.array([float(t), 0.0])
        foot = nearest_on_convex(square, x, slab)
        base_is_nearest = base_is_nearest and (
            funk(square, x, np.zeros(2)) <= foot.distance + 1e-9)
    rng = yield CheckResult("perpendicular_ray_base_is_nearest_on_slice",
                            perp_sq and base_is_nearest, {})


def suite_tangent(cfg: RunConfig) -> Checks:
    order_configs = cfg.count("tangent.order_configs", 10)
    n = cfg.count("tangent.identity_samples", 10_000)
    algebra = cfg.count("tangent.algebra", 500)
    rng = yield
    square = unit_square()
    ball = unit_ball()
    poly = random_polytope(rng, 3)

    grids = [10.0 ** -np.arange(1, 6)]
    min_order = np.inf
    for domain, bound in ((ball, 1.0), (square, 1.0), (poly, 1.6)):
        for _ in range(order_configs):
            p = sample_interior(domain, rng, 1, bound=bound, min_margin=0.2)[0]
            x = 0.3 * rng.standard_normal(domain.dim)
            y = 0.3 * rng.standard_normal(domain.dim)
            if np.linalg.norm(y - x) < 1e-3:
                continue
            rows = finite_difference_check(domain, p, x, y, grids[0])
            order = convergence_order(rows)
            min_order = min(min_order, order)
    gate = 0.9
    rng = yield CheckResult("difference_quotient_first_order", min_order >= gate,
                            {"min_order": min_order, "tolerance": gate})

    def draw(k):  # rows (p + v, gauge of v at p)
        V = rng.standard_normal((k, 2))
        V *= (rng.uniform(0.1, 2.5, k) / np.linalg.norm(V, axis=1))[:, None]
        P = sample_interior(square, rng, k, bound=1.0, min_margin=0.05)
        # The gauge is 1/t for the exit parameter t of the ray p -> p + v.
        return np.column_stack([P + V, 1.0 / square._exits(P, P + V)])

    rows, _ = _accepted(n, draw, lambda B: np.abs(B[:, 2] - 1.0) > 1e-7)
    mismatches = int(np.sum((rows[:, 2] < 1.0) != (square._margins(rows[:, :2]) > 0.0)))
    rng = yield CheckResult("unit_ball_is_translated_domain", mismatches == 0,
                            {"samples": n, "mismatches": mismatches})

    worst_h, worst_s, worst_id = 0.0, 0.0, 0.0
    for _ in range(algebra):
        p = sample_interior(poly, rng, 1, bound=1.6, min_margin=0.1)[0]
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        lam = rng.uniform(0.1, 5.0)
        nu = tangent_norm(poly, p, u)
        nv = tangent_norm(poly, p, v)
        worst_h = max(worst_h, abs(tangent_norm(poly, p, lam * u) - lam * nu))
        worst_s = max(worst_s, tangent_norm(poly, p, u + v) - nu - nv)
        worst_id = max(worst_id, abs(nu - polytope_support_form(poly, p, u)))
    rng = yield CheckResult("positive_homogeneity", worst_h <= 1e-12,
                            {"max_gap": worst_h})
    rng = yield CheckResult("subadditivity", worst_s <= 1e-10,
                            {"max_excess": worst_s})
    rng = yield CheckResult("gauge_matches_support_form", worst_id <= 1e-12,
                            {"max_gap": worst_id})


def suite_appendix(cfg: RunConfig) -> Checks:
    n = cfg.count("appendix.constructions", 1000)
    cross_ratio_maps = cfg.count("appendix.cross_ratio_maps", 300)
    replays = cfg.count("appendix.replay", 500)
    rng = yield
    hand = menelaus_product([0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                            [1.5, -0.5], [0.0, 0.25], [0.5, 0.0])
    rng = yield CheckResult("menelaus_hand_instance", abs(hand - 1.0) <= 1e-12,
                            {"product": hand})

    # Each construction is a row (A, B, C, A', B', C') of six points, drawn in
    # blocks; one oracle call takes all rows.
    def transversals(k):  # triangles and where a random line meets their side lines
        T = rng.uniform(-2, 2, (k, 3, 2))
        p0 = rng.uniform(-1, 1, (k, 2))
        d = rng.standard_normal((k, 2))
        d /= _row_lengths(d)[:, None]
        A, B, C = T.swapaxes(0, 1)
        feet = [_intersect_lines(p0, d, *side) for side in ((C, B - C), (A, C - A), (B, A - B))]
        return np.concatenate([T, np.stack(feet, axis=1)], axis=1)

    def clear_of_vertices(S):
        A, B, C, Ap, Bp, Cp = S.swapaxes(0, 1)
        near = np.minimum(np.minimum(_row_lengths(Ap - C), _row_lengths(Bp - A)),
                          _row_lengths(Cp - B))
        return _well_formed(S) & (near >= 1e-3)

    S, _ = _accepted(n, transversals, clear_of_vertices)
    worst = float(np.max(np.abs(menelaus_product(*S.swapaxes(0, 1)) - 1.0)))
    rng = yield CheckResult("menelaus_transversals", worst <= 1e-9,
                            {"max_gap": worst, "constructions": n})

    # Independent random side points are almost surely non-aligned; the rare
    # near-aligned draw is a measure-zero coincidence and is redrawn.
    def side_points(k):  # parameters within 0.05 of a vertex give nan rows
        T = rng.uniform(-2, 2, (k, 3, 2))
        params = rng.uniform(-2.0, 3.0, (k, 3, 1))
        params[(np.abs(params) < 0.05) | (np.abs(params - 1.0) < 0.05)] = np.nan
        A, B, C = T.swapaxes(0, 1)
        # A' = t B + (1 - t) C on line BC, B' on line CA and C' on line AB.
        to, off = np.stack([B, C, A], axis=1), np.stack([C, A, B], axis=1)
        return np.concatenate([T, params * to + (1 - params) * off], axis=1)

    def misaligned(S):
        return np.abs(menelaus_product(*S.swapaxes(0, 1)) - 1.0) > 1e-4

    S, coincidences = _accepted(n, lambda k: _accepted(k, side_points, _well_formed)[0],
                                misaligned)
    min_off = float(np.min(np.abs(menelaus_product(*S.swapaxes(0, 1)) - 1.0)))
    rng = yield CheckResult("menelaus_detects_misalignment",
                            min_off > 1e-4 and coincidences <= n // 20,
                            {"min_deviation": min_off,
                             "redrawn_coincidences": coincidences})

    medians = ceva_product([0.0, 0.0], [2.0, 0.0], [0.0, 2.0],
                           [1.0, 1.0], [0.0, 1.0], [1.0, 0.0])

    def cevians(k):  # triangles and the feet of cevians through a random inner point
        T = rng.uniform(-2, 2, (k, 3, 2))
        w = rng.uniform(0.1, 1.0, (k, 3, 1))
        P = (w * T).sum(axis=1) / w.sum(axis=1)
        A, B, C = T.swapaxes(0, 1)
        feet = [_intersect_lines(V, P - V, *side)
                for V, side in ((A, (C, B - C)), (B, (A, C - A)), (C, (B, A - B)))]
        return np.concatenate([T, np.stack(feet, axis=1)], axis=1)

    S, _ = _accepted(n, cevians, _well_formed)
    A, B, C, Ap, Bp, Cp = S.swapaxes(0, 1)
    worst = float(np.max(np.abs(ceva_product(A, B, C, Ap, Bp, Cp) + 1.0)))
    slid = Cp + 0.05 * (A - B) / _row_lengths(A - B)[:, None]
    min_off = float(np.min(np.abs(ceva_product(A, B, C, Ap, Bp, slid) + 1.0)))
    rng = yield CheckResult("ceva_concurrent_cevians",
                            abs(medians + 1.0) <= 1e-12 and worst <= 1e-9,
                            {"max_gap": worst, "median_product": medians})
    rng = yield CheckResult("ceva_detects_perturbation", min_off > 1e-3,
                            {"min_deviation": min_off})

    base = cross_ratio([-1.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0])
    rows, images = [], []
    for _ in range(cross_ratio_maps):
        pts = np.array([[-1.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        pts = pts + rng.uniform(-0.2, 0.2) * np.array([[1.0, 0.5]] * 4)
        P = random_projective_map(rng, pts)
        rows.append(pts)
        images.append(apply_projective(P, pts))
    rows, images = np.array(rows).swapaxes(0, 1), np.array(images).swapaxes(0, 1)
    worst = float(np.max(np.abs(cross_ratio(*images) - cross_ratio(*rows))))
    rng = yield CheckResult("cross_ratio_projective_invariance",
                            abs(base - 3.0) <= 1e-12 and worst <= 1e-9,
                            {"unit_interval_value": base, "max_gap": worst})

    # Distance-ratio replay of the triangle inequality: the product of the
    # two exit-ratio factors dominates the direct one, with equality only in
    # the aligned case.  Compared relatively (the ratios are exponentials).
    worst = -np.inf
    aligned_when_equal = True
    for _ in range(replays):
        poly = random_polygon(rng)
        pts = sample_interior(poly, rng, 3, bound=1.6, min_margin=1e-2)
        u, v = pts[1] - pts[0], pts[2] - pts[0]
        if abs(u[0] * v[1] - u[1] * v[0]) < 1e-3:
            continue
        x, y, z = pts
        a = poly.ray_boundary(x, y).point
        c = poly.ray_boundary(y, z).point
        ap = poly.ray_boundary(x, z).point
        lhs = (np.linalg.norm(x - a) / np.linalg.norm(y - a)) \
            * (np.linalg.norm(y - c) / np.linalg.norm(z - c))
        rhs = np.linalg.norm(x - ap) / np.linalg.norm(z - ap)
        worst = max(worst, rhs / lhs - 1.0)
        if abs(lhs - rhs) <= 1e-9 * rhs:
            rep = triangle_report(poly, x, y, z)
            aligned_when_equal = aligned_when_equal and rep.aligned
    rng = yield CheckResult("triangle_inequality_replay_via_cross_ratios",
                            worst <= 1e-12 and aligned_when_equal,
                            {"max_relative_violation": worst})


def suite_relative(cfg: RunConfig) -> Checks:
    n = cfg.count("relative.pairs", 500)
    rng = yield
    ball = unit_ball()

    X = sample_interior(ball, rng, n, bound=1.0)
    Y = sample_interior(ball, rng, n, bound=1.0)
    worst = 0.0
    for x, y in zip(X, Y):
        worst = max(worst, abs(relative_funk(ball, ball, x, y)
                               - 2.0 * hilbert(ball, x, y)))
    rng = yield CheckResult("self_relative_distance_doubles_hilbert",
                            worst <= 1e-12, {"max_gap": worst})

    # The box [-R, R]^2 adds F_box(y, x) = log1p(|x - y|/|x - a|) to F, and its
    # exit a is at least R - 1 from x in the unit disk: 0 <= excess <= |y - x|/(R - 1).
    lowest, ratio = 0.0, 0.0
    for R in (1e2, 1e4, 1e6):
        box = HPolytope.box([-R, -R], [R, R])
        for x, y in zip(X[:100], Y[:100]):
            excess = relative_funk(ball, box, x, y) - funk(ball, x, y)
            bound = np.linalg.norm(y - x) / (R - 1.0)
            lowest, ratio = min(lowest, excess), max(ratio, excess / bound)
    rng = yield CheckResult("large_envelope_excess_within_bound", lowest >= 0.0 and ratio <= 1.0,
                            {"max_ratio_to_bound": ratio})

    half = HPolytope([[0.0, -1.0]], [10.0], witness=[0.0, 0.0])  # x2 > -10
    addl = 0.0
    for x, y in zip(X[:200], Y[:200]):
        rel = relative_funk(ball, half, x, y)
        split = funk(ball, x, y) + funk(half, y, x)
        addl = max(addl, abs(rel - split))
    rng = yield CheckResult("relative_distance_splits_into_funk_parts",
                            addl <= 1e-12, {"max_gap": addl})

    # Horizontal pairs: the reverse ray runs parallel to the envelope wall,
    # so the envelope term vanishes and only the inner distance remains.
    worst = 0.0
    for x in X[:200]:
        y = x + np.array([rng.uniform(0.05, 0.3), 0.0])
        if ball.contains(y) <= 1e-6:
            continue
        worst = max(worst, abs(relative_funk(ball, half, x, y) - funk(ball, x, y)))
    rng = yield CheckResult("parallel_envelope_exit_contributes_nothing",
                            worst <= 1e-15, {"max_gap": worst})


def _seeded(suite, salt: int):
    """The suite as a callable ``cfg -> list[CheckResult]``.

    Check k is sent ``np.random.default_rng([cfg.seed, salt, k])`` and
    draws only from it, so its draws do not depend on what the checks
    before it drew.
    """
    def run(cfg: RunConfig) -> list[CheckResult]:
        gen = suite(cfg)
        next(gen)
        checks = []
        try:
            while True:
                rng = np.random.default_rng([cfg.seed, salt, len(checks)])
                checks.append(gen.send(rng))
        except StopIteration:
            return checks
    return run


SALTED = {  # name: (suite, salt)
    "convex-core": (suite_convex_core, 1),
    "oracle-closedform": (suite_oracle_closedform, 2),
    "axioms": (suite_axioms, 3),
    "monotonicity": (suite_monotonicity, 4),
    "invariance": (suite_invariance, 5),
    "completeness": (suite_completeness, 6),
    "ratio": (suite_ratio, 7),
    "balls": (suite_balls, 8),
    "sandwich": (suite_sandwich, 9),
    "triangle": (suite_triangle, 10),
    "geodesic": (suite_geodesic, 11),
    "projection": (suite_projection, 12),
    "tangent": (suite_tangent, 13),
    "appendix": (suite_appendix, 14),
    "relative": (suite_relative, 15),
}
SUITES = {name: _seeded(suite, salt) for name, (suite, salt) in SALTED.items()}


def _suite_names(name: str) -> list[str]:
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)} or 'all'")
    return list(SUITES) if name == "all" else [name]


def count_keys(name: str) -> set[str]:
    """The count keys a run of one suite (or "all") reads, found without running a check:
    each suite reads its counts before its first one.  ``run_suite`` ignores other keys."""
    cfg = RunConfig()
    for suite_name in _suite_names(name):
        next(SALTED[suite_name][0](cfg))
    return cfg.read


def run_suite(name: str, cfg: RunConfig | None = None) -> dict:
    """Run one suite (or "all") and return a deterministic report."""
    cfg = cfg or RunConfig()
    start = time.time()
    checks = []
    for suite_name in _suite_names(name):
        for result in SUITES[suite_name](cfg):
            checks.append({"suite": suite_name, "name": result.name,
                           "passed": bool(result.passed),
                           "detail": _jsonable(result.detail)})
    elapsed = time.time() - start
    return {
        "_runtime": f"{time.strftime('%Y-%m-%dT%H:%M:%S')} wall={elapsed:.3f}s",
        "suite": name,
        "seed": cfg.seed,
        "count_overrides": {k: int(v) for k, v in cfg.counts.items()},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
