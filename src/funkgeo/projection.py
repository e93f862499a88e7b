"""Nearest points ("feet") on convex subsets and perpendicularity.

The distance from x to a convex set A is the smallest rho whose closed
forward ball touches A.  Forward balls are nested homothets of the
domain, so reachability is monotone in rho and bisection applies; on a
segment the one-variable distance is quasi-convex (its sublevel sets are
the segment's intersections with forward balls), so golden-section
search applies.

A point y in A is nearest for x iff either F(x, y) = 0 or some
supporting functional at the boundary hit of the ray x->y has its level
hyperplane through y separating x from A; that hyperplane is the
optimality certificate.  A ray from x is perpendicular to a hyperplane
slice iff the hyperplane is parallel to a support hyperplane at the
ray's boundary hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from ._linprog import feasible_point
from .convex_core import (
    ConvexDomain,
    DomainSpecError,
    GeometryError,
    HPolytope,
    LinearForm,
    as_point,
)
from .metric_engine import funk

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(g, lo: float, hi: float, tol_t: float) -> float:
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    gc, gd = g(c), g(d)
    while hi - lo > tol_t:
        if gc < gd:
            hi, d, gd = d, c, gc
            c = hi - _INVPHI * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _INVPHI * (hi - lo)
            gd = g(d)
    return 0.5 * (lo + hi)


def _sublevel_edge(g, inside: float, outside: float, level: float,
                   tol_t: float) -> float:
    """Boundary of the interval {g <= level} between an inside and an outside point."""
    if g(outside) <= level:
        return outside
    lo, hi = inside, outside
    while abs(hi - lo) > tol_t:
        mid = 0.5 * (lo + hi)
        if g(mid) <= level:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class Foot:
    """A nearest point on a set, its distance, and an optional certificate."""

    point: np.ndarray
    distance: float
    certificate: LinearForm | None = None
    param: float | None = None  # segment parameter, when applicable


def nearest_on_segment(domain: ConvexDomain, x, seg, t0: float | None = None
                       ) -> Foot:
    """Foot of x on a segment inside the domain.

    ``seg`` is a pair of interior endpoints.  The one-variable distance
    is quasi-convex; flat minima (ties) return the plateau midpoint, so
    the answer is deterministic.  ``t0`` optionally splits the initial
    interval — the result does not depend on it.
    """
    x = as_point(x, domain.dim, "x")
    if domain.contains(x) <= 0.0:
        raise GeometryError("x must be interior to the domain")
    p = as_point(seg[0], domain.dim, "segment start")
    q = as_point(seg[1], domain.dim, "segment end")
    if domain.contains(p) <= 0.0 or domain.contains(q) <= 0.0:
        raise GeometryError("segment endpoints must be interior to the domain")

    def g(t: float) -> float:
        return funk(domain, x, p + t * (q - p))

    tol_t = 1e-12
    if t0 is not None and 0.0 < t0 < 1.0:
        t_left = _golden_min(g, 0.0, t0, tol_t)
        t_right = _golden_min(g, t0, 1.0, tol_t)
        t_hat = t_left if g(t_left) <= g(t_right) else t_right
    else:
        t_hat = _golden_min(g, 0.0, 1.0, tol_t)

    # Flat-minimum handling: midpoint of the sublevel interval at the minimum.
    v = g(t_hat)
    level = v + 1e-12 * (1.0 + abs(v))
    left = _sublevel_edge(g, t_hat, 0.0, level, tol_t)
    right = _sublevel_edge(g, t_hat, 1.0, level, tol_t)
    t_star = 0.5 * (left + right)
    point = p + t_star * (q - p)
    return Foot(point=point, distance=g(t_star), param=float(t_star))


def forward_ball_reaches(domain: HPolytope, x, rho: float, a_set: HPolytope
                         ) -> np.ndarray | None:
    """A point of the closed forward ball that lies in A, or None.

    Monotone in rho: forward balls are nested, so once reachable, always
    reachable.  This is the feasibility kernel of :func:`nearest_on_convex`.
    """
    x = as_point(x, domain.dim, "x")
    factor = -math.expm1(-rho)
    b_ball = factor * domain.b + (1.0 - factor) * (domain.A @ x)
    A = np.vstack([domain.A, a_set.A])
    b = np.concatenate([b_ball, a_set.b])
    return feasible_point(A, b)


def _target_point(a_set: HPolytope) -> np.ndarray:
    """Some point of the closed target; works for degenerate targets too."""
    try:
        return a_set.base_point()
    except DomainSpecError:
        pt = feasible_point(a_set.A, a_set.b)
        if pt is None:
            raise GeometryError("target set is empty") from None
        return pt


def nearest_on_convex(domain: HPolytope, x, a_set: HPolytope,
                      rho_tol: float = 1e-10, trace: list | None = None) -> Foot:
    """Foot of x on a polytopal subset A of a polytopal domain.

    Bisects on the ball radius, testing whether the closed forward ball
    meets A by linear feasibility over the stacked constraint systems.
    Returns the touching point, its distance, and — when recoverable from
    the active constraints — the separating-hyperplane certificate.
    """
    if not isinstance(domain, HPolytope) or not isinstance(a_set, HPolytope):
        raise GeometryError("nearest_on_convex works on polytopal domain and target")
    x = as_point(x, domain.dim, "x")
    if domain.contains(x) <= 0.0:
        raise GeometryError("x must be interior to the domain")
    _validate_subset(domain, a_set)

    if a_set.contains(x) >= 0.0:
        return Foot(point=x, distance=0.0)

    hi = funk(domain, x, _target_point(a_set)) + 1e-6
    lo = 0.0
    point = forward_ball_reaches(domain, x, hi, a_set)
    if point is None:
        raise GeometryError("target set is unreachable inside the domain")
    while hi - lo > rho_tol:
        if trace is not None:
            trace.append((lo, hi))
        mid = 0.5 * (lo + hi)
        candidate = forward_ball_reaches(domain, x, mid, a_set)
        if candidate is None:
            lo = mid
        else:
            hi, point = mid, candidate

    distance = funk(domain, x, point)
    certificate = None if distance == 0.0 else _separating_form(domain, x, point, a_set)
    return Foot(point=point, distance=distance, certificate=certificate)


def _validate_subset(domain: ConvexDomain, a_set: ConvexDomain,
                     samples: int = 1000) -> None:
    if np.any(domain._margins(_a_side_points(a_set, samples)) <= 0.0):
        raise GeometryError("target set is not contained in the domain")


def _a_side_points(a_set: ConvexDomain, samples: int = 1000) -> np.ndarray:
    if a_set.vertices is not None:
        return a_set.vertices
    try:
        return a_set.interior_samples(samples, np.random.default_rng(20260808))
    except (DomainSpecError, GeometryError):
        # degenerate target with empty interior
        return np.atleast_2d(_target_point(a_set))


def _separating_form(domain: ConvexDomain, x: np.ndarray, y: np.ndarray,
                     a_set: ConvexDomain) -> LinearForm | None:
    """A supporting functional at the hit of the ray x->y whose level set
    through y separates x from A, shifted to vanish at y; None if none does."""
    a = domain.ray_boundary(x, y).point
    base = domain.base_point()
    pts = _a_side_points(a_set)
    for c in domain.support_normals(a):
        denom = float(c @ (a - base))
        if denom <= 0.0:
            continue
        coeffs = c / denom  # the form is 1 at a and 0 at the base point
        offset = -float(coeffs @ base)
        hy = float(coeffs @ y + offset)
        gate = 1e-9 * (1.0 + abs(hy))
        if float(coeffs @ x + offset) < hy and np.min(pts @ coeffs + offset) >= hy - gate:
            return LinearForm(coeffs, offset - hy)
    return None


def foot_certificate(domain: ConvexDomain, x, y, a_set: ConvexDomain) -> bool:
    """Whether y in A is a nearest point for x, by the hyperplane criterion.

    Vacuously true when F(x, y) = 0.  Otherwise some supporting
    functional at the boundary hit must reach its minimum over A at y
    while keeping x strictly below.
    """
    x = as_point(x, domain.dim, "x")
    y = as_point(y, domain.dim, "y")
    if a_set.contains(y) < -tol.EPS_GEOM:
        raise GeometryError("y must belong to the target set")
    return funk(domain, x, y) == 0.0 or _separating_form(domain, x, y, a_set) is not None


def is_perpendicular(domain: ConvexDomain, ray_from, boundary_hit,
                     plane: LinearForm) -> bool:
    """Whether the ray to a boundary point is perpendicular to a plane slice.

    The plane must pass through the ray base.  Perpendicularity holds iff
    the plane is parallel to some support hyperplane at the boundary hit
    (any active constraint of a polytope, the tangent plane of a ball).
    """
    ray_from = as_point(ray_from, domain.dim, "ray base")
    boundary_hit = as_point(boundary_hit, domain.dim, "boundary point")
    scale = 1.0 + float(np.linalg.norm(ray_from))
    if abs(plane(ray_from)) > 1e-9 * scale:
        raise GeometryError("plane must pass through the ray base")
    n = plane.coeffs / np.linalg.norm(plane.coeffs)
    for c in domain.support_normals(boundary_hit):
        u = c / np.linalg.norm(c)
        if min(np.linalg.norm(n - u), np.linalg.norm(n + u)) <= tol.EPS_PARA:
            return True
    return False
