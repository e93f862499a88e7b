"""Nearest points ("feet") on convex subsets and perpendicularity.

The distance from x to a convex set A is the smallest rho whose closed
forward ball touches A.  Forward balls are the domain's homothets at x
with factor 1 - e^-rho, so on polytopes the distance is one linear
program in (y, factor); on a segment the one-variable distance is
quasi-convex (its sublevel sets are the segment's intersections with
forward balls), so golden-section search applies.

A point y in A is nearest for x iff either F(x, y) = 0 or some
supporting functional at the boundary hit of the ray x->y has its level
hyperplane through y separating x from A; that hyperplane, a nonnegative
combination of the support normals at the hit, is the optimality
certificate.  A ray from x is perpendicular to a hyperplane slice iff
the hyperplane is parallel to a support hyperplane at the ray's hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from ._linprog import INFEASIBLE, OPTIMAL, feasible_point, solve_lp
from .convex_core import (
    ConvexDomain,
    GeometryError,
    HPolytope,
    LinearForm,
    _check_interior,
    as_point,
)
from .metric_engine import _funk

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


def nearest_on_segment(domain: ConvexDomain, x, seg) -> Foot:
    """Foot of x on a segment inside the domain.

    ``seg`` is a pair of interior endpoints.  The one-variable distance
    is quasi-convex; flat minima (ties) return the plateau midpoint, so
    the answer is deterministic.
    """
    x = _check_interior(domain, x, "x", "x must be interior to the domain")
    endpoints = "segment endpoints must be interior to the domain"
    p = _check_interior(domain, seg[0], "segment start", endpoints)
    q = _check_interior(domain, seg[1], "segment end", endpoints)

    # Points of the segment are interior by convexity, so the search casts
    # without validating them again; one pushed out by rounding still raises.
    d = q - p

    def g(t: float) -> float:
        return _funk(domain, x, p + t * d)

    tol_t = 1e-12
    t_hat = _golden_min(g, 0.0, 1.0, tol_t)

    # Flat-minimum handling: midpoint of the sublevel interval at the minimum.
    v = g(t_hat)
    level = v + 1e-12 * (1.0 + abs(v))
    left = _sublevel_edge(g, t_hat, 0.0, level, tol_t)
    right = _sublevel_edge(g, t_hat, 1.0, level, tol_t)
    t_star = 0.5 * (left + right)
    point = p + t_star * d
    return Foot(point=point, distance=g(t_star), param=float(t_star))


def forward_ball_reaches(domain: HPolytope, x, rho: float, a_set: HPolytope
                         ) -> np.ndarray | None:
    """A point of the closed forward ball that lies in A, or None.

    Monotone in rho: forward balls are nested, so once reachable, always
    reachable.
    """
    x = as_point(x, domain.dim, "x")
    factor = -math.expm1(-rho)
    b_ball = factor * domain.b + (1.0 - factor) * (domain.A @ x)
    A = np.vstack([domain.A, a_set.A])
    b = np.concatenate([b_ball, a_set.b])
    return feasible_point(A, b)


def nearest_on_convex(domain: HPolytope, x, a_set: HPolytope) -> Foot:
    """Foot of x on a polytopal subset A of a polytopal domain.

    The closed forward ball of radius rho is the homothet of the domain at
    x with factor s = 1 - e^-rho, so the smallest one that meets A is one
    LP: min s  s.t.  A y - s (b - A x) <= A x,  A_T y <= b_T,  0 <= s <= 1.
    Returns its y, the distance F(x, y) and the separating certificate.
    """
    if not isinstance(domain, HPolytope) or not isinstance(a_set, HPolytope):
        raise GeometryError("nearest_on_convex works on polytopal domain and target")
    x = _check_interior(domain, x, "x", "x must be interior to the domain")
    if a_set.dim != domain.dim:
        raise GeometryError(f"target set has dimension {a_set.dim}, expected {domain.dim}")
    _validate_subset(domain, a_set)

    if a_set._margin(x) >= 0.0:
        return Foot(point=x, distance=0.0)

    n, Ax = domain.dim, domain.A @ x
    lhs = np.block([[domain.A, (Ax - domain.b)[:, None]],
                    [a_set.A, np.zeros((len(a_set.b), 1))],
                    [np.zeros((2, n)), np.array([[-1.0], [1.0]])]])
    status, z, _ = solve_lp(np.append(np.zeros(n), -1.0), lhs,
                            np.concatenate([Ax, a_set.b, [0.0, 1.0]]))
    if status != OPTIMAL:  # a target inside the domain is reached at s < 1
        raise GeometryError("target set is empty")
    point = z[:n]  # in A, so interior to the domain
    distance = _funk(domain, x, point)
    certificate = None if distance == 0.0 else _separating_form(domain, x, point, a_set)
    return Foot(point=point, distance=distance, certificate=certificate)


def _validate_subset(domain: HPolytope, a_set: HPolytope) -> None:
    """Exact containment of the closed target in the open domain: by its
    vertices where it has them, else by one LP per domain row (an empty
    target passes here; the foot LP refuses it)."""
    if a_set.vertices is not None:
        inside = np.all(domain._margins(a_set.vertices) > 0.0)
    else:
        sups = [solve_lp(row, a_set.A, a_set.b) for row in domain.A]
        inside = all(s == INFEASIBLE or (s == OPTIMAL and value < bound)
                     for (s, _, value), bound in zip(sups, domain.b))
    if not inside:
        raise GeometryError("target set is not contained in the domain")


def _separating_form(domain: ConvexDomain, x: np.ndarray, y: np.ndarray,
                     a_set: HPolytope) -> LinearForm | None:
    """A supporting functional at the hit of the ray x->y whose level set
    through y separates x from A, shifted to vanish at y; None if none does.
    x and y are interior points at a positive distance F(x, y).

    It is h = C^T lam, lam >= 0, over the support normals C at the hit.  By
    LP duality min_A h = max {-mu.b_T : mu >= 0, A_T^T mu = -h}; one LP
    minimizes the gap h.y - min_A h, h of unit slope along the ray, with
    the equality met within EPS_PARA (feet found to rounding need that).
    """
    d = y - x
    a = domain._hit(x, y, d).point
    C = np.array(domain._normals(a))
    k, m, n = C.shape[0], a_set.A.shape[0], domain.dim
    normal = np.hstack([C.T, a_set.A.T])  # h + A_T^T mu
    slope = np.concatenate([C @ d / np.linalg.norm(d), np.zeros(m)])
    lhs = np.vstack([normal, -normal, slope, -slope, -np.eye(k + m)])
    rhs = np.concatenate([np.full(2 * n, tol.EPS_PARA), [1.0, -1.0], np.zeros(k + m)])
    status, z, _ = solve_lp(-np.concatenate([C @ y, a_set.b]), lhs, rhs)
    if status != OPTIMAL:
        return None
    h = C.T @ z[:k]
    gap = float(h @ y + z[k:] @ a_set.b)
    base = domain.base_point()
    denom = float(h @ (a - base))  # > 0: each normal at a has base strictly below
    coeffs = h / denom  # the form is 1 at a and 0 at the base point
    offset = -float(coeffs @ base)
    hy = float(coeffs @ y + offset)
    if gap / denom > 1e-9 * (1.0 + abs(hy)):
        return None
    return LinearForm(coeffs, offset - hy)


def foot_certificate(domain: ConvexDomain, x, y, a_set: HPolytope) -> bool:
    """Whether y in A is a nearest point for x, by the hyperplane criterion.

    Vacuously true when F(x, y) = 0.  Otherwise some supporting
    functional at the boundary hit, a nonnegative combination of the
    support normals there, must reach its minimum over the polytope A at
    y while keeping x strictly below.
    """
    if not isinstance(a_set, HPolytope):
        raise GeometryError("foot_certificate needs a polytopal target")
    x = _check_interior(domain, x, "x")
    y = _check_interior(domain, y, "y")
    if a_set.contains(y) < -tol.EPS_GEOM:  # also checks the target's dimension
        raise GeometryError("y must belong to the target set")
    return _funk(domain, x, y) == 0.0 or _separating_form(domain, x, y, a_set) is not None


def is_perpendicular(domain: ConvexDomain, ray_from, boundary_hit,
                     plane: LinearForm) -> bool:
    """Whether the ray to a boundary point is perpendicular to a plane slice.

    The plane must pass through the ray base.  Perpendicularity holds iff
    the plane is parallel to some support hyperplane at the boundary hit:
    its normal lies in the cone of the support normals there (any
    combination of the active constraints of a polytope, the tangent
    plane of a ball).
    """
    ray_from = as_point(ray_from, domain.dim, "ray base")
    boundary_hit = as_point(boundary_hit, domain.dim, "boundary point")
    scale = 1.0 + float(np.linalg.norm(ray_from))
    if abs(plane(ray_from)) > 1e-9 * scale:
        raise GeometryError("plane must pass through the ray base")
    n = plane.coeffs / np.linalg.norm(plane.coeffs)
    U = np.array([c / np.linalg.norm(c) for c in domain._normals(boundary_hit)])
    # +-n in the cone of the unit normals, each coordinate within EPS_PARA
    lhs = np.vstack([U.T, -U.T, -np.eye(len(U))])
    rhs = np.concatenate([n, -n, np.zeros(len(U))])
    band = np.concatenate([np.full(2 * domain.dim, tol.EPS_PARA), np.zeros(len(U))])
    return any(feasible_point(lhs, s * rhs + band) is not None for s in (1.0, -1.0))
