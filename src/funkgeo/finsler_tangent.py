"""The tangent Minkowski norm of the Funk distance.

At an interior point p the Funk distance is infinitesimally a weak
Minkowski norm whose unit ball is the domain translated by -p: the norm
of a vector v is the gauge 1/t*, where t* is the largest t with
p + t v inside the domain (0 for recession directions).  The difference
quotient F(p + t x, p + t y)/t converges to the norm of y - x at rate
O(t), which :func:`finite_difference_check` measures.
"""

from __future__ import annotations

import math

import numpy as np

from . import tolerances as tol
from .convex_core import ConvexDomain, GeometryError, HPolytope, _check_interior, as_point
from .metric_engine import _funk


def tangent_norm(domain: ConvexDomain, p, v) -> float:
    """Gauge of the translated domain at v (0 for the zero vector)."""
    p = _check_interior(domain, p, "base point", "base point must be interior to the domain")
    return _gauge(domain, p, as_point(v, domain.dim, "vector"))


def _gauge(domain: ConvexDomain, p, v) -> float:
    """Tangent norm at a validated interior point p of a validated vector v."""
    if math.sqrt(v @ v) <= tol.EPS_PT:
        return 0.0
    y = p + v
    t = domain._exit(p, y, y - p)
    return 0.0 if t == math.inf else 1.0 / t


def finite_difference_check(domain: ConvexDomain, p, x, y, t_list
                            ) -> list[tuple[float, float, float]]:
    """Difference quotients F(p + t x, p + t y)/t against the tangent norm.

    Returns one (t, quotient, error) row per requested t.  Every sample
    point must stay interior.  t below about 1e-5 is dominated by
    cancellation noise and is better avoided.
    """
    p = _check_interior(domain, p, "base point", "base point must be interior to the domain")
    x = as_point(x, domain.dim, "x")
    y = as_point(y, domain.dim, "y")
    limit = _gauge(domain, p, y - x)
    rows = []
    for t in t_list:
        t = float(t)
        if t <= 0.0:
            raise GeometryError("difference-quotient steps must be positive")
        a, b = p + t * x, p + t * y
        if domain._margin(a) <= 0.0 or domain._margin(b) <= 0.0:
            raise GeometryError(f"sample escapes the domain at t={t:g}")
        quotient = _funk(domain, a, b) / t
        rows.append((t, quotient, abs(quotient - limit)))
    return rows


def convergence_order(rows) -> float:
    """Log-log slope of error against step size, over the smallest steps.

    Rows with error at the noise floor are dropped, and the slope is fitted
    over the three smallest remaining steps, where the error is asymptotic:
    at larger steps it may still change sign or level off.  If fewer than
    two informative rows remain the quotients already sit on the limit and
    the order is reported as ``inf``.
    """
    pts = sorted((t, e) for t, _, e in rows if e > 1e-14)[:3]
    if len(pts) < 2:
        return float("inf")
    ts = np.log([t for t, _ in pts])
    es = np.log([e for _, e in pts])
    return float(np.polyfit(ts, es, 1)[0])


def polytope_support_form(polytope: HPolytope, p, v) -> float:
    """Tangent norm of a polytope from its supporting functionals.

    max(0, max_j <a_j, v> / (s_j - <a_j, p>)) — the supremum of
    h(v)/(1 - h(p)) over supporting functionals h is attained on the
    constraint forms.  Kept as an independent identity for testing the
    geometric gauge.
    """
    p = _check_interior(polytope, p, "base point", "base point must be interior to the polytope")
    v = as_point(v, polytope.dim, "vector")
    slack = polytope.b - polytope.A @ p
    return max(0.0, float(np.max((polytope.A @ v) / slack)))
