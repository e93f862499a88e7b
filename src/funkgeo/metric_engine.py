"""The five weak metrics of a proper convex domain.

For interior points x != y let a be the point where the ray from x
through y leaves the domain.  The Funk distance is

    F(x, y) = log(|x - a| / |y - a|) = log(t / (t - 1)),

where t >= 1 is the ray parameter of a (a = x + t*(y - x)); when the ray
never leaves, F(x, y) = 0.  The reverse Funk metric swaps the arguments,
the Hilbert metric is their arithmetic mean, the max-symmetrization their
maximum, and the relative Funk metric adds the reverse distance of an
englobing domain.  All are weak metrics: nonnegative, zero on the
diagonal, triangle inequality, but possibly asymmetric and possibly zero
between distinct points (exactly when the domain is unbounded).

Distances are computed from the hit parameter, F = log1p(1/(t-1)), which
stays well conditioned when y approaches the boundary; values below
``tolerances.F_CLAMP`` are clamped to exactly 0 so that near-parallel
rays agree with the at-infinity classification.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from . import tolerances as tol
from .convex_core import (ConvexDomain, GeometryError, HPolytope, _check_interior, _row_lengths,
                          _rowdot, as_point)


def _from_parameter(t: float) -> float:
    if not math.isfinite(t):
        return 0.0
    if t - 1.0 < 1e-16:
        # slack ratio beyond 1e16: the target is on the boundary at double
        # precision and the distance cannot be represented honestly
        raise GeometryError("target point is numerically on the boundary")
    value = math.log1p(1.0 / (t - 1.0))
    return 0.0 if value < tol.F_CLAMP else value


def _funk(domain: ConvexDomain, x, y) -> float:
    """Funk distance of two validated interior points."""
    d = y - x
    if math.sqrt(d @ d) <= tol.EPS_PT:
        return 0.0
    return _from_parameter(domain._exit(x, y, d))


def _both_ways(domain: ConvexDomain, x, y) -> tuple[float, float]:
    """F(x, y) and F(y, x) of two validated interior points, from one line cast."""
    d = y - x
    if math.sqrt(d @ d) <= tol.EPS_PT:
        return 0.0, 0.0
    t_fwd, t_back = domain._line(x, y, d)
    return _from_parameter(t_fwd), _from_parameter(t_back)


def _hilbert(domain: ConvexDomain, x, y) -> float:
    """Hilbert distance of two validated interior points."""
    fxy, fyx = _both_ways(domain, x, y)
    return 0.5 * (fxy + fyx)


def funk(domain: ConvexDomain, x, y) -> float:
    """Funk distance from x to y (zero when the ray x->y never exits)."""
    x = _check_interior(domain, x, "x")
    return _funk(domain, x, _check_interior(domain, y, "y"))


def reverse_funk(domain: ConvexDomain, x, y) -> float:
    """Funk distance with swapped arguments."""
    return funk(domain, y, x)


def hilbert(domain: ConvexDomain, x, y) -> float:
    """Hilbert distance: the arithmetic mean of the two Funk distances.

    Equals half the logarithm of the cross ratio of (b, x, y, a) where a
    and b are the two exits of the line through x and y.
    """
    x = _check_interior(domain, x, "x")
    return _hilbert(domain, x, _check_interior(domain, y, "y"))


def max_symmetrized(domain: ConvexDomain, x, y) -> float:
    """Max-symmetrization of the Funk distance."""
    x = _check_interior(domain, x, "x")
    return max(_both_ways(domain, x, _check_interior(domain, y, "y")))


# Containment of omega in the englobing domain is validated by sampling the
# first time a pair of domains is seen; the verdict lives as long as both.
_CONTAINMENT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_CONTAINMENT_SAMPLES = 1000


def _validate_containment(omega: ConvexDomain, outer: ConvexDomain) -> None:
    verified = _CONTAINMENT_CACHE.setdefault(omega, weakref.WeakSet())
    if outer in verified:
        return
    rng = np.random.default_rng(20260808)
    margins = outer._margins(omega.interior_samples(_CONTAINMENT_SAMPLES, rng))
    if np.any(margins <= 0.0):
        raise GeometryError(
            "relative Funk distance needs the domain inside the englobing "
            f"domain; {int(np.sum(margins <= 0.0))} of "
            f"{_CONTAINMENT_SAMPLES} sampled points fall outside")
    verified.add(outer)


def relative_funk(omega: ConvexDomain, outer: ConvexDomain | None, x, y) -> float:
    """Funk distance of ``omega`` measured relative to an englobing domain.

    Combines the exit point of ``omega`` on the ray x->y with the exit
    point of ``outer`` on the reverse ray; exits at infinity contribute
    nothing.  ``outer=None`` means the whole affine patch, for which the
    relative and plain Funk distances coincide.
    """
    if outer is None:
        return funk(omega, x, y)
    if outer.dim != omega.dim:
        raise GeometryError("domain and englobing domain dimensions differ")
    if outer is not omega:
        _validate_containment(omega, outer)
    x = _check_interior(domain=omega, p=x, name="x")
    y = _check_interior(domain=omega, p=y, name="y")
    d = y - x
    if math.sqrt(d @ d) <= tol.EPS_PT:
        return 0.0
    if outer._margin(y) <= 0.0:  # y is the origin of the reverse ray
        raise GeometryError("ray origin is not interior to the domain")
    value = _from_parameter(omega._exit(x, y, d)) + _from_parameter(outer._exit(y, x, -d))
    return 0.0 if value < tol.F_CLAMP else value


def _rows(points, row_call, names, domain=None):
    """The points as congruent (m, n) arrays of finite rows, interior to ``domain`` if
    given, and whether they were single points.  If a row fails, the rows go one by one
    through ``row_call``, so the first offending row raises the message of a single call."""
    if np.ndim(points[0]) < 2:
        first = (_check_interior(domain, points[0], names[0]) if domain
                 else as_point(points[0], name=names[0]))
        rest = [_check_interior(domain, p, name) if domain else as_point(p, first.size, name=name)
                for p, name in zip(points[1:], names[1:])]
        return [first[None]] + [p[None] for p in rest], True
    arrays = [np.asarray(p, dtype=float) for p in points]
    shape = arrays[0].shape
    if any(P.shape != shape for P in arrays) or len(shape) != 2 or (
            domain is not None and shape[1] != domain.dim):
        raise GeometryError("point arrays must be (m, dim) and congruent")
    if not all(np.isfinite(P).all() and (domain is None or (domain._margins(P) > 0.0).all())
               for P in arrays):
        for row in zip(*arrays):
            row_call(*row)
    return arrays, False


def funk_polytope_closed_form(polytope: HPolytope, x, y):
    """Funk distance in a polytope as a maximum of slack log-ratios.

    F(x, y) = max(0, max_j log((s_j - <a_j, x>) / (s_j - <a_j, y>))).
    Takes two points, or two (m, dim) arrays with one distance per row.
    """
    (X, Y), single = _rows((x, y), lambda p, q: funk_polytope_closed_form(polytope, p, q),
                           ("x", "y"), polytope)
    # Row by row, so that rows round as single pairs do (one product of all rows would not).
    slack_x, slack_y = (polytope.b - np.matmul(P[:, None], polytope.A.T)[:, 0] for P in (X, Y))
    value = np.maximum(0.0, np.log(slack_x / slack_y).max(axis=1))
    value[value < tol.F_CLAMP] = 0.0
    return float(value[0]) if single else value


def funk_unit_ball_closed_form(x, y):
    """Funk distance in the unit ball centered at the origin.

    Uses the parallelogram-area identity |x ^ y|^2 = |x|^2 |y|^2 - <x,y>^2:

        F(x, y) = log((q + |x|^2 - <x,y>) / (q - |y|^2 + <x,y>)),
        q = sqrt(|y - x|^2 - |x ^ y|^2).

    Takes two points, or two (m, dim) arrays with one distance per row.
    """
    (X, Y), single = _rows((x, y), funk_unit_ball_closed_form, ("x", "y"))
    nx2, ny2, dot = _rowdot(X, X), _rowdot(Y, Y), _rowdot(X, Y)
    if (nx2 >= 1.0).any() or (ny2 >= 1.0).any():
        raise GeometryError("arguments must lie strictly inside the unit ball")
    D = Y - X
    radicand = _rowdot(D, D) - (nx2 * ny2 - dot * dot)
    if (radicand < -tol.EPS_GEOM).any():
        raise GeometryError("radicand is negative beyond the conditioning guard")
    q = np.sqrt(np.maximum(radicand, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at coincident rows
        value = np.log((q + nx2 - dot) / (q - ny2 + dot))
    value[(_row_lengths(D) <= tol.EPS_PT) | (value < tol.F_CLAMP)] = 0.0
    return float(value[0]) if single else value


def ratio_from_distances(fxy: float, fxz: float) -> float:
    """Division ratio t with z = x + t*(y - x) from two aligned distances.

    Requires F(x, y) > 0; the points x, y, z must share their boundary hit.
    """
    if fxy <= 0.0:
        raise GeometryError("reference distance F(x, y) must be positive")
    return math.exp(fxy - fxz) * math.expm1(fxz) / math.expm1(fxy)


def distance_from_ratio(fxy: float, t: float) -> float:
    """Inverse of :func:`ratio_from_distances`: F(x, z) from F(x, y) and t."""
    if fxy <= 0.0:
        raise GeometryError("reference distance F(x, y) must be positive")
    arg = math.exp(fxy) - t * math.expm1(fxy)
    if arg <= 0.0:
        raise GeometryError("ratio places z at or beyond the boundary")
    return fxy - math.log(arg)


def minkowski_max_distance(u, v):
    """The weak Minkowski distance max_i max(0, u_i - v_i), of a pair or of each row pair."""
    (U, V), single = _rows((u, v), minkowski_max_distance, ("u", "v"))
    value = np.maximum(0.0, (U - V).max(axis=1))
    return float(value[0]) if single else value


def funk_batch(domain: ConvexDomain, X, Y) -> np.ndarray:
    """Funk distances for many point pairs at once.

    One call of the domain's row kernel ``_exits``; same formulas as
    :func:`funk`, which answers pair by pair, errors included, when a row
    is not interior or its target is on the boundary.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape or X.shape[1] != domain.dim:
        raise GeometryError("point arrays must be (m, dim) and congruent")
    # A non-finite row is not interior; the kernels would warn at its inf * 0.
    t = None
    if np.isfinite(X).all() and np.isfinite(Y).all():
        t = domain._exits(X, Y)
    if t is None or not np.all(t > 1.0):
        return np.array([funk(domain, x, y) for x, y in zip(X, Y)])
    return _batch_from_parameters(t, _row_lengths(Y - X))


def _batch_from_parameters(t: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    # Every t > 1 here, so t - 1 is at least the 2.2e-16 gap after 1.0; t = inf gives 0.
    out = np.log1p(1.0 / (t - 1.0))
    out[(out < tol.F_CLAMP) | (lengths <= tol.EPS_PT)] = 0.0
    return out
