"""Metric balls of the Funk distance and their Euclidean geometry.

The forward ball B+(x, rho) = {y : F(x, y) < rho} is the image of the
domain under the Euclidean homothety at x with factor 1 - e^(-rho); the
backward ball B-(x, rho) = {y : F(y, x) < rho} is the intersection of
the domain with its homothet at x with factor -(e^rho - 1), a reflected
one.  ``ConvexDomain.homothet`` realizes both as new domains, so that
every metric query can recurse on them.

For a bounded polytope, the Euclidean distances from an interior point x
to the boundary lie between lambda_x (minimal constraint-plane distance)
and Lambda_x (maximal vertex distance), which sandwiches every metric
sphere between two Euclidean spheres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # unused here: perfbench/child.py reads sys.modules["scipy"].__version__

from . import tolerances as tol
from .convex_core import (
    ConvexDomain,
    GeometryError,
    HPolytope,
    IntersectionDomain,
    _check_interior,
)

FORWARD = "forward"
BACKWARD = "backward"

DEFAULT_SEED = 0


@dataclass(frozen=True)
class MetricBall:
    """A realized metric ball: center, radius and its domain geometry."""

    center: np.ndarray
    radius: float
    orientation: str
    realized: ConvexDomain
    ambient: ConvexDomain

    def radius_is_certified(self, point) -> bool:
        """Whether a boundary point of the realized ball lies at exact radius.

        Forward spheres are homothets of the domain boundary, so every
        point qualifies.  Backward spheres may clip at the domain
        boundary; only the reflected-homothet part is at exact distance.
        """
        if self.orientation == FORWARD:
            return True
        reflected = self.realized.parts[1]
        gate = 10.0 * tol.EPS_BD * max(1.0, float(np.linalg.norm(point)))
        return abs(reflected.contains(point)) <= gate


def _check_ball_inputs(domain: ConvexDomain, x, rho: float) -> np.ndarray:
    x = _check_interior(domain, x, "center", "ball center must be interior to the domain")
    if not (rho > 0.0 and np.isfinite(rho)):
        raise GeometryError("ball radius must be a positive finite number")
    return x


def forward_ball(domain: ConvexDomain, x, rho: float) -> MetricBall:
    """The forward metric ball {y : F(x, y) < rho}, realized symbolically."""
    x = _check_ball_inputs(domain, x, rho)
    factor = -math.expm1(-rho)  # 1 - e^(-rho), exact for tiny rho
    realized = domain.homothet(x, factor)
    return MetricBall(center=x, radius=float(rho), orientation=FORWARD,
                      realized=realized, ambient=domain)


def backward_ball(domain: ConvexDomain, x, rho: float) -> MetricBall:
    """The backward metric ball {y : F(y, x) < rho}.

    y belongs to it iff y is in the domain and x - (y - x)/(e^rho - 1) is
    in the domain; the realized set is the intersection of the domain
    with the reflected homothet.
    """
    x = _check_ball_inputs(domain, x, rho)
    reflected = domain.homothet(x, -math.expm1(rho))  # factor -(e^rho - 1)
    realized = IntersectionDomain([domain, reflected], witness=x)
    return MetricBall(center=x, radius=float(rho), orientation=BACKWARD,
                      realized=realized, ambient=domain)


def _halton(dim: int, n: int, seed: int) -> np.ndarray:
    """n Halton points in [0, 1)^dim, each digit position permuted at random."""
    rng = np.random.default_rng(seed)
    bases = [p for p in range(2, 3 + dim * dim)
             if all(p % q for q in range(2, math.isqrt(p) + 1))][:dim]
    points = np.empty((n, dim))
    for col, base in enumerate(bases):
        count = math.ceil(54 / math.log2(base)) - 1  # the j with 1 - base**-j < 1
        perms = rng.permuted(np.tile(np.arange(base), (count, 1)), axis=1)
        weights = float(base) ** -np.arange(1, count + 1)
        used = next(j for j in range(count) if base ** j >= n)  # digits of range(n)
        digits = np.arange(n)[:, None] // base ** np.arange(used) % base
        points[:, col] = (perms[np.arange(used), digits] @ weights[:used]
                          + perms[used:, 0] @ weights[used:])  # the tail's zero digits
    return points


def sphere_directions(dim: int, k: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """k quasi-uniform unit directions, reproducible for a given seed.

    Two dimensions use equally spaced angles.  Higher dimensions take k
    points of a Halton sequence in dim + dim % 2 primes, its digits
    permuted by ``default_rng(seed)``, map each pair of coordinates to two
    normals by Box-Muller, keep the first dim and normalize.
    """
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(k) / k
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        dirs[np.abs(dirs) < 1e-15] = 0.0  # exact axis directions
        return dirs
    u = _halton(dim + dim % 2, k, seed).clip(1e-12, 1 - 1e-12)
    r, theta = np.sqrt(-2.0 * np.log(u[:, 0::2])), 2.0 * np.pi * u[:, 1::2]
    normals = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=2).reshape(u.shape)
    return normals[:, :dim] / np.linalg.norm(normals[:, :dim], axis=1)[:, None]


def sphere_sample(ball: MetricBall, k: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """k points on the boundary of the realized ball, by ray casting.

    Deterministic for a given seed.  Each batch of directions is cast with
    one call of the row kernel; directions along which the realized set is
    unbounded are skipped and replaced from the direction stream.
    """
    if k < 3:
        raise GeometryError("at least 3 sphere samples are required")
    center = ball.center
    dim = center.size
    for batch in range(17):
        count = k * (2 ** batch)
        dirs = sphere_directions(dim, count, seed if dim == 2 else seed + batch)
        targets = center + dirs
        t = ball.realized._exits(np.broadcast_to(center, dirs.shape), targets)
        finite = np.flatnonzero(np.isfinite(t))[:k]
        if finite.size == k:  # the exit x + t*d of the first k finite rows
            return center + t[finite, None] * (targets[finite] - center)
    raise GeometryError("could not find enough finite boundary directions")


@dataclass(frozen=True)
class SandwichConstants:
    """Extremal Euclidean boundary distances from an interior point."""

    lambda_x: float  # min distance to a constraint plane
    Lambda_x: float  # max distance to a vertex

    def forward_bracket(self, rho: float) -> tuple[float, float]:
        """Euclidean radii sandwiching the forward sphere of radius rho."""
        f = -math.expm1(-rho)
        return f * self.lambda_x, f * self.Lambda_x

    def backward_bracket(self, rho: float) -> tuple[float, float]:
        """Euclidean radii sandwiching the backward sphere (rho <= log 2)."""
        f = math.expm1(rho)
        return f * self.lambda_x, f * self.Lambda_x


def sandwich(polytope: HPolytope, x) -> SandwichConstants:
    """Boundary-distance extremes lambda_x <= |xi - x| <= Lambda_x.

    Needs a bounded polytope with vertex data (Lambda is a vertex max).
    """
    if not isinstance(polytope, HPolytope):
        raise GeometryError("sandwich constants are defined for polytopes")
    if polytope.vertices is None:
        raise GeometryError("sandwich constants need the vertex description")
    if not polytope.is_bounded():
        raise GeometryError("sandwich constants need a bounded polytope")
    x = _check_interior(polytope, x, "x", "x must be interior to the polytope")
    lam = polytope._margin(x)
    Lam = float(np.max(np.linalg.norm(polytope.vertices - x, axis=1)))
    return SandwichConstants(lambda_x=lam, Lambda_x=Lam)
