"""Convex domains and the geometric primitives every metric is built on.

A *proper convex domain* is an open, nonempty, convex subset of n-space
that is not the whole space.  Four representations are supported:

- ``HPolytope``       -- intersection of finitely many open half-spaces,
- ``EuclideanBall``   -- open ball with a center and a radius,
- ``AffineImage``     -- invertible affine image of another domain,
- ``IntersectionDomain`` -- intersection of several domains.

Every domain answers two questions through one uniform interface:

- ``contains(x)``     -- signed margin, positive iff x is strictly interior,
- ``ray_boundary(x, y)`` -- where the ray from interior x through y leaves
  the domain: either a finite boundary point with its ray parameter t
  (the exit point is x + t*(y - x), and t > 1 iff y is interior) or "at
  infinity" with the recession direction when the ray never leaves,

and lists the outward normals of its support hyperplanes at a boundary
point a, ``support_normals(a)``.  :func:`supporting_functional` builds from
the nearest one the form h with h(a) = 1 and h < 1 on the domain (after
recentering at an interior base point).

The public methods validate each point once, then call unchecked kernels
(``_margin``, ``_cast``, ``_normals``, ...), which library code holding
validated points calls directly.  Per-kind geometry lives on the domain
classes, as one method with a base default that a kind overrides only
where its geometry differs: the ray casts, ``homothet`` (a negative factor
reflects; metric balls are made of these), the support kernels and the
boundary test ``_on_boundary``.

All values are immutable after construction and every operation is a pure
function, so domains are safe to share between threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from ._linprog import chebyshev_center, recession_cone_is_trivial


class GeometryError(ValueError):
    """Invalid geometric input: dimension mismatch, point not interior, ..."""


class DomainSpecError(GeometryError):
    """A domain description violates a construction invariant."""


Vector = np.ndarray


def as_point(x, dim: int | None = None, name: str = "point") -> Vector:
    """Validate and convert a point-like object to a float vector."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise GeometryError(f"{name} must be a 1-d coordinate vector")
    if not np.isfinite(p).all():
        raise GeometryError(f"{name} has a non-finite coordinate")
    if dim is not None and p.size != dim:
        raise GeometryError(f"{name} has dimension {p.size}, expected {dim}")
    return p


def _check_interior(domain: ConvexDomain, p, name: str = "point", message: str | None = None,
                    gate: float = 0.0, error: type = GeometryError) -> Vector:
    """``as_point`` of p if its margin in the domain exceeds ``gate``; else raises
    ``error(message)``, by default "<name> is not interior to the domain"."""
    p = as_point(p, domain.dim, name)
    if domain._margin(p) <= gate:
        raise error(message or f"{name} is not interior to the domain")
    return p


def _rowdot(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # Row by row, rounded as the scalar p @ q is (np.einsum adds in another order).
    return np.matmul(P[:, None, :], Q[:, :, None])[:, 0, 0]


def _row_min(S: np.ndarray) -> np.ndarray:
    # Column by column: for few columns, ten times faster than S.min(axis=1).
    return functools.reduce(np.minimum, S.T)


def _columns(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    # P @ A.T into a column-major array, so that _row_min reduces contiguous
    # columns; faster to build, and the same bits, as BLAS rounds each entry
    # alike in both layouts.  A single row takes numpy's vector-matrix path,
    # whose BLAS call rounds as P @ A.T only with A.T's own layout.
    AT = A.T if P.shape[0] == 1 else np.ascontiguousarray(A.T)
    return np.matmul(P, AT, out=np.empty((P.shape[0], A.shape[0]), order="F"))


def _row_lengths(D: np.ndarray) -> np.ndarray:
    # Column by column, as _row_min: the sums np.linalg.norm(D, axis=1) makes
    # for fewer than 8 columns, without its slow loop over short rows.
    return np.sqrt(functools.reduce(np.add, (D * D).T))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LinearForm:
    """Affine functional x -> <coeffs, x> + offset."""

    coeffs: Vector
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _readonly(np.atleast_1d(self.coeffs)))
        object.__setattr__(self, "offset", float(self.offset))

    def __call__(self, x) -> float:
        return float(self.coeffs @ np.asarray(x, dtype=float) + self.offset)

    @property
    def dim(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class Hit:
    """Result of casting a ray against a domain boundary.

    Finite hits carry the boundary point and the parameter t >= 1 with
    point = x + t*(y - x).  At-infinity hits carry the recession
    direction instead; their parameter is ``inf``.
    """

    t: float
    point: Vector | None = None
    direction: Vector | None = None

    @property
    def at_infinity(self) -> bool:
        return self.point is None

    @staticmethod
    def finite(point: Vector, t: float) -> "Hit":
        """A finite hit; takes over ``point``, a float array the kernel just made."""
        point.setflags(write=False)
        return Hit(t=float(t), point=point)

    @staticmethod
    def escaped(direction: Vector) -> "Hit":
        return Hit(t=np.inf, direction=_readonly(direction))


def to_projective(hit: Hit) -> Vector:
    """Homogeneous coordinates of a hit, normalized to unit Euclidean norm.

    Finite points embed as (p, 1); hits at infinity as (direction, 0).
    """
    if hit.at_infinity:
        v = np.concatenate((hit.direction, (0.0,)))
    else:
        v = np.concatenate((hit.point, (1.0,)))
    return v / math.sqrt(v @ v)


class ConvexDomain:
    """Base class for proper convex domains.

    Each kind implements the unchecked kernels below, scalar and row ones
    side by side; they trust their inputs, and the public functions
    validate each input once.  The scalar ray kernel ``_exit`` gives only
    the exit parameter, which is all a distance needs; ``_line`` gives the
    exits of both rays along one line, and ``_hit`` builds a :class:`Hit`
    with its boundary point for the callers that need the point.  Each
    kind also binds ``contains`` and ``ray_boundary`` in its own body,
    where perfbench's tracer wraps them.
    """

    dim: int
    vertices: np.ndarray | None = None  # vertex description, where one is known

    # -- interface ---------------------------------------------------------

    def contains(self, x) -> float:
        """Signed margin: > 0 strictly interior, < 0 exterior, ~ 0 boundary."""
        return self._margin(as_point(x, self.dim))

    def ray_boundary(self, x, y) -> Hit:
        """Exit of the ray from interior point x through y (x != y)."""
        x = _check_interior(self, x, "ray origin")
        return self._cast(x, as_point(y, self.dim, "ray target"))

    def support_normals(self, a) -> list[Vector]:
        """Outward normals of the support hyperplanes at a boundary point a."""
        return self._normals(as_point(a, self.dim))

    def is_exposed_at(self, a) -> bool:
        """Whether boundary point a is exposed: its support normals span the space."""
        return self._exposed(as_point(a, self.dim))

    def homothet(self, center, factor: float) -> "ConvexDomain":
        """Image under the homothety at ``center``; a negative factor reflects."""
        return AffineImage(self, AffineMap.homothety(center, factor))

    def base_point(self) -> Vector:
        """A designated interior point, used for recentering."""
        raise NotImplementedError

    def is_bounded(self) -> bool:
        raise NotImplementedError

    def interior_samples(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """k interior points, drawn by casting rays from the base point.

        Unbounded directions are truncated at 1e3.  Not uniform; meant for
        validation sampling, not integration.
        """
        p = self.base_point()
        U = rng.standard_normal((k, self.dim))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        frac = rng.random(k) ** (1.0 / self.dim)
        t_max = np.minimum(self._exits(np.broadcast_to(p, U.shape), p + U), 1e3)
        return p + (0.999 * frac * t_max)[:, None] * U

    # -- unchecked kernels -------------------------------------------------

    def _on_boundary(self, a) -> bool:
        """Whether finite point a counts as on the boundary: |margin| within EPS_BD."""
        return abs(self._margin(a)) <= tol.EPS_BD

    def _margin(self, x) -> float:
        raise NotImplementedError

    def _exit(self, x, y, d) -> float:
        """Exit parameter of the ray from x along d = y - x; ``inf`` if it never leaves."""
        raise NotImplementedError

    def _line(self, x, y, d) -> tuple[float, float]:
        """Exit parameters of the rays x -> y and y -> x along one line."""
        raise NotImplementedError

    def _hit(self, x, y, d) -> Hit:
        t = self._exit(x, y, d)
        if t == math.inf:
            return Hit.escaped(d)
        return Hit.finite(x + t * d, t)

    def _cast(self, x, y) -> Hit:
        """``ray_boundary`` of an interior point x and a finite point y."""
        d = y - x
        if math.sqrt(d @ d) <= tol.EPS_PT:
            raise GeometryError("ray origin and target coincide")
        return self._hit(x, y, d)

    def _normals(self, a) -> list[Vector]:
        """``support_normals`` of a finite point a; raises if a is off the boundary."""
        raise NotImplementedError

    def _normal(self, a) -> Vector:
        """Outward normal of the support hyperplane nearest to boundary point a."""
        return self._normals(a)[0]

    def _exposed(self, a) -> bool:
        return bool(np.linalg.matrix_rank(np.array(self._normals(a)), tol=1e-10) == self.dim)

    def _margins(self, X) -> np.ndarray:
        raise NotImplementedError

    def _exits(self, X, Y) -> np.ndarray:
        """Exit parameter per row pair: ``inf`` if the ray never leaves or the
        rows coincide, ``nan`` if the origin is not interior, else t > 1 iff
        the target is interior."""
        raise NotImplementedError


class HPolytope(ConvexDomain):
    """Open polytope {x : A x < b}, optionally with a vertex description.

    ``A`` and ``b`` are stored as unit rows (each row and its threshold divided
    by the row's norm), so no answer depends on how the rows were scaled, and
    ``contains`` is a signed distance bound, as the ball's is.

    When vertices are supplied they are checked for consistency: each
    vertex satisfies every constraint, touches at least one, and every
    constraint is touched by some vertex (so the two descriptions agree).
    """

    def __init__(self, A, b, vertices=None, witness=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] != b.size:
            raise DomainSpecError("constraint matrix and thresholds disagree in shape")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise DomainSpecError("constraints contain non-finite entries")
        # Divide each row and its threshold by the power of two of the row's largest
        # entry first (exact), so the squares in the norm neither overflow nor underflow.
        exponents = np.frexp(np.abs(A).max(axis=1, initial=0.0))[1]
        A, b = np.ldexp(A, -exponents[:, None]), np.ldexp(b, -exponents)
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms <= 0.0):
            raise DomainSpecError("constraint rows must be nontrivial linear forms")
        self.A = _readonly(A / norms[:, None])
        self.b = _readonly(b / norms)
        self.dim = A.shape[1]

        self.vertices = None
        if vertices is not None:
            V = np.atleast_2d(np.asarray(vertices, dtype=float))
            if V.shape[1] != self.dim:
                raise DomainSpecError("vertex dimension does not match constraints")
            self._validate_vertices(V)
            self.vertices = _readonly(V)

        self._witness = None if witness is None else _readonly(_check_interior(
            self, witness, "witness", "witness point is not strictly interior",
            gate=tol.EPS_PT, error=DomainSpecError))
        self._base = None
        self._bounded = None

    def _validate_vertices(self, V: np.ndarray) -> None:
        # Scale-relative tolerance: vertex data is user input, not computed.
        scale = max(1.0, float(np.max(np.abs(V))))
        eps = 1e-7 * scale
        act = V @ self.A.T - self.b  # (m, k)
        if np.any(act > eps):
            i, j = np.unravel_index(np.argmax(act), act.shape)
            raise DomainSpecError(
                f"vertex {i} violates constraint {j} by {act[i, j]:.3g}")
        if np.any(np.min(np.abs(act), axis=1) > eps):
            i = int(np.argmax(np.min(np.abs(act), axis=1)))
            raise DomainSpecError(f"vertex {i} does not touch any constraint")
        slack_per_con = np.max(act, axis=0)
        if np.any(slack_per_con < -eps):
            j = int(np.argmin(slack_per_con))
            raise DomainSpecError(
                f"constraint {j} is not supported by any vertex")

    # -- ConvexDomain ------------------------------------------------------

    contains, ray_boundary = ConvexDomain.contains, ConvexDomain.ray_boundary

    def _margin(self, x) -> float:
        return float((self.b - self.A @ x).min())

    def _margins(self, X) -> np.ndarray:
        return _row_min(self.b - _columns(X, self.A))

    def _exit(self, x, y, d) -> float:
        deriv = self.A @ d
        # The derivative per unit length decides parallel-vs-hit; avoids huge finite t.
        return self._first_exit(x, deriv, deriv > tol.EPS_DIR * math.sqrt(d @ d))

    def _line(self, x, y, d) -> tuple[float, float]:
        # The reverse ray's derivative is -deriv, bitwise A @ (-d).
        deriv = self.A @ d
        gate = tol.EPS_DIR * math.sqrt(d @ d)
        return (self._first_exit(x, deriv, deriv > gate),
                self._first_exit(y, -deriv, deriv < -gate))

    def _first_exit(self, x, deriv, candidates) -> float:
        if not candidates.any():
            return math.inf
        slack = self.b - self.A @ x
        return float((slack[candidates] / deriv[candidates]).min())

    def _exits(self, X, Y) -> np.ndarray:
        slack = self.b - _columns(X, self.A)  # (m, k)
        D = Y - X
        deriv = _columns(D, self.A)
        lengths = np.maximum(_row_lengths(D), tol.EPS_PT)
        hits = deriv > tol.EPS_DIR * lengths[:, None]
        # A face not hit divides its slack by +0 (np.abs turns -0 into +0) and
        # gives +inf; 0/0 or a negative slack only on a row whose origin is
        # not interior, and that row is nan below anyway.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = _row_min(slack / np.abs(deriv * hits))
        t = np.where(_row_min(self.b - _columns(Y, self.A)) > 0.0, t, np.minimum(t, 1.0))
        return np.where(_row_min(slack) > 0.0, t, np.nan)

    def _normals(self, a) -> list[Vector]:
        return [self.A[j] for j in self._face_rows(a)[1]]

    def _normal(self, a) -> Vector:
        return self.A[self._face_rows(a)[0]]

    def homothet(self, center, factor: float) -> "HPolytope":
        center = as_point(center, self.dim, "homothety center")
        b = factor * self.b + (1.0 - factor) * (self.A @ center)
        verts = None
        if self.vertices is not None:
            verts = center + factor * (self.vertices - center)
        s = np.sign(factor)  # a reflection flips the inequalities
        return HPolytope(s * self.A, s * b, vertices=verts, witness=center)

    def base_point(self) -> Vector:
        if self._base is None:
            if self._witness is not None:
                base = self._witness
            elif self.vertices is not None:
                base = self.vertices.mean(axis=0)
            else:
                try:
                    base = chebyshev_center(self.A, self.b)
                except ValueError as exc:
                    raise DomainSpecError(f"cannot pick an interior base point: {exc}") from exc
            self._base = _readonly(_check_interior(
                self, base, message="computed base point is not interior", error=DomainSpecError))
        return self._base

    def is_bounded(self) -> bool:
        if self._bounded is None:
            self._bounded = recession_cone_is_trivial(self.A)
        return self._bounded

    # -- polytope extras ---------------------------------------------------

    def active_face(self, a) -> frozenset[int]:
        """Indices of constraints active at boundary point a (nonempty)."""
        return frozenset(self._face_rows(as_point(a, self.dim))[1])

    def _face_rows(self, a) -> tuple[int, list[int]]:
        """The row nearest to boundary point a (exact ties to the lowest
        index) and the rows active at a, in index order."""
        dist = self.b - self.A @ a
        j = int(np.argmin(dist))
        if abs(dist[j]) > tol.EPS_BD:  # the test of ``_on_boundary``
            raise GeometryError("point is not on the domain boundary")
        return j, [int(i) for i in np.flatnonzero(np.abs(dist) <= tol.EPS_FACE)]

    def recession_contains(self, v) -> bool:
        """True iff direction v is a recession direction of the closure."""
        v = as_point(v, self.dim)
        nv = np.linalg.norm(v)
        if nv <= tol.EPS_PT:
            return True
        return bool(np.all(self.A @ v <= tol.EPS_DIR * nv))

    def shifted(self, b_new) -> "HPolytope":
        """Same normals with new thresholds (vertex data dropped)."""
        return HPolytope(self.A, b_new)

    @classmethod
    def box(cls, low, high) -> "HPolytope":
        """Axis-aligned open box, constraints ordered +e1, -e1, +e2, -e2, ...

        Vertices and the center witness are attached automatically.
        """
        low = np.asarray(low, dtype=float).ravel()
        high = np.asarray(high, dtype=float).ravel()
        if low.size != high.size or np.any(low >= high):
            raise DomainSpecError("box needs low < high componentwise")
        n = low.size
        rows, th = [], []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            rows += [e, -e]
            th += [high[i], -low[i]]
        corners = np.array(list(itertools.product(*zip(low, high))))
        return cls(np.array(rows), np.array(th), vertices=corners,
                   witness=(low + high) / 2.0)

    @classmethod
    def from_polygon_vertices(cls, vertices) -> "HPolytope":
        """2-d polytope from the vertices of a convex polygon (any order)."""
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        if V.shape[1] != 2 or V.shape[0] < 3:
            raise DomainSpecError("need at least three 2-d vertices")
        centroid = V.mean(axis=0)
        order = np.argsort(np.arctan2(V[:, 1] - centroid[1], V[:, 0] - centroid[0]))
        V = V[order]
        rows, th = [], []
        for i in range(V.shape[0]):
            p, q = V[i], V[(i + 1) % V.shape[0]]
            edge = q - p
            normal = np.array([edge[1], -edge[0]])
            if normal @ (centroid - p) > 0.0:
                normal = -normal
            rows.append(normal)
            th.append(normal @ p)
        return cls(np.array(rows), np.array(th), vertices=V, witness=centroid)


class EuclideanBall(ConvexDomain):
    """Open Euclidean ball with the given center and radius."""

    def __init__(self, center, radius):
        self.center = _readonly(as_point(center, name="center"))
        radius = float(radius)
        if not (radius > 0.0 and np.isfinite(radius)):
            raise DomainSpecError("ball radius must be a positive finite number")
        self.radius = radius
        self.dim = self.center.size

    contains, ray_boundary = ConvexDomain.contains, ConvexDomain.ray_boundary

    def _margin(self, x) -> float:
        w = x - self.center
        return self.radius - math.sqrt(w @ w)

    def _margins(self, X) -> np.ndarray:
        W = X - self.center
        return self.radius - np.sqrt(_rowdot(W, W))

    def _exit(self, x, y, d) -> float:
        w = x - self.center
        return self._root(float(d @ d), float(d @ w), w)

    def _line(self, x, y, d) -> tuple[float, float]:
        # The reverse ray shares alpha; its beta is -(d @ w), bitwise (-d) @ w.
        alpha = float(d @ d)
        wx, wy = x - self.center, y - self.center
        return self._root(alpha, float(d @ wx), wx), self._root(alpha, -float(d @ wy), wy)

    def _root(self, alpha, beta, w) -> float:
        gamma = float(w @ w) - self.radius ** 2  # < 0: ray origin interior
        disc = beta * beta - alpha * gamma
        root = np.sqrt(disc)
        # Stable positive quadratic root (avoid cancellation when beta > 0).
        return float((-gamma) / (beta + root) if beta > 0.0 else (root - beta) / alpha)

    def _exits(self, X, Y) -> np.ndarray:
        W = X - self.center
        D = Y - X
        alpha, beta, ww = _rowdot(D, D), _rowdot(D, W), _rowdot(W, W)
        gamma = ww - self.radius ** 2
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            root = np.sqrt(beta * beta - alpha * gamma)
            t = np.where(beta > 0.0, -gamma / (beta + root), (root - beta) / alpha)
        t = np.where(alpha > 0.0, t, np.inf)
        # Interior tests in the form of _margin, so both paths agree at the sphere.
        t = np.where(self._margins(Y) > 0.0, t, np.minimum(t, 1.0))
        return np.where(self.radius - np.sqrt(ww) > 0.0, t, np.nan)

    def _normals(self, a) -> list[Vector]:
        if not self._on_boundary(a):
            raise GeometryError("point is not on the ball boundary")
        w = a - self.center
        return [w / math.sqrt(w @ w)]

    def _exposed(self, a) -> bool:
        return True

    def homothet(self, center, factor: float) -> "EuclideanBall":
        center = as_point(center, self.dim, "homothety center")
        return EuclideanBall(center + factor * (self.center - center),
                             abs(factor) * self.radius)

    def base_point(self) -> Vector:
        return self.center

    def is_bounded(self) -> bool:
        return True


class AffineMap:
    """Invertible affine map x -> matrix @ x + translation."""

    def __init__(self, matrix, translation):
        M = np.atleast_2d(np.asarray(matrix, dtype=float))
        t = as_point(translation, name="translation")
        if M.shape[0] != M.shape[1] or M.shape[0] != t.size:
            raise DomainSpecError("affine map needs a square matrix matching the translation")
        if not np.all(np.isfinite(M)):
            raise DomainSpecError("affine matrix has non-finite entries")
        svals = np.linalg.svd(M, compute_uv=False)
        if svals[-1] <= tol.EPS_DET * svals[0]:
            raise DomainSpecError("affine map is singular within tolerance")
        self.matrix = _readonly(M)
        self.translation = _readonly(t)
        self.inverse_matrix = _readonly(np.linalg.inv(M))
        self.sigma_min = float(svals[-1])
        self.dim = t.size

    def __call__(self, x) -> Vector:
        """Map a point, or a stack of points with one matrix product.

        The product rounds differently from mapping one point at a time,
        which is why ``invert`` maps row by row.
        """
        return np.asarray(x, dtype=float) @ self.matrix.T + self.translation

    def invert(self, y) -> Vector:
        # Row by row, rounded as for a single point (a product of all rows is not).
        v = np.asarray(y, dtype=float) - self.translation
        return np.matmul(v[..., None, :], self.inverse_matrix.T)[..., 0, :]

    def push_direction(self, d) -> Vector:
        return self.matrix @ np.asarray(d, dtype=float)

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def homothety(cls, center, factor: float) -> "AffineMap":
        center = as_point(center, name="homothety center")
        factor = float(factor)
        return cls(factor * np.eye(center.size), (1.0 - factor) * center)


class AffineImage(ConvexDomain):
    """Lazy affine image of another domain.

    Queries pull the inputs back, ask the inner domain, and push the
    answers forward.  Margins are the inner margins scaled by the map's
    smallest singular value, which keeps the sign exact and reproduces
    Euclidean margins for similarity maps.
    """

    def __init__(self, inner: ConvexDomain, amap: AffineMap):
        if amap.dim != inner.dim:
            raise DomainSpecError("affine map dimension does not match the domain")
        self.inner = inner
        self.map = amap
        self.dim = inner.dim

    contains, ray_boundary = ConvexDomain.contains, ConvexDomain.ray_boundary

    def _margin(self, x) -> float:
        return self.map.sigma_min * self.inner._margin(self.map.invert(x))

    def _margins(self, X) -> np.ndarray:
        return self.map.sigma_min * self.inner._margins(self.map.invert(X))

    def _hit(self, x, y, d) -> Hit:
        x, y = self.map.invert(x), self.map.invert(y)
        hit = self.inner._hit(x, y, y - x)
        if hit.at_infinity:
            return Hit.escaped(self.map.push_direction(hit.direction))
        # The ray parameter is an affine ratio, hence shared by both charts.
        return Hit.finite(self.map(hit.point), hit.t)

    def _exit(self, x, y, d) -> float:
        x, y = self.map.invert(x), self.map.invert(y)
        return self.inner._exit(x, y, y - x)

    def _line(self, x, y, d) -> tuple[float, float]:
        x, y = self.map.invert(x), self.map.invert(y)
        return self.inner._line(x, y, y - x)

    def _exits(self, X, Y) -> np.ndarray:
        return self.inner._exits(self.map.invert(X), self.map.invert(Y))

    def _normals(self, a) -> list[Vector]:
        return [self.map.inverse_matrix.T @ c for c in self.inner._normals(self.map.invert(a))]

    def _normal(self, a) -> Vector:
        return self.map.inverse_matrix.T @ self.inner._normal(self.map.invert(a))

    def _exposed(self, a) -> bool:
        return self.inner._exposed(self.map.invert(a))

    def _on_boundary(self, a) -> bool:
        return self.inner._on_boundary(self.map.invert(a))

    def base_point(self) -> Vector:
        return self.map(self.inner.base_point())

    def is_bounded(self) -> bool:
        return self.inner.is_bounded()


class IntersectionDomain(ConvexDomain):
    """Intersection of several convex domains of equal dimension."""

    def __init__(self, parts, witness=None):
        parts = list(parts)
        if not parts:
            raise DomainSpecError("intersection needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise DomainSpecError("intersection parts have mixed dimensions")
        self.parts = tuple(parts)
        self.dim = parts[0].dim
        self._base = None if witness is None else _readonly(_check_interior(
            self, witness, "witness", "witness is not interior to every part",
            error=DomainSpecError))

    contains, ray_boundary = ConvexDomain.contains, ConvexDomain.ray_boundary

    def _margin(self, x) -> float:
        return min(p._margin(x) for p in self.parts)

    def _margins(self, X) -> np.ndarray:
        return np.min([p._margins(X) for p in self.parts], axis=0)

    def _exit(self, x, y, d) -> float:
        return min(p._exit(x, y, d) for p in self.parts)

    def _line(self, x, y, d) -> tuple[float, float]:
        forward, backward = zip(*(p._line(x, y, d) for p in self.parts))
        return min(forward), min(backward)

    def _exits(self, X, Y) -> np.ndarray:
        return np.min([p._exits(X, Y) for p in self.parts], axis=0)

    def _on_boundary(self, a) -> bool:
        return any(p._on_boundary(a) for p in self.parts)

    def _touching(self, a) -> list[ConvexDomain]:
        """The parts whose boundary passes through a, in part order."""
        parts = [p for p in self.parts if p._on_boundary(a)]
        if not parts:
            raise GeometryError("point is not on the intersection boundary")
        return parts

    def _normals(self, a) -> list[Vector]:
        return [c for p in self._touching(a) for c in p._normals(a)]

    def _normal(self, a) -> Vector:
        return self._touching(a)[0]._normal(a)  # lowest part index wins

    def _exposed(self, a) -> bool:
        """Exposed in some part through a, or by the stacked normals of all."""
        return any(p._exposed(a) for p in self._touching(a)) or super()._exposed(a)

    def base_point(self) -> Vector:
        if self._base is None:
            guess = np.mean([p.base_point() for p in self.parts], axis=0)
            self._base = _readonly(_check_interior(
                self, guess, message="cannot infer an interior point of the intersection; "
                "supply a witness", error=DomainSpecError))
        return self._base

    def is_bounded(self) -> bool:
        if any(p.is_bounded() for p in self.parts):
            return True
        if all(isinstance(p, HPolytope) for p in self.parts):
            return recession_cone_is_trivial(np.vstack([p.A for p in self.parts]))
        return False  # conservative for mixed unbounded parts


def supporting_functional(domain: ConvexDomain, a) -> LinearForm:
    """Linear form h with h(a) = 1 and h < 1 on the domain.

    The normalization is relative to the domain's base point p0: the
    returned form satisfies h(p0) = 0, which is the usual convention
    after translating the domain so that p0 is the origin.
    """
    a = as_point(a, domain.dim, "boundary point")
    c = domain._normal(a)
    p0 = domain.base_point()
    denom = float(c @ (a - p0))
    if denom <= 0.0:
        raise GeometryError("degenerate supporting direction")
    coeffs = c / denom
    return LinearForm(coeffs, -float(coeffs @ p0))
