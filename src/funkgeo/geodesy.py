"""Triangle equality, geodesic criteria and unique-geodesy predicates.

The triangle inequality F(x, z) <= F(x, y) + F(y, z) holds with equality
exactly when the three boundary hits a(x, y), a(y, z), a(x, z) are
aligned in projective space (equivalently: lie in a common proper face
of the closure).  A polyline is geodesic iff its distance sum equals the
endpoint distance, which by the chained triangle inequality is
equivalent to additivity over every sub-triple.

The alignment flag is a rank test on the stacked unit homogeneous
coordinates of the hits, so it handles finite and at-infinity hits
uniformly: the hits are aligned iff the smallest singular value is at most
``tolerances.EPS_RANK`` (64 eps) times the largest, a bound on the rounding
of the hits and of the SVD.  Caveat: in dimension one (three points of the
projective line, always aligned), and for triples where the forward hits
collapse onto a single line through coincident points, projective
alignment is automatic while additivity can still fail; the
characterization is informative for non-collinear triples in dimension two
and up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .convex_core import (
    ConvexDomain,
    GeometryError,
    HPolytope,
    _check_interior,
    _row_lengths,
    _rowdot,
    as_point,
    to_projective,
)
from . import metric_engine
from .metric_engine import _batch_from_parameters, _funk, _hilbert


@dataclass(frozen=True)
class TriangleReport:
    """Additivity defect and boundary-hit alignment for one triple."""

    defect: float
    hits: tuple[np.ndarray, np.ndarray, np.ndarray]  # projective coordinates
    aligned: bool


def triangle_report(domain: ConvexDomain, x, y, z) -> TriangleReport:
    """Defect F(x,y) + F(y,z) - F(x,z) and alignment of the three hits."""
    x = _check_interior(domain, x, "x")
    y = _check_interior(domain, y, "y")
    z = _check_interior(domain, z, "z")
    for p, q, name in ((x, y, "x, y"), (y, z, "y, z"), (x, z, "x, z")):
        d = q - p
        if math.sqrt(d @ d) <= tol.EPS_PT:
            raise GeometryError(f"triangle report needs distinct points ({name} coincide)")
    hits = [domain._hit(p, q, q - p) for p, q in ((x, y), (y, z), (x, z))]
    # Through the module, so the one exit-to-distance conversion is used.
    fxy, fyz, fxz = (metric_engine._from_parameter(h.t) for h in hits)
    defect = fxy + fyz - fxz
    rows = np.vstack([to_projective(h) for h in hits])
    return TriangleReport(defect=float(defect),
                          hits=(rows[0], rows[1], rows[2]),
                          aligned=bool(_aligned(np.linalg.svd(rows, compute_uv=False))))


def _aligned(svals: np.ndarray) -> np.ndarray:
    """The rank test on the singular values (..., k) of stacked unit hit rows.  In one
    dimension k = 2, and three points of a line are always aligned: s3 is 0."""
    smallest = svals[..., 2] if svals.shape[-1] == 3 else 0.0
    return smallest <= tol.EPS_RANK * svals[..., 0]


def triangle_batch(domain: ConvexDomain, X, Y, Z) -> tuple[np.ndarray, np.ndarray]:
    """Row form of :func:`triangle_report`: defects and alignment flags of the triples
    in the rows of X, Y and Z, from three ``_exits`` calls and one stacked SVD.  If a
    row is not interior or has coincident points, the triples go one by one through
    :func:`triangle_report`, so the first offending triple raises its message."""
    X, Y, Z = (np.atleast_2d(np.asarray(P, dtype=float)) for P in (X, Y, Z))
    if not X.shape == Y.shape == Z.shape or X.shape[1] != domain.dim:
        raise GeometryError("point arrays must be (m, dim) and congruent")
    legs = ((X, Y), (Y, Z), (X, Z))
    t = None
    if all(np.isfinite(P).all() for P in (X, Y, Z)):
        lengths = [_row_lengths(Q - P) for P, Q in legs]
        if all((length > tol.EPS_PT).all() for length in lengths):
            t = [domain._exits(P, Q) for P, Q in legs]
    if t is None or not all((ti > 1.0).all() for ti in t):
        reports = [triangle_report(domain, *triple) for triple in zip(X, Y, Z)]
        return np.array([r.defect for r in reports]), np.array([r.aligned for r in reports])
    fxy, fyz, fxz = map(_batch_from_parameters, t, lengths)
    hits = []
    for (P, Q), ti in zip(legs, t):
        # (x + t*d, 1) for a finite exit, (d, 0) for a ray that never leaves.
        finite = np.isfinite(ti)[:, None]
        H = np.hstack([np.where(finite, P + np.where(finite, ti[:, None], 0.0) * (Q - P), Q - P),
                       finite])
        hits.append(H / np.sqrt(_rowdot(H, H))[:, None])
    return fxy + fyz - fxz, _aligned(np.linalg.svd(np.stack(hits, axis=1), compute_uv=False))


@dataclass(frozen=True)
class FaceCone:
    """Directions at a base point whose extended rays meet a polytope face.

    The face is identified by the set of constraint indices that are
    active on it.
    """

    base: np.ndarray
    face: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "base", as_point(self.base, name="cone base"))
        face = frozenset(int(j) for j in self.face)
        if not face:
            raise GeometryError("a face cone needs a nonempty constraint set")
        object.__setattr__(self, "face", face)


def cone_member(polytope: HPolytope, cone: FaceCone, v) -> bool:
    """Whether the ray from the cone base in direction v meets the face.

    The zero vector belongs by definition.  A finite hit qualifies when
    every face-defining constraint is active at it; a ray that never
    exits qualifies when its direction is a recession direction of the
    face.
    """
    if not all(0 <= j < polytope.A.shape[0] for j in cone.face):
        raise GeometryError("face constraint index out of range")
    v = as_point(v, polytope.dim, "direction")
    if np.linalg.norm(v) <= tol.EPS_PT:
        return True
    base = _check_interior(polytope, cone.base, "cone base", "cone base must be interior")
    hit = polytope._cast(base, base + v)
    if hit.at_infinity:
        d = hit.direction / np.linalg.norm(hit.direction)
        idx = sorted(cone.face)
        on_face = np.all(np.abs(polytope.A[idx] @ d) <= tol.EPS_FACE)
        return bool(on_face and polytope.recession_contains(d))
    return cone.face <= frozenset(polytope._face_rows(hit.point)[1])


def _verify_polyline(metric, domain: ConvexDomain, polyline) -> tuple[bool, float]:
    """Additivity test of ``metric`` (a kernel on validated points) along a polyline.

    defect = sum of consecutive distances minus the endpoint distance;
    geodesic iff the defect is at most ``tolerances.EPS_GEODESIC``
    (triangle-inequality chain).
    """
    pts = [_check_interior(domain, p, f"polyline[{i}]") for i, p in enumerate(polyline)]
    if len(pts) < 2:
        raise GeometryError("a polyline needs at least two points")
    total = sum(metric(domain, pts[i], pts[i + 1]) for i in range(len(pts) - 1))
    defect = total - metric(domain, pts[0], pts[-1])
    return bool(defect <= tol.EPS_GEODESIC), float(defect)


def verify_geodesic(domain: ConvexDomain, polyline) -> tuple[bool, float]:
    """Whether a polyline is a Funk geodesic, with its additivity defect."""
    return _verify_polyline(_funk, domain, polyline)


def verify_hilbert_geodesic(domain: ConvexDomain, polyline) -> tuple[bool, float]:
    """Geodesic test for the Hilbert distance (additivity of H)."""
    return _verify_polyline(_hilbert, domain, polyline)


def polyline_face_witness(polytope: HPolytope, polyline,
                          reverse: bool = False) -> frozenset[int]:
    """Constraint indices active at every consecutive-chord hit.

    A nonempty result names a face certifying the polyline geodesic (the
    reverse chords certify the reverse direction, as the Hilbert test
    needs).  Rays that never exit yield an empty witness.
    """
    polyline = list(polyline)
    end = 0 if reverse else len(polyline) - 1  # the one point no chord leaves from
    origin = "ray origin is not interior to the domain"
    pts = [as_point(p, polytope.dim, f"polyline[{i}]") if i == end
           else _check_interior(polytope, p, f"polyline[{i}]", origin)
           for i, p in enumerate(polyline)]
    if len(pts) < 2:
        raise GeometryError("a polyline needs at least two points")
    faces = []
    for p, q in zip(pts[1:], pts) if reverse else zip(pts, pts[1:]):
        hit = polytope._cast(p, q)
        if hit.at_infinity:
            return frozenset()
        faces.append(frozenset(polytope._face_rows(hit.point)[1]))
    return frozenset.intersection(*faces)


def unique_geodesic_pair(domain: ConvexDomain, x, z) -> bool:
    """Whether the geodesic from x to z is unique (up to reparametrization).

    True exactly when the boundary hit of the ray x->z is an exposed
    point: always in a ball, and at a vertex of a polytope.  Undefined
    (raises) when the hit is at infinity.
    """
    x = _check_interior(domain, x, "x", "both points must be interior")
    z = _check_interior(domain, z, "z", "both points must be interior")
    d = z - x
    if math.sqrt(d @ d) <= tol.EPS_PT:
        raise GeometryError("unique-geodesy needs two distinct points")
    hit = domain._hit(x, z, d)
    if hit.at_infinity:
        raise GeometryError("unique-geodesy predicate is undefined for hits at infinity")
    return domain._exposed(hit.point)
