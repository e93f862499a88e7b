"""Signed division ratios, the Menelaus and Ceva products, and cross ratios.

The division ratio of P relative to B and A is the t with
P = t B + (1 - t) A; its sign encodes betweenness (negative exactly when
A lies between B and P).  For a triangle ABC with points A', B', C' on
the side lines, the triple product

    (A'B/A'C) * (B'C/B'A) * (C'A/C'B)

equals +1 iff A', B', C' are aligned (Menelaus) and -1 iff the cevians
AA', BB', CC' are concurrent or parallel (Ceva).  The cross ratio of
four aligned points is the projective invariant whose logarithm is twice
the Hilbert distance.

All ratios are computed from scalar parameters along the carrier line —
never from norm quotients — so the signs are exact.  Each function takes
single points, or congruent (m, n) arrays with one answer per row; a row
rounds as the single call does, and if a row is invalid the rows go one
by one through the single call, so the first offending row raises its
message.
"""

from __future__ import annotations

import numpy as np

from . import tolerances as tol
from .convex_core import GeometryError, _rowdot
from .metric_engine import _rows


def _answer(value: np.ndarray, faults, single: bool, call, arrays):
    """``value`` per row, or the message of the first fault in ``faults``, a
    list of (rows at fault, message) in the order a single call checks them."""
    for bad, message in faults:
        if bad.any():
            if single:
                raise GeometryError(message)
            for row in zip(*arrays):
                call(*row)
    return float(value[0]) if single else value


def _norms(D: np.ndarray) -> np.ndarray:
    # Each row rounded as np.linalg.norm of that row (convex_core._row_lengths is not).
    return np.sqrt(_rowdot(D, D))


def _line_distance(P: np.ndarray, A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of P from the line A + span(D); |D| = 1."""
    W = P - A
    return _norms(W - _rowdot(W, D)[:, None] * D)


def _division(A, B, P):
    """Division ratios of the rows and their faults, in the order they are checked."""
    AB, AP = B - A, P - A
    length = _norms(AB)
    with np.errstate(divide="ignore", invalid="ignore"):  # at coincident A and B
        # P's rounding grows with its distance from A, so the collinearity
        # bound scales with the longer of AB and AP.
        off_line = (_line_distance(P, A, AB / length[:, None])
                    > tol.EPS_LINE * np.maximum(length, _norms(AP)))
        value = _rowdot(AP, AB) / (length * length)
    return value, [(length <= tol.EPS_PT, "division ratio needs A != B"),
                   (off_line, "P does not lie on the line through A and B")]


def division_ratio(a, b, p):
    """Signed t with p = t*b + (1-t)*a for collinear a, b, p; one per row for arrays."""
    arrays, single = _rows((a, b, p), division_ratio, ("A", "B", "P"))
    value, faults = _division(*arrays)
    return _answer(value, faults, single, division_ratio, arrays)


def _triple_product(a, b, c, ap, bp, cp):
    arrays, single = _rows((a, b, c, ap, bp, cp), _triple_product,
                           ("A", "B", "C", "A'", "B'", "C'"))
    A, B, C, Ap, Bp, Cp = arrays
    U, V = B - A, C - A
    scale = np.maximum(np.maximum(_norms(U), _norms(V)), _norms(C - B))
    area2 = _rowdot(U, U) * _rowdot(V, V) - _rowdot(U, V) ** 2  # squared doubled area
    faults = [(area2 <= (tol.EPS_AREA * scale * scale) ** 2, "triangle is degenerate")]
    # A' on line BC, B' on line CA, C' on line AB; per side the ratio
    # (lambda - 1)/lambda for the point at lambda*end2 + (1 - lambda)*end1.
    value = 1.0
    for end1, end2, point, label in ((C, B, Ap, "A'"), (A, C, Bp, "B'"), (B, A, Cp, "C'")):
        lam, side_faults = _division(end1, end2, point)
        faults += side_faults + [
            (np.abs(lam) <= 1e-12, f"{label} coincides with a forbidden triangle vertex")]
        with np.errstate(divide="ignore", invalid="ignore"):
            value = value * ((lam - 1.0) / lam)
    return _answer(value, faults, single, _triple_product, arrays)


def menelaus_product(a, b, c, ap, bp, cp):
    """Menelaus triple product; equals +1 iff A', B', C' are aligned."""
    return _triple_product(a, b, c, ap, bp, cp)


def ceva_product(a, b, c, ap, bp, cp):
    """Ceva triple product; equals -1 iff AA', BB', CC' are concurrent or parallel."""
    return _triple_product(a, b, c, ap, bp, cp)


def cross_ratio(b, x, y, a):
    """Cross ratio of four aligned points, in the order (b, x, y, a).

    ((y - b)/(x - b)) * ((x - a)/(y - a)) in scalar parameters along the
    line; for boundary exits b, a of a chord through x, y its logarithm
    is twice the Hilbert distance.
    """
    arrays, single = _rows((b, x, y, a), cross_ratio, ("b", "x", "y", "a"))
    pts = np.stack(arrays, axis=1)  # (m, 4, n)
    # Carrier direction from the farthest pair (the first of equals), for a
    # stable collinearity test.
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    dists = np.stack([_norms(arrays[j] - arrays[i]) for i, j in pairs], axis=1)
    far = np.array(pairs)[np.argmax(dists, axis=1)]
    rows = np.arange(len(pts))
    origin, best = pts[rows, far[:, 0]], dists.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # at four coincident points
        d = (pts[rows, far[:, 1]] - origin) / best[:, None]
        off_line = np.any([_line_distance(P, origin, d) > tol.EPS_LINE * best
                           for P in arrays], axis=0)
        # Stacked, so each row rounds as the matrix-vector product (pts - origin) @ d.
        sb, sx, sy, sa = np.matmul(pts - origin[:, None], d[:, :, None])[:, :, 0].T
        value = (sy - sb) / (sx - sb) * (sx - sa) / (sy - sa)
    ends = (np.abs(sx - sb) <= tol.EPS_PT * best) | (np.abs(sy - sa) <= tol.EPS_PT * best)
    return _answer(value, [(best <= tol.EPS_PT, "the four points coincide"),
                           (off_line, "the four points are not collinear"),
                           (ends, "cross ratio needs b != x and y != a")],
                   single, cross_ratio, arrays)
