"""The polytope row kernel and the batch conversion, bit for bit against masked formulas.

``HPolytope._exits`` divides without masks and builds its products
column-major (``convex_core._columns``); ``metric_engine._batch_from_parameters``
converts every row and zeroes the clamped ones.  The oracles below are the
masked formulas they replace: ``np.where`` selects around the division,
row-major products ``P @ A.T`` and a boolean gather and scatter.  Every
example runs with warnings as errors, so the kernel's own divisions by zero
stay silent.  Inputs have finite Y - X only: an overflowed difference warns
in either form.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from funkgeo import HPolytope, tolerances as tol
from funkgeo.convex_core import _columns, _row_lengths, _row_min
from funkgeo.metric_engine import _batch_from_parameters


def masked_exits(poly, X, Y):
    slack = poly.b - X @ poly.A.T
    D = Y - X
    deriv = D @ poly.A.T
    lengths = np.maximum(_row_lengths(D), tol.EPS_PT)
    hits = deriv > tol.EPS_DIR * lengths[:, None]
    t = _row_min(np.where(hits, slack / np.where(hits, deriv, 1.0), np.inf))
    t = np.where(_row_min(poly.b - Y @ poly.A.T) > 0.0, t, np.minimum(t, 1.0))
    return np.where(_row_min(slack) > 0.0, t, np.nan)


def masked_margins(poly, X):
    return _row_min(poly.b - X @ poly.A.T)


def masked_batch_from_parameters(t, lengths):
    finite = np.isfinite(t) & (lengths > tol.EPS_PT)
    out = np.zeros_like(t)
    out[finite] = np.log1p(1.0 / (t[finite] - 1.0))
    out[out < tol.F_CLAMP] = 0.0
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def polytope(rng, n, k, unbounded):
    """k random unit rows and n axis rows +e_i with thresholds in [0.2, 2], so the
    origin is interior with margin 0.2.  If ``unbounded``, no row has a positive
    first entry, so +e1 recedes, and every third row has first entry 0: a ray
    along +e1 runs parallel to that face."""
    A = rng.normal(size=(k, n))
    if unbounded:
        A[:, 0] = -np.abs(A[:, 0])
        A[::3, 0] = 0.0
        A[np.all(A == 0.0, axis=1), -1] = 1.0 if n > 1 else -1.0
    A /= np.linalg.norm(A, axis=1)[:, None]
    axes = np.eye(n)[1:] if unbounded else np.eye(n)
    A = np.vstack([A, axes])
    return HPolytope(A, rng.uniform(0.2, 2.0, A.shape[0]))


def rays(rng, poly, m):
    """m rows (X, Y) of mixed kinds: interior origins with targets inside, on or
    beyond the boundary, origins outside or on an axis face, coincident rows and
    rays along +e1."""
    n = poly.dim
    X = rng.uniform(-0.1, 0.1, (m, n))
    D = rng.normal(size=(m, n)) * rng.choice([1e-14, 1e-3, 0.1, 1.0, 5.0], (m, 1))
    kind = rng.integers(0, 6, m)
    X[kind == 1] *= 40.0  # mostly outside some face
    if poly.A[-1, n - 1] == 1.0:  # on the last axis face: a slack of exactly 0
        X[kind == 2, n - 1] = poly.b[-1]
    D[kind == 3] = 0.0
    D[kind == 4] = 0.0
    D[kind == 4, 0] = rng.uniform(0.1, 2.0, int(np.sum(kind == 4)))
    Y = X + D
    # targets on the boundary: the exit point itself
    exits = kind == 5
    t = masked_exits(poly, X[exits], Y[exits])
    t = np.where(np.isfinite(t), t, 1.0)
    Y[exits] = X[exits] + t[:, None] * D[exits]
    return X, Y


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), k=st.integers(1, 32),
       m=st.integers(1, 3000), unbounded=st.booleans())
def test_polytope_row_kernels_match_the_masked_formulas(seed, n, k, m, unbounded):
    rng = np.random.default_rng(seed)
    poly = polytope(rng, n, k, unbounded)
    X, Y = rays(rng, poly, m)
    assert np.isfinite(Y - X).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = poly._exits(X, Y)
        assert same_bits(t, masked_exits(poly, X, Y))
        for P in (X, Y):
            assert same_bits(poly._margins(P), masked_margins(poly, P))
            assert same_bits(_columns(P, poly.A), P @ poly.A.T)
    if unbounded:  # rays along +e1 from interior origins never leave
        along = (X[:, 1:] == Y[:, 1:]).all(axis=1) & (X[:, 0] < Y[:, 0])
        assert np.isinf(t[along & (masked_margins(poly, X) > 0.0)]).all()


NEXT = np.nextafter(1.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3000))
def test_batch_conversion_matches_the_masked_formula(seed, m):
    rng = np.random.default_rng(seed)
    t = rng.choice([NEXT, np.nextafter(NEXT, 2.0), 1.0 + 1e-9, 2.0, 1e15, 1e300, np.inf], m)
    t = np.where(rng.random(m) < 0.5, 1.0 + rng.exponential(1.0, m) * 10.0 ** rng.integers(
        -15, 15, m), t)
    t[t <= 1.0] = NEXT
    lengths = rng.choice([0.0, 0.5 * tol.EPS_PT, tol.EPS_PT, np.nextafter(tol.EPS_PT, 1.0),
                          1.0], m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _batch_from_parameters(t, lengths)
        assert same_bits(out, masked_batch_from_parameters(t, lengths))
