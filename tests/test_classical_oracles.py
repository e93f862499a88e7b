import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funkgeo import (
    GeometryError,
    ceva_product,
    cross_ratio,
    division_ratio,
    hilbert,
    menelaus_product,
)
from funkgeo.suites import apply_projective, random_projective_map


# --- division ratio -----------------------------------------------------------

def test_midpoint_ratio_is_half():
    assert division_ratio([0.0, 0.0], [2.0, 0.0], [1.0, 0.0]) == pytest.approx(0.5)


def test_endpoints():
    assert division_ratio([0.0, 0.0], [1.0, 0.0], [0.0, 0.0]) == 0.0
    assert division_ratio([0.0, 0.0], [1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)


def test_sign_convention():
    # P on the far side of A from B gives a negative ratio
    assert division_ratio([0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)


def test_division_ratio_input_validation():
    with pytest.raises(GeometryError):
        division_ratio([0.0, 0.0], [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(GeometryError):
        division_ratio([0.0, 0.0], [1.0, 0.0], [0.5, 0.5])


@settings(max_examples=100, deadline=None)
@given(t=st.floats(-5.0, 5.0), bx=st.floats(-2.0, 2.0), by=st.floats(-2.0, 2.0))
def test_division_ratio_recovers_parameter(t, bx, by):
    a = np.array([0.3, -0.4])
    b = np.array([bx, by])
    if np.linalg.norm(b - a) < 1e-3:
        return
    p = t * b + (1.0 - t) * a
    assert division_ratio(a, b, p) == pytest.approx(t, abs=1e-9)


# --- Menelaus -------------------------------------------------------------------

HAND = dict(a=[0.0, 0.0], b=[1.0, 0.0], c=[0.0, 1.0],
            ap=[1.5, -0.5], bp=[0.0, 0.25], cp=[0.5, 0.0])


def test_menelaus_hand_instance():
    # side ratios 1/3, -3, -1: the transversal product is +1
    value = menelaus_product(HAND["a"], HAND["b"], HAND["c"],
                             HAND["ap"], HAND["bp"], HAND["cp"])
    assert value == pytest.approx(1.0, abs=1e-12)


def test_menelaus_perturbation_detected():
    value = menelaus_product(HAND["a"], HAND["b"], HAND["c"],
                             HAND["ap"], HAND["bp"], [0.6, 0.0])
    assert abs(value - 1.0) > 1e-2


def test_menelaus_affine_invariance(rng):
    M = np.array([[1.2, -0.3], [0.4, 0.9]])
    shift = np.array([0.7, -1.1])
    mapped = {k: M @ np.array(v) + shift for k, v in HAND.items()}
    value = menelaus_product(mapped["a"], mapped["b"], mapped["c"],
                             mapped["ap"], mapped["bp"], mapped["cp"])
    assert value == pytest.approx(1.0, abs=1e-10)


def test_degenerate_triangle_rejected():
    with pytest.raises(GeometryError):
        menelaus_product([0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                         [1.5, 0.0], [0.5, 0.0], [0.25, 0.0])


def test_side_point_off_line_rejected():
    with pytest.raises(GeometryError):
        menelaus_product(HAND["a"], HAND["b"], HAND["c"],
                         [1.5, 0.5], HAND["bp"], HAND["cp"])


# --- Ceva -----------------------------------------------------------------------

def test_ceva_medians():
    value = ceva_product([0.0, 0.0], [2.0, 0.0], [0.0, 2.0],
                         [1.0, 1.0], [0.0, 1.0], [1.0, 0.0])
    assert value == pytest.approx(-1.0, abs=1e-12)


def test_ceva_random_concurrent(rng):
    for _ in range(50):
        A, B, C = rng.uniform(-2.0, 2.0, (3, 2))
        u, v = B - A, C - A
        if abs(u[0] * v[1] - u[1] * v[0]) < 0.3:
            continue
        w = rng.uniform(0.2, 1.0, 3)
        P = (w[0] * A + w[1] * B + w[2] * C) / w.sum()

        def hit(p0, d0, p1, d1):
            M = np.column_stack([d0, -d1])
            return p0 + np.linalg.solve(M, p1 - p0)[0] * d0

        Ap = hit(A, P - A, C, B - C)
        Bp = hit(B, P - B, A, C - A)
        Cp = hit(C, P - C, B, A - B)
        assert ceva_product(A, B, C, Ap, Bp, Cp) == pytest.approx(-1.0, abs=1e-9)
        slid = Cp + 0.05 * (A - B) / np.linalg.norm(A - B)
        assert abs(ceva_product(A, B, C, Ap, Bp, slid) + 1.0) > 1e-3


# --- cross ratio -----------------------------------------------------------------

def test_cross_ratio_unit_interval():
    value = cross_ratio([-1.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0])
    assert value == pytest.approx(3.0, abs=1e-12)


def test_cross_ratio_halves_to_hilbert(ball):
    value = cross_ratio([-1.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0])
    assert 0.5 * np.log(value) == pytest.approx(
        hilbert(ball, [0.0, 0.0], [0.5, 0.0]), abs=1e-12)


def test_cross_ratio_equal_middle_points():
    assert cross_ratio([-1.0, 0.0], [0.3, 0.0], [0.3, 0.0], [1.0, 0.0]) \
        == pytest.approx(1.0)


def test_cross_ratio_requires_collinearity():
    with pytest.raises(GeometryError):
        cross_ratio([-1.0, 0.0], [0.0, 0.1], [0.5, 0.0], [1.0, 0.0])
    with pytest.raises(GeometryError):
        cross_ratio([0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0])


def test_cross_ratio_projective_invariance(rng):
    pts = np.array([[-1.0, 0.2], [0.0, 0.2], [0.5, 0.2], [1.0, 0.2]])
    base = cross_ratio(*pts)
    for _ in range(50):
        P = random_projective_map(rng, pts)
        img = apply_projective(P, pts)
        assert cross_ratio(*img) == pytest.approx(base, abs=1e-9)


# --- far-collinear points ------------------------------------------------------------

def test_division_ratio_accepts_collinear_points_far_along_the_line():
    # P's rounding grows with |P - A|, so the collinearity bound does too.
    rng = np.random.default_rng(23)
    for _ in range(500):
        a, b = rng.uniform(-2.0, 2.0, (2, 2))
        lam = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(5.0, 8.0)
        p = lam * b + (1.0 - lam) * a
        assert division_ratio(a, b, p) == pytest.approx(lam, rel=1e-12)
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.linalg.norm(b - a)
        with pytest.raises(GeometryError, match="P does not lie on the line through A and B"):
            division_ratio(a, b, p + 1e-6 * np.linalg.norm(p - a) * normal)


# --- row forms -----------------------------------------------------------------------

def _row_cases(rng, m=400):
    """(function, rows) with valid random rows for each oracle, far-collinear ones included."""
    A, B, C = rng.uniform(-2.0, 2.0, (3, m, 2))
    lam = rng.uniform(-3.0, 3.0, (m, 1))
    lam[::4] = rng.choice([-1.0, 1.0], (m // 4, 1)) * 10.0 ** rng.uniform(5.0, 8.0, (m // 4, 1))
    division = (A, B, lam * B + (1.0 - lam) * A)
    t = rng.uniform(-2.0, 3.0, (3, m, 1))
    menelaus = (A, B, C, t[0] * B + (1 - t[0]) * C, t[1] * C + (1 - t[1]) * A,
                t[2] * A + (1 - t[2]) * B)
    w = rng.uniform(0.1, 1.0, (3, m, 1))
    P = (w[0] * A + w[1] * B + w[2] * C) / w.sum(axis=0)

    def foot(v, e1, e2):  # where the line from vertex v through P meets line e1 e2
        d, e = P - v, e2 - e1
        s = (e[:, :1] * (e1 - v)[:, 1:] - (e1 - v)[:, :1] * e[:, 1:]) \
            / (e[:, :1] * d[:, 1:] - d[:, :1] * e[:, 1:])
        return v + s * d

    ceva = (A, B, C, foot(A, B, C), foot(B, C, A), foot(C, A, B))
    origin, direction = rng.uniform(-1.0, 1.0, (2, m, 3))
    s = np.sort(rng.uniform(-2.0, 2.0, (m, 4)), axis=1)
    s[::4, 3] = 10.0 ** rng.uniform(5.0, 8.0, m // 4)
    cross = tuple(origin + s[:, k:k + 1] * direction for k in range(4))
    return [(division_ratio, division), (menelaus_product, menelaus),
            (ceva_product, ceva), (cross_ratio, cross)]


def test_row_oracles_agree_with_their_single_calls_bit_for_bit():
    for fn, rows in _row_cases(np.random.default_rng(29)):
        values = fn(*rows)
        assert isinstance(values, np.ndarray) and values.shape == (len(rows[0]),)
        singles = [fn(*row) for row in zip(*rows)]
        assert all(isinstance(v, float) for v in singles)
        assert [float.hex(v) for v in values] == [float.hex(v) for v in singles]


Z, E1, E2 = [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]
TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.5, -0.5], [0.0, 0.25], [0.5, 0.0]]
LINE = [[-1.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]


def _with_row(good, bad_rows):
    """Rows of the points: a valid first row, then the given rows."""
    return [np.array([g] + [row[k] for row in bad_rows]) for k, g in enumerate(good)]


ROW_MESSAGES = [  # (function, rows, the single call's message for the first offending row)
    (division_ratio, _with_row([Z, E1, [0.5, 0.0]], [[Z, Z, E1]]), "division ratio needs A != B"),
    (division_ratio, _with_row([Z, E1, [0.5, 0.0]], [[Z, E1, [0.5, 0.5]], [Z, Z, E1]]),
     "P does not lie on the line through A and B"),
    (division_ratio, _with_row([Z, E1, [0.5, 0.0]], [[Z, E1, [np.nan, 0.0]]]),
     "P has a non-finite coordinate"),
    (division_ratio, [np.array([Z, Z]), np.array([E1, E1]), np.array([E2])],
     "point arrays must be (m, dim) and congruent"),
    (menelaus_product, _with_row(TRIANGLE, [[Z, E1, [2.0, 0.0], [1.5, 0.0], [0.5, 0.0],
                                             [0.25, 0.0]]]), "triangle is degenerate"),
    (menelaus_product, _with_row(TRIANGLE, [[*TRIANGLE[:3], E2, [0.0, 0.25], [0.5, 0.0]]]),
     "A' coincides with a forbidden triangle vertex"),
    (ceva_product, _with_row(TRIANGLE, [[*TRIANGLE[:5], E1], [*TRIANGLE[:3], E2, *TRIANGLE[4:]]]),
     "C' coincides with a forbidden triangle vertex"),
    (ceva_product, _with_row(TRIANGLE, [[*TRIANGLE[:3], [1.5, 0.5], *TRIANGLE[4:]]]),
     "P does not lie on the line through A and B"),
    (menelaus_product, _with_row(TRIANGLE, [[*TRIANGLE[:5], [np.inf, 0.0]]]),
     "C' has a non-finite coordinate"),
    (cross_ratio, _with_row(LINE, [[Z, Z, Z, Z]]), "the four points coincide"),
    (cross_ratio, _with_row(LINE, [[[-1.0, 0.0], [0.0, 0.1], [0.5, 0.0], [1.0, 0.0]], [Z, Z, Z, Z]]),
     "the four points are not collinear"),
    (cross_ratio, _with_row(LINE, [[[-1.0, 0.0], [-1.0, 0.0], [0.5, 0.0], [1.0, 0.0]]]),
     "cross ratio needs b != x and y != a"),
]


@pytest.mark.parametrize("fn, rows, message", ROW_MESSAGES)
def test_row_oracles_keep_the_messages_of_their_single_calls(fn, rows, message):
    with warnings.catch_warnings(), pytest.raises(GeometryError) as err:
        warnings.simplefilter("error")
        fn(*rows)
    assert str(err.value) == message
