import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funkgeo import (
    EuclideanBall,
    GeometryError,
    HPolytope,
    distance_from_ratio,
    funk,
    funk_batch,
    funk_polytope_closed_form,
    funk_unit_ball_closed_form,
    hilbert,
    max_symmetrized,
    minkowski_max_distance,
    ratio_from_distances,
    relative_funk,
    reverse_funk,
)

from conftest import bisect_boundary

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
INTERVAL = HPolytope.box([-1.0], [1.0])


# --- the five metrics ---------------------------------------------------------

def test_funk_square_hand_value(square):
    assert funk(square, [0.0, 0.0], [0.5, 0.0]) == pytest.approx(LOG2, abs=1e-12)


def test_funk_zero_on_diagonal(square, ball):
    assert funk(square, [0.2, 0.1], [0.2, 0.1]) == 0.0
    assert funk(ball, [0.0, 0.3], [0.0, 0.3]) == 0.0


def test_funk_half_plane_closed_form(half_plane):
    # distance in the upper half plane is max(0, log(x2/y2))
    assert funk(half_plane, [0.0, 2.0], [5.0, 1.0]) == pytest.approx(LOG2, abs=1e-12)
    assert funk(half_plane, [0.0, 1.0], [3.0, 2.0]) == 0.0


def test_funk_rejects_exterior(square):
    with pytest.raises(GeometryError):
        funk(square, [2.0, 0.0], [0.0, 0.0])
    with pytest.raises(GeometryError):
        funk(square, [0.0, 0.0], [2.0, 0.0])


def test_reverse_funk_square(square):
    assert reverse_funk(square, [0.0, 0.0], [0.5, 0.0]) \
        == pytest.approx(math.log(1.5), abs=1e-12)


def test_reverse_funk_half_plane(half_plane):
    assert reverse_funk(half_plane, [0.0, 1.0], [0.0, 2.0]) \
        == pytest.approx(LOG2, abs=1e-12)


def test_hilbert_ball_cross_ratio_value(ball):
    assert hilbert(ball, [0.0, 0.0], [0.5, 0.0]) == pytest.approx(0.5 * LOG3, abs=1e-12)


def test_hilbert_square_is_funk_average(square):
    x, y = [0.0, 0.0], [0.5, 0.0]
    assert hilbert(square, x, y) == pytest.approx(0.5 * LOG3, abs=1e-12)
    assert hilbert(square, x, y) == pytest.approx(
        0.5 * (funk(square, x, y) + funk(square, y, x)), abs=1e-15)


def test_max_symmetrized(square, half_plane):
    assert max_symmetrized(square, [0.0, 0.0], [0.5, 0.0]) \
        == pytest.approx(LOG2, abs=1e-12)
    assert max_symmetrized(half_plane, [0.0, 1.0], [1.0, 1.0]) == 0.0
    assert max_symmetrized(square, [0.3, 0.3], [0.3, 0.3]) == 0.0


def test_relative_funk_whole_space_reduces_to_funk(ball):
    x, y = [0.0, 0.0], [0.5, 0.0]
    assert relative_funk(ball, None, x, y) == funk(ball, x, y)


def test_relative_funk_self_is_twice_hilbert(ball):
    x, y = [0.0, 0.0], [0.5, 0.0]
    assert relative_funk(ball, ball, x, y) == pytest.approx(LOG3, abs=1e-12)
    assert relative_funk(ball, ball, x, y) == pytest.approx(
        2.0 * hilbert(ball, x, y), abs=1e-15)
    assert relative_funk(ball, ball, x, x) == 0.0


def test_relative_funk_requires_containment(ball):
    small = EuclideanBall([0.0, 0.0], 0.5)
    with pytest.raises(GeometryError):
        relative_funk(ball, small, [0.0, 0.0], [0.1, 0.0])


# --- closed forms vs the generic ray cast ---------------------------------------

def test_polytope_closed_form_orthant_value():
    orthant = HPolytope(-np.eye(2), np.zeros(2), witness=[1.0, 1.0])
    assert funk_polytope_closed_form(orthant, [2.0, 1.0], [1.0, 1.0]) \
        == pytest.approx(LOG2, abs=1e-12)


def test_polytope_closed_form_matches_ray_cast(square, rng):
    for _ in range(100):
        x = rng.uniform(-0.9, 0.9, 2)
        y = rng.uniform(-0.9, 0.9, 2)
        assert funk_polytope_closed_form(square, x, y) \
            == pytest.approx(funk(square, x, y), abs=1e-10)


def test_polytope_closed_form_diagonal(square):
    assert funk_polytope_closed_form(square, [0.1, 0.2], [0.1, 0.2]) == 0.0


def test_unit_ball_closed_form_from_center():
    # from the center the distance only depends on |y|
    assert funk_unit_ball_closed_form([0.0, 0.0], [0.5, 0.0]) \
        == pytest.approx(LOG2, abs=1e-12)
    assert funk_unit_ball_closed_form([0.0, 0.0], [0.0, 0.75]) \
        == pytest.approx(-math.log(0.25), abs=1e-12)


def test_unit_ball_closed_form_matches_ray_cast(ball, rng):
    assert funk_unit_ball_closed_form([0.3, 0.0], [0.3, 0.4]) \
        == pytest.approx(funk(ball, [0.3, 0.0], [0.3, 0.4]), abs=1e-10)
    for _ in range(200):
        x = rng.uniform(-0.6, 0.6, 2)
        y = rng.uniform(-0.6, 0.6, 2)
        if max(np.linalg.norm(x), np.linalg.norm(y)) >= 0.95:
            continue
        assert funk_unit_ball_closed_form(x, y) \
            == pytest.approx(funk(ball, x, y), abs=1e-10)


def test_unit_ball_closed_form_rejects_outside_points():
    with pytest.raises(GeometryError):
        funk_unit_ball_closed_form([1.2, 0.0], [0.0, 0.0])


def test_funk_against_membership_bisection(square, ball, rng):
    for domain in (square, ball):
        for _ in range(30):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-0.5, 0.5, 2)
            if np.linalg.norm(y - x) < 1e-3:
                continue
            t = bisect_boundary(domain, x, y)
            assert funk(domain, x, y) == pytest.approx(
                math.log(t / (t - 1.0)), abs=1e-9)


# --- one-dimensional distance ---------------------------------------------------

def test_interval_examples():
    assert funk(INTERVAL, [0.0], [0.5]) == pytest.approx(LOG2, abs=1e-15)
    assert funk(INTERVAL, [0.5], [0.0]) == pytest.approx(math.log(1.5), abs=1e-15)
    assert funk(INTERVAL, [0.3], [0.3]) == 0.0


def test_interval_rejects_outside():
    with pytest.raises(GeometryError):
        funk(INTERVAL, [0.0], [1.5])


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-0.99, 0.99), y=st.floats(-0.99, 0.99), z=st.floats(-0.99, 0.99))
def test_interval_triangle_inequality(x, y, z):
    assert funk(INTERVAL, [x], [z]) <= funk(INTERVAL, [x], [y]) + funk(INTERVAL, [y], [z]) + 1e-12


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-0.9, 0.9), y=st.floats(-0.9, 0.9), s=st.floats(0.0, 1.0))
def test_interval_projective_on_segments(x, y, s):
    z = x + s * (y - x)
    assert funk(INTERVAL, [x], [y]) == pytest.approx(
        funk(INTERVAL, [x], [z]) + funk(INTERVAL, [z], [y]), abs=1e-12)


# --- division-ratio calculus ------------------------------------------------------

def test_ratio_worked_instance():
    assert ratio_from_distances(LOG2, math.log(4.0)) == pytest.approx(1.5, abs=1e-14)
    assert distance_from_ratio(LOG2, 1.5) == pytest.approx(math.log(4.0), abs=1e-14)


def test_ratio_trivial_cases():
    assert ratio_from_distances(LOG2, LOG2) == pytest.approx(1.0, abs=1e-15)
    assert ratio_from_distances(LOG2, 0.0) == 0.0
    assert distance_from_ratio(LOG2, 1.0) == pytest.approx(LOG2, abs=1e-15)
    assert distance_from_ratio(LOG2, 0.0) == 0.0


def test_ratio_errors():
    with pytest.raises(GeometryError):
        ratio_from_distances(0.0, 1.0)
    with pytest.raises(GeometryError):
        distance_from_ratio(LOG2, 10.0)  # z would be past the boundary


@settings(max_examples=200, deadline=None)
@given(fxy=st.floats(1e-3, 5.0), fxz=st.floats(0.0, 5.0))
def test_ratio_round_trip(fxy, fxz):
    t = ratio_from_distances(fxy, fxz)
    assert distance_from_ratio(fxy, t) == pytest.approx(fxz, abs=1e-10)


def test_ratio_matches_interval_geometry():
    fxy = funk(INTERVAL, [0.0], [0.5])
    fxz = funk(INTERVAL, [0.0], [0.75])
    assert ratio_from_distances(fxy, fxz) == pytest.approx(1.5, abs=1e-12)


# --- orthant log isometry ----------------------------------------------------------

def test_orthant_isometry_worked_pair():
    orthant = HPolytope(-np.eye(2), np.zeros(2), witness=[1.0, 1.0])
    lhs = funk(orthant, [2.0, 1.0], [1.0, 1.0])
    rhs = minkowski_max_distance(np.log([2.0, 1.0]), np.log([1.0, 1.0]))
    assert lhs == pytest.approx(rhs, abs=1e-15)
    assert lhs == pytest.approx(LOG2, abs=1e-15)


# --- vectorized evaluation ----------------------------------------------------------

def test_funk_batch_matches_scalar(square, ball, rng):
    for domain in (square, ball):
        X = rng.uniform(-0.6, 0.6, (50, 2))
        Y = rng.uniform(-0.6, 0.6, (50, 2))
        batch = funk_batch(domain, X, Y)
        for i in range(50):
            assert batch[i] == pytest.approx(funk(domain, X[i], Y[i]), abs=1e-12)


def test_funk_batch_parallel_rays_are_exactly_zero(half_plane):
    X = np.array([[0.0, 1.0], [2.0, 0.5]])
    Y = X + np.array([[1.0, 0.0], [3.0, 0.0]])
    assert np.all(funk_batch(half_plane, X, Y) == 0.0)


def test_last_representable_interior_point_keeps_finite_distance(square):
    y = np.array([np.nextafter(1.0, 0.0), 0.0])
    assert square.contains(y) > 0.0
    value = funk(square, [0.0, 0.0], y)
    assert np.isfinite(value) and value > 30.0
