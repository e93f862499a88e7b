import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import funkgeo

from funkgeo import (
    AffineImage,
    AffineMap,
    EuclideanBall,
    GeometryError,
    HPolytope,
    backward_ball,
    forward_ball,
    funk,
    sandwich,
    sphere_directions,
    sphere_sample,
)
from funkgeo.ball_geometry import _halton

LOG2 = math.log(2.0)


def test_forward_ball_square_is_half_square(square):
    fb = forward_ball(square, [0.0, 0.0], LOG2)
    realized = fb.realized
    # homothety factor 1 - e^(-log 2) = 1/2
    assert realized.contains([0.0, 0.0]) == pytest.approx(0.5)
    assert abs(realized.contains([0.5, 0.0])) < 1e-12
    assert realized.contains([0.6, 0.0]) < 0.0
    assert realized.vertices == pytest.approx(
        0.5 * square.vertices, abs=1e-12)


def test_forward_ball_unit_ball_closed_form(ball):
    x0 = np.array([0.4, -0.1])
    rho = 0.9
    realized = forward_ball(ball, x0, rho).realized
    assert isinstance(realized, EuclideanBall)
    assert realized.center == pytest.approx(math.exp(-rho) * x0, abs=1e-12)
    assert realized.radius == pytest.approx(1.0 - math.exp(-rho), abs=1e-12)


def test_forward_ball_shrinks_with_radius(square):
    tiny = forward_ball(square, [0.2, 0.1], 1e-6)
    pts = sphere_sample(tiny, 8)
    assert np.max(np.linalg.norm(pts - np.array([0.2, 0.1]), axis=1)) < 3e-6


def test_forward_ball_rejects_bad_inputs(square):
    with pytest.raises(GeometryError):
        forward_ball(square, [2.0, 0.0], 1.0)
    with pytest.raises(GeometryError):
        forward_ball(square, [0.0, 0.0], 0.0)


def test_forward_sphere_points_at_exact_distance(square, ball, rng):
    for domain in (square, ball):
        x = rng.uniform(-0.3, 0.3, 2)
        rho = rng.uniform(0.3, 1.5)
        fb = forward_ball(domain, x, rho)
        for p in sphere_sample(fb, 48):
            assert funk(domain, x, p) == pytest.approx(rho, abs=1e-8)


def test_backward_ball_membership_formula(square, rng):
    x = np.array([0.2, -0.1])
    rho = 0.8
    mu = math.expm1(rho)
    bb = backward_ball(square, x, rho)
    for _ in range(200):
        y = rng.uniform(-1.0, 1.0, 2)
        direct = (square.contains(y) > 0.0
                  and square.contains(x - (y - x) / mu) > 0.0)
        assert (bb.realized.contains(y) > 0.0) == direct


def test_reflected_homothet_matches_explicit_reflection(square, ball, rng):
    # The reflected part of a backward ball, against its explicit formulas.
    image = AffineImage(ball, AffineMap([[1.0, 0.4], [0.0, 0.7]], [0.1, -0.2]))
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, 2)
        mu = math.expm1(rng.uniform(0.01, 5.0))
        poly = square.homothet(x, -mu)
        assert np.array_equal(poly.A, -square.A)
        assert np.array_equal(poly.b, mu * square.b - (mu + 1.0) * (square.A @ x))
        assert np.array_equal(poly.vertices, x - mu * (square.vertices - x))
        disk = ball.homothet(x, -mu)
        assert np.array_equal(disk.center, x - mu * (ball.center - x))
        assert disk.radius == mu * ball.radius
        wrapped = image.homothet(x, -mu)
        assert wrapped.inner is image
        assert np.array_equal(wrapped.map.matrix, -mu * np.eye(2))
        assert np.array_equal(wrapped.map.translation, (1.0 + mu) * x)


def test_backward_ball_at_log2_from_center_is_square(square, rng):
    bb = backward_ball(square, [0.0, 0.0], LOG2)
    for _ in range(200):
        y = rng.uniform(-1.3, 1.3, 2)
        assert (bb.realized.contains(y) > 0.0) == (square.contains(y) > 0.0)


def test_backward_ball_saturates_for_large_radius(square, rng):
    bb = backward_ball(square, [0.4, -0.3], 5.0)
    for _ in range(200):
        y = rng.uniform(-0.99, 0.99, 2)
        assert bb.realized.contains(y) > 0.0


def test_backward_sphere_certified_points(square):
    x = np.array([0.3, 0.2])
    rho = 0.5
    bb = backward_ball(square, x, rho)
    certified = 0
    for p in sphere_sample(bb, 48):
        if bb.radius_is_certified(p):
            certified += 1
            assert funk(square, p, x) == pytest.approx(rho, abs=1e-8)
    assert certified >= 3


def test_sphere_sample_square_axis_directions(square):
    fb = forward_ball(square, [0.0, 0.0], LOG2)
    pts = sphere_sample(fb, 4)
    assert pts == pytest.approx(
        np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]]), abs=1e-12)


def test_sphere_sample_minimum_count(square):
    fb = forward_ball(square, [0.0, 0.0], 0.5)
    pts = sphere_sample(fb, 3)
    assert len(np.unique(np.round(pts, 9), axis=0)) == 3
    with pytest.raises(GeometryError):
        sphere_sample(fb, 2)


def test_sphere_directions_high_dim_deterministic():
    a = sphere_directions(4, 32, seed=7)
    b = sphere_directions(4, 32, seed=7)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a, axis=1) == pytest.approx(np.ones(32), abs=1e-12)
    assert not np.allclose(a, sphere_directions(4, 32, seed=8))


@pytest.mark.parametrize("work", [
    "",
    "funkgeo.sphere_sample(funkgeo.forward_ball(funkgeo.HPolytope.box([-1.0] * 3, [1.0] * 3),"
    " [0.1, 0.2, 0.3], 0.5), 32); ",
])
def test_import_loads_the_scipy_package_but_not_its_submodules(work):
    code = ("import sys, funkgeo; " + work +
            "print(*[m in sys.modules for m in ('scipy', 'scipy.special', 'scipy.stats')])")
    src = str(Path(funkgeo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["True", "False", "False"]


# float.hex of rows 0, 1 and 63 of sphere_directions(dim, 64, seed=7).
PINNED_DIRECTIONS = {
    3: (("0x1.d56ba17ed52afp-1", "-0x1.9863071f30b9cp-2", "-0x1.356fcb4ba2e04p-6"),
        ("-0x1.37b1cedb3371fp-4", "0x1.566b60e257121p-1", "0x1.7aa616770ee36p-1"),
        ("0x1.e936116ee7259p-1", "-0x1.88c367a555b2fp-4", "0x1.1db30cd04fbd1p-2")),
    4: (("0x1.ca6a17fe98066p-1", "-0x1.8ecfd301ce25ep-2", "-0x1.2e2e815433a53p-6",
         "-0x1.b8e0b1d6c5806p-3"),
        ("-0x1.8570080efb9aep-5", "0x1.abd370059762ap-2", "0x1.d917736e91d7cp-2",
         "0x1.8fcc6f42f4651p-1"),
        ("0x1.aa95b062adafap-2", "-0x1.567bce7762f82p-5", "0x1.f24046d23d9d7p-4",
         "-0x1.ccc64ae6f5861p-1")),
}


@pytest.mark.parametrize("dim", [3, 4])
def test_sphere_directions_keep_their_bits(dim):
    dirs = sphere_directions(dim, 64, seed=7)
    rows = tuple(tuple(float.hex(float(v)) for v in dirs[i]) for i in (0, 1, 63))
    assert rows == PINNED_DIRECTIONS[dim]


@pytest.mark.parametrize("dim", [3, 4, 6])
@pytest.mark.parametrize("n", [64, 256])
def test_halton_points_are_as_even_as_scipys(dim, n):
    # scipy's scrambled Halton is the oracle; at dim 6 and n = 64 it is only
    # 4.6 times as even as pseudo-random points, so the bound there is 1/4.
    def median(draw):
        return np.median([qmc.discrepancy(draw(seed)) for seed in range(10)])

    ours = median(lambda seed: _halton(dim, n, seed))
    assert ours <= 1.25 * median(lambda seed: qmc.Halton(d=dim, scramble=True, seed=seed).random(n))
    assert ours <= median(lambda seed: np.random.default_rng(seed).random((n, dim))) / 4


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), k=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_sphere_directions_are_seeded_unit_vectors(dim, k, seed):
    dirs = sphere_directions(dim, k, seed=seed)
    assert dirs.shape == (k, dim)
    assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-12
    assert np.array_equal(dirs, sphere_directions(dim, k, seed=seed))
    if dim >= 3:  # 2-d angles ignore the seed; 1-d directions are only signs
        assert not np.allclose(dirs, sphere_directions(dim, k, seed=seed + 1))


def test_sandwich_square_center(square):
    cons = sandwich(square, [0.0, 0.0])
    assert cons.lambda_x == pytest.approx(1.0)
    assert cons.Lambda_x == pytest.approx(math.sqrt(2.0))


def test_sandwich_square_off_center(square):
    cons = sandwich(square, [0.5, 0.0])
    assert cons.lambda_x == pytest.approx(0.5)
    assert cons.Lambda_x == pytest.approx(math.sqrt(1.5 ** 2 + 1.0))


def test_sandwich_regular_polygon_center():
    k = 8
    angles = 2.0 * np.pi * np.arange(k) / k
    octagon = HPolytope.from_polygon_vertices(
        np.column_stack([np.cos(angles), np.sin(angles)]))
    cons = sandwich(octagon, [0.0, 0.0])
    assert cons.Lambda_x == pytest.approx(1.0, abs=1e-12)  # circumradius
    assert cons.lambda_x == pytest.approx(math.cos(math.pi / k), abs=1e-12)


def test_sandwich_encloses_forward_sphere(square, rng):
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 2)
        rho = rng.uniform(0.1, 2.0)
        cons = sandwich(square, x)
        lo, hi = cons.forward_bracket(rho)
        for p in sphere_sample(forward_ball(square, x, rho), 16):
            r = np.linalg.norm(p - x)
            assert lo - 1e-9 <= r <= hi + 1e-9


def test_sandwich_encloses_backward_sphere_small_radius(square, rng):
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 2)
        rho = rng.uniform(0.05, LOG2)
        cons = sandwich(square, x)
        lo, hi = cons.backward_bracket(rho)
        for p in sphere_sample(backward_ball(square, x, rho), 16):
            r = np.linalg.norm(p - x)
            assert lo - 1e-9 <= r <= hi + 1e-9


def test_unbounded_domain_spheres_skip_escaping_directions(half_plane):
    fb = forward_ball(half_plane, [0.0, 1.0], 0.7)
    pts = sphere_sample(fb, 8)
    assert len(pts) == 8
    for p in pts:
        assert funk(half_plane, [0.0, 1.0], p) == pytest.approx(0.7, abs=1e-8)


def test_sandwich_requires_vertices_and_boundedness(half_plane):
    no_vertices = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                            [1.0, 1.0, 1.0, 1.0], witness=[0.0, 0.0])
    with pytest.raises(GeometryError):
        sandwich(no_vertices, [0.0, 0.0])
    strip = HPolytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0],
                      vertices=[[1.0, 0.0], [-1.0, 0.0]], witness=[0.0, 0.0])
    with pytest.raises(GeometryError):
        sandwich(strip, [0.0, 0.0])
