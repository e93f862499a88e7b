import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funkgeo import (
    AffineImage,
    AffineMap,
    DomainSpecError,
    EuclideanBall,
    GeometryError,
    HPolytope,
    IntersectionDomain,
    funk,
    supporting_functional,
    to_projective,
    unique_geodesic_pair,
)
from funkgeo.suites import random_polygon, random_polytope

from conftest import bisect_boundary


# --- membership margins -----------------------------------------------------

def test_contains_square_center(square):
    assert square.contains([0.0, 0.0]) == pytest.approx(1.0)


def test_contains_ball_boundary_and_exterior(ball):
    assert ball.contains([1.0, 0.0]) == pytest.approx(0.0)
    assert ball.contains([2.0, 0.0]) == pytest.approx(-1.0)


def test_contains_rejects_dimension_mismatch(square):
    with pytest.raises(GeometryError):
        square.contains([0.0, 0.0, 0.0])


def test_contains_rejects_nonfinite(square):
    with pytest.raises(GeometryError):
        square.contains([np.nan, 0.0])


# --- ray casting ------------------------------------------------------------

def test_ray_square_axis(square):
    hit = square.ray_boundary([0.0, 0.0], [0.5, 0.0])
    assert hit.t == pytest.approx(2.0, abs=1e-12)
    assert hit.point == pytest.approx([1.0, 0.0], abs=1e-12)


def test_ray_half_plane_parallel_is_at_infinity(half_plane):
    hit = half_plane.ray_boundary([0.0, 1.0], [1.0, 1.0])
    assert hit.at_infinity
    assert hit.direction == pytest.approx([1.0, 0.0])
    # the ray really does stay inside, far out
    for t in (1.0, 1e3, 1e6):
        assert half_plane.contains([t, 1.0]) > 0.0


def test_ray_ball_radial(ball):
    hit = ball.ray_boundary([0.0, 0.0], [0.0, 0.5])
    assert hit.t == pytest.approx(2.0, abs=1e-12)
    assert hit.point == pytest.approx([0.0, 1.0], abs=1e-12)


def test_ray_requires_interior_origin(square):
    with pytest.raises(GeometryError):
        square.ray_boundary([2.0, 0.0], [0.0, 0.0])


def test_ray_requires_distinct_points(square):
    with pytest.raises(GeometryError):
        square.ray_boundary([0.1, 0.1], [0.1, 0.1])


def test_ray_matches_membership_bisection(square, ball, rng):
    domains = [square, ball,
               IntersectionDomain([square, EuclideanBall([0.4, 0.0], 1.0)],
                                  witness=[0.0, 0.0])]
    for domain in domains:
        for _ in range(50):
            x = rng.uniform(-0.4, 0.4, 2)
            y = x + rng.normal(size=2) * 0.3
            if domain.contains(y) <= 1e-9 or np.linalg.norm(y - x) < 1e-6:
                continue
            hit = domain.ray_boundary(x, y)
            t_ref = bisect_boundary(domain, x, y)
            assert hit.t == pytest.approx(t_ref, abs=1e-9)


def test_intersection_hit_is_min_of_children(square):
    disk = EuclideanBall([0.4, 0.0], 1.0)
    both = IntersectionDomain([square, disk], witness=[0.0, 0.0])
    x, y = np.array([0.0, 0.0]), np.array([0.3, 0.1])
    t_both = both.ray_boundary(x, y).t
    assert t_both == pytest.approx(
        min(square.ray_boundary(x, y).t, disk.ray_boundary(x, y).t), abs=1e-12)


def test_shrinking_a_slack_never_delays_the_hit(square):
    x, y = np.array([0.1, -0.2]), np.array([0.6, 0.3])
    t_old = square.ray_boundary(x, y).t
    b_new = square.b.copy()
    b_new[0] -= 0.3
    t_new = square.shifted(b_new).ray_boundary(x, y).t
    assert t_new <= t_old + 1e-12


# --- supporting functionals and faces ----------------------------------------

def test_supporting_functional_square_edge(square):
    h = supporting_functional(square, [1.0, 0.0])
    assert h([0.7, -0.3]) == pytest.approx(0.7)
    assert h([1.0, 0.5]) == pytest.approx(1.0)


def test_supporting_functional_ball_pole(ball):
    h = supporting_functional(ball, [0.0, 1.0])
    assert h([0.3, 0.2]) == pytest.approx(0.2)


def test_supporting_functional_corner_tie_break(square):
    # both edge constraints are active at the corner; lowest index wins
    h = supporting_functional(square, [1.0, 1.0])
    assert h.coeffs == pytest.approx([1.0, 0.0])


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
def test_supporting_functional_does_not_depend_on_scale(scale):
    # the nearest row wins, not every row within an absolute distance of it
    square = HPolytope.box([-scale, -scale], [scale, scale])
    a = square.ray_boundary([0.0, 0.0], [0.3 * scale, 0.4 * scale]).point
    h = supporting_functional(square, a)
    assert h.coeffs * scale == pytest.approx([0.0, 1.0])
    assert h([0.1 * scale, 0.0]) == 0.0
    assert h(a) == pytest.approx(1.0)


def test_intersection_support_at_a_part_within_its_gate():
    # the polytope's rows are stored as unit rows, so its margin at (0, 1) is
    # its distance 5e-7, outside EPS_BD: only the ball touches there
    slab = HPolytope([[1000.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                     [1000.0, 1.0, 1.0 + 5e-7, 1.0])
    both = IntersectionDomain([EuclideanBall([0.0, 0.0], 1.0), slab])
    h = supporting_functional(both, [0.0, 1.0])
    assert h.coeffs == pytest.approx([0.0, 1.0]) and h.offset == 0.0
    assert np.array_equal(both.support_normals([0.0, 1.0]), [[0.0, 1.0]])
    with pytest.raises(GeometryError, match="^point is not on the domain boundary$"):
        slab.active_face([0.0, 1.0])
    # an affine image's boundary test is its inner domain's at the pulled-back
    # point, so the part selection and the inner face test agree on either side
    small = AffineImage(HPolytope.box([-1.0, -1.0], [1.0, 1.0]),
                        AffineMap(1e-3 * np.eye(2), np.zeros(2)))
    both = IntersectionDomain([small, EuclideanBall([0.0, 0.0], 5.0)])
    assert np.array_equal(both.support_normals([1e-3 * (1.0 - 5e-10), 0.0]), [[1e3, 0.0]])
    for query in (both.support_normals, lambda a: supporting_functional(both, a)):
        with pytest.raises(GeometryError, match="^point is not on the intersection boundary$"):
            query([1e-3 * (1.0 - 5e-7), 0.0])


def _answer(call):
    """A call's value, or the class and message of the GeometryError it raises."""
    try:
        return call()
    except GeometryError as err:
        return type(err), str(err)


def _normals_answer(domain, a):
    answer = _answer(lambda: domain.support_normals(a))
    return answer if isinstance(answer, tuple) else [tuple(c) for c in answer]


def test_nested_intersection_answers_as_it_does_alone():
    slab = HPolytope([[1000.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                     [1000.0, 1.0, 1.0 + 5e-7, 1.0])
    big = AffineImage(HPolytope.box([-1.0, -1.0], [1.0, 1.0]),
                      AffineMap(1e3 * np.eye(2), np.zeros(2)))
    cases = [  # (inner intersection, radius of the far ball, points on either side of EPS_BD)
        (IntersectionDomain([slab, EuclideanBall([0.0, 0.0], 5.0)]), 6.0,
         [[0.0, 1.0], [0.0, 1.0 + 5e-7 - 5e-10]]),
        (IntersectionDomain([big, EuclideanBall([0.0, 0.0], 5e3)]), 6e3,
         [[1e3 * (1.0 - 5e-10), 0.0], [1e3 * (1.0 - 5e-7), 0.0]]),
    ]
    for inner, radius, points in cases:
        nested = IntersectionDomain([inner, EuclideanBall([0.0, 0.0], radius)])
        for a in points:
            assert _normals_answer(nested, a) == _normals_answer(inner, a)


def test_unit_rows_are_stored_and_scale_does_not_leak():
    A, b = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(4)
    assert HPolytope(1e-11 * A, 1e-11 * b).is_exposed_at([1.0, 1.0])
    tiny = HPolytope(1e-13 * A, 1e-13 * b, witness=[0.0, 0.0])
    assert np.array_equal(tiny.A, A) and np.array_equal(tiny.b, b)
    assert tiny.contains([0.5, 0.0]) == 0.5  # a distance, as a ball's margin is


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_rows_far_outside_the_range_of_their_squares_become_unit_rows(scale):
    A, b = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        square = HPolytope(scale * A, scale * b, witness=[0.0, 0.0])
    assert np.array_equal(square.A, A) and np.array_equal(square.b, b)
    assert funk(square, [0.0, 0.0], [0.5, 0.0]) == math.log(2.0)


def _vertices(poly):
    """The polytope's vertex data, or its vertices found row subset by row subset."""
    if poly.vertices is not None:
        return poly.vertices
    found = []
    for rows in itertools.combinations(range(poly.b.size), poly.dim):
        rows = list(rows)
        if abs(np.linalg.det(poly.A[rows])) > 1e-9:
            v = np.linalg.solve(poly.A[rows], poly.b[rows])
            if poly.contains(v) > -1e-9:
                found.append(v)
    return np.array(found)


ROW_SCALE_POLYTOPES = {
    "box": lambda rng: HPolytope.box(-rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)),
    "polygon": random_polygon,
    "polytope": lambda rng: random_polytope(rng, int(rng.integers(2, 4))),
}


def _row_scale_answers(kind, seed, exponents, rays):
    """Per ray, the answers of the polytope drawn from ``seed`` and of the same
    polytope with each row and threshold times 10^k, k from ``exponents``
    (cycled over the rows): a pair of dicts.  Half of the rays aim at a vertex."""
    rng = np.random.default_rng(seed)
    unit = ROW_SCALE_POLYTOPES[kind](rng)
    s = 10.0 ** np.resize(exponents, unit.b.size)
    scaled = HPolytope(unit.A * s[:, None], unit.b * s, vertices=unit.vertices,
                       witness=unit.base_point())
    V, p0 = _vertices(unit), unit.base_point()
    for i in range(rays):
        x = p0 + rng.uniform(0.0, 0.9) * (V[rng.integers(len(V))] - p0)
        if i % 2 == 0:
            d = V[rng.integers(len(V))] - x
        else:
            d = rng.standard_normal(unit.dim)
        z = x + 0.5 * unit.ray_boundary(x, x + d).t * d
        a = unit.ray_boundary(x, z).point
        yield [{
            "t": _answer(lambda: poly.ray_boundary(x, z).t),
            "funk": _answer(lambda: funk(poly, x, z)),
            "exposed": _answer(lambda: poly.is_exposed_at(a)),
            "face": _answer(lambda: poly.active_face(a)),
            "normals": _normals_answer(poly, a),
            "unique": _answer(lambda: unique_geodesic_pair(poly, x, z)),
        } for poly in (unit, scaled)]


EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(ROW_SCALE_POLYTOPES)), seed=st.integers(0, 2**32 - 1),
       exponents=st.lists(st.integers(-12, 12), min_size=9, max_size=9))
def test_answers_do_not_depend_on_row_scale(kind, seed, exponents):
    for unit, scaled in _row_scale_answers(kind, seed, exponents, rays=8):
        t = unit.pop("t")
        assert abs(scaled.pop("t") - t) <= 32 * EPS * t
        assert abs(scaled.pop("funk") - unit.pop("funk")) <= 32 * EPS / (t - 1.0)
        # a unit row made from a scaled row can round to another last bit
        normals = unit.pop("normals")
        assert np.allclose(scaled.pop("normals"), normals, rtol=0.0, atol=4 * EPS)
        assert scaled == unit


def test_support_normals_and_exposedness(square, ball):
    corner, edge = np.array([1.0, 1.0]), np.array([1.0, 0.3])
    assert np.array_equal(square.support_normals(corner), [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(square.support_normals(edge), [[1.0, 0.0]])
    # near a corner the normals come in index order; the form takes the nearest row
    near = [1.0 - 1e-8, 1.0]
    assert np.array_equal(square.support_normals(near), [[1.0, 0.0], [0.0, 1.0]])
    assert supporting_functional(square, near).coeffs == pytest.approx([0.0, 1.0])
    assert square.is_exposed_at(corner) and not square.is_exposed_at(edge)
    assert np.allclose(ball.support_normals([0.0, 1.0]), [[0.0, 1.0]])
    assert ball.is_exposed_at([0.0, 1.0])
    amap = AffineMap([[2.0, 0.0], [0.0, 0.5]], [0.0, 0.0])
    image = AffineImage(square, amap)
    assert np.array_equal(image.support_normals(amap(corner)), [[0.5, 0.0], [0.0, 2.0]])
    assert image.is_exposed_at(amap(corner)) and not image.is_exposed_at(amap(edge))
    assert AffineImage(ball, amap).is_exposed_at([0.0, 0.5])
    both = IntersectionDomain([square, EuclideanBall([0.0, 0.0], 1.25)])
    assert not both.is_exposed_at(edge)
    junction = np.array([1.0, 0.75])  # on the edge and on the arc
    assert np.allclose(both.support_normals(junction), [[1.0, 0.0], [0.8, 0.6]])
    assert both.is_exposed_at(junction)
    with pytest.raises(GeometryError):
        both.is_exposed_at([0.0, 0.0])


def test_supporting_functional_rejects_interior_point(square):
    with pytest.raises(GeometryError):
        supporting_functional(square, [0.0, 0.0])


def test_supporting_functional_below_one_on_samples(square, ball, rng):
    for domain, a in ((square, [1.0, 0.0]), (ball, [0.0, 1.0])):
        h = supporting_functional(domain, a)
        pts = domain.interior_samples(500, rng)
        assert max(h(p) for p in pts) < 1.0 + 1e-9


def test_active_face_edge_and_corner(square):
    assert square.active_face([1.0, 0.0]) == {0}
    assert square.active_face([1.0, 1.0]) == {0, 2}


def test_active_face_tolerance(square):
    assert square.active_face([0.999999999, 0.0]) == {0}


def test_active_face_rejects_interior(square):
    # one off-boundary test and one message for every polytope query
    for query in (square.active_face, square.support_normals, square.is_exposed_at,
                  lambda a: supporting_functional(square, a)):
        for a in ([0.5, 0.0], [1.5, 0.0]):
            with pytest.raises(GeometryError, match="^point is not on the domain boundary$"):
                query(a)


# --- affine images ------------------------------------------------------------

def test_identity_image_answers_bit_identical(square):
    image = AffineImage(square, AffineMap.identity(2))
    for p in ([0.0, 0.0], [0.3, -0.7], [2.0, 0.0]):
        assert image.contains(p) == square.contains(p)
    hit = image.ray_boundary([0.0, 0.0], [0.5, 0.0])
    ref = square.ray_boundary([0.0, 0.0], [0.5, 0.0])
    assert hit.t == ref.t
    assert np.array_equal(hit.point, ref.point)


def test_scaled_ball_margin(ball):
    doubled = AffineImage(ball, AffineMap(2.0 * np.eye(2), np.zeros(2)))
    assert doubled.contains([1.5, 0.0]) == pytest.approx(0.5, abs=1e-12)


def test_rotated_square_ray(square):
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = AffineMap([[c, -s], [s, c]], [0.0, 0.0])
    image = AffineImage(square, rot)
    hit = image.ray_boundary([0.0, 0.0], rot([0.5, 0.0]))
    assert hit.point == pytest.approx(rot([1.0, 0.0]), abs=1e-12)


def test_singular_map_rejected():
    with pytest.raises(DomainSpecError):
        AffineMap([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])


# --- projective embedding ------------------------------------------------------

def test_to_projective_finite(square):
    hit = square.ray_boundary([0.0, 0.0], [0.5, 0.0])
    assert to_projective(hit) == pytest.approx(np.array([1.0, 0.0, 1.0]) / math.sqrt(2))


def test_to_projective_at_infinity(half_plane):
    hit = half_plane.ray_boundary([0.0, 1.0], [1.0, 1.0])
    assert to_projective(hit) == pytest.approx([1.0, 0.0, 0.0])


def test_to_projective_origin():
    from funkgeo import Hit
    assert to_projective(Hit.finite(np.zeros(2), 1.0)) == pytest.approx([0.0, 0.0, 1.0])


# --- polytope construction and validation --------------------------------------

def test_box_vertices_and_witness():
    box = HPolytope.box([-1.0, -2.0], [3.0, 4.0])
    assert box.contains([1.0, 1.0]) == pytest.approx(2.0)
    assert box.vertices.shape == (4, 2)
    assert box.is_bounded()


def test_vertex_consistency_rejected():
    with pytest.raises(DomainSpecError):
        HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                  [1.0, 1.0, 1.0, 1.0],
                  vertices=[[2.0, 0.0]])  # violates the first constraint


def test_witness_must_be_interior():
    with pytest.raises(DomainSpecError):
        HPolytope([[1.0, 0.0]], [1.0], witness=[2.0, 0.0])


def test_unbounded_polytope_detected(half_plane):
    assert not half_plane.is_bounded()


def test_polygon_from_vertices_round_trip():
    verts = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    diamond = HPolytope.from_polygon_vertices(verts)
    assert diamond.contains([0.0, 0.0]) > 0.0
    assert abs(diamond.contains([1.0, 0.0])) < 1e-12
    assert diamond.contains([0.8, 0.8]) < 0.0


def test_intersection_needs_witness_when_bases_fall_outside(square):
    far = HPolytope.box([0.8, -1.0], [3.0, 1.0])
    # mean of base points is interior here, so this succeeds
    both = IntersectionDomain([square, far])
    assert both.contains([0.9, 0.0]) > 0.0


# --- equivariance property -----------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(-1.2, 1.2), beta=st.floats(-1.2, 1.2),
       gamma=st.floats(0.2, 2.0))
def test_ray_cast_affine_equivariance(alpha, beta, gamma):
    square = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
    amap = AffineMap([[gamma, alpha / 2.0], [0.0, 1.0]], [alpha, beta])
    image = AffineImage(square, amap)
    x = np.array([0.2, -0.3])
    y = np.array([-0.4, 0.5])
    hit = square.ray_boundary(x, y)
    hit_img = image.ray_boundary(amap(x), amap(y))
    assert hit_img.point == pytest.approx(amap(hit.point), abs=1e-8)
    assert hit_img.t == pytest.approx(hit.t, abs=1e-8)
