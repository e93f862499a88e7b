import numpy as np
import pytest

from funkgeo import (
    AffineImage,
    AffineMap,
    EuclideanBall,
    FaceCone,
    GeometryError,
    HPolytope,
    IntersectionDomain,
    cone_member,
    funk,
    polyline_face_witness,
    triangle_report,
    unique_geodesic_pair,
    verify_geodesic,
    verify_hilbert_geodesic,
)


# --- triangle reports ---------------------------------------------------------

def test_collinear_triple_reaches_equality(square):
    rep = triangle_report(square, [-0.5, 0.0], [0.0, 0.0], [0.5, 0.0])
    assert abs(rep.defect) <= 1e-12
    assert rep.aligned
    # all three rays exit at the same boundary point
    assert rep.hits[0] == pytest.approx(rep.hits[1], abs=1e-12)
    assert rep.hits[0] == pytest.approx(rep.hits[2], abs=1e-12)


def test_square_same_edge_triple():
    square = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
    x, y, z = [-0.5, 0.5], [0.0, 0.6], [0.5, 0.5]
    # every forward hit lands on the edge x1 = 1
    for p, q in ((x, y), (y, z), (x, z)):
        hit = square.ray_boundary(p, q)
        assert hit.point[0] == pytest.approx(1.0, abs=1e-12)
    rep = triangle_report(square, x, y, z)
    assert rep.defect <= 1e-9
    assert rep.aligned


def test_ball_generic_triple_is_strict(ball):
    rep = triangle_report(ball, [-0.4, 0.1], [0.0, 0.5], [0.4, -0.2])
    assert rep.defect > 1e-3
    assert not rep.aligned


def test_triangle_report_rejects_coincident_points(square):
    with pytest.raises(GeometryError):
        triangle_report(square, [0.1, 0.1], [0.1, 0.1], [0.5, 0.0])


# --- face cones -----------------------------------------------------------------

def test_cone_member_right_edge(square):
    edge = square.active_face([1.0, 0.0])
    cone = FaceCone(base=np.zeros(2), face=edge)
    assert cone_member(square, cone, [1.0, 0.0])
    assert cone_member(square, cone, [1.0, 0.5])
    assert not cone_member(square, cone, [-1.0, 0.0])
    assert cone_member(square, cone, [0.0, 0.0])  # zero vector by definition


def test_cone_member_at_infinity(half_plane):
    # face of the boundary line x2 = 0; horizontal rays never exit but
    # their direction is a recession direction of that face
    cone = FaceCone(base=[0.0, 1.0], face={0})
    assert cone_member(half_plane, cone, [1.0, 0.0])
    assert not cone_member(half_plane, cone, [0.0, 1.0])


def test_cone_member_validates_face(square):
    with pytest.raises(GeometryError):
        cone_member(square, FaceCone(base=np.zeros(2), face={17}), [1.0, 0.0])
    with pytest.raises(GeometryError):
        FaceCone(base=np.zeros(2), face=set())


# --- polyline geodesics -----------------------------------------------------------

def test_subdivided_segment_is_geodesic(square, ball):
    for domain in (square, ball):
        pts = [[-0.5, 0.0], [-0.2, 0.0], [0.1, 0.0], [0.5, 0.0]]
        ok, defect = verify_geodesic(domain, pts)
        assert ok
        assert defect <= 1e-12


def test_square_bent_polyline_is_geodesic(square):
    ok, defect = verify_geodesic(square, [[-0.5, 0.5], [0.0, 0.6], [0.5, 0.5]])
    assert ok
    assert defect <= 1e-12


def test_ball_bent_polyline_is_not_geodesic(ball):
    ok, defect = verify_geodesic(ball, [[-0.5, 0.0], [0.0, 0.3], [0.5, 0.0]])
    assert not ok
    assert defect > 1e-3


def test_geodesic_polyline_has_face_witness(square):
    pts = [[-0.5, 0.5], [0.0, 0.6], [0.5, 0.5]]
    witness = polyline_face_witness(square, pts)
    assert witness == square.active_face([1.0, 0.0])
    for i in range(len(pts) - 1):
        cone = FaceCone(base=pts[i], face=witness)
        assert cone_member(square, cone, np.subtract(pts[i + 1], pts[i]))


def test_hilbert_geodesic_needs_both_face_alignments(square):
    # forward hits share the right edge, backward hits share the left edge
    pts = [[-0.5, 0.5], [0.0, 0.6], [0.5, 0.5]]
    ok, defect = verify_hilbert_geodesic(square, pts)
    assert ok and defect <= 1e-12
    assert polyline_face_witness(square, pts)
    assert polyline_face_witness(square, pts, reverse=True)

    # forward hits share a face but backward hits split between two faces
    pts2 = [[-0.5, 0.9], [0.0, 0.5], [0.5, 0.45]]
    ok_funk, _ = verify_geodesic(square, pts2)
    ok_hil, defect_hil = verify_hilbert_geodesic(square, pts2)
    assert ok_funk
    assert not ok_hil and defect_hil > 1e-6
    assert polyline_face_witness(square, pts2)
    assert not polyline_face_witness(square, pts2, reverse=True)


def test_verify_geodesic_validates_input(square):
    with pytest.raises(GeometryError):
        verify_geodesic(square, [[0.0, 0.0]])


# --- unique geodesy -----------------------------------------------------------------

def test_ball_pairs_always_unique(ball, rng):
    for _ in range(30):
        x = rng.uniform(-0.6, 0.6, 2)
        z = rng.uniform(-0.6, 0.6, 2)
        if np.linalg.norm(z - x) < 1e-3:
            continue
        assert unique_geodesic_pair(ball, x, z)


def test_square_edge_hit_not_unique(square):
    assert not unique_geodesic_pair(square, [0.0, 0.0], [0.5, 0.1])


def test_square_corner_hit_unique(square):
    assert unique_geodesic_pair(square, [0.0, 0.0], [0.5, 0.5])


def test_unique_geodesy_undefined_at_infinity(half_plane):
    with pytest.raises(GeometryError):
        unique_geodesic_pair(half_plane, [0.0, 1.0], [1.0, 1.0])


def test_unique_geodesy_through_wrappers(square):
    ball_part = EuclideanBall([0.0, 0.0], 1.2)
    inter = IntersectionDomain([square, ball_part], witness=[0.0, 0.0])
    # the ray from the origin to (0.5, 0.1) leaves through the flat square edge
    assert not unique_geodesic_pair(inter, [0.0, 0.0], [0.5, 0.1])
    # a diagonal ray leaves through the arc clipping the corner: exposed point
    assert unique_geodesic_pair(inter, [0.0, 0.0], [0.5, 0.5])
    # an ellipse (affine image of a ball) is strictly convex like the disk
    ellipse = AffineImage(EuclideanBall([0.0, 0.0], 1.0),
                          AffineMap(np.diag([0.5, 2.0]), [0.0, 0.0]))
    inter = IntersectionDomain([square, ellipse], witness=[0.0, 0.0])
    assert unique_geodesic_pair(inter, [0.0, 0.0], [0.2, 0.0])
    assert unique_geodesic_pair(ellipse, [0.0, 0.0], [0.2, 0.1])


def test_forward_ball_not_geodesically_convex_in_square(square):
    from funkgeo import forward_ball, funk

    x, y, z = np.array([-0.5, 0.45]), np.array([0.0, 0.5]), np.array([0.5, 0.45])
    anchor = np.array([0.0, -0.5])
    assert verify_geodesic(square, [x, y, z])[0]
    rho = 1.05  # between F(anchor, x) = F(anchor, z) and F(anchor, y)
    assert funk(square, anchor, x) < rho < funk(square, anchor, y)
    ball_ = forward_ball(square, anchor, rho)
    assert ball_.realized.contains(x) > 0.0
    assert ball_.realized.contains(z) > 0.0
    assert ball_.realized.contains(y) < 0.0


def test_defect_always_nonnegative(square, ball, rng):
    for domain in (square, ball):
        for _ in range(100):
            pts = rng.uniform(-0.6, 0.6, (3, 2))
            if min(np.linalg.norm(pts[1] - pts[0]),
                   np.linalg.norm(pts[2] - pts[1]),
                   np.linalg.norm(pts[2] - pts[0])) < 1e-3:
                continue
            rep = triangle_report(domain, *pts)
            assert rep.defect >= -1e-12
