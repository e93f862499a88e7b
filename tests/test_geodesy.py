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


# One ball triple of each seed configuration that a ratio gate of 1e-7 called
# aligned (seeds 1-3 at default counts, then 21, 89, 115, 127 and 195 at the
# benchmark's 1/16 counts).  Three points of a circle are never aligned.
BALL_TRIPLES_NEAR_THE_OLD_GATE = [
    (("-0x1.8d8b3e2675b90p-2", "-0x1.38d55edc69bc0p-6"),
     ("0x1.9127e793e4648p-2", "-0x1.48dd70d2ce900p-5"),
     ("0x1.ffbf754e12976p-1", "-0x1.7faff9d58c9c0p-6")),
    (("-0x1.aee2e043e40c8p-2", "-0x1.06e23403b2778p-2"),
     ("0x1.7599d0508f1a0p-2", "-0x1.8782ad3af9680p-4"),
     ("0x1.fed15bedfd25ep-1", "0x1.fc450ca797980p-7")),
    (("0x1.f140bd158e60ap-1", "-0x1.cdf7f8e327e40p-6"),
     ("0x1.14a398090a5e0p-3", "0x1.a89b2ddce7d3cp-2"),
     ("-0x1.273fb46c2dea6p-1", "0x1.a11b8036307c0p-1")),
    (("-0x1.3a2ca2ba9ae8ep-1", "-0x1.929cb66779314p-2"),
     ("-0x1.44f96cff0b1bcp-2", "0x1.740eea568f2a0p-4"),
     ("0x1.04f89c54bd8c4p-2", "0x1.eddd876ef6e6cp-1")),
    (("0x1.64f607f438b10p-4", "0x1.b782111705748p-1"),
     ("-0x1.43a7d57115418p-3", "0x1.37f9bc651a858p-1"),
     ("-0x1.ee3e675dbb33cp-1", "0x1.0b4ea01915118p-2")),
    (("-0x1.61f94ec36f63ep-1", "0x1.2bfe8f98640f2p-1"),
     ("-0x1.0a8318d99b63ap-1", "-0x1.bd5ccbfae8018p-3"),
     ("-0x1.41cd9832dbef4p-2", "-0x1.e6071bcdc6b50p-1")),
    (("0x1.bc3d17f8c8848p-3", "0x1.8e36271f9503cp-2"),
     ("-0x1.f86adcc0734ecp-2", "-0x1.97725f9e51f40p-4"),
     ("-0x1.e2a41414d3152p-1", "-0x1.558b86992c44cp-2")),
    (("0x1.0ab6e30b6681cp-1", "0x1.9693a56c29800p-1"),
     ("0x1.8a8aa22cadd94p-2", "-0x1.ab14a9f36587cp-2"),
     ("0x1.63565788147d8p-2", "-0x1.e02a9176aaf26p-1")),
]


@pytest.mark.parametrize("triple", BALL_TRIPLES_NEAR_THE_OLD_GATE,
                         ids=["default-1", "default-2", "default-3", "sixteenth-21",
                              "sixteenth-89", "sixteenth-115", "sixteenth-127",
                              "sixteenth-195"])
def test_ball_triples_with_close_hits_are_not_aligned(ball, triple):
    x, y, z = ([float.fromhex(c) for c in p] for p in triple)
    rep = triangle_report(ball, x, y, z)
    assert rep.defect > 0.0
    assert not rep.aligned


def test_three_points_of_a_line_are_aligned():
    segment = HPolytope.box([-1.0], [1.0])
    rep = triangle_report(segment, [-0.5], [0.4], [0.1])
    assert rep.aligned


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


def test_cone_member_rejects_negative_face_indices():
    # Row -2 of this pair is row 0: a negative index must not wrap around to it.
    pair = HPolytope([[0.0, -1.0], [-1.0, 0.0]], [0.0, 1.0], witness=[0.0, 1.0])
    for face in ({-2}, {-1, 0}, {2}):
        with pytest.raises(GeometryError) as err:
            cone_member(pair, FaceCone(base=[0.0, 1.0], face=face), [1.0, 0.0])
        assert str(err.value) == "face constraint index out of range"


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
