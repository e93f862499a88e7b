import math
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

from funkgeo import (
    AffineImage,
    AffineMap,
    EuclideanBall,
    GeometryError,
    HPolytope,
    IntersectionDomain,
    LinearForm,
    foot_certificate,
    funk,
    funk_batch,
    is_perpendicular,
    nearest_on_convex,
    nearest_on_segment,
)
from funkgeo import _linprog
from funkgeo._linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    chebyshev_center,
    feasible_point,
    recession_cone_is_trivial,
    solve_lp,
)
from funkgeo.convex_core import as_point
from funkgeo.projection import forward_ball_reaches
from funkgeo.suites import random_polygon

LOG2 = math.log(2.0)


# --- the little simplex -----------------------------------------------------

def test_lp_square_objective():
    # maximize x + y over the unit square
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.ones(4)
    status, x, value = solve_lp(np.array([1.0, 1.0]), A, b)
    assert status == OPTIMAL
    assert value == pytest.approx(2.0, abs=1e-9)


def test_lp_infeasible_and_unbounded():
    A = np.array([[1.0], [-1.0]])
    assert solve_lp(np.array([1.0]), A, np.array([1.0, -2.0]))[0] == INFEASIBLE
    assert solve_lp(np.array([1.0]), np.array([[-1.0]]), np.array([0.0]))[0] \
        == UNBOUNDED


def test_chebyshev_center_square():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert chebyshev_center(A, np.ones(4)) == pytest.approx([0.0, 0.0], abs=1e-9)


def test_recession_cone_probe():
    box = np.vstack([np.eye(2), -np.eye(2)])
    assert recession_cone_is_trivial(box)
    assert not recession_cone_is_trivial(np.array([[0.0, -1.0]]))


def test_feasibility_matches_scipy(rng):
    for _ in range(60):
        m, n = int(rng.integers(3, 12)), int(rng.integers(2, 5))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        ours = feasible_point(A, b)
        ref = linprog(np.zeros(n), A_ub=A, b_ub=b, bounds=[(None, None)] * n,
                      method="highs")
        assert (ours is not None) == ref.success
        if ours is not None:
            assert np.max(A @ ours - b) <= 1e-8


def _pivot_by_rows(T, basis, row, col):
    # The row-by-row elimination the rank-1 update replaces.
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _small_lps(rng):
    for _ in range(60):  # random, with duplicate rows and zero right-hand sides
        m, n = rng.integers(3, 12), rng.integers(1, 5)
        A = rng.integers(-3, 4, (m, n)).astype(float)
        A[rng.integers(m)] = A[0]
        b = rng.integers(-2, 4, m).astype(float)
        yield rng.integers(-2, 3, n).astype(float), A, b
    for _ in range(60):
        m, n = rng.integers(2, 15), rng.integers(1, 6)
        yield rng.standard_normal(n), rng.standard_normal((m, n)), rng.uniform(-1.0, 2.0, m)
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    fan = np.array([[math.cos(a), math.sin(a)] for a in np.linspace(0.0, 1.0, 6)])
    yield np.array([1.0, 1.0]), np.vstack([square, square, [[1.0, 1.0]]]), np.r_[np.ones(8), 2.0]
    yield np.array([1.0, 0.0]), np.vstack([fan, -fan]), np.r_[np.zeros(6), np.ones(6)]
    yield np.array([0.0, 1.0]), np.vstack([square, [[1.0, 0.0]]]), np.r_[np.ones(4), -2.0]


def _hex(result):
    status, x, value = result
    return status, None if x is None else [float.hex(v) for v in x], float.hex(value)


def test_rank_one_pivot_matches_the_row_loop_bit_for_bit(monkeypatch, rng):
    rank_one = _linprog._pivot
    # Tableaux with signed zeros and zeros in the pivot column keep their bits.
    for _ in range(50):
        T = rng.integers(-2, 3, (6, 9)) * rng.choice([1.0, 0.5, -0.0], (6, 9))
        row, col = rng.integers(6), rng.integers(8)
        T[row, col] = rng.choice([1.5, -2.0])
        T_fast, T_slow = T.copy(), T.copy()
        basis_fast, basis_slow = np.zeros(6, dtype=int), np.zeros(6, dtype=int)
        rank_one(T_fast, basis_fast, row, col)
        _pivot_by_rows(T_slow, basis_slow, row, col)
        assert T_fast.tobytes() == T_slow.tobytes()
        assert np.array_equal(basis_fast, basis_slow)
    lps = list(_small_lps(rng))
    fast = [_hex(solve_lp(c, A, b)) for c, A, b in lps]
    monkeypatch.setattr(_linprog, "_pivot", _pivot_by_rows)
    slow = [_hex(solve_lp(c, A, b)) for c, A, b in lps]
    assert fast == slow
    assert {status for status, _, _ in fast} == {OPTIMAL, INFEASIBLE, UNBOUNDED}


# --- nearest point on a segment ------------------------------------------------

def test_foot_on_containing_segment_is_the_point(square):
    foot = nearest_on_segment(square, [0.2, 0.0], ([0.0, 0.0], [0.5, 0.0]))
    assert foot.distance == pytest.approx(0.0, abs=1e-9)
    assert foot.point == pytest.approx([0.2, 0.0], abs=1e-6)


def test_ball_symmetric_segment_foot(ball):
    foot = nearest_on_segment(ball, [0.0, 0.0], ([0.5, -0.5], [0.5, 0.5]))
    assert foot.point == pytest.approx([0.5, 0.0], abs=1e-8)
    assert foot.distance == pytest.approx(LOG2, abs=1e-10)


def test_square_flat_plateau_returns_midpoint(square):
    # the whole target segment is at distance log 2; the midpoint is returned
    foot = nearest_on_segment(square, [0.0, 0.0], ([0.5, -0.25], [0.5, 0.25]))
    assert foot.point == pytest.approx([0.5, 0.0], abs=1e-6)
    assert foot.distance == pytest.approx(LOG2, abs=1e-12)


def test_segment_foot_is_the_one_grid_minimiser(ball):
    # Optimal against a dense grid of F along the segment to golden section's
    # precision, and every grid point near its distance, or near the grid
    # minimum, lies next to it.
    x = np.array([-0.2, 0.1])
    p, q = np.array([0.1, -0.6]), np.array([0.4, 0.5])
    foot = nearest_on_segment(ball, x, (p, q))
    grid = np.linspace(0.0, 1.0, 2001)
    values = funk_batch(ball, np.tile(x, (grid.size, 1)), p + grid[:, None] * (q - p))
    low = values.min()
    assert foot.distance - low <= 1e-11 * (1.0 + low)
    near = grid[values <= max(foot.distance, low) + 1e-9]
    assert np.max(np.abs(near - foot.param)) <= grid[1]


def test_segment_endpoints_must_be_interior(square):
    with pytest.raises(GeometryError):
        nearest_on_segment(square, [0.0, 0.0], ([0.5, 0.0], [2.0, 0.0]))


SQUARE = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
POLYGON = random_polygon(np.random.default_rng(5))
CORNERS, MIDDLE = POLYGON.vertices, POLYGON.vertices.mean(axis=0)
FEET = {  # (domain, x, segment, (float.hex of Foot.param, of Foot.distance))
    "square": (SQUARE, [0.1, 0.2], ([0.6, -0.7], [-0.4, 0.8]),
               ("0x1.1da46102b20fep-1", "0x1.baeb2e6489cf6p-5")),
    "ball": (EuclideanBall([0.25, -0.5], 1.25), [0.1, 0.2], ([0.9, -0.9], [-0.6, 0.3]),
             ("0x1.3e7d068c58760p-1", "0x1.e52e58a40c05dp-3")),
    "random_polygon": (POLYGON, MIDDLE + 0.5 * (CORNERS[1] - MIDDLE),
                       (MIDDLE + 0.6 * (CORNERS[0] - MIDDLE), MIDDLE + 0.7 * (CORNERS[3] - MIDDLE)),
                       ("0x1.2ed0076a98104p-2", "0x1.0eb29064c561bp-2")),
    "affine_image": (AffineImage(SQUARE, AffineMap([[2.0, 0.5], [0.0, 1.0]], [0.25, -0.5])),
                     [0.1, -0.3], ([1.5, 0.2], [-1.2, -1.1]),
                     ("0x1.dc586c63d39fap-2", "0x1.7611c98a52814p-4")),
    "intersection": (IntersectionDomain([SQUARE, EuclideanBall([0.3, 0.0], 1.1)],
                                        witness=[0.0, 0.0]),
                     [0.1, 0.2], ([0.7, -0.5], [-0.5, -0.6]),
                     ("0x1.608d52bfe35b8p-3", "0x1.d22d9e334a1c6p-1")),
}


@pytest.mark.parametrize("kind", FEET)
def test_segment_feet_keep_their_bits(kind):
    # Pinned before the search stopped validating each point it evaluates.
    domain, x, seg, pinned = FEET[kind]
    foot = nearest_on_segment(domain, x, seg)
    assert (float.hex(foot.param), float.hex(foot.distance)) == pinned


@pytest.mark.parametrize("kind", FEET)
def test_segment_search_validates_each_input_once(monkeypatch, kind):
    # The search evaluates only the unchecked kernel: no public funk call, and
    # one validation per input point.
    domain, x, seg, (_, distance) = FEET[kind]
    funk_calls, validated = [], []
    for name, module in list(sys.modules.items()):
        if not name.startswith("funkgeo"):
            continue
        if getattr(module, "funk", None) is funk:
            monkeypatch.setattr(module, "funk",
                                lambda *args: funk_calls.append(args) or funk(*args))
        if getattr(module, "as_point", None) is as_point:
            monkeypatch.setattr(module, "as_point", lambda p, dim=None, name="point":
                                validated.append(name) or as_point(p, dim, name))
    foot = nearest_on_segment(domain, x, seg)
    assert funk_calls == [] and validated == ["x", "segment start", "segment end"]
    assert float.hex(foot.distance) == distance


# --- nearest point on a convex subset --------------------------------------------

def test_singleton_target(square):
    z = np.array([0.5, 0.2])
    point_set = HPolytope(np.vstack([np.eye(2), -np.eye(2)]),
                          np.concatenate([z, -z]))
    foot = nearest_on_convex(square, np.zeros(2), point_set)
    assert foot.point == pytest.approx(z, abs=1e-8)
    assert foot.distance == pytest.approx(funk(square, np.zeros(2), z), abs=1e-9)


def test_halfspace_target_distance_log2(square):
    a_set = HPolytope([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [-0.5, 0.9, 0.9, 0.9])
    foot = nearest_on_convex(square, np.zeros(2), a_set)
    assert foot.point[0] == pytest.approx(0.5, abs=1e-8)
    assert foot.distance == pytest.approx(LOG2, abs=1e-9)
    assert foot.certificate is not None
    # the certificate hyperplane passes through the foot and separates
    assert abs(foot.certificate(foot.point)) <= 1e-8
    assert foot.certificate(np.zeros(2)) < 0.0


def test_point_already_in_target(square):
    a_set = HPolytope.box([-0.2, -0.2], [0.2, 0.2])
    foot = nearest_on_convex(square, np.zeros(2), a_set)
    assert foot.distance == 0.0
    assert foot.point == pytest.approx([0.0, 0.0])


def test_convex_target_agrees_with_segment_search(square):
    # a thin box degenerates to (almost) a segment
    a_set = HPolytope.box([0.5, -0.25], [0.5 + 1e-9, 0.25])
    foot_lp = nearest_on_convex(square, np.zeros(2), a_set)
    foot_gs = nearest_on_segment(square, np.zeros(2),
                                 ([0.5, -0.25], [0.5, 0.25]))
    assert foot_lp.distance == pytest.approx(foot_gs.distance, abs=1e-8)


def test_target_outside_domain_rejected(square):
    with pytest.raises(GeometryError):
        nearest_on_convex(square, np.zeros(2), HPolytope.box([0.5, 0.5], [3.0, 3.0]))
    with pytest.raises(GeometryError, match="empty"):
        nearest_on_convex(square, np.zeros(2), HPolytope([[1.0, 0.0], [-1.0, 0.0]], [0.2, -0.5]))


def test_target_of_another_dimension_rejected(square):
    with pytest.raises(GeometryError, match="target set has dimension 3, expected 2"):
        nearest_on_convex(square, np.zeros(2), HPolytope.box([-0.5] * 3, [0.5] * 3))


def test_target_leaving_the_domain_slightly_rejected(square):
    # No vertex data: containment is decided exactly, per domain row.
    a_set = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [1.0001, -0.5, 0.1, 0.1])
    with pytest.raises(GeometryError, match="not contained"):
        nearest_on_convex(square, np.zeros(2), a_set)


def _scipy_radius(domain, x, a_set):
    """The smallest forward radius reaching A, by HiGHS on the same LP."""
    n = domain.dim
    Ax = domain.A @ x
    A_ub = np.vstack([np.hstack([domain.A, (Ax - domain.b)[:, None]]),
                      np.hstack([a_set.A, np.zeros((len(a_set.b), 1))])])
    res = linprog(np.append(np.zeros(n), 1.0), A_ub=A_ub,
                  b_ub=np.concatenate([Ax, a_set.b]),
                  bounds=[(None, None)] * n + [(0.0, 1.0)], method="highs")
    assert res.status == 0
    return -math.log1p(-res.x[-1])


def test_radius_matches_highs(square, rng):
    targets = 0
    while targets < 40:
        if targets % 2:
            lo = rng.uniform(-0.6, 0.2, 2)
            a_set = HPolytope.box(lo, np.minimum(lo + rng.uniform(0.15, 0.5, 2), 0.85))
        else:
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 5))
            a_set = HPolytope.from_polygon_vertices(
                rng.uniform(-0.4, 0.4, 2)
                + rng.uniform(0.15, 0.35) * np.column_stack([np.cos(angles), np.sin(angles)]))
        x = rng.uniform(-0.9, 0.9, 2)
        if a_set.contains(x) >= -0.05:
            continue
        targets += 1
        foot = nearest_on_convex(square, x, a_set)
        assert foot.distance == pytest.approx(_scipy_radius(square, x, a_set), abs=1e-12)


def test_reachability_monotone_in_radius(square):
    a_set = HPolytope.box([0.4, -0.3], [0.8, 0.3])
    flags = [forward_ball_reaches(square, np.zeros(2), rho, a_set) is not None
             for rho in np.linspace(0.05, 2.0, 25)]
    assert flags == sorted(flags)


# --- optimality certificates -------------------------------------------------------

def test_nearest_output_certifies(square):
    a_set = HPolytope.box([0.3, 0.1], [0.7, 0.5])
    foot = nearest_on_convex(square, np.array([-0.2, -0.4]), a_set)
    assert foot_certificate(square, np.array([-0.2, -0.4]), foot.point, a_set)


def test_non_nearest_point_fails_certificate(square):
    a_set = HPolytope.box([0.3, 0.1], [0.7, 0.5])
    x = np.array([-0.2, -0.4])
    foot = nearest_on_convex(square, x, a_set)
    worse = np.array([0.7, 0.5])
    assert funk(square, x, worse) > foot.distance + 1e-3
    assert not foot_certificate(square, x, worse, a_set)


def test_certificate_at_a_vertex_hit(square):
    # The ray from the origin to the foot (0.5, 0.5) leaves at the corner
    # (1, 1).  Only the second active edge separates the origin from A.
    a_set = HPolytope.box([0.3, 0.5], [0.5, 0.9])
    x, y = np.zeros(2), np.array([0.5, 0.5])
    assert foot_certificate(square, x, y, a_set)
    assert not foot_certificate(square, x, np.array([0.5, 0.9]), a_set)
    # the same picture under a stretch: every active edge is tried there too
    amap = AffineMap(np.diag([2.0, 1.0]), [0.0, 0.0])
    assert foot_certificate(AffineImage(square, amap), x, amap(y),
                            HPolytope.box([0.6, 0.5], [1.0, 0.9]))


def test_certificate_combines_active_normals(square, ball):
    # The foot (0.5, 0.5) is seen through the corner (1, 1); neither edge
    # alone separates the origin from A, their sum x1 + x2 does.
    a_set = HPolytope([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, 0.8, 0.8])
    foot = nearest_on_convex(square, np.zeros(2), a_set)
    assert foot.point == pytest.approx([0.5, 0.5], abs=1e-12)
    assert foot.distance == pytest.approx(LOG2, abs=1e-12)
    assert foot.certificate is not None
    assert foot_certificate(square, np.zeros(2), [0.5, 0.5], a_set)
    with pytest.raises(GeometryError, match="polytopal"):
        foot_certificate(square, np.zeros(2), [0.5, 0.0], ball)


def test_zero_distance_certifies_vacuously(half_plane):
    a_set = HPolytope([[0.0, -1.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]],
                      [-0.5, 3.0, 3.0, 0.0])  # {0 <= x1 <= 3, 0.5 <= x2 <= 3}
    # moving parallel to the boundary costs nothing
    assert foot_certificate(half_plane, [-1.0, 1.0], [0.0, 1.0], a_set)


# --- perpendicularity -----------------------------------------------------------------

def test_perpendicular_tangent_plane(ball):
    plane = LinearForm([0.0, 1.0], 0.0)
    assert is_perpendicular(ball, [0.0, 0.0], [0.0, 1.0], plane)


def test_tilted_plane_not_perpendicular(ball):
    plane = LinearForm([-0.1, 1.0], 0.0)
    assert not is_perpendicular(ball, [0.0, 0.0], [0.0, 1.0], plane)


def test_perpendicular_square_edge(square):
    plane = LinearForm([1.0, 0.0], 0.0)  # {x1 = 0} through the origin
    assert is_perpendicular(square, [0.0, 0.0], [1.0, 0.0], plane)
    # at a corner, each active edge supports a hyperplane
    for coeffs in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, -2.0]):
        assert is_perpendicular(square, [0.0, 0.0], [1.0, 1.0], LinearForm(coeffs, 0.0))
    # ... and so does every combination of them, but nothing outside their cone
    assert not is_perpendicular(square, [0.0, 0.0], [1.0, 1.0], LinearForm([1.0, -0.1], 0.0))
    # where an arc meets an edge, the tangent and the edge both do
    both = IntersectionDomain([square, EuclideanBall([0.0, 0.0], 1.25)])
    for coeffs in ([1.0, 0.0], [0.8, 0.6]):
        assert is_perpendicular(both, [0.0, 0.0], [1.0, 0.75], LinearForm(coeffs, 0.0))


def test_plane_must_contain_ray_base(ball):
    with pytest.raises(GeometryError):
        is_perpendicular(ball, [0.3, 0.0], [0.0, 1.0], LinearForm([0.0, 1.0], 1.0))


def test_perpendicular_ray_projects_to_base(ball):
    # every point of the perpendicular ray has its foot at the ray base
    seg = (np.array([-0.9, 0.0]), np.array([0.9, 0.0]))
    for t in np.linspace(0.05, 0.9, 20):
        foot = nearest_on_segment(ball, [0.0, float(t)], seg)
        assert np.linalg.norm(foot.point) <= 1e-6
