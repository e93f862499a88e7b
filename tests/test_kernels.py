"""The unchecked per-kind kernels and the single validation in front of them.

Every domain kind has scalar kernels (``_margin``, ``_exit``, ``_line``)
and row kernels (``_margins``, ``_exits``); ``_hit`` builds a boundary
point from ``_exit`` for the callers that need one.  Every ray kernel tests
its origins: it answers nan exactly where ``_margin`` of the origin is <= 0.
The public functions convert their inputs once, leave the ray origins to
the casts and test only the other points by ``_margin``; on a fault they
validate as before, so of two faults the first argument's message is
raised.  These tests pin the agreement of the kernels and of their origin
tests with ``_margin``, the number of casts and interior tests per query,
the error messages of the public functions, double faults included, the
row forms of ``triangle_report`` and of the closed forms against their
single calls, and the samplers built on the row kernels: the random stream
of ``sample_interior`` and the interior rows of ``interior_samples``.
"""

import gc
import math
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funkgeo import (
    AffineImage,
    AffineMap,
    DomainSpecError,
    EuclideanBall,
    FaceCone,
    GeometryError,
    HPolytope,
    IntersectionDomain,
    LinearForm,
    funk,
    funk_batch,
    funk_polytope_closed_form,
    funk_unit_ball_closed_form,
    hilbert,
    max_symmetrized,
    minkowski_max_distance,
    relative_funk,
    reverse_funk,
    supporting_functional,
    tangent_norm,
    triangle_report,
)
from funkgeo import convex_core, metric_engine
from funkgeo.ball_geometry import (
    backward_ball,
    forward_ball,
    sandwich,
    sphere_directions,
    sphere_sample,
)
from funkgeo.convex_core import _row_lengths
from funkgeo.finsler_tangent import finite_difference_check, polytope_support_form
from funkgeo.geodesy import (
    cone_member,
    polyline_face_witness,
    triangle_batch,
    unique_geodesic_pair,
    verify_geodesic,
    verify_hilbert_geodesic,
)
from funkgeo.projection import (
    foot_certificate,
    is_perpendicular,
    nearest_on_convex,
    nearest_on_segment,
)
from funkgeo.suites import _edge_aligned_triples, random_polytope, sample_interior

SQUARE = HPolytope.box([-1.0, -1.0], [1.0, 1.0])
KINDS = {
    "hpolytope": SQUARE,
    "ball": EuclideanBall([0.25, -0.5], 1.25),
    "affine_image": AffineImage(SQUARE, AffineMap([[2.0, 0.5], [0.0, 1.0]], [0.25, -0.5])),
    "intersection": IntersectionDomain([SQUARE, EuclideanBall([0.3, 0.0], 1.1)],
                                       witness=[0.0, 0.0]),
}

coords = st.floats(-2.5, 2.5, allow_nan=False)
points = st.tuples(coords, coords).map(np.array)
angles = st.floats(0.0, 2.0 * math.pi)
polar = st.tuples(angles, st.floats(0.0, 0.995))
# The same ray, but a gap of at most 1e-7 short of the boundary.
polar_near_boundary = st.tuples(angles, st.floats(1e-12, 1e-7).map(lambda gap: ("gap", gap)))


def _interior(domain, angle_and_place):
    """The point a fraction of the way from the base point to the boundary, or
    a ("gap", g) short of it.  Rays that never leave are cut at length 4."""
    angle, place = angle_and_place
    p = domain.base_point()
    u = np.array([math.cos(angle), math.sin(angle)])
    t = min(domain.ray_boundary(p, p + u).t, 4.0)
    if isinstance(place, tuple):
        return p + (t - place[1]) * u
    return p + place * t * u


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300) or a == b


# --- scalar and row kernels agree ---------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(polars=st.lists(st.tuples(polar, polar), min_size=1, max_size=6))
def test_scalar_ray_row_exits_and_batch_agree(kind, polars):
    domain = KINDS[kind]
    pairs = [(_interior(domain, p), _interior(domain, q)) for p, q in polars]
    X = np.array([p for p, _ in pairs])
    Y = np.array([q for _, q in pairs])
    t_rows = domain._exits(X, Y)
    for (p, q), t_row in zip(pairs, t_rows):
        if np.linalg.norm(q - p) > 1e-9:
            assert _close(domain.ray_boundary(p, q).t, t_row)
    # The per-pair loop composed kinds used before they had a row kernel.
    reference = [funk(domain, p, q) for p, q in pairs]
    for got, want in zip(funk_batch(domain, X, Y), reference):
        assert _close(got, want)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(pts=st.lists(points, min_size=1, max_size=8))
def test_row_margins_match_scalar_margins(kind, pts):
    domain = KINDS[kind]
    X = np.array(pts)
    for p, m in zip(X, domain._margins(X)):
        assert domain.contains(p) == pytest.approx(m, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("cols", range(2, 8))
def test_row_lengths_match_numpy_norm_bit_for_bit(cols):
    rng = np.random.default_rng(cols)
    D = rng.standard_normal((2000, cols)) * 10.0 ** rng.integers(-150, 150, (2000, 1))
    D[::7, 0] = 0.0
    assert _row_lengths(D).tobytes() == np.linalg.norm(D, axis=1).tobytes()


def _last_interior_point(domain):
    # The origin-side neighbour of 1 on the x-axis: interior by 1e-16, and
    # from x = -0.5 the direction rounds so that the exit parameter is 1.
    return [-0.5, 0.0], [math.nextafter(1.0, 0.0), 0.0]


# (x, y) with y on the boundary at double precision.  The centre, radius
# and map are dyadic, so these margins are exact in every kernel.
NEAR_BOUNDARY = {
    "hpolytope": [_last_interior_point(SQUARE), ([0.2, 0.1], [1.0, 0.3])],
    "ball": [([0.0, 0.0], [1.5, -0.5]), ([0.1, -0.3], [0.25, 0.75])],
    "affine_image": [([0.25, -0.5], [2.5, 0.0]), ([0.3, 0.1], [0.75, -1.5])],
    "intersection": [_last_interior_point(SQUARE), ([0.2, 0.1], [0.0, -1.0])],
}


@pytest.mark.parametrize("kind", KINDS)
def test_near_boundary_targets_raise_in_both_paths(kind):
    domain = KINDS[kind]
    for x, y in NEAR_BOUNDARY[kind]:
        with pytest.raises(GeometryError) as one:
            funk(domain, x, y)
        with pytest.raises(GeometryError) as row:
            funk_batch(domain, [x], [y])
        assert str(row.value) == str(one.value)


def _answer(call):
    try:
        return call()
    except GeometryError as err:
        return str(err)


@pytest.mark.parametrize("kind", KINDS)
def test_funk_and_funk_batch_agree_at_ray_exit_points(kind):
    # A ray's exit point lies within an ulp of the boundary, so whether it is
    # interior, and whether its exit parameter exceeds 1, turn on the last
    # bit.  The row kernels round as the scalar ones on these domains, so
    # both paths give the same verdict, and the same message.
    domain = KINDS[kind]
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(300):
        x = sample_interior(domain, rng, 1, bound=1.0, min_margin=0.05)[0]
        a = domain.ray_boundary(x, x + rng.standard_normal(2)).point
        one = _answer(lambda: funk(domain, x, a))
        row = _answer(lambda: funk_batch(domain, [x], [a])[0])
        assert isinstance(one, str) == isinstance(row, str)
        if isinstance(one, str):
            assert one == row
        else:
            assert _close(one, row)
        verdicts.add(isinstance(one, str))
    assert verdicts == {True, False}


def test_last_interior_point_is_interior_and_numerically_on_the_boundary():
    x, y = _last_interior_point(SQUARE)
    assert SQUARE.contains(y) > 0.0
    with pytest.raises(GeometryError, match="numerically on the boundary"):
        funk(SQUARE, x, y)


def test_parallel_ray_on_unbounded_polytope_is_zero_in_both_paths(half_plane):
    x, y = np.array([0.0, 1.0]), np.array([2.0, 1.0])
    assert half_plane.ray_boundary(x, y).at_infinity
    assert half_plane._exits(x[None], y[None])[0] == np.inf
    assert funk(half_plane, x, y) == 0.0
    assert funk_batch(half_plane, [x], [y])[0] == 0.0
    image = AffineImage(half_plane, AffineMap([[1.0, 1.0], [0.0, 2.0]], [0.0, 0.0]))
    xi, yi = image.map(x), image.map(y)
    assert funk(image, xi, yi) == 0.0
    assert funk_batch(image, [xi], [yi])[0] == 0.0


# --- validation happens once, at the public function -------------------------------

def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _count_as_point(monkeypatch):
    calls = []
    original = convex_core.as_point

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("funkgeo") and getattr(module, "as_point", None) is original:
            monkeypatch.setattr(module, "as_point", counted)
    return calls


def test_queries_validate_once_and_cast_once_per_exit(monkeypatch):
    x, y, z = [0.1, 0.0], [0.2, 0.3], [-0.3, 0.1]
    ball = KINDS["ball"]
    relative_funk(SQUARE, OUTER, x, y)  # the containment verdict is cached from here on
    SQUARE.base_point(), T_IN.base_point()  # as are the base points
    cone, polyline = FaceCone(base=x, face={0}), [x, y, [0.3, 0.5]]
    calls = {name: _count_calls(monkeypatch, HPolytope, name)
             for name in ("_margin", "_exit", "_line", "_hit", "contains")}
    as_point = _count_as_point(monkeypatch)
    # (query, _exit, _line, _hit, as_point, _margin): distances read exit
    # parameters only, the two exits of one line come from one two-sided cast,
    # each point argument is converted once, and only the points that are no
    # ray origin are tested by _margin (y of funk, also in relative_funk's
    # domain, and z of triangle_report); the casts test the origins.
    for query, exits, lines, hits, checks, margins in (
            (lambda: funk(SQUARE, x, y), 1, 0, 0, 2, 1),
            (lambda: reverse_funk(SQUARE, x, y), 1, 0, 0, 2, 1),
            (lambda: tangent_norm(SQUARE, x, y), 1, 0, 0, 2, 0),
            (lambda: relative_funk(SQUARE, OUTER, x, y), 2, 0, 0, 2, 1),
            (lambda: hilbert(SQUARE, x, y), 0, 1, 0, 2, 0),
            (lambda: max_symmetrized(SQUARE, x, y), 0, 1, 0, 2, 0),
            (lambda: triangle_report(SQUARE, x, y, z), 3, 0, 3, 3, 1)):
        for counted in (*calls.values(), as_point):
            counted.clear()
        query()
        assert (len(calls["_exit"]), len(calls["_line"]), len(calls["_hit"]), len(as_point),
                len(calls["_margin"])) == (exits, lines, hits, checks, margins)
        assert not calls["contains"]

    # The library functions built on the queries validate each point argument
    # once and hand it to the kernels, never back to contains or ray_boundary
    # of the domain.  The counts above one per point come from the homothety
    # centre of a metric ball and from foot_certificate's test of y against
    # the target.  Each support query validates its boundary point once, on
    # every kind, and so does each library function that reads the normals.
    hits = {kind: domain.ray_boundary(domain.base_point(), domain.base_point() + [0.3, 0.4]).point
            for kind, domain in KINDS.items()}
    support_queries = [
        query for kind, domain in KINDS.items() for query in (
            (lambda d=domain, a=hits[kind]: supporting_functional(d, a), 1),
            (lambda d=domain, a=hits[kind]: d.support_normals(a), 1),
            (lambda d=domain, a=hits[kind]: d.is_exposed_at(a), 1))]
    public = {name: [_count_calls(monkeypatch, cls, name)
                     for cls in (HPolytope, EuclideanBall, AffineImage, IntersectionDomain)]
              for name in ("contains", "ray_boundary")}
    for query, checks in (
            *support_queries,
            (lambda: is_perpendicular(SQUARE, x, hits["hpolytope"], LinearForm([1.0, 0.0], -0.1)),
             2),
            (lambda: unique_geodesic_pair(ball, x, y), 2),
            (lambda: unique_geodesic_pair(SQUARE, x, y), 2),
            (lambda: cone_member(SQUARE, cone, [1.0, 0.2]), 2),
            (lambda: polyline_face_witness(SQUARE, polyline), 3),
            (lambda: finite_difference_check(SQUARE, x, [0.0, 0.0], y, 10.0 ** -np.arange(1, 6)),
             3),
            (lambda: nearest_on_segment(ball, x, (y, z)), 3),
            (lambda: nearest_on_segment(SQUARE, x, (y, z)), 3),
            (lambda: nearest_on_convex(SQUARE, [-0.5, -0.2], T_IN), 1),
            (lambda: foot_certificate(SQUARE, [-0.5, -0.2], [0.15, 0.25], T_IN), 3),
            (lambda: forward_ball(SQUARE, x, 0.5), 3),
            (lambda: backward_ball(SQUARE, x, 0.5), 4),
            (lambda: sandwich(SQUARE, x), 1),
            (lambda: polytope_support_form(SQUARE, x, y), 2)):
        for counted in (*public["contains"], *public["ray_boundary"], as_point):
            counted.clear()
        query()
        assert len(as_point) == checks
        assert not any(public["ray_boundary"])
        assert all(domain is T_IN for counted in public["contains"] for domain in counted)


def test_library_casts_test_their_own_ray_origins(monkeypatch):
    # cone_member's base, the chord origins of polyline_face_witness (the last point is
    # no origin) and finite_difference_check's base point and samples p + t x are ray
    # origins, tested by their casts; only the samples p + t y are tested by _margin.
    x, y = [0.1, 0.0], [0.2, 0.3]
    margins = _count_calls(monkeypatch, HPolytope, "_margin")
    for query, count in (
            (lambda: cone_member(SQUARE, FaceCone(base=x, face={0}), [1.0, 0.2]), 0),
            (lambda: polyline_face_witness(SQUARE, [x, y, [0.3, 0.5]]), 0),
            (lambda: polyline_face_witness(SQUARE, [x, y, [0.3, 0.5]], reverse=True), 0),
            (lambda: finite_difference_check(SQUARE, x, [0.0, 0.0], y, 10.0 ** -np.arange(1, 6)),
             5)):
        margins.clear()
        query()
        assert len(margins) == count


# --- a two-sided cast gives the bits of two one-sided ones ------------------------

LINE_DOMAINS = {
    **KINDS,
    # {x1 > -1, x2 > -1}: rays into the positive quadrant never leave
    "unbounded": HPolytope([[-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0], witness=[0.0, 0.0]),
    # {x2 > 0}: a line of constant x2 never leaves on either side
    "half_plane": HPolytope([[0.0, -1.0]], [0.0], witness=[0.0, 1.0]),
    "intersection_with_image": IntersectionDomain(
        [KINDS["affine_image"], EuclideanBall([0.5, -0.25], 1.5)], witness=[0.25, -0.5]),
}
places = st.one_of(polar, polar_near_boundary)


def _from_one_sided_casts(domain, x, y, combine):
    x = metric_engine._check_interior(domain, x, "x")
    y = metric_engine._check_interior(domain, y, "y")
    return combine(metric_engine._funk(domain, x, y), metric_engine._funk(domain, y, x))


def _bits(call):
    answer = _answer(call)
    return answer if isinstance(answer, str) else float.hex(answer)


@pytest.mark.parametrize("kind", LINE_DOMAINS)
@settings(max_examples=80, deadline=None)
@given(place=places, target=st.one_of(places.map(lambda p: ("place", p)),
                                      st.floats(-3.0, 3.0).map(lambda s: ("along_e1", s))))
def test_two_sided_cast_matches_two_one_sided_casts(kind, place, target):
    domain = LINE_DOMAINS[kind]
    x = _interior(domain, place)
    how, what = target
    # Along e1 the line is parallel to the half-plane's edge.
    y = _interior(domain, what) if how == "place" else x + np.array([what, 0.0])
    for public, combine in ((hilbert, lambda a, b: 0.5 * (a + b)), (max_symmetrized, max)):
        assert _bits(lambda: public(domain, x, y)) == \
            _bits(lambda: _from_one_sided_casts(domain, x, y, combine))


def test_line_parallel_to_a_half_plane_edge_escapes_on_both_sides():
    half_plane = LINE_DOMAINS["half_plane"]
    x, y = np.array([0.5, 2.0]), np.array([-1.5, 2.0])
    assert half_plane._line(x, y, y - x) == (math.inf, math.inf)
    assert hilbert(half_plane, x, y) == max_symmetrized(half_plane, x, y) == 0.0
    wedge = LINE_DOMAINS["unbounded"]
    x, y = np.array([0.5, 0.5]), np.array([1.5, 2.0])
    t_fwd, t_back = wedge._line(x, y, y - x)
    assert t_fwd == math.inf and 1.0 < t_back < math.inf


# --- the ray kernels test their origins as _margin does ---------------------------------

def _origin(domain, how):
    """A point by one of three draws: ("place", p) of ``_interior``; ("exit", angle,
    toward) the exit point of a ray from the base point, each coordinate moved one
    ulp toward ``toward`` (0 keeps it); ("point", p) any point, most exterior."""
    if how[0] == "place":
        return _interior(domain, how[1])
    if how[0] == "point":
        return how[1]
    _, angle, toward = how
    base = domain.base_point()
    hit = domain.ray_boundary(base, base + np.array([math.cos(angle), math.sin(angle)]))
    a = base + 4.0 * hit.direction if hit.at_infinity else hit.point
    return np.nextafter(a, a + toward * np.array([1.0, -1.0])) if toward else a


origins = st.one_of(polar_near_boundary.map(lambda p: ("place", p)),
                    st.tuples(st.just("exit"), angles, st.sampled_from([-np.inf, 0.0, np.inf])),
                    points.map(lambda p: ("point", 2.0 * p)))


def _origin_tests_agree_with_margins(domain, x, y):
    d = y - x
    if math.sqrt(d @ d) <= 1e-13:  # the callers cast no ray between coincident points
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, (t_fwd, t_back), hit = domain._exit(x, y, d), domain._line(x, y, d), domain._hit(x, y, d)
    x_out, y_out = domain._margin(x) <= 0.0, domain._margin(y) <= 0.0
    assert (math.isnan(t), math.isnan(t_fwd), math.isnan(hit.t)) == (x_out, x_out, x_out)
    assert math.isnan(t_back) == y_out
    if not x_out:  # the convention changes no exit parameter of an interior origin
        assert (float.hex(t), float.hex(hit.t)) == (float.hex(t_fwd),) * 2


@pytest.mark.parametrize("kind", LINE_DOMAINS)
@settings(max_examples=120, deadline=None)
@given(origin=origins, target=origins)
def test_ray_kernels_answer_nan_exactly_where_the_origin_margin_is_not_positive(
        kind, origin, target):
    domain = LINE_DOMAINS[kind]
    _origin_tests_agree_with_margins(domain, _origin(domain, origin), _origin(domain, target))


# A point of the square outside the disk, and one of the disk outside the square.
IN_SQUARE_ONLY, IN_DISK_ONLY = np.array([-0.9, 0.9]), np.array([1.2, 0.1])
# Under diag(0.25, 4) the preimage of (0, 2e-323) is 5e-324 inside the half-plane, and
# the margin scaled by sigma_min = 0.25 would round to 0.
UNDERFLOW_IMAGE = AffineImage(HPolytope([[0.0, -1.0]], [0.0], witness=[0.0, 1.0]),
                              AffineMap(np.diag([0.25, 4.0]), [0.0, 0.0]))


@pytest.mark.parametrize("parts", [(0, 1), (1, 0)])
def test_an_intersection_rejects_an_origin_any_of_its_parts_rejects(parts):
    # Python's min of (t, nan) is t, so the nan of the second part must not be lost.
    intersection = KINDS["intersection"]
    domain = IntersectionDomain([intersection.parts[i] for i in parts], witness=[0.0, 0.0])
    for x in (IN_SQUARE_ONLY, IN_DISK_ONLY):
        assert domain._margin(x) < 0.0 < max(p._margin(x) for p in domain.parts)
        _origin_tests_agree_with_margins(domain, x, np.array([0.0, 0.1]))
        _origin_tests_agree_with_margins(domain, np.array([0.0, 0.1]), x)
        with pytest.raises(GeometryError, match="^x is not interior to the domain$"):
            hilbert(domain, x, [0.0, 0.1])


def test_affine_margins_keep_their_sign_where_the_scaled_margin_underflows():
    image, inner = UNDERFLOW_IMAGE, UNDERFLOW_IMAGE.inner
    for p, sign in (([0.0, 2e-323], 1.0), ([0.0, -2e-323], -1.0)):
        p = np.array(p)
        assert inner._margin(image.map.invert(p)) == sign * 5e-324
        assert image.contains(p) == image._margins(p[None])[0] == sign * 5e-324
        _origin_tests_agree_with_margins(image, p, np.array([0.0, 1.0]))
    p, q = np.array([0.0, 2e-323]), np.array([0.0, 1.0])
    assert funk(image, p, q) == funk(inner, image.map.invert(p), image.map.invert(q)) == 0.0
    # Seen from q, p is on the boundary at double precision, in both domains.
    assert _answer(lambda: hilbert(image, p, q)) == \
        _answer(lambda: hilbert(inner, image.map.invert(p), image.map.invert(q))) == \
        "target point is numerically on the boundary"


# --- the same messages as the per-pair code ------------------------------------------

IN, IN2, IN3 = [0.1, 0.0], [0.2, 0.3], [-0.3, 0.1]
OUT, NAN, INF, DIM3 = [5.0, 5.0], [np.nan, 0.0], [np.inf, 0.0], [0.0, 0.0, 0.0]
OUTER = HPolytope.box([-4.0, -4.0], [4.0, 4.0])


def _rel(domain, *args):
    return relative_funk(domain, OUTER, *args)


PAIR_MESSAGES = (((OUT, IN), "x is not interior to the domain"),
                 ((NAN, IN), "x has a non-finite coordinate"),
                 ((DIM3, IN), "x has dimension 3, expected 2"),
                 ((IN, OUT), "y is not interior to the domain"),
                 ((IN, INF), "y has a non-finite coordinate"),
                 ((IN, DIM3), "y has dimension 3, expected 2"))

MESSAGES = [  # (function, arguments after the domain, message), on every kind
    *[(fn, args, msg) for fn in (funk, hilbert, max_symmetrized, _rel)
      for args, msg in PAIR_MESSAGES],
    # reverse_funk(x, y) is funk(y, x), and its messages name the points so
    *[(reverse_funk, args[::-1], msg) for args, msg in PAIR_MESSAGES],
    (tangent_norm, (OUT, [1.0, 0.0]), "base point must be interior to the domain"),
    (tangent_norm, (INF, [1.0, 0.0]), "base point has a non-finite coordinate"),
    (tangent_norm, (IN, NAN), "vector has a non-finite coordinate"),
    (tangent_norm, (IN, DIM3), "vector has dimension 3, expected 2"),
    (triangle_report, (OUT, IN2, IN3), "x is not interior to the domain"),
    (triangle_report, (IN, OUT, IN3), "y is not interior to the domain"),
    (triangle_report, (IN, IN2, OUT), "z is not interior to the domain"),
    (triangle_report, (IN, IN2, NAN), "z has a non-finite coordinate"),
    (triangle_report, (IN, DIM3, IN3), "y has dimension 3, expected 2"),
    (triangle_report, (IN, IN, IN3), "triangle report needs distinct points (x, y coincide)"),
    (triangle_report, (IN, IN2, IN2), "triangle report needs distinct points (y, z coincide)"),
    (triangle_report, (IN, IN2, IN), "triangle report needs distinct points (x, z coincide)"),
    (funk_batch, ([IN, IN2], [IN3]), "point arrays must be (m, dim) and congruent"),
    (funk_batch, ([DIM3], [DIM3]), "point arrays must be (m, dim) and congruent"),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fn, args, message", MESSAGES)
def test_public_functions_keep_their_messages(kind, fn, args, message):
    with pytest.raises(GeometryError) as err:
        fn(KINDS[kind], *args)
    assert str(err.value) == message


T_IN = HPolytope.box([0.15, 0.25], [0.25, 0.35])  # around IN2, inside every kind
T_OUT = HPolytope.box([4.0, 4.0], [6.0, 6.0])  # around OUT, outside every kind


def _ray(domain, x, y):
    return domain.ray_boundary(x, y)


LIBRARY_MESSAGES = [  # (function, arguments after the domain, message), on every kind
    (_ray, (OUT, IN), "ray origin is not interior to the domain"),
    (_ray, (NAN, IN), "ray origin has a non-finite coordinate"),
    (_ray, (IN, INF), "ray target has a non-finite coordinate"),
    (_ray, (IN, DIM3), "ray target has dimension 3, expected 2"),
    (_ray, (IN, IN), "ray origin and target coincide"),
    (unique_geodesic_pair, (OUT, IN), "both points must be interior"),
    (unique_geodesic_pair, (IN, OUT), "both points must be interior"),
    (unique_geodesic_pair, (NAN, IN), "x has a non-finite coordinate"),
    (unique_geodesic_pair, (IN, DIM3), "z has dimension 3, expected 2"),
    (unique_geodesic_pair, (IN, IN), "unique-geodesy needs two distinct points"),
    (nearest_on_segment, (OUT, (IN2, IN3)), "x must be interior to the domain"),
    (nearest_on_segment, (NAN, (IN2, IN3)), "x has a non-finite coordinate"),
    (nearest_on_segment, (IN, (OUT, IN3)), "segment endpoints must be interior to the domain"),
    (nearest_on_segment, (IN, (IN2, OUT)), "segment endpoints must be interior to the domain"),
    (nearest_on_segment, (IN, (INF, IN3)), "segment start has a non-finite coordinate"),
    (nearest_on_segment, (IN, (IN2, DIM3)), "segment end has dimension 3, expected 2"),
    (foot_certificate, (OUT, IN2, T_IN), "x is not interior to the domain"),
    (foot_certificate, (NAN, IN2, T_IN), "x has a non-finite coordinate"),
    (foot_certificate, (IN, IN3, T_IN), "y must belong to the target set"),
    (foot_certificate, (IN, INF, T_IN), "y has a non-finite coordinate"),
    (foot_certificate, (IN, OUT, T_OUT), "y is not interior to the domain"),
    *[(fn, args, msg) for fn in (forward_ball, backward_ball) for args, msg in (
        ((OUT, 0.5), "ball center must be interior to the domain"),
        ((NAN, 0.5), "center has a non-finite coordinate"),
        ((DIM3, 0.5), "center has dimension 3, expected 2"),
        ((IN, 0.0), "ball radius must be a positive finite number"),
        ((IN, math.inf), "ball radius must be a positive finite number"))],
    (finite_difference_check, (OUT, [0.0, 0.0], [1.0, 0.0], [0.1]),
     "base point must be interior to the domain"),
    (finite_difference_check, (INF, [0.0, 0.0], [1.0, 0.0], [0.1]),
     "base point has a non-finite coordinate"),
    (finite_difference_check, (IN, NAN, [1.0, 0.0], [0.1]), "x has a non-finite coordinate"),
    (finite_difference_check, (IN, [0.0, 0.0], DIM3, [0.1]), "y has dimension 3, expected 2"),
    (finite_difference_check, (IN, [0.0, 0.0], [100.0, 0.0], [0.5]),
     "sample escapes the domain at t=0.5"),
    (finite_difference_check, (IN, [0.0, 0.0], [1.0, 0.0], [0.0]),
     "difference-quotient steps must be positive"),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fn, args, message", LIBRARY_MESSAGES)
def test_library_functions_keep_their_messages(kind, fn, args, message):
    with pytest.raises(GeometryError) as err:
        fn(KINDS[kind], *args)
    assert str(err.value) == message


POLYTOPE_MESSAGES = [  # (call on the square, error class, message)
    (lambda: cone_member(SQUARE, FaceCone(base=OUT, face={0}), [1.0, 0.0]),
     GeometryError, "cone base must be interior"),
    (lambda: cone_member(SQUARE, FaceCone(base=DIM3, face={0}), [1.0, 0.0]),
     GeometryError, "cone base has dimension 3, expected 2"),
    (lambda: cone_member(SQUARE, FaceCone(base=IN, face={0}), NAN),
     GeometryError, "direction has a non-finite coordinate"),
    (lambda: cone_member(SQUARE, FaceCone(base=IN, face={0}), DIM3),
     GeometryError, "direction has dimension 3, expected 2"),
    (lambda: cone_member(SQUARE, FaceCone(base=IN, face={4}), [1.0, 0.0]),
     GeometryError, "face constraint index out of range"),
    (lambda: polyline_face_witness(SQUARE, [OUT, IN]),
     GeometryError, "ray origin is not interior to the domain"),
    (lambda: polyline_face_witness(SQUARE, [IN, OUT], reverse=True),
     GeometryError, "ray origin is not interior to the domain"),
    (lambda: polyline_face_witness(SQUARE, [IN, NAN]),
     GeometryError, "polyline[1] has a non-finite coordinate"),
    (lambda: polyline_face_witness(SQUARE, [IN, IN2, IN2]),
     GeometryError, "ray origin and target coincide"),
    (lambda: polyline_face_witness(SQUARE, [IN]),
     GeometryError, "a polyline needs at least two points"),
    (lambda: nearest_on_convex(SQUARE, OUT, T_IN),
     GeometryError, "x must be interior to the domain"),
    (lambda: nearest_on_convex(SQUARE, NAN, T_IN),
     GeometryError, "x has a non-finite coordinate"),
    (lambda: nearest_on_convex(SQUARE, DIM3, T_IN),
     GeometryError, "x has dimension 3, expected 2"),
    (lambda: nearest_on_convex(SQUARE, IN, T_OUT),
     GeometryError, "target set is not contained in the domain"),
    (lambda: sandwich(SQUARE, OUT), GeometryError, "x must be interior to the polytope"),
    (lambda: sandwich(SQUARE, INF), GeometryError, "x has a non-finite coordinate"),
    (lambda: sandwich(SQUARE, DIM3), GeometryError, "x has dimension 3, expected 2"),
    (lambda: polytope_support_form(SQUARE, OUT, [1.0, 0.0]),
     GeometryError, "base point must be interior to the polytope"),
    (lambda: polytope_support_form(SQUARE, NAN, [1.0, 0.0]),
     GeometryError, "base point has a non-finite coordinate"),
    (lambda: polytope_support_form(SQUARE, IN, INF),
     GeometryError, "vector has a non-finite coordinate"),
    (lambda: polytope_support_form(SQUARE, IN, DIM3),
     GeometryError, "vector has dimension 3, expected 2"),
    (lambda: HPolytope(SQUARE.A, SQUARE.b, witness=OUT),
     DomainSpecError, "witness point is not strictly interior"),
    (lambda: HPolytope(SQUARE.A, SQUARE.b, witness=NAN),
     GeometryError, "witness has a non-finite coordinate"),
    (lambda: IntersectionDomain([SQUARE, T_IN], witness=IN),
     DomainSpecError, "witness is not interior to every part"),
    (lambda: IntersectionDomain([SQUARE, T_IN], witness=DIM3),
     GeometryError, "witness has dimension 3, expected 2"),
    (lambda: IntersectionDomain([SQUARE, T_OUT]).base_point(),
     DomainSpecError, "cannot infer an interior point of the intersection; supply a witness"),
]


@pytest.mark.parametrize("call, error, message", POLYTOPE_MESSAGES)
def test_polytope_functions_and_constructors_keep_their_messages(call, error, message):
    with pytest.raises(GeometryError) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


BATCH_MESSAGES = [  # (X, Y, funk's message for the first offending pair)
    ([IN, OUT], [IN2, IN3], "x is not interior to the domain"),
    ([IN, IN2], [IN3, OUT], "y is not interior to the domain"),
    ([IN, INF], [IN2, IN3], "x has a non-finite coordinate"),
    ([IN, IN2], [IN3, NAN], "y has a non-finite coordinate"),
    ([OUT, IN], [NAN, IN2], "x is not interior to the domain"),
    ([IN, NAN], [OUT, IN2], "y is not interior to the domain"),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("X, Y, message", BATCH_MESSAGES)
def test_funk_batch_keeps_its_messages(kind, X, Y, message):
    # Every kind names the first offending pair as funk does.  A non-finite
    # row is not interior on any kind, and is rejected before a kernel
    # computes with it, so numpy does not warn.
    with warnings.catch_warnings(), pytest.raises(GeometryError) as err:
        warnings.simplefilter("error")
        funk_batch(KINDS[kind], X, Y)
    assert str(err.value) == message


def test_funk_batch_rejects_a_non_finite_row_its_slacks_call_interior():
    # In {x1 < 1} the slack of (-inf, 0) is +inf, which reads as interior.
    half_plane = HPolytope([[1.0, 0.0]], [1.0], witness=[0.0, 0.0])
    with pytest.raises(GeometryError) as err:
        funk_batch(half_plane, [[-np.inf, 0.0]], [[0.0, 0.0]])
    assert str(err.value) == "x has a non-finite coordinate"


@pytest.mark.parametrize("kind", KINDS)
def test_funk_batch_on_nearly_coincident_rows_is_zero_without_warnings(kind):
    # Rows 1e-309 apart: the squared gap underflows to 0, and the ball's
    # quadratic divides by a subnormal.
    X = np.array([[0.0, 0.0], [0.1, 0.0]])
    Y = X + np.array([[-1e-309, 0.0], [0.0, 1e-309]])
    assert np.all(np.any(Y != X, axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(funk_batch(KINDS[kind], X, Y) == 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_coincident_points_are_at_distance_zero(kind):
    domain = KINDS[kind]
    assert funk(domain, IN, IN) == hilbert(domain, IN, IN) == _rel(domain, IN, IN) == 0.0
    assert tangent_norm(domain, IN, [0.0, 0.0]) == 0.0
    assert np.all(funk_batch(domain, [IN, IN2], [IN, IN2]) == 0.0)


def test_relative_funk_checks_the_reverse_origin_in_the_englobing_domain():
    # The sampled containment check misses this corner sliver of the square.
    corner = HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [4, 4, 4, 4, 1.99999])
    with pytest.raises(GeometryError) as err:
        relative_funk(SQUARE, corner, [0.0, 0.0], [0.999999, 0.999999])
    assert str(err.value) == "ray origin is not interior to the domain"


OUT2, ZERO = [-5.0, 5.0], [0.0, 0.0]


def _straddling(domain):
    """{"beyond": p, "short": q}: points 2e-14 beyond and short of the boundary on
    one ray, closer than EPS_PT, so a query takes them for coincident points."""
    base = domain.base_point()
    u = np.array([0.6, 0.8])
    t = domain.ray_boundary(base, base + u).t
    points = {"beyond": base + (t + 2e-14) * u, "short": base + (t - 2e-14) * u}
    assert domain.contains(points["beyond"]) < 0.0 < domain.contains(points["short"])
    return points


def _fill(arg, points):
    # "beyond" and "short" name the straddling points, in arguments and in polylines.
    if isinstance(arg, str):
        return points[arg]
    if isinstance(arg, list) and arg and not isinstance(arg[0], float):
        return [_fill(a, points) for a in arg]
    return arg


DOUBLE_FAULTS = [  # (function, arguments after the domain, message), on every kind
    *[(fn, args, "x is not interior to the domain") for fn in (funk, hilbert, max_symmetrized, _rel)
      for args in ((OUT, NAN), (OUT, DIM3), (OUT, OUT2), (OUT, OUT), ("beyond", "short"))],
    *[(fn, ("short", "beyond"), "y is not interior to the domain")
      for fn in (funk, hilbert, max_symmetrized, _rel)],
    *[(reverse_funk, args[::-1], "x is not interior to the domain")
      for args in ((OUT, NAN), (OUT, DIM3), (OUT, OUT2), (OUT, OUT), ("beyond", "short"))],
    *[(_ray, args, "ray origin is not interior to the domain")
      for args in ((OUT, NAN), (OUT, DIM3), (OUT, OUT2), (OUT, OUT), ("beyond", "short"))],
    (_ray, ("short", "beyond"), "ray origin and target coincide"),
    *[(unique_geodesic_pair, args, "both points must be interior")
      for args in ((OUT, NAN), (OUT, DIM3), (OUT, OUT), ("beyond", "short"), ("short", "beyond"))],
    (triangle_report, (OUT, IN, IN), "x is not interior to the domain"),
    (triangle_report, (IN2, OUT, NAN), "y is not interior to the domain"),
    (triangle_report, (OUT, OUT2, OUT), "x is not interior to the domain"),
    (triangle_report, (IN, IN, OUT), "z is not interior to the domain"),
    (triangle_report, (IN, "beyond", "short"), "y is not interior to the domain"),
    (triangle_report, (IN, "short", "beyond"), "z is not interior to the domain"),
    (tangent_norm, (OUT, NAN), "base point must be interior to the domain"),
    (tangent_norm, (OUT, ZERO), "base point must be interior to the domain"),
    (tangent_norm, (OUT, DIM3), "base point must be interior to the domain"),
    (tangent_norm, ("beyond", ZERO), "base point must be interior to the domain"),
    *[(verify, (polyline,), message) for verify in (verify_geodesic, verify_hilbert_geodesic)
      for polyline, message in (
          ([OUT, NAN], "polyline[0] is not interior to the domain"),
          ([IN, OUT, NAN], "polyline[1] is not interior to the domain"),
          ([IN, OUT, OUT], "polyline[1] is not interior to the domain"),
          ([IN, IN, OUT], "polyline[2] is not interior to the domain"),
          ([IN, IN2, OUT], "polyline[2] is not interior to the domain"),
          ([OUT], "polyline[0] is not interior to the domain"),
          ([IN, "beyond", "short"], "polyline[1] is not interior to the domain"),
          ([IN, "short", "beyond"], "polyline[2] is not interior to the domain"),
          ([IN, NAN], "polyline[1] has a non-finite coordinate"),
          ([IN], "a polyline needs at least two points"))],
]


def test_points_that_are_no_ray_origin_keep_their_margin_test():
    # y is on the sphere (margin 0.0), yet the cast from x puts the sphere 4e-16
    # beyond it, so only the _margin test of y refuses it.
    ball = KINDS["ball"]
    x, y = np.array([0.6867524551671897, 0.42699691031383846]), \
        np.array([0.7071847164548372, 0.66339251116728])
    assert ball._margin(y) == 0.0 and ball._exit(x, y, y - x) - 1.0 >= 1e-16
    for call, message in ((lambda: funk(ball, x, y), "y is not interior to the domain"),
                          (lambda: _rel(ball, x, y), "y is not interior to the domain"),
                          (lambda: triangle_report(ball, x, IN, y), "z is not interior to the domain"),
                          (lambda: unique_geodesic_pair(ball, x, y), "both points must be interior"),
                          (lambda: verify_geodesic(ball, [IN, x, y]),
                           "polyline[2] is not interior to the domain")):
        assert _answer(call) == message


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fn, args, message", DOUBLE_FAULTS)
def test_two_faults_raise_the_message_of_the_first_argument_at_fault(kind, fn, args, message):
    domain = KINDS[kind]
    points = _straddling(domain)
    with pytest.raises(GeometryError) as err:
        fn(domain, *[_fill(a, points) for a in args])
    assert str(err.value) == message


# --- row forms of the triangle report and the closed forms ------------------------------

EPS = np.finfo(float).eps
# A ray whose direction d has d2 >= 0 and d1 >= -0.3 d2 never leaves this wedge.
WEDGE = HPolytope([[0.0, -1.0], [-1.0, -0.3]], [1.0, 1.0], witness=[0.0, 0.0])
ROW_KINDS = {**KINDS, "unbounded_polytope": WEDGE}


def _triples(domain, seed, m=400):
    rng = np.random.default_rng(seed)
    T = sample_interior(domain, rng, 3 * m, bound=1.7, min_margin=1e-2).reshape(m, 3, -1)
    if domain is SQUARE:  # and triples whose hits all lie on one edge
        T = np.concatenate([T, _edge_aligned_triples(rng, m)])
    return T.swapaxes(0, 1)


def _defect_bound(domain, x, y, z):
    # F = log1p(1/(t - 1)) turns a relative error e of the exit parameter t
    # into an error of about e * t/(t - 1) in F.  The scalar and row kernels
    # may round t apart in its last bits (the polytope's slack products), and
    # math.log1p and np.log1p differ by up to 1 ulp, so the defects may differ
    # by a few ulps of the largest distance or of the largest t/(t - 1).
    ts = [domain.ray_boundary(p, q).t for p, q in ((x, y), (y, z), (x, z))]
    scale = max([funk(domain, x, y), funk(domain, y, z), funk(domain, x, z)]
                + [t / (t - 1.0) for t in ts if math.isfinite(t)])
    return 8 * EPS * scale, ts


@pytest.mark.parametrize("kind", ROW_KINDS)
def test_row_triangle_form_agrees_with_triangle_report(kind):
    domain = ROW_KINDS[kind]
    X, Y, Z = _triples(domain, seed=11)
    defects, aligned = triangle_batch(domain, X, Y, Z)
    escaped = 0
    for x, y, z, defect, flag in zip(X, Y, Z, defects, aligned):
        rep = triangle_report(domain, x, y, z)
        bound, ts = _defect_bound(domain, x, y, z)
        assert abs(defect - rep.defect) <= bound
        assert flag == rep.aligned
        escaped += sum(t == math.inf for t in ts)
    assert aligned.any() == (kind != "ball")  # flat faces align some triples
    assert (escaped > 0) == (kind == "unbounded_polytope")


POLYTOPES = {"square": SQUARE, "polytope_4d": random_polytope(np.random.default_rng(4), 4),
             "unbounded_polytope": WEDGE,
             "orthant": HPolytope(-np.eye(3), np.zeros(3), witness=np.ones(3))}


@pytest.mark.parametrize("kind", POLYTOPES)
def test_row_closed_forms_agree_with_their_pair_calls_bit_for_bit(kind):
    # Each row rounds as the pair call does: both take the slacks row by row.
    polytope = POLYTOPES[kind]
    rng = np.random.default_rng(7)
    X, Y = sample_interior(polytope, rng, 2 * 500, bound=1.7).reshape(2, 500, -1)
    rows = funk_polytope_closed_form(polytope, X, Y)
    assert rows.tolist() == [funk_polytope_closed_form(polytope, x, y) for x, y in zip(X, Y)]
    assert np.all(np.abs(rows - funk_batch(polytope, X, Y)) <= 1e-9)
    ball = EuclideanBall(np.zeros(polytope.dim), 1.0)
    X, Y = sample_interior(ball, rng, 2 * 500, bound=1.0).reshape(2, 500, -1)
    Y[:7] = X[:7]  # coincident pairs are at distance 0
    rows = funk_unit_ball_closed_form(X, Y)
    assert rows.tolist() == [funk_unit_ball_closed_form(x, y) for x, y in zip(X, Y)]
    assert np.all(rows[:7] == 0.0)
    U, V = rng.standard_normal((2, 500, polytope.dim))
    rows = minkowski_max_distance(U, V)
    assert rows.tolist() == [minkowski_max_distance(u, v) for u, v in zip(U, V)]


OUT_ALL = [-5.0, -5.0]  # outside every kind, the wedge included
TRIPLE_MESSAGES = [  # (X, Y, Z, triangle_report's message for the first offending triple)
    ([IN, OUT_ALL], [IN2, IN2], [IN3, IN3], "x is not interior to the domain"),
    ([IN, IN], [IN2, OUT_ALL], [IN3, IN3], "y is not interior to the domain"),
    ([IN, IN], [IN2, IN2], [IN3, NAN], "z has a non-finite coordinate"),
    ([IN, INF], [IN2, OUT_ALL], [IN3, IN3], "x has a non-finite coordinate"),
    ([IN, IN], [IN2, IN], [IN3, IN3], "triangle report needs distinct points (x, y coincide)"),
    ([IN, IN2], [IN2, IN3], [IN3, IN3], "triangle report needs distinct points (y, z coincide)"),
    ([IN, IN2], [IN2, IN3], [IN3, IN2], "triangle report needs distinct points (x, z coincide)"),
    ([IN, IN], [IN2, IN2], [IN3], "point arrays must be (m, dim) and congruent"),
]


@pytest.mark.parametrize("kind", ROW_KINDS)
@pytest.mark.parametrize("X, Y, Z, message", TRIPLE_MESSAGES)
def test_row_triangle_form_keeps_the_messages_of_triangle_report(kind, X, Y, Z, message):
    with warnings.catch_warnings(), pytest.raises(GeometryError) as err:
        warnings.simplefilter("error")
        triangle_batch(ROW_KINDS[kind], X, Y, Z)
    assert str(err.value) == message


CLOSED_FORM_MESSAGES = [  # (function, X, Y, the pair call's message for the first offending pair)
    *[(lambda X, Y: funk_polytope_closed_form(SQUARE, X, Y), X, Y, message)
      for X, Y, message in BATCH_MESSAGES],
    (funk_unit_ball_closed_form, [IN, OUT], [IN2, IN3],
     "arguments must lie strictly inside the unit ball"),
    (funk_unit_ball_closed_form, [IN, IN2], [IN3, NAN], "y has a non-finite coordinate"),
    (funk_unit_ball_closed_form, [OUT, IN], [IN2, NAN],
     "arguments must lie strictly inside the unit ball"),
    (minkowski_max_distance, [IN, INF], [IN2, IN3], "u has a non-finite coordinate"),
    (minkowski_max_distance, [IN, IN2], [IN3], "point arrays must be (m, dim) and congruent"),
]


@pytest.mark.parametrize("fn, X, Y, message", CLOSED_FORM_MESSAGES)
def test_row_closed_forms_keep_the_messages_of_their_pair_calls(fn, X, Y, message):
    with warnings.catch_warnings(), pytest.raises(GeometryError) as err:
        warnings.simplefilter("error")
        fn(X, Y)
    assert str(err.value) == message


# --- the containment cache ------------------------------------------------------------

def test_containment_cache_entries_die_with_their_domains():
    cache = metric_engine._CONTAINMENT_CACHE
    gc.collect()
    before = len(cache)
    omega = EuclideanBall([0.0, 0.0], 1.0)
    outer = HPolytope.box([-2.0, -2.0], [2.0, 2.0])
    relative_funk(omega, outer, [0.0, 0.0], [0.5, 0.0])
    assert len(cache) == before + 1 and outer in cache[omega]
    alive = weakref.ref(omega), weakref.ref(outer)
    del omega, outer
    gc.collect()
    assert alive[0]() is None and alive[1]() is None
    assert len(cache) == before


# --- samplers: rows, streams and interiors --------------------------------------------

def _sample_interior_per_point(domain, rng, m, bound=1.7, min_margin=1e-6):
    out = []
    while len(out) < m:
        block = rng.uniform(-bound, bound, size=(4 * m, domain.dim))
        for p in block:
            if domain.contains(p) > min_margin:
                out.append(p)
                if len(out) == m:
                    break
    return np.array(out)


@pytest.mark.parametrize("kind", [*KINDS, "half_plane"])
def test_row_sampler_draws_the_same_stream_as_a_per_point_loop(kind, half_plane):
    domain = half_plane if kind == "half_plane" else KINDS[kind]
    for seed in range(3):
        rng_rows, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = sample_interior(domain, rng_rows, 37, bound=2.0, min_margin=0.05)
        loop = _sample_interior_per_point(domain, rng_loop, 37, bound=2.0, min_margin=0.05)
        assert np.array_equal(rows, loop)
        assert rng_rows.random() == rng_loop.random()


@pytest.mark.parametrize("kind", [*KINDS, "half_plane"])
def test_interior_samples_are_interior_and_seeded(kind, half_plane):
    domain = half_plane if kind == "half_plane" else KINDS[kind]
    for seed in range(3):
        rows = domain.interior_samples(500, np.random.default_rng(seed))
        assert rows.shape == (500, domain.dim)
        assert all(domain.contains(x) > 0.0 for x in rows)
        assert np.array_equal(rows, domain.interior_samples(500, np.random.default_rng(seed)))
        assert not np.array_equal(rows, domain.interior_samples(
            500, np.random.default_rng(seed + 1)))


def _sphere_sample_per_direction(ball, k, seed):
    center = ball.center
    for batch in range(17):
        dirs = sphere_directions(center.size, k * 2 ** batch,
                                 seed if center.size == 2 else seed + batch)
        out = []
        for u in dirs:
            hit = ball.realized.ray_boundary(center, center + u)
            if not hit.at_infinity:
                out.append(hit.point)
                if len(out) == k:
                    return np.array(out)
    raise AssertionError("not enough finite directions")


HALF_SPACE_3D = HPolytope([[0.0, 0.0, -1.0]], [0.0], witness=[0.0, 0.0, 1.0])


@pytest.mark.parametrize("kind", [*KINDS, "half_plane", "half_space_3d"])
def test_sphere_sample_casts_the_directions_of_a_per_direction_loop(kind, half_plane):
    # One row-kernel call per batch of directions picks the same directions as
    # one public cast per direction, escaping ones skipped, and the points
    # agree within a few ulps.
    domain = {**KINDS, "half_plane": half_plane, "half_space_3d": HALF_SPACE_3D}[kind]
    x = domain.base_point()
    for ball in (forward_ball(domain, x, 0.7), backward_ball(domain, x, 0.4)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sphere_sample(ball, 24, seed=3)
        want = _sphere_sample_per_direction(ball, 24, seed=3)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * (1.0 + np.abs(want)))
