"""End-to-end acceptance criteria.

Each test runs one acceptance criterion at its stated tolerance on the
default sample counts and prints a single pass/fail line.  The underlying
batteries live in :mod:`funkgeo.suites`; each suite executes once per
session and its checks are shared across criteria.
"""

import time

from funkgeo.suites import SUITES, RunConfig
from funkgeo.tolerances import EPS_RANK

_CACHE: dict = {}


def _suite(name: str):
    if name not in _CACHE:
        cfg = RunConfig(seed=0)
        start = time.time()
        results = SUITES[name](cfg)
        elapsed = time.time() - start
        _CACHE[name] = ({r.name: r for r in results}, elapsed)
    return _CACHE[name]


def _report(number: int, label: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({note})" if note else ""
    print(f"[{status}] criterion {number:2d}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_closed_form_oracle_equivalence():
    checks, elapsed = _suite("oracle-closedform")
    poly = checks["polytope_closed_form_matches_ray_cast"]
    ball = checks["unit_ball_closed_form_matches_ray_cast"]
    ok = poly.passed and ball.passed and elapsed < 5.0
    _report(1, "closed forms match the ray-cast distance within 1e-9 "
               "(1e4 pairs each, dims 2-5)", ok,
            f"max gaps {poly.detail['max_gap']:.2e}/{ball.detail['max_gap']:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_02_weak_metric_axioms():
    checks, elapsed = _suite("axioms")
    ok = (checks["nonnegativity"].passed
          and checks["triangle_inequality"].passed
          and checks["projectivity_on_segments"].passed
          and elapsed < 10.0)
    _report(2, "nonnegativity, triangle inequality (1e-12 slack, 1e5 triples), "
               "projectivity (1e-9)", ok,
            f"max violation {checks['triangle_inequality'].detail['max_violation']:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_03_triangle_equality_characterization():
    checks, _ = _suite("triangle")
    edge = checks["square_edge_triples_reach_equality"]
    ball = checks["ball_triples_strictly_inside_inequality"]
    ok = edge.passed and ball.passed and ball.detail["misclassified"] == 0
    _report(3, "equality iff the three boundary hits align (defect<=1e-9 on "
               f"edge triples; strict on 1e4 ball triples; rank gate {EPS_RANK:.3g})", ok,
            f"misclassified {ball.detail['misclassified']}")


def test_criterion_04_forward_ball_homothety():
    checks, _ = _suite("balls")
    sphere = checks["forward_sphere_at_exact_radius"]
    closed = checks["unit_ball_forward_ball_is_euclidean"]
    ok = sphere.passed and closed.passed
    _report(4, "forward spheres sit at exact metric radius (1e-8); unit-ball "
               "forward ball matches its Euclidean form (1e-9)", ok,
            f"max radius gap {sphere.detail['max_gap']:.2e}")


def test_criterion_05_topology_sandwich():
    checks, _ = _suite("sandwich")
    fwd = checks["forward_sphere_inside_euclidean_annulus"]
    bwd = checks["backward_sphere_inside_euclidean_annulus"]
    ok = fwd.passed and bwd.passed
    _report(5, "metric spheres sit inside their Euclidean annuli "
               "(forward always, backward up to log 2; 1e2 configs/polytope)", ok)


def test_criterion_06_completeness_witnesses():
    checks, _ = _suite("completeness")
    tail = checks["backward_cauchy_chord_tail"]
    compact = checks["forward_balls_relatively_compact"]
    ok = tail.passed and compact.passed
    _report(6, "chord sequence tail supremum drops below 1e-3 by k=1e3; "
               "forward balls relatively compact", ok,
            f"tail sup {tail.detail['tail_sup_at_k1000']:.2e}")


def test_criterion_07_division_ratio_calculus():
    checks, _ = _suite("ratio")
    ok = (checks["ratio_round_trip"].passed
          and checks["distance_from_geometric_ratio"].passed
          and checks["worked_ratio_instance"].passed)
    _report(7, "ratio/distance round trip within 1e-10 on 1e4 collinear "
               "configurations, including the t=1.5 worked instance", ok,
            f"max gap {checks['ratio_round_trip'].detail['max_gap']:.2e}")


def test_criterion_08_tangent_norm():
    checks, _ = _suite("tangent")
    order = checks["difference_quotient_first_order"]
    ident = checks["unit_ball_is_translated_domain"]
    ok = order.passed and ident.passed
    _report(8, "difference quotients converge at order >= 0.9; gauge unit "
               "ball is the translated domain (1e4 samples)", ok,
            f"min order {order.detail['min_order']:.3f}")


def test_criterion_09_projection():
    checks, _ = _suite("projection")
    ok = (checks["ball_feet_optimal_and_unique"].passed
          and checks["square_flat_sphere_gives_multiple_feet"].passed
          and checks["nearest_on_convex_always_certifies"].passed
          and checks["halfspace_target_foot_and_certificate"].passed)
    _report(9, "feet in the ball optimal and unique on a 2001-point grid, "
               "flat-sphere non-uniqueness witnessed, every computed foot "
               "certifies", ok)


def test_criterion_10_appendix_oracles():
    checks, _ = _suite("appendix")
    ok = (checks["menelaus_hand_instance"].passed
          and checks["menelaus_transversals"].passed
          and checks["ceva_concurrent_cevians"].passed
          and checks["cross_ratio_projective_invariance"].passed)
    _report(10, "Menelaus +1 and Ceva -1 within 1e-9 on 1e3 constructions "
                "(hand instance included); cross ratio projectively invariant", ok)


def test_criterion_11_invariance():
    checks, _ = _suite("invariance")
    ok = (checks["funk_affine_invariance"].passed
          and checks["hilbert_projective_invariance"].passed
          and checks["reverse_funk_diameter_bound"].passed)
    _report(11, "distance invariant under 1e3 affine maps, Hilbert under 1e3 "
                "projective maps (1e-9); reverse distance never exceeds "
                "log(diameter/boundary distance)", ok,
            f"max gaps {checks['funk_affine_invariance'].detail['max_gap']:.2e}/"
            f"{checks['hilbert_projective_invariance'].detail['max_gap']:.2e}")
