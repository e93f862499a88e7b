"""Weak metrics of proper convex domains.

Funk-type distances (Funk, reverse Funk, Hilbert, relative Funk,
max-symmetrized) on convex domains given as polytopes, balls, affine
images or intersections, together with their metric balls, geodesic
criteria, nearest-point projections and tangent Minkowski norms.
"""

from .ball_geometry import (
    BACKWARD,
    FORWARD,
    MetricBall,
    SandwichConstants,
    backward_ball,
    forward_ball,
    sandwich,
    sphere_directions,
    sphere_sample,
)
from .classical_oracles import ceva_product, cross_ratio, division_ratio, menelaus_product
from .convex_core import (
    AffineImage,
    AffineMap,
    ConvexDomain,
    DomainSpecError,
    EuclideanBall,
    GeometryError,
    Hit,
    HPolytope,
    IntersectionDomain,
    LinearForm,
    supporting_functional,
    to_projective,
)
from .domain_io import load_domain, parse_domain
from .finsler_tangent import (
    convergence_order,
    finite_difference_check,
    tangent_norm,
)
from .geodesy import (
    FaceCone,
    TriangleReport,
    cone_member,
    polyline_face_witness,
    triangle_report,
    unique_geodesic_pair,
    verify_geodesic,
    verify_hilbert_geodesic,
)
from .metric_engine import (
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
from .projection import (
    Foot,
    foot_certificate,
    is_perpendicular,
    nearest_on_convex,
    nearest_on_segment,
)
from .suites import RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
