"""Numerical tolerance constants shared across the package.

All values are chosen for double precision at desk scale (domains of
diameter roughly 0.1 .. 100).  They are constants: nothing overrides them
at run time.  A check suite's gates are separate: constants written at
each check in ``suites.py``.
"""

# Boundary membership: |signed margin| below this counts as "on the boundary".
# Margins are Euclidean lengths on every primitive kind (a polytope stores unit
# rows), so one value serves every kind.
EPS_BD = 1e-9

# Ray-direction classification: a constraint (a unit row) whose derivative
# along the unit ray direction is below this is treated as parallel (hit at
# infinity), never as a huge finite parameter.  Keeps the metric continuous near 0.
EPS_DIR = 1e-12

# Face activation: a constraint within this distance of equality is active.
EPS_FACE = 1e-7

# Generic geometric comparisons (points produced by two different routes).
EPS_GEOM = 1e-8

# Relative determinant / singular-value floor for invertible affine maps.
EPS_DET = 1e-12

# Two points closer than this are considered identical; distance ops
# short-circuit to 0 without casting a ray.
EPS_PT = 1e-13

# Distances below this are clamped to exactly 0 (agreement with the
# at-infinity classification).
F_CLAMP = 1e-14

# Projective alignment (geodesy.triangle_report): three hits are aligned iff
# s3 <= EPS_RANK * s1 for the singular values of their unit homogeneous rows R
# (3 x (n+1)).  Aligned hits have s3 = 0, so a computed s3 is rounding alone:
# each entry of R is within 6 eps (x + t*d rounds t, t*d and the sum, and the
# normalisation 2 eps more), and the SVD is exact for R + E' with ||E'|| a
# small multiple of eps*sqrt(3).  By Weyl, s3 <= 6 eps sqrt(3(n+1)) + ||E'||,
# under 30 eps for n <= 4, while s1 >= 1.  Measured over the seed sweep:
# aligned polytope triples read s3/s1 <= 0.74 eps, ball triples >= 1.15e7 eps.
EPS_RANK = 64 * 2.0**-52

# Collinearity of points, relative to the largest distance between them that
# the test involves (a point's rounding grows with its distance from the others).
EPS_LINE = 1e-9

# Degenerate-triangle threshold, relative to squared diameter.
EPS_AREA = 1e-12

# Hyperplane parallelism, on normalized coefficient vectors.
EPS_PARA = 1e-9

# Additivity defect below which a polyline counts as geodesic.
EPS_GEODESIC = 1e-9
