"""Time each public single-pair call, and the scalar ray kernels, on each domain kind.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/scalar_costs.py

Prints one row per call and one column per kind (a square, a disk, an
affine image of the square, the square intersected with a disk): the
fastest of ``REPEAT`` timings of ``NUMBER`` calls, in µs per call.
Each round times every cell once, so a slow phase of a shared host falls
on all cells alike instead of on the few timed during it.
The kernel rows time the unchecked kernels on the same validated points:
``_exit`` (one ray), ``_line`` (both rays along one line), two ``_exit``
calls along the same line, which decides whether a kind's own ``_line``
earns its place, and the row kernel ``_exits`` given a single row.
"""

from __future__ import annotations

import platform
import sys
import timeit

import numpy as np

import funkgeo as fg
SQUARE = fg.HPolytope.box([-1.0, -1.0], [1.0, 1.0])
KINDS = {
    "hpolytope": SQUARE,
    "ball": fg.EuclideanBall([0.25, -0.5], 1.25),
    "affine_image": fg.AffineImage(SQUARE, fg.AffineMap([[2.0, 0.5], [0.0, 1.0]],
                                                        [0.25, -0.5])),
    "intersection": fg.IntersectionDomain([SQUARE, fg.EuclideanBall([0.3, 0.0], 1.1)],
                                          witness=[0.0, 0.0]),
}
OUTER = fg.HPolytope.box([-4.0, -4.0], [4.0, 4.0])
X, Y, Z = [0.1, 0.0], [0.2, 0.3], [-0.3, 0.1]
REPEAT, NUMBER = 40, 500  # timings per cell, calls per timing


def calls(domain) -> dict:
    """The timed calls on one domain, each a function of no arguments."""
    x, y = np.array(X), np.array(Y)
    d = y - x
    rows_x, rows_y = x[None], y[None]
    return {
        "contains": lambda: domain.contains(X),
        "ray_boundary": lambda: domain.ray_boundary(X, Y),
        "funk": lambda: fg.funk(domain, X, Y),
        "reverse_funk": lambda: fg.reverse_funk(domain, X, Y),
        "hilbert": lambda: fg.hilbert(domain, X, Y),
        "max_symmetrized": lambda: fg.max_symmetrized(domain, X, Y),
        "relative_funk": lambda: fg.relative_funk(domain, OUTER, X, Y),
        "tangent_norm": lambda: fg.tangent_norm(domain, X, Y),
        "triangle_report": lambda: fg.triangle_report(domain, X, Y, Z),
        "_exit": lambda: domain._exit(x, y, d),
        "_line": lambda: domain._line(x, y, d),
        "two _exit calls": lambda: (domain._exit(x, y, d), domain._exit(y, x, -d)),
        "_exits, one row": lambda: domain._exits(rows_x, rows_y),
    }


def main() -> int:
    cells = {(kind, name): call for kind, domain in KINDS.items()
             for name, call in calls(domain).items()}
    for call in cells.values():
        call()  # warm caches, e.g. relative_funk's containment verdict
    best = dict.fromkeys(cells, float("inf"))
    for _ in range(REPEAT):
        for cell, call in cells.items():
            best[cell] = min(best[cell], timeit.timeit(call, number=NUMBER))
    table = {kind: {name: best[kind, name] / NUMBER * 1e6 for name in calls(domain)}
             for kind, domain in KINDS.items()}
    print(f"# µs per call, fastest of {REPEAT} timings of {NUMBER} calls; "
          f"Python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}")
    names = list(next(iter(table.values())))
    width = max(map(len, names))
    print(" " * width + "".join(f"{kind:>14}" for kind in table))
    for name in names:
        print(f"{name:<{width}}" + "".join(f"{table[kind][name]:14.2f}" for kind in table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
