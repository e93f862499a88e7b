"""Small dense linear-program solver (two-phase simplex, Bland's rule).

Solves  maximize c.x  subject to  A x <= b  with x free, which is all the
package needs: feasibility of intersections of small constraint systems,
Chebyshev centers, and recession-cone probes.  Bland's rule guarantees
termination; problem sizes here are tiny (tens of rows, <= 8 variables),
so a plain tableau is the right tool.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-11

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    # Rows with a zero in the pivot column keep their bits, signed zeros included.
    rows = np.abs(T[:, col]) > 0.0
    rows[row] = False
    T[rows] -= T[rows, col, None] * T[row]
    basis[row] = col


def _simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray,
             allowed: np.ndarray) -> str:
    """Minimize cost.z over the tableau in place. Bland's rule throughout."""
    m = T.shape[0]
    while True:
        cb = cost[basis]
        reduced = cost - cb @ T[:, :-1]
        entering = -1
        for j in np.flatnonzero(allowed):
            if reduced[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        ratios = np.full(m, np.inf)
        col = T[:, entering]
        pos = col > PIVOT_TOL
        ratios[pos] = T[pos, -1] / col[pos]
        best = np.min(ratios)
        if not np.isfinite(best):
            return UNBOUNDED
        # Bland tie-break: among minimal ratios, leave the smallest basis index.
        rows = np.flatnonzero(ratios <= best + PIVOT_TOL)
        leave = rows[np.argmin(basis[rows])]
        _pivot(T, basis, leave, entering)


def solve_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray
             ) -> tuple[str, np.ndarray | None, float]:
    """Maximize c.x subject to A x <= b, x free.

    Returns (status, x, value) with x=None unless status == "optimal".
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    m, n = A.shape

    # x = xp - xn with xp, xn >= 0; slack s >= 0 turns rows into equalities.
    A_eq = np.hstack([A, -A, np.eye(m)])
    b_eq = b.copy()
    flip = b_eq < 0.0
    A_eq[flip] *= -1.0
    b_eq[flip] *= -1.0

    n_real = 2 * n + m
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    total = n_real + n_art

    T = np.zeros((m, total + 1))
    T[:, :n_real] = A_eq
    T[:, -1] = b_eq
    basis = np.zeros(m, dtype=int)
    art_col = {}
    k = 0
    for i in range(m):
        if flip[i]:
            col = n_real + k
            T[i, col] = 1.0
            basis[i] = col
            art_col[i] = col
            k += 1
        else:
            basis[i] = 2 * n + i  # its own slack

    allowed = np.ones(total, dtype=bool)
    if n_art:
        phase1 = np.zeros(total)
        phase1[n_real:] = 1.0
        status = _simplex(T, basis, phase1, allowed)
        if status != OPTIMAL:
            return INFEASIBLE, None, np.nan
        if float(phase1[basis] @ T[:, -1]) > 1e-8:
            return INFEASIBLE, None, np.nan
        # Drive leftover artificials out of the basis (degenerate rows).
        for i in range(m):
            if basis[i] >= n_real:
                pivots = np.flatnonzero(np.abs(T[i, :n_real]) > PIVOT_TOL)
                if pivots.size:
                    _pivot(T, basis, i, pivots[0])
        allowed[n_real:] = False

    cost = np.zeros(total)
    cost[:n] = -c       # maximize c.x == minimize -c.(xp - xn)
    cost[n:2 * n] = c
    status = _simplex(T, basis, cost, allowed)
    if status != OPTIMAL:
        return status, None, np.nan

    z = np.zeros(total)
    z[basis] = T[:, -1]
    x = z[:n] - z[n:2 * n]
    return OPTIMAL, x, float(c @ x)


def feasible_point(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """A point x with A x <= b, or None when the system is infeasible."""
    n = np.atleast_2d(A).shape[1]
    status, x, _ = solve_lp(np.zeros(n), A, b)
    return x if status == OPTIMAL else None


def chebyshev_center(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Center of the largest inscribed Euclidean ball of {A x <= b}.

    Raises ValueError when the system is infeasible or the inscribed
    radius is unbounded (no meaningful center exists).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    norms = np.linalg.norm(A, axis=1)
    A_ext = np.hstack([A, norms[:, None]])
    A_ext = np.vstack([A_ext, np.append(np.zeros(n), -1.0)])  # r >= 0
    b_ext = np.append(b, 0.0)
    c = np.append(np.zeros(n), 1.0)
    status, x, value = solve_lp(c, A_ext, b_ext)
    if status == INFEASIBLE:
        raise ValueError("constraint system is infeasible")
    if status == UNBOUNDED:
        raise ValueError("inscribed radius is unbounded; supply a witness point")
    if value <= 0.0:
        raise ValueError("constraint system has empty interior")
    return x[:n]


def recession_cone_is_trivial(A: np.ndarray) -> bool:
    """True iff {v : A v <= 0} = {0}, i.e. the polyhedron {A x <= b} is bounded."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    box = np.vstack([np.eye(n), -np.eye(n)])
    A_all = np.vstack([A, box])
    b_all = np.concatenate([np.zeros(m), np.ones(2 * n)])
    for i in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = sign
            status, _, value = solve_lp(c, A_all, b_all)
            if status != OPTIMAL or value > 1e-7:  # a rounding floor, far below the box's 1
                return False
    return True
