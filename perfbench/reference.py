"""Reference formulas the benchmark checks the program against.

Domains are described by plain tuples, never by program objects, so a
defect in the program's ray cast cannot hide in its own reference:

- ``("poly", A, b)``            open polytope {x : A x < b},
- ``("ball", center, radius)``  open Euclidean ball,
- ``("affine", inner, M, t)``   image of ``inner`` under x -> M x + t,
- ``("inter", (part, ...))``    intersection of the parts.

Every function takes row stacks of points (shape ``(m, dim)``) and returns
one value per row.
"""

from __future__ import annotations

import numpy as np


def exit_parameter(spec, X, D) -> np.ndarray:
    """Largest t with X + t D in the closure: inf where the ray never exits."""
    kind = spec[0]
    if kind == "poly":
        _, A, b = spec
        deriv = D @ A.T
        slack = b - X @ A.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(deriv > 0.0, slack / deriv, np.inf)
        return t.min(axis=1)
    if kind == "ball":
        _, c, r = spec
        W = X - c
        alpha = np.einsum("ij,ij->i", D, D)
        beta = np.einsum("ij,ij->i", D, W)
        gamma = np.einsum("ij,ij->i", W, W) - r * r
        root = np.sqrt(beta * beta - alpha * gamma)
        # Stable positive root of alpha t^2 + 2 beta t + gamma = 0, gamma < 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(beta > 0.0, -gamma / (beta + root), (root - beta) / alpha)
    if kind == "affine":
        _, inner, M, t = spec
        Minv = np.linalg.inv(M)
        return exit_parameter(inner, (X - t) @ Minv.T, D @ Minv.T)
    if kind == "inter":
        return np.min([exit_parameter(p, X, D) for p in spec[1]], axis=0)
    raise ValueError(f"unknown domain kind {kind!r}")


def margin(spec, X) -> np.ndarray:
    """A lower bound on the Euclidean distance to the boundary (negative outside)."""
    kind = spec[0]
    if kind == "poly":
        _, A, b = spec
        return ((b - X @ A.T) / np.linalg.norm(A, axis=1)).min(axis=1)
    if kind == "ball":
        _, c, r = spec
        return r - np.linalg.norm(X - c, axis=1)
    if kind == "affine":
        _, inner, M, t = spec
        sigma_min = np.linalg.svd(M, compute_uv=False)[-1]
        return sigma_min * margin(inner, (X - t) @ np.linalg.inv(M).T)
    if kind == "inter":
        return np.min([margin(p, X) for p in spec[1]], axis=0)
    raise ValueError(f"unknown domain kind {kind!r}")


def funk(spec, X, Y) -> np.ndarray:
    """Funk distance from X to Y, by a formula of its own for each kind.

    Polytopes take the maximum of slack log-ratios, balls the stable
    quadratic root, affine images pull the points back, and intersections
    take the maximum over their parts (the nearest exit wins).
    """
    kind = spec[0]
    if kind == "poly":
        _, A, b = spec
        ratios = np.log((b - X @ A.T) / (b - Y @ A.T))
        return np.maximum(ratios.max(axis=1), 0.0)
    if kind == "ball":
        t = exit_parameter(spec, X, Y - X)
        return np.log(t / (t - 1.0))
    if kind == "affine":
        _, inner, M, t = spec
        Minv = np.linalg.inv(M)
        return funk(inner, (X - t) @ Minv.T, (Y - t) @ Minv.T)
    if kind == "inter":
        return np.max([funk(p, X, Y) for p in spec[1]], axis=0)
    raise ValueError(f"unknown domain kind {kind!r}")


def tangent_norm(spec, P, V) -> np.ndarray:
    """Gauge 1/t of the domain translated to P, evaluated at V."""
    t = exit_parameter(spec, P, V)
    return np.where(np.isfinite(t), 1.0 / t, 0.0)


def exit_points(spec, X, Y) -> np.ndarray:
    """Homogeneous unit coordinates of the exits of X -> Y (all finite here)."""
    t = exit_parameter(spec, X, Y - X)
    pts = X + t[:, None] * (Y - X)
    hom = np.column_stack([pts, np.ones(len(pts))])
    return hom / np.linalg.norm(hom, axis=1, keepdims=True)


def close(value, ref, rel: float = 1e-9) -> np.ndarray:
    """Agreement within ``rel`` relative to max(1, |ref|)."""
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return np.abs(value - ref) <= rel * np.maximum(1.0, np.abs(ref))
