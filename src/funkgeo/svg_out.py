"""Deterministic SVG emission for 2-d domains and metric balls.

Fixed viewport mapping (1 unit = 100 px, y axis flipped) and fixed
12-significant-digit number formatting keep the output byte-stable, so
renders can be compared as golden files.  Curved boundaries are drawn as
256-sample polylines.
"""

from __future__ import annotations

import numpy as np

from .convex_core import ConvexDomain, GeometryError

PX_PER_UNIT = 100.0
OUTLINE_SAMPLES = 256
PAD_UNITS = 0.2


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def domain_outline(domain: ConvexDomain, samples: int = OUTLINE_SAMPLES) -> np.ndarray:
    """Closed boundary polyline of a bounded 2-d domain.

    Domains with vertex data use the exact polygon; everything else is
    sampled by ray casting at equally spaced angles.
    """
    if domain.dim != 2:
        raise GeometryError("outlines are only drawn in dimension 2")
    if domain.vertices is not None:
        center = domain.vertices.mean(axis=0)
        order = np.argsort(np.arctan2(domain.vertices[:, 1] - center[1],
                                      domain.vertices[:, 0] - center[0]))
        return domain.vertices[order]
    center = domain.base_point()
    pts = []
    for theta in 2.0 * np.pi * np.arange(samples) / samples:
        u = np.array([np.cos(theta), np.sin(theta)])
        hit = domain._cast(center, center + u)
        if hit.at_infinity:
            raise GeometryError("cannot outline an unbounded domain")
        pts.append(hit.point)
    return np.array(pts)


def _polygon_element(points_px: np.ndarray, stroke: str, fill: str = "none") -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points_px)
    return (f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
            'stroke-width="1" />')


def render_ball_scene(domain: ConvexDomain, ball_outline: np.ndarray,
                      samples: np.ndarray, seed: int) -> str:
    """SVG with the domain outline, the realized ball, and sphere samples."""
    outline = domain_outline(domain)
    all_pts = np.vstack([outline, ball_outline, samples])
    min_xy = all_pts.min(axis=0) - PAD_UNITS
    max_xy = all_pts.max(axis=0) + PAD_UNITS
    width = (max_xy[0] - min_xy[0]) * PX_PER_UNIT
    height = (max_xy[1] - min_xy[1]) * PX_PER_UNIT

    def to_px(pts: np.ndarray) -> np.ndarray:
        x = (pts[:, 0] - min_xy[0]) * PX_PER_UNIT
        y = (max_xy[1] - pts[:, 1]) * PX_PER_UNIT  # y axis flipped
        return np.column_stack([x, y])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<!-- seed={seed} -->',
        _polygon_element(to_px(outline), stroke="#000000"),
        _polygon_element(to_px(ball_outline), stroke="#c03030"),
    ]
    for x, y in to_px(samples):
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2" '
                     'fill="#2040c0" />')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
