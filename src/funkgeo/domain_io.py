"""Domain specification files (JSON).

Schema, all numbers double precision::

    {"dim": 2, "kind": "hpolytope",
     "constraints": [[c1, ..., cn, s], ...],   # rows of <c, x> < s
     "vertices": [[...], ...],                 # optional dual description
     "witness": [...]}                         # optional interior point

    {"dim": 2, "kind": "ball", "center": [...], "radius": r}

    {"dim": 2, "kind": "affine_image", "inner": {...},
     "matrix": [[...], ...], "translation": [...]}

    {"dim": 2, "kind": "intersection", "parts": [{...}, ...],
     "witness": [...]}                         # witness optional

Validation failures raise :class:`DomainSpecError` with the source name
and a best-effort line anchor for the offending key.
"""

from __future__ import annotations

import json

import numpy as np

from .convex_core import (
    AffineImage,
    AffineMap,
    ConvexDomain,
    DomainSpecError,
    EuclideanBall,
    HPolytope,
    IntersectionDomain,
)

_KINDS = ("hpolytope", "ball", "affine_image", "intersection")


def _key_line(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


class _Source:
    def __init__(self, text: str, name: str):
        self.text = text
        self.name = name

    def fail(self, key: str | None, message: str) -> "DomainSpecError":
        line = _key_line(self.text, key) if key else None
        anchor = f"{self.name}:{line}" if line else self.name
        return DomainSpecError(f"{anchor}: {message}")


class _anchored:
    """Attach a source anchor to construction errors raised in the body."""

    def __init__(self, src: "_Source", key: str):
        self.src = src
        self.key = key

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, DomainSpecError) and not str(exc).startswith(self.src.name):
            raise self.src.fail(self.key, str(exc)) from exc
        return False


def _has_bool(obj) -> bool:
    return isinstance(obj, bool) or (isinstance(obj, list) and any(map(_has_bool, obj)))


def _array(obj, src: _Source, key: str, shape: str) -> np.ndarray:
    # numpy would read JSON true and false as 1.0 and 0.0
    if _has_bool(obj):
        raise src.fail(key, f'"{key}" must hold numbers, not true or false')
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise src.fail(key, f'"{key}" must be {shape}') from None


def _number_list(obj, src: _Source, key: str, length: int | None = None) -> np.ndarray:
    arr = _array(obj, src, key, "a list of numbers")
    if arr.ndim != 1:
        raise src.fail(key, f'"{key}" must be a flat list of numbers')
    if not np.all(np.isfinite(arr)):
        raise src.fail(key, f'"{key}" contains a non-finite number')
    if length is not None and arr.size != length:
        raise src.fail(key, f'"{key}" has length {arr.size}, expected {length}')
    return arr


def _build(obj, src: _Source) -> ConvexDomain:
    if not isinstance(obj, dict):
        raise src.fail(None, "domain description must be a JSON object")
    dim = obj.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise src.fail("dim", '"dim" must be a positive integer')
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise src.fail("kind", f'"kind" must be one of {list(_KINDS)}, got {kind!r}')

    if kind == "hpolytope":
        return _build_polytope(obj, dim, src)
    if kind == "ball":
        center = _number_list(obj.get("center"), src, "center", dim)
        radius = obj.get("radius")
        if isinstance(radius, bool) or not isinstance(radius, (int, float)):
            raise src.fail("radius", '"radius" must be a number')
        with _anchored(src, "radius"):
            return EuclideanBall(center, radius)
    if kind == "affine_image":
        inner = obj.get("inner")
        if inner is None:
            raise src.fail("inner", 'affine_image needs an "inner" domain')
        translation = _number_list(obj.get("translation"), src, "translation", dim)
        M = _array(obj.get("matrix"), src, "matrix", "a numeric matrix")
        if M.shape != (dim, dim):
            raise src.fail("matrix", f'"matrix" must be {dim}x{dim}')
        inner_domain = _build(inner, src)
        with _anchored(src, "matrix"):
            return AffineImage(inner_domain, AffineMap(M, translation))
    parts = obj.get("parts")
    if not isinstance(parts, list) or not parts:
        raise src.fail("parts", 'intersection needs a nonempty "parts" list')
    witness = obj.get("witness")
    if witness is not None:
        witness = _number_list(witness, src, "witness", dim)
    built = [_build(p, src) for p in parts]
    with _anchored(src, "parts"):
        return IntersectionDomain(built, witness=witness)


def _build_polytope(obj, dim: int, src: _Source) -> HPolytope:
    rows = obj.get("constraints")
    if not isinstance(rows, list) or not rows:
        raise src.fail("constraints", 'hpolytope needs a nonempty "constraints" list')
    A, b = [], []
    for i, row in enumerate(rows):
        arr = _number_list(row, src, "constraints")
        if arr.size != dim + 1:
            raise src.fail(
                "constraints",
                f"constraint row {i} has {arr.size} numbers, expected "
                f"{dim} coefficients plus a threshold")
        A.append(arr[:dim])
        b.append(arr[dim])
    vertices = obj.get("vertices")
    if vertices is not None:
        if not isinstance(vertices, list):
            raise src.fail("vertices", '"vertices" must be a list of points')
        vertices = [_number_list(v, src, "vertices", dim) for v in vertices]
    witness = obj.get("witness")
    if witness is not None:
        witness = _number_list(witness, src, "witness", dim)
    try:
        return HPolytope(np.array(A), np.array(b), vertices=vertices, witness=witness)
    except DomainSpecError as exc:
        key = "witness" if "witness" in str(exc) else (
            "vertices" if "vertex" in str(exc) or "constraint" in str(exc) else "constraints")
        raise src.fail(key, str(exc)) from exc


def parse_domain(text: str, source: str = "<string>") -> ConvexDomain:
    """Parse a domain description from JSON text."""
    src = _Source(text, source)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainSpecError(f"{source}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    return _build(obj, src)


def load_domain(path) -> ConvexDomain:
    """Read and validate a domain specification file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_domain(text, source=str(path))
