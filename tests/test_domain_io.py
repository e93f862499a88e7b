import json
import math

import pytest

from funkgeo import DomainSpecError, funk, load_domain, parse_domain

SQUARE = {
    "dim": 2,
    "kind": "hpolytope",
    "constraints": [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
    "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]],
    "witness": [0, 0],
}

BALL = {"dim": 2, "kind": "ball", "center": [0, 0], "radius": 1}

AFFINE = {"dim": 2, "kind": "affine_image", "inner": BALL,
          "matrix": [[2, 0], [0, 2]], "translation": [0, 0]}


def test_parse_square_and_query():
    domain = parse_domain(json.dumps(SQUARE))
    assert funk(domain, [0.0, 0.0], [0.5, 0.0]) == pytest.approx(math.log(2.0))


def test_parse_ball():
    domain = parse_domain(json.dumps(BALL))
    assert domain.contains([0.5, 0.0]) == pytest.approx(0.5)


def test_parse_affine_image():
    spec = {"dim": 2, "kind": "affine_image", "inner": BALL,
            "matrix": [[2, 0], [0, 2]], "translation": [0, 0]}
    domain = parse_domain(json.dumps(spec))
    assert domain.contains([1.5, 0.0]) == pytest.approx(0.5)


def test_parse_intersection():
    spec = {"dim": 2, "kind": "intersection", "parts": [SQUARE, BALL],
            "witness": [0, 0]}
    domain = parse_domain(json.dumps(spec))
    assert domain.contains([0.9, 0.9]) < 0.0  # cut off by the ball
    assert domain.contains([0.0, 0.0]) > 0.0


def test_load_domain_from_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE, indent=1))
    domain = load_domain(path)
    assert domain.dim == 2


@pytest.mark.parametrize("mutate, needle", [
    (lambda d: d.update(radius=-1), "radius"),
    (lambda d: d.update(kind="wedge"), "kind"),
    (lambda d: d.update(dim=0), "dim"),
])
def test_invalid_values_rejected_with_named_invariant(mutate, needle):
    spec = dict(BALL)
    mutate(spec)
    with pytest.raises(DomainSpecError, match=needle):
        parse_domain(json.dumps(spec))


@pytest.mark.parametrize("key", ["dim", "radius"])
def test_json_booleans_are_not_numbers(key):
    spec = {"dim": 1, "kind": "ball", "center": [0.0], "radius": 1}
    spec[key] = True
    with pytest.raises(DomainSpecError, match=key):
        parse_domain(json.dumps(spec))


@pytest.mark.parametrize("spec, key", [
    ({**BALL, "center": [True, False]}, "center"),
    ({**AFFINE, "translation": [0, True]}, "translation"),
    ({**SQUARE, "witness": [False, 0]}, "witness"),
    ({**SQUARE, "vertices": [[1, 1], [1, -1], [-1, 1], [-1, True]]}, "vertices"),
    ({**SQUARE, "constraints": [[True, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]},
     "constraints"),
    ({**AFFINE, "matrix": [[2, 0], [False, 2]]}, "matrix"),
], ids=["center", "translation", "witness", "vertices", "constraints", "matrix"])
def test_json_booleans_in_number_lists_are_rejected(spec, key):
    with pytest.raises(DomainSpecError, match=f'"{key}" must hold numbers'):
        parse_domain(json.dumps(spec))


def test_bad_constraint_row_width():
    spec = dict(SQUARE)
    spec["constraints"] = [[1, 0, 0, 1]]
    with pytest.raises(DomainSpecError, match="constraint row 0"):
        parse_domain(json.dumps(spec))


def test_witness_violation_rejected():
    spec = dict(SQUARE)
    spec = json.loads(json.dumps(spec))
    spec["witness"] = [5, 0]
    with pytest.raises(DomainSpecError, match="witness"):
        parse_domain(json.dumps(spec))


def test_singular_affine_matrix_rejected():
    spec = {"dim": 2, "kind": "affine_image", "inner": BALL,
            "matrix": [[1, 1], [1, 1]], "translation": [0, 0]}
    with pytest.raises(DomainSpecError, match="singular"):
        parse_domain(json.dumps(spec))


def test_errors_carry_line_anchors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n "dim": 2,\n "kind": "ball",\n "center": [0, 0],\n'
                    ' "radius": -2\n}\n')
    with pytest.raises(DomainSpecError) as err:
        load_domain(path)
    assert f"{path}:5" in str(err.value)  # the "radius" line


def test_json_syntax_errors_carry_line_numbers():
    with pytest.raises(DomainSpecError, match="<string>:2"):
        parse_domain('{\n "dim": oops\n}')
