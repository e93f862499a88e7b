import json
import threading

import pytest

from funkgeo import tolerances
from funkgeo.cli import main

SQUARE = {
    "dim": 2,
    "kind": "hpolytope",
    "constraints": [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
    "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1]],
    "witness": [0, 0],
}

BALL = {"dim": 2, "kind": "ball", "center": [0, 0], "radius": 1}


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    return str(path)


@pytest.fixture
def ball_file(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(BALL))
    return str(path)


def test_dist_funk_twelve_digits(square_file, capsys):
    assert main(["dist", square_file, "funk", "0,0", "0.5,0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.693147180560"
    assert out[1].startswith("# a(x,y):")


def test_dist_hilbert_ball(ball_file, capsys):
    assert main(["dist", ball_file, "hilbert", "(0,0)", "(0.5,0)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.549306144334"
    assert len([l for l in out if l.startswith("#")]) == 2


def test_dist_equal_points_are_zero(square_file, capsys):
    assert main(["dist", square_file, "maxsym", "0.3,0.3", "0.3,0.3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0.000000000000"


def test_dist_relfunk_with_envelope(square_file, ball_file, capsys):
    assert main(["dist", ball_file, "relfunk", "0,0", "0.5,0",
                 "--u-domain", square_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("# omega(y,x):") for line in out)


def test_dist_validation_failure_exits_2(square_file, capsys):
    assert main(["dist", square_file, "funk", "2,0", "0,0"]) == 2
    assert "interior" in capsys.readouterr().err


def test_boolean_coordinates_in_a_domain_file_exit_2(tmp_path, capsys):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({**BALL, "center": [True, False]}))
    assert main(["dist", str(path), "funk", "0,0", "0.5,0"]) == 2
    assert '"center" must hold numbers' in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["dist", "nowhere.json", "funk", "0,0", "0.5,0"]) == 2


def test_ball_csv_axis_samples(square_file, capsys):
    assert main(["ball", square_file, "0,0", "0.6931471805599453",
                 "-k", "4", "--seed", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# seed=11"
    assert lines[1] == "0.5,0"
    assert set(lines[1:]) == {"0.5,0", "0,0.5", "-0.5,0", "0,-0.5"}


def test_ball_svg_deterministic(square_file, tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    args = ["ball", square_file, "0.1,0", "0.5", "--format", "svg", "-k", "12"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "<!-- seed=0 -->" in text
    assert text.count("<polygon") == 2  # domain outline and ball outline


def test_backward_ball_large_radius_traces_the_domain(square_file, capsys):
    # a backward ball of large radius saturates to the whole domain, so the
    # samples land on the domain boundary itself
    assert main(["ball", square_file, "0.2,0.1", "5.0",
                 "--orientation", "backward", "-k", "8"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for row in rows:
        x, y = (float(c) for c in row.split(","))
        assert max(abs(x), abs(y)) == pytest.approx(1.0, abs=1e-9)


def test_ball_svg_rejected_in_higher_dimension(tmp_path, capsys):
    cube = {"dim": 3, "kind": "hpolytope",
            "constraints": [[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1],
                            [0, -1, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]],
            "witness": [0, 0, 0]}
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(cube))
    assert main(["ball", str(path), "0,0,0", "0.5", "--format", "svg"]) == 2


def test_geodesic_verify(square_file, capsys):
    # "--" keeps argparse from reading negative coordinates as options
    assert main(["geodesic", "verify", square_file, "--",
                 "-0.5,0.5", "0,0.6", "0.5,0.5"]) == 0
    assert capsys.readouterr().out.startswith("geodesic=true")
    assert main(["geodesic", "verify", square_file, "--",
                 "-0.5,0.5", "0,0.9", "0.5,0.5"]) == 0
    assert capsys.readouterr().out.startswith("geodesic=false")


def test_project_segment(square_file, capsys):
    assert main(["project", square_file, "0,0",
                 "--segment", "0.5,-0.25", "0.5,0.25"]) == 0
    out = capsys.readouterr().out
    assert "distance=0.693147180560" in out


def test_project_onto_polytope(square_file, tmp_path, capsys):
    target = {"dim": 2, "kind": "hpolytope",
              "constraints": [[-1, 0, -0.5], [1, 0, 0.9], [0, 1, 0.9], [0, -1, 0.9]],
              "witness": [0.7, 0]}
    path = tmp_path / "target.json"
    path.write_text(json.dumps(target))
    assert main(["project", square_file, "0,0", "--onto", str(path)]) == 0
    out = capsys.readouterr().out
    assert "distance=0.693147180560" in out
    assert "# certificate:" in out


def test_tangent_norm_and_steps(ball_file, capsys):
    assert main(["tangent", ball_file, "0.5,0", "1,0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "2.000000000000"
    assert main(["tangent", ball_file, "0,0", "1,0",
                 "--steps", "0.01,0.001"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and all(l.startswith("# t=") for l in out[1:])


def test_suite_report_deterministic(tmp_path):
    args = ["suite", "ratio", "--seed", "3",
            "--count", "ratio.configs=200", "--out"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    lines1 = out1.read_text().splitlines()
    lines2 = out2.read_text().splitlines()
    diff = [i for i, (a, b) in enumerate(zip(lines1, lines2)) if a != b]
    assert len(lines1) == len(lines2)
    assert all("_runtime" in lines1[i] for i in diff)  # only the meta line moves
    report = json.loads(out1.read_text())
    assert report["passed"] is True
    assert report["seed"] == 3
    assert report["count_overrides"] == {"ratio.configs": 200}


def test_suite_unknown_name_exits_2(capsys):
    assert main(["suite", "nonsense"]) == 2


def test_suite_tolerance_override_can_force_failure(capsys):
    # a tolerance below the float rounding floor turns the suite red
    assert main(["suite", "ratio", "--count", "ratio.configs=50",
                 "--tol", "ratio.round_trip=3e-16"]) == 1


def _constants():
    return {k: v for k, v in vars(tolerances).items() if k.isupper()}


def test_suite_unknown_override_keys_exit_2(tmp_path, capsys):
    before = _constants()
    out = tmp_path / "report.json"
    assert main(["suite", "ratio", "--count", "ratio.configs=20",
                 "--count", "ratio.config=5", "--count", "axioms.triples=5",
                 "--tol", "eps_bd=1e-6", "--tol", "ratio.round_trip=1e-9",
                 "--tol", "ratio.roundtrip=1e-9", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for key in ("--count ratio.config,", "--count axioms.triples", "--tol ratio.roundtrip",
                "--tol eps_bd"):
        assert key in err
    assert "ratio.configs" not in err and "round_trip" not in err
    assert not out.exists()
    assert _constants() == before


def test_tolerance_override_must_exceed_machine_epsilon(capsys):
    assert main(["suite", "ratio", "--tol", "ratio.round_trip=1e-300"]) == 2


def test_tolerance_overrides_do_not_leak_between_runs(tmp_path, capsys):
    before = _constants()
    args = ["suite", "convex-core", "--count", "convex_core.rays=20",
            "--count", "convex_core.monotone=5", "--count", "convex_core.equivariance=5",
            "--count", "convex_core.support=50", "--count", "convex_core.intersection=10"]
    # a module constant's name is no key: it exits 2 and changes nothing
    assert main(args + ["--tol", "eps_bd=1e-6", "--out", str(tmp_path / "r0.json")]) == 2
    assert "--tol eps_bd" in capsys.readouterr().err
    assert not (tmp_path / "r0.json").exists()
    assert _constants() == before
    assert main(args + ["--tol", "convex_core.boundary=1e-6",
                        "--out", str(tmp_path / "r1.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2.json")]) == 0
    assert _constants() == before
    gates = [check["detail"]["tolerance"]
             for i in (1, 2)
             for check in json.loads((tmp_path / f"r{i}.json").read_text())["checks"]
             if check["name"] == "ray_cast_boundary_consistency"]
    assert gates == [1e-6, tolerances.EPS_BD]


def test_concurrent_suites_keep_their_own_gates(tmp_path):
    gates = (1e-9, 2e-9)
    barrier = threading.Barrier(len(gates))
    codes = {}

    def run(gate):
        barrier.wait(timeout=60)
        codes[gate] = main(["suite", "ratio", "--count", "ratio.configs=300",
                            "--tol", f"ratio.round_trip={gate!r}",
                            "--out", str(tmp_path / f"{gate!r}.json")])

    threads = [threading.Thread(target=run, args=(gate,)) for gate in gates]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert codes == {gate: 0 for gate in gates}
    for gate in gates:
        report = json.loads((tmp_path / f"{gate!r}.json").read_text())
        assert report["tolerance_overrides"] == {"ratio.round_trip": gate}
        assert [c["detail"]["tolerance"] for c in report["checks"]
                if "tolerance" in c["detail"]] == [gate, gate]


@pytest.mark.parametrize("override, message", [
    (["--count", "ratio.configs=abc"], "--count ratio.configs must be an integer"),
    (["--count", "ratio.configs=0"], "--count ratio.configs must be an integer of at least 1"),
    (["--count", "ratio.configs=-3"], "--count ratio.configs must be an integer of at least 1"),
    (["--count", "ratio.configs"], "--count expects KEY=VALUE"),
    (["--tol", "ratio.round_trip=x"], "--tol ratio.round_trip must be a finite number"),
    (["--tol", "ratio.round_trip=nan"], "--tol ratio.round_trip must be a finite number"),
    (["--tol", "ratio.round_trip=inf"], "--tol ratio.round_trip must be a finite number"),
], ids=["count-text", "count-zero", "count-negative", "count-no-value",
        "tol-text", "tol-nan", "tol-inf"])
def test_invalid_override_values_exit_2(override, message, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["suite", "ratio", *override, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_dist_points_of_different_dimensions_exit_2(square_file, capsys):
    assert main(["dist", square_file, "funk", "0,0", "0.5,0,0"]) == 2
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["funk", "rfunk", "hilbert", "maxsym", "relfunk"])
def test_dist_equal_points_outside_the_domain_exit_2(square_file, metric, capsys):
    assert main(["dist", square_file, metric, "5,5", "5,5"]) == 2
    assert "interior" in capsys.readouterr().err
