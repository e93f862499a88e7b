import json
import threading

import pytest

from funkgeo import tolerances
from funkgeo.cli import main
from funkgeo.suites import SUITES, CheckResult

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


def test_project_onto_a_target_of_another_dimension_exits_2(square_file, tmp_path, capsys):
    box3 = {"dim": 3, "kind": "hpolytope",
            "constraints": [[1, 0, 0, 0.5], [-1, 0, 0, 0.5], [0, 1, 0, 0.5],
                            [0, -1, 0, 0.5], [0, 0, 1, 0.5], [0, 0, -1, 0.5]],
            "witness": [0, 0, 0]}
    path = tmp_path / "box3.json"
    path.write_text(json.dumps(box3))
    assert main(["project", square_file, "0.5,0.5", "--onto", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "target set has dimension 3, expected 2" in captured.err


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


def test_a_failing_check_exits_1_and_still_writes_its_report(tmp_path, monkeypatch):
    monkeypatch.setitem(SUITES, "ratio", lambda cfg: [CheckResult("always_fails", False, {})])
    out = tmp_path / "report.json"
    assert main(["suite", "ratio", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [("always_fails", False)]


def test_tol_option_is_rejected_when_arguments_are_parsed(tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["suite", "ratio", "--tol", "ratio.round_trip=1e-9", "--out", str(out)])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def _constants():
    return {k: v for k, v in vars(tolerances).items() if k.isupper()}


def test_suite_unknown_count_keys_exit_2(tmp_path, capsys):
    before = _constants()
    out = tmp_path / "report.json"
    assert main(["suite", "ratio", "--count", "ratio.configs=20",
                 "--count", "ratio.config=5", "--count", "axioms.triples=5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--count ratio.config," in err and "--count axioms.triples" in err
    assert "ratio.configs" not in err
    assert not out.exists()
    assert _constants() == before


def test_unknown_count_key_is_rejected_before_any_check_runs(tmp_path, capsys, monkeypatch):
    ran = []
    for name, suite in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, lambda cfg, _n=name, _s=suite: ran.append(_n) or _s(cfg))
    out = tmp_path / "report.json"
    assert main(["suite", "all", "--count", "triangle.edge_triple=5", "--out", str(out)]) == 2
    assert "no check of suite 'all' reads --count triangle.edge_triple" in capsys.readouterr().err
    assert not out.exists()
    assert ran == []


def test_count_overrides_do_not_leak_between_runs(tmp_path, capsys):
    before = _constants()
    args = ["suite", "convex-core", "--count", "convex_core.rays=20",
            "--count", "convex_core.equivariance=5", "--count", "convex_core.support=50",
            "--count", "convex_core.intersection=10"]
    # a module constant's name is no key: it exits 2 and changes nothing
    assert main(args + ["--count", "eps_bd=5", "--out", str(tmp_path / "r0.json")]) == 2
    assert "--count eps_bd" in capsys.readouterr().err
    assert not (tmp_path / "r0.json").exists()
    assert _constants() == before
    assert main(args + ["--count", "convex_core.monotone=7",
                        "--out", str(tmp_path / "r1.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2.json")]) == 0
    assert _constants() == before
    reports = [json.loads((tmp_path / f"r{i}.json").read_text()) for i in (1, 2)]
    assert [r["count_overrides"].get("convex_core.monotone") for r in reports] == [7, None]
    assert [c["detail"]["trials"] for r in reports for c in r["checks"]
            if c["name"] == "hit_parameter_monotone_in_slack"] == [7, 300]


def test_concurrent_suites_keep_their_own_counts(tmp_path):
    counts = (200, 300)
    barrier = threading.Barrier(len(counts))
    codes = {}

    def run(n):
        barrier.wait(timeout=60)
        codes[n] = main(["suite", "ratio", "--count", f"ratio.configs={n}",
                         "--out", str(tmp_path / f"{n}.json")])

    threads = [threading.Thread(target=run, args=(n,)) for n in counts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert codes == {n: 0 for n in counts}
    for n in counts:
        report = json.loads((tmp_path / f"{n}.json").read_text())
        assert report["count_overrides"] == {"ratio.configs": n}
        assert report["checks"][0]["detail"]["configs"] == n


@pytest.mark.parametrize("override, message", [
    (["--count", "ratio.configs=abc"], "--count ratio.configs must be an integer"),
    (["--count", "ratio.configs=0"], "--count ratio.configs must be an integer of at least 1"),
    (["--count", "ratio.configs=-3"], "--count ratio.configs must be an integer of at least 1"),
    (["--count", "ratio.configs"], "--count expects KEY=VALUE"),
], ids=["count-text", "count-zero", "count-negative", "count-no-value"])
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
