"""The check suites not already exercised by the acceptance module."""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from funkgeo import suites
from funkgeo.convex_core import EuclideanBall, HPolytope, LinearForm
from funkgeo.suites import SUITES, RunConfig, count_keys, run_suite

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SMOKE_SUITE_SCALE, suite_counts  # noqa: E402

REDUCED = {
    "convex_core.rays": 600,
    "convex_core.monotone": 100,
    "convex_core.equivariance": 100,
    "convex_core.support": 3000,
    "convex_core.intersection": 200,
    "monotonicity.pairs": 1500,
    "geodesic.square_polylines": 80,
    "geodesic.ball_polylines": 250,
    "geodesic.unique_pairs": 80,
    "relative.pairs": 200,
}


@pytest.mark.parametrize("name", ["convex-core", "monotonicity", "geodesic",
                                  "relative"])
def test_suite_passes(name):
    results = SUITES[name](RunConfig(seed=0, counts=REDUCED))
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"{name}: {failed}"


def test_report_shape_and_flags():
    report = run_suite("relative", RunConfig(seed=5, counts=REDUCED))
    assert report["suite"] == "relative"
    assert report["seed"] == 5
    assert report["passed"] is True
    assert all({"suite", "name", "passed", "detail"} <= set(c) for c in report["checks"])
    assert report["_runtime"].count("wall=") == 1


# Counts at about 1/16 of the defaults, for the two suites below.
SIXTEENTH = {
    "invariance.affine_maps": 60,
    "invariance.pairs_per_map": 1,
    "invariance.projective_maps": 62,
    "invariance.orthant_pairs": 625,
    "triangle.edge_triples": 62,
    "triangle.ball_triples": 625,
    "triangle.perturbed": 19,
}


@pytest.mark.parametrize("key, check", [
    ("invariance.affine_maps", "funk_affine_invariance"),
    ("triangle.edge_triples", "square_edge_triples_reach_equality"),
])
def test_a_count_moves_only_the_entry_of_the_check_it_sizes(key, check):
    suite = key.split(".")[0]
    before = run_suite(suite, RunConfig(seed=3, counts=SIXTEENTH))
    after = run_suite(suite, RunConfig(seed=3, counts={**SIXTEENTH, key: SIXTEENTH[key] + 1}))
    assert [c["name"] for c in before["checks"]] == [c["name"] for c in after["checks"]]
    moved = [c["name"] for c, d in zip(before["checks"], after["checks"]) if c != d]
    assert moved == [check]


def test_suite_all_reads_the_count_keys_the_benchmark_scans(monkeypatch):
    # The benchmark's suite-all workload is defined by a scan of suites.py for
    # cfg.count("key", default) literals; a count read any other way, or a
    # default the scan misreads, would change the workload unseen.
    defaults = {}
    count = RunConfig.count

    def recording(self, key, default):
        defaults[key] = default
        return count(self, key, default)

    monkeypatch.setattr(RunConfig, "count", recording)
    cfg = RunConfig(seed=0, counts=suite_counts(ROOT / "src", SMOKE_SUITE_SCALE))
    run_suite("all", cfg)
    scanned = suite_counts(ROOT / "src", 1)  # at scale 1, the defaults
    assert cfg.read == set(defaults) and len(cfg.read) == 34
    # Each suite reads its counts before its first check, so starting the
    # generators finds every key without running a check.
    assert count_keys("all") == cfg.read
    assert set().union(*map(count_keys, SUITES)) == cfg.read
    assert cfg.read - set(scanned) == {"completeness.horizon"}  # the one unscaled key
    assert {key: defaults[key] for key in scanned} == scanned


@pytest.mark.parametrize("key", [
    "axioms.triples", "axioms.projectivity", "axioms.separation", "convex_core.support",
    "invariance.orthant_pairs", "monotonicity.pairs", "balls.sphere_samples"])
def test_a_count_of_one_still_runs_its_check(key):
    # each split of the count floors at the smallest sample its check can use
    suite = key.split(".")[0].replace("_", "-")
    counts = {**suite_counts(ROOT / "src", SMOKE_SUITE_SCALE), key: 1}
    report = run_suite(suite, RunConfig(seed=0, counts=counts))
    assert report["passed"]


@pytest.mark.parametrize("suite, name, check, fault", [
    ("invariance", "hilbert", "hilbert_is_half_log_cross_ratio",
     lambda f: lambda *a: f(*a) * (1.0 + 1e-8)),
    ("relative", "relative_funk", "large_envelope_excess_within_bound",
     lambda f: lambda *a: f(*a) + 1e-5),
    ("relative", "relative_funk", "large_envelope_excess_within_bound",
     lambda f: lambda *a: f(*a) - 1e-5),
], ids=["hilbert-off", "envelope-excess-too-large", "envelope-excess-negative"])
def test_checks_fail_on_a_faulty_metric(monkeypatch, suite, name, check, fault):
    # a check that cannot fail shows nothing: a metric off by a little turns it red
    monkeypatch.setattr(suites, name, fault(getattr(suites, name)))
    report = run_suite(suite, RunConfig(seed=0, counts={**REDUCED, **SIXTEENTH}))
    assert check in [c["name"] for c in report["checks"] if not c["passed"]]


def _skew(monkeypatch, owner, name, factor, where=lambda *args: True):
    """Multiply what ``owner.name`` returns by ``factor`` on the calls ``where`` selects."""
    original = getattr(owner, name)

    def skewed(*args):
        value = original(*args)
        return value * factor if where(*args) else value

    monkeypatch.setattr(owner, name, skewed)


def _skew_form(monkeypatch, factor):
    original = suites.supporting_functional

    def skewed(domain, a):
        h = original(domain, a)
        return LinearForm(factor * h.coeffs, factor * h.offset)

    monkeypatch.setattr(suites, "supporting_functional", skewed)


@pytest.mark.parametrize("suite, check, fault", [
    # the image domains of the two map checks are the ones without vertex data
    ("invariance", "funk_affine_invariance", lambda mp: _skew(
        mp, suites, "funk_batch", 1.0 + 1e-6, lambda domain, X, Y: domain.vertices is None)),
    ("invariance", "hilbert_projective_invariance", lambda mp: _skew(
        mp, suites, "funk_batch", 1.0 + 1e-6, lambda domain, X, Y: domain.vertices is None)),
    ("convex-core", "ray_cast_boundary_consistency", lambda mp: [
        _skew(mp, kind, "_exits", 1.0 + 1e-6) for kind in (HPolytope, EuclideanBall)]),
    # These two bound a sampled maximum, which stays 2e-4 and 4e-2 below their gates,
    # so they see a skew from 1e-3 and 1e-1 on, not at 1e-6.
    ("convex-core", "supporting_functional_below_one", lambda mp: _skew_form(mp, 1.0 + 1e-3)),
    ("invariance", "reverse_funk_diameter_bound", lambda mp: _skew(
        mp, suites, "funk_batch", 1.0 + 1e-1)),
], ids=["affine-image", "projective-image", "ray-hits", "supporting-forms", "reverse-funk"])
def test_block_drawn_checks_fail_on_a_skewed_image_or_hit(monkeypatch, suite, check, fault):
    # Runs the suite up to the check: a skewed cast makes later checks raise.
    fault(monkeypatch)
    generator, salt = suites.SALTED[suite]
    checks = generator(RunConfig(seed=0, counts=suite_counts(ROOT / "src", SMOKE_SUITE_SCALE)))
    next(checks)
    for k in itertools.count():
        result = checks.send(np.random.default_rng([0, salt, k]))
        if result.name == check:
            break
    assert not result.passed


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope", RunConfig())
