"""Command-line front end.

Subcommands::

    dist      DOMAIN METRIC X Y [--u-domain FILE]
    ball      DOMAIN X RHO [--orientation forward|backward] [-k N]
              [--format csv|svg] [--out FILE] [--seed N]
    geodesic  verify DOMAIN P P [P ...]
    project   DOMAIN X (--segment P Q | --onto FILE)
    tangent   DOMAIN P V [--steps t1,t2,...]
    suite     NAME [--seed N] [--count K=V ...] [--out FILE]

Points are comma-separated coordinates, e.g. ``0.5,0`` (parentheses are
tolerated).  A suite's gates are constants of its checks, and each check's
report detail shows the value it measured; ``--count KEY=N`` sets the size
of one sample, and a key that no check of the named suite reads is rejected
before any check runs.  Exit codes: 0 all good, 1 an invariant check failed,
2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import tolerances
from .ball_geometry import BACKWARD, FORWARD, backward_ball, forward_ball, sphere_sample
from .convex_core import DomainSpecError, GeometryError, as_point
from .domain_io import load_domain
from .finsler_tangent import finite_difference_check, tangent_norm
from .geodesy import verify_geodesic
from .metric_engine import funk, hilbert, max_symmetrized, relative_funk, reverse_funk
from .projection import nearest_on_convex, nearest_on_segment
from .suites import SUITES, RunConfig, count_keys, run_suite
from .svg_out import domain_outline, render_ball_scene


def _parse_point(text: str) -> np.ndarray:
    cleaned = text.strip().strip("()[]")
    try:
        return as_point([float(c) for c in cleaned.split(",") if c.strip()])
    except (ValueError, GeometryError) as exc:
        raise GeometryError(f"cannot parse point {text!r}: {exc}") from exc


def _parse_counts(pairs: list[str]) -> dict:
    """KEY=VALUE pairs, each value an integer of at least 1."""
    out = {}
    for item in pairs or []:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep:
            raise GeometryError(f"--count expects KEY=VALUE, got {item!r}")
        try:
            value = int(raw)
        except ValueError:
            value = 0  # fails the range test below
        if value < 1:
            raise GeometryError(f"--count {key} must be an integer of at least 1, got {raw!r}")
        out[key] = value
    return out


def _fmt12(value: float) -> str:
    return f"{value:.12f}"


def _describe_hit(label: str, hit) -> str:
    if hit.at_infinity:
        d = ",".join(f"{c:.12g}" for c in hit.direction)
        return f"# {label}: at_infinity direction=({d})"
    p = ",".join(f"{c:.12g}" for c in hit.point)
    return f"# {label}: t={hit.t:.12g} point=({p})"


def _cmd_dist(args) -> int:
    domain = load_domain(args.domain)
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    forward = ("a(x,y)", domain, x, y)
    backward = ("a(y,x)", domain, y, x)
    if args.metric == "relfunk":
        outer = load_domain(args.u_domain) if args.u_domain else None
        value = relative_funk(domain, outer, x, y)
        rays = [forward] if outer is None else [forward, ("omega(y,x)", outer, y, x)]
    else:
        metric, rays = {"funk": (funk, [forward]),
                        "rfunk": (reverse_funk, [backward]),
                        "hilbert": (hilbert, [forward, backward]),
                        "maxsym": (max_symmetrized, [forward, backward])}[args.metric]
        value = metric(domain, x, y)
    print(_fmt12(value))
    # The metric has validated both points; coincident ones cast no ray.
    if np.linalg.norm(y - x) > tolerances.EPS_PT:
        for label, dom, p, q in rays:
            print(_describe_hit(label, dom._hit(p, q, q - p)))
    return 0


def _cmd_ball(args) -> int:
    domain = load_domain(args.domain)
    x = _parse_point(args.x)
    maker = forward_ball if args.orientation == FORWARD else backward_ball
    ball = maker(domain, x, args.rho)
    samples = sphere_sample(ball, args.k, seed=args.seed)
    if args.format == "csv":
        rows = [f"# seed={args.seed}"]
        rows += [",".join(f"{c:.12g}" for c in p) for p in samples]
        payload = "\n".join(rows) + "\n"
    else:
        if domain.dim != 2:
            raise GeometryError("svg output is only available in dimension 2")
        payload = render_ball_scene(domain, domain_outline(ball.realized),
                                    samples, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_geodesic(args) -> int:
    domain = load_domain(args.domain)
    pts = [_parse_point(p) for p in args.points]
    ok, defect = verify_geodesic(domain, pts)
    print(f"geodesic={'true' if ok else 'false'} defect={defect:.12g}")
    return 0


def _cmd_project(args) -> int:
    domain = load_domain(args.domain)
    x = _parse_point(args.x)
    if args.segment:
        p, q = (_parse_point(s) for s in args.segment)
        foot = nearest_on_segment(domain, x, (p, q))
    else:
        foot = nearest_on_convex(domain, x, load_domain(args.onto))
    point = ",".join(f"{c:.12g}" for c in foot.point)
    print(f"foot=({point})")
    print(f"distance={_fmt12(foot.distance)}")
    if foot.certificate is not None:
        coeffs = ",".join(f"{c:.12g}" for c in foot.certificate.coeffs)
        print(f"# certificate: coeffs=({coeffs}) offset={foot.certificate.offset:.12g}")
    return 0


def _cmd_tangent(args) -> int:
    domain = load_domain(args.domain)
    p = _parse_point(args.p)
    v = _parse_point(args.v)
    print(_fmt12(tangent_norm(domain, p, v)))
    if args.steps:
        steps = [float(s) for s in args.steps.split(",")]
        for t, quotient, error in finite_difference_check(
                domain, p, np.zeros(domain.dim), v, steps):
            print(f"# t={t:.12g} quotient={quotient:.12g} error={error:.12g}")
    return 0


def _cmd_suite(args) -> int:
    cfg = RunConfig(seed=args.seed, counts=_parse_counts(args.count))
    read = count_keys(args.name)
    unknown = [f"--count {key}" for key in cfg.counts if key not in read]
    if unknown:
        raise KeyError(f"no check of suite {args.name!r} reads {', '.join(unknown)}")
    report = run_suite(args.name, cfg)
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funkgeo",
        description="Weak metrics of convex domains: distances, balls, "
                    "geodesics, projections, tangent norms, and check suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two interior points")
    p.add_argument("domain", help="domain specification file (JSON)")
    p.add_argument("metric", choices=["funk", "rfunk", "hilbert", "relfunk", "maxsym"])
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--u-domain", help="englobing domain for relfunk")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("ball", help="sample a metric sphere (CSV or SVG)")
    p.add_argument("domain")
    p.add_argument("x")
    p.add_argument("rho", type=float)
    p.add_argument("--orientation", choices=[FORWARD, BACKWARD], default=FORWARD)
    p.add_argument("-k", type=int, default=64, help="number of boundary samples")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("geodesic", help="geodesic checks")
    gsub = p.add_subparsers(dest="verb", required=True)
    g = gsub.add_parser("verify", help="test a polyline for geodesicity")
    g.add_argument("domain")
    g.add_argument("points", nargs="+", help="two or more polyline points")
    g.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("project", help="nearest point on a segment or convex set")
    p.add_argument("domain")
    p.add_argument("x")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--segment", nargs=2, metavar=("P", "Q"))
    group.add_argument("--onto", help="target polytope file")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("tangent", help="tangent Minkowski norm at a point")
    p.add_argument("domain")
    p.add_argument("p")
    p.add_argument("v")
    p.add_argument("--steps", help="comma-separated difference-quotient steps")
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser("suite", help="run a named check suite")
    p.add_argument("name", help=f"one of {sorted(SUITES)} or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", action="append", metavar="KEY=VAL")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainSpecError, GeometryError, KeyError, OSError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
