"""Command-line interface: every subcommand emits a deterministic JSON (or
CSV) report embedding the artifact version and a digest of its semantic
configuration.  Exit codes: 0 clean, 2 findings (collision classes or
duplicate points), 1 errors.

Defaults reproduce the headline configuration: curve (1, -1), generator
(1, 1), parameters (1, 1, 2, 9).
"""

import argparse
import os
import random
import sys

from .collisions import (
    DEFAULT_MEMORY_CEILING,
    f_injectivity_scan,
    p_injectivity_scan,
    zagier_probe,
)
from .curve import Curve, Point
from .injection import InjectionParams, UniquenessFunction, validate_params
from .pairing import cantor_pair, cantor_unpair
from .points import OrbitSpec, brute_force_points, orbit
from .rational import format_rational, parse_rational
from .real_locus import (
    REFERENCE_MIN_SLOPE_248C1,
    density_report,
    real_components,
    slope_bound,
)
from .reporting import VERSION, canonical_json, config_digest
from .weierstrass import lambda_match, laurent_fit, ode_residual, periods, strong_uniqueness_probe

DEFAULT_CURVE = "1,-1"
DEFAULT_GEN = "1,1"
DEFAULT_PARAMS = "1,1,2,9"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_curve(text: str) -> Curve:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"expected a,b for --curve, got {text!r}")
    return Curve(parse_rational(parts[0]), parse_rational(parts[1]))


def _parse_point(text: str, curve: Curve) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"expected x,y for a point, got {text!r}")
    return curve.point(parse_rational(parts[0]), parse_rational(parts[1]))


def _parse_params(text: str) -> InjectionParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"expected alpha,beta,gamma,n for --params, got {text!r}")
    return InjectionParams(
        parse_rational(parts[0]), parse_rational(parts[1]), parse_rational(parts[2]), int(parts[3])
    )


def _parse_torsion(text: str, curve: Curve):
    if not text:
        return ()
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk == "O":
            from .curve import INFINITY

            pts.append(INFINITY)
        else:
            pts.append(_parse_point(chunk, curve))
    return tuple(pts)


def _memory_ceiling(args) -> int:
    if args.memory_ceiling is not None:
        return args.memory_ceiling
    env = os.environ.get("ECINJ_MEMORY_CEILING")
    if env:
        return int(env)
    return DEFAULT_MEMORY_CEILING


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _build_ufunc(args) -> tuple:
    curve = _parse_curve(args.curve)
    gen = _parse_point(args.gen, curve)
    params = _parse_params(args.params)
    violations = validate_params(params)
    if violations:
        raise CliError("invalid parameters: " + "; ".join(violations))
    torsion = _parse_torsion(getattr(args, "torsion", ""), curve)
    spec = OrbitSpec(gen, args.M, torsion)
    return UniquenessFunction(params, curve), spec


def cmd_curve_info(args) -> int:
    curve = _parse_curve(args.curve)
    cfg = {"op": "curve-info", "a": format_rational(curve.a), "b": format_rational(curve.b)}
    report = {
        "version": VERSION,
        "config_digest": config_digest(cfg),
        "curve": {"a": format_rational(curve.a), "b": format_rational(curve.b)},
        "discriminant_term": format_rational(curve.disc_term),
        "real_components": real_components(curve),
    }
    _emit(args, canonical_json(report))
    return 0


def cmd_enumerate(args) -> int:
    curve = _parse_curve(args.curve)
    if args.search_height is not None:
        stream = brute_force_points(curve, args.search_height)
    else:
        gen = _parse_point(args.gen, curve)
        spec = OrbitSpec(gen, args.M, _parse_torsion(args.torsion, curve))
        stream = orbit(spec)
    lines = ["label,x,y"]
    for label, pt in stream:
        lines.append(f"{label},{format_rational(pt.x)},{format_rational(pt.y)}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_check_p(args) -> int:
    u, spec = _build_ufunc(args)
    report = p_injectivity_scan(
        u, spec, method=args.method, shards=args.shards, memory_ceiling=_memory_ceiling(args)
    )
    _emit(args, report.to_json())
    return report.exit_code


def cmd_check_f(args) -> int:
    u, spec = _build_ufunc(args)
    report = f_injectivity_scan(
        u,
        spec,
        method=args.method,
        strategy=args.strategy,
        shards=args.shards,
        memory_ceiling=_memory_ceiling(args),
    )
    _emit(args, report.to_json())
    return report.exit_code


def cmd_slope_bound(args) -> int:
    curve = _parse_curve(args.curve)
    reference = REFERENCE_MIN_SLOPE_248C1 if (curve.a, curve.b) == (1, -1) else None
    cert = slope_bound(curve, depth=args.depth, reference=reference)
    _emit(args, canonical_json(cert.to_json_dict()))
    return 0


def cmd_density(args) -> int:
    curve = _parse_curve(args.curve)
    gen = _parse_point(args.gen, curve)
    spec = OrbitSpec(gen, args.M, _parse_torsion(args.torsion, curve))
    rep = density_report(spec, args.bins)
    body = rep.to_json_dict()
    cfg = {
        "op": "density",
        "a": format_rational(curve.a),
        "b": format_rational(curve.b),
        "gen": args.gen,
        "M": args.M,
        "bins": args.bins,
    }
    body["config_digest"] = config_digest(cfg)
    _emit(args, canonical_json(body))
    return 0


def cmd_weierstrass_verify(args) -> int:
    curve = _parse_curve(args.curve)
    lat = periods(curve)
    rng = random.Random(0)

    def sample_z():
        return (0.05 + 0.4 * rng.random()) * lat.omega1 + (
            0.05 + 0.4 * rng.random()
        ) * complex(lat.omega2)

    ode = max(ode_residual(lat, sample_z()) for _ in range(args.samples))
    periodicity = 0.0
    parity = 0.0
    for _ in range(args.samples):
        z = sample_z()
        p, pp = lat.wp(z)
        p1, _ = lat.wp(z + lat.omega1)
        p2, _ = lat.wp(z + lat.omega2)
        pm, ppm = lat.wp(-z)
        periodicity = max(periodicity, abs(p1 - p), abs(p2 - p))
        parity = max(parity, abs(pm - p), abs(ppm + pp))
    fit = laurent_fit(lat, 2)
    rejected = 0
    trials = 1000
    for _ in range(trials):
        l1 = rng.uniform(0.5, 2.0) + 1j * rng.uniform(-1, 1)
        l2 = l1 + rng.uniform(0.1, 1.0)
        c = rng.uniform(0.5, 2.0) + 1j * rng.uniform(-1, 1)
        if lambda_match(1, 1, l1, l2, c) != "consistent":
            rejected += 1
    probe_same = strong_uniqueness_probe(lat, 1, 1, 1, 1, 1)
    probe_scaled = strong_uniqueness_probe(lat, 1, 1, 1, 1, 2)
    cfg = {"op": "weierstrass-verify", "a": format_rational(curve.a), "b": format_rational(curve.b)}
    report = {
        "version": VERSION,
        "config_digest": config_digest(cfg),
        "curve": {"a": format_rational(curve.a), "b": format_rational(curve.b)},
        "omega1": lat.omega1,
        "omega2": [complex(lat.omega2).real, complex(lat.omega2).imag],
        "ode_residual_max": ode,
        "periodicity_max": periodicity,
        "parity_max": parity,
        "laurent_fit_max_deviation": fit.max_deviation,
        "lambda_match_rejected": [rejected, trials],
        "probe_residual_identity": probe_same,
        "probe_residual_scaled_c": probe_scaled,
        "certified": False,
    }
    _emit(args, canonical_json(report))
    ok = (
        ode < 1e-9
        and periodicity < 1e-9
        and parity < 1e-9
        and fit.max_deviation < 1e-6
        and rejected == trials
        and probe_same < 1e-9
        and probe_scaled > 0.1
    )
    return 0 if ok else 2


def cmd_cantor(args) -> int:
    if args.pair:
        x, y = args.pair
        out = {"op": "pair", "x": x, "y": y, "value": cantor_pair(x, y)}
    elif args.unpair is not None:
        x, y = cantor_unpair(args.unpair)
        out = {"op": "unpair", "z": args.unpair, "x": x, "y": y}
    else:
        k = args.check
        ok = True
        seen = set()
        for x in range(k + 1):
            for y in range(k + 1 - x):
                z = cantor_pair(x, y)
                seen.add(z)
                if cantor_unpair(z) != (x, y):
                    ok = False
        expected = (k + 1) * (k + 2) // 2
        ok = ok and seen == set(range(expected))
        out = {"op": "check", "triangle": k, "values": expected, "bijection": ok}
    out["version"] = VERSION
    out["config_digest"] = config_digest({k: v for k, v in out.items() if k != "version"})
    _emit(args, canonical_json(out))
    return 0 if out.get("bijection", True) else 1


def cmd_zagier_probe(args) -> int:
    report = zagier_probe(args.H, shards=args.shards, memory_ceiling=_memory_ceiling(args))
    _emit(args, report.to_json())
    return report.exit_code


def build_parser() -> _Parser:
    parser = _Parser(prog="ecinj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scan=False):
        p.add_argument("--out", default=None, help="write the report to this path instead of stdout")
        if scan:
            p.add_argument(
                "--shards", type=int, default=1, metavar="K",
                help="partitions of the collision index; the residue engine builds one key range "
                "at a time, so its memory falls to about 1/K; reports are identical for every K",
            )
            p.add_argument("--memory-ceiling", type=int, default=None, help="bytes; env ECINJ_MEMORY_CEILING overrides the default")

    p = sub.add_parser("curve-info", help="curve summary")
    p.add_argument("--curve", default=DEFAULT_CURVE)
    common(p)
    p.set_defaults(func=cmd_curve_info)

    p = sub.add_parser("enumerate", help="CSV point stream (orbit or brute-force search)")
    p.add_argument("--curve", default=DEFAULT_CURVE)
    p.add_argument("--gen", default=DEFAULT_GEN)
    p.add_argument("--torsion", default="")
    p.add_argument("--M", type=int, default=10)
    p.add_argument("--search-height", type=int, default=None, help="brute-force all points of x-height <= H instead of the orbit")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    for name, fn in (("check-p", cmd_check_p), ("check-f", cmd_check_f)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} injectivity scan")
        p.add_argument("--curve", default=DEFAULT_CURVE)
        p.add_argument("--gen", default=DEFAULT_GEN)
        p.add_argument("--torsion", default="")
        p.add_argument("--params", default=DEFAULT_PARAMS)
        p.add_argument("--M", type=int, default=60)
        p.add_argument("--method", choices=["auto", "exact", "residue"], default="auto")
        if name == "check-f":
            p.add_argument("--strategy", choices=["direct", "difference"], default="direct")
        common(p, scan=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("slope-bound", help="certified tangent-slope certificate")
    p.add_argument("--curve", default=DEFAULT_CURVE)
    p.add_argument("--depth", type=int, default=60)
    common(p)
    p.set_defaults(func=cmd_slope_bound)

    p = sub.add_parser("density", help="elliptic-log angle diagnostics")
    p.add_argument("--curve", default=DEFAULT_CURVE)
    p.add_argument("--gen", default=DEFAULT_GEN)
    p.add_argument("--torsion", default="")
    p.add_argument("--M", type=int, default=200)
    p.add_argument("--bins", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("weierstrass-verify", help="analytic identity diagnostics")
    p.add_argument("--curve", default=DEFAULT_CURVE)
    p.add_argument("--samples", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_weierstrass_verify)

    p = sub.add_parser("cantor", help="pairing bijection utilities")
    p.add_argument("--pair", type=int, nargs=2, metavar=("X", "Y"))
    p.add_argument("--unpair", type=int, default=None)
    p.add_argument("--check", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_cantor)

    p = sub.add_parser("zagier-probe", help="x^7 + 3 y^7 collision probe over bounded-height rationals")
    p.add_argument("--H", type=int, default=5)
    common(p, scan=True)
    p.set_defaults(func=cmd_zagier_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
