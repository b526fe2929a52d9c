"""Command-line interface: every subcommand returns a deterministic report,
JSON embedding the artifact version and a digest of its semantic
configuration, or the rows of a CSV, and `main` alone renders it and writes
it to stdout or `--out`.  Exit codes: 0 clean, 2 findings (collision
classes or duplicate points), 1 errors.  `-v` points the scans' progress
hook at stderr, so their progress lines never enter the report.

Defaults reproduce the headline configuration: curve (1, -1), generator
(1, 1), parameters (1, 1, 2, 9).
"""

import argparse
import random
import sys
from fractions import Fraction

from . import collisions
from .collisions import f_injectivity_scan, p_injectivity_scan, zagier_probe
from .curve import INFINITY, Curve, Point
from .injection import InjectionParams, UniquenessFunction
from .pairing import cantor_pair, cantor_unpair
from .points import OrbitSpec, brute_force_points, orbit
from .rational import format_rational, parse_rational
from .real_locus import (
    REFERENCE_MIN_SLOPE_248C1,
    density_report,
    real_components,
    slope_bound,
)
from .reporting import canonical_json, envelope
from .weierstrass import lambda_match, laurent_fit, ode_residual, periods, strong_uniqueness_probe

DEFAULT_CURVE = "1,-1"
DEFAULT_GEN = "1,1"
DEFAULT_PARAMS = "1,1,2,9"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ZeroDivisionError:
        raise CliError(f"zero denominator in {text!r}") from None


def _parse_curve(text: str) -> Curve:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"expected a,b for --curve, got {text!r}")
    return Curve(_parse_rational(parts[0]), _parse_rational(parts[1]))


def _parse_point(text: str, curve: Curve) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"expected x,y for a point, got {text!r}")
    return curve.point(_parse_rational(parts[0]), _parse_rational(parts[1]))


def _parse_params(text: str) -> InjectionParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"expected alpha,beta,gamma,n for --params, got {text!r}")
    coefficients = [_parse_rational(part) for part in parts[:3]]
    try:
        n = int(parts[3])
    except ValueError:
        raise CliError(f"n in --params must be an integer, got {parts[3]!r}") from None
    return InjectionParams(*coefficients, n)


def _parse_torsion(text: str, curve: Curve):
    if not text:
        return ()
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk == "O":
            pts.append(INFINITY)
        else:
            pts.append(_parse_point(chunk, curve))
    return tuple(pts)


def _orbit_spec(args, curve: Curve) -> OrbitSpec:
    return OrbitSpec(_parse_point(args.gen, curve), args.M, _parse_torsion(args.torsion, curve))


def cmd_curve_info(args) -> tuple:
    curve = _parse_curve(args.curve)
    report = envelope({"op": "curve-info", **curve.to_json_dict()}, {
        "curve": curve.to_json_dict(),
        "discriminant_term": format_rational(curve.disc_term),
        "real_components": real_components(curve),
    })
    return report, 0


def cmd_enumerate(args) -> tuple:
    curve = _parse_curve(args.curve)
    if args.search_height is not None:
        stream = brute_force_points(curve, args.search_height)
    else:
        stream = orbit(_orbit_spec(args, curve))
    lines = ["label,x,y"]
    last = None  # (point, x text, y text) of the previous row
    for label, pt in stream:
        # a point and its negation come in adjacent rows: render x once, and
        # y once up to its sign
        if last is not None and pt.x == last[0].x and pt.y == -last[0].y:
            x_text, y_text = last[1], _negated(last[2])
        else:
            x_text, y_text = format_rational(pt.x), format_rational(pt.y)
        last = (pt, x_text, y_text)
        lines.append(f"{_csv_field(str(label))},{x_text},{y_text}")
    return lines, 0


def _negated(text: str) -> str:
    if text == "0":
        return text
    return text[1:] if text.startswith("-") else "-" + text


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted (RFC 4180) when it holds a comma or a
    quote, as a torsion label (m, k) does."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_scan(args) -> tuple:
    """check-p and check-f: `args.scan` is the injectivity scan to run."""
    curve = _parse_curve(args.curve)
    spec = _orbit_spec(args, curve)
    u = UniquenessFunction(_parse_params(args.params), curve)
    report = args.scan(u, spec)
    return report.to_json_dict(), report.exit_code


def cmd_slope_bound(args) -> tuple:
    curve = _parse_curve(args.curve)
    reference = REFERENCE_MIN_SLOPE_248C1 if (curve.a, curve.b) == (1, -1) else None
    return slope_bound(curve, depth=args.depth, reference=reference).to_json_dict(), 0


def cmd_density(args) -> tuple:
    curve = _parse_curve(args.curve)
    spec = _orbit_spec(args, curve)
    rep = density_report(spec, args.bins)
    # the generator in canonical text, so that its spelling moves no digest;
    # "torsion" only when nonempty, so that the digests without it stay
    gen = f"{format_rational(spec.generator.x)},{format_rational(spec.generator.y)}"
    cfg = {"op": "density", **curve.to_json_dict(), "gen": gen, "M": args.M, "bins": args.bins}
    if spec.torsion:
        cfg["torsion"] = spec.config_dict()["torsion"]
    return envelope(cfg, rep.to_json_dict()), 0


def cmd_weierstrass_verify(args) -> tuple:
    curve = _parse_curve(args.curve)
    if args.samples < 1:
        raise CliError("samples must be >= 1")
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
    report = envelope({"op": "weierstrass-verify", **curve.to_json_dict()}, {
        "curve": curve.to_json_dict(),
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
    })
    ok = (
        ode < 1e-9
        and periodicity < 1e-9
        and parity < 1e-9
        and fit.max_deviation < 1e-6
        and rejected == trials
        and probe_same < 1e-9
        and probe_scaled > 0.1
    )
    return report, 0 if ok else 2


def cmd_cantor(args) -> tuple:
    if args.pair:
        x, y = args.pair
        out = {"op": "pair", "x": x, "y": y, "value": cantor_pair(x, y)}
    elif args.unpair is not None:
        x, y = cantor_unpair(args.unpair)
        out = {"op": "unpair", "z": args.unpair, "x": x, "y": y}
    else:
        k = args.check
        if k < 0:
            raise CliError(f"triangle must be >= 0, got {k}")
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
    return envelope(out, out), 0 if out.get("bijection", True) else 1


def cmd_zagier_probe(args) -> tuple:
    report = zagier_probe(args.H)
    return report.to_json_dict(), report.exit_code


def build_parser() -> _Parser:
    parser = _Parser(prog="ecinj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the report to this path instead of stdout")
        p.add_argument(
            "-v", dest="verbose", action="store_true",
            help="write progress lines (primes chosen and skipped, partitions) to stderr; the report is unchanged",
        )

    def orbit_args(p, bound):
        p.add_argument("--gen", default=DEFAULT_GEN)
        p.add_argument("--torsion", default="")
        p.add_argument("--M", type=int, default=bound)

    p = sub.add_parser("curve-info", help="curve summary")
    p.add_argument("--curve", default=DEFAULT_CURVE)
    common(p)
    p.set_defaults(func=cmd_curve_info)

    p = sub.add_parser("enumerate", help="CSV point stream (orbit or brute-force search)")
    p.add_argument("--curve", default=DEFAULT_CURVE)
    orbit_args(p, 10)
    p.add_argument("--search-height", type=int, default=None, help="brute-force all points of x-height <= H instead of the orbit")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    # the scans are looked up here, not at import, so wrappers installed on
    # this module before the parser is built see every call
    scans = (("check-p", p_injectivity_scan), ("check-f", f_injectivity_scan))
    for name, scan in scans:
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} injectivity scan")
        p.add_argument("--curve", default=DEFAULT_CURVE)
        orbit_args(p, 60)
        p.add_argument("--params", default=DEFAULT_PARAMS)
        common(p)
        p.set_defaults(func=cmd_scan, scan=scan)

    p = sub.add_parser("slope-bound", help="certified tangent-slope certificate")
    p.add_argument("--curve", default=DEFAULT_CURVE)
    p.add_argument("--depth", type=int, default=60)
    common(p)
    p.set_defaults(func=cmd_slope_bound)

    p = sub.add_parser("density", help="elliptic-log angle diagnostics")
    p.add_argument("--curve", default=DEFAULT_CURVE)
    orbit_args(p, 200)
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
    common(p)
    p.set_defaults(func=cmd_zagier_probe)

    return parser


def _write_rows(fh, rows):
    for row in rows:
        fh.write(row)
        fh.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    hook = collisions.progress
    try:
        args = parser.parse_args(argv)
        if args.verbose:
            # progress lines go to stderr, never into the report
            collisions.progress = lambda line: print("ecinj.collisions:", line, file=sys.stderr)
        report, code = args.func(args)
        # a CSV report is its list of rows, written one by one so that the
        # whole text is never held beside them
        rows = report if isinstance(report, list) else [canonical_json(report)]
        if args.out:
            with open(args.out, "w") as fh:
                _write_rows(fh, rows)
        else:
            _write_rows(sys.stdout, rows)
        return code
    except (CliError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        collisions.progress = hook


if __name__ == "__main__":
    sys.exit(main())
