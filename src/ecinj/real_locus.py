"""Certified real-locus analysis: component count, the tangent-slope lower
bound, and density diagnostics for the rational points.

Slope certificates are fully exact: every enclosure endpoint is a rational
number at which polynomial signs were evaluated exactly, and interval
arithmetic over rational endpoints needs no rounding.  On the curve,
the implicit tangent slope is s = (3x^2 + a) / (2y), so on the real locus

    s^2 = (3x^2 + a)^2 / (4 (x^3 + ax + b)),

and logarithmic differentiation (using rhs' = 3x^2 + a) gives

    d(s^2)/dx = (3x^2 + a) * [12x*rhs(x) - (3x^2 + a)^2] / (4 rhs(x)^2),

so interior extrema away from horizontal tangents satisfy the critical
quartic 12x*rhs(x) = (3x^2+a)^2, i.e. 3x^4 + 6a x^2 + 12b x - a^2 = 0.
Both identities are unit-tested against finite differences.

Density numbers come from the analytic module (elliptic logarithms) and are
diagnostics, not certificates; they are labeled as such in output.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .curve import Curve
from .points import OrbitSpec
from .polyroots import isolate_real_roots, refine_root
from .rational import format_rational
from .reporting import envelope

# previously reported lower bound for the default curve's tangent slopes,
# displayed alongside the computed enclosure for comparison
REFERENCE_MIN_SLOPE_248C1 = Fraction(2708, 1000)


class SlopeBoundError(ValueError):
    pass


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, value) -> bool:
        return self.lo <= value <= self.hi

    def to_json_dict(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "lo_decimal": float(self.lo),
            "hi_decimal": float(self.hi),
        }


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_mul(a, b):
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(prods), max(prods))


def _iv_square(a):
    lo, hi = a
    if lo >= 0:
        return (lo * lo, hi * hi)
    if hi <= 0:
        return (hi * hi, lo * lo)
    return (Fraction(0), max(lo * lo, hi * hi))


def _iv_scale(a, k):
    k = Fraction(k)
    if k >= 0:
        return (a[0] * k, a[1] * k)
    return (a[1] * k, a[0] * k)


def real_components(c: Curve) -> int:
    """2 iff the cubic has three real roots; decided by the exact sign of
    -(4a^3 + 27b^2)."""
    return 2 if c.disc_term < 0 else 1


def _has_horizontal_tangent(c: Curve) -> bool:
    """Exact test for a point of the real locus with 3x^2 + a = 0.

    Such a point exists iff the rhs is positive at a root of 3x^2 + a.
    For a > 0 there is no real root.  For a = 0 the root is x = 0, on the
    locus iff b > 0.  For a < 0 the roots are +-s with s^2 = -a/3 and
    rhs(+-s) = b -+ (2|a|/3)s; for a connected curve (4a^3 + 27b^2 > 0) the
    larger value b + (2|a|/3)s is positive iff b >= 0, since b < 0 would
    need b^2 < -4a^3/27, i.e. a two-component curve.
    """
    if c.a > 0:
        return False
    if c.a == 0:
        return c.b > 0
    return c.b >= 0


def critical_quartic(c: Curve) -> list:
    """Integer coefficients (ascending) of 3x^4 + 6a x^2 + 12b x - a^2,
    cleared of denominators."""
    coeffs = [-c.a * c.a, 12 * c.b, 6 * c.a, Fraction(0), Fraction(3)]
    scale = 1
    for q in coeffs:
        scale = scale * q.denominator // math.gcd(scale, q.denominator)
    return [int(q * scale) for q in coeffs]


@dataclass
class SlopeCertificate:
    curve: Curve
    critical_quartic: list          # integer coefficients, ascending degree
    branch_root: RationalInterval   # real root of x^3 + ax + b
    root_enclosures: list           # quartic roots on the domain (x0, inf)
    min_abs_slope: RationalInterval
    excludes_minus_one: bool
    reference_bound: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        curve = self.curve.to_json_dict()
        return envelope({"op": "slope_bound", **curve}, {
            "curve": curve,
            "critical_quartic": list(self.critical_quartic),
            "branch_root": self.branch_root.to_json_dict(),
            "root_enclosures": [iv.to_json_dict() for iv in self.root_enclosures],
            "min_abs_slope": self.min_abs_slope.to_json_dict(),
            "excludes_minus_one": self.excludes_minus_one,
            "reference_bound": None if self.reference_bound is None else format_rational(self.reference_bound),
            "reference_bound_decimal": None if self.reference_bound is None else float(self.reference_bound),
            "note": "rational endpoints are authoritative; decimal renderings are not",
        })


def _sqrt_lower(q: Fraction, bits: int = 96) -> Fraction:
    """Largest s of the working precision with s^2 <= q (exact, outward)."""
    n = (q.numerator * q.denominator) << (2 * bits)
    return Fraction(isqrt(n), q.denominator << bits)


def _sqrt_upper(q: Fraction, bits: int = 96) -> Fraction:
    n = (q.numerator * q.denominator) << (2 * bits)
    s = isqrt(n)
    if s * s < n:
        s += 1
    return Fraction(s, q.denominator << bits)


def slope_bound(c: Curve, depth: int = 60, reference: Optional[Fraction] = None) -> SlopeCertificate:
    """Certified enclosure of the minimum |slope| of non-vertical tangents.

    Works on s^2 to avoid square roots until the final outward-rounded
    enclosure.  The minimum over the locus is attained at a critical
    quartic root right of the branch point, because |s| diverges both at
    the branch point (vertical tangent) and as x grows.
    """
    if depth < 0:
        raise SlopeBoundError(f"depth must be >= 0, got {depth}")
    if real_components(c) != 1:
        raise SlopeBoundError("not implemented for two real components")
    if _has_horizontal_tangent(c):
        raise SlopeBoundError(
            "the real locus has a horizontal tangent: minimum slope is 0, no certificate"
        )
    cubic = [c.b, c.a, Fraction(0), Fraction(1)]
    branch = isolate_real_roots(cubic)[-1]
    branch = refine_root(cubic, branch, depth=depth)

    quartic = [Fraction(v) for v in critical_quartic(c)]
    chain_roots = isolate_real_roots(quartic)

    # separate every quartic enclosure from the branch root (they are never
    # equal: the quartic at the branch root evaluates to -(3x0^2+a)^2 < 0)
    kept = []
    for iv in chain_roots:
        lo, hi = iv
        b_lo, b_hi = branch
        while not (hi < b_lo or lo > b_hi):
            lo, hi = refine_root(quartic, (lo, hi), depth=8)
            b_lo, b_hi = refine_root(cubic, (b_lo, b_hi), depth=8)
        branch = (b_lo, b_hi)
        if lo > b_hi:
            kept.append((lo, hi))
    if not kept:
        raise SlopeBoundError("no interior critical point found right of the branch point")

    enclosures = []
    squares = []
    for iv in kept:
        iv = refine_root(quartic, iv, depth=depth)
        while True:
            x = iv
            x2 = _iv_square(x)
            num = _iv_square(_iv_add(_iv_scale(x2, 3), (c.a, c.a)))
            rhs = _iv_add(_iv_add(_iv_mul(x2, x), _iv_scale(x, c.a)), (c.b, c.b))
            den = _iv_scale(rhs, 4)
            if den[0] > 0:
                break
            iv = refine_root(quartic, iv, depth=8)
        squares.append((num[0] / den[1], num[1] / den[0]))
        enclosures.append(RationalInterval(*iv))

    t_lo = min(s[0] for s in squares)
    t_hi = min(s[1] for s in squares)
    if t_lo <= 0:
        raise SlopeBoundError("could not certify a positive minimum slope")
    min_abs = RationalInterval(_sqrt_lower(t_lo), _sqrt_upper(t_hi))
    return SlopeCertificate(
        curve=c,
        critical_quartic=critical_quartic(c),
        branch_root=RationalInterval(*branch),
        root_enclosures=enclosures,
        min_abs_slope=min_abs,
        excludes_minus_one=min_abs.lo > 1,
        reference_bound=reference,
    )


@dataclass
class DensityReport:
    bins: list
    max_gap: float
    angles: list
    theta_generator: float
    certified: bool = False

    def to_json_dict(self) -> dict:
        return {
            "bins": list(self.bins),
            "max_gap": self.max_gap,
            "points": len(self.angles),
            "theta_generator": self.theta_generator,
            "certified": self.certified,
            "note": "diagnostics from floating-point elliptic logarithms",
        }


def density_report(spec: OrbitSpec, bins: int) -> DensityReport:
    """Histogram of normalized elliptic-log angles of the orbit in [0, 1),
    plus the maximum circular gap between consecutive angles.

    The elliptic logarithm is a homomorphism, so the angle of m*G + T is
    frac(m * theta_G + theta_T); only one quadrature per distinct base
    point is needed.
    """
    from .weierstrass import elliptic_log, periods

    spec.validate()
    curve = spec.generator.curve
    if real_components(curve) != 1:
        raise ValueError("density_report requires a connected real locus")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lat = periods(curve)
    theta_g = elliptic_log(lat, spec.generator) / lat.omega1
    torsion_theta = [
        0.0 if t.is_infinity else elliptic_log(lat, t) / lat.omega1 for t in spec.torsion
    ] or [0.0]
    angles = []
    for m in range(1, spec.bound + 1):
        for sign in (m, -m):
            for tt in torsion_theta:
                angles.append((sign * theta_g + tt) % 1.0)
    counts = [0] * bins
    for th in angles:
        counts[min(int(th * bins), bins - 1)] += 1
    ordered = sorted(angles)
    if len(ordered) < 2:
        gap = 1.0
    else:
        gap = max(b - a for a, b in zip(ordered, ordered[1:]))
        gap = max(gap, 1.0 - ordered[-1] + ordered[0])
    return DensityReport(counts, gap, angles, theta_g)
