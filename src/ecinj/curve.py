"""Short-Weierstrass elliptic curves over Q with the exact chord-tangent group law.

Points are affine (x, y) with exact rational coordinates, plus a single
point at infinity `INFINITY` acting as the group identity.  All values are
immutable; operations are pure and safe to share between workers.

Representation choice: affine + infinity rather than projective, because
canonical affine coordinates are what reports print and scans compare.
The inversions are not cheap: every `Fraction` operation reduces by a gcd,
which dominates `add` once coordinates have thousands of digits.  So the
orbit m*G is not built here one addition at a time but from the elliptic
divisibility sequence (`eds`); `add` serves small multiples, torsion
translates and single labels.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rational import format_rational


class SingularCurveError(ValueError):
    pass


class CurveMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a*x + b with 4a^3 + 27b^2 != 0."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.disc_term == 0:
            raise SingularCurveError(f"singular curve: 4a^3 + 27b^2 = 0 for a={self.a}, b={self.b}")

    @property
    def disc_term(self) -> Fraction:
        """The quantity 4a^3 + 27b^2 (zero exactly for singular models)."""
        return 4 * self.a**3 + 27 * self.b**2

    def rhs(self, x: Fraction) -> Fraction:
        return x**3 + self.a * x + self.b

    def point(self, x, y) -> "Point":
        """Validated affine point constructor."""
        p = Point(self, Fraction(x), Fraction(y))
        if not on_curve(self, p):
            raise ValueError(f"{p} does not satisfy {self}")
        return p

    def to_json_dict(self) -> dict:
        return {"a": format_rational(self.a), "b": format_rational(self.b)}

    def __str__(self):
        return f"y^2 = x^3 + ({self.a})x + ({self.b})"


@dataclass(frozen=True)
class Point:
    """Affine point on `curve`, or the identity when all fields are None."""

    curve: Optional[Curve]
    x: Optional[Fraction]
    y: Optional[Fraction]

    @property
    def is_infinity(self) -> bool:
        return self.curve is None

    def __str__(self):
        if self.is_infinity:
            return "O"
        return f"({format_rational(self.x)}, {format_rational(self.y)})"


INFINITY = Point(None, None, None)


def on_curve(c: Curve, p: Point) -> bool:
    """True iff p is the identity or satisfies the curve equation exactly."""
    if p.is_infinity:
        return True
    return p.y * p.y == c.rhs(p.x)


def add(p: Point, q: Point) -> Point:
    """Group sum by the chord-tangent law.

    Handles identity, inverse pairs, doubling (including the vertical
    tangent at y = 0, which is 2-torsion), and the generic chord case.
    """
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.curve != q.curve:
        raise CurveMismatchError(f"curve mismatch: {p.curve} vs {q.curve}")
    c = p.curve
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        lam = (3 * p.x * p.x + c.a) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return Point(c, x3, y3)


def negate(p: Point) -> Point:
    if p.is_infinity:
        return INFINITY
    return Point(p.curve, p.x, -p.y)


def scalar_mul(m: int, p: Point) -> Point:
    """m-fold group sum by double-and-add; negative m via negation."""
    if m < 0:
        return scalar_mul(-m, negate(p))
    result = INFINITY
    addend = p
    while m:
        if m & 1:
            result = add(result, addend)
        addend = add(addend, addend)
        m >>= 1
    return result
