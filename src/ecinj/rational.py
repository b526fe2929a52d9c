"""Canonical arbitrary-precision rational arithmetic, heights, exact roots.

The scalar type everywhere in this package is `fractions.Fraction`, which
already maintains the canonical form we rely on: gcd(|num|, den) = 1,
den >= 1, zero stored as 0/1, and equality as equality of (num, den).
This module adds the few exact operations the rest of the package needs
on top of it.

Text form: "num/den" with the denominator omitted when it is 1; it is the
form used in all CSV/JSON output.  It is the text of `str(Fraction)`, but
converted through `decimal.Decimal`, so integers of any size render and
parse: `str(int)` and `int(str)` refuse more than
`sys.get_int_max_str_digits()` digits, and the y-coordinate of 162*G on
the default curve already has more.
"""

import re
from decimal import Decimal
from fractions import Fraction
from math import isqrt

def exact_sqrt(r: Fraction):
    """Exact square root of r, or None when r is not a rational square.

    Returns s >= 0 with s*s == r.  A negative input is "not a square",
    not an error.  Because r is canonical (gcd(num, den) = 1), r is a
    square iff numerator and denominator are integer squares separately,
    so integer square roots decide exactly with no floating point.
    """
    if r < 0:
        return None
    num, den = r.numerator, r.denominator
    sn = isqrt(num)
    if sn * sn != num:
        return None
    sd = isqrt(den)
    if sd * sd != den:
        return None
    return Fraction(sn, sd)


def height(r: Fraction) -> int:
    """Naive multiplicative height max(|num|, den) of a canonical rational."""
    return max(abs(r.numerator), r.denominator)


def format_rational(r: Fraction) -> str:
    """Canonical text form "num/den", denominator omitted when 1."""
    num, den = (str(Decimal(part)) for part in (r.numerator, r.denominator))
    return num if den == "1" else f"{num}/{den}"


_INTEGER_RATIO = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational; accepts "num" or "num/den" of any size,
    and any other text `Fraction` accepts (such as "0.5").  Raises
    ZeroDivisionError for a zero denominator."""
    match = _INTEGER_RATIO.fullmatch(text)
    if match is None:
        return Fraction(text)
    num, den = match.groups()
    return Fraction(int(Decimal(num)), int(Decimal(den)) if den else 1)
