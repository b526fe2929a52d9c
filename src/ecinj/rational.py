"""Canonical arbitrary-precision rational arithmetic, heights, exact roots.

The scalar type everywhere in this package is `fractions.Fraction`, which
already maintains the canonical form we rely on: gcd(|num|, den) = 1,
den >= 1, zero stored as 0/1, and equality as equality of (num, den).
This module adds the few exact operations the rest of the package needs
on top of it.

`coprime_fraction(num, den)` wraps a pair the caller knows to be canonical
as a `Fraction` without the gcd `Fraction(num, den)` would run; the orbit's
division-polynomial points are built this way, because that gcd costs more
than the points themselves.  It takes `Fraction(n, d, _normalize=False)`
on Python 3.10 and 3.11 and `Fraction._from_coprime_ints` from 3.12 on,
the stdlib's own hooks for the same purpose.

Text form: "num/den" with the denominator omitted when it is 1; it is the
form used in all CSV/JSON output.  It is the text of `str(Fraction)`, but
converted through `decimal.Decimal`, so integers of any size render and
parse: `str(int)` and `int(str)` refuse more than
`sys.get_int_max_str_digits()` digits, and the y-coordinate of 162*G on
the default curve already has more.  `Decimal(int)` is quadratic in the
digits, so an integer of more than SPLIT_BITS bits is converted by binary
splitting instead: n = hi * 2**w + lo with w the largest power of two
below its length, the parts converted recursively and joined by one exact
`Context.fma` with a cached Decimal 2**w, which libmpdec multiplies in
subquadratic time.
"""

import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from math import isqrt

# coprime_fraction(num, den): num/den as a `Fraction`, with no gcd; the
# caller guarantees gcd(|num|, den) = 1 and den >= 1.
if sys.version_info >= (3, 12):
    coprime_fraction = Fraction._from_coprime_ints
else:
    def coprime_fraction(num: int, den: int) -> Fraction:
        return Fraction(num, den, _normalize=False)


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
    num = _decimal_text(r.numerator)
    return num if r.denominator == 1 else f"{num}/{_decimal_text(r.denominator)}"


# Decimal(int) is quadratic in the digits; splitting beats it on integers
# of more than this many bits (about 1,200 digits), which are split into
# leaves of at most this size.
SPLIT_BITS = 4096
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
_POW2 = {}  # w -> Decimal 2**w, for powers of two w


def _decimal_text(n: int) -> str:
    """The decimal digits of n, as str(n) would give them at any size."""
    return "-" + str(_split_decimal(-n)) if n < 0 else str(_split_decimal(n))


def _split_decimal(n: int) -> Decimal:
    """Decimal(n) for n >= 0, by binary splitting at power-of-two widths."""
    bits = n.bit_length()
    if bits <= SPLIT_BITS:
        return Decimal(n)
    w = 1 << ((bits - 1).bit_length() - 1)  # the largest power of two below bits
    hi = n >> w
    return _EXACT.fma(_split_decimal(hi), _pow2(w), _split_decimal(n - (hi << w)))


def _pow2(w: int) -> Decimal:
    power = _POW2.get(w)
    if power is None:
        if w <= SPLIT_BITS:
            power = _EXACT.power(Decimal(2), w)
        else:
            half = _pow2(w >> 1)
            power = _EXACT.multiply(half, half)
        _POW2[w] = power
    return power


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
