"""Reduction of curves, points, and rational values modulo a prime.

This is the fingerprinting layer for the collision scans, which reduce at
primes below 2**31: equal exact rationals always reduce to equal residues
at every suitable prime, so a scan over residue keys can never miss a true
collision; candidate buckets are then confirmed exactly.  A prime is
unsuitable for a given scan when some denominator it must invert vanishes
mod p, when the curve reduces to a singular model, or when an orbit point
reduces to the identity; unsuitable primes are skipped deterministically.
"""

from fractions import Fraction
from typing import Iterator, Optional

from .curve import Curve, Point

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class UnsuitablePrimeError(ValueError):
    pass


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with these bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_descending(start: int) -> Iterator[int]:
    """Primes below `start` in decreasing order (deterministic)."""
    n = start - 1 if start % 2 == 0 else start - 2
    while n > 2:
        if is_probable_prime(n):
            yield n
        n -= 2


def fraction_mod(r: Fraction, p: int) -> int:
    """Residue num * den^-1 mod p; unsuitable when p divides the denominator."""
    den = r.denominator % p
    if den == 0:
        raise UnsuitablePrimeError(f"denominator of {r} vanishes mod {p}")
    return r.numerator * pow(den, -1, p) % p


class CurveModP:
    """The reduction of a rational curve mod p, with the F_p group law.

    Points are (x, y) integer pairs; None is the identity.  Good reduction
    is required (non-singular mod p), so the reduction map on rational
    points is a group homomorphism and residues of affine coordinates are
    exactly the residues of the exact rational coordinates.
    """

    def __init__(self, curve: Curve, p: int):
        self.p = p
        self.a = fraction_mod(curve.a, p)
        self.b = fraction_mod(curve.b, p)
        if (4 * pow(self.a, 3, p) + 27 * pow(self.b, 2, p)) % p == 0:
            raise UnsuitablePrimeError(f"curve is singular mod {p}")

    def reduce_point(self, pt: Point) -> Optional[tuple]:
        if pt.is_infinity:
            return None
        # p dividing the coordinate denominators means pt reduces to the identity
        if pt.x.denominator % self.p == 0 or pt.y.denominator % self.p == 0:
            return None
        return (fraction_mod(pt.x, self.p), fraction_mod(pt.y, self.p))

    def add(self, P: Optional[tuple], Q: Optional[tuple]) -> Optional[tuple]:
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1 % p, -1, p) % p
        else:
            lam = (y2 - y1) * pow((x2 - x1) % p, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        y3 = (lam * (x1 - x3) - y1) % p
        return (x3, y3)
