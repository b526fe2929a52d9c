"""Baselines: Cantor's pairing bijection on Z>=0 x Z>=0 and evaluation of
x^n + gamma*y^n probe polynomials."""

from fractions import Fraction
from math import isqrt


def cantor_pair(x: int, y: int) -> int:
    """(x + y)(x + y + 1)/2 + y; a bijection Z>=0 x Z>=0 -> Z>=0."""
    if x < 0 or y < 0:
        raise ValueError("coordinates must be non-negative")
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_unpair(z: int) -> tuple:
    """Unique preimage of z under cantor_pair.

    Triangular root by integer square root, then local correction; no
    floating point anywhere.
    """
    if z < 0:
        raise ValueError("z must be non-negative")
    w = (isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    if t > z:  # guard against isqrt landing one triangle high
        w -= 1
        t = w * (w + 1) // 2
    y = z - t
    return (w - y, y)


def zagier_eval(r1: Fraction, r2: Fraction, n: int, gamma: Fraction) -> Fraction:
    """Exact r1^n + gamma * r2^n for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1")
    return r1**n + Fraction(gamma) * r2**n
