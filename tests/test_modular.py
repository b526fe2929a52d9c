from fractions import Fraction

import pytest

from ecinj.curve import Curve, scalar_mul
from ecinj.modular import (
    CurveModP,
    UnsuitablePrimeError,
    fraction_mod,
    is_probable_prime,
    primes_descending,
)


def test_is_probable_prime_knowns():
    assert is_probable_prime(2**61 - 1)  # Mersenne prime
    assert is_probable_prime(2)
    assert is_probable_prime(10**9 + 7)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(2**61 + 1)


def test_primes_descending_start():
    gen = primes_descending(2**61)
    assert next(gen) == 2**61 - 1


def test_fraction_mod():
    p = 101
    assert fraction_mod(Fraction(1, 2), p) == pow(2, -1, p)
    assert (fraction_mod(Fraction(3, 7), p) * 7 - 3) % p == 0
    with pytest.raises(UnsuitablePrimeError):
        fraction_mod(Fraction(1, 101), p)


def test_reduction_is_homomorphism(curve248, gen248):
    # reducing m*G exactly equals computing m*(G mod p) in F_p
    p = 2**61 - 1
    cm = CurveModP(curve248, p)
    g = cm.reduce_point(gen248)
    acc = g
    for m in range(2, 25):
        acc = cm.add(acc, g)
        exact = scalar_mul(m, gen248)
        assert acc == cm.reduce_point(exact)


def test_reduce_point_with_denominator_divisible():
    # 4*G on 248c1 has denominators 36 = 6^2 and 216 = 6^3; mod 3 it is the identity
    c = Curve(1, -1)
    g = c.point(1, 1)
    p4 = scalar_mul(4, g)
    cm = CurveModP(c, 5)
    assert cm.reduce_point(p4) is not None
    cm3 = None
    try:
        cm3 = CurveModP(c, 3)
    except UnsuitablePrimeError:
        pytest.skip("curve singular mod 3")
    assert cm3.reduce_point(p4) is None


def test_singular_reduction_rejected():
    # disc term of 248c1 is 31, so reduction mod 31 is singular
    with pytest.raises(UnsuitablePrimeError):
        CurveModP(Curve(1, -1), 31)


def test_group_law_cases_mod_p(curve248, gen248):
    p = 10**9 + 7
    cm = CurveModP(curve248, p)
    g = cm.reduce_point(gen248)
    assert cm.add(g, (g[0], -g[1] % cm.p)) is None
    assert cm.add(None, g) == g
    doubled = cm.add(g, g)
    assert doubled == cm.reduce_point(scalar_mul(2, gen248))
