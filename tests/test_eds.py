from fractions import Fraction
from math import gcd

import pytest

from ecinj import eds
from ecinj.curve import INFINITY, Curve
from ecinj.points import OrbitSpec, orbit, torsion_cycle
from exact_oracle import add_loop_orbit


def canonical_pairs(stream):
    """(label, x num, x den, y num, y den) of every point: equal Fractions
    with other numerators or denominators would differ here."""
    return [
        (label, p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)
        for label, p in stream
    ]


MODELS = {
    # S = {2}: G is singular mod 2 only
    "default curve": ((1, -1), (1, 1), 300),
    # scaled to the default curve by u = 2, which adds no prime to S
    "y^2 = x^3 + x/16 - 1/64": ((Fraction(1, 16), Fraction(-1, 64)), (Fraction(1, 4), Fraction(1, 8)), 300),
    # order 4: the multiples cycle, no sequence is built
    "order-4 generator": ((-2, 1), (0, 1), 300),
    # S = {2, 3}: gcd(2Y, 3X^2 + A) = 6
    "y^2 = x^3 + 3x + 5": ((3, 5), (1, 3), 300),
    # 3G = (0, 1): x's numerator vanishes
    "y^2 = x^3 - 17x + 1": ((-17, 1), (-3, 5), 100),
    # u = 3 puts 3 in S, where G is not singular
    "default curve scaled by 1/3": ((Fraction(1, 81), Fraction(-1, 729)), (Fraction(1, 9), Fraction(1, 27)), 100),
}


@pytest.mark.parametrize("model", list(MODELS))
def test_orbit_equals_the_add_loop(model):
    (a, b), (x, y), bound = MODELS[model]
    spec = OrbitSpec(Curve(a, b).point(x, y), bound)
    assert canonical_pairs(orbit(spec)) == canonical_pairs(add_loop_orbit(spec))


def test_model_primes():
    assert eds._prime_factors(gcd(2 * 3, 3 * 1 + 3)) == ([2, 3], True)
    (a, b), (x, y), _ = MODELS["y^2 = x^3 + x/16 - 1/64"]
    assert eds._integral_scale(Fraction(a), Fraction(b), x, y) == (2, [2], True)
    assert len(torsion_cycle(Curve(-2, 1).point(0, 1))) == 4
    assert torsion_cycle(Curve(3, 5).point(1, 3)) is None


def test_unfactored_scale_falls_back_to_fraction():
    # u = q^3 for the prime q = 65537, just past trial division's reach
    q = 65537
    assert eds._prime_factors(q**3) == ([], False)
    spec = OrbitSpec(Curve(1, Fraction(-1, q**2)).point(Fraction(1, q**2), Fraction(1, q**3)), 20)
    assert canonical_pairs(orbit(spec)) == canonical_pairs(add_loop_orbit(spec))


def test_prime_factors_and_valuation():
    assert eds._prime_factors(1) == ([], True)
    assert eds._prime_factors(360) == ([2, 3, 5], True)
    assert eds._prime_factors(2 * 65537) == ([2, 65537], True)
    assert eds._prime_factors(65537 * 65539) == ([], False)
    assert eds._valuation(-(2**40) * 3, 2) == 40
    assert eds._valuation(3**77 * 10, 3) == 77
    assert eds._valuation(5**64 * 7, 5) == 64
    assert eds._valuation(7, 3) == 0


def test_torsion_translates_still_add():
    c = Curve(-25, 0)
    spec = OrbitSpec(c.point(-4, 6), 40, (c.point(0, 0), INFINITY))
    assert canonical_pairs(orbit(spec)) == canonical_pairs(add_loop_orbit(spec))
