import random
from fractions import Fraction
from math import isqrt

import pytest

from ecinj.curve import (
    Curve,
    CurveMismatchError,
    INFINITY,
    Point,
    SingularCurveError,
    add,
    negate,
    on_curve,
    scalar_mul,
)


def test_make_curve_248c1():
    c = Curve(1, -1)
    assert c.disc_term == 31


@pytest.mark.parametrize("a,b", [(0, 0), (-3, 2)])
def test_make_curve_singular(a, b):
    with pytest.raises(SingularCurveError):
        Curve(a, b)


def test_off_curve_point_error_prints_the_curve():
    c = Curve(Fraction(-1, 2), 3)
    with pytest.raises(ValueError) as info:
        c.point(Fraction(1, 3), -2)
    assert str(info.value) == "(1/3, -2) does not satisfy y^2 = x^3 + (-1/2)x + (3)"


def test_on_curve(curve248, gen248):
    assert on_curve(curve248, gen248)
    assert on_curve(curve248, INFINITY)
    assert not on_curve(curve248, Point(curve248, Fraction(0), Fraction(0)))


def test_add_examples(curve248, gen248):
    g = gen248
    assert add(g, g) == curve248.point(2, -3)
    assert add(g, curve248.point(1, -1)) == INFINITY
    assert add(g, curve248.point(2, -3)) == curve248.point(13, 47)


def test_negate(curve248, gen248):
    assert negate(gen248) == curve248.point(1, -1)
    assert negate(INFINITY) == INFINITY
    p = curve248.point(Fraction(25, 36), Fraction(37, 216))
    assert negate(p).y == Fraction(-37, 216)


def test_scalar_mul_examples(curve248, gen248):
    assert scalar_mul(0, gen248) == INFINITY
    assert scalar_mul(3, gen248) == add(gen248, add(gen248, gen248))
    q = scalar_mul(4, gen248)
    assert (q.x, q.y) == (Fraction(25, 36), Fraction(37, 216))
    assert q.y**2 == curve248.rhs(q.x) == Fraction(1369, 46656)


def test_curve_mismatch(gen248):
    other = Curve(0, 1)
    with pytest.raises(CurveMismatchError):
        add(gen248, other.point(0, 1))


def test_two_torsion_doubling():
    c = Curve(-1, 0)  # y^2 = x^3 - x
    t = c.point(0, 0)
    assert add(t, t) == INFINITY


def test_group_laws_random_triples(curve248, gen248):
    multiples = [scalar_mul(m, gen248) for m in range(-12, 13)]
    rng = random.Random(5)
    for _ in range(200):
        p, q, r = (rng.choice(multiples) for _ in range(3))
        assert on_curve(curve248, add(p, q))
        assert add(p, q) == add(q, p)
        assert add(add(p, q), r) == add(p, add(q, r))
        assert add(p, INFINITY) == p
        assert add(p, negate(p)) == INFINITY


def test_scalar_mul_additivity(gen248):
    rng = random.Random(9)
    cache = {m: scalar_mul(m, gen248) for m in range(-50, 51)}
    for _ in range(60):
        m, n = rng.randint(-25, 25), rng.randint(-25, 25)
        assert cache[m + n] == add(cache[m], cache[n])


def test_double_and_add_matches_repeated_add(gen248):
    acc = INFINITY
    for m in range(1, 51):
        acc = add(acc, gen248)
        assert scalar_mul(m, gen248) == acc


def test_denominator_shape(gen248):
    # multiples of an integral point have x-denominator e^2, y-denominator e^3
    for m in range(1, 31):
        p = scalar_mul(m, gen248)
        e = isqrt(p.x.denominator)
        assert e * e == p.x.denominator
        assert p.y.denominator == e**3


def test_point_text_forms(curve248, gen248):
    assert str(INFINITY) == "O"
    assert str(curve248.point(Fraction(25, 36), Fraction(-37, 216))) == "(25/36, -37/216)"
    assert str(gen248) == "(1, 1)"
