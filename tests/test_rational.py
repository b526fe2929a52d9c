import math
import random
from fractions import Fraction

import pytest

from ecinj.rational import exact_sqrt, format_rational, height, parse_rational

# parse_rational normalizes: the sign goes to the numerator and gcd(num, den) = 1


def test_normalize_sign_and_gcd():
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("-2/4").denominator == 2


def test_normalize_zero_canonical():
    r = parse_rational("0/7")
    assert (r.numerator, r.denominator) == (0, 1)


def test_normalize_already_coprime():
    # gcd check by Euclid's algorithm, independent of Fraction internals
    assert math.gcd(1369, 46656) == 1
    r = parse_rational("1369/46656")
    assert (r.numerator, r.denominator) == (1369, 46656)


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_normalize_idempotent_on_random_canonical():
    rng = random.Random(7)
    for _ in range(500):
        r = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(f"{r.numerator}/{r.denominator}") == r


def test_exact_sqrt_examples():
    assert exact_sqrt(Fraction(9)) == 3
    s = exact_sqrt(Fraction(1369, 46656))
    assert s == Fraction(37, 216)
    assert s * s == Fraction(1369, 46656)
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(-4)) is None


def test_exact_sqrt_against_float_oracle():
    # float sqrt proposes a candidate, exact multiplication confirms it
    rng = random.Random(11)
    for _ in range(10_000):
        r = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
        got = exact_sqrt(r)
        cand = Fraction(
            round(math.sqrt(r.numerator)), max(1, round(math.sqrt(r.denominator)))
        )
        oracle = cand if cand * cand == r else None
        assert got == oracle
        if got is not None:
            assert got >= 0 and got * got == r


def test_height_examples():
    assert height(Fraction(0)) == 1
    assert height(Fraction(-13, 6)) == 13
    assert height(Fraction(25, 36)) == 36


def test_arithmetic_laws_random_triples():
    rng = random.Random(3)

    def rand():
        return Fraction(rng.randint(-999, 999), rng.randint(1, 999))

    for _ in range(300):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_text_round_trip():
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(7)) == "7"
    for text in ("-1/2", "7", "25/36", "0"):
        assert format_rational(parse_rational(text)) == text
