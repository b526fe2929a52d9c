import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from ecinj.rational import coprime_fraction, exact_sqrt, format_rational, height, parse_rational

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


def test_coprime_fraction_is_the_canonical_fraction():
    for num, den in ((-7, 12), (0, 1), (5, 1), (2**300 + 1, 3**200)):
        r = coprime_fraction(num, den)
        assert type(r) is Fraction
        assert (r.numerator, r.denominator) == (num, den)
        assert r == Fraction(num, den) and hash(r) == hash(Fraction(num, den))
        assert r + 1 == Fraction(num + den, den)


def _digits_value(text):
    """The integer a digit string spells, by halves: independent of the
    conversion under test, and with no int(str) past 4,000 digits."""
    if len(text) <= 4000:
        return int(text)
    half = len(text) // 2
    return _digits_value(text[:half]) * 10 ** (len(text) - half) + _digits_value(text[half:])


def test_format_rational_matches_decimal_at_every_size():
    rng = random.Random(12)
    sizes = [1, 2, 9, 10, 1233, 1234, 1300, 2500, 4300, 4301, 10_000, 26_000, 100_000]
    for i, digits in enumerate(sizes):
        n = (-1) ** i * rng.randrange(10 ** (digits - 1), 10**digits)
        assert format_rational(Fraction(n)) == str(Decimal(n))
    n, d = -(3**40_000), 2**50_001
    assert format_rational(Fraction(n, d)) == f"{Decimal(n)}/{Decimal(d)}"
    # Decimal(n) would take about 20 s at a million digits, so the
    # digits are read back instead
    n = -rng.randrange(10**999_999, 10**1_000_000)
    text = format_rational(Fraction(n))
    assert text[0] == "-" and text[1] != "0" and len(text) == 1_000_001
    assert -_digits_value(text[1:]) == n


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_text_round_trip_ignores_the_int_digit_limit():
    # PYTHONINTMAXSTRDIGITS can lower the limit to 640; str(int) and
    # int(str) would then refuse these, the Decimal conversions do not
    rng = random.Random(30)
    n = -rng.randrange(10**4400, 10**4401)
    d = rng.randrange(10**5000, 10**5001) | 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for r in (Fraction(n), Fraction(n, d)):
            text = format_rational(r)
            assert parse_rational(text) == r
            assert format_rational(parse_rational(text)) == text
        assert len(format_rational(Fraction(n))) == 4402
    finally:
        sys.set_int_max_str_digits(limit)
