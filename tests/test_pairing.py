from fractions import Fraction

import pytest

from ecinj.pairing import cantor_pair, cantor_unpair, zagier_eval


def test_pair_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 2) == 8
    assert cantor_pair(2, 1) == 7


def test_unpair_examples():
    assert cantor_unpair(0) == (0, 0)
    assert cantor_unpair(8) == (1, 2)
    assert cantor_pair(*cantor_unpair(5150)) == 5150


def test_round_trip_exhaustive_triangle():
    for x in range(201):
        for y in range(201 - x):
            assert cantor_unpair(cantor_pair(x, y)) == (x, y)


def test_bijection_onto_initial_segment():
    k = 200
    values = {cantor_pair(x, y) for x in range(k + 1) for y in range(k + 1 - x)}
    assert values == set(range((k + 1) * (k + 2) // 2))


def test_negative_rejected():
    with pytest.raises(ValueError):
        cantor_pair(-1, 0)
    with pytest.raises(ValueError):
        cantor_unpair(-3)


def test_zagier_eval_examples():
    assert zagier_eval(Fraction(1), Fraction(1), 7, 3) == 4
    assert zagier_eval(Fraction(1, 2), Fraction(1), 7, 3) == Fraction(385, 128)
    assert zagier_eval(Fraction(0), Fraction(0), 7, 3) == 0


def test_zagier_eval_rejects_even_n():
    with pytest.raises(ValueError):
        zagier_eval(Fraction(1), Fraction(1), 6, 3)
