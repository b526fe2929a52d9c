from fractions import Fraction
from math import gcd, isqrt

import pytest

from ecinj.curve import Curve, INFINITY, add, on_curve, scalar_mul
from ecinj.points import (
    OrbitSpec,
    brute_force_points,
    orbit,
    rationals_by_height,
    x_candidates,
)
from ecinj.rational import height
from exact_oracle import pair_stream


def test_orbit_m2(curve248, gen248):
    got = [(label, (p.x, p.y)) for label, p in orbit(OrbitSpec(gen248, 2))]
    assert got == [
        (1, (1, 1)),
        (-1, (1, -1)),
        (2, (2, -3)),
        (-2, (2, 3)),
    ]


def test_orbit_empty(gen248):
    assert list(orbit(OrbitSpec(gen248, 0))) == []


def test_orbit_m4_contains_fourth_multiple(gen248):
    pts = dict(orbit(OrbitSpec(gen248, 4)))
    assert pts[4].x == Fraction(25, 36) and pts[4].y == Fraction(37, 216)


def test_orbit_matches_scalar_mul(gen248):
    for label, p in orbit(OrbitSpec(gen248, 12)):
        assert p == scalar_mul(label, gen248)


def test_orbit_trivial_generator():
    with pytest.raises(ValueError, match="trivial generator"):
        list(orbit(OrbitSpec(INFINITY, 3)))


def test_orbit_all_points_on_curve(curve248, gen248):
    for _, p in orbit(OrbitSpec(gen248, 20)):
        assert on_curve(curve248, p)


def test_orbit_deterministic(gen248):
    a = [(l, p.x, p.y) for l, p in orbit(OrbitSpec(gen248, 15))]
    b = [(l, p.x, p.y) for l, p in orbit(OrbitSpec(gen248, 15))]
    assert a == b


def test_orbit_with_torsion_translates():
    c = Curve(-25, 0)  # rank 1, generator (-4, 6), 2-torsion (0, 0)
    g = c.point(-4, 6)
    t = c.point(0, 0)
    spec = OrbitSpec(g, 2, (INFINITY, t))
    pts = list(orbit(spec))
    assert len(pts) == 8
    labels = [label for label, _ in pts]
    assert labels[:4] == [(1, 0), (1, 1), (-1, 0), (-1, 1)]
    lookup = dict(pts)
    assert lookup[(1, 1)] == add(g, t)
    assert len({(p.x, p.y) for _, p in pts}) == 8


def test_orbit_rejects_non_torsion_claim(gen248):
    with pytest.raises(ValueError, match="order"):
        OrbitSpec(gen248, 2, (INFINITY, gen248)).validate()


def test_orbit_rejects_torsion_without_identity():
    c = Curve(-25, 0)
    with pytest.raises(ValueError, match="identity exactly once"):
        OrbitSpec(c.point(-4, 6), 2, (c.point(0, 0),)).validate()


def test_brute_force_h2(curve248):
    got = {(p.x, p.y) for _, p in brute_force_points(curve248, 2)}
    assert got == {(1, 1), (1, -1), (2, -3), (2, 3)}


def test_brute_force_h13_contains_third_multiple(curve248):
    got = {(p.x, p.y) for _, p in brute_force_points(curve248, 13)}
    assert (13, 47) in got and (13, -47) in got


def test_brute_force_two_torsion_curve():
    c = Curve(-1, 0)
    got = {(p.x, p.y) for _, p in brute_force_points(c, 1)}
    assert got == {(0, 0), (1, 0), (-1, 0)}


def test_brute_force_pruning_agrees_with_unpruned(curve248):
    for c in (curve248, Curve(-1, 0), Curve(0, 1)):
        pruned = {(p.x, p.y) for _, p in brute_force_points(c, 6, prune=True)}
        full = {(p.x, p.y) for _, p in brute_force_points(c, 6, prune=False)}
        assert pruned == full


def test_orbit_brute_force_consistency(curve248, gen248):
    # every orbit point of x-height <= 13 is found by brute force, and
    # conversely every brute-force point appears in the orbit with |m| <= 4
    brute = {(p.x, p.y) for _, p in brute_force_points(curve248, 13)}
    orb = {(p.x, p.y): label for label, p in orbit(OrbitSpec(gen248, 4))}
    small = {xy for xy in orb if height(xy[0]) <= 13}
    assert small == brute
    assert all(abs(orb[xy]) <= 3 for xy in brute)


def test_pair_stream_counts(gen248):
    assert len(list(pair_stream(orbit(OrbitSpec(gen248, 1))))) == 4
    assert list(pair_stream([])) == []
    n = sum(1 for _ in pair_stream(orbit(OrbitSpec(gen248, 60))))
    assert n == 14400


def test_pair_stream_row_major():
    pairs = list(pair_stream([("a", 1), ("b", 2)]))
    assert pairs == [
        (("a", 1), ("a", 1)),
        (("a", 1), ("b", 2)),
        (("b", 2), ("a", 1)),
        (("b", 2), ("b", 2)),
    ]


def test_rationals_by_height_h1_order():
    assert list(rationals_by_height(1)) == [0, 1, -1]


def test_rationals_by_height_h5_count():
    rats = list(rationals_by_height(5))
    assert len(rats) == 39
    assert len(set(rats)) == 39
    assert all(height(r) <= 5 for r in rats)


def test_x_candidates_match_the_full_square_scan():
    # the reference loops over every (p, q) with |p|, q <= h at each height
    # h and keeps those of height exactly h, in the same sort order
    def reference(h_bound, squares_only):
        for h in range(1, h_bound + 1):
            level = [
                Fraction(p, q)
                for q in range(1, h + 1)
                if not squares_only or isqrt(q) ** 2 == q
                for p in range(-h, h + 1)
                if max(abs(p), q) == h and gcd(abs(p), q) == 1
            ]
            level.sort(key=lambda r: (abs(r.numerator), r.numerator < 0, r.denominator))
            yield from level

    for h_bound in range(26):
        for squares_only in (False, True):
            assert list(x_candidates(h_bound, squares_only)) == list(reference(h_bound, squares_only))
