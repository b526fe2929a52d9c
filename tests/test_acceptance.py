"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (visible with `pytest -s`) and enforcing the stated
runtime budget."""

import random
import time
from fractions import Fraction

from ecinj import collisions
from ecinj.collisions import f_injectivity_scan, p_injectivity_scan, zagier_probe
from ecinj.curve import INFINITY, add, negate, on_curve, scalar_mul
from ecinj.injection import InjectionParams, validate_params
from ecinj.pairing import cantor_pair, cantor_unpair
from ecinj.points import OrbitSpec, brute_force_points, orbit
from ecinj.rational import height
from ecinj.real_locus import REFERENCE_MIN_SLOPE_248C1, slope_bound
from ecinj.reporting import canonical_json
from ecinj.weierstrass import (
    lambda_match,
    laurent_coefficients,
    laurent_fit,
    ode_residual,
    periods,
    strong_uniqueness_probe,
)


class Budget:
    def __init__(self, criterion, seconds, description):
        self.criterion = criterion
        self.seconds = seconds
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded {self.seconds}s ({elapsed:.1f}s)"
            )
            print(f"ACCEPTANCE {self.criterion} PASS ({elapsed:.2f}s): {self.description}")
        else:
            print(f"ACCEPTANCE {self.criterion} FAIL: {self.description}")
        return False


def reverify(report, evaluate):
    for cls in report.classes:
        for key in cls.keys:
            assert evaluate(key) == cls.value


def test_criterion_1_group_law_suite(curve248, gen248):
    with Budget(1, 10, "group laws on 1000 orbit triples; scalar_mul to |m| <= 50"):
        cache = {m: scalar_mul(m, gen248) for m in range(-50, 51)}
        pts = list(cache.values())
        rng = random.Random(101)
        for _ in range(1000):
            p, q, r = (rng.choice(pts) for _ in range(3))
            s = add(p, q)
            assert on_curve(curve248, s)
            assert s == add(q, p)
            assert add(s, r) == add(p, add(q, r))
            assert add(p, INFINITY) == p
            assert add(p, negate(p)) == INFINITY
        for _ in range(200):
            m, n = rng.randint(-25, 25), rng.randint(-25, 25)
            assert cache[m + n] == add(cache[m], cache[n])
        acc = INFINITY
        for m in range(1, 51):
            acc = add(acc, gen248)
            assert acc == cache[m]


def test_criterion_2_oracle_equivalence(curve248, gen248):
    with Budget(2, 5, "brute force H=13 equals orbit points of x-height <= 13"):
        brute = {(p.x, p.y) for _, p in brute_force_points(curve248, 13)}
        orbit_small = {
            (p.x, p.y) for _, p in orbit(OrbitSpec(gen248, 10)) if height(p.x) <= 13
        }
        assert brute == orbit_small
        expected = {
            (m, y.x, y.y) for m in (1, -1, 2, -2, 3, -3) for y in [scalar_mul(m, gen248)]
        }
        assert {(x, y) for _, x, y in expected} == brute


def test_criterion_3_p_injectivity_desk_scan(ufunc248, gen248):
    with Budget(3, 60, "P = x+y collision-free over |m| <= 2000 (4000 points)"):
        spec = OrbitSpec(gen248, 2000)
        report = p_injectivity_scan(ufunc248, spec)
        again = p_injectivity_scan(ufunc248, spec)
        assert canonical_json(report.to_json_dict()) == canonical_json(again.to_json_dict())
        assert report.total_scanned == 4000
        reverify(report, lambda m: ufunc248.eval_P(scalar_mul(m, gen248)))
        assert report.classes == []
        assert report.duplicate_points == []


def test_criterion_4_f_injectivity_desk_scan(ufunc248, gen248, progress, monkeypatch):
    with Budget(4, 600, "f = P^9 + 2 P^9 collision-free over 160000 pairs; partition-invariant"):
        spec = OrbitSpec(gen248, 200)
        report = f_injectivity_scan(ufunc248, spec)
        progress.clear()
        # a target of 6,250 keys, a twenty-sixth of the 160000; the
        # default partitions target 2**14 keys
        monkeypatch.setattr(collisions, "PAIR_PARTITION_KEYS", 6250)
        monkeypatch.setattr(collisions, "PAIR_KEYS_PER_ITEM", 0)
        partitioned = f_injectivity_scan(ufunc248, spec)
        assert sum(line.startswith("f-scan partition") for line in progress) >= 26
        assert canonical_json(report.to_json_dict()) == canonical_json(partitioned.to_json_dict())
        assert report.total_scanned == 160_000
        reverify(
            report,
            lambda pair: ufunc248.eval_f(
                scalar_mul(pair[0], gen248), scalar_mul(pair[1], gen248)
            ),
        )
        assert report.classes == []


def test_criterion_5_slope_certificate(curve248):
    with Budget(5, 5, "certified min |slope| enclosure excludes slope -1"):
        cert = slope_bound(curve248, reference=REFERENCE_MIN_SLOPE_248C1)
        assert cert.excludes_minus_one
        assert cert.min_abs_slope.width < Fraction(1, 10**10)
        report = cert.to_json_dict()
        assert report["reference_bound_decimal"] == 2.708
        assert report["min_abs_slope"]["lo"] and report["min_abs_slope"]["hi"]
        # enclosure certification: endpoints are exact rationals bracketing
        # the quartic critical point (checked by exact sign change)
        assert cert.min_abs_slope.lo > 1
        # computed enclosure sits near 1.915, reported beside the reference
        assert Fraction(19, 10) < cert.min_abs_slope.lo < Fraction(2)


def test_criterion_6_analytic_suite(curve248):
    with Budget(6, 60, "wp identities, Laurent coefficients, coefficient matching"):
        lat = periods(curve248)
        rng = random.Random(606)
        for _ in range(100):
            z = (0.05 + 0.4 * rng.random()) * lat.omega1 + (
                0.05 + 0.4 * rng.random()
            ) * complex(lat.omega2)
            assert ode_residual(lat, z) < 1e-9
            p, pp = lat.wp(z)
            p1, pp1 = lat.wp(z + lat.omega1)
            assert abs(p1 - p) < 1e-9 and abs(pp1 - pp) < 1e-9
            pm, ppm = lat.wp(-z)
            assert abs(pm - p) < 1e-9 and abs(ppm + pp) < 1e-9
        fit = laurent_fit(lat, 2)
        exact = laurent_coefficients(curve248.a, curve248.b, 2)
        assert exact == [Fraction(-1, 5), Fraction(1, 7)]
        assert abs(fit.coefficients[0] - float(exact[0])) < 1e-6
        assert abs(fit.coefficients[1] - float(exact[1])) < 1e-6
        for _ in range(1000):
            l1 = rng.uniform(0.3, 2.5) + 1j * rng.uniform(-1.5, 1.5)
            l2 = l1 + (0.05 + rng.uniform(0, 1.5)) * 1j ** rng.randint(0, 3)
            c = rng.uniform(0.3, 2.5) + 1j * rng.uniform(-1.5, 1.5)
            assert lambda_match(1, 1, l1, l2, c) != "consistent"
        assert strong_uniqueness_probe(lat, 1, 1, 1, 1, 1) < 1e-9
        assert strong_uniqueness_probe(lat, 1, 1, 2, 2, 1) < 1e-9
        for l1, l2, c in ((1, 1, 2), (1, 2, 8), (1, 2, 1), (2, 3, 1)):
            assert strong_uniqueness_probe(lat, 1, 1, l1, l2, c) > 1e-9


def test_criterion_7_cantor_bijection():
    with Budget(7, 5, "Cantor pairing bijective on the triangle x+y <= 200"):
        seen = set()
        for x in range(201):
            for y in range(201 - x):
                z = cantor_pair(x, y)
                assert cantor_unpair(z) == (x, y)
                seen.add(z)
        assert seen == set(range(20_301))


def test_criterion_8_zagier_probe():
    with Budget(8, 60, "x^7 + 3 y^7 collision-free over height <= 5 pairs"):
        report = zagier_probe(5)
        assert report.total_scanned == 39 * 39
        assert report.classes == []
        assert report.exit_code == 0


def test_criterion_9_hypothesis_gate():
    with Budget(9, 1, "every violated hypothesis clause is rejected by name"):
        valid = InjectionParams(1, 1, 2, 9)
        assert validate_params(valid) == []
        mutations = {
            InjectionParams(0, 1, 2, 9): "alpha = 0",
            InjectionParams(1, 0, 2, 9): "beta = 0",
            InjectionParams(1, 1, 1, 9): "gamma in {-1, 0, 1}",
            InjectionParams(1, 1, 2, 8): "n < 9",
            InjectionParams(1, 1, 2, 10): "n even",
        }
        for params, clause in mutations.items():
            violations = validate_params(params)
            assert violations, f"{params} accepted"
            assert any(clause in v for v in violations)
