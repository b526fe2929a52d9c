import json
import random
from fractions import Fraction

import pytest

from ecinj.collisions import (
    collision_scan,
    f_injectivity_scan,
    p_injectivity_scan,
    zagier_probe,
)
from ecinj.curve import Curve, INFINITY
from ecinj.injection import InjectionParams, UniquenessFunction
from ecinj.points import OrbitSpec, rationals_by_height
from ecinj.rational import parse_rational
from ecinj.reporting import canonical_json
from exact_oracle import exact_f_scan, exact_p_scan

# (P-scan, f-scan) of the tests' exact oracle and of the package, which
# scans an orbit of infinite order with the residue fingerprint engine and
# a finite one, like the order-4 generator below, exactly
ENGINES = {
    "exact": (exact_p_scan, exact_f_scan),
    "residue": (p_injectivity_scan, f_injectivity_scan),
}


def keyed(values, keys):
    return list(zip(keys, map(Fraction, values)))


def test_basic_class():
    rep = collision_scan(keyed([1, 2, 1], ["a", "b", "c"]))
    assert rep.total_scanned == 3
    assert len(rep.classes) == 1
    assert rep.classes[0].value == 1 and rep.classes[0].keys == ["a", "c"]
    assert rep.exit_code == 2


def test_no_classes_exit_zero():
    rep = collision_scan(keyed([1, 2, 3], "abc"))
    assert rep.classes == [] and rep.exit_code == 0


def test_agrees_with_naive_all_pairs():
    rng = random.Random(6)
    for trial in range(10):
        n = rng.randint(2, 500)
        vals = [Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)]
        stream = keyed(vals, range(n))
        rep = collision_scan(stream)
        naive = {}
        for i in range(n):
            for j in range(i + 1, n):
                if vals[i] == vals[j]:
                    naive.setdefault(vals[i], {i}).update((i, j))
        got = {c.value: set(c.keys) for c in rep.classes}
        assert got == {v: ks for v, ks in naive.items()}


def test_permutation_invariance_up_to_class_order():
    rng = random.Random(10)
    vals = [Fraction(rng.randint(-5, 5)) for _ in range(100)]
    stream = keyed(vals, range(100))
    rep_a = collision_scan(stream)
    shuffled = stream[:]
    rng.shuffle(shuffled)
    rep_b = collision_scan(shuffled)
    assert [c.value for c in rep_a.classes] == [c.value for c in rep_b.classes]
    assert [set(c.keys) for c in rep_a.classes] == [set(c.keys) for c in rep_b.classes]


def test_class_past_the_digit_limit_is_reported():
    # str(int) refuses more than 4300 digits; a finding must still render
    huge = Fraction(3**10_000, 2**9_000 + 1)
    rep = collision_scan(keyed([huge, 1, huge], "abc"))
    assert rep.exit_code == 2
    [cls] = json.loads(canonical_json(rep.to_json_dict()))["classes"]
    assert cls["keys"] == ["a", "c"]
    assert parse_rational(cls["value"]) == huge


def test_classes_reverify():
    rng = random.Random(12)
    vals = [Fraction(rng.randint(-8, 8)) for _ in range(300)]
    stream = keyed(vals, range(300))
    for c in collision_scan(stream).classes:
        for key in c.keys:
            assert vals[key] == c.value


def test_p_scan_m1(ufunc248, gen248):
    rep = p_injectivity_scan(ufunc248, OrbitSpec(gen248, 1))
    assert rep.total_scanned == 2 and rep.classes == []


def test_p_scan_exact_and_residue_agree(ufunc248, gen248):
    spec = OrbitSpec(gen248, 40)
    exact = exact_p_scan(ufunc248, spec)
    residue = p_injectivity_scan(ufunc248, spec)
    assert exact.total_scanned == residue.total_scanned == 80
    assert exact.classes == residue.classes == []
    assert exact.duplicate_points == residue.duplicate_points == []


def test_p_scan_m100_clean(ufunc248, gen248):
    rep = p_injectivity_scan(ufunc248, OrbitSpec(gen248, 100))
    assert rep.total_scanned == 200 and rep.classes == []


def test_p_scan_rejects_invalid_params():
    # alpha = 0 on y^2 = x^3 + 1 admits the (x, y) -> (ex, y) symmetry; the
    # scan never runs because the hypothesis gate fires first
    c = Curve(0, 1)
    bad = UniquenessFunction(InjectionParams(0, 1, 2, 9), c)
    with pytest.raises(ValueError, match="alpha = 0"):
        p_injectivity_scan(bad, OrbitSpec(c.point(0, 1), 5))


# y^2 = x^3 - 2x + 1 with generator (0, 1) of order 4: the orbit at M=2 holds
# a genuine P-collision (P(0,1) = P(1,0) = 1) and a duplicate point
# (2G = -2G = (1,0)), exercising both findings paths at once.
@pytest.fixture(scope="module")
def collision_setup():
    c = Curve(-2, 1)
    u = UniquenessFunction(InjectionParams(1, 1, 2, 9), c)
    return u, OrbitSpec(c.point(0, 1), 2)


@pytest.mark.parametrize("engine", list(ENGINES))
def test_planted_collision_and_duplicate(collision_setup, engine):
    u, spec = collision_setup
    p_scan, _ = ENGINES[engine]
    rep = p_scan(u, spec)
    assert rep.duplicate_points == [[2, -2]]
    assert len(rep.classes) == 1
    cls = rep.classes[0]
    assert cls.value == 1 and cls.keys == [1, 2]
    assert rep.exit_code == 2
    # the class re-verifies by exact re-evaluation
    for key in cls.keys:
        from ecinj.curve import scalar_mul

        assert u.eval_P(scalar_mul(key, spec.generator)) == cls.value


def test_planted_methods_byte_identical(collision_setup):
    u, spec = collision_setup
    a = exact_p_scan(u, spec)
    b = p_injectivity_scan(u, spec)
    assert a.to_json_dict()["classes"] == b.to_json_dict()["classes"]
    assert a.to_json_dict()["duplicate_points"] == b.to_json_dict()["duplicate_points"]


def test_f_scan_refuses_non_injective_P(collision_setup):
    u, spec = collision_setup
    with pytest.raises(ValueError, match="P not injective"):
        f_injectivity_scan(u, spec)


def test_f_scan_m1_values(ufunc248, gen248):
    rep = f_injectivity_scan(ufunc248, OrbitSpec(gen248, 1))
    assert rep.total_scanned == 4 and rep.classes == []
    # the four pair values, recomputed exactly
    from ecinj.curve import negate

    g, ng = gen248, negate(gen248)
    vals = {ufunc248.eval_f(a, b) for a in (g, ng) for b in (g, ng)}
    assert vals == {1536, 512, 1024, 0}


def test_f_scan_m60_clean(ufunc248, gen248):
    rep = f_injectivity_scan(ufunc248, OrbitSpec(gen248, 60))
    assert rep.total_scanned == 14400 and rep.classes == []


def test_f_scan_exact_residue_agree(ufunc248, gen248):
    spec = OrbitSpec(gen248, 12)
    a = exact_f_scan(ufunc248, spec)
    b = f_injectivity_scan(ufunc248, spec)
    assert a.total_scanned == b.total_scanned == 576
    assert a.classes == b.classes == []


def test_f_scan_gamma_one_rejected(curve248, gen248):
    u = UniquenessFunction(InjectionParams(1, 1, 1, 9), curve248)
    with pytest.raises(ValueError, match="gamma"):
        f_injectivity_scan(u, OrbitSpec(gen248, 2))


# On the scaled model y^2 = x^3 + x/16 - 1/64 (isomorphic image of the
# default curve), P = x + y genuinely collides: -G = (1/4, -1/8) and
# 2G = (1/2, -3/8) both sum to 1/8.  A nonempty class is a finding to
# report, not a failure, and the scans must agree with the oracle on it exactly.
@pytest.mark.parametrize("engine", list(ENGINES))
def test_honest_exceptional_pair_on_scaled_curve(engine):
    c = Curve(Fraction(1, 16), Fraction(-1, 64))
    g = c.point(Fraction(1, 4), Fraction(1, 8))
    u = UniquenessFunction(InjectionParams(1, 1, 2, 9), c)
    p_scan, f_scan = ENGINES[engine]
    rep = p_scan(u, OrbitSpec(g, 30))
    assert rep.duplicate_points == []
    assert len(rep.classes) == 1
    cls = rep.classes[0]
    assert cls.value == Fraction(1, 8) and cls.keys == [-1, 2]
    assert rep.exit_code == 2
    with pytest.raises(ValueError, match="P not injective"):
        f_scan(u, OrbitSpec(g, 2))


@pytest.mark.parametrize("engine", list(ENGINES))
def test_torsion_translate_scan(engine):
    c = Curve(-25, 0)
    spec = OrbitSpec(c.point(-4, 6), 6, (INFINITY, c.point(0, 0)))
    u = UniquenessFunction(InjectionParams(1, 1, 2, 9), c)
    p_scan, _ = ENGINES[engine]
    rep = p_scan(u, spec)
    assert rep.total_scanned == 24
    assert rep.classes == [] and rep.duplicate_points == []


def test_torsion_scan_methods_byte_identical():
    c = Curve(-25, 0)
    spec = OrbitSpec(c.point(-4, 6), 4, (INFINITY, c.point(0, 0)))
    u = UniquenessFunction(InjectionParams(1, 1, 2, 9), c)
    a = exact_p_scan(u, spec).to_json_dict()
    b = p_injectivity_scan(u, spec).to_json_dict()
    assert a["classes"] == b["classes"] and a["total_scanned"] == b["total_scanned"]


def test_zagier_h1():
    rep = zagier_probe(1)
    assert rep.total_scanned == 9 and rep.classes == []
    # direct evaluation of the nine values in stream order
    from ecinj.pairing import zagier_eval

    rats = list(rationals_by_height(1))
    vals = [zagier_eval(a, b, 7, 3) for a in rats for b in rats]
    assert vals == [0, 3, -3, 1, 4, -2, -1, 2, -4]


def test_zagier_single_value():
    from ecinj.pairing import zagier_eval

    assert zagier_eval(Fraction(1, 2), Fraction(1), 7, 3) == Fraction(385, 128)


def test_zagier_h5_clean():
    rep = zagier_probe(5)
    assert rep.total_scanned == 39 * 39
    assert rep.classes == [] and rep.exit_code == 0


def test_report_json_shape(ufunc248, gen248):
    rep = p_injectivity_scan(ufunc248, OrbitSpec(gen248, 3))
    d = rep.to_json_dict()
    assert set(d) == {"version", "config_digest", "total_scanned", "classes", "duplicate_points"}
    assert d["total_scanned"] == 6
