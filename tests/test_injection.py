import json
import random
from fractions import Fraction

import pytest

from ecinj.curve import INFINITY, Curve, CurveMismatchError, negate, scalar_mul
from ecinj.injection import InjectionParams, PoleError, validate_params


def test_validate_ok(params_default):
    assert validate_params(params_default) == []


def test_validate_even_n():
    out = validate_params(InjectionParams(1, 1, 2, 10))
    assert out == ["n even: -1 is an n-th root of unity in Q"]


def test_validate_beta_zero():
    assert validate_params(InjectionParams(1, 0, 2, 9)) == ["beta = 0"]


def test_validate_each_clause_named():
    cases = {
        InjectionParams(0, 1, 2, 9): "alpha = 0",
        InjectionParams(1, 0, 2, 9): "beta = 0",
        InjectionParams(1, 1, 1, 9): "gamma in {-1, 0, 1}",
        InjectionParams(1, 1, -1, 9): "gamma in {-1, 0, 1}",
        InjectionParams(1, 1, 0, 9): "gamma in {-1, 0, 1}",
        InjectionParams(1, 1, 2, 10): "n even: -1 is an n-th root of unity in Q",
    }
    for params, clause in cases.items():
        assert clause in validate_params(params)
    assert any(v.startswith("n < 9") for v in validate_params(InjectionParams(1, 1, 2, 8)))


def test_eval_P(ufunc248, curve248, gen248):
    assert ufunc248.eval_P(gen248) == 2
    assert ufunc248.eval_P(curve248.point(2, -3)) == -1
    with pytest.raises(PoleError):
        ufunc248.eval_P(INFINITY)


def test_eval_P_refuses_a_point_of_another_curve(ufunc248):
    # (1, 1) lies on y^2 = x^3 + 1*x - 1 and on y^2 = x^3 - 1*x + 1
    with pytest.raises(CurveMismatchError, match="^curve mismatch: "):
        ufunc248.eval_P(Curve(-1, 1).point(1, 1))


def test_eval_f_examples(ufunc248, curve248, gen248):
    g = gen248
    assert ufunc248.eval_f(g, g) == 1536
    assert ufunc248.eval_f(g, curve248.point(2, -3)) == 510
    assert ufunc248.eval_f(g, curve248.point(13, 47)) == 20155392000000512


def test_eval_f_pole(ufunc248, gen248):
    with pytest.raises(PoleError):
        ufunc248.eval_f(gen248, INFINITY)


def test_eval_f_matches_independent_recomputation(ufunc248, gen248):
    rng = random.Random(2)
    pts = [scalar_mul(m, gen248) for m in range(1, 9)]
    n, gamma = ufunc248.params.n, ufunc248.params.gamma
    for _ in range(40):
        p1, p2 = rng.choice(pts), rng.choice(pts)
        direct = ufunc248.eval_P(p1) ** n + gamma * ufunc248.eval_P(p2) ** n
        assert ufunc248.eval_f(p1, p2) == direct


def test_antisymmetry_probe(ufunc248, gen248):
    # P(-p) = alpha*x - beta*y differs from P(p) whenever y != 0, beta != 0
    for m in range(1, 12):
        p = scalar_mul(m, gen248)
        flipped = ufunc248.eval_P(negate(p))
        assert flipped == ufunc248.params.alpha * p.x - ufunc248.params.beta * p.y
        assert flipped != ufunc248.eval_P(p)


def test_odd_power_injective_on_rationals():
    # r -> r^9 is strictly monotone on Q, so the ninth power pins the value
    rng = random.Random(4)
    seen = {}
    for _ in range(10_000):
        r = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        v = r**9
        assert seen.setdefault(v, r) == r
        assert (r > 0) == (v > 0) or r == 0


def test_params_json_round_trip(params_default):
    blob = json.dumps(params_default.to_json_dict())
    assert json.loads(blob) == {"alpha": "1", "beta": "1", "gamma": "2", "n": 9}
