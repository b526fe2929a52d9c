import random
from fractions import Fraction

import pytest

from ecinj.polyroots import (
    cauchy_root_bound,
    count_roots,
    isolate_real_roots,
    poly_eval,
    refine_root,
    sturm_chain,
)


def test_poly_eval():
    # 3x^4 + 6x^2 - 12x - 1 at x = 1
    q = [Fraction(-1), Fraction(-12), Fraction(6), Fraction(0), Fraction(3)]
    assert poly_eval(q, Fraction(1)) == -4
    assert poly_eval(q, Fraction(0)) == -1


def test_isolate_cubic_with_exact_roots():
    # x^3 - x: roots -1, 0, 1
    f = [Fraction(0), Fraction(-1), Fraction(0), Fraction(1)]
    roots = isolate_real_roots(f)
    assert len(roots) == 3
    for (lo, hi), expected in zip(roots, (-1, 0, 1)):
        assert lo <= expected <= hi


def test_isolate_248c1_quartic():
    q = [Fraction(-1), Fraction(-12), Fraction(6), Fraction(0), Fraction(3)]
    roots = isolate_real_roots(q)
    assert len(roots) == 2
    refined = [refine_root(q, iv, depth=60) for iv in roots]
    assert refined[0][0] < Fraction(-8, 100) < Fraction(-79, 1000)  # near -0.0801
    lo, hi = refined[1]
    assert Fraction(1222, 1000) < lo <= hi < Fraction(1223, 1000)
    assert hi - lo < Fraction(1, 10**15)


def test_sturm_count_matches_isolation():
    rng = random.Random(42)
    for _ in range(30):
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(5)]
        if all(c == 0 for c in coeffs[2:]):
            continue
        roots = isolate_real_roots(coeffs)
        chain = sturm_chain(coeffs)
        b = cauchy_root_bound(coeffs)
        total = count_roots(chain, -b, b) + (1 if poly_eval(coeffs, -b) == 0 else 0)
        # isolation finds exactly the distinct real roots Sturm counts
        assert len(roots) == total


def test_refine_maintains_bracket():
    f = [Fraction(-2), Fraction(0), Fraction(1)]  # x^2 - 2
    (iv,) = [iv for iv in isolate_real_roots(f) if iv[1] > 0]
    lo, hi = refine_root(f, iv, depth=80)
    assert lo * lo < 2 < hi * hi
    assert hi - lo < Fraction(1, 2**75)


def test_refine_requires_bracket():
    f = [Fraction(-2), Fraction(0), Fraction(1)]
    with pytest.raises(ValueError):
        refine_root(f, (Fraction(2), Fraction(3)))


@pytest.mark.parametrize(
    "coeffs, interval, root",
    [
        # a degenerate interval comes back as it is
        ([-2, 0, 1], (Fraction(3, 2), Fraction(3, 2)), Fraction(3, 2)),
        # x - 1 with the root at the left, then at the right endpoint
        ([-1, 1], (Fraction(1), Fraction(2)), Fraction(1)),
        ([-1, 1], (Fraction(0), Fraction(1)), Fraction(1)),
        # x^2 - 1/4 on [0, 1]: the first midpoint is the root
        ([Fraction(-1, 4), 0, 1], (Fraction(0), Fraction(1)), Fraction(1, 2)),
    ],
)
def test_refine_returns_exact_roots(coeffs, interval, root):
    assert refine_root([Fraction(c) for c in coeffs], interval) == (root, root)
