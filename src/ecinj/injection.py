"""The linear map P = alpha*x + beta*y on a curve and the two-variable
candidate f(q1, q2) = P(q1)^n + gamma * P(q2)^n built from it.

Parameter constraints (all violations are returned as data, not raised):
alpha != 0, beta != 0, gamma outside {-1, 0, 1}, n >= 9 and n odd.  Over Q
the roots of unity are exactly {1, -1}, so "the only n-th root of unity is
1" reduces to n being odd; that specialization is hard-coded here.
"""

from dataclasses import dataclass
from fractions import Fraction

from .curve import Curve, CurveMismatchError, Point
from .rational import format_rational


class PoleError(ValueError):
    """P = alpha*x + beta*y has its only pole at the identity."""


@dataclass(frozen=True)
class InjectionParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))

    def to_json_dict(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "gamma": format_rational(self.gamma),
            "n": self.n,
        }


def validate_params(p: InjectionParams) -> list[str]:
    """Empty list iff every hypothesis holds; otherwise one entry per violated clause."""
    violations = []
    if p.alpha == 0:
        violations.append("alpha = 0")
    if p.beta == 0:
        violations.append("beta = 0")
    if p.gamma in (Fraction(-1), Fraction(0), Fraction(1)):
        violations.append("gamma in {-1, 0, 1}")
    if p.n < 9:
        violations.append(f"n < 9 (n = {p.n})")
    if p.n % 2 == 0:
        violations.append("n even: -1 is an n-th root of unity in Q")
    return violations


@dataclass(frozen=True)
class UniquenessFunction:
    """P = alpha*x + beta*y, regular exactly on affine points of the curve.

    A point is taken to lie on its curve, as `Curve.point`, `add` and
    `scalar_mul` build no other; eval_P checks only that it is this curve.
    """

    params: InjectionParams
    curve: Curve

    def eval_P(self, p: Point) -> Fraction:
        if p.is_infinity:
            raise PoleError("pole of P: the only pole of alpha*x + beta*y is the identity")
        if p.curve != self.curve:
            raise CurveMismatchError(f"curve mismatch: {p.curve} vs {self.curve}")
        return self.params.alpha * p.x + self.params.beta * p.y

    def eval_f(self, p1: Point, p2: Point) -> Fraction:
        """Exact P(p1)^n + gamma * P(p2)^n for affine p1, p2."""
        n = self.params.n
        return self.eval_P(p1) ** n + self.params.gamma * self.eval_P(p2) ** n
