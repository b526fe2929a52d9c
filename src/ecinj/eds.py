"""The multiples m*G of a rational point of infinite order, in canonical form
with no gcd, from the elliptic divisibility sequence at G.

The curve is scaled to an integral model, (x, y) -> (u^2 x, u^3 y), on which
G = (X, Y) and y^2 = x^3 + Ax + B.  The division polynomials at G form an
elliptic divisibility sequence psi_m (Ward 1948), computed by the doubling
recurrence, and with D = u*psi_m

    x(mG) = phi_m / D^2,    phi_m = X psi_m^2 - psi_{m+1} psi_{m-1},
    y(mG) = omega_m / D^3,  omega_m = (psi_{m+2} psi_{m-1}^2 - psi_{m-2} psi_{m+1}^2) / (4Y).

A prime shared by a numerator and D divides u, or it is one where G
reduces to the singular point, i.e. divides gcd(2Y, 3X^2 + A) (Ayad 1993).
Call these primes S.  Every value here is kept as (w, v): the integer
w * prod(p^v_p for p in S) with w prime to S.  At the primes of S the
sequence carries most of its size (on the default curve v_2(psi_m) is
about m^2/4 of its 0.43 m^2 bits), and holding those powers as exponents
keeps the products small and turns the canonical form into a comparison of
exponents: outside S the pairs are already coprime.

When trial division cannot factor the numbers that give S, the primes it
found are still split off, and `Fraction` reduces the pairs instead.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator

from .curve import Point
from .rational import coprime_fraction

# Trial division finds every prime factor of a number whose cofactor after
# the primes up to here is 1 or prime.
TRIAL_DIVISION_BOUND = 1 << 16


def multiples(g: Point, bound: int) -> Iterator[Point]:
    """m*G for m = 1..bound; G has infinite order."""
    c = g.curve
    u, scale_primes, scale_known = _integral_scale(c.a, c.b, g.x, g.y)
    a, b = _integer(c.a * u**4), _integer(c.b * u**6)
    x, y = _integer(g.x * u**2), _integer(g.y * u**3)
    singular_primes, singular_known = _prime_factors(gcd(2 * y, 3 * x * x + a))
    s = _Split(sorted(set(scale_primes) | set(singular_primes)))
    canonical = coprime_fraction if scale_known and singular_known else Fraction
    if bound >= 1:
        yield g
    terms = _division_values(s, a, b, x, y)
    gx, scale, four_y = s.split(x), s.split(u), s.split(4 * y)
    psi = [next(terms) for _ in range(5)]  # psi_{m-2} .. psi_{m+2}, at m = 2
    sq = [s.times(t, t) for t in psi[1:4]]  # psi_{m-1}^2 .. psi_{m+1}^2
    for m in range(2, bound + 1):
        phi = s.minus(s.times(gx, sq[1]), s.times(psi[3], psi[1]))
        omega = s.minus(s.times(psi[4], sq[0]), s.times(psi[0], sq[2]))
        d = s.times(scale, psi[2])
        d2 = s.times(s.times(scale, scale), sq[1])
        x_num, x_den = s.ratio(phi, d2)
        y_num, y_den = s.ratio(s.divide(omega, four_y), s.times(d2, d))
        yield Point(c, canonical(x_num, x_den), canonical(y_num, y_den))
        if m < bound:
            psi = psi[1:] + [next(terms)]
            sq = sq[1:] + [s.times(psi[3], psi[3])]


def _division_values(s: "_Split", a: int, b: int, x: int, y: int) -> Iterator[tuple]:
    """psi_0, psi_1, psi_2, ... at (x, y) on y^2 = x^3 + ax + b, split by
    `s`, from the doubling recurrence; psi_2m divides exactly by psi_2 = 2y."""
    psi3 = 3 * x**4 + 6 * a * x**2 + 12 * b * x - a**2
    psi4 = 4 * y * (x**6 + 5 * a * x**4 + 20 * b * x**3 - 5 * a**2 * x**2 - 4 * a * b * x - 8 * b**2 - a**3)
    psi = [s.split(v) for v in (0, 1, 2 * y, psi3, psi4)]
    yield from psi
    while True:
        m = len(psi) >> 1
        if len(psi) & 1:
            v = s.minus(
                s.times(psi[m + 2], s.times(psi[m], s.times(psi[m], psi[m]))),
                s.times(psi[m - 1], s.times(psi[m + 1], s.times(psi[m + 1], psi[m + 1]))),
            )
        else:
            v = s.minus(
                s.times(psi[m + 2], s.times(psi[m - 1], psi[m - 1])),
                s.times(psi[m - 2], s.times(psi[m + 1], psi[m + 1])),
            )
            v = s.divide(s.times(psi[m], v), psi[2])
        psi.append(v)
        yield v


def _integral_scale(a: Fraction, b: Fraction, x: Fraction, y: Fraction) -> tuple:
    """(u, primes of u found, whether that is all of them): the least u > 0
    with u^4 a, u^6 b, u^2 x and u^3 y integers, or the lcm of their
    denominators when trial division cannot factor it."""
    dens = ((a.denominator, 4), (b.denominator, 6), (x.denominator, 2), (y.denominator, 3))
    whole = lcm(*(den for den, _ in dens))
    primes, known = _prime_factors(whole)
    if not known:
        return whole, primes, False
    u = 1
    for p in primes:
        u *= p ** max(-(-_valuation(den, p) // k) for den, k in dens)
    return u, primes, True


def _integer(r: Fraction) -> int:
    assert r.denominator == 1, r
    return r.numerator


def _prime_factors(n: int) -> tuple:
    """(distinct prime factors of n > 0 found by trial division up to
    TRIAL_DIVISION_BOUND, in increasing order; whether they are all)."""
    primes = []
    p = 2
    while p * p <= n:
        if p > TRIAL_DIVISION_BOUND:
            return primes, False
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes, True


def _valuation(n: int, p: int) -> int:
    """The exponent of the prime p in n != 0, in O(log) divisions."""
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    powers = []  # p^(2^i) while those divide n
    q = p
    while n % q == 0:
        n //= q
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    for i in reversed(range(len(powers))):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


class _Split:
    """Arithmetic on (w, v) = w * prod(p^v_p), w prime to the primes."""

    def __init__(self, primes):
        self.primes = tuple(primes)

    def split(self, n: int, base=None) -> tuple:
        """n * prod(p^base_p) as (w, v); zero is (0, base)."""
        v = list(base or (0,) * len(self.primes))
        if n:
            for i, p in enumerate(self.primes):
                k = _valuation(n, p)
                if k:
                    n = n >> k if p == 2 else n // p**k
                    v[i] += k
        return n, tuple(v)

    def lift(self, w: int, v) -> int:
        """w * prod(p^v_p), v >= 0."""
        for p, k in zip(self.primes, v):
            if k:
                w = w << k if p == 2 else w * p**k
        return w

    def times(self, s: tuple, t: tuple) -> tuple:
        return s[0] * t[0], tuple(i + j for i, j in zip(s[1], t[1]))

    def divide(self, s: tuple, t: tuple) -> tuple:
        """s / t, known to be exact."""
        return s[0] // t[0], tuple(i - j for i, j in zip(s[1], t[1]))

    def minus(self, s: tuple, t: tuple) -> tuple:
        if not s[0]:
            return -t[0], t[1]
        if not t[0]:
            return s
        low = tuple(map(min, s[1], t[1]))
        n = self.lift(s[0], [i - j for i, j in zip(s[1], low)]) - self.lift(
            t[0], [i - j for i, j in zip(t[1], low)]
        )
        return self.split(n, low)

    def ratio(self, s: tuple, t: tuple) -> tuple:
        """(num, den) of s / t with den > 0, the powers of the primes
        cancelled; t != 0."""
        if not s[0]:
            return 0, 1
        num = self.lift(s[0], [max(0, i - j) for i, j in zip(s[1], t[1])])
        den = self.lift(t[0], [max(0, j - i) for i, j in zip(s[1], t[1])])
        return (-num, -den) if den < 0 else (num, den)
