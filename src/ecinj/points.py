"""Streams of rational points: generator-orbit enumeration and
height-bounded brute-force search.

A point stream is a lazy iterator of (label, Point) pairs.  Orbit labels
record provenance: the integer m for m*G when the torsion list is empty,
or (m, k) for m*G + T_k.  Brute-force labels are the string "search".
Streams are deterministic: the same spec always yields the same sequence.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional

from .curve import Curve, INFINITY, Point, add, negate, on_curve
from .eds import multiples
from .rational import exact_sqrt

# The largest order of a rational torsion point (Mazur's bound).
MAX_TORSION_ORDER = 12


@dataclass(frozen=True)
class OrbitSpec:
    generator: Point
    bound: int
    torsion: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(self.torsion))

    def validate(self) -> None:
        g = self.generator
        if g.is_infinity:
            raise ValueError("trivial generator")
        if not on_curve(g.curve, g):
            raise ValueError(f"generator {g} is not on its curve")
        if self.bound < 0:
            raise ValueError("bound must be >= 0")
        if self.torsion:
            if sum(1 for t in self.torsion if t.is_infinity) != 1:
                raise ValueError("torsion list must contain the identity exactly once")
            for t in self.torsion:
                if t.is_infinity:
                    continue
                if not on_curve(g.curve, t):
                    raise ValueError(f"torsion point {t} is not on the curve")
                if torsion_cycle(t) is None:
                    raise ValueError(
                        f"claimed torsion point {t} has order > {MAX_TORSION_ORDER}"
                    )

    def config_dict(self) -> dict:
        return {
            "generator": str(self.generator),
            "bound": self.bound,
            "torsion": [str(t) for t in self.torsion],
        }


def torsion_cycle(p: Point) -> Optional[list]:
    """[O, p, 2p, ..., (d-1)p] when p has order d, else None (infinite order).

    A rational torsion point has order at most MAX_TORSION_ORDER (Mazur),
    so that many exact additions decide it.
    """
    cycle = [INFINITY]
    q = p
    while len(cycle) <= MAX_TORSION_ORDER:
        if q.is_infinity:
            return cycle
        cycle.append(q)
        q = add(q, p)
    return None


def orbit(spec: OrbitSpec) -> Iterator[tuple]:
    """Yield (label, m*G + T) for 0 < |m| <= bound in order m = 1, -1, 2, -2, ...

    -m*G is the negation of m*G, and each torsion translate is one
    addition.  The identity is never emitted.
    """
    spec.validate()
    translates = spec.torsion if spec.torsion else (INFINITY,)
    for m, mg in enumerate(_multiples(spec.generator, spec.bound), 1):
        neg_mg = negate(mg)
        for sign, base in ((m, mg), (-m, neg_mg)):
            for k, t in enumerate(translates):
                pt = base if t.is_infinity else add(base, t)
                if pt.is_infinity:
                    continue
                label = sign if not spec.torsion else (sign, k)
                yield (label, pt)


def _multiples(g: Point, bound: int) -> Iterator[Point]:
    """m*G for m = 1..bound: (m mod d)*G when G has order d, else from the
    elliptic divisibility sequence."""
    cycle = torsion_cycle(g)
    if cycle is None:
        yield from multiples(g, bound)
    else:
        for m in range(1, bound + 1):
            yield cycle[m % len(cycle)]


def brute_force_points(c: Curve, h_bound: int, prune=None) -> Iterator[tuple]:
    """All affine points (x, +-y) with height(x) <= h_bound.

    Scans canonical x = p/q and tests x^3 + ax + b for a rational square.
    When a and b are integers, x-denominators of points are perfect
    squares, so the scan restricts q to squares (`prune`); pass
    prune=False to force the unpruned scan (used to verify the pruning).
    Independent oracle for orbit(): shares no code with the group law.
    """
    if prune is None:
        prune = c.a.denominator == 1 and c.b.denominator == 1
    for x in x_candidates(h_bound, squares_only=prune):
        s = exact_sqrt(c.rhs(x))
        if s is None:
            continue
        yield ("search", Point(c, x, s))
        if s != 0:
            yield ("search", Point(c, x, -s))


def x_candidates(h_bound: int, squares_only: bool = False) -> Iterator[Fraction]:
    """Canonical rationals of height <= h_bound in a fixed deterministic order:
    increasing height, then |numerator|, positive before negative, then denominator."""
    if h_bound < 0:
        raise ValueError(f"height bound must be >= 0, got {h_bound}")
    for h in range(1, h_bound + 1):
        level = []
        for q in range(1, h + 1):
            if squares_only and isqrt(q) ** 2 != q:
                continue
            # max(|p|, q) = h: every p when q = h, else p = -h or h
            for p in range(-h, h + 1) if q == h else (-h, h):
                if gcd(abs(p), q) == 1:
                    level.append(Fraction(p, q))
        level.sort(key=lambda r: (abs(r.numerator), r.numerator < 0, r.denominator))
        yield from level


def rationals_by_height(h_bound: int) -> Iterator[Fraction]:
    """All canonical rationals of height <= h_bound (same order as x_candidates)."""
    return x_candidates(h_bound, squares_only=False)
