"""Exact real-root counting and isolation for polynomials over Q.

Polynomials are lists of Fractions in ascending degree (coeffs[k] is the
coefficient of x^k).  Root isolation is Sturm-guided bisection: every
interval is certified to contain exactly one real root by an exact Sturm
count, and refinement maintains an exact sign change, so no floating-point
value ever enters a certificate.
"""

from fractions import Fraction


def poly_trim(coeffs):
    c = [Fraction(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deriv(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _poly_rem(num, den):
    return _poly_divmod(num, den)[1]


def poly_gcd(f, g):
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, _poly_rem(f, g)
    if f:
        lead = f[-1]
        f = [c / lead for c in f]
    return f


def square_free_part(coeffs):
    f = poly_trim(coeffs)
    if len(f) <= 1:
        return f
    g = poly_gcd(f, poly_deriv(f))
    if len(g) <= 1:
        return f
    quot, rem = _poly_divmod(f, g)
    assert not rem
    return quot


def _poly_divmod(num, den):
    num = list(num)
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    while len(num) >= len(den):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
        while num and num[-1] == 0:
            num.pop()
    return quot, num


def sturm_chain(coeffs):
    f = poly_trim(coeffs)
    chain = [f, poly_deriv(f)]
    while chain[-1]:
        r = _poly_rem(chain[-2], chain[-1])
        chain.append([-c for c in r])
    return chain[:-1]


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    at_lo = _sign_variations([poly_eval(f, lo) for f in chain])
    at_hi = _sign_variations([poly_eval(f, hi) for f in chain])
    return at_lo - at_hi


def cauchy_root_bound(coeffs) -> Fraction:
    """All real roots lie in (-B, B) with B = 1 + max|c_i / c_lead|."""
    c = poly_trim(coeffs)
    lead = c[-1]
    if len(c) == 1:
        return Fraction(1)
    return 1 + max(abs(v / lead) for v in c[:-1])


def isolate_real_roots(coeffs):
    """Disjoint intervals [a, b], each containing exactly one real root.

    Exact rational roots come back as degenerate [r, r] intervals.  The
    polynomial is made square-free first so Sturm counts are reliable.
    """
    f = square_free_part(coeffs)
    if len(f) <= 1:
        return []
    chain = sturm_chain(f)
    # every root lies strictly inside (-bound, bound), so (-bound, bound]
    # holds them all
    bound = cauchy_root_bound(f)
    out = []

    def recurse(a, b, count):
        if count == 0:
            return
        if count == 1:
            out.append(_tighten_single(f, a, b))
            return
        mid = (a + b) / 2
        if poly_eval(f, mid) == 0:
            # exact root at the midpoint: emit it and recurse beside it
            out.append((mid, mid))
            eps = (b - a) / 2**10
            while count_roots(chain, mid - eps, mid + eps) != 1:
                eps /= 2
            recurse(a, mid - eps, count_roots(chain, a, mid - eps))
            recurse(mid + eps, b, count_roots(chain, mid + eps, b))
            return
        left = count_roots(chain, a, mid)
        recurse(a, mid, left)
        recurse(mid, b, count - left)

    recurse(-bound, bound, count_roots(chain, -bound, bound))
    out.sort(key=lambda iv: iv[0])
    return out


def _tighten_single(f, a, b):
    """The interval of the one root of the square-free f in (a, b]: (b, b)
    when it is b, else (a, b), a bracket by sign change.  Its roots are
    simple, and `isolate_real_roots` never passes a root as a: a is
    -bound, outside Cauchy's bound, or a midpoint that is no root, or
    mid + eps beside the one root mid of (mid - eps, mid + eps].  Were
    that ever broken, `refine_root` would raise on the non-bracket."""
    if poly_eval(f, b) == 0:
        return (b, b)
    return (a, b)


def refine_root(coeffs, interval, depth: int = 60):
    """Bisect a sign-change bracket `depth` times; exact arithmetic only."""
    a, b = interval
    if a == b:
        return (a, b)
    f = poly_trim(coeffs)
    va = poly_eval(f, a)
    vb = poly_eval(f, b)
    if va == 0:
        return (a, a)
    if vb == 0:
        return (b, b)
    if (va > 0) == (vb > 0):
        raise ValueError("interval endpoints do not bracket a sign change")
    for _ in range(depth):
        mid = (a + b) / 2
        vm = poly_eval(f, mid)
        if vm == 0:
            return (mid, mid)
        if (vm > 0) == (va > 0):
            a, va = mid, vm
        else:
            b, vb = mid, vm
    return (a, b)
