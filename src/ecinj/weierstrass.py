"""Numeric Weierstrass theory: period lattices, wp/wp' evaluation, Laurent
coefficients, and the two-coefficient matching argument.

Everything here is double precision with stated tolerances; this module is
deliberately non-certifying (unlike real_locus).  Conventions: the curve is
y^2 = x^3 + A x + B, the lattice functions satisfy (wp'/2)^2 = wp^3 + A wp + B
(so g2 = -4A, g3 = -4B), and the uniformization is x = wp(z), y = wp'(z)/2.

Evaluation strategy: the argument is reduced modulo the lattice to the cell
around 0 (Gauss-reduced basis, nearest-representative search), halved into
|z| <= half the shortest lattice vector, evaluated by the Laurent series
(geometric convergence, stated truncation error < 1e-10 at 64 terms), and
doubled back through the addition theorem.  A naive truncated lattice sum
cannot reach that accuracy (its tail only decays like 1/R by the integral
test), so the tests keep the direct sum only as a coarse cross-check.
Period construction is method-free per its contract and self-validates
through the differential equation residual.

mpmath (periods, theta functions, elliptic logarithms), numpy (the
Laurent fit) and cmath (the fit's and the probe's sample points) load on
first use, inside the functions that need them, so importing this module
costs none of them.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .curve import Curve, Point

SERIES_TERMS = 64
POLE_TOLERANCE = 1e-8
_MP_DPS = 30
# The largest ODE residual a self-validating lattice may show.
ODE_TOLERANCE = 1e-9
# The relative tolerance of lambda_match's equations.
MATCH_TOLERANCE = 1e-9
# Pole-free sample points of strong_uniqueness_probe, drawn from this seed.
PROBE_SAMPLES = 48
PROBE_SEED = 0


def laurent_coefficients(A: Fraction, B: Fraction, count: int) -> list:
    """Exact coefficients c_1..c_count of wp(z) = 1/z^2 + sum c_j z^(2j).

    c_1 = -A/5 and c_2 = -B/7 (from g2 = -4A, g3 = -4B); higher ones follow
    the classical quadratic recurrence obtained by matching coefficients in
    wp'' = 6 wp^2 + 2A, re-derived from the differential equation:
        c_{m+1} = 3 * sum_{i=1}^{m-1} c_i c_{m-i} / ((m-1)(2m+5)),  m >= 2.
    """
    A, B = Fraction(A), Fraction(B)
    c = [Fraction(0)] * (count + 1)
    if count >= 1:
        c[1] = -A / 5
    if count >= 2:
        c[2] = -B / 7
    for m in range(2, count):
        c[m + 1] = 3 * sum(c[i] * c[m - i] for i in range(1, m)) / ((m - 1) * (2 * m + 5))
    return c[1:]


def _gauss_reduce(v1: complex, v2: complex):
    """Shortest-vector basis of the lattice spanned by v1, v2."""
    while True:
        if abs(v2) < abs(v1):
            v1, v2 = v2, v1
        mu = round((v2 * v1.conjugate()).real / abs(v1) ** 2)
        if mu == 0:
            break
        v2 = v2 - mu * v1
    return v1, v2


@dataclass
class Lattice:
    omega1: float
    omega2: complex
    A: Fraction
    B: Fraction
    branch_root: float  # largest real root of x^3 + Ax + B

    def __post_init__(self):
        self._u1, self._u2 = _gauss_reduce(complex(self.omega1), complex(self.omega2))
        det = self._u1.real * self._u2.imag - self._u2.real * self._u1.imag
        self._inv = (self._u2.imag / det, -self._u2.real / det,
                     -self._u1.imag / det, self._u1.real / det)
        self._coeffs = [complex(c) for c in laurent_coefficients(self.A, self.B, SERIES_TERMS)]
        self._a_complex = complex(Fraction(self.A))

    @property
    def tau(self) -> complex:
        return complex(self.omega2) / self.omega1

    def reduce(self, z: complex) -> complex:
        """Representative of z mod the lattice nearest to 0."""
        z = complex(z)
        i00, i01, i10, i11 = self._inv
        s = i00 * z.real + i01 * z.imag
        t = i10 * z.real + i11 * z.imag
        s -= round(s)
        t -= round(t)
        best = None
        for ds in (-1, 0, 1):
            for dt in (-1, 0, 1):
                cand = (s + ds) * self._u1 + (t + dt) * self._u2
                if best is None or abs(cand) < abs(best):
                    best = cand
        return best

    def wp(self, z: complex):
        """(wp(z), wp'(z)) by argument reduction plus the Laurent series.

        Deep-hole arguments (up to ~0.9 of the shortest vector after
        reduction) are halved into the fast-convergence zone and doubled
        back through the curve's own addition theorem, which for the
        uniformizing coordinates is just affine point doubling.
        """
        zr = self.reduce(z)
        if abs(zr) < POLE_TOLERANCE * abs(self._u1):
            raise ValueError("pole: z is within tolerance of a lattice point")
        halvings = 0
        w = zr
        while abs(w) > 0.5 * abs(self._u1):
            w /= 2
            halvings += 1
        p, pp = self._series(w)
        A = self._a_complex
        for _ in range(halvings):
            x, y = p, pp / 2
            lam = (3 * x * x + A) / (2 * y)
            x2 = lam * lam - 2 * x
            y2 = lam * (x - x2) - y
            p, pp = x2, 2 * y2
        return p, pp

    def _series(self, zr: complex):
        zz = zr * zr
        p = 1 / zz
        pp = -2 / (zz * zr)
        t = 1 + 0j
        for j, cj in enumerate(self._coeffs, start=1):
            todd = t * zr
            t = t * zz
            p += cj * t
            pp += 2 * j * cj * todd
        return p, pp


def periods(curve: Curve) -> Lattice:
    """Period lattice of the curve, with x = wp, y = wp'/2.

    Construction: cubic roots via mpmath, complete elliptic integrals via
    Carlson's R_F (the real period equals the integral of dx/sqrt(rhs) over
    the unbounded real branch).  The contract is self-validating: the
    returned lattice must satisfy the wp differential equation to
    ODE_TOLERANCE.
    """
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        A, B = curve.a, curve.b
        roots = mp.polyroots(
            [1, 0, mp.mpf(A.numerator) / A.denominator, mp.mpf(B.numerator) / B.denominator],
            maxsteps=200, extraprec=80,
        )
        tiny = mp.mpf(10) ** -20
        reals = sorted([mp.re(r) for r in roots if abs(mp.im(r)) < tiny])
        if len(reals) == 3:
            e3, e2, e1 = reals
            om1 = 2 * mp.elliprf(0, e1 - e2, e1 - e3)
            om2 = 2 * mp.elliprf(0, e3 - e1, e3 - e2)
        else:
            e1 = reals[0]
            cplx = [r for r in roots if abs(mp.im(r)) >= tiny]
            e2, e3 = cplx[0], mp.conj(cplx[0])
            om1 = 2 * mp.elliprf(0, e1 - e2, e1 - e3)
            om2 = 2 * mp.elliprf(0, e2 - e1, e2 - e3)
        om1 = mp.re(om1)
        if mp.im(om2 / om1) < 0:
            om2 = mp.conj(om2)
        lat = Lattice(float(om1), complex(om2), A, B, float(e1))
    _self_validate(lat)
    return lat


def _self_validate(lat: Lattice):
    for k in range(1, 8):
        z = (0.07 + 0.11 * k) * lat.omega1 + (0.05 + 0.09 * k) * complex(lat.omega2)
        r = ode_residual(lat, z)
        if r > ODE_TOLERANCE:
            raise RuntimeError(f"lattice failed self-validation: ODE residual {r:.3e} at {z}")
    p_half, pp_half = lat.wp(lat.omega1 / 2)
    if abs(p_half - lat.branch_root) > 1e-8 or abs(pp_half) > 1e-8:
        raise RuntimeError("lattice failed self-validation at the real half-period")


def ode_residual(lat: Lattice, z: complex) -> float:
    p, pp = lat.wp(z)
    return abs((pp / 2) ** 2 - (p**3 + float(lat.A) * p + float(lat.B)))


def _theta_wp(lat: Lattice, z: complex, derivative: bool = False) -> complex:
    """wp (or wp') from Jacobi theta functions; independent of the Laurent
    recurrence, used as the sampling oracle for laurent_fit."""
    import mpmath as mp

    with mp.workdps(_MP_DPS):
        q = mp.expjpi(mp.mpc(lat.tau))
        scale = mp.pi / lat.omega1
        u = scale * mp.mpc(z)
        logtheta = lambda x: mp.log(mp.jtheta(1, x, q))
        if derivative:
            return complex(-(scale**3) * mp.diff(logtheta, u, 3))
        const = mp.jtheta(1, 0, q, 3) / (3 * mp.jtheta(1, 0, q, 1))
        return complex(scale**2 * (const - mp.diff(logtheta, u, 2)))


@dataclass
class LaurentData:
    coefficients: list        # fitted c_1..c_J (complex)
    recurrence: list          # exact recurrence values as floats
    max_deviation: float      # max |fitted - recurrence|
    condition: float


def laurent_fit(lat: Lattice, J: int, rho: Optional[float] = None) -> LaurentData:
    """Recover c_1..c_J by least squares on wp(z) - 1/z^2 over a small circle.

    Sampling uses the theta-function evaluator, so the fit is independent of
    the recurrence it is cross-checked against.
    """
    import cmath

    import numpy as np

    if J > 8:
        raise ValueError("J must be <= 8")
    if J < 1:
        raise ValueError("J must be >= 1")
    if rho is None:
        rho = 0.22 * abs(lat._u1)
    samples = 8 * J + 16
    zs = [rho * cmath.exp(2j * cmath.pi * k / samples) for k in range(samples)]
    rhs = np.array([_theta_wp(lat, z) - 1 / z**2 for z in zs])
    design = np.array([[z ** (2 * j) for j in range(1, J + 1)] for z in zs])
    cond = float(np.linalg.cond(design))
    if cond > 1e12:
        raise ValueError(f"ill-conditioned fit: condition number {cond:.3e}")
    fitted, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    exact = [float(c) for c in laurent_coefficients(lat.A, lat.B, J)]
    dev = max(abs(f - e) for f, e in zip(fitted, exact))
    return LaurentData(list(fitted), exact, float(dev), cond)


def lambda_match(alpha, beta, lambda1: complex, lambda2: complex, c: complex) -> str:
    """Decide the two coefficient equations beta*l1^-3 = c*beta*l2^-3 and
    alpha*l1^-2 = c*alpha*l2^-2.

    "consistent": both equations hold for the given inputs (which forces
    lambda1 = lambda2 and c = 1).  "forced equal": the given c satisfies
    exactly one equation, so assuming both would force lambda2 = lambda1,
    contradicting the given distinct lambdas.  "inconsistent": otherwise
    (no single c can reconcile the two equations for these lambdas).
    """
    alpha, beta = complex(alpha), complex(beta)
    if 0 in (alpha, beta) or abs(lambda1) == 0 or abs(lambda2) == 0 or abs(c) == 0:
        raise ValueError("alpha, beta, lambda1, lambda2, c must all be non-zero")
    tol = MATCH_TOLERANCE
    eq_cubic = abs(beta * lambda1**-3 - c * beta * lambda2**-3) <= tol * abs(beta * lambda1**-3)
    eq_square = abs(alpha * lambda1**-2 - c * alpha * lambda2**-2) <= tol * abs(alpha * lambda1**-2)
    if eq_cubic and eq_square:
        return "consistent"
    lambdas_equal = abs(lambda1 - lambda2) <= tol * max(abs(lambda1), abs(lambda2))
    if not lambdas_equal and (eq_cubic or eq_square):
        return "forced equal"
    return "inconsistent"


def strong_uniqueness_probe(
    lat: Lattice,
    alpha,
    beta,
    lambda1: complex,
    lambda2: complex,
    c: complex,
) -> float:
    """Max |alpha*wp(l1 z) + (beta/2) wp'(l1 z) - c*alpha*wp(l2 z) - (c*beta/2) wp'(l2 z)|
    over random small z; near 0 only when the two sides are the same function.
    Samples landing too close to a pole are skipped and redrawn."""
    import cmath

    alpha, beta, c = complex(alpha), complex(beta), complex(c)
    rng = random.Random(PROBE_SEED)
    scale = 0.25 * abs(lat._u1) / max(abs(lambda1), abs(lambda2), 1.0)
    worst = 0.0
    got = 0
    attempts = 0
    while got < PROBE_SAMPLES:
        attempts += 1
        if attempts > 50 * PROBE_SAMPLES:
            raise RuntimeError("could not draw enough pole-free samples")
        r = scale * (0.2 + 0.8 * rng.random())
        z = r * cmath.exp(2j * cmath.pi * rng.random())
        try:
            p1, pp1 = lat.wp(lambda1 * z)
            p2, pp2 = lat.wp(lambda2 * z)
        except ValueError:
            continue
        lhs = alpha * p1 + (beta / 2) * pp1
        rhs = c * alpha * p2 + (c * beta / 2) * pp2
        worst = max(worst, abs(lhs - rhs))
        got += 1
    return worst


def elliptic_log(lat: Lattice, pt: Point) -> float:
    """Real elliptic logarithm z with wp(z) = x and wp'(z)/2 = y.

    Only meaningful for points on the unbounded real branch (the whole real
    locus when it is connected).  Computed by quadrature of dx/(2y) from x
    to infinity; diagnostics-grade, not certified.
    """
    import mpmath as mp

    if pt.is_infinity:
        return 0.0
    x = float(pt.x)
    A, B = float(lat.A), float(lat.B)
    with mp.workdps(_MP_DPS):
        integrand = lambda t: 1 / mp.sqrt(t**3 + A * t + B)
        z0 = float(mp.quad(integrand, [x, x + 1, x + 10, mp.inf]) / 2)
    return z0 if pt.y <= 0 else lat.omega1 - z0
