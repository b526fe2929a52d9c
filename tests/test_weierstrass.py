import cmath
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from ecinj.curve import Curve, scalar_mul
from ecinj.weierstrass import (
    elliptic_log,
    lambda_match,
    laurent_coefficients,
    laurent_fit,
    ode_residual,
    periods,
    strong_uniqueness_probe,
)


def wp_direct_sum(lat, z, box=60):
    """wp by symmetric truncated lattice summation (coarse cross-check only;
    the tail decays like 1/box^2 even with +-omega pairing)."""
    z = complex(lat.reduce(z))
    ms, ns = np.meshgrid(np.arange(-box, box + 1), np.arange(-box, box + 1))
    w = ms.ravel() * lat._u1 + ns.ravel() * lat._u2
    w = w[np.abs(w) > 1e-12]
    terms = 1.0 / (z - w) ** 2 - 1.0 / w**2
    p = 1.0 / z**2 + terms.sum()
    pp = -2.0 * ((1.0 / (z - w) ** 3).sum() + 1.0 / z**3)
    return complex(p), complex(pp)


def reduce_tau(tau):
    """SL2(Z)-reduce tau into the standard fundamental domain."""
    tau = complex(tau)
    for _ in range(200):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1 - 1e-15:
            tau = -1 / tau
        else:
            return tau
    return tau


@pytest.fixture(scope="module")
def lat248(curve248):
    return periods(curve248)


def test_real_period_against_quadrature(curve248, lat248):
    # independent oracle: omega1 = integral of dx/sqrt(x^3+x-1) over the real branch
    with mp.workdps(25):
        e1 = mp.findroot(lambda t: t**3 + t - 1, 0.7)
        quad = mp.quad(lambda t: 1 / mp.sqrt(t**3 + t - 1), [e1, e1 + 1, e1 + 10, mp.inf])
    assert abs(lat248.omega1 - float(quad)) < 1e-10
    assert abs(lat248.branch_root - float(e1)) < 1e-12


def test_ode_residual_100_points(lat248):
    rng = random.Random(21)
    for _ in range(100):
        z = (0.05 + 0.4 * rng.random()) * lat248.omega1 + (
            0.05 + 0.4 * rng.random()
        ) * complex(lat248.omega2)
        assert ode_residual(lat248, z) < 1e-9


def test_periodicity_and_parity(lat248):
    rng = random.Random(22)
    for _ in range(100):
        z = (0.1 + 0.3 * rng.random()) * lat248.omega1 + (
            0.1 + 0.3 * rng.random()
        ) * complex(lat248.omega2)
        p, pp = lat248.wp(z)
        for omega in (lat248.omega1, complex(lat248.omega2)):
            p2, pp2 = lat248.wp(z + omega)
            assert abs(p2 - p) < 1e-9 and abs(pp2 - pp) < 1e-9
        pm, ppm = lat248.wp(-z)
        assert abs(pm - p) < 1e-9 and abs(ppm + pp) < 1e-9


def test_pole_raises(lat248):
    with pytest.raises(ValueError, match="pole"):
        lat248.wp(0)
    with pytest.raises(ValueError, match="pole"):
        lat248.wp(complex(lat248.omega2))


def test_half_period_value(lat248):
    p, pp = lat248.wp(lat248.omega1 / 2)
    assert abs(p - lat248.branch_root) < 1e-10
    assert abs(pp) < 1e-10


def test_direct_lattice_sum_cross_check(lat248):
    z = 0.31 * lat248.omega1 + 0.17 * complex(lat248.omega2)
    p, pp = lat248.wp(z)
    ps, pps = wp_direct_sum(lat248, z, box=80)
    assert abs(p - ps) < 1e-3
    assert abs(pp - pps) < 1e-3


def test_hexagonal_lattice_for_j_zero():
    lat = periods(Curve(0, 1))
    tau = reduce_tau(lat.tau)
    assert abs(abs(tau) - 1) < 1e-9
    assert abs(abs(tau.real) - 0.5) < 1e-9
    assert abs(tau - cmath.exp(1j * cmath.pi / 3)) < 1e-9


def test_two_component_lattice():
    lat = periods(Curve(-2, 1))  # three real roots
    assert abs(complex(lat.omega2).real) < 1e-12
    assert complex(lat.omega2).imag != 0


def test_scaling_probe(curve248, lat248):
    # (A, B) -> (l^4 A, l^6 B) rescales periods by 1/l; here l = 2
    scaled = periods(Curve(16 * curve248.a, 64 * curve248.b))
    assert abs(scaled.omega1 - lat248.omega1 / 2) < 1e-10
    assert abs(complex(scaled.omega2) - complex(lat248.omega2) / 2) < 1e-9


def test_laurent_coefficients_exact(curve248):
    c = laurent_coefficients(curve248.a, curve248.b, 4)
    assert c[0] == Fraction(-1, 5)   # -A/5
    assert c[1] == Fraction(1, 7)    # -B/7
    assert c[2] == c[0] ** 2 / 3     # classical c3 = c1^2/3


def test_laurent_fit_matches_recurrence(lat248):
    fit = laurent_fit(lat248, 2)
    assert abs(fit.coefficients[0] - (-0.2)) < 1e-6
    assert abs(fit.coefficients[1] - (1 / 7)) < 1e-6
    assert fit.max_deviation < 1e-6


def test_laurent_fit_derivative_consistency(lat248):
    # a direct fit of wp' recovers 2j * c_j within 1e-5
    import numpy as np

    from ecinj.weierstrass import _theta_wp

    J = 3
    fit = laurent_fit(lat248, J)
    rho = 0.22 * abs(lat248._u1)
    samples = 8 * J + 16
    zs = [rho * cmath.exp(2j * cmath.pi * k / samples) for k in range(samples)]
    rhs = np.array([_theta_wp(lat248, z, derivative=True) + 2 / z**3 for z in zs])
    design = np.array([[z ** (2 * j - 1) for j in range(1, J + 1)] for z in zs])
    deriv_fit, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    for j in range(1, J + 1):
        assert abs(deriv_fit[j - 1] - 2 * j * fit.coefficients[j - 1]) < 1e-5


def test_truncated_series_self_consistency(lat248):
    # an 8-term truncation reproduces wp_eval within 1e-6 for |z| < 0.1 omega1
    coeffs = [float(c) for c in laurent_coefficients(lat248.A, lat248.B, 8)]
    rng = random.Random(31)
    for _ in range(50):
        z = (0.02 + 0.08 * rng.random()) * lat248.omega1 * cmath.exp(
            2j * cmath.pi * rng.random()
        )
        truncated = 1 / z**2 + sum(c * z ** (2 * j) for j, c in enumerate(coeffs, 1))
        p, _ = lat248.wp(z)
        assert abs(truncated - p) < 1e-6


def test_laurent_fit_guards(lat248):
    with pytest.raises(ValueError, match="J must be"):
        laurent_fit(lat248, 9)
    with pytest.raises(ValueError, match="ill-conditioned"):
        laurent_fit(lat248, 8, rho=1e-9)


def test_lambda_match_examples():
    assert lambda_match(1, 1, 1, 1, 1) == "consistent"
    assert lambda_match(1, 1, 2, 3, 5) == "inconsistent"
    assert lambda_match(1, 1, 2, 3, complex((3 / 2) ** 3)) == "forced equal"
    assert lambda_match(1, 1, 2, 2, 1) == "consistent"
    assert lambda_match(1, 1, 2, 2, 5) == "inconsistent"


def test_lambda_match_rejects_unequal_lambdas():
    rng = random.Random(23)
    for _ in range(1000):
        l1 = rng.uniform(0.2, 3.0) + 1j * rng.uniform(-2, 2)
        l2 = l1 + rng.uniform(0.05, 2.0) * cmath.exp(2j * cmath.pi * rng.random())
        c = rng.uniform(0.2, 3.0) + 1j * rng.uniform(-2, 2)
        assert lambda_match(1, 2, l1, l2, c) in ("forced equal", "inconsistent")


def test_lambda_match_zero_guard():
    with pytest.raises(ValueError):
        lambda_match(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        lambda_match(1, 1, 0, 1, 1)


def test_probe_identity(lat248):
    assert strong_uniqueness_probe(lat248, 1, 1, 1, 1, 1) < 1e-9


def test_probe_scaled_c(lat248):
    assert strong_uniqueness_probe(lat248, 1, 1, 1, 1, 2) > 0.1


def test_probe_two_coefficient_pincer(lat248):
    # lambda2 = 2 with c = 8 matches the z^-3 term only; the z^-2 term leaks
    assert strong_uniqueness_probe(lat248, 1, 1, 1, 2, 8) > 1e-3


def test_elliptic_log_uniformization(curve248, gen248, lat248):
    # x(w(z)) = wp(z), y(w(z)) = wp'(z)/2 at the logs of the first multiples
    for m in (1, 2, 3, 4):
        pt = scalar_mul(m, gen248)
        z = elliptic_log(lat248, pt)
        p, pp = lat248.wp(z)
        assert abs(p - float(pt.x)) < 1e-8
        assert abs(pp / 2 - float(pt.y)) < 1e-7


def test_elliptic_log_homomorphism(gen248, lat248):
    zg = elliptic_log(lat248, gen248)
    for m in (2, 3, 5):
        zm = elliptic_log(lat248, scalar_mul(m, gen248))
        frac = (zm - m * zg) / lat248.omega1
        assert abs(frac - round(frac)) < 1e-9
