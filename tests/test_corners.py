"""Tests for corner exponents and grading-parameter formulas."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from biharm import corners

import oracles

# Reference roots of sin^2(z*omega) = z^2 sin^2(omega), minimal Re(z) > 1/2,
# computed independently with 40-digit arithmetic (bisection on the real
# line for the real roots, multi-start Newton for the complex ones) and
# frozen here.  Listed as (omega multiple of pi, alpha0, |Im| of the root).
# The last five, for openings of 0.0015, 2pi/1000 and 0.02 and for
# pi(1 +- 1e-7), are mpmath findroot values at 40 digits on the factor
# sin(z omega) = -z sin(omega), taken at the float omega the test passes.
ORACLE = [
    (1.0 / 3.0, 4.05932901215137154, 1.952049947),
    (1.0 / 2.0, 2.73959335632459614, 1.119024534),
    (2.0 / 3.0, 2.09413910919241857, 0.6045850027),
    (3.0 / 4.0, 1.88537177811428110, 0.3606518129),
    (5.0 / 6.0, 1.53386000277758502, 0.0),
    (11.0 / 12.0, 1.20063159465157982, 0.0),
    (7.0 / 6.0, 0.751974545407641496, 0.0),
    (6.0 / 5.0, 0.717799308407047297, 0.0),
    (5.0 / 4.0, 0.673583432147380389, 0.0),
    (4.0 / 3.0, 0.615731059490783197, 0.0),
    (3.0 / 2.0, 0.544483736782463929, 0.0),
    (7.0 / 4.0, 0.505009698896589425, 0.0),
    (0.0015 / math.pi, 2808.2615377732642, 1500.48546942),
    (2.0 / 1000.0, 670.4232584293794, 358.213446223),
    (0.02 / math.pi, 210.62028859338283, 112.532808579),
    (1.0 + 1e-7, 0.99999980000003985, 0.0),
    (1.0 - 1e-7, 1.00000020000004, 0.0),
]


def g(z, omega):
    """The characteristic function sin^2(z omega) - z^2 sin^2(omega)."""
    s = cmath.sin(z * omega)
    return s * s - z * z * math.sin(omega) ** 2


def bisect_real_root(omega, lo, hi, steps=200):
    """Independent oracle: plain bisection of the characteristic function.

    Valid for reentrant openings, where the minimal root is real and lies
    between 1/2 (where g = sin^4(omega/2) > 0) and beta0 = pi/omega (where
    g = -beta0^2 sin^2(omega) < 0).
    """
    glo = g(lo, omega).real
    assert glo * g(hi, omega).real < 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if glo * g(mid, omega).real <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("mult,alpha0,_im", ORACLE)
def test_alpha0_against_frozen_oracle(mult, alpha0, _im):
    assert corners.solve_alpha0(mult * math.pi) == pytest.approx(alpha0, abs=1e-11)


@pytest.mark.parametrize("mult", [7.0 / 6.0, 6.0 / 5.0, 5.0 / 4.0, 4.0 / 3.0, 3.0 / 2.0, 7.0 / 4.0])
def test_alpha0_matches_bisection_for_reentrant(mult):
    omega = mult * math.pi
    ref = bisect_real_root(omega, 0.5 + 1e-9, math.pi / omega - 1e-12)
    assert corners.solve_alpha0(omega) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("mult,alpha0,im", ORACLE)
def test_minimal_root_location_and_residual(mult, alpha0, im):
    omega = mult * math.pi
    z = corners.characteristic_roots(omega)[0]
    assert z.real == pytest.approx(alpha0, abs=1e-11)
    assert abs(z.imag) == pytest.approx(im, abs=1e-7)
    assert abs(g(z, omega)) < 1e-12


def test_trivial_roots_are_excluded():
    # z = 1 solves the equation for every omega; alpha0 must not report it
    for omega in (0.4 * math.pi, 0.9 * math.pi, 1.1 * math.pi, 1.9 * math.pi):
        roots = corners.characteristic_roots(omega)
        assert all(abs(z - 1.0) > 1e-6 for z in roots)


def test_alpha0_rejects_bad_angles():
    with pytest.raises(ValueError):
        corners.solve_alpha0(0.0)
    with pytest.raises(ValueError):
        corners.solve_alpha0(math.pi)
    with pytest.raises(ValueError):
        corners.solve_alpha0(2.0 * math.pi)
    with pytest.raises(ValueError):
        corners.solve_alpha0(-1.0)


def test_beta0_values():
    assert corners.beta0(math.pi / 2.0) == pytest.approx(2.0, abs=1e-15)
    assert corners.beta0(1.5 * math.pi) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert corners.beta0(2.0 * math.pi / 3.0) == pytest.approx(1.5, abs=1e-15)
    with pytest.raises(ValueError):
        corners.beta0(0.0)


def test_threshold_ordering_on_angle_grid():
    # convex side: beta0 < alpha0 < 2*beta0; reentrant side: 1/2 < alpha0 < beta0
    for m in range(21, 60):
        omega = m * math.pi / 60.0
        a0 = corners.solve_alpha0(omega)
        b0 = corners.beta0(omega)
        assert b0 < a0 < 2.0 * b0, omega
    for m in range(61, 120):
        omega = m * math.pi / 60.0
        a0 = corners.solve_alpha0(omega)
        b0 = corners.beta0(omega)
        assert 0.5 < a0 < b0, omega


def test_grading_kappa_values():
    assert oracles.grading_kappa(1.0, 1.0) == 0.5
    assert oracles.grading_kappa(2.0, 1.0) == 0.25
    assert oracles.grading_kappa(1.0, 0.54) == pytest.approx(2.0 ** (-1.0 / 0.54), rel=1e-15)
    assert oracles.grading_kappa(1.0, 0.54) == pytest.approx(0.277, abs=5e-4)
    with pytest.raises(ValueError):
        oracles.grading_kappa(0.5, 1.0)
    with pytest.raises(ValueError):
        oracles.grading_kappa(1.0, 0.0)


@given(
    a=st.floats(min_value=0.51, max_value=3.0),
    bump1=st.floats(min_value=1e-3, max_value=4.0),
    bump2=st.floats(min_value=1e-3, max_value=4.0),
)
def test_grading_kappa_monotone(a, bump1, bump2):
    # decreasing in theta, increasing in a
    theta = a + bump1
    assert oracles.grading_kappa(theta + bump2, a) < oracles.grading_kappa(theta, a)
    assert oracles.grading_kappa(theta + bump2, a + bump2) > oracles.grading_kappa(
        theta + bump2, a
    )


def test_optimal_grading_strengths():
    assert oracles.theta_for_optimal_h1(1, 0.54, 0.5445) == pytest.approx(0.54)
    assert oracles.theta_for_optimal_h1(2, 0.54, 0.5445) == 1.0
    assert oracles.theta_for_optimal_h1(3, 1.2, 1.2006) == 2.0
    assert oracles.theta_for_optimal_l2(1, 0.54, 0.5445) == 1.0
    assert oracles.theta_for_optimal_l2(2, 0.54, 0.5445) == 1.5
    assert oracles.theta_for_optimal_l2(3, 2.0, 2.09) == pytest.approx(2.0)
    # uniform mesh falls out for k=1 when the corner exponent is the binder
    th = oracles.theta_for_optimal_h1(1, 0.544483736782463929, 0.544483736782463929)
    assert oracles.grading_kappa(th, 0.544483736782463929) == pytest.approx(0.5)


def test_theta_prime_values():
    assert oracles.theta_prime(1.0, 1.0, 1.0, 2) == 1.0
    assert oracles.theta_prime(0.54, 0.5445, 2.0 / 3.0, 1) == pytest.approx(2.0 / 3.0)
    assert oracles.theta_prime(2.0, 2.0941, 1.5, 2) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        oracles.theta_prime(1.0, 0.4, 1.0, 2)
