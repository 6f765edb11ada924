import math

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from nearproj import InvalidArgumentError, quadrature_rule
from nearproj.quadrature import MAX_DEGREE_1D, MAX_DEGREE_2D, _gauss01, _gauss_jacobi01

# the point counts the rules use: m = (degree + 2) // 2
LEGENDRE_COUNTS = range(1, (MAX_DEGREE_1D + 2) // 2 + 1)
JACOBI_COUNTS = range(1, (MAX_DEGREE_2D + 2) // 2 + 1)


def simplex_monomial_integral(a, b):
    # closed form: int_T x^a y^b over the reference triangle = a! b! / (a+b+2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(0, 21))
def test_1d_monomial_exactness(degree):
    rule = quadrature_rule(1, degree)
    assert np.all(rule.weights > 0)
    for k in range(degree + 1):
        approx = np.sum(rule.weights * rule.points[:, 0] ** k)
        assert approx == pytest.approx(1.0 / (k + 1), abs=1e-14)


def test_1d_degree1_midpoint_equivalent():
    rule = quadrature_rule(1, 1)
    assert np.sum(rule.weights * rule.points[:, 0]) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("degree", range(0, 15))
def test_2d_monomial_exactness(degree):
    rule = quadrature_rule(2, degree)
    assert np.all(rule.weights > 0)
    assert np.sum(rule.weights) == pytest.approx(0.5, abs=1e-14)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = np.sum(rule.weights * x ** a * y ** b)
            assert approx == pytest.approx(simplex_monomial_integral(a, b),
                                           abs=1e-15, rel=1e-13)


def test_2d_degree10_x4y4():
    rule = quadrature_rule(2, 10)
    approx = np.sum(rule.weights * rule.points[:, 0] ** 4 * rule.points[:, 1] ** 4)
    exact = simplex_monomial_integral(4, 4)
    assert abs(approx - exact) <= 1e-14


@pytest.mark.parametrize("dim,degree", [(1, 21), (2, 15), (3, 4), (1, -1)])
def test_unsupported_requests_raise(dim, degree):
    with pytest.raises(InvalidArgumentError):
        quadrature_rule(dim, degree)


@pytest.mark.parametrize("dim,degree", [(1, 4), (2, 4)])
def test_rule_is_built_once_and_read_only(dim, degree):
    rule = quadrature_rule(dim, degree)
    assert quadrature_rule(dim, degree) is rule
    assert not rule.points.flags.writeable and not rule.weights.flags.writeable
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


# -- the rules against scipy's ------------------------------------------------

def _ulps(x, reference, scale):
    """Largest difference of x from reference, in ulps of `scale`."""
    return np.abs(x - reference).max() / np.spacing(scale)


@pytest.mark.parametrize("m", LEGENDRE_COUNTS)
def test_legendre_rule_agrees_with_scipy(m):
    # on [-1, 1]: nodes in ulps of 1, the interval's scale, and weights in
    # ulps of their sum 2.  Measured in the 50-digit Golub-Welsch values,
    # numpy's and scipy's weights are each off by up to 3.5 ulps of 2, so two
    # roundings that are both valid may differ by their sum
    x, w = _gauss01(m)
    t, v = roots_legendre(m)
    assert _ulps(2.0 * x - 1.0, t, 1.0) <= 4
    assert _ulps(2.0 * w, v, 2.0) <= 8
    assert np.all(w > 0)


@pytest.mark.parametrize("m", JACOBI_COUNTS)
def test_jacobi_rule_agrees_with_scipy(m):
    x, w = _gauss_jacobi01(m)
    t, v = roots_jacobi(m, 1.0, 0.0)
    assert _ulps(2.0 * x - 1.0, t, 1.0) <= 4
    assert _ulps(4.0 * w, v, 2.0) <= 8
    assert np.all(w > 0)


@pytest.mark.parametrize("m", JACOBI_COUNTS)
def test_jacobi_rule_is_exact_to_degree_2m_minus_1(m):
    # int_0^1 (1 - x) x^k dx = 1 / ((k + 1)(k + 2)), to the rounding of the
    # weights: 8 ulps of their sum 1/2, as above
    x, w = _gauss_jacobi01(m)
    for k in range(2 * m):
        assert np.sum(w * x ** k) == pytest.approx(1.0 / ((k + 1) * (k + 2)),
                                                   rel=0.0, abs=8 * np.spacing(0.5))
