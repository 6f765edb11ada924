import math

import numpy as np
import pytest

from nearproj import InvalidArgumentError, quadrature_rule


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
