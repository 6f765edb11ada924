"""Quadrature rules on the reference interval [0,1] and reference triangle.

The reference triangle is {(x,y) : x >= 0, y >= 0, x + y <= 1}.  Triangle
rules are conical products (Gauss-Jacobi in the collapsed direction), which
keeps every weight positive at any exactness degree.  The Gauss-Legendre
rule is numpy's `leggauss`; the Gauss-Jacobi rule is built by Golub and
Welsch (Math. Comp. 23 (1969) 221): its nodes are the eigenvalues of the
symmetric tridiagonal Jacobi matrix of the weight's three-term recurrence,
and its weights mu_0 v_0^2, with v_0 the first component of each unit
eigenvector.  Each rule is built once and shared, so its arrays are
write-protected.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidArgumentError

MAX_DEGREE_1D = 20
MAX_DEGREE_2D = 14


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray        # (nq, dim), reference coordinates
    weights: np.ndarray       # (nq,), positive, sum to reference measure

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def _gauss01(m):
    """The m-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _gauss_jacobi01(m):
    """The m-point Gauss rule on [0, 1] for the weight 1 - x: Gauss-Jacobi
    with alpha = 1, beta = 0 on [-1, 1], mapped.  On [-1, 1] the weight
    (1 - t) has mu_0 = 2, and its monic recurrence coefficients are
    a_k = -1 / ((2k + 1)(2k + 3)) and b_k = k (k + 1) / (2k + 1)^2."""
    k = np.arange(m)
    n = k[1:]
    off = np.sqrt(n * (n + 1.0) / (2 * n + 1.0) ** 2)
    jacobi = np.diag(-1.0 / ((2 * k + 1.0) * (2 * k + 3.0))) \
        + np.diag(off, 1) + np.diag(off, -1)
    t, v = np.linalg.eigh(jacobi)
    # weights mu_0 v_0^2 = 2 v_0^2, over 4: x = (t + 1) / 2 turns (1 - t) dt
    # into 4 (1 - x) dx
    return 0.5 * (t + 1.0), 0.5 * v[0] ** 2


@cache
def quadrature_rule(dimension, exactness_degree):
    """Return a rule integrating polynomials of the given total degree exactly."""
    if exactness_degree < 0:
        raise InvalidArgumentError("exactness_degree must be nonnegative")
    if dimension == 1:
        if exactness_degree > MAX_DEGREE_1D:
            raise InvalidArgumentError(
                f"1-D rules support exactness <= {MAX_DEGREE_1D}, got {exactness_degree}")
        m = (exactness_degree + 2) // 2
        x, w = _gauss01(max(m, 1))
        return QuadratureRule(x[:, None].copy(), w.copy())
    if dimension == 2:
        if exactness_degree > MAX_DEGREE_2D:
            raise InvalidArgumentError(
                f"2-D rules support exactness <= {MAX_DEGREE_2D}, got {exactness_degree}")
        m = max((exactness_degree + 2) // 2, 1)
        # x-direction: Gauss-Jacobi absorbing the (1-x) factor of the collapse
        x, wx = _gauss_jacobi01(m)
        y, wy = _gauss01(m)
        X = np.repeat(x, m)
        Y = np.tile(y, m) * (1.0 - X)
        W = np.repeat(wx, m) * np.tile(wy, m)
        return QuadratureRule(np.column_stack([X, Y]), W)
    raise InvalidArgumentError(f"unsupported dimension {dimension}")
