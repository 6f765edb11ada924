"""Quadrature rules on the reference interval [0,1] and reference triangle.

The reference triangle is {(x,y) : x >= 0, y >= 0, x + y <= 1}.  Triangle
rules are conical products (Gauss-Jacobi in the collapsed direction), which
keeps every weight positive at any exactness degree.  Each rule is built once
and shared, so its arrays are write-protected.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

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
    x, w = roots_legendre(m)
    return 0.5 * (x + 1.0), 0.5 * w


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
        tx, wx = roots_jacobi(m, 1.0, 0.0)
        x = 0.5 * (tx + 1.0)
        wx = 0.25 * wx
        y, wy = _gauss01(m)
        X = np.repeat(x, m)
        Y = np.tile(y, m) * (1.0 - X)
        W = np.repeat(wx, m) * np.tile(wy, m)
        return QuadratureRule(np.column_stack([X, Y]), W)
    raise InvalidArgumentError(f"unsupported dimension {dimension}")
