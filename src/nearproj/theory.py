"""Closed-form superconvergence-order predictors and empirical order extraction.

gamma = inf encodes identical meshes and delta = inf identical bilinear
forms; the terms they control drop out of the minima explicitly rather than
through float arithmetic on infinities.  With both infinite there is no term
and the prediction is None.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class RateInputs:
    gamma: float          # >= 0, or math.inf for identical meshes
    eta: float
    delta: float          # >= 0, or math.inf for identical forms
    mu: int = 0
    nu: int = 0
    s: int = 0
    r: int = 2

    def __post_init__(self):
        # written as `not x >= c` so that nan fails too
        if not self.gamma >= 0:
            raise InvalidArgumentError("gamma must be >= 0")
        if not self.eta >= 2:
            raise InvalidArgumentError("eta must be >= 2")
        if not self.delta >= 0:
            raise InvalidArgumentError("delta must be >= 0 or inf")
        if self.s not in (0, 1):
            raise InvalidArgumentError("s must be 0 or 1")
        if not (0 <= self.mu <= self.s and 0 <= self.nu <= self.s):
            raise InvalidArgumentError("mu, nu must lie in {0,...,s}")
        if self.r <= self.s:
            raise InvalidArgumentError("r must exceed s")


def _gamma_terms(ri):
    if math.isinf(ri.gamma):
        return []
    inv_eta = 0.0 if math.isinf(ri.eta) else 1.0 / ri.eta
    return [ri.gamma * (0.5 - inv_eta)]


def predicted_sigma(ri):
    """Extra order of the H^s-norm supercloseness beyond the projection rate
    (None when both meshes and forms are identical)."""
    terms = _gamma_terms(ri)
    if not math.isinf(ri.delta):
        terms.append((ri.delta + 2 * ri.s - ri.mu - ri.nu) / 2.0)
    return min(terms, default=None)


def predicted_sigma_prime(ri):
    """Extra order of the L2-norm supercloseness of elliptic projections."""
    if ri.s != 1:
        raise InvalidArgumentError("sigma' applies only to s = 1 forms")
    terms = _gamma_terms(ri)
    if not math.isinf(ri.delta):
        terms.append((ri.delta + 2 - ri.mu - ri.nu) / 2.0)
        terms.append(ri.delta - ri.mu)
    return min(terms, default=None)


def q_restriction_ok(d, nu, q):
    """Sobolev-embedding restriction on q for the L2 estimate."""
    if d < 4 - 2 * nu:
        return True
    if d == 4 - 2 * nu:
        return not math.isinf(q)
    return q <= 2.0 * d / (d - 4 + 2 * nu)


def observed_orders(hs, values):
    """order_i = log(v_{i-1}/v_i) / log(h_{i-1}/h_i) for successive rows."""
    hs = np.asarray(hs, dtype=float)
    values = np.asarray(values, dtype=float)
    if hs.shape != values.shape or hs.size < 2:
        raise InvalidArgumentError("need equally many (>= 2) mesh sizes and values")
    if np.any(np.diff(hs) >= 0):
        raise InvalidArgumentError("mesh sizes must be strictly decreasing")
    if np.any(values <= 0):
        raise InvalidArgumentError("values must be positive")
    return list(np.log(values[:-1] / values[1:]) / np.log(hs[:-1] / hs[1:]))
