import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearproj import (InvalidArgumentError, RateInputs, observed_orders,
                      predicted_sigma, predicted_sigma_prime, q_restriction_ok)


class TestPredictedSigma:
    def test_gamma1_eta_inf(self):
        ri = RateInputs(gamma=1, eta=math.inf, delta=math.inf, s=0, r=2)
        assert predicted_sigma(ri) == 0.5
        assert ri.r + predicted_sigma(ri) == 2.5

    def test_gamma2_eta_inf(self):
        ri = RateInputs(gamma=2, eta=math.inf, delta=math.inf, s=0, r=2)
        assert predicted_sigma(ri) == 1.0

    def test_gamma0_no_superconvergence(self):
        ri = RateInputs(gamma=0, eta=math.inf, delta=math.inf, s=0, r=2)
        assert predicted_sigma(ri) == 0.0

    def test_eta2_kills_gamma_term(self):
        ri = RateInputs(gamma=5, eta=2, delta=math.inf, s=0, r=2)
        assert predicted_sigma(ri) == 0.0

    def test_finite_delta_term(self):
        ri = RateInputs(gamma=100, eta=math.inf, delta=1, mu=0, nu=0, s=1, r=2)
        assert predicted_sigma(ri) == 1.5

    def test_infinite_gamma_drops_its_term(self):
        # identical meshes: no gamma term, not inf * (1/2 - 1/2) = nan
        ri = RateInputs(gamma=math.inf, eta=2, delta=1, s=1, r=2)
        assert (predicted_sigma(ri), predicted_sigma_prime(ri)) == (1.5, 1.0)

    def test_identical_meshes_and_forms_predict_none(self):
        ri = RateInputs(gamma=math.inf, eta=math.inf, delta=math.inf, s=1, r=2)
        assert predicted_sigma(ri) is None and predicted_sigma_prime(ri) is None


class TestPredictedSigmaPrime:
    def test_gamma1(self):
        ri = RateInputs(gamma=1, eta=math.inf, delta=math.inf, s=1, r=2)
        assert predicted_sigma_prime(ri) == 0.5
        assert ri.r + predicted_sigma_prime(ri) == 2.5

    def test_gamma2(self):
        ri = RateInputs(gamma=2, eta=math.inf, delta=math.inf, s=1, r=2)
        assert predicted_sigma_prime(ri) == 1.0

    def test_delta_mu_term_dominates(self):
        ri = RateInputs(gamma=1e9, eta=math.inf, delta=1, mu=1, nu=0, s=1, r=2)
        assert predicted_sigma_prime(ri) == 0.0

    def test_requires_s1(self):
        ri = RateInputs(gamma=1, eta=math.inf, delta=math.inf, s=0, r=2)
        with pytest.raises(InvalidArgumentError):
            predicted_sigma_prime(ri)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(gamma=-1, eta=math.inf, delta=math.inf),
        dict(gamma=1, eta=1.5, delta=math.inf),
        dict(gamma=1, eta=math.inf, delta=-0.5),
        dict(gamma=1, eta=math.inf, delta=math.inf, s=1, mu=2),
        dict(gamma=1, eta=math.inf, delta=math.inf, s=1, r=1),
    ])
    def test_bad_inputs(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            RateInputs(**kwargs)

    def test_q_restriction(self):
        assert q_restriction_ok(d=1, nu=0, q=math.inf)      # d < 4 - 2 nu
        assert q_restriction_ok(d=4, nu=0, q=100.0)         # d = 4 - 2 nu: q finite
        assert not q_restriction_ok(d=4, nu=0, q=math.inf)
        assert q_restriction_ok(d=2, nu=1, q=5.0)           # d = 4 - 2 nu again
        assert not q_restriction_ok(d=2, nu=1, q=math.inf)
        assert q_restriction_ok(d=3, nu=1, q=6.0)           # d > 4 - 2 nu: q <= 2d/(d-4+2nu)
        assert not q_restriction_ok(d=3, nu=1, q=6.5)


class TestObservedOrders:
    def test_affine_reference_pair(self):
        got = observed_orders([1 / 8, 1 / 16], [3.2150e-03, 5.6505e-04])
        assert got[0] == pytest.approx(2.5084, abs=5e-5)

    def test_quadratic_reference_pair(self):
        # printed reference order is 3.5886 from unrounded values; the rounded
        # table entries give 3.58854
        got = observed_orders([1 / 8, 1 / 16], [1.2843e-04, 1.0676e-05])
        assert got[0] == pytest.approx(3.5886, abs=1e-3)

    def test_constant_values(self):
        assert observed_orders([0.5, 0.25], [3.0, 3.0]) == [0.0]

    def test_scaling_invariance(self, rng):
        hs = 1.0 / 2 ** np.arange(1, 6)
        vals = np.exp(-rng.random(5).cumsum())
        a = observed_orders(hs, vals)
        b = observed_orders(hs, 7.3 * vals)
        assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("hs,vals", [
        ([0.5], [1.0]),
        ([0.5, 0.5], [1.0, 0.5]),
        ([0.5, 0.25], [1.0, -0.5]),
        ([0.25, 0.5], [1.0, 0.5]),
    ])
    def test_invalid_inputs(self, hs, vals):
        with pytest.raises(InvalidArgumentError):
            observed_orders(hs, vals)


_rate_inputs = st.builds(
    RateInputs,
    gamma=st.floats(0, 50),
    eta=st.one_of(st.just(math.inf), st.floats(2, 100)),
    delta=st.one_of(st.just(math.inf), st.floats(0, 20)),
    mu=st.integers(0, 1),
    nu=st.integers(0, 1),
    s=st.just(1),
    r=st.integers(2, 5),
)


@given(_rate_inputs)
@settings(max_examples=300)
def test_sigma_prime_never_exceeds_sigma(ri):
    assert predicted_sigma_prime(ri) <= predicted_sigma(ri) + 1e-15


@given(_rate_inputs, st.floats(0, 10), st.floats(0, 10), st.floats(0, 200))
@settings(max_examples=300)
def test_sigma_monotone(ri, dgamma, ddelta, deta):
    base = predicted_sigma(ri)
    bigger_gamma = RateInputs(ri.gamma + dgamma, ri.eta, ri.delta, ri.mu, ri.nu,
                              ri.s, ri.r)
    assert predicted_sigma(bigger_gamma) >= base - 1e-12
    if not math.isinf(ri.delta):
        bigger_delta = RateInputs(ri.gamma, ri.eta, ri.delta + ddelta, ri.mu,
                                  ri.nu, ri.s, ri.r)
        assert predicted_sigma(bigger_delta) >= base - 1e-12
    if not math.isinf(ri.eta):
        bigger_eta = RateInputs(ri.gamma, ri.eta + deta, ri.delta, ri.mu, ri.nu,
                                ri.s, ri.r)
        assert predicted_sigma(bigger_eta) >= base - 1e-12
