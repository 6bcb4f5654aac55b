from __future__ import annotations

import json

import numpy as np
import pytest
from scipy.signal import lfilter

from blakit.analytic import (
    GaussianInputModel,
    Term,
    analytic_hammerstein_bla,
    analytic_hammerstein_decomposition,
    bussgang_gain,
    decomposition_report_json,
    evaluate_terms,
    expand_terms,
    gaussian_power_moment,
    mean_over_input,
    mean_over_process_noise,
)
from blakit.systems import PolynomialNonlinearity, RationalLTI

CUBIC = PolynomialNonlinearity(coefficients=[1.0, 0.0, 0.1])


def hermite_gain_oracle(f: PolynomialNonlinearity, variance: float) -> float:
    """E{f'(x)} by Gauss-Hermite quadrature, exact for polynomials."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(16)
    x = np.sqrt(variance) * nodes
    deriv = np.polynomial.polynomial.polyval(x, f.derivative_coefficients())
    return float(np.sum(weights * deriv) / np.sqrt(2.0 * np.pi))


def regression_gain_oracle(f, variance, samples=1_000_000, seed=0) -> float:
    """Least-squares slope of f(x) on x over Gaussian draws."""
    x = np.sqrt(variance) * np.random.default_rng(seed).standard_normal(samples)
    y = f(x)
    return float(np.sum(y * x) / np.sum(x * x))


class TestBussgangGain:
    def test_identity_is_one(self):
        f = PolynomialNonlinearity.identity()
        for model in (GaussianInputModel(1.0), GaussianInputModel(4.0, 2.5)):
            assert bussgang_gain(f, model) == 1.0

    def test_cubic_reference_value(self):
        model = GaussianInputModel(input_variance=1.0, process_noise_variance=0.01)
        gain = bussgang_gain(CUBIC, model)
        assert gain == 1.0 + 0.3 * 1.0 + 0.3 * 0.01
        assert gain == pytest.approx(1.303, abs=1e-12)

    def test_matches_quadrature_for_general_polynomials(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            degree = rng.integers(1, 8)
            f = PolynomialNonlinearity(coefficients=rng.standard_normal(degree))
            model = GaussianInputModel(float(rng.uniform(0.1, 3.0)),
                                       float(rng.uniform(0.0, 1.0)))
            total = model.input_variance + model.process_noise_variance
            assert bussgang_gain(f, model) == pytest.approx(
                hermite_gain_oracle(f, total), rel=1e-10)

    def test_matches_monte_carlo_regression(self):
        rng = np.random.default_rng(9)
        c = float(rng.uniform(0.05, 0.3))
        f = PolynomialNonlinearity(coefficients=[1.0, 0.0, c])
        model = GaussianInputModel(float(rng.uniform(0.5, 1.5)),
                                   float(rng.uniform(0.0, 0.3)))
        total = model.input_variance + model.process_noise_variance
        mc = regression_gain_oracle(f, total, seed=4)
        assert bussgang_gain(f, model) == pytest.approx(mc, rel=0.005)

    def test_monotone_in_variances_for_positive_odd_coefficients(self):
        f = PolynomialNonlinearity(coefficients=[1.0, 0.0, 0.2, 0.0, 0.05])
        gains = [
            bussgang_gain(f, GaussianInputModel(v, w))
            for v, w in [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (2.0, 1.0)]
        ]
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_even_moments(self):
        assert gaussian_power_moment(0, 2.0) == 1.0
        assert gaussian_power_moment(2, 2.0) == 2.0
        assert gaussian_power_moment(4, 2.0) == 12.0
        assert gaussian_power_moment(6, 2.0) == 15 * 8.0
        assert gaussian_power_moment(3, 2.0) == 0.0


class TestAnalyticBla:
    def test_identity_chain_is_unity(self):
        g = analytic_hammerstein_bla(RationalLTI.identity(),
                                     PolynomialNonlinearity.identity(),
                                     GaussianInputModel(1.0), 16)
        np.testing.assert_allclose(g, np.ones(9), atol=1e-14)

    def test_gain_scales_dynamics_uniformly(self):
        lti = RationalLTI(b=[0.3, 0.1], a=[1.0, -0.5])
        model = GaussianInputModel(1.0, 0.01)
        g = analytic_hammerstein_bla(lti, CUBIC, model, 64)
        np.testing.assert_allclose(g, 1.303 * lti.bin_response(64), rtol=1e-12)

    def test_process_noise_gain_ratio(self):
        lti = RationalLTI(b=[0.3, 0.1], a=[1.0, -0.5])
        small = analytic_hammerstein_bla(lti, CUBIC, GaussianInputModel(1.0, 0.01), 64)
        large = analytic_hammerstein_bla(lti, CUBIC, GaussianInputModel(1.0, 1.0), 64)
        ratio = np.abs(large[1:] / small[1:])
        np.testing.assert_allclose(ratio, 1.6 / 1.303, rtol=1e-12)
        assert np.all(np.abs(ratio - 1.2280) < 1e-3)


class TestDecompositionTerms:
    model = GaussianInputModel(input_variance=1.0, process_noise_variance=0.01)

    @staticmethod
    def assert_terms(got, expected):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert (g.u_power, g.nx_power, g.centered, g.filtered, g.output_noise) == (
                e.u_power, e.nx_power, e.centered, e.filtered, e.output_noise)
            assert g.coefficient == pytest.approx(e.coefficient, rel=1e-12)

    def test_reference_term_lists(self):
        dec = analytic_hammerstein_decomposition(CUBIC, self.model)
        self.assert_terms(dec.constituents["y_s"], (
            Term(0.1, u_power=3, filtered=True),
            Term(-0.3, u_power=1, filtered=True),
        ))
        self.assert_terms(dec.constituents["y_p"], (
            Term(1.0, nx_power=1, filtered=True),
            Term(0.3, u_power=2, nx_power=1, filtered=True),
            Term(0.3, u_power=1, nx_power=2, centered=True, filtered=True),
            Term(0.1, nx_power=3, filtered=True),
        ))
        self.assert_terms(dec.constituents["y_n"], (Term(1.0, output_noise=True),))
        (bla_term,) = dec.constituents["y_bla"]
        assert bla_term.coefficient == pytest.approx(1.303)
        assert bla_term.u_power == 1 and bla_term.filtered

    def test_bla_gain_is_bussgang_gain(self):
        # 1 + 3c(s2_u + s2_x) written out term by term rounds to
        # 1.0779999999999998 here, one bit away from the gain of the BLA.
        model = GaussianInputModel(0.25, 0.01)
        (bla_term,) = analytic_hammerstein_decomposition(CUBIC, model).constituents["y_bla"]
        assert bla_term.coefficient == bussgang_gain(CUBIC, model) == 1.078

    def test_alternate_split(self):
        dec = analytic_hammerstein_decomposition(CUBIC, self.model, alternate=True)
        self.assert_terms(dec.constituents["y_p_alt"], (
            Term(0.3, u_power=2, nx_power=1, filtered=True),
            Term(0.3, u_power=1, nx_power=2, centered=True, filtered=True),
        ))
        self.assert_terms(dec.constituents["y_n_alt"], (
            Term(1.0, output_noise=True),
            Term(1.0, nx_power=1, filtered=True),
            Term(0.1, nx_power=3, filtered=True),
        ))

    def test_zero_process_noise_empties_y_p(self):
        dec = analytic_hammerstein_decomposition(
            CUBIC, GaussianInputModel(1.0, 0.0))
        assert dec.constituents["y_p"] == ()

    def test_constituent_expectations_vanish_exactly(self):
        dec = analytic_hammerstein_decomposition(CUBIC, self.model, alternate=True)
        assert mean_over_process_noise(dec.constituents["y_p"], self.model) == {}
        assert mean_over_input(dec.constituents["y_s"], self.model) == {}
        assert mean_over_process_noise(dec.constituents["y_p_alt"], self.model) == {}

    def test_sum_identity_reproduces_system_equation(self):
        dec = analytic_hammerstein_decomposition(CUBIC, self.model)
        total = {}
        for terms in dec.constituents.values():
            for key, coeff in expand_terms(terms, self.model).items():
                total[key] = total.get(key, 0.0) + coeff
        total = {k: v for k, v in total.items() if abs(v) > 1e-15}
        # Expansion of f(u + nx) filtered by the dynamics, plus output noise.
        expected = {
            (1, 0, True, False): 1.0,
            (0, 1, True, False): 1.0,
            (3, 0, True, False): 0.1,
            (2, 1, True, False): 0.3,
            (1, 2, True, False): 0.3,
            (0, 3, True, False): 0.1,
            (0, 0, False, True): 1.0,
        }
        assert set(total) == set(expected)
        for key in expected:
            assert total[key] == pytest.approx(expected[key], abs=1e-14)

    def test_alternate_moves_only_input_free_noise_terms(self):
        dec = analytic_hammerstein_decomposition(CUBIC, self.model, alternate=True)
        moved = expand_terms(dec.constituents["y_p"], self.model)
        for key, coeff in expand_terms(dec.constituents["y_p_alt"], self.model).items():
            moved[key] = moved.get(key, 0.0) - coeff
        gained = expand_terms(dec.constituents["y_n_alt"], self.model)
        for key, coeff in expand_terms(dec.constituents["y_n"], self.model).items():
            gained[key] = gained.get(key, 0.0) - coeff
        moved = {k: v for k, v in moved.items() if abs(v) > 1e-15}
        gained = {k: v for k, v in gained.items() if abs(v) > 1e-15}
        assert moved == gained

    def test_unsupported_nonlinearity_rejected(self):
        with pytest.raises(ValueError, match="supported"):
            analytic_hammerstein_decomposition(
                PolynomialNonlinearity(coefficients=[1.0, 0.5]), self.model)
        with pytest.raises(ValueError, match="supported"):
            analytic_hammerstein_decomposition(
                PolynomialNonlinearity(coefficients=[2.0, 0.0, 0.1]), self.model)

    def test_evaluate_terms_reconstructs_output(self):
        # Realizing all four constituents on concrete sequences must rebuild
        # the simulated system output sample for sample (zero-state filters).
        rng = np.random.default_rng(6)
        n = 512
        u = rng.standard_normal(n)
        nx = 0.1 * rng.standard_normal(n)
        ny = 0.03 * rng.standard_normal(n)
        lti = RationalLTI(b=[0.2, 0.1], a=[1.0, -0.7])
        dec = analytic_hammerstein_decomposition(CUBIC, self.model)
        rebuilt = sum(
            evaluate_terms(terms, u, nx, ny, lti, self.model)
            for terms in dec.constituents.values()
        )
        direct = lfilter(lti.numerator, lti.denominator, CUBIC(u + nx)) + ny
        np.testing.assert_allclose(rebuilt, direct, rtol=1e-10, atol=1e-12)

    def test_report_json_schema(self):
        dec = analytic_hammerstein_decomposition(CUBIC, self.model, alternate=True)
        payload = json.loads(decomposition_report_json(dec))
        assert set(payload) == {
            "y_bla", "y_s", "y_p", "y_n", "y_p_alt", "y_n_alt",
            "input_variance", "process_noise_variance",
        }
        for term in payload["y_p"]:
            assert set(term) == {"coefficient", "u_power", "nx_power",
                                 "centered_flag", "filtered_flag",
                                 "output_noise_flag"}
        assert payload["process_noise_variance"] == 0.01
