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
)
from blakit.systems import PolynomialNonlinearity, RationalLTI
from blakit.volterra import gaussian_power_moment

CUBIC = PolynomialNonlinearity(coefficients=[1.0, 0.0, 0.1])

# The constituents whose sum is the output; y_p_alt and y_n_alt re-split y_p + y_n.
SPLIT = ("y_bla", "y_s", "y_p", "y_n")


# Term-list algebra: the exact oracle the decomposition report's term lists
# are checked against.
def _add(out: dict, key, coeff: float) -> None:
    """Add ``coeff`` to ``out[key]``; a sum of exactly zero drops the key."""
    out[key] = out.get(key, 0.0) + coeff
    if out[key] == 0.0:
        del out[key]


def expand_terms(terms, model: GaussianInputModel) -> dict:
    """Expand centered factors into plain monomials.

    Returns ``{(u_power, nx_power, filtered, output_noise): coefficient}``
    with centered terms split into their raw monomial and the mean they
    subtract.
    """
    out: dict = {}
    for t in terms:
        _add(out, (t.u_power, t.nx_power, t.filtered, t.output_noise), t.coefficient)
        if t.centered:
            mean = gaussian_power_moment(t.nx_power, model.process_noise_variance)
            if mean:
                _add(out, (t.u_power, 0, t.filtered, t.output_noise), -t.coefficient * mean)
    return out


def _mean_over(terms, model: GaussianInputModel, averaged: int, variance: float) -> dict:
    """Average the expanded terms over one Gaussian factor, exactly.

    ``averaged`` is 0 for ``u`` and 1 for ``nx``, the factor of variance
    ``variance``; the other factor stays symbolic.  Returns
    ``{(kept_power, filtered): coefficient}``; output-noise terms average
    to zero.
    """
    out: dict = {}
    for (u_power, nx_power, filtered, is_ny), coeff in expand_terms(terms, model).items():
        powers = (u_power, nx_power)
        weight = gaussian_power_moment(powers[averaged], variance)
        if weight and not is_ny:
            _add(out, (powers[1 - averaged], filtered), coeff * weight)
    return out


def mean_over_process_noise(terms, model: GaussianInputModel) -> dict:
    """Expected terms after averaging over the process noise: ``{(u_power, filtered): c}``.

    Centered factors average to zero by construction.
    """
    return _mean_over(terms, model, 1, model.process_noise_variance)


def mean_over_input(terms, model: GaussianInputModel) -> dict:
    """Expected terms after averaging over the excitation: ``{(nx_power, filtered): c}``."""
    return _mean_over(terms, model, 0, model.input_variance)


def evaluate_terms(terms, u, nx, ny, dynamics: RationalLTI,
                   model: GaussianInputModel) -> np.ndarray:
    """Realize a term list on concrete sequences.

    Filtering is the zero-state response (``RationalLTI.filter``), so pass
    sequences with their own warm-up stretch and discard it outside when
    steady state is wanted.
    """
    plain = np.zeros_like(u)
    filtered = np.zeros_like(u)
    for t in terms:
        if t.output_noise:
            plain = plain + t.coefficient * ny
            continue
        factor = np.ones_like(u)
        if t.u_power:
            factor = factor * u ** t.u_power
        if t.nx_power:
            nx_part = nx ** t.nx_power
            if t.centered:
                nx_part = nx_part - gaussian_power_moment(
                    t.nx_power, model.process_noise_variance
                )
            factor = factor * nx_part
        if t.filtered:
            filtered = filtered + t.coefficient * factor
        else:
            plain = plain + t.coefficient * factor
    return plain + dynamics.filter(filtered)


def hermite_gain_oracle(f: PolynomialNonlinearity, variance: float) -> float:
    """E{f'(x)} by Gauss-Hermite quadrature, exact for polynomials."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(16)
    x = np.sqrt(variance) * nodes
    powers = np.arange(1, f.coefficients.size + 1)
    deriv = np.polynomial.polynomial.polyval(x, f.coefficients * powers)
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
        dec = analytic_hammerstein_decomposition(CUBIC, self.model)
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
        dec = analytic_hammerstein_decomposition(CUBIC, self.model)
        assert mean_over_process_noise(dec.constituents["y_p"], self.model) == {}
        assert mean_over_input(dec.constituents["y_s"], self.model) == {}
        assert mean_over_process_noise(dec.constituents["y_p_alt"], self.model) == {}

    def test_sum_identity_reproduces_system_equation(self):
        dec = analytic_hammerstein_decomposition(CUBIC, self.model)
        total = {}
        for name in SPLIT:
            for key, coeff in expand_terms(dec.constituents[name], self.model).items():
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
        dec = analytic_hammerstein_decomposition(CUBIC, self.model)
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
            evaluate_terms(dec.constituents[name], u, nx, ny, lti, self.model)
            for name in SPLIT
        )
        direct = lfilter(lti.numerator, lti.denominator, CUBIC(u + nx)) + ny
        np.testing.assert_allclose(rebuilt, direct, rtol=1e-10, atol=1e-12)

    def test_report_json_schema(self):
        dec = analytic_hammerstein_decomposition(CUBIC, self.model)
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
