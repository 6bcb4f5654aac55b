from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy.signal import lfilter

from blakit.analytic import (
    GaussianInputModel,
    _noise_averaged,
    _noise_moments,
    analytic_hammerstein_bla,
    bussgang_gain,
    hermite_table,
)
from blakit.systems import ConfigurationError, PolynomialNonlinearity, RationalLTI
from blakit.volterra import gaussian_power_moment

CUBIC = PolynomialNonlinearity(coefficients=[1.0, 0.0, 0.1])
QUINTIC = PolynomialNonlinearity(coefficients=[1.0, 0.3, 0.1, 0.0, -0.01])

# Round-off bounds relative to the size of f's terms hold down to the
# smallest normal float.  Below it the arithmetic resolves only steps of
# ulp(0.0), absolute, and the Hermite products multiply a subnormal cell's
# error: f = [0, 0, 2.2e-313] rebuilds f(u + nx) 72 steps off.  So each
# relative bound has this absolute floor.
SUBNORMAL_FLOOR = np.finfo(float).tiny


class Term(NamedTuple):
    """One monomial ``coefficient * u^u_power * nx^nx_power`` of a constituent.

    ``centered`` subtracts the Gaussian mean of the noise factor, so the
    factor becomes ``nx^b - E{nx^b}`` (the ``nx^2 - var`` term).
    """

    coefficient: float
    u_power: int = 0
    nx_power: int = 0
    centered: bool = False


def cubic_terms(model: GaussianInputModel) -> dict:
    """The static constituents of ``CUBIC`` written out by hand: the oracle of its table.

    ``moved`` is what the orthogonal split moves from ``y_p`` into the
    output-noise constituent: the cells that hold no power of ``u``.
    """
    c, s2_u, s2_x = 0.1, model.input_variance, model.process_noise_variance
    return {
        "y_bla": (Term(1.0 + 3.0 * c * (s2_u + s2_x), u_power=1),),
        "y_s": (Term(c, u_power=3), Term(-3.0 * c * s2_u, u_power=1)),
        "y_p": (Term(1.0, nx_power=1), Term(3.0 * c, u_power=2, nx_power=1),
                Term(3.0 * c, u_power=1, nx_power=2, centered=True), Term(c, nx_power=3)),
        "y_p_alt": (Term(3.0 * c, u_power=2, nx_power=1), Term(-3.0 * c * s2_u, nx_power=1),
                    Term(3.0 * c, u_power=1, nx_power=2, centered=True)),
        "moved": (Term(1.0, nx_power=1), Term(3.0 * c * s2_u, nx_power=1),
                  Term(c, nx_power=3)),
    }


def evaluate_terms(terms, u, nx, model: GaussianInputModel) -> np.ndarray:
    """Realize a term list on concrete sequences."""
    total = np.zeros_like(u)
    for t in terms:
        nx_part = nx ** t.nx_power
        if t.centered:
            nx_part = nx_part - gaussian_power_moment(t.nx_power, model.process_noise_variance)
        total = total + t.coefficient * u ** t.u_power * nx_part
    return total


def constituents(table: np.ndarray, u, nx, model: GaussianInputModel) -> dict:
    """Each cell rule's share of ``f(u + nx)``, from the Hermite table.

    ``y_bla`` is cell ``(1, 0)``, ``y_s`` the other ``j = 0`` cells and
    ``y_p`` every ``j >= 1`` cell; the orthogonal split keeps the cells
    with ``i, j >= 1`` in ``y_p_alt`` and moves the ``i = 0, j >= 1`` cells
    into ``y_n_alt``.
    """
    z = u / np.sqrt(model.input_variance)
    sx = np.sqrt(model.process_noise_variance)
    w = nx / sx if sx else np.zeros_like(nx)
    i, j = np.indices(table.shape)
    rules = {"y_bla": (i == 1) & (j == 0), "y_s": (i != 1) & (j == 0), "y_p": j >= 1,
             "y_p_alt": (i >= 1) & (j >= 1), "moved": (i == 0) & (j >= 1)}
    return {name: hermite_e.hermeval2d(z, w, np.where(cells, table, 0.0))
            for name, cells in rules.items()}


def term_scale(f: PolynomialNonlinearity, x) -> np.ndarray:
    """``sum_n |c_n| x^n``: the size of the terms that make up ``f`` at ``|x|``."""
    powers = np.arange(1, f.coefficients.size + 1)
    return np.sum(np.abs(f.coefficients)[:, None] * np.asarray(x)[None] ** powers[:, None], axis=0)


def gauss_hermite(points: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Standard normal quadrature nodes and weights, exact for polynomials of degree < 2 * points."""
    nodes, weights = hermite_e.hermegauss(points)
    return nodes, weights / weights.sum()


@st.composite
def polynomials(draw, max_degree: int = 9) -> PolynomialNonlinearity:
    degree = draw(st.integers(1, max_degree))
    coefficient = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    return PolynomialNonlinearity(draw(st.lists(coefficient, min_size=degree, max_size=degree)))


variances = st.floats(1e-4, 10.0)


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


def power_moment_gain(f: PolynomialNonlinearity, model: GaussianInputModel) -> float:
    """The Bussgang gain as a sum of Gaussian power moments, term by term onto 0.0."""
    variance = model.input_variance + model.process_noise_variance
    gain = 0.0
    for power, coeff in enumerate(f.coefficients, start=1):
        gain += coeff * power * gaussian_power_moment(power - 1, variance)
    return gain


def binomial_hermite_table(f: PolynomialNonlinearity, model: GaussianInputModel) -> np.ndarray:
    """The Hermite table by a change of basis: ``f(su z + sx w)`` expanded
    binomially over the monomials ``z^k w^l``, then both axes taken to Hermite
    polynomials by one ``poly2herme`` matrix."""
    su, sx = np.sqrt(model.input_variance), np.sqrt(model.process_noise_variance)
    size = f.coefficients.size + 1
    power = np.zeros((size, size))  # (su z + sx w)^n over z^k w^l, from n = 0
    power[0, 0] = 1.0
    monomial = np.zeros((size, size))
    for coeff in f.coefficients:
        power = (su * np.pad(power[:-1], ((1, 0), (0, 0)))
                 + sx * np.pad(power[:, :-1], ((0, 0), (1, 0))))
        monomial += coeff * power
    to_hermite = np.zeros((size, size))
    for k, unit in enumerate(np.eye(size)):
        column = hermite_e.poly2herme(unit)  # trims trailing zeros
        to_hermite[:column.size, k] = column
    return to_hermite @ monomial @ to_hermite.T


class TestNoiseAveraged:
    """``_noise_averaged``, the polynomial every closed form derives from."""

    @settings(max_examples=300, deadline=None)
    @given(f=polynomials(), input_variance=variances,
           process_noise_variance=st.one_of(st.just(0.0), variances))
    def test_gain_is_the_power_moment_sum_bit_for_bit(self, f, input_variance,
                                                      process_noise_variance):
        model = GaussianInputModel(input_variance, process_noise_variance)
        assert float(bussgang_gain(f, model)).hex() == float(power_moment_gain(f, model)).hex()

    @settings(max_examples=200, deadline=None)
    @given(f=polynomials(), x=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
    def test_without_noise_it_is_f(self, f, x):
        # So the noise-free mean output is f(u) bit for bit, with zero variance.
        assert np.array_equal(_noise_averaged(f, 0.0), np.concatenate([[0.0], f.coefficients]))
        mean, variance = _noise_moments(f, np.array(x), 0.0)
        assert mean.tobytes() == f(np.array(x)).tobytes()
        assert np.all(variance == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(f=polynomials(), input_variance=variances,
           process_noise_variance=st.one_of(st.just(0.0), variances))
    @example(f=PolynomialNonlinearity([0.0, 0.0, 2.22507386e-313]), input_variance=1e-4,
             process_noise_variance=0.0078125)
    def test_hermite_table_matches_the_change_of_basis(self, f, input_variance,
                                                       process_noise_variance):
        # Stein's lemma against the binomial expansion and basis change, to a
        # few eps of the table's largest cell (5.3 eps over 3 000 random f).
        model = GaussianInputModel(input_variance, process_noise_variance)
        want = binomial_hermite_table(f, model)
        error = np.abs(hermite_table(f, model) - want).max()
        assert error <= 16 * np.finfo(float).eps * np.abs(want).max() + SUBNORMAL_FLOOR


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


class TestGaussianInputModel:
    @pytest.mark.parametrize("field", ["input_variance", "process_noise_variance"])
    @pytest.mark.parametrize("value", [-1e-300, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_invalid_variance_rejected(self, field, value):
        kwargs = {"input_variance": 1.0, field: value}
        with pytest.raises(ConfigurationError, match=field):
            GaussianInputModel(**kwargs)


class TestDecompositionTerms:
    """The Hermite table of ``f(u + nx)`` and the output split its cells give."""

    model = GaussianInputModel(input_variance=1.7, process_noise_variance=0.04)

    def draws(self, seed: int, n: int = 200) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        return (np.sqrt(self.model.input_variance) * rng.standard_normal(n),
                np.sqrt(self.model.process_noise_variance) * rng.standard_normal(n))

    def test_reference_term_lists(self):
        # y_bla, y_s and y_p of the cubic's table are the hand-written term lists.
        u, nx = self.draws(0)
        for model in (self.model, GaussianInputModel(1.0, 0.01)):
            got = constituents(hermite_table(CUBIC, model), u, nx, model)
            oracle = cubic_terms(model)
            for name in ("y_bla", "y_s", "y_p"):
                np.testing.assert_allclose(got[name], evaluate_terms(oracle[name], u, nx, model),
                                           rtol=0, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(f=polynomials(), input_variance=variances,
           process_noise_variance=st.one_of(st.just(0.0), variances))
    @example(f=PolynomialNonlinearity([0.0, 0.0, 2.22507386e-308]), input_variance=0.0078125,
             process_noise_variance=0.0078125)
    def test_bla_gain_is_bussgang_gain(self, f, input_variance, process_noise_variance):
        # Cell (1, 0) is su times the Bussgang gain, to round-off of the
        # gain of |f|'s coefficients, which bounds what cancellation can leave.
        model = GaussianInputModel(input_variance, process_noise_variance)
        su = np.sqrt(input_variance)
        scale = su * bussgang_gain(PolynomialNonlinearity(np.abs(f.coefficients)), model)
        error = abs(hermite_table(f, model)[1, 0] - su * bussgang_gain(f, model))
        assert error <= 1e-14 * scale + SUBNORMAL_FLOOR

    def test_alternate_split(self):
        # The orthogonal split: y_p_alt holds the cells with i, j >= 1, and
        # the i = 0 cells move to y_n_alt, 0.3 su^2 nx among them.
        u, nx = self.draws(1)
        got = constituents(hermite_table(CUBIC, self.model), u, nx, self.model)
        oracle = cubic_terms(self.model)
        for name in ("y_p_alt", "moved"):
            np.testing.assert_allclose(got[name], evaluate_terms(oracle[name], u, nx, self.model),
                                       rtol=0, atol=1e-14)
        np.testing.assert_allclose(got["y_p_alt"] + got["moved"], got["y_p"], rtol=0, atol=1e-14)

    def test_alternate_moves_only_input_free_noise_terms(self):
        # What moves is E_u f(u + nx) - E f(u + nx), a function of nx alone.
        nodes, weights = gauss_hermite()
        _, nx = self.draws(2, n=7)
        su = np.sqrt(self.model.input_variance)
        for f in (CUBIC, QUINTIC):
            table = hermite_table(f, self.model)
            u_grid, nx_grid = np.meshgrid(su * nodes, nx, indexing="ij")
            moved = constituents(table, u_grid, nx_grid, self.model)["moved"]
            np.testing.assert_allclose(moved, np.broadcast_to(moved[0], moved.shape),
                                       rtol=0, atol=1e-14)
            conditional = weights @ f(u_grid + nx_grid)
            np.testing.assert_allclose(moved[0], conditional - table[0, 0], rtol=0, atol=1e-14)

    def test_zero_process_noise_empties_y_p(self):
        for f in (CUBIC, QUINTIC, PolynomialNonlinearity(np.arange(1.0, 10.0))):
            table = hermite_table(f, GaussianInputModel(1.0, 0.0))
            assert table.shape == (f.coefficients.size + 1,) * 2
            assert np.all(table[:, 1:] == 0.0)

    def test_constituent_expectations_vanish_exactly(self):
        # Under Gauss-Hermite quadrature, exact for these polynomials: y_p has
        # zero mean over nx for every u, y_s less its constant cell has zero
        # mean over u, y_p_alt has zero mean over either factor, and the
        # constant cell (0, 0) is E f(u + nx).
        nodes, weights = gauss_hermite()
        su = np.sqrt(self.model.input_variance)
        sx = np.sqrt(self.model.process_noise_variance)
        u_grid, nx_grid = np.meshgrid(su * nodes, sx * nodes, indexing="ij")
        for f in (CUBIC, QUINTIC):
            table = hermite_table(f, self.model)
            got = constituents(table, u_grid, nx_grid, self.model)
            np.testing.assert_allclose(got["y_p"] @ weights, 0.0, atol=1e-14)
            np.testing.assert_allclose(weights @ got["y_s"][:, 0] - table[0, 0], 0.0, atol=1e-14)
            np.testing.assert_allclose(got["y_p_alt"] @ weights, 0.0, atol=1e-14)
            np.testing.assert_allclose(weights @ got["y_p_alt"], 0.0, atol=1e-14)
            variance = self.model.input_variance + self.model.process_noise_variance
            mean = sum(c * gaussian_power_moment(n, variance)
                       for n, c in enumerate(f.coefficients, start=1))
            assert table[0, 0] == pytest.approx(mean, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(f=polynomials(), input_variance=variances,
           process_noise_variance=st.one_of(st.just(0.0), variances),
           zw=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                       min_size=1, max_size=8))
    @example(f=PolynomialNonlinearity([0.0, 0.0, 2.22507386e-313]), input_variance=1e-4,
             process_noise_variance=0.0078125, zw=[(-1.0, 2.0)])
    @example(f=PolynomialNonlinearity([0.0, 0.0, 2.22507386e-313]), input_variance=0.0078125,
             process_noise_variance=0.0078125, zw=[(4.0, 4.0)])
    def test_sum_identity_reproduces_system_equation(self, f, input_variance,
                                                     process_noise_variance, zw):
        # The whole table rebuilds f(u + nx).  Its cells are products of
        # terms of size su^k sx^l, so round-off is measured against f's term
        # sizes at |u| + |nx| + su + sx.
        model = GaussianInputModel(input_variance, process_noise_variance)
        su, sx = np.sqrt(input_variance), np.sqrt(process_noise_variance)
        z, w = np.array(zw).T
        u, nx = su * z, sx * w
        table = hermite_table(f, model)
        assert table.shape == (f.coefficients.size + 1,) * 2
        if sx == 0.0:
            assert np.all(table[:, 1:] == 0.0)
        rebuilt = sum(constituents(table, u, nx, model)[name] for name in ("y_bla", "y_s", "y_p"))
        scale = term_scale(f, np.abs(u) + np.abs(nx) + su + sx)
        assert np.all(np.abs(rebuilt - f(u + nx)) <= 1e-12 * scale + SUBNORMAL_FLOOR)

    def test_evaluate_terms_reconstructs_output(self):
        # The three constituents realized on concrete sequences, through the
        # dynamics, plus the output noise rebuild the simulated output sample
        # for sample (zero-state filters).
        rng = np.random.default_rng(6)
        n = 512
        model = GaussianInputModel(1.0, 0.01)
        u = rng.standard_normal(n)
        nx = 0.1 * rng.standard_normal(n)
        ny = 0.03 * rng.standard_normal(n)
        lti = RationalLTI(b=[0.2, 0.1], a=[1.0, -0.7])
        for f in (CUBIC, QUINTIC):
            got = constituents(hermite_table(f, model), u, nx, model)
            rebuilt = lfilter(lti.numerator, lti.denominator,
                              got["y_bla"] + got["y_s"] + got["y_p"]) + ny
            direct = lfilter(lti.numerator, lti.denominator, f(u + nx)) + ny
            np.testing.assert_allclose(rebuilt, direct, rtol=1e-10, atol=1e-12)
