from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blakit import volterra
from blakit.systems import VolterraPlant
from blakit.volterra import (
    MAX_TOTAL_DEGREE,
    DualVolterraKernel,
    NoiseMomentModel,
    _lagged,
    evaluate_dual_kernel,
    evaluate_kernel,
    expected_kernel,
    gaussian_moment,
)


def brute_force_single(coeff: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Triple-nested-loop transliteration of the kernel sum definition, circular."""
    degree = coeff.ndim
    taps = coeff.shape[0]
    out = np.zeros(u.size)
    for t in range(u.size):
        total = 0.0
        for idx in itertools.product(range(taps), repeat=degree):
            prod = coeff[idx]
            for lag in idx:
                prod *= u[(t - lag) % u.size]
            total += prod
        out[t] = total
    return out


def brute_force_dual(kernel, u, nx, periodic=True) -> np.ndarray:
    """The dual kernel sum in Python floats, term after term in C order from
    ``0.0``; ``kernel`` may be a tuple of kernels, whose terms are then
    summed in tuple order into one total, as a ``VolterraPlant`` sums them.
    Samples before the start are zeros when not ``periodic``."""
    kernels = kernel if isinstance(kernel, tuple) else (kernel,)
    out = np.zeros(u.size)
    for t in range(u.size):
        total = 0.0
        for kernel in kernels:
            m, n = kernel.input_degree, kernel.noise_degree
            coeff = kernel.coefficients
            taps_u = coeff.shape[0] if m else 1
            taps_x = coeff.shape[-1] if n else 1
            for ku in itertools.product(range(taps_u), repeat=m):
                for kx in itertools.product(range(taps_x), repeat=n):
                    prod = coeff[ku + kx]
                    for lag in ku:
                        prod *= u[(t - lag) % u.size] if periodic else (
                            u[t - lag] if t - lag >= 0 else 0.0)
                    for lag in kx:
                        prod *= nx[(t - lag) % nx.size] if periodic else (
                            nx[t - lag] if t - lag >= 0 else 0.0)
                    total += prod
        out[t] = total
    return out


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


@functools.cache
def perfect_matchings(n: int) -> frozenset:
    """Perfect matchings of ``range(n)``, found by deduplicating the consecutive
    pairings of all permutations; an odd ``n`` has none."""
    if n % 2:
        return frozenset()
    return frozenset(
        tuple(sorted(tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(n // 2)))
        for perm in itertools.permutations(range(n)))


def dense_expected_kernel(kernel, model) -> np.ndarray:
    """The noise contraction over the dense noise-tap hypercube in C order:
    each noise index with a nonzero moment adds the moment times its slice
    of the coefficients onto zeros.  A kernel without noise taps gives a
    copy of its own coefficients."""
    m, n = kernel.input_degree, kernel.noise_degree
    if n == 0:
        return kernel.coefficients.copy()
    out = np.zeros(kernel.coefficients.shape[:m])
    for lags in itertools.product(range(kernel.noise_max_lag + 1), repeat=n):
        weight = gaussian_moment(model, lags)
        if weight != 0.0:
            out = out + weight * kernel.coefficients[(...,) + lags]
    return out


signed_zeros = st.sampled_from([0.0, -0.0])


@st.composite
def signed_kernels(draw):
    """A kernel with ``m + n <= 3``, tap axes of 1 to 3 lags and coefficients
    that include zeros of either sign."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3 - m))
    shape = (draw(st.integers(1, 3)),) * m + (draw(st.integers(1, 3)),) * n
    size = math.prod(shape)
    values = draw(st.lists(signed_zeros | st.floats(-2.0, 2.0), min_size=size, max_size=size))
    return DualVolterraKernel(m, n, np.array(values).reshape(shape))


def signed_sequences(size: int):
    """Sequences of ``size`` samples that include zeros of either sign."""
    return st.lists(signed_zeros | st.floats(-3.0, 3.0), min_size=size,
                    max_size=size).map(np.array)


class TestEvaluateKernel:
    def test_first_order_identity(self):
        kernel = DualVolterraKernel(1, 0, np.array([1.0]))
        u = np.arange(10.0)
        np.testing.assert_array_equal(evaluate_kernel(kernel, u), u)

    def test_second_order_constant_input(self):
        kernel = DualVolterraKernel(2, 0, np.array([[1.0]]))
        out = evaluate_kernel(kernel, np.full(8, 2.0))
        np.testing.assert_array_equal(out, np.full(8, 4.0))

    def test_third_order_matches_brute_force(self):
        rng = np.random.default_rng(13)
        coeff = rng.standard_normal((3, 3, 3))
        kernel = DualVolterraKernel(3, 0, coeff)
        u = rng.standard_normal(16)
        np.testing.assert_array_equal(evaluate_kernel(kernel, u), brute_force_single(coeff, u))

    def test_short_input_rejected(self):
        kernel = DualVolterraKernel(2, 0, np.zeros((4, 4)))
        with pytest.raises(ValueError, match="shorter"):
            evaluate_kernel(kernel, np.zeros(3))

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DualVolterraKernel(1, 0, np.array([np.inf]))

    def test_tap_bound_enforced(self):
        with pytest.raises(ValueError, match="lag"):
            DualVolterraKernel(1, 0, np.zeros(12))

    @pytest.mark.parametrize("m, shape", [(1, (0,)), (2, (0, 0))])
    def test_empty_tap_axes_rejected(self, m, shape):
        with pytest.raises(ValueError, match="empty"):
            DualVolterraKernel(m, 0, np.zeros(shape))

    @pytest.mark.parametrize("m, n", [(1.5, 0), (1, 0.0), (np.float64(1.0), 0)])
    def test_non_integral_degree_rejected(self, m, n):
        with pytest.raises(TypeError, match="must be an integer"):
            DualVolterraKernel(m, n, np.ones(2))

    def test_numpy_integer_degrees_accepted(self):
        kernel = DualVolterraKernel(np.int64(1), np.int32(1), np.ones((2, 2)))
        assert (type(kernel.input_degree), type(kernel.noise_degree)) == (int, int)
        assert (kernel.input_degree, kernel.noise_degree) == (1, 1)


    def test_coefficients_are_a_read_only_copy(self):
        # The terms are compiled at construction, so the caller's array is
        # copied: changing it later changes neither the coefficients nor
        # either evaluator's output.
        c = np.array([1.0, 0.5])
        kernel = DualVolterraKernel(1, 0, c)
        c[1] = 9.0
        assert kernel.coefficients.tolist() == [1.0, 0.5]
        u = np.array([1.0, 0.0, 0.0, 0.0])
        assert evaluate_kernel(kernel, u).tolist() == [1.0, 0.5, 0.0, 0.0]
        assert evaluate_dual_kernel(kernel, u, np.zeros(4)).tolist() == [1.0, 0.5, 0.0, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            kernel.coefficients[1] = 9.0


class TestEvaluateDualKernel:
    def test_pure_input_degree_reduces_to_single(self):
        rng = np.random.default_rng(5)
        coeff = rng.standard_normal((3, 3))
        dual = DualVolterraKernel(input_degree=2, noise_degree=0, coefficients=coeff)
        single = DualVolterraKernel(2, 0, coeff)
        u = rng.standard_normal(12)
        nx = rng.standard_normal(12)
        np.testing.assert_array_equal(evaluate_dual_kernel(dual, u, nx),
                                      evaluate_kernel(single, u))

    def test_pure_noise_tap_returns_noise(self):
        dual = DualVolterraKernel(input_degree=0, noise_degree=1,
                                  coefficients=np.array([1.0]))
        u = np.zeros(6)
        nx = np.arange(6.0)
        np.testing.assert_array_equal(evaluate_dual_kernel(dual, u, nx), nx)

    def test_cross_kernel_matches_brute_force(self):
        rng = np.random.default_rng(21)
        kernel = DualVolterraKernel(input_degree=2, noise_degree=1,
                                    coefficients=rng.standard_normal((3, 3, 3)))
        u = rng.standard_normal(14)
        nx = rng.standard_normal(14)
        np.testing.assert_array_equal(evaluate_dual_kernel(kernel, u, nx),
                                      brute_force_dual(kernel, u, nx))

    def test_plant_stepper_matches_brute_force_exactly(self):
        # The stepper multiplies ((c * u_a) * u_b) * nx_c and sums terms in
        # C order from zero, as the scalar loop does, so no rounding may differ.
        rng = np.random.default_rng(23)
        u = rng.standard_normal(20)
        nx = rng.standard_normal(20)
        for m, n in ((0, 0), (1, 0), (0, 1), (3, 0), (1, 2), (2, 2)):
            coefficients = rng.standard_normal((3,) * m + (2,) * n)
            coefficients[rng.random(coefficients.shape) < 0.3] = 0.0
            kernel = DualVolterraKernel(m, n, coefficients)
            step = VolterraPlant((kernel,)).stepper(1)
            got = np.array([step(a, b)[0] for a, b in zip(u, nx)])
            np.testing.assert_array_equal(got, brute_force_dual(kernel, u, nx, periodic=False))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), width=st.integers(1, 5), steps=st.integers(1, 12))
    def test_ring_buffer_plant_matches_brute_force_bitwise(self, data, width, steps):
        # Several kernels of mixed degrees and lags, whose terms the plant
        # sums into one total; assert_array_equal takes -0.0 for 0.0, so
        # the bits are compared.
        kernels = tuple(data.draw(signed_kernels()) for _ in range(data.draw(st.integers(1, 3))))
        u, nx = (data.draw(signed_sequences(steps * width)).reshape(steps, width)
                 for _ in range(2))
        step = VolterraPlant(kernels).stepper(width)
        got = np.array([step(a, b).copy() for a, b in zip(u, nx)])
        for col in range(width):
            want = brute_force_dual(kernels, u[:, col], nx[:, col], periodic=False)
            assert got[:, col].tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(kernel=signed_kernels(), data=st.data())
    def test_evaluators_match_brute_force_bitwise(self, kernel, data):
        # One product order, ((c * u_a) * u_b) * nx_c, in the evaluators and
        # the scalar sums: single and stacked draws give the oracle's bits.
        t_len = data.draw(st.integers(3, 8))
        u = data.draw(signed_sequences(t_len))
        nx = data.draw(signed_sequences(data.draw(st.integers(1, 3)) * t_len)).reshape(-1, t_len)
        stacked = evaluate_dual_kernel(kernel, u, nx)
        for draw, row in zip(nx, stacked):
            want = brute_force_dual(kernel, u, draw).tobytes()
            assert evaluate_dual_kernel(kernel, u, draw).tobytes() == want
            assert row.tobytes() == want
        if kernel.noise_degree == 0:
            got = evaluate_kernel(kernel, u).tobytes()
            assert got == brute_force_dual(kernel, u, u).tobytes()
            if kernel.input_degree:
                assert got == brute_force_single(kernel.coefficients, u).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(kernel=signed_kernels(), data=st.data())
    def test_stepper_second_period_matches_periodic_evaluation_bitwise(self, kernel, data):
        # From its second period on, the ring buffer holds the periodic
        # extension, so the plant's output is the periodic kernel sum.
        t_len = data.draw(st.integers(3, 8))
        u, nx = (data.draw(signed_sequences(t_len)) for _ in range(2))
        step = VolterraPlant((kernel,)).stepper(1)
        got = np.array([step(a, b)[0] for a, b in zip(np.tile(u, 2), np.tile(nx, 2))])
        assert got[t_len:].tobytes() == evaluate_dual_kernel(kernel, u, nx).tobytes()

    def test_stacked_draws_match_single_draws_exactly(self):
        rng = np.random.default_rng(31)
        u = rng.standard_normal(12)
        nx = rng.standard_normal((5, 12))
        for m, n in ((0, 1), (1, 0), (1, 2), (2, 1), (0, 3), (3, 2)):
            coefficients = rng.standard_normal((3,) * m + (2,) * n)
            coefficients[rng.random(coefficients.shape) < 0.3] = 0.0
            kernel = DualVolterraKernel(m, n, coefficients)
            batch = evaluate_dual_kernel(kernel, u, nx)
            assert batch.shape == nx.shape
            for draw, row in zip(nx, batch):
                np.testing.assert_array_equal(
                    row, evaluate_dual_kernel(kernel, u, draw))

    def test_stacked_draws_length_mismatch_rejected(self):
        kernel = DualVolterraKernel(1, 1, np.ones((2, 2)))
        with pytest.raises(ValueError, match="length"):
            evaluate_dual_kernel(kernel, np.zeros(8), np.zeros((3, 9)))

    def test_total_degree_bound(self):
        with pytest.raises(ValueError, match="degree"):
            DualVolterraKernel(input_degree=4, noise_degree=3,
                               coefficients=np.zeros((2,) * 7))


class TestGaussianMoment:
    def test_white_variance(self):
        model = NoiseMomentModel.white(2.0)
        assert gaussian_moment(model, (0, 0)) == 2.0

    def test_odd_moments_vanish(self):
        model = NoiseMomentModel.white(3.0, max_lag=4)
        assert gaussian_moment(model, (0, 0, 0)) == 0.0
        assert gaussian_moment(model, (1, 2, 3, 0, 1)) == 0.0

    def test_fourth_moment_three_pairings(self):
        model = NoiseMomentModel.white(1.0)
        assert gaussian_moment(model, (0, 0, 0, 0)) == 3.0

    def test_fourth_moment_monte_carlo(self):
        rng = np.random.default_rng(77)
        x = rng.standard_normal(1_000_000)
        mc = np.mean(x ** 4)
        assert mc == pytest.approx(3.0, abs=4 * np.sqrt(96 / 1e6))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_pairing_counts_match_double_factorial(self, n):
        model = NoiseMomentModel.white(1.0)
        assert gaussian_moment(model, (0,) * n) == double_factorial(n - 1)

    def test_permutation_symmetry(self):
        model = NoiseMomentModel.white(1.3, max_lag=2)
        base = gaussian_moment(model, (0, 1, 2, 1, 0, 2))
        assert base == pytest.approx(1.3 ** 3, rel=1e-14)
        for perm in itertools.permutations((0, 1, 2, 1, 0, 2)):
            assert gaussian_moment(model, perm) == base

    @pytest.mark.parametrize("n", range(9))
    @settings(max_examples=50, deadline=None)
    @given(variance=st.floats(0.1, 4.0), data=st.data())
    def test_matches_exhaustive_matching_enumeration(self, n, variance, data):
        # Independent oracle: Isserlis' sum over perfect matchings of the
        # pairwise covariances r = [variance, 0, 0, 0] of white noise (not
        # the library's product over distinct lags).  From degree 4 on the
        # two sums may round differently.
        lags = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        r = [variance, 0.0, 0.0, 0.0]
        oracle = sum(math.prod(r[abs(lags[a] - lags[b])] for a, b in pairs)
                     for pairs in perfect_matchings(len(lags)))
        model = NoiseMomentModel.white(variance, max_lag=3)
        assert gaussian_moment(model, lags) == pytest.approx(oracle, rel=1e-12)

    def test_lag_outside_support_rejected(self):
        model = NoiseMomentModel.white(1.0)  # support only lag 0
        with pytest.raises(ValueError, match="support"):
            gaussian_moment(model, (0, 1))

    def test_empty_lags_is_one(self):
        assert gaussian_moment(NoiseMomentModel.white(1.0), ()) == 1.0

    def test_invalid_model_rejected(self):
        for variance, max_lag in ((-1.0, 0), (np.nan, 0), (np.inf, 0), (1.0, -1)):
            with pytest.raises(ValueError):
                NoiseMomentModel.white(variance, max_lag=max_lag)

    @pytest.mark.parametrize("max_lag", [1.7, 1.0, np.float64(2.0)])
    def test_non_integral_max_lag_rejected(self, max_lag):
        with pytest.raises(TypeError, match="max_lag must be an integer"):
            NoiseMomentModel(1.0, max_lag)

    def test_numpy_integer_max_lag_accepted(self):
        model = NoiseMomentModel(1.0, np.int64(2))
        assert type(model.max_lag) is int and model.max_lag == 2


class TestExpectedKernel:
    def test_noise_free_kernel_unchanged(self):
        rng = np.random.default_rng(3)
        coeff = rng.standard_normal((2, 2))
        dual = DualVolterraKernel(input_degree=2, noise_degree=0, coefficients=coeff)
        reduced = expected_kernel(dual, NoiseMomentModel.white(1.0))
        np.testing.assert_array_equal(reduced.coefficients, coeff)

    def test_odd_noise_degree_gives_zero_kernel(self):
        rng = np.random.default_rng(4)
        dual = DualVolterraKernel(input_degree=1, noise_degree=1,
                                  coefficients=rng.standard_normal((2, 2)))
        reduced = expected_kernel(dual, NoiseMomentModel.white(1.0, max_lag=1))
        np.testing.assert_array_equal(reduced.coefficients, np.zeros(2))

    def test_white_contraction_closed_form(self):
        # m=1, n=2, white noise: reduced kernel is s2 * sum_j h(k, j, j).
        rng = np.random.default_rng(6)
        coeff = rng.standard_normal((3, 3, 3))
        dual = DualVolterraKernel(input_degree=1, noise_degree=2, coefficients=coeff)
        s2 = 1.7
        reduced = expected_kernel(dual, NoiseMomentModel.white(s2, max_lag=2))
        expected = s2 * np.einsum("kjj->k", coeff)
        np.testing.assert_allclose(reduced.coefficients, expected, rtol=1e-12)

    def test_white_contraction_monte_carlo(self):
        rng = np.random.default_rng(8)
        coeff = rng.standard_normal((2, 2, 2))
        dual = DualVolterraKernel(input_degree=1, noise_degree=2, coefficients=coeff)
        s2 = 0.5
        reduced = expected_kernel(dual, NoiseMomentModel.white(s2, max_lag=1))
        u = rng.standard_normal(12)
        predicted = evaluate_kernel(reduced, u)
        draws = 100_000
        nx = np.sqrt(s2) * rng.standard_normal((draws, 12))
        outputs = evaluate_dual_kernel(dual, u, nx)
        # Stacked draws must agree with one-draw calls bit for bit.
        for i in range(3):
            np.testing.assert_array_equal(outputs[i], evaluate_dual_kernel(dual, u, nx[i]))
        mean = outputs.mean(axis=0)
        std = outputs.std(axis=0)
        assert np.all(np.abs(mean - predicted) < 4.0 * std / np.sqrt(draws) + 1e-12)

    def test_multiplicative_noise_contracts_to_gain(self):
        # A u(t) * nx(t)^2 cross term averages to an additive gain s2 on u.
        coeff = np.zeros((1, 1, 1))
        coeff[0, 0, 0] = 0.3
        dual = DualVolterraKernel(input_degree=1, noise_degree=2, coefficients=coeff)
        s2 = 0.01
        reduced = expected_kernel(dual, NoiseMomentModel.white(s2))
        assert reduced.coefficients[0] == pytest.approx(0.3 * s2, rel=1e-14)
        u = np.random.default_rng(1).standard_normal(32)
        np.testing.assert_allclose(evaluate_kernel(reduced, u), 0.3 * s2 * u,
                                   rtol=1e-12)

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 2, 2, 2))
        b = rng.standard_normal((2, 2, 2, 2))
        model = NoiseMomentModel.white(0.7, max_lag=1)

        def reduce(c):
            return expected_kernel(
                DualVolterraKernel(input_degree=2, noise_degree=2, coefficients=c),
                model,
            ).coefficients

        np.testing.assert_allclose(reduce(2.0 * a + 0.5 * b),
                                   2.0 * reduce(a) + 0.5 * reduce(b), rtol=1e-12)

    def test_support_mismatch_rejected(self):
        dual = DualVolterraKernel(input_degree=0, noise_degree=2,
                                  coefficients=np.eye(3))
        with pytest.raises(ValueError, match="support"):
            expected_kernel(dual, NoiseMomentModel.white(1.0, max_lag=1))

    def test_monte_carlo_error_shrinks_with_draw_count(self):
        # The mean over K draws converges to the contracted-kernel output
        # with error shrinking like 1/sqrt(K) across three decades.
        rng = np.random.default_rng(23)
        kernel = DualVolterraKernel(input_degree=1, noise_degree=2,
                                    coefficients=rng.standard_normal((2, 2, 2)))
        s2 = 0.8
        model = NoiseMomentModel.white(s2, max_lag=1)
        u = rng.standard_normal(12)
        predicted = evaluate_kernel(expected_kernel(kernel, model), u)
        draws = 100_000
        nx = np.sqrt(s2) * rng.standard_normal((draws, 12))
        outputs = evaluate_dual_kernel(kernel, u, nx)
        errors = []
        for k in (1_000, 10_000, 100_000):
            mean = outputs[:k].mean(axis=0)
            errors.append(np.sqrt(np.mean((mean - predicted) ** 2)))
        assert errors[0] > errors[1] > errors[2]
        for bigger, smaller in zip(errors, errors[1:]):
            assert 1.3 < bigger / smaller < 8.0  # around sqrt(10) per decade


@st.composite
def kernels_with_models(draw):
    """A kernel with ``m + n <= 4``, some zero coefficients, and a noise model
    whose support covers its noise taps."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 4 - m))
    taps_u, taps_x = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = (taps_u,) * m + (taps_x,) * n
    values = st.floats(-2.0, 2.0) | st.just(0.0)
    size = math.prod(shape)
    coefficients = np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
    model = NoiseMomentModel.white(draw(st.floats(0.0, 2.0)), max_lag=taps_x - 1)
    return DualVolterraKernel(m, n, coefficients), model


class TestNoiseAveragedKernel:
    """The noise-averaged kernel is a kernel like any other."""

    @settings(max_examples=100, deadline=None)
    @given(pair=kernels_with_models(), data=st.data())
    def test_expected_kernel_is_a_kernel(self, pair, data):
        kernel, model = pair
        averaged = expected_kernel(kernel, model)
        assert averaged.noise_degree == 0
        assert averaged.input_degree == kernel.input_degree
        t_len = data.draw(st.integers(4, 12))
        sequence = st.lists(st.floats(-3.0, 3.0), min_size=t_len, max_size=t_len)
        u = np.array(data.draw(sequence))
        nx = np.array(data.draw(sequence))
        np.testing.assert_array_equal(evaluate_kernel(averaged, u),
                                      evaluate_dual_kernel(averaged, u, nx))
        step = VolterraPlant((averaged,)).stepper(1)
        stepped = np.array([step(a, b)[0] for a, b in zip(u, nx)])
        np.testing.assert_array_equal(stepped, brute_force_dual(averaged, u, nx, periodic=False))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_contraction_matches_dense_hypercube_bitwise(self, data):
        m = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(0, MAX_TOTAL_DEGREE - m))
        shape = (data.draw(st.integers(1, 3)),) * m + (data.draw(st.integers(1, 3)),) * n
        subnormals = st.sampled_from([5e-324, -5e-324, 1e-310, -1e-310])
        values = signed_zeros | subnormals | st.floats(-2.0, 2.0)
        size = math.prod(shape)
        coefficients = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
        kernel = DualVolterraKernel(m, n, coefficients.reshape(shape))
        variance = data.draw(st.floats(0.0, 2.0) | st.sampled_from([5e-324, 1e-160]))
        model = NoiseMomentModel.white(variance, max_lag=kernel.noise_max_lag)
        got = expected_kernel(kernel, model).coefficients
        want = dense_expected_kernel(kernel, model)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_evaluate_kernel_rejects_noise_taps(self):
        kernel = DualVolterraKernel(1, 1, np.ones((2, 2)))
        with pytest.raises(ValueError, match="noise degree 1"):
            evaluate_kernel(kernel, np.zeros(8))


@st.composite
def memo_calls(draw, t_len: int, pool_size: int):
    """A sequence of evaluator calls and in-place edits on a pool of inputs.

    Each step is ``("call", which, rows)``, with ``rows`` None for
    ``evaluate_kernel``, 0 for a 1-D ``nx`` and ``K`` for a ``(K, T)`` stack;
    ``("edit_u", which, sample, value)``, which changes a pool input in
    place; or ``("edit_out", sample, value)``, which changes the last
    returned array.
    """
    value = signed_zeros | st.floats(-3.0, 3.0)
    which = st.integers(0, pool_size - 1)
    sample = st.integers(0, t_len - 1)
    step = st.one_of(
        st.tuples(st.just("call"), which, st.none() | st.integers(0, 3)),
        st.tuples(st.just("edit_u"), which, sample, value),
        st.tuples(st.just("edit_out"), sample, value))
    return draw(st.lists(step, min_size=1, max_size=12))


class TestNoiseFreeMemo:
    """A kernel without noise taps runs its term table once per distinct ``u``."""

    @settings(max_examples=200, deadline=None)
    @given(kernel=signed_kernels().filter(lambda k: k.noise_degree == 0), data=st.data())
    def test_memoized_calls_match_a_fresh_kernel_bitwise(self, kernel, data):
        # The pool holds two inputs that differ only in the sign of one zero;
        # each call must give the bits a kernel with no memo gives.
        t_len = data.draw(st.integers(3, 8))
        base = data.draw(signed_sequences(t_len))
        plus, minus = base.copy(), base.copy()
        plus[0], minus[0] = 0.0, -0.0
        pool = [plus, minus, data.draw(signed_sequences(t_len))]
        last = None
        for step in data.draw(memo_calls(t_len, len(pool))):
            if step[0] == "edit_u":
                pool[step[1]][step[2]] = step[3]
                continue
            if step[0] == "edit_out":
                if last is not None:
                    last.reshape(-1)[step[1]] = step[2]
                continue
            u, rows = pool[step[1]], step[2]
            fresh = DualVolterraKernel(kernel.input_degree, 0, kernel.coefficients)
            if rows is None:
                got, want = evaluate_kernel(kernel, u), evaluate_kernel(fresh, u.copy())
            else:
                nx = data.draw(signed_sequences(max(rows, 1) * t_len))
                nx = nx.reshape(rows, t_len) if rows else nx
                got = evaluate_dual_kernel(kernel, u, nx)
                want = evaluate_dual_kernel(fresh, u.copy(), nx)
            assert got.shape == want.shape and got.flags.writeable
            assert got.tobytes() == want.tobytes()
            last = got

    def test_term_loop_runs_once_for_one_input(self, monkeypatch):
        calls = []
        sum_terms = volterra._sum_terms

        def counted(kernel, u, nx):
            calls.append(kernel)
            return sum_terms(kernel, u, nx)

        monkeypatch.setattr(volterra, "_sum_terms", counted)
        rng = np.random.default_rng(41)
        kernel = DualVolterraKernel(3, 0, rng.standard_normal((2, 2, 2)))
        u = rng.standard_normal(16)
        outputs = {evaluate_dual_kernel(kernel, u, rng.standard_normal(16)).tobytes()
                   for _ in range(1000)}
        assert len(calls) == 1 and len(outputs) == 1
        assert evaluate_kernel(kernel, u).tobytes() in outputs
        assert len(calls) == 1

    def test_term_loop_reruns_for_new_bits(self, monkeypatch):
        # The key is u's bytes: a copy hits, a signed zero and an in-place
        # change miss.
        calls = []
        sum_terms = volterra._sum_terms
        monkeypatch.setattr(volterra, "_sum_terms",
                            lambda *args: calls.append(1) or sum_terms(*args))
        kernel = DualVolterraKernel(2, 0, np.ones((2, 2)))
        u = np.array([0.0, 1.0, 2.0, 3.0])
        flipped = u.copy()
        flipped[0] = -0.0
        counts = []
        for x in (u, u.copy(), flipped, u):
            evaluate_kernel(kernel, x)
            counts.append(len(calls))
        u[1] = 5.0
        evaluate_dual_kernel(kernel, u, np.zeros((3, 4)))
        assert counts + [len(calls)] == [1, 1, 2, 3, 4]

    def test_memo_not_in_repr_or_equality(self):
        kernel = DualVolterraKernel(1, 0, np.array([0.5, 0.25]))
        before = repr(kernel), hash(kernel)
        kept = {kernel}
        evaluate_kernel(kernel, np.arange(4.0))
        assert kernel._memo is not None
        assert (repr(kernel), hash(kernel)) == before and kernel in kept
        memo = next(f for f in dataclasses.fields(kernel) if f.name == "_memo")
        assert not (memo.init or memo.repr or memo.compare)

    def test_errors_raised_before_the_memo(self):
        kernel = DualVolterraKernel(2, 0, np.ones((3, 3)))
        u = np.arange(8.0)
        evaluate_kernel(kernel, u)
        with pytest.raises(ValueError, match="length"):
            evaluate_dual_kernel(kernel, u, np.zeros((2, 9)))
        with pytest.raises(ValueError, match="share one length"):
            evaluate_dual_kernel(kernel, u.reshape(2, 4), np.zeros(8))
        with pytest.raises(ValueError, match="shorter"):
            evaluate_kernel(kernel, u[:2])


def gathered_lags(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Lag rows ``x(t - l)``, lag axis first, by a modular-index gather."""
    t_len = x.shape[-1]
    index = np.arange(t_len) - np.arange(max_lag + 1)[:, None]
    return x[..., index].swapaxes(0, -2)


class TestLagged:
    """Lag windows taken as slices hold the bits of the gathered rows."""

    @settings(max_examples=200, deadline=None)
    @given(max_lag=st.integers(0, 8), stacked=st.booleans(), data=st.data())
    def test_matches_gathered_rows_bitwise(self, max_lag, stacked, data):
        t_len = data.draw(st.integers(max_lag + 1, 12))
        shape = (data.draw(st.integers(1, 3)), t_len) if stacked else (t_len,)
        values = st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0)
        size = math.prod(shape)
        x = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
        got = np.stack(_lagged(x, max_lag))
        want = gathered_lags(x, max_lag)
        assert got.shape == want.shape == (max_lag + 1,) + shape
        assert got.tobytes() == want.tobytes()
