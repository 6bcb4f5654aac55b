from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blakit.analytic import (
    GaussianInputModel,
    analytic_hammerstein_bla,
    decompose_output,
    predict_variances,
)
from blakit.estimator import (
    BlaEstimate,
    ExperimentRecord,
    read_bla_csv,
    read_bundle_manifest,
    read_record_bundle,
    robust_bla,
    robust_bla_closed_loop,
    write_bla_csv,
    write_record_bundle,
)
from blakit.signals import (
    MultisineSpec,
    derive_rng,
    dft,
    generate_multisine,
    generate_noise,
    period_spectra,
)
from blakit.systems import (
    ClosedLoopConfig,
    HammersteinPlant,
    HammersteinSimulator,
    PolynomialNonlinearity,
    RationalLTI,
    simulate_closed_loop_batch,
)

CUBIC = PolynomialNonlinearity(coefficients=[1.0, 0.0, 0.1])
DYNAMICS = RationalLTI(b=[0.25, 0.2], a=[1.0, -1.1, 0.46])


def hand_robust(u, y):
    """Loop transcription of the averaging and variance formulas."""
    m_count, p_count, n_bins = y.shape
    g_mp = np.empty((m_count, p_count, n_bins), dtype=complex)
    for m in range(m_count):
        for p in range(p_count):
            g_mp[m, p] = y[m, p] / u[m]
    g_m = g_mp.mean(axis=1)
    g = g_m.mean(axis=0)
    var_n = np.zeros(n_bins)
    var_t = np.zeros(n_bins)
    for m in range(m_count):
        var_t += np.abs(g - g_m[m]) ** 2
        for p in range(p_count):
            var_n += np.abs(g_m[m] - g_mp[m, p]) ** 2
    var_n /= m_count ** 2 * p_count * (p_count - 1)
    var_t /= m_count * (m_count - 1)
    return g, var_n, var_t


def hand_indirect(r, u_pp, y):
    """Loop transcription of ``G_yr / G_ur`` and of the variances of its
    per-period ratios, linearized around it, through ``hand_robust``."""
    m_count, p_count, n_bins = y.shape
    g_yr = np.zeros(n_bins, dtype=complex)
    g_ur = np.zeros(n_bins, dtype=complex)
    for m in range(m_count):
        for p in range(p_count):
            g_yr += y[m, p] / r[m] / (m_count * p_count)
            g_ur += u_pp[m, p] / r[m] / (m_count * p_count)
    g = g_yr / g_ur
    g_mp = np.empty((m_count, p_count, n_bins), dtype=complex)
    for m in range(m_count):
        for p in range(p_count):
            g_mp[m, p] = (y[m, p] / r[m] - g * (u_pp[m, p] / r[m] - g_ur)) / g_ur
    _, var_n, var_t = hand_robust(np.ones((m_count, n_bins)), g_mp)
    return g, var_n, var_t


def synthetic_record(g_bins, m_count, p_count, noise_power, rng, n=None):
    """Frequency-domain record: Y = G U + complex noise of given per-bin power."""
    n = g_bins.size if n is None else n
    bins = np.arange(1, n // 2)
    u = np.zeros((m_count, n // 2 + 1), dtype=complex)
    y = np.zeros((m_count, p_count, n // 2 + 1), dtype=complex)
    for m in range(m_count):
        u[m, bins] = np.exp(2j * np.pi * rng.random(bins.size))
        for p in range(p_count):
            noise = (rng.standard_normal(bins.size)
                     + 1j * rng.standard_normal(bins.size)) * np.sqrt(noise_power / 2.0)
            y[m, p, bins] = g_bins[bins] * u[m, bins] + noise
    return ExperimentRecord(
        input_spectra=u, output_spectra=y, excited_bins=bins,
        samples_per_period=n, sampling_frequency=1.0,
    )


class TestRobustBla:
    def test_matches_hand_computation(self):
        rng = np.random.default_rng(0)
        m_count, p_count, n = 3, 4, 16
        bins = np.arange(1, 8)
        half = n // 2 + 1
        u = (rng.standard_normal((m_count, n))
             + 1j * rng.standard_normal((m_count, n)))[:, :half]
        y = (rng.standard_normal((m_count, p_count, n))
             + 1j * rng.standard_normal((m_count, p_count, n)))[:, :, :half]
        record = ExperimentRecord(input_spectra=u, output_spectra=y, excited_bins=bins,
                                  samples_per_period=n, sampling_frequency=1.0)
        est = robust_bla(record)
        g, var_n, var_t = hand_robust(u[:, bins], y[:, :, bins])
        np.testing.assert_allclose(est.g_bla, g, rtol=1e-12)
        np.testing.assert_allclose(est.var_noise, var_n, rtol=1e-12)
        np.testing.assert_allclose(est.var_total, var_t, rtol=1e-12)

    def test_noiseless_linear_is_exact_with_zero_variances(self):
        rng = np.random.default_rng(1)
        n = 32
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        record = synthetic_record(g, m_count=4, p_count=3, noise_power=0.0, rng=rng)
        est = robust_bla(record)
        np.testing.assert_allclose(est.g_bla, g[record.excited_bins], rtol=1e-12)
        # Noise-free variances vanish to round-off (period averaging leaves
        # ~1e-17 per-value rounding, squared).
        assert np.all(est.var_noise < 1e-30)
        assert np.all(est.var_total < 1e-28)

    def test_zero_input_bin_marked_undefined(self):
        rng = np.random.default_rng(2)
        n = 16
        g = np.ones(n, dtype=complex)
        record = synthetic_record(g, m_count=2, p_count=2, noise_power=0.0, rng=rng)
        u = record.input_spectra.copy()
        u[:, 3] = 0.0
        broken = ExperimentRecord(
            input_spectra=u, output_spectra=record.output_spectra,
            excited_bins=record.excited_bins, samples_per_period=n,
            sampling_frequency=1.0)
        est = robust_bla(broken)
        k = np.where(record.excited_bins == 3)[0][0]
        assert not est.defined[k]
        assert np.isnan(est.g_bla[k].real) and np.isnan(est.var_total[k])
        assert est.defined.sum() == record.excited_bins.size - 1

    def test_rejects_too_few_realizations_or_periods(self):
        rng = np.random.default_rng(3)
        record = synthetic_record(np.ones(8, complex), 1, 2, 0.0, rng)
        with pytest.raises(ValueError, match="M >= 2"):
            robust_bla(record)
        record = synthetic_record(np.ones(8, complex), 2, 1, 0.0, rng)
        with pytest.raises(ValueError, match="M >= 2"):
            robust_bla(record)

    def test_output_noise_variance_expectation(self):
        # Linear plant, white output noise: E{var_noise} = s2/(M P |U|^2) and,
        # with no distortion, E{var_total} matches the same level.
        rng = np.random.default_rng(4)
        n, m_count, p_count, s2 = 32, 10, 2, 0.25
        g = np.ones(n, dtype=complex)
        reps = 200
        acc_n = 0.0
        acc_t = 0.0
        for _ in range(reps):
            record = synthetic_record(g, m_count, p_count, s2, rng)
            est = robust_bla(record)
            acc_n += est.var_noise.mean()
            acc_t += est.var_total.mean()
        expected = s2 / (m_count * p_count)  # |U| = 1 at every excited bin
        assert acc_n / reps == pytest.approx(expected, rel=0.05)
        assert acc_t / reps == pytest.approx(expected, rel=0.05)

    def test_per_bin_least_squares_optimality(self):
        # With realization-independent |U| the averaged ratio is the per-bin
        # least-squares minimizer; any perturbation strictly increases the cost.
        rng = np.random.default_rng(5)
        n = 16
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        record = synthetic_record(g, m_count=6, p_count=2, noise_power=0.3, rng=rng)
        est = robust_bla(record)
        bins = record.excited_bins
        u_m = record.input_spectra[:, bins]
        y_m = record.output_spectra[:, :, bins].mean(axis=1)
        ls = (y_m * np.conj(u_m)).sum(axis=0) / (np.abs(u_m) ** 2).sum(axis=0)
        np.testing.assert_allclose(est.g_bla, ls, rtol=1e-10)

        def cost(g_value, k):
            return np.sum(np.abs(y_m[:, k] - g_value * u_m[:, k]) ** 2)

        for k in (0, 3, 5):
            base = cost(est.g_bla[k], k)
            for delta in (1e-3, 1e-3j, -2e-2, 1e-2 - 1e-2j):
                assert cost(est.g_bla[k] + delta, k) > base


@st.composite
def noisy_spectra(draw):
    """Half-grid record spectra: ``R`` of one amplitude per bin across
    realizations, a per-bin input gain ``c`` (so ``U_m = c R_m`` in every
    period) and outputs ``Y = G U`` plus period-to-period noise."""
    m_count, p_count = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    n = draw(st.integers(6, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    half = n // 2 + 1
    amplitude = rng.uniform(0.1, 10.0, half)
    r = amplitude * np.exp(2j * np.pi * rng.random((m_count, half)))
    c = rng.uniform(0.1, 10.0, half) * np.exp(2j * np.pi * rng.random(half))
    g = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    noise = draw(st.floats(0.01, 1.0)) * (rng.standard_normal((m_count, p_count, half))
                                           + 1j * rng.standard_normal((m_count, p_count, half)))
    y = (g * c * r)[:, None, :] * (1.0 + noise)
    return n, np.arange(1, (n + 1) // 2), r, c * r, y


def assert_round_off(got, want, scale):
    """``got`` equals ``want`` bin for bin to 1e-14 (about 45 ulps) of ``scale``:
    the round-off of sums and differences of numbers as large as ``scale``."""
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(spectra=noisy_spectra(),
           factor=st.floats(1e-3, 1e3), phase=st.floats(0.0, 2 * np.pi))
    def test_robust_bla_scaling_law(self, spectra, factor, phase):
        # Y -> cY gives g -> c g and both variances -> |c|^2 variances.
        n, bins, _, u, y = spectra
        c = factor * np.exp(1j * phase)
        ratio = np.abs(y[:, :, bins] / u[:, None, bins]).max(axis=(0, 1))  # largest |g_mp|
        record = ExperimentRecord(input_spectra=u, output_spectra=y, excited_bins=bins,
                                  samples_per_period=n, sampling_frequency=1.0)
        scaled = ExperimentRecord(input_spectra=u, output_spectra=c * y, excited_bins=bins,
                                  samples_per_period=n, sampling_frequency=1.0)
        a, b = robust_bla(record), robust_bla(scaled)
        assert_round_off(b.g_bla, c * a.g_bla, factor * ratio)
        assert_round_off(b.var_noise, factor ** 2 * a.var_noise, (factor * ratio) ** 2)
        assert_round_off(b.var_total, factor ** 2 * a.var_total, (factor * ratio) ** 2)

    @settings(max_examples=100, deadline=None)
    @given(spectra=noisy_spectra())
    def test_closed_loop_reduces_to_open_loop(self, spectra):
        # With U_m = c R_m in every period and |R_m| the same for every m,
        # the indirect estimator equals the open-loop one bin for bin, up to
        # the round-off of forming |R|^2 and the means.
        n, bins, r, u, y = spectra
        p_count = y.shape[1]
        ratio = np.abs(y[:, :, bins] / u[:, None, bins]).max(axis=(0, 1))  # largest |g_mp|
        open_record = ExperimentRecord(input_spectra=u, output_spectra=y, excited_bins=bins,
                                       samples_per_period=n, sampling_frequency=1.0)
        closed_record = ExperimentRecord(
            input_spectra=u, output_spectra=y, excited_bins=bins, samples_per_period=n,
            sampling_frequency=1.0, reference_spectra=r,
            input_spectra_per_period=np.repeat(u[:, None, :], p_count, axis=1))
        a, b = robust_bla(open_record), robust_bla(closed_record)
        assert_round_off(b.g_bla, a.g_bla, ratio)
        assert_round_off(b.var_noise, a.var_noise, ratio ** 2)
        assert_round_off(b.var_total, a.var_total, ratio ** 2)


class TestClosedLoopRobust:
    def test_requires_reference_and_per_period_input(self):
        # A closed-loop record holds both of its fields or neither.
        rng = np.random.default_rng(6)
        record = synthetic_record(np.ones(8, complex), 2, 2, 0.0, rng)
        u_pp = np.repeat(record.input_spectra[:, None, :], 2, axis=1)
        for only in (dict(reference_spectra=record.input_spectra),
                     dict(input_spectra_per_period=u_pp)):
            with pytest.raises(ValueError, match="both reference_spectra"):
                ExperimentRecord(
                    input_spectra=record.input_spectra, output_spectra=record.output_spectra,
                    excited_bins=record.excited_bins, samples_per_period=8,
                    sampling_frequency=1.0, **only)

    def test_needs_a_reference(self):
        # An open-loop record's reference is its input; a closed-loop one
        # needs no input_spectra.
        rng = np.random.default_rng(7)
        record = synthetic_record(np.ones(8, complex), 2, 2, 0.0, rng)
        common = dict(output_spectra=record.output_spectra, excited_bins=record.excited_bins,
                      samples_per_period=8, sampling_frequency=1.0)
        with pytest.raises(ValueError, match="open-loop record needs input_spectra"):
            ExperimentRecord(**common)
        u_pp = np.repeat(record.input_spectra[:, None, :], 2, axis=1)
        closed = ExperimentRecord(**common, reference_spectra=record.input_spectra,
                                  input_spectra_per_period=u_pp)
        assert closed.input_spectra is None and closed.realization_count == 2
        np.testing.assert_array_equal(robust_bla(closed).g_bla, robust_bla(record).g_bla)

    def test_one_estimator_for_both_loops(self):
        assert robust_bla_closed_loop is robust_bla

    def test_matches_hand_computation_with_unequal_reference_amplitudes(self):
        # G_yr / G_ur weights every realization equally, whatever its |R_m|:
        # the cross-spectral ratio mean(Y conj R) / mean(U conj R) would weight
        # realization m by |R_m|^2 and differs here.
        rng = np.random.default_rng(10)
        m_count, p_count, n = 4, 3, 16
        bins = np.arange(1, 8)
        half = n // 2 + 1

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        r = draw(m_count, half) * rng.uniform(0.1, 10.0, (m_count, 1))
        u_pp = draw(m_count, p_count, half)
        y = draw(m_count, p_count, half)
        record = ExperimentRecord(
            input_spectra=u_pp.mean(axis=1), output_spectra=y, excited_bins=bins,
            samples_per_period=n, sampling_frequency=1.0,
            reference_spectra=r, input_spectra_per_period=u_pp)
        est = robust_bla(record)
        g, var_n, var_t = hand_indirect(r[:, bins], u_pp[:, :, bins], y[:, :, bins])
        np.testing.assert_allclose(est.g_bla, g, rtol=1e-12)
        np.testing.assert_allclose(est.var_noise, var_n, rtol=1e-12)
        np.testing.assert_allclose(est.var_total, var_t, rtol=1e-12)
        y_r, u_r = ((x[:, :, bins] * np.conj(r[:, None, bins])).mean(axis=(0, 1))
                    for x in (y, u_pp))
        weighted = y_r / u_r
        assert np.all(np.abs(est.g_bla - weighted) > 1e-6 * np.abs(weighted))

    def test_linear_noiseless_synthetic_exact(self):
        rng = np.random.default_rng(7)
        n = 32
        bins = np.arange(1, n // 2)
        half = n // 2 + 1
        g = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:half]
        act = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:half]
        m_count, p_count = 3, 2
        r = np.zeros((m_count, half), complex)
        u_pp = np.zeros((m_count, p_count, half), complex)
        y = np.zeros((m_count, p_count, half), complex)
        for m in range(m_count):
            r[m, bins] = np.exp(2j * np.pi * rng.random(bins.size))
            for p in range(p_count):
                u_pp[m, p] = act * r[m]
                y[m, p] = g * u_pp[m, p]
        record = ExperimentRecord(
            input_spectra=u_pp.mean(axis=1), output_spectra=y, excited_bins=bins,
            samples_per_period=n, sampling_frequency=1.0,
            reference_spectra=r, input_spectra_per_period=u_pp)
        est = robust_bla(record)
        np.testing.assert_allclose(est.g_bla, g[bins], rtol=1e-12)
        np.testing.assert_allclose(est.var_noise, 0.0, atol=1e-25)
        np.testing.assert_allclose(est.var_total, 0.0, atol=1e-25)

    def test_reference_equal_to_input_degenerates_to_open_loop(self):
        # Period-constant input and R = U make the indirect ratios equal the
        # direct ones bin for bin, variances included.
        rng = np.random.default_rng(8)
        n = 24
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        open_record = synthetic_record(g, m_count=4, p_count=3, noise_power=0.2,
                                       rng=rng)
        u = open_record.input_spectra
        u_pp = np.repeat(u[:, None, :], 3, axis=1)
        closed_record = ExperimentRecord(
            input_spectra=u, output_spectra=open_record.output_spectra,
            excited_bins=open_record.excited_bins, samples_per_period=n,
            sampling_frequency=1.0, reference_spectra=u,
            input_spectra_per_period=u_pp)
        a = robust_bla(open_record)
        b = robust_bla(closed_record)
        np.testing.assert_allclose(b.g_bla, a.g_bla, rtol=1e-12)
        np.testing.assert_allclose(b.var_noise, a.var_noise, rtol=1e-12)
        np.testing.assert_allclose(b.var_total, a.var_total, rtol=1e-12)

    def test_zero_reference_bin_undefined(self):
        rng = np.random.default_rng(9)
        n = 16
        bins = np.arange(1, 8)
        r = np.ones((2, n // 2 + 1), complex)
        r[:, 2] = 0.0
        u_pp = np.ones((2, 2, n // 2 + 1), complex)
        y = np.ones((2, 2, n // 2 + 1), complex)
        record = ExperimentRecord(
            input_spectra=u_pp.mean(axis=1), output_spectra=y, excited_bins=bins,
            samples_per_period=n, sampling_frequency=1.0,
            reference_spectra=r, input_spectra_per_period=u_pp)
        est = robust_bla(record)
        k = np.where(bins == 2)[0][0]
        assert not est.defined[k]
        assert est.defined.sum() == bins.size - 1

    def test_indirect_beats_naive_ratio_under_process_noise(self):
        # Process noise circulates through the feedback, so the per-period
        # Y/U ratio is persistently biased; the reference-projected estimate
        # stays consistent because the reference is noise independent.
        n, p_count, m_count = 256, 4, 32
        spec = MultisineSpec.flat(n, 1.0, np.arange(1, n // 2), rms=1.0)
        plant_lti = RationalLTI(b=[0.6, 0.3], a=[1.0, -0.4])
        config = ClosedLoopConfig(
            plant=HammersteinPlant(plant_lti, PolynomialNonlinearity.identity()),
            actuator=RationalLTI(b=[0.9], a=[1.0, -0.3]),
            feedback=RationalLTI(b=[0.0, 0.7]),
            process_noise_variance=2.0,
        )
        refs = [generate_multisine(spec, derive_rng(11, "r", m)).tile(p_count)
                for m in range(m_count)]
        records = simulate_closed_loop_batch(config, refs, seed=11)
        bins = np.arange(1, n // 2)
        r = np.stack([dft(rec.reference).bins for rec in records])
        u_pp = np.stack([
            np.stack([dft(rec.input_measured, period=p).bins for p in range(p_count)])
            for rec in records])
        y_pp = np.stack([
            np.stack([dft(rec.output_measured, period=p).bins for p in range(p_count)])
            for rec in records])
        record = ExperimentRecord(
            input_spectra=u_pp.mean(axis=1), output_spectra=y_pp, excited_bins=bins,
            samples_per_period=n, sampling_frequency=1.0,
            reference_spectra=r, input_spectra_per_period=u_pp)
        g_true = plant_lti.bin_response(n)[bins]
        indirect = robust_bla(record).g_bla
        naive = (y_pp[:, :, bins] / u_pp[:, :, bins]).mean(axis=(0, 1))
        err_indirect = np.sqrt(np.mean(np.abs(indirect - g_true) ** 2))
        err_naive = np.sqrt(np.mean(np.abs(naive - g_true) ** 2))
        assert err_naive > 3.0 * err_indirect


class TestDecomposition:
    @staticmethod
    def make_sim(process_var=0.01, output_var=0.0009):
        return HammersteinSimulator(DYNAMICS, CUBIC, process_var, output_var)

    @staticmethod
    def make_input(n=512, periods=2, seed=21):
        spec = MultisineSpec.flat(n, 1.0, np.arange(1, n // 2), rms=1.0)
        return generate_multisine(spec, seed=seed).tile(periods)

    def analytic_g(self, process_var):
        model = GaussianInputModel(1.0, process_var)
        return analytic_hammerstein_bla(DYNAMICS, CUBIC, model, 512)

    def test_reconstruction_is_exact(self, split_output):
        u = self.make_input()
        dec = split_output(self.make_sim(), u, self.analytic_g(0.01), seed=1)
        rebuilt = dec.y_bla + dec.y_nonlinear + dec.y_process + dec.y_output_noise
        np.testing.assert_allclose(rebuilt, dec.y_total, atol=1e-12)

    def test_without_process_noise_y_process_vanishes(self, split_output):
        u = self.make_input()
        dec = split_output(self.make_sim(process_var=0.0), u, self.analytic_g(0.0), seed=2)
        assert np.abs(dec.y_process).max() < 1e-12

    def test_identity_nonlinearity_gives_zero_distortion(self, split_output):
        sim = HammersteinSimulator(DYNAMICS, PolynomialNonlinearity.identity(),
                                   0.0, 0.0009)
        u = self.make_input()
        g = DYNAMICS.bin_response(512)
        dec = split_output(sim, u, g, seed=3)
        assert np.abs(dec.y_nonlinear).max() < 1e-12
        assert np.abs(dec.y_process).max() < 1e-12
        np.testing.assert_allclose(dec.y_output_noise, dec.y_total - dec.y_bla,
                                   atol=1e-12)

    def test_distortion_matches_closed_form(self, split_output):
        # The noise average is exact, so the distortion is S[0.1 u^3 - 0.3 u]
        # (the unit-RMS multisine's u has variance exactly 1) to round-off.
        process_var = 0.01
        u = self.make_input()
        dec = split_output(self.make_sim(process_var), u,
                           self.analytic_g(process_var), seed=4)
        inner = 0.1 * u.samples ** 3 - 0.3 * u.samples
        n = u.samples_per_period
        predicted = np.tile(DYNAMICS.filter(inner[:n]), u.period_count)
        rms = np.sqrt(np.mean(predicted ** 2))
        assert np.sqrt(np.mean((dec.y_nonlinear - predicted) ** 2)) < 1e-12 * rms

    def test_simulates_nothing(self, monkeypatch, split_output):
        # The distortion spectrum is the split's y_nonlinear, squared per bin,
        # bit for bit, with no run of the plant.
        u = self.make_input()
        sim, g = self.make_sim(), self.analytic_g(0.01)
        y_nonlinear = split_output(sim, u, g, seed=1).y_nonlinear
        monkeypatch.setattr(HammersteinSimulator, "run", lambda *args: pytest.fail("ran"))
        var_nonlinear, _, _ = decompose_output(sim, u, g)
        want = (np.abs(period_spectra(y_nonlinear, 512)) ** 2).mean(axis=0)
        assert var_nonlinear.tobytes() == want.tobytes()

    def test_variance_spectra_scales(self):
        process_var = 0.01
        output_var = 0.0009
        u = self.make_input()
        _, var_process, var_noise = decompose_output(self.make_sim(process_var, output_var), u,
                                                     self.analytic_g(process_var))
        n = u.samples_per_period
        bins = np.arange(1, n // 2)
        # White output noise: the exact flat spectrum at the noise variance.
        assert np.array_equal(var_noise, np.full(n // 2 + 1, output_var))
        # Process contribution rides through the dynamics: compare band shape.
        shape = np.abs(DYNAMICS.bin_response(n)[bins]) ** 2
        ratio = var_process[bins] / shape
        smooth = np.convolve(ratio, np.ones(32) / 32, mode="valid")
        assert smooth.max() / smooth.min() < 2.0

    @pytest.mark.parametrize("n", [4, 5, 64, 255])
    def test_exact_noise_spectrum_matches_white_noise_ensemble(self, n):
        # The ensemble the decomposition does not draw: fresh white output
        # noise, its per-bin sample variance over the draws, agrees with the
        # exact var_noise within 6 standard errors over the interior bins, at
        # DC and at Nyquist (even N).  (K-1) s^2 is (var/2) chi^2(2(K-1)) in
        # an interior bin and var chi^2(K-1) in a real one.
        output_var, draws = 0.0009, 4000
        spec = MultisineSpec.flat(n, 1.0, np.arange(1, (n + 1) // 2), rms=1.0)
        u = generate_multisine(spec, seed=n).tile(2)
        _, _, var_noise = decompose_output(self.make_sim(0.0, output_var), u,
                                           DYNAMICS.bin_response(n))
        noise = np.concatenate([generate_noise(output_var, n, derive_rng(n, "white", j))
                                for j in range(draws)])
        estimate = np.var(period_spectra(noise, n), axis=0, ddof=1)
        interior = np.arange(1, (n + 1) // 2)
        real_bins = [0] if n % 2 else [0, n // 2]
        assert (abs(estimate[interior].mean() - var_noise[interior].mean())
                < 6 * output_var / np.sqrt((draws - 1) * interior.size))
        assert np.all(np.abs(estimate[real_bins] - var_noise[real_bins])
                      < 6 * output_var * np.sqrt(2 / (draws - 1)))


class TestPredictVariances:
    def test_all_zero(self):
        pred_n, pred_t = predict_variances(0.0, 0.0, 0.0, 4.0, 10, 2)
        assert pred_n == 0.0 and pred_t == 0.0

    def test_reference_arithmetic(self):
        pred_n, pred_t = predict_variances(1.0, 3.0, 2.0, 4.0, 10, 2)
        assert pred_n == pytest.approx(0.05)
        assert pred_t == pytest.approx(0.1)

    def test_no_distortion_makes_predictions_coincide(self):
        pred_n, pred_t = predict_variances(0.5, 0.25, 0.0, 2.0, 8, 4)
        assert pred_n == pred_t

    def test_zero_power_is_undefined(self):
        pred_n, pred_t = predict_variances(
            np.ones(3), np.ones(3), np.ones(3), np.array([1.0, 0.0, 2.0]), 4, 2)
        assert np.isnan(pred_n[1]) and np.isnan(pred_t[1])
        assert np.isfinite(pred_n[0]) and np.isfinite(pred_t[2])

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            predict_variances(-1.0, 0.0, 0.0, 1.0, 2, 2)

    @pytest.mark.parametrize("position", range(4))
    def test_nan_spectrum_rejected(self, position):
        # NaN passes a "< 0" check; it must be refused like a negative value.
        args = [1.0, 1.0, 1.0, np.array([1.0, 2.0])]
        args[position] = np.array([1.0, np.nan])
        with pytest.raises(ValueError, match="not NaN"):
            predict_variances(*args, 4, 2)

    @pytest.mark.parametrize("counts", [(0, 2), (4, 0), (-1, 2)])
    def test_counts_below_one_rejected(self, counts):
        with pytest.raises(ValueError, match="must be >= 1"):
            predict_variances(1.0, 1.0, 1.0, 1.0, *counts)


class TestUnbiasedness:
    def test_monte_carlo_mean_matches_analytic(self):
        # Small-scale version of the flagship check: with process noise on,
        # the estimate averages to the analytic response at every bin.
        n, m_count, p_count, reps = 256, 4, 2, 60
        spec = MultisineSpec.flat(n, 1.0, np.arange(1, n // 2), rms=1.0)
        sim = HammersteinSimulator(DYNAMICS, CUBIC, 0.01, 0.0009)
        bins = np.arange(1, n // 2)
        acc = np.zeros(bins.size, dtype=complex)
        acc2 = np.zeros(bins.size)
        for rep in range(reps):
            u_specs = np.zeros((m_count, n // 2 + 1), complex)
            y_specs = np.zeros((m_count, p_count, n // 2 + 1), complex)
            for m in range(m_count):
                u = generate_multisine(spec, derive_rng(17, "u", rep, m))
                rec = sim.run(u.tile(p_count),
                              process_noise_rng=derive_rng(17, "nx", rep, m),
                              output_noise_rng=derive_rng(17, "ny", rep, m))
                u_specs[m] = dft(u).bins
                for p in range(p_count):
                    y_specs[m, p] = dft(rec.output, period=p).bins
            record = ExperimentRecord(
                input_spectra=u_specs, output_spectra=y_specs, excited_bins=bins,
                samples_per_period=n, sampling_frequency=1.0)
            est = robust_bla(record)
            acc += est.g_bla
            acc2 += np.abs(est.g_bla) ** 2
        mean_g = acc / reps
        std_g = np.sqrt(np.maximum(acc2 / reps - np.abs(mean_g) ** 2, 0.0))
        g_ref = analytic_hammerstein_bla(DYNAMICS, CUBIC,
                                         GaussianInputModel(1.0, 0.01), n)[bins]
        err = np.abs(mean_g - g_ref)
        band = 4.0 * std_g / np.sqrt(reps)
        assert (err < band).mean() > 0.98


class TestSerialization:
    def test_bla_csv_round_trip(self, tmp_path):
        est = BlaEstimate(
            excited_bins=np.array([1, 2, 5]),
            g_bla=np.array([1 + 2j, complex(np.nan, np.nan), -0.5j]),
            var_noise=np.array([0.1, np.nan, 0.3]),
            var_total=np.array([0.2, np.nan, 0.5]),
            realization_count=4, period_count=2,
            samples_per_period=16, sampling_frequency=2.0)
        path = tmp_path / "bla.csv"
        write_bla_csv(path, est)
        back = read_bla_csv(path)
        np.testing.assert_array_equal(back.excited_bins, est.excited_bins)
        np.testing.assert_array_equal(back.defined, [True, False, True])
        assert back.g_bla[0] == est.g_bla[0]
        assert back.var_total[2] == est.var_total[2]

    def test_open_loop_bundle_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        record = synthetic_record(np.ones(16, complex), 3, 2, 0.1, rng)
        write_record_bundle(tmp_path / "bundle", record)
        bundle = tmp_path / "bundle"
        assert sorted(p.name for p in bundle.iterdir()) == [
            "input_spectra.csv", "manifest.json", "output_spectra.csv"]
        header = (bundle / "output_spectra.csv").read_text().splitlines()[0]
        assert header == ("bin_index,frequency_hz," + ",".join(
            f"m{m:03d}_p{p:02d}_{part}" for m in range(3) for p in range(2)
            for part in ("real", "imag")))
        back = read_record_bundle(bundle, read_bundle_manifest(bundle))
        np.testing.assert_array_equal(back.input_spectra, record.input_spectra)
        np.testing.assert_array_equal(back.output_spectra, record.output_spectra)
        np.testing.assert_array_equal(back.excited_bins, record.excited_bins)
        assert back.reference_spectra is None

    def test_closed_loop_bundle_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        base = synthetic_record(np.ones(16, complex), 2, 2, 0.1, rng)
        u_pp = np.repeat(base.input_spectra[:, None, :], 2, axis=1)
        record = ExperimentRecord(
            input_spectra=base.input_spectra, output_spectra=base.output_spectra,
            excited_bins=base.excited_bins, samples_per_period=16,
            sampling_frequency=1.0, reference_spectra=base.input_spectra,
            input_spectra_per_period=u_pp)
        write_record_bundle(tmp_path / "bundle", record)
        bundle = tmp_path / "bundle"
        # The closed loop's reference is R, not U: the bundle holds no input_spectra.
        assert sorted(p.name for p in bundle.iterdir()) == [
            "input_spectra_per_period.csv", "manifest.json", "output_spectra.csv",
            "reference_spectra.csv"]
        back = read_record_bundle(bundle, read_bundle_manifest(bundle))
        np.testing.assert_array_equal(back.reference_spectra, record.reference_spectra)
        np.testing.assert_array_equal(back.input_spectra_per_period, u_pp)
        np.testing.assert_array_equal(back.output_spectra, record.output_spectra)
        assert back.input_spectra is None

    EDGES = [-0.0, 5e-324, -2.5e-310, np.inf, -np.inf, 1e308, 0.1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), closed=st.booleans(), m_count=st.integers(1, 3),
           p_count=st.integers(1, 3), n=st.integers(2, 12),
           fs=st.floats(min_value=1e-3, max_value=1e6))
    def test_bundle_round_trip_is_bit_exact(self, tmp_path_factory, data, closed, m_count,
                                            p_count, n, fs):
        # Every finite or infinite value, signed zeros and subnormals included,
        # reads back bit for bit in either loop, and the record read back
        # writes the same bytes again.
        half = n // 2 + 1

        def spectra(*shape):
            size = 2 * half * int(np.prod(shape))
            parts = np.array(data.draw(st.lists(st.floats(allow_nan=False),
                                                min_size=size, max_size=size)))
            parts[:len(self.EDGES)] = self.EDGES[:parts.size]
            z = np.empty(shape + (half,), dtype=complex)
            z.real = parts[::2].reshape(z.shape)
            z.imag = parts[1::2].reshape(z.shape)
            return z

        fields = dict(output_spectra=spectra(m_count, p_count))
        fields.update(dict(reference_spectra=spectra(m_count),
                           input_spectra_per_period=spectra(m_count, p_count)) if closed
                      else dict(input_spectra=spectra(m_count)))
        record = ExperimentRecord(excited_bins=[half - 1], samples_per_period=n,
                                  sampling_frequency=fs, **fields)
        directory = tmp_path_factory.mktemp("bundle")
        write_record_bundle(directory / "a", record)
        back = read_record_bundle(directory / "a", read_bundle_manifest(directory / "a"))
        for name, value in fields.items():
            assert np.array_equal(getattr(back, name).view(np.uint64), value.view(np.uint64))
        assert (back.input_spectra is None) == closed
        assert back.sampling_frequency == fs and back.samples_per_period == n
        write_record_bundle(directory / "b", back)
        for path in (directory / "a").iterdir():
            assert path.read_bytes() == (directory / "b" / path.name).read_bytes()

    def test_bundle_bin_index_must_be_the_half_grid(self, tmp_path):
        rng = np.random.default_rng(16)
        record = synthetic_record(np.ones(8, complex), 2, 2, 0.1, rng)
        bundle = tmp_path / "bundle"
        write_record_bundle(bundle, record)
        manifest = read_bundle_manifest(bundle)
        # N is the manifest's, not inferred: N = 8 and 9 both give five rows.
        back = read_record_bundle(bundle, {**manifest, "samples_per_period": 9})
        np.testing.assert_array_equal(back.output_spectra, record.output_spectra)
        for n in (7, 10):
            with pytest.raises(ValueError, match="input_spectra.csv.*bin_index"):
                read_record_bundle(bundle, {**manifest, "samples_per_period": n})
        path = bundle / "output_spectra.csv"
        header, *rows = path.read_text().splitlines(True)
        rows[1], rows[2] = rows[2], rows[1]
        path.write_text(header + "".join(rows))
        with pytest.raises(ValueError, match="output_spectra.csv.*bin_index"):
            read_record_bundle(bundle, manifest)
