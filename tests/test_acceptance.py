"""End-to-end acceptance gate.

Each test exercises one headline requirement at its stated tolerance and
prints a single pass/fail line.  Monte-Carlo checks use fixed seeds, so the
suite is deterministic.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
from scipy.signal import lfilter

from blakit.analytic import (
    GaussianInputModel,
    analytic_hammerstein_bla,
    bussgang_gain,
    predict_variances,
)
from blakit.estimator import (
    ExperimentRecord,
    robust_bla,
)
from blakit.experiment import (
    ExperimentConfig,
    hammerstein_demo_config,
    hammerstein_demo_system,
    run_experiment,
    run_open_loop_records,
)
from blakit.signals import (
    MultisineSpec,
    PeriodicSignal,
    derive_rng,
    dft,
    generate_multisine,
    inverse_dft,
)
from blakit.systems import (
    ClosedLoopConfig,
    HammersteinPlant,
    HammersteinSimulator,
    PolynomialNonlinearity,
    RationalLTI,
    simulate_closed_loop_batch,
)
from blakit.volterra import (
    DualVolterraKernel,
    NoiseMomentModel,
    evaluate_dual_kernel,
    evaluate_kernel,
    expected_kernel,
    gaussian_moment,
)

DEMO = hammerstein_demo_system()
CUBIC = DEMO.nonlinearity
DYNAMICS = DEMO.dynamics


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def flat_spec(n, rms=1.0):
    return MultisineSpec.flat(n, 1.0, np.arange(1, n // 2), rms=rms)


def test_01_hammerstein_bla_within_band(tmp_path):
    # M=10 realizations x 2 periods of 4096 samples, unit-RMS input,
    # process noise std 0.1, output noise std 0.03: the estimate must sit
    # inside its own 3-sigma total-variance band around the closed-form
    # response at >= 95% of excited bins, in under 30 s single-threaded.
    with criterion("hammerstein_bla_reproduction"):
        start = time.perf_counter()
        config = hammerstein_demo_config(master_seed=2024)
        summary = run_experiment(config, tmp_path / "run")
        elapsed = time.perf_counter() - start
        comparison = summary["analytic_comparison"]
        assert comparison["fraction_in_band"] >= 0.95
        assert comparison["defined_bins"] == 2047
        assert elapsed < 30.0
        print(f"  fraction_in_band={comparison['fraction_in_band']:.4f} "
              f"elapsed={elapsed:.1f}s")


def test_02_bussgang_gain_exact_and_monte_carlo():
    with criterion("bussgang_gain"):
        model = GaussianInputModel(input_variance=1.0, process_noise_variance=0.01)
        gain = bussgang_gain(CUBIC, model)
        assert abs(gain - 1.303) < 1e-12
        rng = np.random.default_rng(77)
        x = np.sqrt(1.01) * rng.standard_normal(1_000_000)
        y = x + 0.1 * x ** 3
        slope = float(np.sum(y * x) / np.sum(x * x))
        assert abs(gain - slope) / slope < 0.005
        print(f"  closed_form={gain} regression={slope:.5f}")


def test_03_process_noise_gain_dependence():
    # Raising the process-noise standard deviation from 0.1 to 1 scales the
    # response by 1.6/1.303 at every bin; two robust runs must recover the
    # same ratio within 2% in under 5 minutes.
    with criterion("process_noise_gain_dependence"):
        start = time.perf_counter()
        n = 4096
        expected_ratio = 1.6 / 1.303
        small = analytic_hammerstein_bla(DYNAMICS, CUBIC,
                                         GaussianInputModel(1.0, 0.01), n)
        large = analytic_hammerstein_bla(DYNAMICS, CUBIC,
                                         GaussianInputModel(1.0, 1.0), n)
        bins = np.arange(1, n // 2)
        analytic_ratio = np.abs(large[bins] / small[bins])
        np.testing.assert_allclose(analytic_ratio, expected_ratio, rtol=1e-12)
        assert np.all(np.abs(analytic_ratio - 1.2280) < 1e-3)

        estimates = {}
        for label, variance in (("small", 0.01), ("large", 1.0)):
            config = ExperimentConfig(
                realizations=64, periods=4, samples_per_period=n,
                sampling_frequency=1.0, excited_bins=tuple(range(1, n // 2)),
                input_rms=1.0, system=DEMO, process_noise_variance=variance,
                output_noise_variance=0.03 ** 2, master_seed=91)
            record, _ = run_open_loop_records(config)
            estimates[label] = robust_bla(record).g_bla
        measured = np.mean(np.abs(estimates["large"] / estimates["small"]))
        elapsed = time.perf_counter() - start
        assert abs(measured - expected_ratio) / expected_ratio < 0.02
        assert elapsed < 300.0
        print(f"  measured_ratio={measured:.4f} expected={expected_ratio:.4f} "
              f"elapsed={elapsed:.1f}s")


def test_04_noise_averaged_kernel_oracle_equivalence():
    # For random dual kernels, averaging the simulated output over 1e5
    # process-noise draws must match the contracted single-input kernel at
    # every sample within four standard errors.
    with criterion("dual_kernel_noise_average"):
        rng = np.random.default_rng(404)
        draws = 100_000
        t_len = 16
        u = rng.standard_normal(t_len)
        checked = 0
        while checked < 20:
            m = int(rng.integers(0, 3))
            n = int(rng.integers(1, 4))
            if m + n == 0:
                continue
            side_u = int(rng.integers(1, 4))
            side_x = int(rng.integers(1, 4))
            shape = (side_u,) * m + (side_x,) * n
            kernel = DualVolterraKernel(
                input_degree=m, noise_degree=n,
                coefficients=rng.standard_normal(shape))
            s2 = float(rng.uniform(0.25, 1.0))
            model = NoiseMomentModel.white(s2, max_lag=side_x - 1)
            predicted = evaluate_kernel(expected_kernel(kernel, model), u)
            nx = np.sqrt(s2) * rng.standard_normal((draws, t_len))
            outputs = evaluate_dual_kernel(kernel, u, nx)
            mean = outputs.mean(axis=0)
            std = outputs.std(axis=0)
            band = 4.0 * std / np.sqrt(draws) + 1e-12
            assert np.all(np.abs(mean - predicted) < band), (m, n, shape)
            checked += 1
        print(f"  kernels_checked={checked} draws={draws}")


def _distortion_realizations(count, n, seed):
    """Exact per-realization nonlinear distortion S[0.1 u^3 - 0.3 u]."""
    spec = flat_spec(n)
    out = np.empty((count, n))
    inputs = np.empty((count, n))
    for m in range(count):
        u = generate_multisine(spec, derive_rng(seed, "u", m))
        inner = 0.1 * u.samples ** 3 - 0.3 * u.samples
        out[m] = DYNAMICS.filter(inner)
        inputs[m] = u.samples
    return inputs, out


def _process_noise_realizations(count, n, seed, s2=0.01):
    """Exact per-draw process contribution for one fixed excitation.

    One full warm-up period keeps the recorded stretch phase-aligned with
    the periodic reference mean.
    """
    u = generate_multisine(flat_spec(n), derive_rng(seed, "u_fixed")).samples
    u_full = np.tile(u, 2)
    mean_inner = u + 0.1 * u ** 3 + 0.3 * s2 * u
    y_mean = DYNAMICS.filter(mean_inner)
    out = np.empty((count, n))
    for i in range(count):
        nx = np.sqrt(s2) * derive_rng(seed, "nx", i).standard_normal(2 * n)
        inner = DEMO.nonlinearity(u_full + nx)
        out[i] = lfilter(DYNAMICS.numerator, DYNAMICS.denominator, inner)[n:] - y_mean
    return u, out


def _mean_and_crosscorr_scales(samples, inputs):
    """(scaled rms of the sample mean, scaled rms of the input crosscorr)."""
    m_count, n = samples.shape
    mean_t = samples.mean(axis=0)
    sd_t = samples.std(axis=0, ddof=1)
    mean_scale = np.sqrt(np.mean(sd_t ** 2) / m_count)
    mean_rms = np.sqrt(np.mean(mean_t ** 2))

    spec_s = np.fft.fft(samples, axis=1)
    spec_u = np.fft.fft(inputs, axis=1)
    corr = np.fft.ifft(spec_s * np.conj(spec_u), axis=1).real / n
    corr_mean = corr.mean(axis=0)
    corr_sd = corr.std(axis=0, ddof=1)
    corr_scale = np.sqrt(np.mean(corr_sd ** 2) / m_count)
    corr_rms = np.sqrt(np.mean(corr_mean ** 2))
    return mean_rms, mean_scale, corr_rms, corr_scale


def test_05_distortions_average_out_like_sqrt_m():
    # The nonlinear distortion (over input realizations) and the process
    # contribution (over noise realizations) are zero-mean and uncorrelated
    # with the input: their sample means and input cross-correlations must
    # shrink as 1/sqrt(M), each point within its Monte-Carlo band.
    with criterion("distortion_averaging"):
        n = 1024
        sizes = (16, 64, 256)

        inputs, distortion = _distortion_realizations(max(sizes), n, seed=31)
        u_fixed, process = _process_noise_realizations(max(sizes), n, seed=32)
        u_fixed = np.broadcast_to(u_fixed, process.shape)

        for label, samples, ins in (("nonlinear", distortion, inputs),
                                    ("process", process, u_fixed)):
            mean_points = []
            corr_points = []
            for m_count in sizes:
                mean_rms, mean_scale, corr_rms, corr_scale = \
                    _mean_and_crosscorr_scales(samples[:m_count], ins[:m_count])
                # Each decay-curve point sits inside a generous 3-sigma band
                # around its predicted 1/sqrt(M) level.
                assert 0.3 < mean_rms / mean_scale < 2.5, (label, m_count)
                assert 0.3 < corr_rms / corr_scale < 2.5, (label, m_count)
                mean_points.append(mean_rms)
                corr_points.append(corr_rms)
            for a, b in zip(mean_points, mean_points[1:]):
                assert 1.2 < a / b < 3.4, label
            for a, b in zip(corr_points, corr_points[1:]):
                assert 1.2 < a / b < 3.4, label
        print(f"  sizes={sizes} both constituents decay as 1/sqrt(M)")


def _variance_oracles(n, reps, seed, s2_x=0.01):
    """Monte-Carlo per-bin variances of the distortion and process spectra."""
    spec = flat_spec(n)
    acc_s = np.zeros(n // 2 + 1)
    acc_p = np.zeros(n // 2 + 1)
    settle = 512
    for i in range(reps):
        u = generate_multisine(spec, derive_rng(seed, "s", i)).samples
        inner = 0.1 * u ** 3 - 0.3 * u
        y_s = np.fft.rfft(inner) / np.sqrt(n) * DYNAMICS.bin_response(n)
        acc_s += np.abs(y_s) ** 2

        u2 = generate_multisine(spec, derive_rng(seed, "p_u", i)).samples
        u_full = np.tile(u2, 2)[: n + settle]
        nx = np.sqrt(s2_x) * derive_rng(seed, "p_nx", i).standard_normal(n + settle)
        inner_p = (nx + 0.3 * u_full ** 2 * nx
                   + 0.3 * u_full * (nx ** 2 - s2_x) + 0.1 * nx ** 3)
        y_p = lfilter(DYNAMICS.numerator, DYNAMICS.denominator, inner_p)[settle:]
        acc_p += np.abs(np.fft.rfft(y_p) / np.sqrt(n)) ** 2
    return acc_s / reps, acc_p / reps


def test_06_variance_formula_consistency():
    # Over 200 independent experiments the Monte-Carlo means of both variance
    # estimates must match the predicted expectations within 5%
    # (band-averaged), in under 10 minutes.
    with criterion("variance_formulas"):
        start = time.perf_counter()
        n, m_count, p_count, reps = 4096, 10, 2, 200
        s2_x, s2_y = 0.01, 0.03 ** 2
        bins = np.arange(1, n // 2)

        acc_noise = np.zeros(bins.size)
        acc_total = np.zeros(bins.size)
        for rep in range(reps):
            config = ExperimentConfig(
                realizations=m_count, periods=p_count,
                samples_per_period=n, sampling_frequency=1.0,
                excited_bins=tuple(bins), input_rms=1.0, system=DEMO,
                process_noise_variance=s2_x, output_noise_variance=s2_y,
                master_seed=10_000 + rep)
            record, _ = run_open_loop_records(config)
            est = robust_bla(record)
            acc_noise += est.var_noise
            acc_total += est.var_total
        mc_noise = acc_noise / reps
        mc_total = acc_total / reps

        var_s, var_p = _variance_oracles(n, reps=3000, seed=55, s2_x=s2_x)
        var_n = np.full(n, s2_y)
        input_power = np.full(n, flat_spec(n).amplitudes[0] ** 2)
        pred_noise, pred_total = predict_variances(
            var_n[bins], var_p[bins], var_s[bins], input_power[bins],
            m_count, p_count)

        ratio_noise = float(np.mean(mc_noise / pred_noise))
        ratio_total = float(np.mean(mc_total / pred_total))
        elapsed = time.perf_counter() - start
        assert abs(ratio_noise - 1.0) < 0.05
        assert abs(ratio_total - 1.0) < 0.05
        assert elapsed < 600.0
        print(f"  noise_ratio={ratio_noise:.4f} total_ratio={ratio_total:.4f} "
              f"elapsed={elapsed:.1f}s")


def closed_loop_setup(nx_var):
    plant = RationalLTI(b=[0.6, 0.3], a=[1.0, -0.4])
    return plant, ClosedLoopConfig(
        plant=HammersteinPlant(plant, PolynomialNonlinearity.identity()),
        actuator=RationalLTI(b=[0.9], a=[1.0, -0.3]),
        feedback=RationalLTI(b=[0.0, 0.7]),
        process_noise_variance=nx_var,
    )


def closed_loop_errors(m_count, nx_var, seed, n=256, p_count=4):
    plant, config = closed_loop_setup(nx_var)
    spec = flat_spec(n)
    refs = [generate_multisine(spec, derive_rng(seed, "r", m)).tile(p_count)
            for m in range(m_count)]
    records = simulate_closed_loop_batch(config, refs, seed=seed)
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
    g_true = plant.bin_response(n)[bins]
    indirect = robust_bla(record).g_bla
    naive = (y_pp[:, :, bins] / u_pp[:, :, bins]).mean(axis=(0, 1))
    err_indirect = np.sqrt(np.mean(np.abs(indirect - g_true) ** 2))
    err_naive = np.sqrt(np.mean(np.abs(naive - g_true) ** 2))
    return err_indirect, err_naive


def test_07_closed_loop_sanity():
    # Noiseless linear loop: the plant is recovered essentially exactly.
    # With process noise circulating, the indirect estimate keeps improving
    # as 1/sqrt(M) while the per-period ratio stays pinned at its bias.
    with criterion("closed_loop_identification"):
        n = 256
        plant, config = closed_loop_setup(0.0)
        ref = generate_multisine(flat_spec(n), seed=5).tile(4)
        records = simulate_closed_loop_batch(config, [ref], seed=5)
        bins = np.arange(1, n // 2)
        u_spec = dft(records[0].input_measured).bins[bins]
        y_spec = dft(records[0].output_measured).bins[bins]
        g_true = plant.bin_response(n)[bins]
        rel = np.abs(y_spec / u_spec - g_true) / np.abs(g_true)
        assert rel.max() < 1e-8

        errors = {m: closed_loop_errors(m, nx_var=2.0, seed=907)
                  for m in (16, 64, 256)}
        e16, e64, e256 = (errors[m][0] for m in (16, 64, 256))
        assert 1.3 < e16 / e64 < 4.5
        assert 1.3 < e64 / e256 < 4.5
        naive64 = errors[64][1]
        assert naive64 >= 5.0 * e64
        print(f"  indirect errors {e16:.4f}/{e64:.4f}/{e256:.4f}, "
              f"naive at M=64: {naive64:.4f} ({naive64 / e64:.1f}x)")


def test_08_numerics_suite(split_output):
    with criterion("numerics"):
        rng = np.random.default_rng(808)
        for n in (64, 4096, 2 ** 16):
            x = rng.standard_normal(n)
            sig = PeriodicSignal(x, n, 1, 1.0)
            spectrum = dft(sig)
            back = inverse_dft(spectrum)
            assert np.max(np.abs(back - x)) < 1e-12 * np.max(np.abs(x))
            weights = np.full(n // 2 + 1, 2.0)  # 0 < k < N/2 also stands for its mirror
            weights[[0, -1]] = 1.0  # DC and Nyquist (every n here is even)
            energy_err = abs(np.sum(x ** 2) - np.sum(weights * np.abs(spectrum.bins) ** 2))
            assert energy_err < 1e-12 * np.sum(x ** 2)

        model = NoiseMomentModel.white(1.0)
        for pairs in range(1, 5):
            n_lags = 2 * pairs
            expected = float(np.prod(np.arange(n_lags - 1, 0, -2)))
            assert gaussian_moment(model, (0,) * n_lags) == expected

        sim = HammersteinSimulator(DYNAMICS, CUBIC, 0.01, 0.0009)
        u = generate_multisine(flat_spec(512), seed=9).tile(2)
        g_ref = analytic_hammerstein_bla(DYNAMICS, CUBIC,
                                         GaussianInputModel(1.0, 0.01), 512)
        dec = split_output(sim, u, g_ref, seed=6)
        rebuilt = dec.y_bla + dec.y_nonlinear + dec.y_process + dec.y_output_noise
        assert np.max(np.abs(rebuilt - dec.y_total)) < 1e-12
        print("  round trip, Parseval, pairing counts, reconstruction all hold")
