"""The analytic oracle's pass rule and its calibration on the pipeline's own
records, the statistics of ``compare``, ``==`` on the value types that hold
arrays, and the summary's config echo."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from blakit.estimator import BlaEstimate, ExperimentRecord, robust_bla, write_bla_csv
from blakit.experiment import (
    BAND_SIGMA,
    FALSE_FAIL_LEVEL,
    ExperimentConfig,
    _analytic_reference,
    _bin_range,
    _binomial_tail,
    _comparison_summary,
    _config_echo,
    _in_band_probability,
    compare_reports,
    hammerstein_demo_config,
    hammerstein_demo_system,
    run_records,
)
from blakit.systems import PolynomialNonlinearity, RationalLTI, SystemDescription

N = 128  # 63 excited bins, 1..63


def gate_summary(m: int, bias: float, snr_db: float, seed: int, input_level: float = 1.0):
    """The oracle summary of a synthetic open-loop run whose reference G is 1.

    Each realization's frequency response ``g_m`` is ``1 + bias`` plus complex
    Gaussian scatter of variance ``10**(-snr_db/10)``, the same in both periods.
    """
    config = ExperimentConfig(
        realizations=m, periods=2, samples_per_period=N,
        sampling_frequency=1.0, excited_bins=tuple(range(1, N // 2)), input_rms=1.0,
        system=SystemDescription(dynamics=RationalLTI(b=[1.0]),
                                 nonlinearity=PolynomialNonlinearity.identity()))
    rng = np.random.default_rng(seed)
    shape = (m, N // 2 + 1)
    scatter = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g_m = 1 + bias + math.sqrt(10 ** (-snr_db / 10) / 2) * scatter
    u = np.full(shape, input_level, dtype=complex)
    record = ExperimentRecord(
        input_spectra=u, output_spectra=np.repeat((g_m * u)[:, None, :], 2, axis=1),
        excited_bins=np.arange(1, N // 2), samples_per_period=N, sampling_frequency=1.0)
    return _comparison_summary(_analytic_reference(config), robust_bla(record))


class TestOracleGate:
    @pytest.mark.parametrize("p", [2.0 ** -9, 0.0331, 0.5, 0.97])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 200])
    def test_binomial_tail_matches_exact_sum(self, n, p):
        # The exact tail, in rationals, of the float p's binomial distribution.
        q = Fraction(p)
        terms = [math.comb(n, j) * q ** j * (1 - q) ** (n - j) for j in range(n + 1)]
        tail = Fraction(0)
        for misses in range(n, -1, -1):
            tail += terms[misses]
            assert _binomial_tail(misses, n, p) == pytest.approx(float(tail), rel=1e-9,
                                                                 abs=1e-300)

    @pytest.mark.parametrize("p", [2.0 ** -9, 0.5])
    def test_binomial_tail_matches_exact_sum_at_2047_bins(self, p):
        # N = 4096 has 2047 excited bins, and 2**-9 is 1 - c(10, 3).  With
        # p = a / d exactly, the tail is an integer sum over d**n.
        n = 2047
        a, d = p.as_integer_ratio()
        numerator = 0
        for misses in range(n, -1, -1):
            numerator += math.comb(n, misses) * a ** misses * (d - a) ** (n - misses)
            assert _binomial_tail(misses, n, p) == pytest.approx(numerator / d ** n,
                                                                 rel=1e-9, abs=1e-300)
        assert _binomial_tail(0, n, p) == 1.0  # no miss, exactly

    def test_in_band_probability_values(self):
        assert _in_band_probability(10) == 1 - 2 ** -9  # (1 + 9/9)^-9, exactly
        assert _in_band_probability(3) == pytest.approx(0.9669, abs=5e-5)
        assert _in_band_probability(2) == pytest.approx(0.9)

    @pytest.mark.parametrize("m", range(2, 21))
    def test_in_band_probability_matches_gaussian_draws(self, m):
        # |g - G|^2 / var_total of Gaussian g_m is F(2, 2(M-1)) whatever G is.
        draws = 20000
        rng = np.random.default_rng(m)
        g_m = rng.standard_normal((draws, m)) + 1j * rng.standard_normal((draws, m))
        g = g_m.mean(axis=1)
        var_total = np.sum(np.abs(g_m - g[:, None]) ** 2, axis=1) / (m * (m - 1))
        inside = np.mean(np.abs(g) <= BAND_SIGMA * np.sqrt(var_total))
        c = _in_band_probability(m)
        assert abs(inside - c) <= 5 * math.sqrt(c * (1 - c) / draws)

    def test_correct_runs_fail_at_most_at_the_stated_level(self):
        # 300 correct runs at each M = 2..20, 5700 in all: at a false-fail rate
        # of 1e-3, 15 or more fails have a probability below 1e-3.
        fails = {m: sum(not gate_summary(m, 0.0, 30.0, seed)["pass"] for seed in range(300))
                 for m in range(2, 21)}
        assert sum(fails.values()) < 15, fails

    def test_ten_percent_gain_bias_fails(self):
        # M=3, 63 bins, a per-realization SNR |G|^2 / var(g_m) of 30 dB.
        for seed in range(20):
            summary = gate_summary(3, 0.1, 30.0, seed)
            assert summary["defined_bins"] == 63
            assert summary["tail_probability"] < FALSE_FAIL_LEVEL
            assert summary["pass"] is False

    def test_summary_states_its_rule(self):
        summary = gate_summary(3, 0.0, 30.0, seed=0)
        assert summary["band_sigma"] == BAND_SIGMA == 3.0
        assert summary["expected_fraction_in_band"] == _in_band_probability(3)
        assert summary["false_fail_level"] == FALSE_FAIL_LEVEL == 1e-3
        misses = round(63 * (1 - summary["fraction_in_band"]))
        assert summary["tail_probability"] == _binomial_tail(
            misses, 63, 1 - _in_band_probability(3))
        assert summary["pass"] is (summary["tail_probability"] >= 1e-3)

    def test_no_defined_bin_fails(self):
        # An excitation of zero power at every excited bin leaves no bin defined.
        summary = gate_summary(3, 0.0, 30.0, seed=0, input_level=0.0)
        assert summary["defined_bins"] == 0
        assert summary["fraction_in_band"] == 0.0
        assert summary["pass"] is False


IDENTITY, DEMO_F = (1.0,), (1.0, 0.0, 0.1)  # f of the loop below and of the demo

# A linear loop (test_07's) with the identity f, where the closed loop's oracle applies.
CALIBRATION_LOOP = SystemDescription(
    dynamics=RationalLTI(b=[0.6, 0.3], a=[1.0, -0.4]),
    nonlinearity=PolynomialNonlinearity.identity(),
    actuator=RationalLTI(b=[0.9], a=[1.0, -0.3]),
    feedback=RationalLTI(b=[0.0, 0.7]),
)


class TestPipelineCalibration:
    """The gate's calibration on the pipeline's own records: the out-of-band
    bins of seeds 0..K-1, pooled, against Bin(n, 1 - c(M, 3)).

    A row fails at |z| > 4, which a calibrated program reaches with
    probability about 6e-5 per row.  The seeds are 0..K-1, none chosen.
    """

    @pytest.mark.parametrize("loop, f, n, m, process, output, runs", [
        ("closed", IDENTITY, 64, 3, 0.5, 0.01, 200),
        ("open", DEMO_F, 256, 3, 0.01, 0.0009, 80),
        ("open", (1.0, 0.0, 0.3), 256, 10, 0.25, 0.0009, 40),
        ("open", (1.0, 0.3, 0.1, 0.0, -0.01), 256, 3, 1.0, 0.0009, 80),
        pytest.param("closed", IDENTITY, 64, 10, 5.0, 1.0, 100, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 10: at low SNR the closed loop's linearized band is too "
                   "narrow (z = 8.5)")),
        pytest.param("closed", IDENTITY, 256, 10, 0.5, 0.01, 300, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 10: at M = 10 the closed loop's linearized band is too "
                   "narrow at moderate SNR too (z = 5.3)")),
        pytest.param("open", DEMO_F, 16, 300, 0.0, 0.0009, 10, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 1: at F = 7 the Gaussian-input reference is not the "
                   "multisine's BLA (z = 60)")),
    ], ids=["closed-m3", "open-m3", "open-cubic-m10", "open-quintic-m3", "closed-m10-low-snr",
            "closed-m10-n256", "open-f7-m300"])
    def test_pooled_out_of_band_share(self, loop, f, n, m, process, output, runs):
        base = CALIBRATION_LOOP if loop == "closed" else hammerstein_demo_system()
        system = replace(base, nonlinearity=PolynomialNonlinearity(f))
        bins = misses = 0
        for seed in range(runs):
            config = ExperimentConfig(
                realizations=m, periods=2, samples_per_period=n,
                sampling_frequency=1.0, excited_bins=tuple(range(1, n // 2)), input_rms=1.0,
                system=system, process_noise_variance=process, output_noise_variance=output,
                master_seed=seed)
            record, _ = run_records(config)
            summary = _comparison_summary(_analytic_reference(config), robust_bla(record))
            defined = summary["defined_bins"]
            bins += defined
            misses += defined - round(summary["fraction_in_band"] * defined)
        p = 1 - _in_band_probability(m)
        z = (misses - bins * p) / math.sqrt(bins * p * (1 - p))
        assert abs(z) <= 4, (misses, bins, z)


def write_pair(tmp_path, g_a, g_b, var_a, var_b):
    """Two result directories whose ``bla.csv`` hold the given columns."""
    dirs = []
    for name, g, var in (("a", g_a, var_a), ("b", g_b, var_b)):
        (tmp_path / name).mkdir()
        write_bla_csv(tmp_path / name / "bla.csv", BlaEstimate(
            excited_bins=np.arange(1, g.size + 1), g_bla=g, var_noise=var, var_total=var,
            realization_count=0, period_count=0, samples_per_period=2 * g.size + 2,
            sampling_frequency=1.0))
        dirs.append(tmp_path / name)
    return dirs


class TestCompareStatistics:
    @pytest.mark.parametrize("nu", [8, 18])  # 2(M-1) at M = 5 and 10
    def test_variance_ratios_centre_on_one(self, tmp_path, nu):
        # Two runs of one config: per-bin variance estimates sigma^2 chi2_nu / nu,
        # so b/a is F(nu, nu), of mean nu/(nu-2) and log-mean 0.
        bins = 4000
        rng = np.random.default_rng(nu)
        var_a, var_b = 0.01 * rng.chisquare(nu, (2, bins)) / nu
        a, b = write_pair(tmp_path, np.ones(bins, complex), np.ones(bins, complex), var_a, var_b)
        ratio = var_b / var_a
        f_sd = math.sqrt(2 * nu ** 2 * (2 * nu - 2) / (nu * (nu - 2) ** 2 * (nu - 4)))
        assert abs(ratio.mean() - nu / (nu - 2)) < 5 * f_sd / math.sqrt(bins)
        summary, ok = compare_reports(a, b, var_ratio_tol=0.1)
        assert ok
        for name in ("var_total_ratio", "var_noise_ratio"):
            assert summary[name] == pytest.approx(1.0, abs=0.05)

    def test_gain_ratio_is_not_inflated_by_scatter(self, tmp_path):
        # Complex Gaussian scatter at an SNR |G|^2 / var of 10 on both runs.
        bins, truth = 4000, 1.2279
        rng = np.random.default_rng(0)
        scatter = math.sqrt(0.1 / 2) * (rng.standard_normal((2, bins))
                                        + 1j * rng.standard_normal((2, bins)))
        g_a, g_b = 1 + scatter[0], truth * (1 + scatter[1])
        a, b = write_pair(tmp_path, g_a, g_b, np.full(bins, 0.1), np.full(bins, 0.1))
        summary, _ = compare_reports(a, b)
        assert np.mean(np.abs(g_b) / np.abs(g_a)) > 1.05 * truth  # the old mean of ratios
        assert summary["gain_ratio"] == pytest.approx(truth, rel=0.01)
        assert summary["gain_ratio_min"] < truth < summary["gain_ratio_max"]

    def test_no_positive_variance_reads_none_and_fails_its_tolerance(self, tmp_path):
        # A noise-free run against a noisy one: no bin has both variances positive.
        a, b = write_pair(tmp_path, np.ones(5, complex), np.ones(5, complex),
                          np.zeros(5), np.full(5, 0.1))
        summary, ok = compare_reports(a, b)
        assert summary["var_total_ratio"] is None and summary["var_noise_ratio"] is None
        assert summary["gain_ratio"] == 1.0 and ok
        summary, ok = compare_reports(a, b, var_ratio_tol=1e6)
        assert not ok and summary["within_tolerance"] is False


@pytest.mark.parametrize("make", [lambda: PolynomialNonlinearity([1.0, 0.0, 0.1]),
                                  hammerstein_demo_system, hammerstein_demo_config],
                         ids=["nonlinearity", "system", "demo_config"])
def test_array_holding_values_compare_by_identity(make):
    # Field-wise == would compare arrays, whose truth value raises ValueError,
    # and a field-wise hash would hash an array, which raises TypeError.
    value = make()
    assert value == value
    assert (value == make()) is False
    assert hash(value) == hash(value)


def asdict_echo(config: ExperimentConfig) -> dict:
    """The summary's config block as ``asdict`` built it, after the loop that the
    system decides: the oracle of ``_config_echo``."""
    echo = {"loop": config.loop, **asdict(config)}
    system = config.system
    echo["system"] = {"f_coefficients": system.nonlinearity.coefficients.tolist()}
    for name, lti in (("S", system.dynamics), ("G_act", system.actuator),
                      ("M", system.feedback)):
        echo["system"][f"{name}_numerator"] = lti.numerator.tolist() if lti else None
        echo["system"][f"{name}_denominator"] = lti.denominator.tolist() if lti else None
    bins = config.excited_bins
    echo["excited_bins"] = _bin_range(bins) or list(bins)
    echo["excited_bin_count"] = len(bins)
    return echo


def closed_loop_config() -> ExperimentConfig:
    return ExperimentConfig(
        realizations=4, periods=3, samples_per_period=64,
        sampling_frequency=250.0, excited_bins=(1, 4, 9, 16), input_rms=0.5,
        system=SystemDescription(dynamics=RationalLTI(b=[0.1], a=[1.0, -0.9]),
                                 nonlinearity=PolynomialNonlinearity.identity(),
                                 actuator=RationalLTI(b=[0.5]),
                                 feedback=RationalLTI(b=[0.0, 0.5])),
        process_noise_variance=0.01, output_noise_variance=0.001,
        input_noise_variance=0.002, master_seed=32)


@pytest.mark.parametrize("make", [hammerstein_demo_config, closed_loop_config],
                         ids=["demo", "closed_loop"])
def test_config_echo_matches_asdict(make):
    # The shallow echo must write the summary's config block that asdict did:
    # the same keys in the same order, each value of the same type and text.
    config = make()
    assert json.dumps(_config_echo(config)) == json.dumps(asdict_echo(config))
