from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps
from scipy import stats

from blakit.analytic import _noise_moments, process_noise_statistics
from blakit.signals import (MultisineSpec, PeriodicSignal, derive_rng, dft, generate_multisine,
                            generate_noise, period_spectra)
from blakit.systems import (
    DIVERGENCE_LIMIT,
    ClosedLoopConfig,
    ConfigurationError,
    HammersteinPlant,
    HammersteinSimulator,
    InstabilityError,
    PolynomialNonlinearity,
    RationalLTI,
    STEADY_STATE_RTOL,
    SystemDescription,
    VolterraPlant,
    read_system_file,
    simulate_closed_loop_batch,
    write_system_file,
    _LoopEngine,
)
from blakit.volterra import (DualVolterraKernel, NoiseMomentModel,
                             evaluate_kernel, expected_kernel, gaussian_power_moment)

LOWPASS = dict(b=[0.2], a=[1.0, -0.8])
CUBIC = PolynomialNonlinearity(coefficients=[1.0, 0.0, 0.1])


def flat_multisine(n=256, bins=None, seed=0, rms=1.0, fs=1.0):
    bins = np.arange(1, n // 2) if bins is None else bins
    return generate_multisine(MultisineSpec.flat(n, fs, bins, rms=rms), seed=seed)


@st.composite
def stable_filters(draw):
    """A stable filter: FIR (``a = [1]``), or one slow mode times up to two
    fast real poles (``|p| <= 0.9``, gone within the 1000-sample minimum of
    ``settling_length()``).

    The slow mode is a real pole or a complex pair of radius up to 0.999, so
    its impulse-response tail past ``settling_length()`` is about 1e-10 of
    the response's absolute sum.  The pair keeps 0.1 rad off the real axis:
    near it the pair becomes a double pole, whose tail is about
    ``ln(1e10)`` = 23 times larger, outside the simple dominant poles that
    ``settling_length()`` covers.
    """
    b = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8))
    mode = draw(st.sampled_from(["fir", "real", "pair"]))
    if mode == "fir":
        return RationalLTI(b=b)
    radius = draw(st.floats(0.0, 0.999))
    if mode == "real":
        poles = [radius * draw(st.sampled_from([-1.0, 1.0]))]
    else:
        angle = draw(st.floats(0.1, np.pi - 0.1))
        poles = [radius * np.exp(1j * angle), radius * np.exp(-1j * angle)]
    poles += draw(st.lists(st.floats(-0.9, 0.9), max_size=2))
    return RationalLTI(b=b, a=np.real(np.poly(poles)))


class ScalarDFII:
    """One channel of the direct-form II transposed recursion in Python
    floats, a sample at a time: ``y = b0*x + z0``, ``z_i = z_{i+1} +
    (b_{i+1}*x - a_{i+1}*y)``, where the last tap adds onto ``0.0``; order 0
    is ``y = b0*x``.  ``head`` is tap 0, or ``0.0`` at order 0."""

    def __init__(self, b, a):
        self.order = max(len(b), len(a)) - 1
        self.b = list(b) + [0.0] * (self.order + 1 - len(b))
        self.a = list(a) + [0.0] * (self.order + 1 - len(a))
        self.z = [0.0] * self.order

    @property
    def head(self):
        return self.z[0] if self.order else 0.0

    def step(self, x):
        b, a, z, order = self.b, self.a, self.z, self.order
        y = b[0] * x + z[0] if order else b[0] * x
        self.z = [(z[i + 1] if i + 1 < order else 0.0) + (b[i + 1] * x - a[i + 1] * y)
                  for i in range(order)]
        return y


class TestRationalLTI:
    def test_unstable_rejected(self):
        with pytest.raises(ConfigurationError, match="unstable"):
            RationalLTI(b=[1.0], a=[1.0, -1.5])

    def test_pole_on_unit_circle_rejected(self):
        with pytest.raises(ConfigurationError):
            RationalLTI(b=[1.0], a=[1.0, -1.0])

    def test_leading_denominator_normalized(self):
        lti = RationalLTI(b=[2.0], a=[2.0, -0.4])
        assert lti.denominator[0] == 1.0
        np.testing.assert_allclose(lti.numerator, [1.0])
        np.testing.assert_allclose(lti.denominator, [1.0, -0.2])

    def test_frequency_response_matches_scipy(self):
        # The half grid of N = 64 bins is linspace(0, pi, 33).
        lti = RationalLTI(**LOWPASS)
        w = np.linspace(0, np.pi, 33)
        _, expected = sps.freqz(lti.numerator, lti.denominator, worN=w)
        np.testing.assert_allclose(lti.bin_response(64), expected, rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(lti=stable_filters(), n=st.integers(1, 3000), rows=st.integers(0, 3),
           shape=st.sampled_from(["gaussian", "ones", "alternating"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(lti=RationalLTI(b=[5e-324]), n=7, rows=0, shape="gaussian", seed=7)
    def test_filter_matches_lfilter_within_tail_bound(self, lti, n, rows, shape, seed):
        # filter(x) is the steady-state response to x repeated.  The zero-state
        # recursion over 1 + ceil(settling_length() / n) repeats differs from
        # it in its last repeat by the start-up transient, at most max|x|
        # times the impulse response's tail past settling_length(), below
        # 1e-9 of max|x| * sum|h| for these filters.  Below the smallest
        # normal float (subnormal coefficients) that bound underflows while
        # the transforms' round-off stays a few subnormal steps, hence the
        # absolute floor.
        size = (rows, n) if rows else (n,)
        if shape == "gaussian":
            x = np.random.default_rng(seed).standard_normal(size)
        else:
            x = np.ones(size) * (-1.0 if shape == "alternating" else 1.0) ** np.arange(n)
        impulse = np.zeros(lti.settling_length() + 1)
        impulse[0] = 1.0
        h = sps.lfilter(lti.numerator, lti.denominator, impulse)
        repeats = 1 + math.ceil(lti.settling_length() / n)
        want = sps.lfilter(lti.numerator, lti.denominator, np.tile(x, repeats),
                           axis=-1)[..., -n:]
        got = lti.filter(x)
        assert got.shape == x.shape
        assert np.all(np.abs(got - want)
                      <= 1e-9 * np.abs(x).max() * np.abs(h).sum() + np.finfo(float).tiny)

    @settings(max_examples=100, deadline=None)
    @given(lti=stable_filters(), n=st.integers(1, 1000), repeats=st.integers(2, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_filter_of_repeats_is_the_repeated_filter(self, lti, n, repeats, seed):
        # The response to x repeated does not depend on how many repeats the
        # grid holds: whole periods have no transient and no leakage.  Only
        # the two transforms' round-off separates them, which is absolute
        # below the smallest normal float (subnormal coefficients), hence
        # the floor.
        x = np.random.default_rng(seed).standard_normal(n)
        impulse = np.zeros(lti.settling_length() + 1)
        impulse[0] = 1.0
        h = sps.lfilter(lti.numerator, lti.denominator, impulse)
        got = lti.filter(np.tile(x, repeats))
        want = np.tile(lti.filter(x), repeats)
        scale = np.abs(x).max() * np.abs(h).sum()
        assert np.all(np.abs(got - want) <= 1e-12 * scale + np.finfo(float).tiny)

    @pytest.mark.parametrize("pole", [0.0, 0.5, 0.977, 0.99, 0.999])
    def test_settling_length_decays_transient_below_rtol(self, pole):
        lti = RationalLTI(b=[1.0], a=[1.0, -pole])
        length = lti.settling_length()
        assert length >= 1000
        assert pole ** length <= STEADY_STATE_RTOL
        if length > 1000:
            assert pole ** (length - 1) > STEADY_STATE_RTOL


class TestPolynomialNonlinearity:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_horner_matches_polyval_bitwise(self, data):
        signed = st.sampled_from([0.0, -0.0])
        coefficients = data.draw(st.lists(signed | st.floats(-3.0, 3.0), min_size=1,
                                          max_size=9))
        values = signed | st.sampled_from([np.inf, -np.inf]) | st.floats(-4.0, 4.0)
        x = np.array(data.draw(st.lists(values, min_size=1, max_size=20)))
        f = PolynomialNonlinearity(coefficients)
        out = np.empty_like(x)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.polynomial.polynomial.polyval(x, [0.0, *coefficients])
            assert f(x, out) is out
            got = f(x)
        assert got.tobytes() == out.tobytes() == want.tobytes()


class TestFilterPeriodic:
    # RationalLTI.filter, the one periodic steady-state filter, on one period.
    def test_identity_filter(self):
        sig = flat_multisine()
        out = RationalLTI.identity().filter(sig.samples)
        np.testing.assert_allclose(out, sig.samples, atol=1e-12)

    def test_pure_delay_is_circular_shift(self):
        sig = flat_multisine(n=64)
        out = RationalLTI([0.0, 1.0]).filter(sig.samples)
        np.testing.assert_allclose(out, np.roll(sig.samples, 1), atol=1e-12)

    def test_matches_time_domain_recursion_after_transients(self):
        lti = RationalLTI(**LOWPASS)
        sig = flat_multisine(n=128, seed=5)
        periodic = lti.filter(sig.samples)
        recursion = sps.lfilter(lti.numerator, lti.denominator, np.tile(sig.samples, 20))
        np.testing.assert_allclose(periodic, recursion[-128:], atol=1e-9)


class TestHammersteinSimulator:
    def test_linear_noiseless_equals_periodic_filtering(self):
        u = flat_multisine(n=128, seed=2)
        lti = RationalLTI(**LOWPASS)
        rec = HammersteinSimulator(lti, PolynomialNonlinearity.identity()).run(u)
        np.testing.assert_allclose(rec.output.samples, lti.filter(u.samples), atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(lti=stable_filters(), n=st.integers(1, 600), periods=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_noise_free_run_tiles_one_filtered_period_bitwise(self, lti, n, periods, seed):
        # Without process noise, run filters f of period 0 once and repeats
        # it; the output adds the output noise, all zeros here.
        assume(lti._decay_length() <= 64 * n)  # else the lead-in guard refuses
        period = np.random.default_rng(seed).standard_normal(n)
        u = PeriodicSignal(np.tile(period, periods), n, periods, 1.0)
        rec = HammersteinSimulator(lti, CUBIC).run(u)
        want = np.tile(lti.filter(CUBIC(u.period(0))), periods) + generate_noise(0.0, n * periods)
        assert rec.lead_in_samples == 0
        assert rec.output.samples.tobytes() == want.tobytes()
        assert (rec.output.samples_per_period, rec.output.period_count) == (n, periods)

    def test_steady_state_criterion_met(self):
        # The noise-free record is the exact periodic steady state from its
        # first sample: its periods repeat bit for bit and nothing led in.
        u = flat_multisine(n=64, seed=3).tile(3)
        lti = RationalLTI(**LOWPASS)
        rec = HammersteinSimulator(lti, CUBIC).run(u)
        assert rec.lead_in_samples == 0
        periods = rec.output.samples.reshape(3, 64)
        assert (periods == periods[0]).all()
        np.testing.assert_array_equal(periods[0], lti.filter(CUBIC(u.period(0))))

    def test_open_loop_has_no_warmup_knob_or_fields(self):
        with pytest.raises(TypeError, match="warmup_minimum"):
            HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC, warmup_minimum=9)
        rec = HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC, 0.01).run(
            flat_multisine(n=64, seed=3), derive_rng(0, "process_noise"))
        assert not hasattr(rec, "warmup_periods")
        assert not hasattr(rec, "steady_state_residual")
        # The lead-in is whole periods: 16 of 64 cover the 1000-sample floor.
        assert RationalLTI(**LOWPASS).settling_length() == 1000
        assert rec.lead_in_samples == 1024

    def test_zero_input_exercises_pure_noise_path(self):
        n = 128
        u = PeriodicSignal(np.zeros(n), n, 1, 1.0)
        lti = RationalLTI(**LOWPASS)
        sim = HammersteinSimulator(lti, CUBIC, process_noise_variance=0.25,
                                   output_noise_variance=0.04)
        rec = sim.run(u, process_noise_rng=derive_rng(7, "nx"),
                      output_noise_rng=derive_rng(7, "ny"))
        # Rebuild the output from the noise its streams give: the run
        # filters the process noise over whole periods, its lead-in (8 periods
        # of 128 cover settling_length()) and the record, as one period of a
        # periodic signal.  The recursion over two repeats of that stretch
        # holds its steady state in the last repeat; the output noise covers
        # the record only.
        total = 8 * n + n
        assert rec.lead_in_samples == 8 * n >= lti.settling_length() > 7 * n
        nx_full = generate_noise(0.25, total, derive_rng(7, "nx"))
        ny = generate_noise(0.04, n, derive_rng(7, "ny"))
        y_full = sps.lfilter(lti.numerator, lti.denominator, np.tile(CUBIC(nx_full), 2))
        np.testing.assert_allclose(rec.output.samples, y_full[-n:] + ny, rtol=1e-12)
        periodic = lti.filter(CUBIC(np.tile(u.period(0), 9) + nx_full))
        assert rec.output.samples.tobytes() == (periodic[-n:] + ny).tobytes()

    def test_lead_in_settles_slow_dynamics(self):
        # S has a 99.5-sample time constant.  The reference puts a much
        # longer noise history before the run's own nx (lead-in included) and
        # runs all of it from zero state, so its record carries the fully
        # settled response to the noise; the run's lead-in must bring its
        # record within 1e-9 of the peak.  (The same nx behind a noise-free
        # warm-up alone would match any lead-in, since S is linear.)
        slow = RationalLTI(b=[0.01], a=[1.0, -0.99])
        n, p = 64, 2
        u = flat_multisine(n=n, seed=10).tile(p)
        sim = HammersteinSimulator(slow, CUBIC, process_noise_variance=0.04)
        rec = sim.run(u, process_noise_rng=derive_rng(5, "nx"))
        nx = generate_noise(0.04, rec.lead_in_samples + p * n, derive_rng(5, "nx"))
        history = np.concatenate(
            [generate_noise(0.04, 150 * n - nx.size, derive_rng(5, "history")), nx])
        x = np.tile(u.period(0), history.size // n) + history
        reference = sps.lfilter(slow.numerator, slow.denominator, CUBIC(x))[-p * n:]
        np.testing.assert_allclose(rec.output.samples, reference, rtol=0,
                                   atol=1e-9 * np.abs(reference).max())

    def test_settling_beyond_warmup_budget_raises_before_drawing(self, monkeypatch):
        # tau = 1e6 samples settles in about 2.3e7 samples, more than 64
        # periods of 64: the guard refuses before any noise is drawn or any
        # sample is filtered.
        glacial = RationalLTI(b=[1e-6], a=[1.0, -np.exp(-1e-6)])
        sim = HammersteinSimulator(glacial, CUBIC, process_noise_variance=0.01)
        monkeypatch.setattr(glacial, "filter", lambda x: pytest.fail("filtered"))
        rng = derive_rng(3, "nx")
        state = rng.bit_generator.state
        with pytest.raises(InstabilityError,
                           match=rf"64 warm-up periods: .* {glacial.settling_length()} samples"):
            sim.run(flat_multisine(n=64, seed=3), process_noise_rng=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("dynamics", [dict(b=[1.0]), LOWPASS])
    def test_short_periods_settle_below_the_lead_in_floor(self, dynamics):
        # 64 periods of 8 are fewer than the 1000-sample floor of
        # settling_length(), but these dynamics decay within a few dozen
        # samples: the guard lets the run through, and its lead-in is the
        # floor.
        u = flat_multisine(n=8, seed=3).tile(2)
        sim = HammersteinSimulator(RationalLTI(**dynamics), CUBIC, process_noise_variance=0.01)
        rec = sim.run(u, process_noise_rng=derive_rng(3, "nx"))
        assert rec.lead_in_samples == 1000
        assert np.isfinite(rec.output.samples).all()

    @settings(max_examples=60, deadline=None)
    @given(pole=st.floats(0.0, 0.9999, exclude_min=True), n=st.integers(4, 512))
    def test_guard_refuses_exactly_the_dynamics_slower_than_64_periods(self, pole, n):
        lti = RationalLTI(b=[1.0 - pole], a=[1.0, -pole])
        sim = HammersteinSimulator(lti, CUBIC, process_noise_variance=0.01)
        rng = derive_rng(2, "nx")
        state = rng.bit_generator.state
        if lti._decay_length() > 64 * n:
            with pytest.raises(InstabilityError, match="64 warm-up periods"):
                sim.run(flat_multisine(n=n, seed=1).tile(2), process_noise_rng=rng)
            assert rng.bit_generator.state == state  # refused before any draw
        else:
            rec = sim.run(flat_multisine(n=n, seed=1).tile(2), process_noise_rng=rng)
            assert rec.lead_in_samples == math.ceil(lti.settling_length() / n) * n

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 2048), p=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_noisy_run_leads_in_whole_periods(self, n, p, seed):
        # The lead-in is the fewest whole periods spanning settling_length(),
        # and the process noise is drawn over it and the record, no more.
        lti = RationalLTI(**LOWPASS)
        u = PeriodicSignal(np.tile(np.random.default_rng(seed).standard_normal(n), p),
                           n, p, 1.0)
        sim = HammersteinSimulator(lti, CUBIC, process_noise_variance=0.01)
        rng = derive_rng(seed, "nx")
        rec = sim.run(u, process_noise_rng=rng)
        lead = math.ceil(lti.settling_length() / n) * n
        assert rec.lead_in_samples == lead
        assert sim.required_warmup(u) == (lead // n, lead)
        twin = derive_rng(seed, "nx")
        nx = generate_noise(0.01, lead + p * n, twin)
        assert rng.bit_generator.state == twin.bit_generator.state
        y = lti.filter(CUBIC(np.tile(u.period(0), lead // n + p) + nx))[lead:]
        assert rec.output.samples.tobytes() == (y + generate_noise(0.0, p * n)).tobytes()

    def test_aperiodic_input_rejected(self):
        u = flat_multisine(n=64, seed=3).tile(3)
        samples = u.samples.copy()
        samples[2 * 64 + 5] += 1e-12
        sim = HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC)
        with pytest.raises(ValueError, match="input period 2 differs from period 0"):
            sim.run(PeriodicSignal(samples, 64, 3, 1.0))

    def test_odd_nonlinearity_keeps_output_zero_mean(self):
        # iid Gaussian excitation over one long period; the mean of y is the
        # filter DC gain times the mean of the iid inner signal f(u + nx),
        # whose standard error is the honest scale for the bound.
        rng = np.random.default_rng(11)
        n = 1024 * 98
        u = PeriodicSignal(rng.standard_normal(n), n, 1, 1.0)
        lti = RationalLTI(**LOWPASS)
        rec = HammersteinSimulator(lti, CUBIC, 0.01, 0.0009).run(
            u, derive_rng(13, "process_noise"), derive_rng(13, "output_noise"))
        lead = rec.lead_in_samples
        nx = generate_noise(0.01, lead + n, derive_rng(13, "process_noise"))
        ny = generate_noise(0.0009, n, derive_rng(13, "output_noise"))
        y_full = lti.filter(CUBIC(np.tile(u.samples, lead // n + 1) + nx))
        assert rec.output.samples.tobytes() == (y_full[lead:] + ny).tobytes()
        inner = CUBIC(u.samples + nx[lead:])
        dc_gain = abs(lti.numerator.sum() / lti.denominator.sum())
        y = rec.output.samples
        assert abs(y.mean()) < 4.0 * dc_gain * inner.std() / np.sqrt(y.size)

    def test_superposition_for_identity_nonlinearity(self):
        lti = RationalLTI(b=[1.0, 0.4], a=[1.0, -0.5])
        f = PolynomialNonlinearity.identity()
        u1 = flat_multisine(n=64, seed=1)
        u2 = flat_multisine(n=64, seed=2)
        u12 = PeriodicSignal(u1.samples + u2.samples, 64, 1, 1.0)
        sim = HammersteinSimulator(lti, f)
        y1 = sim.run(u1).output.samples
        y2 = sim.run(u2).output.samples
        y12 = sim.run(u12).output.samples
        np.testing.assert_allclose(y12, y1 + y2, atol=1e-10)

    def test_noiseless_run_is_seed_independent(self):
        u = flat_multisine(n=64, seed=4)
        sim = HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC)
        a = sim.run(u, derive_rng(1, "process_noise"), derive_rng(1, "output_noise"))
        b = sim.run(u, derive_rng(999, "process_noise"), derive_rng(999, "output_noise"))
        np.testing.assert_array_equal(a.output.samples, b.output.samples)

    def test_noise_requires_rng(self):
        u = flat_multisine(n=64)
        sim = HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC,
                                   process_noise_variance=0.1)
        with pytest.raises(ValueError, match="rng"):
            sim.run(u)

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_invalid_noise_variance_rejected(self, value):
        plant_lti, actuator, feedback = linear_loop_blocks()
        for name in ("process_noise_variance", "output_noise_variance"):
            with pytest.raises(ConfigurationError, match=f"{name} must be finite and >= 0"):
                HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC, **{name: value})
        for name in ("input_noise_variance", "process_noise_variance",
                     "output_noise_variance"):
            with pytest.raises(ConfigurationError, match=f"{name} must be finite and >= 0"):
                ClosedLoopConfig(HammersteinPlant(plant_lti, CUBIC), actuator, feedback,
                                 **{name: value})

    def test_mean_over_noise_seeds_matches_noise_averaged_system(self):
        # For the cubic, averaging over the process noise leaves
        # S[u + c u^3 + 3 c s2 u]; check the Monte-Carlo mean against it.
        n = 128
        u = flat_multisine(n=n, seed=6)
        lti = RationalLTI(**LOWPASS)
        s2 = 0.04
        sim = HammersteinSimulator(lti, CUBIC, process_noise_variance=s2)
        draws = 400
        acc = np.zeros(n)
        acc2 = np.zeros(n)
        for i in range(draws):
            y = sim.run(u, process_noise_rng=derive_rng(100, "mc", i)).output.samples
            acc += y
            acc2 += y ** 2
        mean = acc / draws
        std = np.sqrt(acc2 / draws - mean ** 2)
        inner = u.samples + 0.1 * u.samples ** 3 + 0.3 * s2 * u.samples
        predicted = lti.filter(inner)
        assert np.all(np.abs(mean - predicted) < 4.5 * std / np.sqrt(draws) + 1e-12)

        # The same prediction must fall out of contracting the dual-kernel
        # representation of f(u + nx) against the white-noise moments.
        kernels = (
            DualVolterraKernel(1, 0, np.array([1.0])),
            DualVolterraKernel(0, 1, np.array([1.0])),
            DualVolterraKernel(3, 0, 0.1 * np.ones((1, 1, 1))),
            DualVolterraKernel(2, 1, 0.3 * np.ones((1, 1, 1))),
            DualVolterraKernel(1, 2, 0.3 * np.ones((1, 1, 1))),
            DualVolterraKernel(0, 3, 0.1 * np.ones((1, 1, 1))),
        )
        model = NoiseMomentModel.white(s2)
        contracted = sum(
            evaluate_kernel(expected_kernel(kern, model), u.samples)
            for kern in kernels
        )
        via_kernels = lti.filter(contracted)
        np.testing.assert_allclose(via_kernels, predicted, rtol=1e-12, atol=1e-14)


def gaussian_expansion(coefficients, x, variance):
    """``E f(x + n)`` and ``Var f(x + n)`` for ``n ~ N(0, variance)``, in exact
    rationals from the ``gaussian_power_moment`` expansion, rounded to floats."""
    c = [Fraction(0)] + [Fraction(v) for v in coefficients]  # ascending, f(0) = 0
    square = [Fraction(0)] * (2 * len(c) - 1)
    for i, ci in enumerate(c):
        for k, ck in enumerate(c):
            square[i + k] += ci * ck
    s2 = Fraction(variance)

    def expect(poly, x):  # sum_p poly_p sum_j C(p, j) x^(p-j) E n^j; odd moments vanish
        return sum(coefficient * math.comb(p, j) * x ** (p - j) * gaussian_power_moment(j, s2)
                   for p, coefficient in enumerate(poly) for j in range(0, p + 1, 2))

    moments = [(expect(c, Fraction(v)), expect(square, Fraction(v))) for v in x]
    return (np.array([float(m) for m, _ in moments]),
            np.array([float(m2 - m * m) for m, m2 in moments]))


def brute_force_variance(lti, v):
    """``(1/N) sum_tau v(tau) |H_k(tau)|^2`` on bins ``0..N//2``: ``H_k(tau)`` is the
    unnormalized period DFT of the response to a unit impulse at ``tau``, from an
    ``lfilter`` impulse response over ``4 settling_length()`` lags."""
    n = v.size
    lags = 4 * lti.settling_length()
    impulse = np.zeros(lags + n)
    impulse[0] = 1.0
    h = sps.lfilter(lti.numerator, lti.denominator, impulse)
    tau = np.arange(-lags, n)
    lag = np.arange(n)[None, :] - tau[:, None]
    response = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
    return (v[tau % n][:, None] * np.abs(np.fft.rfft(response, axis=1)) ** 2).sum(axis=0) / n


DEMO_S = RationalLTI(b=[0.25, 0.2], a=[1.0, -1.1, 0.46])


class TestProcessNoiseStatistics:
    """The closed-form noise average and process-noise spectrum."""

    @settings(max_examples=100, deadline=None)
    @given(coefficients=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9),
           variance=st.floats(1e-4, 10.0),
           x=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    def test_quadrature_moments_match_gaussian_expansion(self, coefficients, variance, x):
        # Each f(x + n) at a quadrature point is rounded to about eps times
        # sum_p |c_p| |x + n|^p; the points lie within 4.86 sigma of x.
        # Results below the smallest normal float (tiny coefficients) are
        # subnormal and carry no relative precision, hence the floor.
        f = PolynomialNonlinearity(coefficients)
        mean, var = _noise_moments(f, np.array(x), variance)
        want_mean, want_var = gaussian_expansion(f.coefficients, x, variance)
        reach = np.abs(x) + 5.0 * np.sqrt(variance)
        scale = sum(abs(c) * reach ** p for p, c in enumerate(f.coefficients, start=1))
        floor = np.finfo(float).tiny
        assert np.all(np.abs(mean - want_mean) <= 1e-12 * scale + floor)
        assert np.all(np.abs(var - want_var) <= 1e-12 * scale ** 2 + floor)

    @pytest.mark.parametrize("degree", range(1, 10))
    def test_variance_sweep_matches_exact_rationals(self, degree):
        # Over variances 2^-12 .. 2^3, dyadic coefficients and samples (exact
        # floats).  The variance is a sum of squares of g's derivatives, whose
        # round-off stays within a few eps of the variance of |f| at |x|,
        # where no term cancels (1.5 eps at most here).
        rng = np.random.default_rng(degree)
        f = PolynomialNonlinearity(rng.integers(-16, 17, degree) / 8)
        x = rng.integers(-48, 49, 6) / 16
        for variance in 2.0 ** np.arange(-12, 4, 3):
            _, var = _noise_moments(f, x, float(variance))
            want = gaussian_expansion(f.coefficients, x, variance)[1]
            scale = gaussian_expansion(np.abs(f.coefficients), np.abs(x), variance)[1]
            assert np.all(np.abs(var - want) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("n", [64, 63])
    @pytest.mark.parametrize("dynamics", [
        DEMO_S, RationalLTI(b=[0.7]), RationalLTI(b=[0.5, -0.3, 0.2, 0.1]),
        RationalLTI(b=[0.01], a=[1.0, -0.99]),
    ], ids=["demo", "static-gain", "fir", "pole-0.99"])
    def test_spectrum_matches_brute_force_sum(self, dynamics, n):
        u = flat_multisine(n=n, bins=np.arange(1, (n + 1) // 2), seed=n)
        sim = HammersteinSimulator(dynamics, CUBIC, process_noise_variance=0.04)
        _, var_process = process_noise_statistics(sim, u)
        _, v = _noise_moments(CUBIC, u.period(0), 0.04)
        np.testing.assert_allclose(var_process, brute_force_variance(dynamics, v), rtol=1e-12)

    def test_noise_average_is_the_filtered_mean_of_f(self):
        # E f(u + nx) = u + 0.1 (u^3 + 3 s2 u) for the cubic, one period of it.
        u = flat_multisine(n=64, seed=6).tile(3)
        sim = HammersteinSimulator(DEMO_S, CUBIC, process_noise_variance=0.04)
        y_mean, _ = process_noise_statistics(sim, u)
        inner = u.samples + 0.1 * u.samples ** 3 + 0.3 * 0.04 * u.samples
        expected = DEMO_S.filter(inner[:64])
        np.testing.assert_allclose(y_mean, expected, rtol=0,
                                   atol=1e-13 * np.abs(expected).max())

    def test_without_process_noise_it_is_the_periodic_output(self):
        u = flat_multisine(n=64, seed=6).tile(2)
        sim = HammersteinSimulator(DEMO_S, CUBIC)
        y_mean, var_process = process_noise_statistics(sim, u)
        assert np.array_equal(np.tile(y_mean, 2), sim.run(u).output.samples)
        assert np.array_equal(var_process, np.zeros(33))

    def test_aperiodic_input_and_overflow_rejected(self):
        u = flat_multisine(n=64, seed=3).tile(2)
        samples = u.samples.copy()
        samples[64 + 5] += 1e-12
        sim = HammersteinSimulator(DEMO_S, CUBIC, process_noise_variance=0.01)
        with pytest.raises(ValueError, match="input period 1 differs from period 0"):
            process_noise_statistics(sim, PeriodicSignal(samples, 64, 2, 1.0))
        f = PolynomialNonlinearity(coefficients=[1.0] + [0.0] * 7 + [1e300])
        sim = HammersteinSimulator(DEMO_S, f, process_noise_variance=100.0)
        with np.errstate(all="raise"), pytest.raises(InstabilityError) as info:
            process_noise_statistics(sim, flat_multisine(n=64, seed=9, rms=1e-200))
        assert info.value.peak == np.inf

    def test_process_noise_is_white_only(self):
        with pytest.raises(TypeError, match="process_noise_coloring"):
            HammersteinSimulator(DEMO_S, CUBIC, process_noise_coloring=DEMO_S)
        with pytest.raises(TypeError, match="coloring"):
            generate_noise(1.0, 8, 0, coloring=DEMO_S)


class TestProcessNoiseEnsemble:
    """``run`` draw by draw, and ``process_noise_statistics`` against an ensemble of runs."""

    @pytest.mark.parametrize("process_var", [0.04, 0.0], ids=["white", "zero"])
    def test_matches_per_draw_runs(self, process_var):
        # With output noise on, a run is its noise-free twin plus that noise.
        u = flat_multisine(n=64, seed=8).tile(3)
        sim, twin = (HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC,
                                          process_noise_variance=process_var,
                                          output_noise_variance=output_var)
                     for output_var in (0.01, 0.0))
        draws = [twin.run(u, process_noise_rng=derive_rng(4, "ens", i)).output.samples
                 for i in range(5)]
        for i, y in enumerate(draws):
            rec = sim.run(u, derive_rng(4, "ens", i), derive_rng(4, "ny", i))
            ny = generate_noise(0.01, y.size, derive_rng(4, "ny", i))
            assert ny.any()
            assert np.array_equal(rec.output.samples, y + ny)
        assert np.array_equal(draws[0], draws[1]) == (process_var == 0.0)

    @pytest.mark.parametrize("process_var", [0.04, 0.0])
    def test_one_filter_call_per_noisy_draw(self, monkeypatch, process_var):
        # Every run filters once: with process noise, f(u + nx) over its
        # whole lead-in (16 periods of 64) and record (2 periods); without
        # it, one period of f(u).  The closed form filters the
        # noise-averaged period once.
        calls = []
        original = RationalLTI.filter
        monkeypatch.setattr(RationalLTI, "filter",
                            lambda self, x: calls.append(np.shape(x)) or original(self, x))
        sim = HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC,
                                   process_noise_variance=process_var)
        u = flat_multisine(n=64, seed=8).tile(2)
        for i in range(6):
            sim.run(u, process_noise_rng=derive_rng(4, i))
        assert calls == [((16 + 2) * 64,) if process_var else (64,)] * 6
        calls.clear()
        process_noise_statistics(sim, u)
        assert calls == [(64,)]

    def test_consumer_keeps_its_floating_point_error_handling(self):
        # Overflow is silenced inside a call, never for its caller.
        sim = HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC, process_noise_variance=0.04)
        u = flat_multisine(n=64, seed=8).tile(2)
        with np.errstate(over="raise", invalid="warn"):
            before = np.geterr()
            sim.run(u, process_noise_rng=derive_rng(4, 0))
            assert np.geterr() == before
            process_noise_statistics(sim, u)
            assert np.geterr() == before

    def test_warmup_probed_once(self, monkeypatch):
        # A run asks for its lead-in once; the closed form needs none.
        sim = HammersteinSimulator(RationalLTI(**LOWPASS), CUBIC, process_noise_variance=0.04)
        calls = []
        probe = HammersteinSimulator.required_warmup
        monkeypatch.setattr(HammersteinSimulator, "required_warmup",
                            lambda self, u: calls.append(1) or probe(self, u))
        u = flat_multisine(n=64, seed=8).tile(2)
        sim.run(u, process_noise_rng=derive_rng(4, 0))
        assert len(calls) == 1
        process_noise_statistics(sim, u)
        assert len(calls) == 1

    # Nine cases of two checks each, every check at level FALSE_FAIL / 18, so
    # a correct closed form fails this test with probability at most about 1e-3.
    FALSE_FAIL = 1e-3

    @pytest.mark.parametrize("dynamics", [
        DEMO_S, RationalLTI(b=[0.05], a=[1.0, -0.95]), RationalLTI(b=[0.01], a=[1.0, -0.99]),
    ], ids=["demo", "pole-0.95", "pole-0.99"])
    @pytest.mark.parametrize("n, draws", [(64, 800), (255, 400), (4096, 200)])
    def test_closed_form_matches_monte_carlo_ensemble(self, dynamics, n, draws):
        # Draw i is one period of run(u) under a fresh generator of its own, so
        # the K draws are independent.  Against the exact mean spectrum mu_k,
        # a bin's sum of |Y_k - mu_k|^2 / var_k over the draws has mean K and
        # is chi^2(K) for a real Gaussian bin (DC, Nyquist); a complex bin's
        # sum is less spread, whatever the correlation of its real and
        # imaginary parts.  So every bin's sum must lie in the chi^2(K)
        # interval at its Bonferroni share of the level, which holds however
        # the bins are correlated.  They are correlated, as they share the
        # periodic variance v, so they are pooled only within a draw: the
        # per-draw mean of |Y_k - mu_k|^2 / var_k over the bins has mean 1,
        # and its t statistic over the independent draws must lie within the
        # normal quantile.
        u = flat_multisine(n=n, bins=np.arange(1, (n + 1) // 2), seed=n)
        sim = HammersteinSimulator(dynamics, CUBIC, process_noise_variance=0.01)
        y_mean, var_process = process_noise_statistics(sim, u)
        mu = period_spectra(y_mean, n)[0]
        spectra = period_spectra(np.concatenate([
            sim.run(u, process_noise_rng=derive_rng(n, "ensemble", i)).output.samples
            for i in range(draws)]), n)
        ratio = np.abs(spectra - mu) ** 2 / var_process
        level = self.FALSE_FAIL / 18
        bins = var_process.size
        low, high = stats.chi2.ppf([level / (2 * bins), 1 - level / (2 * bins)], draws)
        per_bin = ratio.sum(axis=0)
        assert np.all((low <= per_bin) & (per_bin <= high)), (low, high, per_bin.min(),
                                                              per_bin.max())
        pooled = ratio.mean(axis=1)
        t = (pooled.mean() - 1.0) / (pooled.std(ddof=1) / np.sqrt(draws))
        assert abs(t) <= NormalDist().inv_cdf(1 - level / 2), t


class TestInstabilityDiagnostics:
    """A large-coefficient polynomial that only noisy draws push past the limit."""

    @staticmethod
    def make():
        # Noise-free, f(u) ~ 1e20 * (1e-6)^9 is tiny and the probe converges;
        # with unit process noise, 1e20 * x^9 dwarfs DIVERGENCE_LIMIT.
        f = PolynomialNonlinearity(coefficients=[1.0] + [0.0] * 7 + [1e20])
        sim = HammersteinSimulator(RationalLTI(**LOWPASS), f, process_noise_variance=1.0)
        return sim, flat_multisine(n=64, seed=9, rms=1e-6).tile(2)

    def test_run_names_period_and_peak(self):
        sim, u = self.make()
        with pytest.raises(InstabilityError, match="DIVERGENCE_LIMIT") as info:
            sim.run(u, process_noise_rng=derive_rng(1, "nx"))
        err = info.value
        assert not hasattr(err, "draw")
        assert err.period == 0
        assert err.peak > DIVERGENCE_LIMIT
        assert "draw" not in str(err) and f"{err.peak:.6g}" in str(err)

    def test_overflow_reports_infinite_peak(self):
        f = PolynomialNonlinearity(coefficients=[1.0] + [0.0] * 7 + [1e300])
        sim = HammersteinSimulator(RationalLTI(**LOWPASS), f, process_noise_variance=100.0)
        u = flat_multisine(n=64, seed=9, rms=1e-200).tile(2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InstabilityError) as info:
            sim.run(u, process_noise_rng=derive_rng(1, "a"))
        assert info.value.period == 0 and info.value.peak == np.inf


def study_kernels():
    """The four kernels of the benchmark's Volterra study, twelve nonzero terms."""
    cubic = np.zeros((2, 2, 2))
    cubic[0, 0, 0], cubic[0, 0, 1], cubic[0, 1, 1], cubic[1, 1, 1] = 0.04, 0.02, 0.01, 0.005
    cross = np.zeros((2, 2, 2))
    cross[0, 0, 0], cross[0, 0, 1], cross[1, 1, 1] = 0.5, 0.2, 0.25
    return (
        DualVolterraKernel(1, 0, np.array([0.5, 0.25, 0.1])),
        DualVolterraKernel(0, 1, np.array([1.0, 0.5])),
        DualVolterraKernel(3, 0, cubic),
        DualVolterraKernel(1, 2, cross),
    )


def scalar_plant(plant):
    """The plant's static part ``p = plant(u0, nx)``, one sample at a time in
    Python floats: ``f`` by Horner's rule in polyval's order, or the Volterra
    terms as ``((c * u_a) * u_b) * nx_c``, added one after another onto ``0.0``."""
    if isinstance(plant, HammersteinPlant):
        highest, *lower = plant.nonlinearity.coefficients[::-1].tolist()

        def output(u0, nx):
            x = u0 + nx
            acc = highest + x * 0.0
            for c in (*lower, 0.0):
                acc = c + acc * x
            return acc

        return output
    u_past, nx_past = [], []  # latest first

    def output(u0, nx):
        u_past.insert(0, u0)
        nx_past.insert(0, nx)
        total = 0.0
        for kernel in plant.kernels:
            for c, u_lags, nx_lags in kernel.terms:
                for history, lags in ((u_past, u_lags), (nx_past, nx_lags)):
                    for lag in lags:
                        c *= history[lag] if lag < len(history) else 0.0
                total += c
        return total

    return output


def loop_noise(config, seed, m, n, periods, noisy=True):
    """Realization ``m``'s process noise over ``periods`` periods of ``n``, as
    the loop draws it (zeros for the noise-free loop)."""
    if not noisy:
        return [0.0] * (n * periods)
    rng = derive_rng(seed, "loop_process_noise", m)
    return [nx for _ in range(periods)
            for nx in generate_noise(config.process_noise_variance, n, rng).tolist()]


def scalar_loop(config, reference, seed, m, periods):
    """Noise-free input and output of realization ``m``'s noisy loop over its
    first ``periods`` periods, in Python floats: a ``ScalarDFII`` per linear
    block around ``scalar_plant``."""
    plant = config.plant
    act, fb = (ScalarDFII(lti.numerator.tolist(), lti.denominator.tolist())
               for lti in (config.actuator, config.feedback))
    dynamics = getattr(plant, "dynamics", RationalLTI.identity())
    s = ScalarDFII(dynamics.numerator.tolist(), dynamics.denominator.tolist())
    static = scalar_plant(plant)
    r = reference.period(0).tolist() * periods
    u0s, y0s = [], []
    for r_t, nx in zip(r, loop_noise(config, seed, m, len(r) // periods, periods)):
        u0s.append(act.step(r_t - fb.head))
        y0s.append(s.step(static(u0s[-1], nx)))
        fb.step(y0s[-1])
    return np.array(u0s), np.array(y0s)


def scalar_loop_map(config):
    """The loop's linear blocks as one map in Python floats, rows
    ``[u0(t+1), y0(t), x(t+1)]`` and columns ``[x(t), p(t), r(t), r(t+1)]``,
    where ``x`` stacks the ``ScalarDFII`` taps of ``S``, ``G_act`` and ``M``:
    column ``j`` is one step of the three recursions from the ``j``-th unit
    vector.  ``M`` is strictly delayed, so ``u0(t+1)`` is ``G_act``'s next
    output on ``r(t+1)`` minus ``M``'s next head."""
    dynamics = getattr(config.plant, "dynamics", RationalLTI.identity())
    specs = [(lti.numerator.tolist(), lti.denominator.tolist())
             for lti in (dynamics, config.actuator, config.feedback)]
    columns = []
    for j in range(sum(ScalarDFII(*spec).order for spec in specs) + 3):
        s, act, fb = (ScalarDFII(*spec) for spec in specs)
        unit = [float(i == j) for i in range(len(s.z) + len(act.z) + len(fb.z) + 3)]
        s.z, act.z, fb.z = (unit[:len(s.z)], unit[len(s.z):len(s.z) + len(act.z)],
                            unit[len(s.z) + len(act.z):-3])
        p, r, r_next = unit[-3:]
        y0 = s.step(p)
        act.step(r - fb.step(y0))
        z_act = act.z
        columns.append([act.step(r_next - fb.head), y0, *s.z, *z_act, *fb.z])
    return [list(row) for row in zip(*columns)]


def map_loop(config, reference, seed, m, periods, noisy=True, noise=None):
    """Noise-free input and output of realization ``m``'s loop (its noisy one
    unless ``noisy`` is False) over its first ``periods`` periods, in Python
    floats: ``scalar_loop_map`` applied a sample at a time, each entry summed
    over the columns in order onto ``0.0``, from the zero state and
    ``u0(0) = b_act0 r(0)``, around ``scalar_plant``.  A given ``noise``, a
    whole number of periods, replaces the drawn process noise."""
    rows = scalar_loop_map(config)
    static = scalar_plant(config.plant)
    r = reference.period(0).tolist()
    n = len(r)
    x, u0 = [0.0] * (len(rows) - 2), config.actuator.numerator[0].item() * r[0]
    u0s, y0s = [], []
    if noise is None:
        noise = loop_noise(config, seed, m, n, periods, noisy)
    for t, nx in enumerate(noise):
        v = [*x, static(u0, nx), r[t % n], r[(t + 1) % n]]
        u0s.append(u0)
        out = []
        for row in rows:
            acc = 0.0
            for a, v_j in zip(row, v):
                acc += a * v_j
            out.append(acc)
        u0, y0, x = out[0], out[1], out[2:]
        y0s.append(y0)
    return np.array(u0s), np.array(y0s)


@st.composite
def stable_blocks(draw, min_order, delayed=False):
    """A block of order ``min_order`` to 3 with ``order + 1`` numerator taps,
    ``b[0] = 0`` when ``delayed``, and up to ``order`` poles of radius <= 0.8,
    real or in complex pairs."""
    order = draw(st.integers(min_order, 3))
    b = draw(st.lists(st.floats(-1.0, 1.0), min_size=order + 1, max_size=order + 1))
    if delayed:
        b[0] = 0.0
    count, poles = draw(st.integers(0, order)), []
    while len(poles) < count:
        if count - len(poles) >= 2 and draw(st.booleans()):
            pole = draw(st.floats(0.0, 0.8)) * np.exp(1j * draw(st.floats(0.1, np.pi - 0.1)))
            poles += [pole, pole.conjugate()]
        else:
            poles.append(draw(st.floats(-0.8, 0.8)))
    return RationalLTI(b=b, a=np.real(np.poly(poles)))


def linear_loop_blocks():
    plant_lti = RationalLTI(b=[0.3, 0.1], a=[1.0, -0.6])
    actuator = RationalLTI(b=[0.9], a=[1.0, -0.2])
    feedback = RationalLTI(b=[0.0, 0.4], a=[1.0, -0.1])
    return plant_lti, actuator, feedback


# A loop whose realizations, on the references of master seed 32, record
# from different periods.
STAGGERED_LOOP = ClosedLoopConfig(
    plant=HammersteinPlant(RationalLTI(b=[0.1], a=[1.0, -0.9]),
                           PolynomialNonlinearity.identity()),
    actuator=RationalLTI(b=[0.5]),
    feedback=RationalLTI(b=[0.0, 0.5]),
    process_noise_variance=0.01,
)


def staggered_references(periods):
    return [flat_multisine(n=64, seed=derive_rng(32, "reference", m)).tile(periods)
            for m in range(4)]


def assert_same_loop_record(a, b):
    assert (a.warmup_periods, a.steady_state_residual) == \
        (b.warmup_periods, b.steady_state_residual)
    for name in ("reference", "input_measured", "output_measured"):
        np.testing.assert_array_equal(getattr(a, name).samples, getattr(b, name).samples)


class TestClosedLoop:
    def test_feedback_without_delay_rejected(self):
        plant_lti, actuator, _ = linear_loop_blocks()
        with pytest.raises(ConfigurationError, match="delay"):
            ClosedLoopConfig(
                plant=HammersteinPlant(plant_lti, PolynomialNonlinearity.identity()),
                actuator=actuator,
                feedback=RationalLTI(b=[0.5], a=[1.0]),
            )

    def test_zero_feedback_reduces_to_open_loop(self):
        plant_lti, actuator, _ = linear_loop_blocks()
        config = ClosedLoopConfig(
            plant=HammersteinPlant(plant_lti, CUBIC),
            actuator=actuator,
            feedback=RationalLTI([0.0]),
        )
        r = flat_multisine(n=64, seed=8).tile(2)
        rec = simulate_closed_loop_batch(config, [r], seed=5)[0]
        u0 = PeriodicSignal(actuator.filter(r.period(0)), 64, 1, r.sampling_frequency).tile(2)
        y0 = HammersteinSimulator(plant_lti, CUBIC).run(u0)
        # Without measurement noise the measured signals are the loop's own.
        np.testing.assert_allclose(rec.output_measured.samples, y0.output.samples, atol=1e-9)
        np.testing.assert_allclose(rec.input_measured.samples, u0.samples, atol=1e-9)

    def test_linear_noiseless_loop_measures_plant_exactly(self):
        plant_lti, actuator, feedback = linear_loop_blocks()
        config = ClosedLoopConfig(
            plant=HammersteinPlant(plant_lti, PolynomialNonlinearity.identity()),
            actuator=actuator,
            feedback=feedback,
        )
        r = flat_multisine(n=128, seed=9).tile(2)
        rec = simulate_closed_loop_batch(config, [r], seed=0)[0]
        u_spec = dft(rec.input_measured).bins
        y_spec = dft(rec.output_measured).bins
        bins = np.arange(1, 64)
        got = y_spec[bins] / u_spec[bins]
        expected = plant_lti.bin_response(128)[bins]
        assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-8

    def test_reference_to_output_matches_closed_form(self):
        plant_lti, actuator, feedback = linear_loop_blocks()
        config = ClosedLoopConfig(
            plant=HammersteinPlant(plant_lti, PolynomialNonlinearity.identity()),
            actuator=actuator,
            feedback=feedback,
        )
        r = flat_multisine(n=128, seed=10).tile(2)
        rec = simulate_closed_loop_batch(config, [r], seed=0)[0]
        bins = np.arange(1, 64)
        g = plant_lti.bin_response(128)
        g_act = actuator.bin_response(128)
        m = feedback.bin_response(128)
        closed_form = (g * g_act / (1.0 + g_act * g * m))[bins]
        got = dft(rec.output_measured).bins[bins] / dft(rec.reference).bins[bins]
        assert np.max(np.abs(got - closed_form) / np.abs(closed_form)) < 1e-8

    def test_divergent_loop_raises(self):
        plant_lti = RationalLTI(b=[1.0], a=[1.0, -0.9])
        config = ClosedLoopConfig(
            plant=HammersteinPlant(plant_lti, PolynomialNonlinearity(coefficients=[1.0, 0.0, 2.0])),
            actuator=RationalLTI(b=[50.0]),
            feedback=RationalLTI(b=[0.0, 5.0]),
        )
        r = flat_multisine(n=64, seed=11, rms=10.0).tile(2)
        with pytest.raises(InstabilityError,
                           match="closed loop, realization 0, simulated period 0") as info:
            simulate_closed_loop_batch(config, [r], seed=1)
        assert info.value.period == 0 and info.value.peak == np.inf

        # A linear loop with its closed-loop pole at -1.05 grows slowly, so the
        # limit is crossed several periods into the warm-up; the exact
        # recursion y = r / (1 + 1.05 q^-1) says where.
        config = ClosedLoopConfig(
            plant=HammersteinPlant(RationalLTI(b=[1.0], a=[1.0, -0.9]),
                                   PolynomialNonlinearity.identity()),
            actuator=RationalLTI(b=[1.0]),
            feedback=RationalLTI(b=[0.0, 1.95]),
        )
        quiet = flat_multisine(n=64, seed=11, rms=1e-30).tile(2)
        r = flat_multisine(n=64, seed=11).tile(2)
        y = sps.lfilter([1.0], [1.0, 1.05], np.tile(r.period(0), 20))
        period = int(np.flatnonzero(np.abs(y) > DIVERGENCE_LIMIT)[0]) // 64
        with pytest.raises(InstabilityError) as info:
            simulate_closed_loop_batch(config, [quiet, r], seed=1)
        err = info.value
        assert err.period == period > 1
        assert err.peak == pytest.approx(np.abs(y[period * 64:(period + 1) * 64]).max(),
                                         rel=1e-9)
        assert (f"closed loop, realization 1, simulated period {period}: "
                f"peak |y| = {err.peak:.6g}") in str(err)

    def test_warmup_errors(self):
        # Closed-loop pole near 0.999: each 64-sample period still differs by
        # a few percent after 64 periods, while a zero reference settles.
        config = ClosedLoopConfig(
            plant=HammersteinPlant(RationalLTI(b=[0.001], a=[1.0, -0.999]),
                                   PolynomialNonlinearity.identity()),
            actuator=RationalLTI.identity(),
            feedback=RationalLTI(b=[0.0, 0.001]),
        )
        zero = PeriodicSignal(np.zeros(128), 64, 2, 1.0)
        with pytest.raises(InstabilityError, match=r"within 64 warm-up periods in "
                                                   r"realization 1 \(relative residual 0\.0"):
            simulate_closed_loop_batch(config, [zero, flat_multisine(n=64).tile(2)])

    def test_aperiodic_reference_rejected(self):
        plant_lti, actuator, feedback = linear_loop_blocks()
        config = ClosedLoopConfig(plant=HammersteinPlant(plant_lti, CUBIC),
                                  actuator=actuator, feedback=feedback,
                                  process_noise_variance=0.01)
        r = flat_multisine(n=64, seed=3).tile(3)
        samples = r.samples.copy()
        samples[2 * 64 + 5] += 1e-12
        with pytest.raises(ValueError, match="reference period 2 of realization 1 differs "
                                             "from period 0"):
            simulate_closed_loop_batch(config, [r, PeriodicSignal(samples, 64, 3, 1.0)])

    def test_batch_matches_single_runs(self):
        plant_lti, actuator, feedback = linear_loop_blocks()
        # Twelve nonzero Volterra terms: a sum over eight or more terms is
        # where a pairwise reduction would part width-1 from width-3 runs.
        volterra = VolterraPlant(study_kernels())
        assert sum(np.count_nonzero(k.coefficients) for k in volterra.kernels) >= 8
        refs = [flat_multisine(n=64, seed=s).tile(2) for s in (0, 1, 2)]
        cases = [(ClosedLoopConfig(plant=plant, actuator=actuator, feedback=feedback,
                                   process_noise_variance=0.01, output_noise_variance=0.001,
                                   input_noise_variance=0.002), refs, 42, None)
                 for plant in (HammersteinPlant(plant_lti, CUBIC), volterra)]
        # On the references of master seed 32, the realizations of this loop
        # settle after different warm-ups, so a warm-up shared by the batch
        # would give realization 1 other bytes than its single run.
        cases.append((STAGGERED_LOOP, staggered_references(2), 32, [4, 3, 4, 4]))
        for config, refs, seed, warmups in cases:
            batch = simulate_closed_loop_batch(config, refs, seed=seed)
            if warmups is not None:
                assert [rec.warmup_periods for rec in batch] == warmups
            # Realization m is column m, whatever the references after it.
            for k in range(1, len(refs)):
                for short, full in zip(simulate_closed_loop_batch(config, refs[:k], seed), batch):
                    assert_same_loop_record(short, full)
            # Without noise no stream is drawn, so each reference run alone,
            # as realization 0, is its column of the batch.
            quiet = dataclasses.replace(config, input_noise_variance=0.0,
                                        process_noise_variance=0.0, output_noise_variance=0.0)
            for r, column in zip(refs, simulate_closed_loop_batch(quiet, refs, seed)):
                assert_same_loop_record(simulate_closed_loop_batch(quiet, [r], seed)[0], column)

    def test_loop_runs_the_periods_it_records(self, monkeypatch):
        # Recording starts at period 1 and period t is checked against period
        # t - 1.  The study loop repeats its period 1 exactly in period 2, so
        # it records from period 1 and runs 1 + P periods (3 for P = 1).  The
        # staggered loop's first repeats are not exact, so each realization
        # records from its confirming period W: the batch runs max W + P
        # periods, and a P = 1 record runs W + 1 and holds period W.
        shapes = []
        run_period = _LoopEngine.run_period
        monkeypatch.setattr(_LoopEngine, "run_period",
                            lambda engine, nx: shapes.append(nx.shape) or run_period(engine, nx))
        study = ClosedLoopConfig(plant=VolterraPlant(study_kernels()),
                                 actuator=RationalLTI(b=[0.9], a=[1.0, -0.3]),
                                 feedback=RationalLTI(b=[0.0, 0.7]),
                                 process_noise_variance=0.04, output_noise_variance=9e-4)
        for periods in (1, 2, 3):
            shapes.clear()
            refs = [flat_multisine(n=128, seed=derive_rng(3, "reference", m)).tile(periods)
                    for m in range(2)]
            records = simulate_closed_loop_batch(study, refs, 3)
            assert [(rec.warmup_periods, rec.steady_state_residual) for rec in records] == [
                (1, 0.0), (1, 0.0)]
            assert shapes == [(128, 4)] * (1 + max(periods, 2))

        shapes.clear()
        records = simulate_closed_loop_batch(STAGGERED_LOOP, staggered_references(2), 32)
        assert [rec.warmup_periods for rec in records] == [4, 3, 4, 4]
        assert all(0 < rec.steady_state_residual < STEADY_STATE_RTOL for rec in records)
        assert shapes == [(64, 8)] * (4 + 2)

        ref = staggered_references(1)[0]
        shapes.clear()
        rec = simulate_closed_loop_batch(STAGGERED_LOOP, [ref], 32)[0]
        assert rec.warmup_periods == 4 and len(shapes) == 4 + 1
        u0, y0 = map_loop(STAGGERED_LOOP, ref, 32, 0, 5)
        assert rec.input_measured.samples.tobytes() == u0[4 * 64:].tobytes()
        assert rec.output_measured.samples.tobytes() == y0[4 * 64:].tobytes()

    def test_warmup_does_not_depend_on_the_loop_scale(self):
        # The staggered loop is linear, so its relative residuals, and with
        # them its warm-ups, are the same at rms 1e-200, whose squares
        # underflow to zero.
        refs = [PeriodicSignal(r.samples * 1e-200, 64, 2, 1.0) for r in staggered_references(2)]
        records = simulate_closed_loop_batch(STAGGERED_LOOP, refs, 32)
        assert [rec.warmup_periods for rec in records] == [4, 3, 4, 4]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_noisy_loop_forgets_its_start_within_the_warmup(self, data):
        # The warm-up is found on the noise-free loop alone, so the noisy
        # loop must forget its zero start as fast: its record is set beside
        # the record that the same noise samples give after a lead-in 8
        # periods longer, whose first 8 periods carry noise of another seed.
        # After an exact repeat, recorded from the repeated period on, the
        # two agree to STEADY_STATE_RTOL in relative RMS.  After a repeat to
        # STEADY_STATE_RTOL only, recorded from the confirming period on,
        # the start weighs more in a nonlinear noisy loop than in its
        # noise-free one: the two agree to 1e3 STEADY_STATE_RTOL.  Random
        # stable S and G_act scaled to a peak gain of 1, so that the
        # reference drives the loop, and a strictly delayed M with
        # |S G_act M| <= 0.5 (on the 1024 grid, as in the closed-form test)
        # around f = x + c2 x^2 + c3 x^3.  A loop that diverges has no record.
        blocks = [data.draw(stable_blocks(0)), data.draw(stable_blocks(0)),
                  data.draw(stable_blocks(1, delayed=True))]
        for i, limit in enumerate((1.0, 1.0, 0.5)):
            peak = np.abs(np.prod([b.bin_response(1024) for b in blocks[:i + 1]], axis=0)).max()
            assume(i == 2 or peak > 1e-3)
            if i < 2 or peak > limit:
                blocks[i] = RationalLTI(b=blocks[i].numerator * (limit / peak),
                                        a=blocks[i].denominator)
        s, act, fb = blocks
        f = PolynomialNonlinearity([1.0, data.draw(st.floats(-0.1, 0.1)),
                                    data.draw(st.floats(-0.05, 0.05))])
        config = ClosedLoopConfig(plant=HammersteinPlant(s, f), actuator=act, feedback=fb,
                                  process_noise_variance=0.01)
        seed = data.draw(st.integers(0, 2 ** 16))
        r = flat_multisine(n=16, seed=seed, rms=0.3).tile(2)
        try:
            rec = simulate_closed_loop_batch(config, [r], seed)[0]
        except InstabilityError:
            assume(False)
        periods = rec.warmup_periods + 2
        noise = loop_noise(config, seed + 1, 0, 16, 8) + loop_noise(config, seed, 0, 16, periods)
        bound = STEADY_STATE_RTOL * (1.0 if rec.steady_state_residual == 0 else 1e3)
        for got, want in zip((rec.input_measured.samples, rec.output_measured.samples),
                             map_loop(config, r, seed, 0, 8 + periods, noise=noise)):
            want = want[-2 * 16:]
            assert np.sqrt(np.mean((got - want) ** 2)) <= bound * np.sqrt(np.mean(want ** 2))

    @pytest.mark.parametrize("case", ["volterra", "hammerstein, G_act order 0",
                                      "hammerstein, G_act order 1", "signed zeros"])
    def test_matches_scalar_loop_bitwise(self, case):
        # The loop map, the ring-buffer plant and Horner's f make the
        # Python-float map's operations in its order: every recorded bit
        # agrees, signed zeros included (hence tobytes): with a -0.0
        # reference and no noise, u0(0) = -0.0 and every later sample is a
        # sum onto +0.0.  The loops have no measurement noise, so the measured
        # signals are the recorded u0 and y0 plus zeros.  The per-block
        # recursion rounds otherwise but agrees to 1e-12 of each signal's peak.
        act = (RationalLTI(b=[0.9], a=[1.0, -0.3]) if "order 1" in case
               else RationalLTI(b=[0.5]))
        f = PolynomialNonlinearity([1.0, 0.2, 0.1, -0.01])
        plant = HammersteinPlant(RationalLTI(b=[-0.5]) if case == "signed zeros" else DEMO_S, f)
        if case == "volterra":
            plant = VolterraPlant(study_kernels())
        config = ClosedLoopConfig(plant=plant, actuator=act, feedback=RationalLTI(b=[0.0, 0.5]),
                                  process_noise_variance=0.0 if case == "signed zeros" else 0.01)
        refs = [flat_multisine(n=16, seed=derive_rng(3, "reference", m), rms=0.5).tile(2)
                for m in range(2)]
        if case == "signed zeros":
            refs = [PeriodicSignal(np.full(32, -0.0), 16, 2, 1.0)] * 2
        for m, rec in enumerate(simulate_closed_loop_batch(config, refs, seed=3)):
            periods = rec.warmup_periods + 2
            u0, y0 = map_loop(config, refs[m], 3, m, periods)
            recorded = slice(rec.warmup_periods * 16, None)
            assert rec.input_measured.samples.tobytes() == u0[recorded].tobytes()
            assert rec.output_measured.samples.tobytes() == y0[recorded].tobytes()
            for got, want in zip((rec.input_measured.samples, rec.output_measured.samples),
                                 scalar_loop(config, refs[m], 3, m, periods)):
                assert np.abs(got - want[recorded]).max() <= 1e-12 * np.abs(want).max()

    def test_divergence_report_survives_padded_state(self):
        # Once a loop overflows, the map's zero entries meet inf and make NaN.
        # The report still names the first diverged period, its first loop in
        # the engine's column order (noise-free loops, then noisy ones) and
        # that period's peak, as the Python-float map gives them: a finite
        # peak at rms 0.7, and an overflow to inf inside period 0 at rms 0.8.
        config = ClosedLoopConfig(plant=HammersteinPlant(DEMO_S, CUBIC),
                                  actuator=RationalLTI(b=[0.9], a=[1.0, -0.3]),
                                  feedback=RationalLTI(b=[0.0, 0.0, 0.5]),
                                  process_noise_variance=0.01)
        for rms, finite in ((0.7, True), (0.8, False)):
            refs = [flat_multisine(n=256, seed=derive_rng(5, "reference", m), rms=rms).tile(2)
                    for m in range(6)]
            reports = []
            for noisy, m in itertools.product((False, True), range(6)):
                y0 = map_loop(config, refs[m], 5, m, 2, noisy)[1].reshape(2, 256)
                for period, span in enumerate(np.abs(y0)):
                    if not (span <= DIVERGENCE_LIMIT).all():
                        reports.append((period, noisy, m,
                                        np.inf if np.isnan(span).any() else span.max()))
                        break
            period, _, realization, peak = min(reports)
            assert np.isfinite(peak) == finite
            with pytest.raises(InstabilityError, match=f"closed loop, realization {realization}, "
                                                       f"simulated period {period}: ") as info:
                simulate_closed_loop_batch(config, refs, seed=5)
            assert info.value.period == period and info.value.peak == peak

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_map_matches_closed_form_across_orders(self, data):
        # Random stable S and G_act of orders 0-3 and a strictly delayed M of
        # orders 1-3, M scaled so that |S G_act M| <= 0.5 on a grid holding
        # every bin (the half grid of 1024, whose peak is the full grid's by
        # conjugate symmetry): the noise-free loop with the identity f gives
        # Y/R = S G_act / (1 + S G_act M) on every excited bin, to 1e-9 of
        # the larger of 1 and the closed form's peak.
        s, act = data.draw(stable_blocks(0)), data.draw(stable_blocks(0))
        fb = data.draw(stable_blocks(1, delayed=True))
        peak = np.abs(s.bin_response(1024) * act.bin_response(1024)
                      * fb.bin_response(1024)).max()
        if peak > 0.5:
            fb = RationalLTI(b=fb.numerator * (0.5 / peak), a=fb.denominator)
        config = ClosedLoopConfig(plant=HammersteinPlant(s, PolynomialNonlinearity.identity()),
                                  actuator=act, feedback=fb)
        r = flat_multisine(n=64, seed=data.draw(st.integers(0, 2 ** 16))).tile(2)
        rec = simulate_closed_loop_batch(config, [r], seed=0)[0]
        bins = np.arange(1, 32)
        loop = (s.bin_response(64) * act.bin_response(64))[bins]
        closed_form = loop / (1.0 + loop * fb.bin_response(64)[bins])
        got = dft(rec.output_measured).bins[bins] / dft(rec.reference).bins[bins]
        assert np.abs(got - closed_form).max() <= 1e-9 * max(np.abs(closed_form).max(), 1.0)

    def test_volterra_plant_matches_hammerstein_equivalent(self):
        # Static cubic plant y0 = v + 0.1 v^3 with v = u0 + nx expands into
        # dual kernels; both plant forms must agree sample for sample.
        kernels = (
            DualVolterraKernel(1, 0, np.array([1.0])),
            DualVolterraKernel(0, 1, np.array([1.0])),
            DualVolterraKernel(3, 0, 0.1 * np.ones((1, 1, 1))),
            DualVolterraKernel(2, 1, 0.3 * np.ones((1, 1, 1))),
            DualVolterraKernel(1, 2, 0.3 * np.ones((1, 1, 1))),
            DualVolterraKernel(0, 3, 0.1 * np.ones((1, 1, 1))),
        )
        _, actuator, feedback = linear_loop_blocks()
        common = dict(actuator=actuator, feedback=feedback,
                      process_noise_variance=0.01)
        cfg_volterra = ClosedLoopConfig(plant=VolterraPlant(kernels), **common)
        cfg_hammer = ClosedLoopConfig(
            plant=HammersteinPlant(RationalLTI.identity(), CUBIC), **common)
        r = flat_multisine(n=64, seed=13).tile(2)
        a = simulate_closed_loop_batch(cfg_volterra, [r], seed=3)[0]
        b = simulate_closed_loop_batch(cfg_hammer, [r], seed=3)[0]
        np.testing.assert_allclose(a.output_measured.samples,
                                   b.output_measured.samples, rtol=1e-10, atol=1e-12)


class TestSystemFile:
    def test_round_trip(self, tmp_path):
        desc = SystemDescription(
            dynamics=RationalLTI(b=[0.2, 0.05], a=[1.0, -0.8, 0.1]),
            nonlinearity=CUBIC,
            actuator=RationalLTI(b=[1.0], a=[1.0, -0.2]),
            feedback=RationalLTI(b=[0.0, 0.4], a=[1.0, -0.1]),
        )
        path = tmp_path / "system.ini"
        write_system_file(path, desc)
        back = read_system_file(path)
        np.testing.assert_array_equal(back.dynamics.numerator, desc.dynamics.numerator)
        np.testing.assert_array_equal(back.dynamics.denominator, desc.dynamics.denominator)
        np.testing.assert_array_equal(back.nonlinearity.coefficients,
                                      desc.nonlinearity.coefficients)
        np.testing.assert_array_equal(back.feedback.numerator, desc.feedback.numerator)

    def test_open_loop_file_omits_loop_blocks(self, tmp_path):
        desc = SystemDescription(dynamics=RationalLTI(**LOWPASS), nonlinearity=CUBIC)
        path = tmp_path / "system.ini"
        write_system_file(path, desc)
        back = read_system_file(path)
        assert back.actuator is None and back.feedback is None

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_system_file(tmp_path / "nope.ini")

    def test_malformed_coefficients_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        for b, a in [("fish", "1.0"), ("0.2", ""), ("", "1.0, -0.8")]:  # empty a or b too
            path.write_text(f"[S]\nb = {b}\na = {a}\n\n[f]\ncoefficients = 1.0\n")
            with pytest.raises(ConfigurationError):
                read_system_file(path)
