from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blakit.signals import (
    MultisineSpec,
    PeriodicSignal,
    Spectrum,
    derive_rng,
    dft,
    generate_multisine,
    generate_noise,
    inverse_dft,
    period_spectra,
    write_signal_csv,
    write_spectrum_csv,
)
from blakit.signals import _SPECTRUM_HEADER, _bin_labels, _read_table, _write_table


def cosine_sum_oracle(spec: MultisineSpec, phases: np.ndarray) -> np.ndarray:
    """Literal sample formula: u(t) = (1/sqrt N) sum_k 2 U_k cos(2 pi k t/N + phi_k)."""
    n = spec.samples_per_period
    t = np.arange(n)
    u = np.zeros(n)
    for k, amp, phi in zip(spec.excited_bins, spec.amplitudes, phases):
        u += 2.0 * amp * np.cos(2.0 * np.pi * k * t / n + phi)
    return u / np.sqrt(n)


def naive_dft_oracle(x: np.ndarray) -> np.ndarray:
    """Direct summation of the unitary transform definition, bins 0..N//2."""
    n = x.size
    k = np.arange(n)
    return np.array([
        np.sum(x * np.exp(-2j * np.pi * k_val * k / n)) for k_val in k[: n // 2 + 1]
    ]) / np.sqrt(n)


def half_grid_energy(bins: np.ndarray, n: int) -> float:
    """Parseval's frequency side on bins 0..N//2: each bin 0 < k < N/2 stands
    for itself and its conjugate mirror."""
    weights = np.full(bins.size, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return float(np.sum(weights * np.abs(bins) ** 2))


def read_signal_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]


def make_signal(x, fs=1.0):
    x = np.asarray(x, dtype=float)
    return PeriodicSignal(samples=x, samples_per_period=x.size, period_count=1,
                          sampling_frequency=fs)


def complex_bins(real, imag) -> np.ndarray:
    # Set the parts directly: ``1j * inf`` would turn the real part into NaN.
    bins = np.empty(len(real), dtype=complex)
    bins.real = real
    bins.imag = imag
    return bins


def read_spectrum(path) -> np.ndarray:
    """The bins of a ``write_spectrum_csv`` file, bit for bit."""
    _, _, real, imag = _read_table(path, _SPECTRUM_HEADER)
    return complex_bins(real, imag)


def csv_writer_spectrum_bytes(path, spectrum: Spectrum) -> bytes:
    """The bytes ``csv.writer`` writes for ``spectrum``, each float as ``%.17g`` text."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_index", "frequency_hz", "real", "imag"])
        n, fs = spectrum.samples_per_period, spectrum.sampling_frequency
        for k, (f, v) in enumerate(zip(np.arange(n // 2 + 1) * (fs / n), spectrum.bins)):
            writer.writerow([k, format(float(f), ".17g"), format(float(v.real), ".17g"),
                             format(float(v.imag), ".17g")])
    return path.read_bytes()


@st.composite
def revisited_grids(draw) -> list[tuple[int, float]]:
    """2-4 ``(N, fs)`` grids, N in 4..64 and fs in [1e-3, 1e6], whose last
    is the first again; a middle grid may share the first one's N."""
    rates = st.one_of(st.sampled_from([0.3, 1 / 3, 44100.7, 1e6 / 7]),
                      st.floats(min_value=1e-3, max_value=1e6))
    first = (draw(st.integers(4, 64)), draw(rates))
    sizes = st.one_of(st.just(first[0]), st.integers(4, 64))
    middle = draw(st.lists(st.tuples(sizes, rates), max_size=2))
    return [first, *middle, first]


class TestMultisine:
    def test_single_bin_is_plain_cosine(self):
        spec = MultisineSpec(samples_per_period=8, sampling_frequency=1.0,
                             excited_bins=[1], amplitudes=[1.0])
        sig = generate_multisine(spec, seed=11)
        phase = np.random.default_rng(11).uniform(0, 2 * np.pi, 1)
        t = np.arange(8)
        expected = (2.0 / np.sqrt(8.0)) * np.cos(2.0 * np.pi * t / 8.0 + phase)
        np.testing.assert_allclose(sig.samples, expected, atol=1e-14)

    def test_matches_sample_formula(self):
        spec = MultisineSpec.flat(64, 2.0, excited_bins=np.arange(1, 32), rms=1.5)
        phases = np.random.default_rng(7).uniform(0, 2 * np.pi, spec.excited_bins.size)
        sig = generate_multisine(spec, seed=7)
        np.testing.assert_allclose(sig.samples, cosine_sum_oracle(spec, phases),
                                   atol=1e-12)

    def test_seed_reproducible(self):
        spec = MultisineSpec.flat(128, 1.0, excited_bins=np.arange(1, 64))
        a = generate_multisine(spec, seed=1234)
        b = generate_multisine(spec, seed=1234)
        assert np.array_equal(a.samples, b.samples)
        c = generate_multisine(spec, seed=1235)
        assert not np.array_equal(a.samples, c.samples)

    def test_excited_spectrum_equals_amplitude_and_phase(self):
        spec = MultisineSpec.flat(64, 1.0, excited_bins=[3, 7, 20], rms=1.0)
        phases = np.random.default_rng(5).uniform(0, 2 * np.pi, 3)
        spectrum = dft(generate_multisine(spec, seed=5))
        got = spectrum.bins[spec.excited_bins]
        np.testing.assert_allclose(got, spec.amplitudes * np.exp(1j * phases),
                                   atol=1e-12)

    def test_empty_bins_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MultisineSpec(samples_per_period=16, sampling_frequency=1.0,
                          excited_bins=[], amplitudes=[])

    @pytest.mark.parametrize("bad_bin", [0, 8, 9, -1])
    def test_dc_and_nyquist_rejected(self, bad_bin):
        with pytest.raises(ValueError):
            MultisineSpec(samples_per_period=16, sampling_frequency=1.0,
                          excited_bins=[bad_bin], amplitudes=[1.0])

    def test_amplitude_bound_enforced(self):
        # Amplitudes must be finite and >= 0.
        for amplitude in (-0.5, np.inf, np.nan):
            with pytest.raises(ValueError):
                MultisineSpec(samples_per_period=16, sampling_frequency=1.0,
                              excited_bins=[1], amplitudes=[amplitude])

    def test_phase_randomness_over_seeds(self):
        # The per-bin phasors must average out: |mean e^{j phi}| < 4/sqrt(draws).
        spec = MultisineSpec.flat(16, 1.0, excited_bins=np.arange(1, 8))
        draws = 10_000
        acc = np.zeros(spec.excited_bins.size, dtype=complex)
        for seed in range(draws):
            spectrum = dft(generate_multisine(spec, seed=seed))
            acc += spectrum.bins[spec.excited_bins] / spec.amplitudes
        mean_phasor = np.abs(acc) / draws
        assert mean_phasor.max() < 4.0 / np.sqrt(draws)

    def test_flat_spectrum_power_matches_band_integral(self):
        # Flat amplitudes: binwise power (1/N) sum |U_k|^2 over a band equals the
        # integral of the equivalent flat power spectrum over that band.
        n, fs = 256, 4.0
        bins = np.arange(1, 128)
        spec = MultisineSpec(samples_per_period=n, sampling_frequency=fs,
                             excited_bins=bins, amplitudes=np.ones(bins.size))
        spectrum = dft(generate_multisine(spec, seed=3))
        k1, k2 = 10, 100
        band = np.arange(k1, k2 + 1)
        lhs = np.sum(np.abs(spectrum.bins[band]) ** 2) / n
        # |U_k| = U_k = 1 deterministically, so the equivalent power spectral
        # density is 1/fs and the band integral (1/2pi) S (w2 - w1) reduces to:
        rhs = (1.0 / fs) * (band.size * fs / n)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_periodicity_of_tiled_signal(self):
        spec = MultisineSpec.flat(32, 1.0, excited_bins=np.arange(1, 16))
        one = generate_multisine(spec, seed=5)
        tiled = one.tile(4)
        reference = dft(one).bins
        for p in range(4):
            np.testing.assert_array_equal(dft(tiled, period=p).bins, reference)


class TestDft:
    def test_impulse_spectrum(self):
        spectrum = dft(make_signal([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(spectrum.bins, 0.5 * np.ones(3), atol=1e-15)

    def test_cosine_line(self):
        t = np.arange(4)
        spectrum = dft(make_signal(np.cos(2 * np.pi * t / 4)))
        expected = naive_dft_oracle(np.cos(2 * np.pi * t / 4))
        np.testing.assert_allclose(spectrum.bins, expected, atol=1e-12)
        assert spectrum.bins.size == 3
        assert spectrum.bins[1] == pytest.approx(1.0)
        assert abs(spectrum.bins[0]) < 1e-15
        assert abs(spectrum.bins[2]) < 1e-15

    def test_matches_naive_definition(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(16)
        np.testing.assert_allclose(dft(make_signal(x)).bins, naive_dft_oracle(x),
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [8, 256, 2 ** 16])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        back = inverse_dft(dft(make_signal(x)))
        assert np.max(np.abs(back - x)) < 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [8, 255, 1024])
    def test_parseval(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n)
        spectrum = dft(make_signal(x))
        time_energy = np.sum(x ** 2)
        freq_energy = half_grid_energy(spectrum.bins, n)
        assert abs(time_energy - freq_energy) < 1e-12 * time_energy

    @pytest.mark.parametrize("n", [4, 5, 64, 255])
    def test_half_grid_layout(self, n):
        # Bins 0..N//2 only; DC (and Nyquist for even N) of a real signal are real.
        x = np.random.default_rng(n).standard_normal(n)
        spectrum = dft(make_signal(x, fs=2.0))
        assert spectrum.bins.size == n // 2 + 1
        assert spectrum.bins[0].imag == 0.0
        assert n % 2 or spectrum.bins[-1].imag == 0.0
        with pytest.raises(ValueError, match="bins"):
            Spectrum(bins=np.zeros(n, complex), samples_per_period=n, sampling_frequency=1.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 300), periods=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_period_spectra_rows_are_dft_bit_for_bit(self, n, periods, seed):
        x = np.random.default_rng(seed).standard_normal(n * periods)
        sig = PeriodicSignal(x, n, periods, 1.0)
        spectra = period_spectra(sig.samples, n)
        assert spectra.shape == (periods, n // 2 + 1)
        for p in range(periods):
            assert np.array_equal(spectra[p], dft(sig, p).bins)


class TestGenerateNoise:
    def test_zero_variance_is_silent(self):
        out = generate_noise(0.0, 100, seed=1)
        assert np.array_equal(out, np.zeros(100))

    def test_variance_law_of_large_numbers(self):
        x = generate_noise(1.0, 1_000_000, seed=42)
        # 3 sigma of the variance estimator: sqrt(2/n) * 3 ~ 0.0042 < 0.01
        assert abs(x.var() - 1.0) < 0.01
        assert abs(x.mean()) < 0.004

    def test_distinct_seeds_independent(self):
        a = generate_noise(1.0, 50_000, seed=derive_rng(0, "stream", 0))
        b = generate_noise(1.0, 50_000, seed=derive_rng(0, "stream", 1))
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            generate_noise(-1.0, 10, seed=0)


class TestCsv:
    def test_signal_round_trip_exact(self, tmp_path):
        sig = generate_multisine(MultisineSpec.flat(64, 3.0, np.arange(1, 30)), seed=2)
        path = tmp_path / "signal.csv"
        write_signal_csv(path, sig)
        np.testing.assert_array_equal(read_signal_csv(path), sig.samples)

    def test_spectrum_round_trip_exact(self, tmp_path):
        spectrum = dft(generate_multisine(MultisineSpec.flat(64, 3.0, np.arange(1, 30)),
                                          seed=2))
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, spectrum)
        np.testing.assert_array_equal(read_spectrum(path), spectrum.bins)
        index, frequency, _, _ = _read_table(path, _SPECTRUM_HEADER)
        np.testing.assert_array_equal(index, np.arange(33))
        assert frequency[1] * 64 == pytest.approx(spectrum.sampling_frequency)

    EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1, -2.5e-17]

    def test_spectrum_bytes_match_csv_writer(self, tmp_path):
        edges = np.array(self.EDGE_VALUES)
        spectrum = Spectrum(bins=complex_bins(edges, edges[::-1]),
                            samples_per_period=2 * (edges.size - 1), sampling_frequency=0.3)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, spectrum)
        assert path.read_bytes() == csv_writer_spectrum_bytes(tmp_path / "reference.csv", spectrum)
        assert b"\r\n" in path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(grids=revisited_grids(), seed=st.integers(0, 2 ** 32 - 1))
    def test_spectrum_bytes_match_csv_writer_across_grids(self, tmp_path_factory, grids, seed):
        # The bin_index,frequency_hz text is formatted once per (N, fs) grid
        # and reused: every write, the cached revisit of the first grid and
        # grids that share N but not fs included, must match csv.writer.
        rng = np.random.default_rng(seed)
        directory = tmp_path_factory.mktemp("grids")
        for i, (n, fs) in enumerate(grids):
            values = rng.standard_normal((2, n // 2 + 1))
            spectrum = Spectrum(bins=complex_bins(*values), samples_per_period=n,
                                sampling_frequency=fs)
            path = directory / f"spectrum_{i}.csv"
            write_spectrum_csv(path, spectrum)
            assert path.read_bytes() == csv_writer_spectrum_bytes(
                directory / f"reference_{i}.csv", spectrum), (n, fs)

    def test_signal_bytes_match_csv_writer(self, tmp_path):
        sig = PeriodicSignal(np.array(self.EDGE_VALUES), 4, 2, 3.7)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_index", "time_s", "value"])
            for i, v in enumerate(sig.samples):
                writer.writerow([i, format(i * (1.0 / 3.7), ".17g"), format(float(v), ".17g")])
        path = tmp_path / "signal.csv"
        write_signal_csv(path, sig)
        assert path.read_bytes() == reference.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False), min_size=4, max_size=40),
           fs=st.floats(min_value=1e-3, max_value=1e6), odd=st.booleans())
    def test_spectrum_round_trip_property(self, tmp_path_factory, values, fs, odd):
        # Every finite or infinite value, signed zeros and subnormals
        # included, reads back bit for bit, for even and odd N alike.
        half = len(values) // 2
        n = 2 * (half - 1) + odd
        bins = complex_bins(values[:half], values[half:2 * half])
        spectrum = Spectrum(bins=bins, samples_per_period=n, sampling_frequency=fs)
        path = tmp_path_factory.mktemp("csv") / "spectrum.csv"
        write_spectrum_csv(path, spectrum)
        back = read_spectrum(path)
        assert np.array_equal(back.view(np.uint64), spectrum.bins.view(np.uint64))
        frequency = _read_table(path, _SPECTRUM_HEADER)[1]
        assert frequency[1] * n == pytest.approx(fs, rel=1e-12)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="bad.csv: the first line"):
            _read_table(path, _SPECTRUM_HEADER)

    @pytest.mark.parametrize("block_cells", [1, 5, 42, 4096, 16384])
    def test_table_bytes_do_not_depend_on_the_block(self, tmp_path, monkeypatch, block_cells):
        # A wide table is formatted in passes of at most _BLOCK_CELLS cells
        # (or one row); its bytes are csv.writer's whatever the pass size,
        # with a last pass shorter than the others.
        monkeypatch.setattr("blakit.signals._BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(3)
        n, width = 200, 41
        values = rng.standard_normal((width, n // 2 + 1))
        values[0, :len(self.EDGE_VALUES)] = self.EDGE_VALUES
        labels = _bin_labels(n, 0.7)
        header = ",".join(["bin_index", "frequency_hz", *(f"c{j}" for j in range(width))])
        path = tmp_path / "table.csv"
        _write_table(path, header, values, labels=labels)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header.split(","))
            for k, label in enumerate(labels):
                writer.writerow([*label.split(","), *(format(v, ".17g") for v in values[:, k])])
        assert path.read_bytes() == reference.read_bytes()
