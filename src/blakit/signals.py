"""Excitation signals, unitary DFT and power-spectrum estimation.

The frequency grid used throughout the package is the half DFT bin grid
``f_k = k * f_s / N``, ``k = 0..N//2``, for one period of ``N`` samples at
sampling frequency ``f_s``: the signals are real, so the bins above
``N/2`` are the conjugates of those below and are never stored.  The DFT
pair is unitary (scaled by ``1/sqrt(N)`` in both directions), so the
spectrum of white noise with variance ``s2`` has ``E{|X_k|^2} = s2`` at
every bin, and Parseval reads ``sum x^2 = sum_k w_k |X_k|^2`` with weight
``w_k = 2`` for ``0 < k < N/2`` and 1 at DC and Nyquist.
"""

from __future__ import annotations

import functools
import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultisineSpec",
    "PeriodicSignal",
    "Spectrum",
    "derive_rng",
    "generate_multisine",
    "dft",
    "period_spectra",
    "inverse_dft",
    "generate_noise",
    "write_signal_csv",
    "read_spectrum_csv",
    "write_spectrum_csv",
]

_TWO_PI = 2.0 * np.pi


def derive_rng(master_seed: int, *key: int | str) -> np.random.Generator:
    """Derive an independent, reproducible random stream from a master seed.

    Splitting is counter based: every distinct ``key`` (a mix of labels and
    indices, e.g. ``("process_noise", m)``) yields a stream that is
    statistically independent of every other key's stream and of the parent.
    String parts are hashed with CRC-32 so the mapping is stable across runs
    and platforms.
    """
    parts = tuple(
        zlib.crc32(part.encode("utf8")) if isinstance(part, str) else int(part)
        for part in key
    )
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=parts))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True, eq=False)
class MultisineSpec:
    """Description of a random-phase multisine excitation.

    ``excited_bins`` are DFT bin indices ``k`` with ``0 < k < N/2``; DC and
    Nyquist are never excited so generated signals stay zero-mean and real.
    ``amplitudes[i]`` is the deterministic (real) amplitude of bin
    ``excited_bins[i]``, finite and ``>= 0``.
    """

    samples_per_period: int
    sampling_frequency: float
    excited_bins: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        n = int(self.samples_per_period)
        if n < 4:
            raise ValueError(f"samples_per_period must be >= 4, got {n}")
        if not np.isfinite(self.sampling_frequency) or self.sampling_frequency <= 0:
            raise ValueError("sampling_frequency must be positive and finite")
        bins = np.asarray(self.excited_bins, dtype=int)
        if bins.size == 0:
            raise ValueError("excited-bin set is empty")
        ordered = np.sort(bins, axis=None)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("excited bins must be distinct")
        if np.any(bins <= 0) or np.any(bins >= n / 2):
            raise ValueError("excited bins must satisfy 0 < k < N/2")
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.shape != bins.shape:
            raise ValueError("amplitudes must align with excited_bins")
        if np.any(amps < 0) or not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite and >= 0")
        order = np.argsort(bins)
        object.__setattr__(self, "samples_per_period", n)
        object.__setattr__(self, "sampling_frequency", float(self.sampling_frequency))
        object.__setattr__(self, "excited_bins", bins[order])
        object.__setattr__(self, "amplitudes", amps[order])

    @classmethod
    def flat(cls, samples_per_period: int, sampling_frequency: float,
             excited_bins, rms: float = 1.0) -> "MultisineSpec":
        """Equal-amplitude multisine scaled to a target time-domain RMS.

        A flat spectrum over ``K`` bins has mean square ``2*K*U^2/N``, so the
        per-bin amplitude is ``rms * sqrt(N / (2*K))``.
        """
        bins = np.asarray(excited_bins, dtype=int)
        if bins.size == 0:
            raise ValueError("excited-bin set is empty")
        amp = float(rms) * np.sqrt(samples_per_period / (2.0 * bins.size))
        return cls(
            samples_per_period=samples_per_period,
            sampling_frequency=sampling_frequency,
            excited_bins=bins,
            amplitudes=np.full(bins.size, amp),
        )


@dataclass(frozen=True, eq=False)
class PeriodicSignal:
    """A real sampled signal holding an integer number of identical-length periods."""

    samples: np.ndarray
    samples_per_period: int
    period_count: int
    sampling_frequency: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        n = int(self.samples_per_period)
        p = int(self.period_count)
        if n <= 0 or p <= 0:
            raise ValueError("samples_per_period and period_count must be positive")
        if samples.ndim != 1 or samples.size != n * p:
            raise ValueError(
                f"expected {n * p} samples ({p} periods of {n}), got shape {samples.shape}"
            )
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "samples_per_period", n)
        object.__setattr__(self, "period_count", p)
        object.__setattr__(self, "sampling_frequency", float(self.sampling_frequency))

    def period(self, index: int = 0) -> np.ndarray:
        """One period of samples (a view, not a copy)."""
        if not 0 <= index < self.period_count:
            raise IndexError(f"period {index} out of range (P={self.period_count})")
        n = self.samples_per_period
        return self.samples[index * n:(index + 1) * n]

    def tile(self, period_count: int) -> "PeriodicSignal":
        """Replicate the first period into a new signal with ``period_count`` periods."""
        return PeriodicSignal(
            samples=np.tile(self.period(0), period_count),
            samples_per_period=self.samples_per_period,
            period_count=period_count,
            sampling_frequency=self.sampling_frequency,
        )


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex DFT values of one period on the half grid, bins ``0..N//2``."""

    bins: np.ndarray
    samples_per_period: int
    sampling_frequency: float

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=complex)
        n = int(self.samples_per_period)
        if bins.ndim != 1 or bins.size != n // 2 + 1:
            raise ValueError(f"expected {n // 2 + 1} bins for N = {n}, got shape {bins.shape}")
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "samples_per_period", n)
        object.__setattr__(self, "sampling_frequency", float(self.sampling_frequency))

    @property
    def frequencies(self) -> np.ndarray:
        """Bin frequencies in Hz, ``f_k = k * f_s / N``."""
        n = self.samples_per_period
        return np.arange(n // 2 + 1) * (self.sampling_frequency / n)


def generate_multisine(spec: MultisineSpec, seed=None) -> PeriodicSignal:
    """Generate one period of a random-phase multisine.

    The sample values are

        u(t) = (1/sqrt(N)) * sum_k 2 * U_k * cos(2*pi*k*t/N + phi_k)

    with the phases drawn independently and uniformly on ``[0, 2*pi)`` from
    the given seed, in the order of the excited bins.  Under the unitary DFT
    the excited bins then read ``U_k * exp(1j*phi_k)`` exactly.
    Regenerating with the same seed is bit-identical.
    """
    n = spec.samples_per_period
    k = spec.excited_bins
    phases = _as_generator(seed).uniform(0.0, _TWO_PI, size=k.size)
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[k] = spec.amplitudes * np.exp(1j * phases)
    # irfft realizes the cosine sum exactly (same linear combination, O(N log N)).
    samples = np.fft.irfft(half, n=n) * np.sqrt(n)
    return PeriodicSignal(
        samples=samples,
        samples_per_period=n,
        period_count=1,
        sampling_frequency=spec.sampling_frequency,
    )


def period_spectra(samples, samples_per_period: int) -> np.ndarray:
    """Unitary forward DFTs of consecutive periods, shape ``(P, N//2+1)``.

    ``samples`` holds ``P`` whole periods of ``N = samples_per_period``
    samples; row ``p`` is the half spectrum of period ``p``.
    """
    n = samples_per_period
    spectra = np.fft.rfft(np.reshape(samples, (-1, n)), axis=-1)
    spectra /= np.sqrt(n)
    return spectra


def dft(sig: PeriodicSignal, period: int = 0) -> Spectrum:
    """Unitary forward DFT of one designated period of a real signal."""
    n = sig.samples_per_period
    return Spectrum(
        bins=period_spectra(sig.period(period), n)[0],
        samples_per_period=n,
        sampling_frequency=sig.sampling_frequency,
    )


def inverse_dft(spectrum: Spectrum) -> np.ndarray:
    """Unitary inverse DFT; returns the real time samples of one period.

    The imaginary parts of the DC and (for even N) Nyquist bins are ignored,
    as a real signal has none.
    """
    n = spectrum.samples_per_period
    return np.fft.irfft(spectrum.bins * np.sqrt(n), n=n)


def generate_noise(variance: float, length: int, seed=None) -> np.ndarray:
    """Zero-mean white Gaussian noise of the requested variance.

    Deterministic per seed; distinct seeds give independent streams.
    """
    variance = float(variance)
    if not math.isfinite(variance) or variance < 0:
        raise ValueError("variance must be finite and >= 0")
    length = int(length)
    if length < 0:
        raise ValueError("length must be >= 0")
    if variance == 0.0:
        return np.zeros(length)
    white = _as_generator(seed).standard_normal(length)
    white *= math.sqrt(variance)  # in place: the same products, one array fewer
    return white


# ---------------------------------------------------------------------------
# CSV serialization (round-trip precision, 17 significant digits)

_FLOAT = "%.17g"
_SIGNAL_HEADER = "sample_index,time_s,value"
_SPECTRUM_HEADER = "bin_index,frequency_hz,real,imag"


def _fmt(x: float) -> str:
    """One float as round-trip text; every float blakit writes goes through ``_FLOAT``."""
    return _FLOAT % float(x)


def _write_table(path, header: str, columns, newline: str = "\r\n", labels=None) -> None:
    """Write a header line and equal-length columns as CSV in one formatting pass.

    ``labels``, when given, is a leading column of preformatted strings, one
    per row, written as they are through one ``%s``: the
    ``bin_index,frequency_hz`` text of ``_bin_labels``, which every table on
    one grid shares.  Integer and boolean columns print with ``%d``, all
    others with ``_FLOAT``; the rows come from one ``%`` of a repeated row
    template over one flat tuple.  With the default CRLF line ending this is
    byte for byte what ``csv.writer`` writes for the same strings.
    """
    columns = [np.asarray(c) for c in columns]
    fields = ["%d" if c.dtype.kind in "biu" else _FLOAT for c in columns]
    cells = [c.tolist() for c in columns]
    if labels is not None:
        fields.insert(0, "%s")
        cells.insert(0, labels)
    width = len(cells)
    rows = len(cells[0])
    template = ",".join(fields)
    flat = [None] * (rows * width)
    for j, column in enumerate(cells):
        flat[j::width] = column
    with open(path, "w", newline="") as fh:
        fh.write(header + newline)
        fh.write(((template + newline) * rows) % tuple(flat))


@functools.lru_cache(maxsize=4)
def _bin_labels(n: int, fs: float) -> tuple[str, ...]:
    """The ``bin_index,frequency_hz`` text of the half grid of ``n`` samples at ``fs``.

    Formatted once per grid: ``Spectrum.frequencies``' own product, so the
    text is what formatting those frequencies gives.
    """
    index = np.arange(n // 2 + 1)
    return tuple(map(("%d," + _FLOAT).__mod__, zip(index.tolist(), (index * (fs / n)).tolist())))


def _read_table(path, header: str) -> np.ndarray:
    """The columns of a CSV that ``_write_table`` wrote, ``_FLOAT`` text bit for bit.

    Content other than ``header`` and rows of one number per header column
    raises ValueError naming the file.
    """
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt warns of a table without rows
        if fh.readline().rstrip("\n") != header:
            raise ValueError(f"{path}: the first line is not {header!r}")
        try:
            columns = np.loadtxt(fh, delimiter=",", ndmin=2, unpack=True)
        except (ValueError, UserWarning) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if len(columns) != header.count(",") + 1:
        raise ValueError(f"{path}: the rows do not match {header!r}")
    return columns


def write_signal_csv(path, sig: PeriodicSignal) -> None:
    index = np.arange(sig.samples.size)
    _write_table(path, _SIGNAL_HEADER,
                 (index, index * (1.0 / sig.sampling_frequency), sig.samples))


def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    bins = spectrum.bins
    _write_table(path, _SPECTRUM_HEADER, (bins.real, bins.imag),
                 labels=_bin_labels(spectrum.samples_per_period, spectrum.sampling_frequency))


def read_spectrum_csv(path, samples_per_period: int) -> Spectrum:
    """Read the spectrum of one period of ``samples_per_period`` (N) samples.

    N is passed, not inferred: N and N + 1 give the same row count when N
    is even.  The ``bin_index`` column must be exactly ``0..N//2``; rows out
    of order, missing or extra (a full-grid file, say) raise ValueError
    naming the file.
    """
    index, frequency, real, imag = _read_table(path, _SPECTRUM_HEADER)
    n = int(samples_per_period)
    if n < 2:
        raise ValueError(f"{path}: samples_per_period must be >= 2, got {n}")
    if not np.array_equal(index, np.arange(n // 2 + 1)):
        raise ValueError(f"{path}: bin_index must run 0..{n // 2} in order for N = {n}")
    bins = real.astype(complex)
    bins.imag = imag  # bit-exact, unlike real + 1j*imag (-0.0 and inf)
    return Spectrum(bins=bins, samples_per_period=n, sampling_frequency=frequency[1] * n)
