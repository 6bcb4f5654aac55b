"""The nonparametric best-linear-approximation estimator and output decomposition.

The robust estimator works on multiple periods (P) of multiple excitation
realizations (M), in either loop.  Period-to-period scatter feeds the noise
variance estimate, realization-to-realization scatter the total variance estimate;
both carry the extra ``M`` and ``P`` factors so they quantify the
variability of the final averaged frequency response, not of a single
period.  Bins where the reference is zero are reported as undefined
(NaN markers plus a ``defined`` mask) rather than zero or an exception.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np

from .signals import (
    PeriodicSignal,
    Spectrum,
    _read_table,
    _write_table,
    dft,
    inverse_dft,
    period_spectra,
    read_spectrum_csv,
    write_spectrum_csv,
)

__all__ = [
    "ExperimentRecord",
    "BlaEstimate",
    "Decomposition",
    "robust_bla",
    "robust_bla_closed_loop",
    "decompose_output",
    "predict_variances",
    "write_bla_csv",
    "read_bla_csv",
    "write_record_bundle",
    "read_bundle_manifest",
    "read_record_bundle",
]


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    """Spectra of one multi-realization, multi-period experiment.

    ``input_spectra[m]`` is the input DFT of realization ``m`` (the input is
    periodic and noise free in open loop, so one spectrum per realization),
    ``output_spectra[m, p]`` the output DFT of period ``p``, all on the half
    grid, bins ``0..N//2``.  Closed-loop records additionally carry the
    reference spectra and per-period input spectra, both or neither; an
    open-loop record's reference is its input.
    """

    input_spectra: np.ndarray
    output_spectra: np.ndarray
    excited_bins: np.ndarray
    samples_per_period: int
    sampling_frequency: float
    reference_spectra: np.ndarray | None = None
    input_spectra_per_period: np.ndarray | None = None

    def __post_init__(self):
        u = np.asarray(self.input_spectra, dtype=complex)
        y = np.asarray(self.output_spectra, dtype=complex)
        n = int(self.samples_per_period)
        half = n // 2 + 1
        bins = np.asarray(self.excited_bins, dtype=int)
        if u.ndim != 2 or y.ndim != 3:
            raise ValueError("input_spectra must be (M, N//2+1), output_spectra (M, P, N//2+1)")
        if u.shape[0] != y.shape[0] or u.shape[1] != half or y.shape[2] != half:
            raise ValueError("spectra shapes disagree with M and N//2+1")
        if bins.size == 0 or bins.min() < 0 or bins.max() >= half:
            raise ValueError("excited bins must be inside the bin grid")
        object.__setattr__(self, "input_spectra", u)
        object.__setattr__(self, "output_spectra", y)
        bins = np.sort(bins, axis=None)
        object.__setattr__(self, "excited_bins", bins[np.append(True, bins[1:] != bins[:-1])])
        object.__setattr__(self, "samples_per_period", n)
        object.__setattr__(self, "sampling_frequency", float(self.sampling_frequency))
        if (self.reference_spectra is None) != (self.input_spectra_per_period is None):
            raise ValueError("a closed-loop record needs both reference_spectra "
                             "and input_spectra_per_period")
        for name, want_ndim in (("reference_spectra", 2), ("input_spectra_per_period", 3)):
            value = getattr(self, name)
            if value is None:
                continue
            value = np.asarray(value, dtype=complex)
            if value.ndim != want_ndim or value.shape[0] != u.shape[0] or value.shape[-1] != half:
                raise ValueError(f"{name} shape {value.shape} inconsistent with record")
            if want_ndim == 3 and value.shape[1] != y.shape[1]:
                raise ValueError(f"{name} period count inconsistent with record")
            object.__setattr__(self, name, value)

    @property
    def realization_count(self) -> int:
        return self.input_spectra.shape[0]

    @property
    def period_count(self) -> int:
        return self.output_spectra.shape[1]


@dataclass(frozen=True, eq=False)
class BlaEstimate:
    """Frequency response estimate with noise and total variance spectra.

    Defined on the excited bins only; undefined bins hold NaN.  Both
    variances quantify the variance of ``g_bla`` itself: ``var_noise`` the
    part due to aperiodic (process plus output) noise, ``var_total``
    additionally the part due to the excitation-dependent nonlinear
    distortion.
    """

    excited_bins: np.ndarray
    g_bla: np.ndarray
    var_noise: np.ndarray
    var_total: np.ndarray
    realization_count: int
    period_count: int
    samples_per_period: int
    sampling_frequency: float

    @property
    def defined(self) -> np.ndarray:
        return np.isfinite(self.g_bla)

    @property
    def frequencies(self) -> np.ndarray:
        return self.excited_bins * (self.sampling_frequency / self.samples_per_period)


def robust_bla(record: ExperimentRecord) -> BlaEstimate:
    """The robust estimate of the indirect frequency response ``G_yr / G_ur``.

    At every excited bin, with ``R`` the reference:

        g         = mean_{m,p} (Y_mp / R_m) / d,   d = mean_{m,p} (U_mp / R_m)
        g_mp      = (Y_mp / R_m - g (U_mp / R_m - d)) / d,   g_m = mean_p g_mp
        var_noise = sum_{m,p} |g_m - g_mp|^2 / (M^2 P (P-1))
        var_total = sum_m |g - g_m|^2 / (M (M-1))

    ``g_mp`` is the ratio linearized around ``g``.  The reference is
    independent of every noise source, which keeps ``g`` consistent in
    feedback.  A record without ``reference_spectra`` is the open loop,
    whose reference is its input: ``U_mp / R_m`` is exactly 1 and
    ``g_mp = Y_mp / U_m``.
    """
    m_count = record.realization_count
    p_count = record.period_count
    if m_count < 2 or p_count < 2:
        raise ValueError("robust estimation needs M >= 2 realizations and P >= 2 periods")
    bins = record.excited_bins
    open_loop = record.reference_spectra is None
    r = (record.input_spectra if open_loop else record.reference_spectra)[:, bins]
    with np.errstate(divide="ignore", invalid="ignore"):
        g_mp = record.output_spectra[:, :, bins] / r[:, None, :]
        den = (np.ones((1, 1, bins.size)) if open_loop
               else record.input_spectra_per_period[:, :, bins] / r[:, None, :])
        d = den.mean(axis=1).mean(axis=0)
        g = g_mp.mean(axis=1).mean(axis=0) / d
        # In place: the variance sums below add in this array's memory order.
        g_mp -= g * (den - d)
        g_mp /= d
    defined = np.all(r != 0, axis=0) & (d != 0)
    g_mp[:, :, ~defined] = 0.0  # masked as NaN below
    g_m = g_mp.mean(axis=1)
    var_noise = np.abs(g_m[:, None, :] - g_mp) ** 2
    var_noise = var_noise.sum(axis=(0, 1)) / (m_count ** 2 * p_count * (p_count - 1))
    var_total = (np.abs(g[None, :] - g_m) ** 2).sum(axis=0) / (m_count * (m_count - 1))
    return BlaEstimate(
        excited_bins=bins,
        g_bla=np.where(defined, g, complex(np.nan, np.nan)),
        var_noise=np.where(defined, var_noise, np.nan),
        var_total=np.where(defined, var_total, np.nan),
        realization_count=m_count,
        period_count=p_count,
        samples_per_period=record.samples_per_period,
        sampling_frequency=record.sampling_frequency,
    )


# The indirect estimator's former name, which the benchmark's Volterra study imports.
robust_bla_closed_loop = robust_bla


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Per-bin variance spectra of the output's constituents, on the half bin
    grid ``0..N//2``.

    ``var_noise`` and ``var_process`` are exact: white noise of variance s2
    has variance s2 in every unitary DFT bin, and the process-noise spectrum
    is the simulator's closed form.  ``var_nonlinear`` comes from the single
    supplied excitation (one squared sample, unbiased but coarse).
    """

    var_nonlinear: np.ndarray
    var_process: np.ndarray
    var_noise: np.ndarray


def decompose_output(simulator, u: PeriodicSignal, g_bla: np.ndarray) -> Decomposition:
    """Variance spectra of the nonlinear distortion, the process noise and the
    output noise in ``simulator``'s output for the excitation ``u``.

    Nothing is simulated or drawn.  The simulator's
    ``process_noise_statistics`` gives the noise-averaged output and the
    process-noise spectrum in closed form; the supplied reference response
    ``g_bla`` (on bins ``0..N//2``) then separates the linear part from the
    nonlinear distortion.  The simulator is a ``HammersteinSimulator``,
    whose white output noise gives ``var_noise`` in every bin.
    """
    n = u.samples_per_period
    g_bla = np.asarray(g_bla, dtype=complex)
    if g_bla.shape != (n // 2 + 1,):
        raise ValueError(f"g_bla must have one value per bin 0..N//2, "
                         f"expected shape ({n // 2 + 1},)")

    y_bar_bar, var_process = simulator.process_noise_statistics(u)
    bla_period = inverse_dft(Spectrum(
        bins=g_bla * dft(u).bins,
        samples_per_period=n,
        sampling_frequency=u.sampling_frequency,
    ))
    y_nonlinear = y_bar_bar - np.tile(bla_period, u.period_count)
    return Decomposition(
        var_nonlinear=(np.abs(period_spectra(y_nonlinear, n)) ** 2).mean(axis=0),
        var_process=var_process,
        var_noise=np.full(n // 2 + 1, float(simulator.output_noise_variance)),
    )


def predict_variances(var_noise_spectrum, var_process_spectrum, var_nonlinear_spectrum,
                      input_power, realization_count: int, period_count: int):
    """Expected values of the robust method's two variance estimates.

        E{var_noise} = (s2_n + s2_p) / (M P |U|^2)
        E{var_total} = s2_s / (M |U|^2) + (s2_n + s2_p) / (M P |U|^2)

    Bins with zero input power are undefined (NaN).
    """
    s2_n = np.asarray(var_noise_spectrum, dtype=float)
    s2_p = np.asarray(var_process_spectrum, dtype=float)
    s2_s = np.asarray(var_nonlinear_spectrum, dtype=float)
    u2 = np.asarray(input_power, dtype=float)
    for name, arr in (("var_noise_spectrum", s2_n), ("var_process_spectrum", s2_p),
                      ("var_nonlinear_spectrum", s2_s), ("input_power", u2)):
        if np.any(arr < 0):
            raise ValueError(f"{name} must be >= 0")
    m = int(realization_count)
    p = int(period_count)
    with np.errstate(divide="ignore", invalid="ignore"):
        pred_noise = (s2_n + s2_p) / (m * p * u2)
        pred_total = s2_s / (m * u2) + pred_noise
    undefined = np.broadcast_to(u2 == 0, pred_noise.shape)
    pred_noise = np.where(undefined, np.nan, pred_noise)
    pred_total = np.where(undefined, np.nan, pred_total)
    return pred_noise, pred_total


# ---------------------------------------------------------------------------
# Serialization: BLA result CSV and experiment record bundles


_BLA_HEADER = "bin_index,frequency_hz,g_real,g_imag,var_noise,var_total,defined_flag"


def write_bla_csv(path, estimate: BlaEstimate) -> None:
    g = estimate.g_bla
    _write_table(path, _BLA_HEADER,
                 (estimate.excited_bins, estimate.frequencies, g.real, g.imag,
                  estimate.var_noise, estimate.var_total, np.isfinite(g)))


def read_bla_csv(path) -> BlaEstimate:
    """Read a ``write_bla_csv`` file; its ``bin_index`` column must hold distinct,
    increasing, nonnegative integers, or ValueError names the file.

    The file holds no M, P, N or sampling frequency, so those fields read 0.
    """
    bins, _, g, g_imag, var_noise, var_total, _ = _read_table(path, _BLA_HEADER)
    integral = np.isfinite(bins) & (bins == np.floor(bins))
    if not (integral.all() and bins[0] >= 0 and np.all(np.diff(bins) > 0)):
        raise ValueError(f"{path}: bin_index must hold distinct, increasing, "
                         f"nonnegative integers")
    g = g.astype(complex)
    g.imag = g_imag  # bit-exact, unlike g + 1j*g_imag (-0.0 and inf)
    return BlaEstimate(
        excited_bins=bins.astype(int), g_bla=g, var_noise=var_noise, var_total=var_total,
        realization_count=0, period_count=0, samples_per_period=0, sampling_frequency=0.0,
    )


# One spectrum CSV per realization (and period): (file name over the indices,
# ExperimentRecord field, one file per period, closed loop only).
_BUNDLE_FILES = (
    ("u_m{0:03d}.csv", "input_spectra", False, False),
    ("y_m{0:03d}_p{1:02d}.csv", "output_spectra", True, False),
    ("u_m{0:03d}_p{1:02d}.csv", "input_spectra_per_period", True, True),
    ("r_m{0:03d}.csv", "reference_spectra", False, True),
)


def write_record_bundle(directory, record: ExperimentRecord) -> None:
    """Write an experiment record as per-(m, p) spectrum CSVs plus a manifest."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = record.samples_per_period
    fs = record.sampling_frequency
    for pattern, field, _, _ in _BUNDLE_FILES:
        spectra = getattr(record, field)
        if spectra is None:
            continue
        for index in np.ndindex(spectra.shape[:-1]):
            write_spectrum_csv(directory / pattern.format(*index), Spectrum(
                bins=spectra[index], samples_per_period=n, sampling_frequency=fs))
    manifest = {
        "realizations": record.realization_count,
        "periods": record.period_count,
        "samples_per_period": n,
        "sampling_frequency_hz": fs,
        "excited_bins": record.excited_bins.tolist(),
        "closed_loop": record.reference_spectra is not None,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def read_bundle_manifest(directory) -> dict:
    """The manifest of a bundle: its grid, read before any spectrum is."""
    return json.loads((pathlib.Path(directory) / "manifest.json").read_text())


def read_record_bundle(directory, manifest: dict) -> ExperimentRecord:
    """Read the spectra of a bundle whose ``read_bundle_manifest`` is ``manifest``.

    The manifest sizes the arrays, so check it first.  A damaged bundle
    raises OSError, ValueError, TypeError or KeyError.
    """
    directory = pathlib.Path(directory)
    n = manifest["samples_per_period"]
    spectra = {}
    for pattern, field, per_period, closed_only in _BUNDLE_FILES:
        if closed_only and not manifest["closed_loop"]:
            continue
        shape = (manifest["realizations"],) + ((manifest["periods"],) if per_period else ())
        spectra[field] = np.empty(shape + (n // 2 + 1,), dtype=complex)
        for index in np.ndindex(shape):
            spectra[field][index] = read_spectrum_csv(directory / pattern.format(*index), n).bins
    return ExperimentRecord(
        excited_bins=np.asarray(manifest["excited_bins"], dtype=int),
        samples_per_period=n, sampling_frequency=manifest["sampling_frequency_hz"],
        **spectra,
    )
