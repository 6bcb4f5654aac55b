"""The nonparametric best-linear-approximation estimator and its serialization.

The robust estimator works on multiple periods (P) of multiple excitation
realizations (M), in either loop.  Period-to-period scatter feeds the noise
variance estimate, realization-to-realization scatter the total variance estimate;
both carry the extra ``M`` and ``P`` factors so they quantify the
variability of the final averaged frequency response, not of a single
period.  Bins where the reference is zero are reported as undefined
(NaN markers plus a ``defined`` mask) rather than zero or an exception.  The
module also serializes results and record bundles; closed forms are in ``analytic``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np

from .signals import _bin_labels, _read_table, _write_table

__all__ = [
    "ExperimentRecord",
    "BlaEstimate",
    "robust_bla",
    "robust_bla_closed_loop",
    "write_bla_csv",
    "read_bla_csv",
    "write_record_bundle",
    "read_bundle_manifest",
    "read_record_bundle",
]


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    """Spectra of one multi-realization, multi-period experiment.

    ``output_spectra[m, p]`` is the output DFT of period ``p`` of realization
    ``m``, on the half grid, bins ``0..N//2``.  An open-loop record's
    reference is ``input_spectra[m]``, the input DFT (noise free and periodic
    in open loop, so one per realization).  A closed-loop record holds the
    reference and per-period input spectra, both or neither, instead.
    """

    output_spectra: np.ndarray
    excited_bins: np.ndarray
    samples_per_period: int
    sampling_frequency: float
    input_spectra: np.ndarray | None = None
    reference_spectra: np.ndarray | None = None
    input_spectra_per_period: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.output_spectra, dtype=complex)
        n = int(self.samples_per_period)
        half = n // 2 + 1
        bins = np.asarray(self.excited_bins, dtype=int)
        if y.ndim != 3 or y.shape[2] != half:
            raise ValueError(f"output_spectra shape {y.shape} is not (M, P, N//2+1)")
        if bins.size == 0 or bins.min() < 0 or bins.max() >= half:
            raise ValueError("excited bins must be inside the bin grid")
        object.__setattr__(self, "output_spectra", y)
        bins = np.sort(bins, axis=None)
        object.__setattr__(self, "excited_bins", bins[np.append(True, bins[1:] != bins[:-1])])
        object.__setattr__(self, "samples_per_period", n)
        object.__setattr__(self, "sampling_frequency", float(self.sampling_frequency))
        if (self.reference_spectra is None) != (self.input_spectra_per_period is None):
            raise ValueError("a closed-loop record needs both reference_spectra "
                             "and input_spectra_per_period")
        if self.reference_spectra is None and self.input_spectra is None:
            raise ValueError("an open-loop record needs input_spectra")
        for name, want_ndim in (("input_spectra", 2), ("reference_spectra", 2),
                                ("input_spectra_per_period", 3)):
            value = getattr(self, name)
            if value is None:
                continue
            value = np.asarray(value, dtype=complex)
            if value.ndim != want_ndim or value.shape[0] != y.shape[0] or value.shape[-1] != half:
                raise ValueError(f"{name} shape {value.shape} inconsistent with record")
            if want_ndim == 3 and value.shape[1] != y.shape[1]:
                raise ValueError(f"{name} period count inconsistent with record")
            object.__setattr__(self, name, value)

    @property
    def realization_count(self) -> int:
        return self.output_spectra.shape[0]

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
    with np.errstate(over="ignore"):  # a variance beyond the floats reads inf
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


# A bundle's spectrum fields, one CSV each, keyed by the manifest's
# "closed_loop": (ExperimentRecord field, one spectrum per period).
_BUNDLE_FIELDS = {
    False: (("input_spectra", False), ("output_spectra", True)),
    True: (("reference_spectra", False), ("input_spectra_per_period", True),
           ("output_spectra", True)),
}


def _bundle_files(closed_loop: bool) -> list[str]:
    """The file names of a bundle: its manifest and one CSV per spectrum field."""
    return ["manifest.json", *(f"{field}.csv" for field, _ in _BUNDLE_FIELDS[closed_loop])]


def _bundle_header(shape) -> str:
    """The header of a bundle CSV of spectra indexed by ``shape``, ``(M,)`` or
    ``(M, P)``: ``bin_index,frequency_hz``, then a real and an imaginary
    column per spectrum in C order (``m003_real``, ``m003_p01_imag``)."""
    pattern = ("m{0:03d}", "m{0:03d}_p{1:02d}")[len(shape) - 1]
    names = (pattern.format(*index) for index in np.ndindex(*shape))
    return "bin_index,frequency_hz" + "".join(f",{name}_real,{name}_imag" for name in names)


def write_record_bundle(directory, record: ExperimentRecord) -> None:
    """Write an experiment record as a manifest plus one CSV per spectrum
    field, ``<field>.csv``: a row per bin ``0..N//2``, and a real and an
    imaginary column per realization (and period)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = record.samples_per_period
    fs = record.sampling_frequency
    closed = record.reference_spectra is not None
    for field, _ in _BUNDLE_FIELDS[closed]:
        spectra = getattr(record, field)
        _write_table(directory / f"{field}.csv", _bundle_header(spectra.shape[:-1]),
                     [part for spectrum in spectra.reshape(-1, n // 2 + 1)
                      for part in (spectrum.real, spectrum.imag)],
                     labels=_bin_labels(n, fs))
    manifest = {
        "realizations": record.realization_count,
        "periods": record.period_count,
        "samples_per_period": n,
        "sampling_frequency_hz": fs,
        "excited_bins": record.excited_bins.tolist(),
        "closed_loop": closed,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def read_bundle_manifest(directory) -> dict:
    """The manifest of a bundle: its grid, read before any spectrum is."""
    return json.loads((pathlib.Path(directory) / "manifest.json").read_text())


def read_record_bundle(directory, manifest: dict) -> ExperimentRecord:
    """Read the spectra of a bundle whose ``read_bundle_manifest`` is ``manifest``.

    The manifest sizes the arrays and implies each CSV's header, so check
    it first.  Each ``bin_index`` column must be exactly ``0..N//2`` for the
    manifest's N, which N + 1 would pass on row count alone.  A damaged
    bundle raises OSError, ValueError (naming the file), TypeError or KeyError.
    """
    directory = pathlib.Path(directory)
    n = manifest["samples_per_period"]
    spectra = {}
    for field, per_period in _BUNDLE_FIELDS[manifest["closed_loop"]]:
        shape = (manifest["realizations"],) + ((manifest["periods"],) if per_period else ())
        path = directory / f"{field}.csv"
        columns = _read_table(path, _bundle_header(shape))
        if not np.array_equal(columns[0], np.arange(n // 2 + 1)):
            raise ValueError(f"{path}: bin_index must run 0..{n // 2} in order for N = {n}")
        values = columns[2::2].astype(complex, order="C")
        values.imag = columns[3::2]  # bit-exact, unlike real + 1j*imag (-0.0 and inf)
        spectra[field] = values.reshape(shape + (n // 2 + 1,))
    return ExperimentRecord(
        excited_bins=np.asarray(manifest["excited_bins"], dtype=int),
        samples_per_period=n, sampling_frequency=manifest["sampling_frequency_hz"],
        **spectra,
    )
