"""Config-driven experiment pipelines: generate, simulate, estimate, report.

An experiment is a pure function of its configuration and master seed: every
random stream is derived from the seed by a stable key, reduction order is
fixed by realization index, and floats are serialized at round-trip
precision, so rerunning a config yields byte-identical outputs.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import pathlib
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .analytic import (
    GaussianInputModel,
    analytic_hammerstein_bla,
    hermite_table,
)
from .estimator import (
    BlaEstimate,
    ExperimentRecord,
    decompose_output,
    read_bla_csv,
    read_bundle_manifest,
    read_record_bundle,
    robust_bla,
    write_bla_csv,
    write_record_bundle,
)
from .signals import (
    MultisineSpec,
    _bin_labels,
    _fmt,
    _write_table,
    derive_rng,
    dft,
    generate_multisine,
    period_spectra,
    write_signal_csv,
    write_spectrum_csv,
)
from .systems import (
    ClosedLoopConfig,
    ConfigurationError,
    HammersteinPlant,
    HammersteinSimulator,
    PolynomialNonlinearity,
    RationalLTI,
    SystemDescription,
    _check_keys,
    _check_variance,
    read_system_file,
    simulate_closed_loop_batch,
)

__all__ = [
    "ExperimentConfig",
    "read_experiment_config",
    "write_experiment_config",
    "multisine_spec",
    "run_open_loop_records",
    "run_closed_loop_records",
    "run_records",
    "run_experiment",
    "write_generated_signals",
    "compare_reports",
    "hammerstein_demo_config",
]

@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a reproducible experiment depends on."""

    loop: str
    realizations: int
    periods: int
    samples_per_period: int
    sampling_frequency: float
    excited_bins: tuple[int, ...]
    input_rms: float
    system: SystemDescription
    process_noise_variance: float = 0.0
    output_noise_variance: float = 0.0
    input_noise_variance: float = 0.0
    master_seed: int = 0
    compare_analytic: bool = True

    def __post_init__(self):
        if self.loop not in ("open", "closed"):
            raise ConfigurationError(f"loop must be 'open' or 'closed', got {self.loop!r}")
        if self.realizations < 2 or self.periods < 2:
            raise ConfigurationError(
                "the robust estimator needs realizations >= 2 and periods >= 2"
            )
        n = self.samples_per_period
        if n < 4:
            raise ConfigurationError(f"samples_per_period must be >= 4, got {n}")
        bins = sorted({int(k) for k in self.excited_bins})
        if not bins:
            raise ConfigurationError("excited-bin set is empty")
        if bins[0] < 1 or 2 * bins[-1] >= n:
            raise ConfigurationError(
                f"excited bins must satisfy 0 < k < N/2 with N = {n}, "
                f"got {bins[0]}..{bins[-1]}"
            )
        if self.master_seed < 0:
            raise ConfigurationError(f"master seed must be >= 0, got {self.master_seed}")
        for field in ("sampling_frequency", "input_rms"):
            value = getattr(self, field)
            if not (np.isfinite(value) and value > 0):  # NaN fails both
                raise ConfigurationError(f"{_KEYS[field]} must be finite and > 0, got {value}")
        if not np.isfinite(float(self.input_rms) * self.input_rms):  # the input variance
            raise ConfigurationError(f"rms = {self.input_rms:g} has no finite square")
        if not math.isfinite((n - 1) * (1.0 / self.sampling_frequency)):  # the last time
            raise ConfigurationError(f"sampling_frequency_hz = {self.sampling_frequency:g} "
                                     f"puts sample {n - 1} at no finite time")
        for field in ("process_noise_variance", "output_noise_variance",
                      "input_noise_variance"):
            _check_variance(_KEYS[field], getattr(self, field))
        if self.loop == "open" and self.input_noise_variance != 0:
            raise ConfigurationError("input_variance must be 0 in open loop, where the "
                                     "plant input is the noise-free excitation")
        if self.loop == "closed" and (self.system.actuator is None
                                      or self.system.feedback is None):
            raise ConfigurationError("closed-loop experiments need G_act and M blocks")
        if self.compare_analytic and not self._analytic_supported():
            raise ConfigurationError("the closed loop's analytic reference needs f(x) = x")
        object.__setattr__(self, "excited_bins", tuple(bins))

    def _analytic_supported(self) -> bool:
        c = self.system.nonlinearity.coefficients
        return self.loop == "open" or (c.size == 1 and c[0] == 1.0)

    @property
    def gaussian_model(self) -> GaussianInputModel:
        return GaussianInputModel(
            input_variance=self.input_rms ** 2,
            process_noise_variance=self.process_noise_variance,
        )


def multisine_spec(config: ExperimentConfig) -> MultisineSpec:
    return MultisineSpec.flat(
        config.samples_per_period,
        config.sampling_frequency,
        np.asarray(config.excited_bins, dtype=int),
        rms=config.input_rms,
    )


def _parse_bins(text: str, samples_per_period: int) -> tuple[int, ...]:
    text = text.strip()
    if text == "all":
        return tuple(range(1, samples_per_period // 2))
    if ":" in text and "," not in text:
        lo, hi = (int(part) for part in text.split(":"))
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _bin_range(bins) -> str | None:
    """``"lo:hi"`` when the sorted ``bins`` form one contiguous run, else None."""
    return f"{bins[0]}:{bins[-1]}" if len(bins) == bins[-1] - bins[0] + 1 else None


# The config file in write order: (section, key, ExperimentConfig field, type).
# "bins" is written as "lo:hi" or a comma list and also read as "all"; "file" is
# the system file's path.  A key without a _FALLBACKS entry (the field default,
# or a file-only one) is required.  The reader refuses every other section and key.
_CONFIG_KEYS = (
    ("experiment", "loop", "loop", str),
    ("experiment", "realizations", "realizations", int),
    ("experiment", "periods", "periods", int),
    ("experiment", "master_seed", "master_seed", int),
    ("multisine", "samples_per_period", "samples_per_period", int),
    ("multisine", "sampling_frequency_hz", "sampling_frequency", float),
    ("multisine", "excited_bins", "excited_bins", "bins"),
    ("multisine", "rms", "input_rms", float),
    ("system", "file", "system", "file"),
    ("noise", "process_variance", "process_noise_variance", float),
    ("noise", "output_variance", "output_noise_variance", float),
    ("noise", "input_variance", "input_noise_variance", float),
    ("oracle", "compare_analytic", "compare_analytic", bool),
)
_KEYS = {field: key for _, key, field, _ in _CONFIG_KEYS}
_SCHEMA = {section: [key for s, key, _, _ in _CONFIG_KEYS if s == section]
           for section, *_ in _CONFIG_KEYS}
_FALLBACKS = {"loop": "open", "sampling_frequency": 1.0, "excited_bins": "all", "input_rms": 1.0,
              **{f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}}
_GETTERS = {int: "getint", float: "getfloat", bool: "getboolean"}  # others: "get"
_TEXT = {float: _fmt, bool: lambda flag: str(flag).lower(),  # others: str
         "bins": lambda bins: _bin_range(bins) or ", ".join(map(str, bins))}


def read_experiment_config(path) -> ExperimentConfig:
    """Parse an experiment configuration file (INI sections, explicit units)."""
    path = pathlib.Path(path)
    parser = configparser.ConfigParser()
    values = {}
    try:
        if not parser.read(str(path), encoding="utf-8"):
            raise ConfigurationError(f"cannot read config file {path}")
        _check_keys(parser, _SCHEMA, path)
        for section, key, field, kind in _CONFIG_KEYS:
            if field in _FALLBACKS and not parser.has_option(section, key):
                value = _FALLBACKS[field]
            else:
                value = getattr(parser, _GETTERS.get(kind, "get"))(section, key)
            if kind == "bins":
                value = _parse_bins(value, values["samples_per_period"])
            elif kind == "file":
                value = read_system_file((path.parent / value).resolve())
            values[field] = value
        return ExperimentConfig(**values)
    except (configparser.Error, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"invalid config file {path}: {exc}") from exc


def write_experiment_config(path, config: ExperimentConfig, system_file: str) -> None:
    parser = configparser.ConfigParser()
    for section, key, field, kind in _CONFIG_KEYS:
        value = system_file if kind == "file" else getattr(config, field)
        parser.read_dict({section: {key: _TEXT.get(kind, str)(value)}})
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# Record building


def _excitations(config: ExperimentConfig):
    """One period of each realization's multisine, from one spec.

    It is the plant input in open loop and the reference in closed loop,
    and finite: ``|u| <= rms * sqrt(2K)`` for ``K`` bins, and ``rms**2`` is.
    """
    spec = multisine_spec(config)
    label = "reference" if config.loop == "closed" else "input"
    for m in range(config.realizations):
        yield generate_multisine(spec, derive_rng(config.master_seed, label, m))


def _simulator(config: ExperimentConfig) -> HammersteinSimulator:
    return HammersteinSimulator(
        config.system.dynamics, config.system.nonlinearity,
        config.process_noise_variance, config.output_noise_variance,
    )


def _record(config: ExperimentConfig, **spectra) -> ExperimentRecord:
    return ExperimentRecord(
        excited_bins=np.asarray(config.excited_bins, dtype=int),
        samples_per_period=config.samples_per_period,
        sampling_frequency=config.sampling_frequency, **spectra,
    )


def run_open_loop_records(config: ExperimentConfig) -> tuple[ExperimentRecord, dict]:
    sim = _simulator(config)
    u, y, leads = [], [], []
    for m, sig in enumerate(_excitations(config)):
        rec = sim.run(
            sig.tile(config.periods),
            process_noise_rng=derive_rng(config.master_seed, "process_noise", m),
            output_noise_rng=derive_rng(config.master_seed, "output_noise", m),
        )
        u.append(dft(sig).bins)
        y.append(period_spectra(rec.output.samples, sig.samples_per_period))
        leads.append(rec.lead_in_samples)
    record = _record(config, input_spectra=np.stack(u), output_spectra=np.stack(y))
    return record, {"lead_in_samples": max(leads)}


def run_closed_loop_records(config: ExperimentConfig) -> tuple[ExperimentRecord, dict]:
    loop = ClosedLoopConfig(
        plant=HammersteinPlant(config.system.dynamics, config.system.nonlinearity),
        actuator=config.system.actuator,
        feedback=config.system.feedback,
        input_noise_variance=config.input_noise_variance,
        process_noise_variance=config.process_noise_variance,
        output_noise_variance=config.output_noise_variance,
    )
    records = simulate_closed_loop_batch(
        loop, [u.tile(config.periods) for u in _excitations(config)], config.master_seed)
    n = config.samples_per_period
    u_pp = np.stack([period_spectra(rec.input_measured.samples, n) for rec in records])
    record = _record(
        config, input_spectra=u_pp.mean(axis=1), input_spectra_per_period=u_pp,
        output_spectra=np.stack([period_spectra(rec.output_measured.samples, n)
                                 for rec in records]),
        reference_spectra=np.stack([dft(rec.reference).bins for rec in records]))
    return record, {"warmup_periods_used": max(rec.warmup_periods for rec in records)}


def run_records(config: ExperimentConfig) -> tuple[ExperimentRecord, dict]:
    """Simulate the record of ``config`` with the builder of its loop.

    Returns the record and, for the summary, what ran before it: the open
    loop's ``lead_in_samples`` or the closed loop's ``warmup_periods_used``.
    """
    # Looked up at call time, so a wrapped builder (e.g. a tracer's) is used.
    if config.loop == "closed":
        return run_closed_loop_records(config)
    return run_open_loop_records(config)


def write_generated_signals(config: ExperimentConfig, out_dir) -> list[pathlib.Path]:
    """Write the excitation signals and spectra the experiment would use."""
    signals = list(_excitations(config))
    signals_dir = pathlib.Path(out_dir) / "signals"
    signals_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for m, sig in enumerate(signals):
        sig_path = signals_dir / f"u_m{m:03d}.csv"
        spec_path = signals_dir / f"u_m{m:03d}_spectrum.csv"
        write_signal_csv(sig_path, sig)
        write_spectrum_csv(spec_path, dft(sig))
        written += [sig_path, spec_path]
    return written


# ---------------------------------------------------------------------------
# Full experiment


def _analytic_reference(config: ExperimentConfig) -> np.ndarray:
    # In closed loop f is the identity (checked at construction), whose gain
    # is exactly 1.0, so this is the linear plant's response bit for bit.
    return analytic_hammerstein_bla(
        config.system.dynamics, config.system.nonlinearity,
        config.gaussian_model, config.samples_per_period,
    )


# The oracle's band is BAND_SIGMA standard deviations of the estimate; its gate
# fails a correct estimate with probability at most FALSE_FAIL_LEVEL.
BAND_SIGMA = 3.0
FALSE_FAIL_LEVEL = 1e-3


def _in_band_probability(realizations: int) -> float:
    """``c(M, 3)``, a correct estimate's chance to lie in its band: F(2, 2(M-1)) at 3²."""
    return 1 - (1 + BAND_SIGMA ** 2 / (realizations - 1)) ** -(realizations - 1)


def _binomial_tail(misses: int, n: int, p: float) -> float:
    """``P(Bin(n, p) >= misses)``, from log-gamma terms on the short side of the mean.

    The terms fall away from the mean ``n p`` on both sides, so one side is
    summed outward from ``misses`` until a term no longer changes the sum.
    Up to the mean, the tail is one minus the terms below ``misses`` (exactly
    1.0 with no miss), which is near 1/2 or more, so nothing cancels.
    """
    def outward(terms: range) -> float:
        total = 0.0
        for j in terms:
            step = math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                            + j * math.log(p) + (n - j) * math.log1p(-p))
            if total + step == total:
                break
            total += step
        return total

    if misses <= n * p:
        return 1.0 - outward(range(misses - 1, -1, -1))
    return outward(range(misses, n + 1))


def _comparison_summary(config: ExperimentConfig, estimate: BlaEstimate) -> dict:
    full = _analytic_reference(config)
    reference = full[estimate.excited_bins]
    defined = estimate.defined
    err = np.abs(estimate.g_bla - reference)
    # A noise-free linear run errs by round-off alone, a few eps of the largest
    # gain, and its var_total is 0 or round-off too: the band's floor is 16 eps of it.
    band = np.maximum(BAND_SIGMA * np.sqrt(np.maximum(estimate.var_total, 0.0)),
                      16 * np.finfo(float).eps * np.abs(full).max())
    in_band = err[defined] <= band[defined]
    n = in_band.size
    expected = _in_band_probability(estimate.realization_count)
    tail = _binomial_tail(n - int(in_band.sum()), n, 1 - expected)
    # A zero gain has no relative error, and a subnormal one's may pass every float.
    nonzero = defined & (reference != 0)
    with np.errstate(over="ignore"):
        rel = err[nonzero] / np.abs(reference[nonzero])
    max_rel = float(rel.max()) if rel.size else math.inf
    return {
        "enabled": True,
        "band_sigma": BAND_SIGMA,
        "fraction_in_band": float(in_band.mean()) if n else 0.0,
        "expected_fraction_in_band": expected,
        "false_fail_level": FALSE_FAIL_LEVEL,
        "tail_probability": tail,
        "defined_bins": n,
        "max_abs_error": float(err[defined].max()) if n else None,
        "mean_abs_error": float(err[defined].mean()) if n else None,
        "max_relative_error": max_rel if math.isfinite(max_rel) else None,
        "pass": n > 0 and tail >= FALSE_FAIL_LEVEL,
    }


def _hash_tree(out_dir: pathlib.Path, skip: set[str]) -> dict:
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file() and path.name not in skip}


def _config_echo(config: ExperimentConfig) -> dict:
    # Shallow: asdict would deep-copy the system and the bins, both replaced below.
    echo = {field.name: getattr(config, field.name) for field in fields(config)}
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


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Simulate, estimate, and write the report bundle.

    Writes the record bundle, then what ``_report`` writes: the output
    decomposition in open loop, the frequency-response result CSV and a
    self-describing summary JSON, and returns that summary.  Identical
    config and seed give byte-identical outputs.
    """
    return write_experiment(config, out_dir, *run_records(config))


def write_experiment(config: ExperimentConfig, out_dir, record: ExperimentRecord,
                     ran: dict) -> dict:
    """Write what ``run_experiment`` writes for ``(record, ran)`` from
    ``run_records(config)``, creating ``out_dir``; return the summary."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_record_bundle(out_dir / "records", record)
    return _report(config, out_dir, record, ran=ran)


def _run_decomposition(config: ExperimentConfig, out_dir: pathlib.Path) -> None:
    u = next(_excitations(config))
    decomposition = decompose_output(
        _simulator(config), u.tile(config.periods), _analytic_reference(config))
    model = config.gaussian_model
    table = hermite_table(config.system.nonlinearity, model)
    (out_dir / "decomposition_report.json").write_text(json.dumps({
        "input_variance": model.input_variance,
        "process_noise_variance": model.process_noise_variance,
        "hermite": table.tolist(),
    }, indent=2, sort_keys=True))

    _write_table(out_dir / "decomposition_variances.csv",
                 "bin_index,frequency_hz,var_nonlinear,var_process,var_noise",
                 (decomposition.var_nonlinear, decomposition.var_process,
                  decomposition.var_noise),
                 newline="\n",
                 labels=_bin_labels(config.samples_per_period, config.sampling_frequency))


def estimate_from_bundle(config: ExperimentConfig, out_dir) -> dict:
    """Estimate from an existing record bundle, write what ``_report``
    writes and return the summary.

    The bundle must be readable and recorded on the grid of ``config``: the
    same samples per period, sampling frequency, excited bins, realization
    and period counts, and loop.  Otherwise ConfigurationError is raised
    before anything is written; the grid is checked on the manifest, before
    any spectrum is read.  The decomposition is a closed form of the config
    alone, so it writes what ``run_experiment`` writes.
    """
    out_dir = pathlib.Path(out_dir)
    bundle = out_dir / "records"
    grid = {  # manifest key: config value
        "samples_per_period": config.samples_per_period,
        "sampling_frequency_hz": config.sampling_frequency,
        "excited_bins": list(config.excited_bins),
        "realizations": config.realizations,
        "periods": config.periods,
        "closed_loop": config.loop == "closed",
    }
    try:
        manifest = read_bundle_manifest(bundle)
        mismatched = [name for name, wanted in grid.items() if manifest[name] != wanted]
        # The manifest sizes the spectrum arrays: read them only on the config's grid.
        record = None if mismatched else read_record_bundle(bundle, manifest)
    except KeyError as exc:
        raise ConfigurationError(f"{bundle / 'manifest.json'} lacks key {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigurationError(f"cannot read the record bundle under {bundle}: {exc}") from exc
    if mismatched:
        raise ConfigurationError(f"record bundle under {bundle} does not match the "
                                 f"config in: {', '.join(mismatched)}")
    return _report(config, out_dir, record)


def _report(config: ExperimentConfig, out_dir: pathlib.Path, record: ExperimentRecord,
            ran: dict | None = None) -> dict:
    """Write the output decomposition in open loop, where it is defined,
    estimate from ``record``, then write ``bla.csv`` and ``summary.json``
    and return the summary.

    ``summary.json`` hashes every other file under ``out_dir``.  ``ran``
    (from ``run_records``) is known only for a record simulated in this run.
    """
    decompose = config.loop == "open"
    if decompose:
        _run_decomposition(config, out_dir)
    estimate = robust_bla(record)
    write_bla_csv(out_dir / "bla.csv", estimate)
    comparison = (_comparison_summary(config, estimate)
                  if config.compare_analytic else {"enabled": False})
    summary = {
        "config": _config_echo(config),
        "estimate": {
            "realizations": estimate.realization_count,
            "periods": estimate.period_count,
            "excited_bins": int(estimate.excited_bins.size),
            "defined_bins": int(estimate.defined.sum()),
            **(ran or {}),
        },
        "analytic_comparison": comparison,
        "decomposition": {"enabled": decompose},
        "pass": bool(comparison.get("pass", True)),
    }
    summary["files"] = _hash_tree(out_dir, skip={"summary.json"})
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return summary


# ---------------------------------------------------------------------------
# Report comparison


def compare_reports(dir_a, dir_b, g_rel_tol: float | None = None,
                    var_ratio_tol: float | None = None) -> tuple[dict, bool]:
    """Per-bin comparison of two result bundles' frequency-response CSVs.

    Returns the diff summary and whether the supplied tolerances hold
    (absent tolerances are not checked).  Grids must match bin for bin.
    A tolerance must be finite and nonnegative, or no result could pass it.
    """
    for name, tol in (("g_rel_tol", g_rel_tol), ("var_ratio_tol", var_ratio_tol)):
        if tol is not None and not (np.isfinite(tol) and tol >= 0):  # NaN fails both
            raise ConfigurationError(f"{name} must be finite and >= 0, got {tol}")
    try:
        a, b = (read_bla_csv(pathlib.Path(d) / "bla.csv") for d in (dir_a, dir_b))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read a result: {exc}") from exc
    if not np.array_equal(a.excited_bins, b.excited_bins):
        raise ConfigurationError("bin grids differ; reports are not comparable")
    both = a.defined & b.defined
    diff = np.abs(b.g_bla - a.g_bla)
    gain_a, gain_b = np.abs(a.g_bla[both]), np.abs(b.g_bla[both])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = diff[both] / gain_a
        gain_ratio = gain_b / gain_a
    identical = bool(both.all() and diff[both].size
                     and diff[both].max() == 0.0
                     and np.array_equal(a.var_noise, b.var_noise)
                     and np.array_equal(a.var_total, b.var_total))
    summary = {
        "bins_compared": int(both.sum()),
        "identical": identical,
        "max_abs_diff": float(diff[both].max()) if both.any() else None,
        "max_rel_diff": float(rel.max()) if both.any() else None,
        "gain_ratio": _geometric_mean_ratio(gain_b, gain_a),
        "gain_ratio_min": float(gain_ratio.min()) if both.any() else None,
        "gain_ratio_max": float(gain_ratio.max()) if both.any() else None,
        "var_noise_ratio": _geometric_mean_ratio(b.var_noise[both], a.var_noise[both]),
        "var_total_ratio": _geometric_mean_ratio(b.var_total[both], a.var_total[both]),
    }
    ok = True
    if g_rel_tol is not None and summary["max_rel_diff"] is not None:
        ok &= summary["max_rel_diff"] <= g_rel_tol
    if var_ratio_tol is not None and both.any():  # a ratio that cannot be formed fails
        ratio = summary["var_total_ratio"]
        ok &= ratio is not None and abs(ratio - 1.0) <= var_ratio_tol
    summary["within_tolerance"] = bool(ok)
    return summary, bool(ok)


def _geometric_mean_ratio(b: np.ndarray, a: np.ndarray) -> float | None:
    """``exp(mean(log(b / a)))`` over the bins where both are positive and finite, or
    None.  Unlike a mean of ratios, it is not inflated by the scatter of ``a``."""
    use = (a > 0) & (b > 0) & np.isfinite(a) & np.isfinite(b)
    return float(np.exp(np.mean(np.log(b[use]) - np.log(a[use])))) if use.any() else None


# ---------------------------------------------------------------------------
# Canonical demonstration setup


def hammerstein_demo_system() -> SystemDescription:
    """Resonant second-order dynamics behind the cubic ``x + 0.1 x^3``.

    The response spans about 37 dB over the excited band with no nulls, so
    per-bin ratio diagnostics stay meaningful everywhere.
    """
    return SystemDescription(
        dynamics=RationalLTI(b=[0.25, 0.2], a=[1.0, -1.1, 0.46]),
        nonlinearity=PolynomialNonlinearity(coefficients=[1.0, 0.0, 0.1]),
    )


def hammerstein_demo_config(realizations: int = 10, periods: int = 2,
                            samples_per_period: int = 4096,
                            master_seed: int = 0) -> ExperimentConfig:
    """The flagship open-loop setup: unit-RMS flat multisine, cubic system,
    process and output noise of standard deviation 0.1 and 0.03."""
    return ExperimentConfig(
        loop="open",
        realizations=realizations,
        periods=periods,
        samples_per_period=samples_per_period,
        sampling_frequency=1.0,
        excited_bins=tuple(range(1, samples_per_period // 2)),
        input_rms=1.0,
        system=hammerstein_demo_system(),
        process_noise_variance=0.1 ** 2,
        output_noise_variance=0.03 ** 2,
        master_seed=master_seed,
    )
