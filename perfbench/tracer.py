"""Span tracer for blakit, installed from outside the package.

:func:`install` wraps the public functions of each blakit module, plus the
few methods that carry a layer's work, in every namespace that looks them
up.  ``cli.py`` and ``experiment.py`` bind names such as ``robust_bla`` and
``write_record_bundle`` with ``from ... import``, so patching only the
defining module would miss those calls.  Spans (name, start, end, parent)
and counters stay in memory until :meth:`Tracer.dump` writes them out.

:func:`layer_metrics` turns the dumps of one experiment's processes into the
per-layer metrics named in ``BENCHMARK.json``.  This module imports nothing
outside the standard library at import time, so the benchmark's parent
process can use it without loading numpy or blakit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "experiment", "signals", "systems", "volterra", "estimator", "analytic")

# Methods traced besides the public module-level functions.
METHODS = {
    "systems": (
        "RationalLTI.filter",
        "HammersteinSimulator.run",
        "HammersteinSimulator.required_warmup",
        "HammersteinPlant.stepper",
        "VolterraPlant.stepper",
    ),
}

# Per-layer metric -> unit.  Order follows BENCHMARK.json.
PER_LAYER_UNITS = {
    "cli.overhead_s": "s",
    "experiment.run_experiment_s": "s",
    "experiment.records_s": "s",
    "signals.noise_samples": "count",
    "signals.generate_noise_s": "s",
    "signals.dft.calls": "count",
    "signals.dft_s": "s",
    "signals.derive_rng.calls": "count",
    "signals.csv_write_s": "s",
    "signals.csv_write_bytes": "B",
    "systems.sim_runs": "count",
    "systems.sim_run_s": "s",
    "systems.warmup_probes": "count",
    "systems.warmup_probe_s": "s",
    "systems.simulated_samples": "count",
    "systems.recorded_samples": "count",
    "systems.recorded_fraction": "ratio",
    "systems.loop_s": "s",
    "systems.loop_steps": "count",
    "systems.loop_step_us": "us",
    "systems.plant_s": "s",
    "volterra.kernel_terms": "count",
    "volterra.evaluate_dual_kernel.calls": "count",
    "volterra.evaluate_dual_kernel_s": "s",
    "volterra.expected_kernel_s": "s",
    "estimator.decompose_s": "s",
    "estimator.bundle_write_s": "s",
    "estimator.bundle_bytes": "B",
    "estimator.bla_csv_s": "s",
    "estimator.robust_bla_s": "s",
    "analytic.s": "s",
    "trace.overhead_frac": "ratio",
}

# Metrics that repeat exactly for one seed; the others are timings.
EXACT = {name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "B")}

# Time metric -> span names; a span counts unless an ancestor is in the group.
_SPAN_TIMES = {
    "experiment.run_experiment_s": ("experiment.run_experiment",),
    "experiment.records_s": ("experiment.run_open_loop_records",
                             "experiment.run_closed_loop_records"),
    "signals.generate_noise_s": ("signals.generate_noise",),
    "signals.dft_s": ("signals.dft",),
    "signals.csv_write_s": ("signals.write_signal_csv", "signals.write_spectrum_csv"),
    "systems.sim_run_s": ("systems.HammersteinSimulator.run",),
    "systems.warmup_probe_s": ("systems.HammersteinSimulator.required_warmup",),
    "systems.loop_s": ("systems.simulate_closed_loop_batch",),
    "volterra.evaluate_dual_kernel_s": ("volterra.evaluate_dual_kernel",),
    "volterra.expected_kernel_s": ("volterra.expected_kernel",),
    "estimator.decompose_s": ("estimator.decompose_output",),
    "estimator.bundle_write_s": ("estimator.write_record_bundle",),
    "estimator.bla_csv_s": ("estimator.write_bla_csv", "estimator.read_bla_csv"),
    "estimator.robust_bla_s": ("estimator.robust_bla", "estimator.robust_bla_closed_loop"),
}

_SPAN_CALLS = {
    "signals.dft.calls": "signals.dft",
    "signals.derive_rng.calls": "signals.derive_rng",
    "systems.sim_runs": "systems.HammersteinSimulator.run",
    "systems.warmup_probes": "systems.HammersteinSimulator.required_warmup",
    "volterra.evaluate_dual_kernel.calls": "volterra.evaluate_dual_kernel",
}

# Counters the hooks below fill in directly.
_COUNTERS = (
    "signals.noise_samples",
    "signals.csv_write_bytes",
    "systems.recorded_samples",
    "systems.loop_steps",
    "systems.plant_s",
    "volterra.kernel_terms",
    "estimator.bundle_bytes",
)


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` recording a span per call; ``hook`` may replace the result."""
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if hook is not None:
                result = hook(self.counts, result, args, kwargs)
            return result

        return traced

    def dump(self, path, install_s: float) -> None:
        dump_start = time.monotonic()
        payload = {"spans": self.spans, "counts": dict(self.counts),
                   "install_s": install_s, "dump_start": dump_start}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _tree_bytes(directory) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def _hooks(np):
    """Counter hooks keyed by span name; each returns the (possibly wrapped) result."""

    def noise(counts, result, args, kwargs):
        counts["signals.noise_samples"] += int(_arg(args, kwargs, 1, "length"))
        return result

    def wrote(counts, result, args, kwargs):
        counts["signals.csv_write_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        return result

    def bundle(counts, result, args, kwargs):
        counts["estimator.bundle_bytes"] += _tree_bytes(_arg(args, kwargs, 0, "directory"))
        return result

    def filtered(counts, result, args, kwargs):
        counts["systems.filtered_samples"] += np.size(_arg(args, kwargs, 1, "x"))
        return result

    def probe(counts, result, args, kwargs):
        u = _arg(args, kwargs, 1, "u")
        counts["systems.probe_samples"] += result[0] * u.samples_per_period
        return result

    def sim_run(counts, result, args, kwargs):
        counts["systems.recorded_samples"] += result.output.samples.size
        return result

    def loop(counts, result, args, kwargs):
        if result:
            first = result[0]
            out = first.output_measured
            counts["systems.loop_steps"] += (
                (2 * first.warmup_periods + out.period_count) * out.samples_per_period)
        return result

    def timed_step(counts, step):
        clock = time.monotonic

        def timed(u0, nx):
            start = clock()
            try:
                return step(u0, nx)
            finally:
                counts["systems.plant_s"] += clock() - start

        return timed

    def hammerstein_stepper(counts, result, args, kwargs):
        return timed_step(counts, result)

    def volterra_stepper(counts, result, args, kwargs):
        terms = sum(int(np.count_nonzero(k.coefficients)) for k in args[0].kernels)
        counts["volterra.kernel_terms"] = max(counts["volterra.kernel_terms"], terms)
        return timed_step(counts, result)

    return {
        "signals.generate_noise": noise,
        "signals.write_signal_csv": wrote,
        "signals.write_spectrum_csv": wrote,
        "estimator.write_record_bundle": bundle,
        "systems.RationalLTI.filter": filtered,
        "systems.HammersteinSimulator.required_warmup": probe,
        "systems.HammersteinSimulator.run": sim_run,
        "systems.simulate_closed_loop_batch": loop,
        "systems.HammersteinPlant.stepper": hammerstein_stepper,
        "systems.VolterraPlant.stepper": volterra_stepper,
    }


def install(tracer: Tracer, callers=()) -> None:
    """Wrap blakit's layer functions in every blakit module and in ``callers``."""
    import numpy as np

    hooks = _hooks(np)
    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"blakit.{layer}")
        for name, value in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                span = f"{layer}.{name}"
                replacements[value] = tracer.wrap(span, value, hooks.get(span))
        for qualname in METHODS.get(layer, ()):
            class_name, method = qualname.split(".")
            cls = getattr(module, class_name)
            span = f"{layer}.{qualname}"
            setattr(cls, method, tracer.wrap(span, cls.__dict__[method], hooks.get(span)))
    namespaces = [m for name, m in sys.modules.items()
                  if name == "blakit" or name.startswith("blakit.")]
    for module in (*namespaces, *callers):
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(module, name, replacements[value])


# ---------------------------------------------------------------------------
# Aggregation, run in the benchmark's parent process


def _outer_time(spans, names) -> float:
    """Summed duration of spans in ``names`` that no span in ``names`` encloses."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(processes) -> dict[str, float]:
    """Per-layer metrics of one experiment.

    ``processes`` holds ``(start, end, dump)`` per traced process, with the
    start and end read from ``time.monotonic`` in the parent, the same clock
    the spans use.  Layers that did not run report 0.
    """
    values = defaultdict(float)
    for proc_start, proc_end, dump in processes:
        spans = dump["spans"]
        names = {span[0] for span in spans}
        for metric, group in _SPAN_TIMES.items():
            values[metric] += _outer_time(spans, set(group))
        for metric, span_name in _SPAN_CALLS.items():
            values[metric] += sum(1 for span in spans if span[0] == span_name)
        values["analytic.s"] += _outer_time(
            spans, {n for n in names if n.startswith("analytic.")})
        main = _outer_time(spans, {"cli.main"})
        if main:
            traced_self = dump["install_s"] + (proc_end - dump["dump_start"])
            values["cli.overhead_s"] += (proc_end - proc_start) - main - traced_self
        counts = dump["counts"]
        for name in _COUNTERS:
            values[name] += counts.get(name, 0.0)
        values["systems.simulated_samples"] += (counts.get("systems.filtered_samples", 0.0)
                                                + counts.get("systems.probe_samples", 0.0))
    simulated = values["systems.simulated_samples"]
    values["systems.recorded_fraction"] = (
        values["systems.recorded_samples"] / simulated if simulated else 0.0)
    steps = values["systems.loop_steps"]
    values["systems.loop_step_us"] = values["systems.loop_s"] / steps * 1e6 if steps else 0.0
    return {name: int(values[name]) if name in EXACT else values[name]
            for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
