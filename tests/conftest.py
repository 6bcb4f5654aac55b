"""Fixtures shared by the test modules."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from blakit.signals import Spectrum, derive_rng, dft, generate_noise, inverse_dft


class Split(NamedTuple):
    y_bla: np.ndarray
    y_nonlinear: np.ndarray
    y_process: np.ndarray
    y_output_noise: np.ndarray
    y_total: np.ndarray


def _split_output(simulator, u, g_bla, seed) -> Split:
    """Split one measured run of ``simulator`` on ``u`` into its constituents.

    The run draws its noise from the ``("decompose", "measured_nx")`` and
    ``("decompose", "measured_ny")`` streams of ``seed``; the output noise is
    redrawn from a twin of the second.  ``process_noise_statistics`` gives
    the noise-averaged output ``S[E f(u + nx)]``, and ``g_bla`` (bins
    ``0..N//2``) its linear part ``y_bla``.  ``y_nonlinear`` and
    ``y_process`` are differences, so ``y_bla + y_nonlinear + y_process +
    y_output_noise`` rebuilds ``y_total`` to round-off by construction.
    """
    n, p = u.samples_per_period, u.period_count
    measured = simulator.run(
        u,
        process_noise_rng=derive_rng(seed, "decompose", "measured_nx"),
        output_noise_rng=derive_rng(seed, "decompose", "measured_ny"),
    )
    y_total = measured.output.samples
    y_output_noise = generate_noise(simulator.output_noise_variance, p * n,
                                    derive_rng(seed, "decompose", "measured_ny"))
    y_bar_bar, _ = simulator.process_noise_statistics(u)
    y_bla = np.tile(inverse_dft(Spectrum(
        bins=np.asarray(g_bla, dtype=complex) * dft(u).bins,
        samples_per_period=n,
        sampling_frequency=u.sampling_frequency,
    )), p)
    return Split(
        y_bla=y_bla,
        y_nonlinear=y_bar_bar - y_bla,
        y_process=(y_total - y_output_noise) - y_bar_bar,
        y_output_noise=y_output_noise,
        y_total=y_total,
    )


@pytest.fixture
def split_output():
    """The time-domain split of one measured output: ``split_output(simulator,
    u, g_bla, seed)`` returns ``y_bla``, ``y_nonlinear``, ``y_process``,
    ``y_output_noise`` and ``y_total``."""
    return _split_output
