"""Closed-form references for the Hammerstein structure under Gaussian inputs.

For a static polynomial followed by linear dynamics, the best linear model
of the whole chain is the dynamics scaled by the equivalent gain
``E{f'(x)}`` of the nonlinearity (Bussgang), where ``x`` collects the
excitation and the process noise entering the nonlinearity.  For every
accepted polynomial the output ``f(u + nx)`` expands over products of
Hermite polynomials of the normalized excitation and process noise; that
table splits the output into its constituents exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import PolynomialNonlinearity, RationalLTI, _check_variance
from .volterra import gaussian_power_moment

__all__ = [
    "GaussianInputModel",
    "bussgang_gain",
    "analytic_hammerstein_bla",
    "hermite_table",
]


@dataclass(frozen=True)
class GaussianInputModel:
    """Variances of the zero-mean Gaussian excitation and process noise."""

    input_variance: float
    process_noise_variance: float = 0.0

    def __post_init__(self):
        for name in ("input_variance", "process_noise_variance"):
            value = float(getattr(self, name))
            _check_variance(name, value)
            object.__setattr__(self, name, value)


def bussgang_gain(nonlinearity: PolynomialNonlinearity, model: GaussianInputModel) -> float:
    """Equivalent gain ``E{f'(x)}`` of a static polynomial under Gaussian drive.

    ``x`` is the sum of the excitation and the process noise, so its variance
    is the sum of the model variances.  Computed exactly from Gaussian even
    moments; only odd-degree terms of ``f`` contribute.
    """
    variance = model.input_variance + model.process_noise_variance
    gain = 0.0
    for power, coeff in enumerate(nonlinearity.coefficients, start=1):
        gain += coeff * power * gaussian_power_moment(power - 1, variance)
    return gain


def analytic_hammerstein_bla(dynamics: RationalLTI, nonlinearity: PolynomialNonlinearity,
                             model: GaussianInputModel, samples_per_period: int) -> np.ndarray:
    """Best linear model of the Hammerstein chain on the half DFT bin grid, ``0..N//2``."""
    return bussgang_gain(nonlinearity, model) * dynamics.bin_response(samples_per_period)


def hermite_table(nonlinearity: PolynomialNonlinearity, model: GaussianInputModel) -> np.ndarray:
    """Coefficients ``b[i, j]`` of ``He_i(u/su) He_j(nx/sx)`` in ``f(u + nx)``.

    ``He`` are the probabilists' Hermite polynomials and ``su``, ``sx`` the
    model's standard deviations, so the products are uncorrelated under
    the model.  ``f(su z + sx w)`` is expanded binomially into a
    ``(d+1) x (d+1)`` monomial table over ``z^k w^l``, and one matrix
    takes both axes from monomials to Hermite polynomials.  With no process
    noise every ``j >= 1`` column is exactly zero.
    """
    su, sx = np.sqrt(model.input_variance), np.sqrt(model.process_noise_variance)
    size = nonlinearity.coefficients.size + 1
    power = np.zeros((size, size))  # (su z + sx w)^n over z^k w^l, from n = 0
    power[0, 0] = 1.0
    monomial = np.zeros((size, size))
    for coeff in nonlinearity.coefficients:
        power = (su * np.pad(power[:-1], ((1, 0), (0, 0)))
                 + sx * np.pad(power[:, :-1], ((0, 0), (1, 0))))
        monomial += coeff * power
    to_hermite = np.zeros((size, size))
    for k, unit in enumerate(np.eye(size)):
        column = np.polynomial.hermite_e.poly2herme(unit)  # trims trailing zeros
        to_hermite[:column.size, k] = column
    return to_hermite @ monomial @ to_hermite.T
