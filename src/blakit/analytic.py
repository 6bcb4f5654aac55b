"""Closed-form references for the Hammerstein structure under Gaussian inputs.

For a static polynomial followed by linear dynamics, the best linear model
of the whole chain is the dynamics scaled by the equivalent gain
``E{f'(x)}`` of the nonlinearity (Bussgang), where ``x`` collects the
excitation and the process noise entering the nonlinearity.  For the
cubic-plus-linear case the full output split into its four constituents is
available in closed form as lists of monomial terms; those term lists are
exact oracles for the data-driven estimators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .systems import PolynomialNonlinearity, RationalLTI
from .volterra import gaussian_power_moment

__all__ = [
    "GaussianInputModel",
    "Term",
    "SymbolicDecomposition",
    "bussgang_gain",
    "analytic_hammerstein_bla",
    "analytic_hammerstein_decomposition",
    "decomposition_report_json",
]


@dataclass(frozen=True)
class GaussianInputModel:
    """Variances of the zero-mean Gaussian excitation and process noise."""

    input_variance: float
    process_noise_variance: float = 0.0

    def __post_init__(self):
        for name in ("input_variance", "process_noise_variance"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, v)


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


@dataclass(frozen=True)
class Term:
    """One monomial contribution ``coefficient * u^a * nx^b`` to a constituent.

    ``centered`` subtracts the Gaussian mean of the noise factor, i.e. the
    factor becomes ``nx^b - E{nx^b}`` (used for the ``nx^2 - var`` term).
    ``filtered`` marks terms passed through the dynamics block, and
    ``output_noise`` marks the additive measurement-noise term, which carries
    no monomial content.
    """

    coefficient: float
    u_power: int = 0
    nx_power: int = 0
    centered: bool = False
    filtered: bool = False
    output_noise: bool = False


@dataclass(frozen=True, eq=False)
class SymbolicDecomposition:
    """Term lists per constituent, exact for the cubic-plus-linear case.

    Compared and hashed by identity: the generated hash would hash the dict.
    """

    constituents: dict[str, tuple[Term, ...]]
    model: GaussianInputModel


def analytic_hammerstein_decomposition(nonlinearity: PolynomialNonlinearity,
                                       model: GaussianInputModel) -> SymbolicDecomposition:
    """Closed-form output constituents for ``f(x) = x + c x^3``.

    Returns term lists for ``y_bla``, ``y_s``, ``y_p`` and ``y_n``, and
    under ``y_p_alt`` and ``y_n_alt`` the split that assigns every
    input-dependent noise term to the process-noise constituent.  Terms
    whose factors vanish (zero coefficient, or any ``nx`` power when the
    process-noise variance is zero) are dropped.
    """
    c = nonlinearity.coefficients
    if c.size > 3 or c[0] != 1.0 or (c.size >= 2 and c[1] != 0.0):
        raise ValueError("only f(x) = x + c*x^3 is supported")
    cubic = float(c[2]) if c.size == 3 else 0.0
    s2_u = model.input_variance
    s2_x = model.process_noise_variance

    def keep(terms):
        out = []
        for t in terms:
            if t.coefficient == 0.0:
                continue
            if t.nx_power > 0 and s2_x == 0.0:
                continue
            out.append(t)
        return tuple(out)

    constituents = {
        "y_bla": keep([Term(bussgang_gain(nonlinearity, model), u_power=1, filtered=True)]),
        "y_s": keep([
            Term(cubic, u_power=3, filtered=True),
            Term(-3.0 * cubic * s2_u, u_power=1, filtered=True),
        ]),
        "y_p": keep([
            Term(1.0, nx_power=1, filtered=True),
            Term(3.0 * cubic, u_power=2, nx_power=1, filtered=True),
            Term(3.0 * cubic, u_power=1, nx_power=2, centered=True, filtered=True),
            Term(cubic, nx_power=3, filtered=True),
        ]),
        "y_n": (Term(1.0, output_noise=True),),
        "y_p_alt": keep([
            Term(3.0 * cubic, u_power=2, nx_power=1, filtered=True),
            Term(3.0 * cubic, u_power=1, nx_power=2, centered=True, filtered=True),
        ]),
        "y_n_alt": (Term(1.0, output_noise=True),) + keep([
            Term(1.0, nx_power=1, filtered=True),
            Term(cubic, nx_power=3, filtered=True),
        ]),
    }
    return SymbolicDecomposition(constituents=constituents, model=model)


def decomposition_report_json(decomposition: SymbolicDecomposition) -> str:
    """Serialize constituent term lists for reporting."""
    payload = {
        name: [
            {
                "coefficient": t.coefficient,
                "u_power": t.u_power,
                "nx_power": t.nx_power,
                "centered_flag": t.centered,
                "filtered_flag": t.filtered,
                "output_noise_flag": t.output_noise,
            }
            for t in terms
        ]
        for name, terms in decomposition.constituents.items()
    }
    payload["input_variance"] = decomposition.model.input_variance
    payload["process_noise_variance"] = decomposition.model.process_noise_variance
    return json.dumps(payload, indent=2, sort_keys=True)
