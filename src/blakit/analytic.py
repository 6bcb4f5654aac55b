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

__all__ = [
    "GaussianInputModel",
    "Term",
    "SymbolicDecomposition",
    "bussgang_gain",
    "analytic_hammerstein_bla",
    "analytic_hammerstein_decomposition",
    "expand_terms",
    "mean_over_process_noise",
    "mean_over_input",
    "evaluate_terms",
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


def _double_factorial(n: int) -> int:
    # (-1)!! == 1 by convention.
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gaussian_power_moment(power: int, variance: float) -> float:
    """``E{x^power}`` for zero-mean Gaussian x: 0 for odd, (p-1)!! sigma^p for even."""
    if power % 2:
        return 0.0
    return _double_factorial(power - 1) * variance ** (power // 2)


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


@dataclass(frozen=True)
class SymbolicDecomposition:
    """Term lists per constituent, exact for the cubic-plus-linear case."""

    constituents: dict[str, tuple[Term, ...]]
    model: GaussianInputModel
    cubic_coefficient: float


def analytic_hammerstein_decomposition(nonlinearity: PolynomialNonlinearity,
                                       model: GaussianInputModel,
                                       alternate: bool = False) -> SymbolicDecomposition:
    """Closed-form output constituents for ``f(x) = x + c x^3``.

    Returns term lists for ``y_bla``, ``y_s``, ``y_p`` and ``y_n``.  With
    ``alternate=True`` the split that assigns every input-dependent noise
    term to the process-noise constituent is added under ``y_p_alt`` and
    ``y_n_alt``.  Terms whose factors vanish (zero coefficient, or any
    ``nx`` power when the process-noise variance is zero) are dropped.
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
    }
    if alternate:
        constituents["y_p_alt"] = keep([
            Term(3.0 * cubic, u_power=2, nx_power=1, filtered=True),
            Term(3.0 * cubic, u_power=1, nx_power=2, centered=True, filtered=True),
        ])
        constituents["y_n_alt"] = (Term(1.0, output_noise=True),) + keep([
            Term(1.0, nx_power=1, filtered=True),
            Term(cubic, nx_power=3, filtered=True),
        ])
    return SymbolicDecomposition(constituents=constituents, model=model,
                                 cubic_coefficient=cubic)


def _add(out: dict, key, coeff: float) -> None:
    """Add ``coeff`` to ``out[key]``; a sum of exactly zero drops the key."""
    out[key] = out.get(key, 0.0) + coeff
    if out[key] == 0.0:
        del out[key]


def expand_terms(terms, model: GaussianInputModel) -> dict:
    """Expand centered factors into plain monomials.

    Returns ``{(u_power, nx_power, filtered, output_noise): coefficient}``
    with centered terms split into their raw monomial and the mean they
    subtract.
    """
    out: dict = {}
    for t in terms:
        _add(out, (t.u_power, t.nx_power, t.filtered, t.output_noise), t.coefficient)
        if t.centered:
            mean = gaussian_power_moment(t.nx_power, model.process_noise_variance)
            if mean:
                _add(out, (t.u_power, 0, t.filtered, t.output_noise), -t.coefficient * mean)
    return out


def _mean_over(terms, model: GaussianInputModel, averaged: int, variance: float) -> dict:
    """Average the expanded terms over one Gaussian factor, exactly.

    ``averaged`` is 0 for ``u`` and 1 for ``nx``, the factor of variance
    ``variance``; the other factor stays symbolic.  Returns
    ``{(kept_power, filtered): coefficient}``; output-noise terms average
    to zero.
    """
    out: dict = {}
    for (u_power, nx_power, filtered, is_ny), coeff in expand_terms(terms, model).items():
        powers = (u_power, nx_power)
        weight = gaussian_power_moment(powers[averaged], variance)
        if weight and not is_ny:
            _add(out, (powers[1 - averaged], filtered), coeff * weight)
    return out


def mean_over_process_noise(terms, model: GaussianInputModel) -> dict:
    """Expected terms after averaging over the process noise: ``{(u_power, filtered): c}``.

    Centered factors average to zero by construction.
    """
    return _mean_over(terms, model, 1, model.process_noise_variance)


def mean_over_input(terms, model: GaussianInputModel) -> dict:
    """Expected terms after averaging over the excitation: ``{(nx_power, filtered): c}``."""
    return _mean_over(terms, model, 0, model.input_variance)


def evaluate_terms(terms, u, nx, ny, dynamics: RationalLTI,
                   model: GaussianInputModel) -> np.ndarray:
    """Realize a term list on concrete sequences.

    Filtering is the zero-state response (``RationalLTI.filter``), so pass
    sequences with their own warm-up stretch and discard it outside when
    steady state is wanted.
    """
    u = np.asarray(u, dtype=float)
    nx = np.asarray(nx, dtype=float) if nx is not None else np.zeros_like(u)
    ny = np.asarray(ny, dtype=float) if ny is not None else np.zeros_like(u)
    plain = np.zeros_like(u)
    filtered = np.zeros_like(u)
    for t in terms:
        if t.output_noise:
            plain = plain + t.coefficient * ny
            continue
        factor = np.ones_like(u)
        if t.u_power:
            factor = factor * u ** t.u_power
        if t.nx_power:
            nx_part = nx ** t.nx_power
            if t.centered:
                nx_part = nx_part - gaussian_power_moment(
                    t.nx_power, model.process_noise_variance
                )
            factor = factor * nx_part
        if t.filtered:
            filtered = filtered + t.coefficient * factor
        else:
            plain = plain + t.coefficient * factor
    return plain + dynamics.filter(filtered)


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
