"""Closed forms of the Hammerstein plant ``y = S[f(u + nx)] + ny`` under Gaussian drive.

All come from the noise average ``g(x) = E f(x + n)`` of the nonlinearity,
``n`` zero-mean Gaussian (``_noise_averaged``).  Stein's lemma,
``E[f(su z + sx w) He_i(z) He_j(w)] = su^i sx^j E f^(i+j)`` for independent
standard normal ``z``, ``w``, takes ``g`` at ``su^2 + sx^2`` to the Bussgang
gain ``E f'`` (the best linear model is ``S`` times it) and the Hermite table
of ``f(u + nx)``.  The expansion ``f(x + sx w) = sum_j sx^j g^(j)(x) He_j(w) / j!``
takes ``g`` at ``sx^2`` to the noise-averaged output, the process-noise
spectrum and the output decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import PeriodicSignal, Spectrum, dft, inverse_dft, period_spectra
from .systems import (PolynomialNonlinearity, RationalLTI, _check_divergence,
                      _check_periodic, _check_variance)
from .volterra import gaussian_power_moment

__all__ = ["GaussianInputModel", "bussgang_gain", "analytic_hammerstein_bla", "hermite_table",
           "process_noise_statistics", "decompose_output", "predict_variances"]


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


def _noise_averaged(nonlinearity: PolynomialNonlinearity, variance: float) -> np.ndarray:
    """Ascending coefficients of ``g(x) = E f(x + n)``, ``n ~ N(0, variance)``:
    ``g_k = sum_{p >= k} (c_p C(p, k)) E n^(p-k)``, added onto 0.0 in increasing
    ``p``.  At ``variance = 0`` they are ``[0, c_1, ..., c_d]`` exactly."""
    c = nonlinearity.coefficients
    g = np.zeros(c.size + 1)
    for k in range(g.size):
        for p in range(max(k, 1), g.size):
            g[k] += c[p - 1] * math.comb(p, k) * gaussian_power_moment(p - k, variance)
    return g


def bussgang_gain(nonlinearity: PolynomialNonlinearity, model: GaussianInputModel) -> float:
    """Equivalent gain ``E{f'(x)}`` of a static polynomial under Gaussian drive:
    ``g_1`` at the variance of ``x``, the excitation plus the process noise.
    Only odd-degree terms of ``f`` contribute."""
    return _noise_averaged(nonlinearity, model.input_variance + model.process_noise_variance)[1]


def analytic_hammerstein_bla(dynamics: RationalLTI, nonlinearity: PolynomialNonlinearity,
                             model: GaussianInputModel, samples_per_period: int) -> np.ndarray:
    """Best linear model of the Hammerstein chain on the half DFT bin grid, ``0..N//2``."""
    return bussgang_gain(nonlinearity, model) * dynamics.bin_response(samples_per_period)


def hermite_table(nonlinearity: PolynomialNonlinearity, model: GaussianInputModel) -> np.ndarray:
    """Coefficients ``b[i, j]`` of ``He_i(u/su) He_j(nx/sx)`` in ``f(u + nx)``.

    ``su``, ``sx`` are the model's standard deviations, so the products are
    uncorrelated.  By Stein's lemma ``b[i, j] = su^i sx^j C(i + j, j) g_(i+j)``,
    ``g`` at ``su^2 + sx^2``: zero past ``i + j = d``, and in every ``j >= 1``
    column without process noise.
    """
    su, sx = np.sqrt(model.input_variance), np.sqrt(model.process_noise_variance)
    g = _noise_averaged(nonlinearity, model.input_variance + model.process_noise_variance)
    table = np.zeros((g.size, g.size))
    for k, gk in enumerate(g):
        for j in range(k + 1):
            table[k - j, j] = su ** (k - j) * sx ** j * math.comb(k, j) * gk
    return table


def _noise_moments(nonlinearity: PolynomialNonlinearity, x: np.ndarray,
                   variance: float) -> tuple[np.ndarray, np.ndarray]:
    """``E f(x + n)`` and ``Var f(x + n)`` per sample of ``x``, for ``n ~ N(0, variance)``:
    ``g(x)``, by ``PolynomialNonlinearity``'s Horner steps (so ``f(x)`` bit for bit
    at ``variance = 0``), and ``sum_{j >= 1} variance^j g^(j)(x)^2 / j!``, a sum of
    squares in which nothing cancels when it is small."""
    polynomial = np.polynomial.polynomial
    g = _noise_averaged(nonlinearity, variance)
    mean, total, weight = polynomial.polyval(x, g), 0.0, 1.0
    for j in range(1, g.size):
        weight *= variance / j  # variance^j / j!, inf rather than OverflowError
        g = polynomial.polyder(g)
        total = total + weight * np.square(polynomial.polyval(x, g))
    return mean, total


def _modulated_noise_variance(lti: RationalLTI, v: np.ndarray) -> np.ndarray:
    """Per-bin variance of one steady-state period's unitary DFT of ``S[z]``.

    ``z`` is zero-mean and independent over time, with the ``N``-periodic
    variance ``v`` (one period given).  In the observable state-space form of
    ``S``, ``x(t+1) = Phi x(t) + Gamma z(t)`` and ``y = x_0 + b_0 z``, a
    period's DFT is ``Y_k = S_k Z_k + c_k eta / sqrt(N)``, the transient term
    of Pintelon & Schoukens (System Identification, 2nd ed., 2012), with
    ``c_k = e_0 (I - w_k Phi)^-1``, whose entries are ``w_k^j / A(w_k)`` for
    ``w_k = exp(-2 pi i k / N)``, and ``eta = (I - Phi^N) x(0) - xi``, where
    ``xi = sum_s g(s) z(s)`` and ``g(s) = Phi^(N-1-s) Gamma``.  The period's
    start state ``x(0)`` is independent of the period's own ``z``, so

        var_k = |S_k|^2 mean(v) + c_k E[eta eta^T] c_k^H / N
                - 2 Re(S_k rfft(v g)_k c_k^H) / N,

    with ``E[eta eta^T] = (I - Phi^N) Pi (I - Phi^N)^T + Xi`` and
    ``Xi = sum_s v(s) g(s) g(s)^T``.  ``Pi``, the state covariance at a
    period's start, solves the Lyapunov equation ``Pi = Phi^N Pi Phi^N^T + Xi``;
    it is summed by doubling until the powers of ``Phi^N`` underflow to 0.
    Memory is O(N * order).
    """
    n = v.size
    order = lti.order  # 0: no state, no transient
    b = np.pad(lti.numerator, (0, order + 1 - lti.numerator.size))
    a = np.pad(lti.denominator, (0, order + 1 - lti.denominator.size))
    phi = np.eye(order, k=1)
    phi[:, :1] = -a[1:, None]
    g = (b[1:] - a[1:] * b[0])[None, :]  # rows Phi^j Gamma, j = 0, 1, ...
    power = phi
    while len(g) < n:
        g = np.concatenate([g, g @ power.T])
        power = power @ power
    g = g[n - 1::-1]  # row s is Phi^(N-1-s) Gamma
    xi = np.einsum("ti,t,tj->ij", g, v, g)
    with np.errstate(under="ignore"):  # the powers of Phi^N underflow to 0 by design
        decay = np.linalg.matrix_power(phi, n)
        pi, power = xi, decay
        while power.any():  # pi = sum_j Phi^(jN) Xi Phi^(jN)^T, doubling the terms
            pi = pi + power @ pi @ power.T
            power = power @ power
    leak = np.eye(order) - decay
    eta = leak @ pi @ leak.T + xi
    w = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
    c = w[:, None] ** np.arange(order) / np.polynomial.polynomial.polyval(w, a)[:, None]
    response = lti.bin_response(n)
    transient = np.einsum("ki,ij,kj->k", c, eta, c.conj()).real
    mixed = (response * np.einsum("ki,ki->k", np.fft.rfft(v[:, None] * g, axis=0),
                                  c.conj())).real
    return np.abs(response) ** 2 * v.mean() + (transient - 2.0 * mixed) / n


def process_noise_statistics(simulator, u: PeriodicSignal) -> tuple[np.ndarray, np.ndarray]:
    """``(y_mean, var_process)`` of a ``HammersteinSimulator``'s runs on ``u``, exactly.

    ``y_mean`` is one period of ``S[E f(u + nx)]``, a run's expectation without
    output noise, and ``var_process`` the variance of one steady-state period's
    unitary DFT of the run on bins ``0..N//2``: with white ``nx``, ``f(u + nx)``
    less its mean is independent over time, of variance ``v`` from
    ``_noise_moments``.  Nothing is drawn.  ``u`` must be periodic, and a
    non-finite or diverging result raises InstabilityError.
    """
    _check_periodic(u, "input")
    with np.errstate(over="ignore", invalid="ignore"):  # reported right below
        mean, variance = _noise_moments(simulator.nonlinearity, u.period(0),
                                        simulator.process_noise_variance)
        y_mean = simulator.dynamics.filter(mean)
        var_process = _modulated_noise_variance(simulator.dynamics, variance)
    _check_divergence(y_mean, u.samples_per_period, "noise-averaged steady state")
    # A standard deviation per bin; abs, as round-off may leave a zero variance negative.
    _check_divergence(np.sqrt(np.abs(var_process)), var_process.size, "process-noise spectrum")
    return y_mean, var_process


def decompose_output(simulator, u: PeriodicSignal, g_bla: np.ndarray) -> tuple:
    """Variance spectra ``(var_nonlinear, var_process, var_noise)`` of the
    nonlinear distortion, the process noise and the output noise in a
    ``HammersteinSimulator``'s output for the excitation ``u``, on bins ``0..N//2``.

    Nothing is simulated or drawn.  ``g_bla`` (bins ``0..N//2``) separates the
    linear part of ``process_noise_statistics``'s mean output from the
    distortion, whose spectrum is one excitation's squared period (unbiased
    but coarse).  White output noise of variance s2 has s2 in every bin.
    """
    n = u.samples_per_period
    g_bla = np.asarray(g_bla, dtype=complex)
    if g_bla.shape != (n // 2 + 1,):
        raise ValueError(f"g_bla must have one value per bin 0..N//2, shape ({n // 2 + 1},)")
    y_bar_bar, var_process = process_noise_statistics(simulator, u)
    y_nonlinear = y_bar_bar - inverse_dft(Spectrum(
        bins=g_bla * dft(u).bins, samples_per_period=n, sampling_frequency=u.sampling_frequency))
    return (np.abs(period_spectra(y_nonlinear, n)[0]) ** 2, var_process,
            np.full(n // 2 + 1, float(simulator.output_noise_variance)))


def predict_variances(var_noise_spectrum, var_process_spectrum, var_nonlinear_spectrum,
                      input_power, realization_count: int, period_count: int):
    """Expected values of the robust method's two variance estimates.

        E{var_noise} = (s2_n + s2_p) / (M P |U|^2)
        E{var_total} = s2_s / (M |U|^2) + (s2_n + s2_p) / (M P |U|^2)

    Bins with zero input power are undefined (NaN).  A negative or NaN
    spectrum, or fewer than one realization or period, raises ValueError.
    """
    given = dict(var_noise_spectrum=var_noise_spectrum, var_process_spectrum=var_process_spectrum,
                 var_nonlinear_spectrum=var_nonlinear_spectrum, input_power=input_power)
    s2_n, s2_p, s2_s, u2 = (np.asarray(value, dtype=float) for value in given.values())
    for name, arr in zip(given, (s2_n, s2_p, s2_s, u2)):
        if not np.all(arr >= 0):  # NaN fails too
            raise ValueError(f"{name} must be >= 0 and not NaN")
    m, p = int(realization_count), int(period_count)
    if m < 1 or p < 1:
        raise ValueError(f"realization_count and period_count must be >= 1, got {m} and {p}")
    with np.errstate(divide="ignore", invalid="ignore"):
        pred_noise = (s2_n + s2_p) / (m * p * u2)
        pred_total = s2_s / (m * u2) + pred_noise
    undefined = np.broadcast_to(u2 == 0, pred_noise.shape)
    return np.where(undefined, np.nan, pred_noise), np.where(undefined, np.nan, pred_total)
