"""Simulators for block-structured nonlinear systems.

Covers stable rational LTI blocks in the shift operator ``q``, static
polynomial nonlinearities, the Hammerstein structure
``y = S(q)[f(u + nx)] + ny`` and a closed loop built from a linear actuator,
the nonlinear plant and a strictly delayed linear feedback path.

Recorded periods are steady state.  The closed loop runs sample by sample,
the one time-domain recursion, since feedback needs it, with all its linear
blocks in one stacked state (``_StackedState``); each realization's warm-up
is the number of periods after which its noise-free loop is periodic (its
last two periods differing by less than ``STEADY_STATE_RTOL`` in relative
RMS).  The open loop has no warm-up: it starts at the exact periodic steady
state and runs only the response to the process noise, over a lead-in of
``settling_length()`` samples.  What the
white process noise does on average, and its variance spectrum, are exact
(``HammersteinSimulator.process_noise_statistics``).  Open-loop filtering is a
product of spectra: periodic responses on the period's bin
grid, zero-state ones on a grid padded by ``settling_length()`` samples so
that, for simple dominant poles, the wrap-around has decayed below
``STEADY_STATE_RTOL``.  Open-loop dynamics whose dominant mode needs more
than ``_MAX_WARMUP`` periods to decay that far raise InstabilityError before
any draw.  Noisy simulations are a pure function of their seeds.
"""

from __future__ import annotations

import configparser
import itertools
from dataclasses import dataclass

import numpy as np

from .signals import PeriodicSignal, _fmt, derive_rng, generate_noise
from .volterra import DualVolterraKernel

__all__ = [
    "ConfigurationError",
    "InstabilityError",
    "STEADY_STATE_RTOL",
    "DIVERGENCE_LIMIT",
    "RationalLTI",
    "PolynomialNonlinearity",
    "HammersteinPlant",
    "VolterraPlant",
    "ClosedLoopConfig",
    "SimulationRecord",
    "ClosedLoopRecord",
    "HammersteinSimulator",
    "filter_periodic",
    "simulate_closed_loop_batch",
    "SystemDescription",
    "read_system_file",
    "write_system_file",
]

STEADY_STATE_RTOL = 1e-10
DIVERGENCE_LIMIT = 1e12
_MIN_WARMUP = 4  # the closed loop's least warm-up, in periods
_MAX_WARMUP = 64


class ConfigurationError(ValueError):
    """A system or experiment description is invalid."""


def _check_variance(name: str, value: float) -> None:
    if not (np.isfinite(value) and value >= 0):  # NaN fails both
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")


class InstabilityError(RuntimeError):
    """A simulation diverged or failed to reach a periodic steady state.

    ``period`` is the first simulated period, warm-up or lead-in included,
    holding an ``|y|`` above ``DIVERGENCE_LIMIT`` or a non-finite sample, and
    ``peak`` that period's largest ``|y|`` (inf if any of its samples is not
    finite).
    """

    def __init__(self, message: str, period: int | None = None, peak: float | None = None):
        super().__init__(message)
        self.period = period
        self.peak = peak


def _check_divergence(y: np.ndarray, period_size: int, stage: str = "",
                      first_period: int = 0) -> None:
    """Raise InstabilityError naming the first diverged period of ``y``.

    ``y`` holds consecutive periods of ``period_size`` values (in flattened
    order); the first of them is simulated period ``first_period``.
    """
    magnitude = np.abs(y).reshape(-1)
    if magnitude.max() <= DIVERGENCE_LIMIT:  # NaN compares False as well
        return
    offset = int(np.flatnonzero(~(magnitude <= DIVERGENCE_LIMIT))[0]) // period_size
    span = magnitude[offset * period_size:(offset + 1) * period_size]
    peak = float(np.inf if np.isnan(span).any() else span.max())
    period = first_period + offset
    where = f"{stage}, " if stage else ""
    raise InstabilityError(
        f"simulation diverged at {where}simulated period {period}: peak |y| = {peak:.6g} "
        f"exceeds DIVERGENCE_LIMIT = {DIVERGENCE_LIMIT:.6g}",
        period=period, peak=peak,
    )


def _fft_length(n: int) -> int:
    """The smallest 5-smooth integer ``>= n`` (numpy has no ``next_fast_len``)."""
    best = 1 << max(n - 1, 0).bit_length()  # a power of two is 5-smooth
    odd = 1
    while odd < best:  # odd runs over 3^i 5^j
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


class RationalLTI:
    """Discrete-time rational transfer function ``B(q) / A(q)``.

    Coefficients are ascending powers of the delay ``q^-1`` with ``a[0]``
    normalized to 1.  All poles must lie strictly inside the unit circle;
    this is checked at construction, so every instance is stable.
    """

    def __init__(self, b, a=(1.0,)):
        b = np.atleast_1d(np.asarray(b, dtype=float))
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if not (b.size and a.size and np.isfinite(b).all() and np.isfinite(a).all()):
            raise ConfigurationError("filter coefficients must be nonempty and finite")
        if a[0] == 0.0:
            raise ConfigurationError("leading denominator coefficient must be nonzero")
        if a[0] != 1.0:
            b = b / a[0]
            a = a / a[0]
        poles = np.roots(a) if a.size > 1 else np.empty(0)
        if poles.size and np.abs(poles).max() >= 1.0:
            raise ConfigurationError(
                f"unstable filter: pole magnitude {np.abs(poles).max():.6g} >= 1"
            )
        self.numerator = b
        self.denominator = a
        self._poles = poles
        self._grid = 0, None  # (T, response on the T-point grid) of the last filter call

    def __repr__(self):
        return f"RationalLTI(b={self.numerator.tolist()}, a={self.denominator.tolist()})"

    @classmethod
    def identity(cls) -> "RationalLTI":
        return cls(b=[1.0])

    @property
    def is_strictly_delayed(self) -> bool:
        return self.numerator[0] == 0.0

    def time_constant(self) -> float:
        """Dominant time constant in samples (FIR length if there are no poles)."""
        mags = np.abs(self._poles)
        mags = mags[mags > 0]
        if mags.size == 0:
            return float(self.numerator.size - 1)
        return -1.0 / np.log(mags.max())

    def _decay_length(self) -> int:
        """Samples over which the dominant mode decays by ``STEADY_STATE_RTOL``:
        ``ln(1 / STEADY_STATE_RTOL)`` time constants."""
        return int(np.ceil(self.time_constant() * np.log(1.0 / STEADY_STATE_RTOL)))

    def settling_length(self) -> int:
        """Warm-up samples after which a start-up transient has decayed below
        ``STEADY_STATE_RTOL`` of its size, for simple dominant poles:
        ``_decay_length()``, and at least 1000 samples."""
        return max(self._decay_length(), 1000)

    def frequency_response(self, normalized_frequencies) -> np.ndarray:
        """Response at digital frequencies ``w`` (radians/sample)."""
        w = np.asarray(normalized_frequencies, dtype=float)
        zinv = np.exp(-1j * w)
        num = np.polynomial.polynomial.polyval(zinv, self.numerator)
        den = np.polynomial.polynomial.polyval(zinv, self.denominator)
        return num / den

    def bin_response(self, samples_per_period: int) -> np.ndarray:
        """Response on the half DFT bin grid, bins ``0..N//2``."""
        n = samples_per_period
        return self.frequency_response(2.0 * np.pi * np.arange(n // 2 + 1) / n)

    def filter(self, x) -> np.ndarray:
        """Zero-state response along the last axis, as a product on an FFT grid.

        ``x`` (``n`` samples per row) is zero-padded to ``T``, the smallest
        5-smooth length ``>= n + settling_length()``; its spectrum times the
        response on that grid, transformed back, holds the response in its
        first ``n`` samples.  That circular convolution reaches an output
        only through impulse-response lags beyond ``settling_length()``: it
        differs from the zero-state recursion by at most ``max|x|`` times the
        impulse response's tail sum past those lags, which is below
        ``STEADY_STATE_RTOL`` of its absolute sum for simple dominant poles
        and larger for repeated or clustered ones.  The grid response is
        kept for the last ``T``, so repeated calls at one length compute it
        once.
        """
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        size = _fft_length(n + self.settling_length())
        grid_size, response = self._grid
        if grid_size != size:
            response = self.bin_response(size)
            self._grid = size, response
        return np.fft.irfft(np.fft.rfft(x, size) * response, size)[..., :n]

    @property
    def order(self) -> int:
        return max(self.numerator.size, self.denominator.size) - 1


class _StackedState:
    """Direct-form II transposed states of LTI blocks over ``width`` channels,
    zero-padded to the largest order and stacked.  The caller makes block
    ``k``'s output ``y = b0 x + heads[k]``; ``advance(x, y)``, both ``(blocks,
    1, width)``, sets ``z_i = z_{i+1} + (b_{i+1} x - a_{i+1} y)`` in every
    block in four numpy calls.  Padded taps and a last row stay ``+0.0`` for
    finite signals, so a last tap adds onto ``+0.0`` and zeros keep their sign."""

    def __init__(self, blocks, width: int):
        b, a = np.zeros((2, len(blocks), max(lti.order for lti in blocks) + 1, 1))
        for k, lti in enumerate(blocks):
            b[k, :lti.numerator.size, 0] = lti.numerator
            a[k, :lti.denominator.size, 0] = lti.denominator
        self.b0 = [b[k, 0, 0, ...] for k in range(len(blocks))]  # 0-d: cheaper operands
        self._b, self._a = b[:, 1:], a[:, 1:]
        self._bx, self._ay = np.empty((2,) + self._b.shape[:2] + (width,))
        self._z = z = np.zeros((2,) + b.shape[:2] + (width,))  # live: _z[advances % 2]
        zero = np.zeros(width)
        heads = [tuple(z[i, k, 0] if lti.order else zero for k, lti in enumerate(blocks))
                 for i in (0, 1)]
        self.heads = heads[0]
        self._phases = itertools.cycle([(z[0, :, 1:], z[1, :, :-1], heads[1]),
                                        (z[1, :, 1:], z[0, :, :-1], heads[0])])

    def advance(self, x: np.ndarray, y: np.ndarray) -> tuple:
        tail, head, heads = next(self._phases)
        np.multiply(self._b, x, out=self._bx)
        np.multiply(self._a, y, out=self._ay)
        np.subtract(self._bx, self._ay, out=self._bx)
        np.add(tail, self._bx, out=head)
        self.heads = heads
        return heads


@dataclass(frozen=True, eq=False)
class PolynomialNonlinearity:
    """Static nonlinearity ``f(x) = c_1 x + c_2 x^2 + ... + c_d x^d`` (no offset)."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if c.size == 0 or c.size > 9:
            raise ConfigurationError("polynomial degree must be between 1 and 9")
        if not np.isfinite(c).all():
            raise ConfigurationError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", c)
        # Horner's operands down to the zero offset, as 0-d arrays (cheaper than floats).
        object.__setattr__(self, "_descending", tuple(map(np.array, [*c[::-1], 0.0])))

    @classmethod
    def identity(cls) -> "PolynomialNonlinearity":
        return cls(coefficients=[1.0])

    def __call__(self, x, out=None) -> np.ndarray:
        """``f(x)`` by Horner's rule, into ``out`` (not ``x``) if given, with the
        operations of ``numpy.polynomial.polynomial.polyval`` on ``[0, c_1, ...,
        c_d]`` in its order: ``c_d + x*0``, then ``c_i + acc*x`` down to ``c_0``."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape) if out is None else out
        highest, *lower = self._descending
        np.multiply(x, lower[-1], out=out)  # x * 0.0
        np.add(out, highest, out=out)
        for c in lower:
            np.multiply(out, x, out=out)
            np.add(out, c, out=out)
        return out


def filter_periodic(lti: RationalLTI, sig: PeriodicSignal) -> PeriodicSignal:
    """Exact periodic steady-state response of a stable filter.

    Multiplies the period spectrum by the frequency response on the bin
    grid, which equals the time-domain recursion after transients decay.
    """
    n = sig.samples_per_period
    period = np.fft.irfft(np.fft.rfft(sig.period(0)) * lti.bin_response(n), n=n)
    return PeriodicSignal(
        samples=np.tile(period, sig.period_count),
        samples_per_period=n,
        period_count=sig.period_count,
        sampling_frequency=sig.sampling_frequency,
    )


def _noise_moments(nonlinearity: PolynomialNonlinearity, x: np.ndarray,
                   variance: float) -> tuple[np.ndarray, np.ndarray]:
    """``E f(x + n)`` and ``Var f(x + n)`` per sample of ``x``, for ``n ~ N(0, variance)``.

    A 10-point Gauss-Hermite rule with its weights normalized to 1 is exact
    for polynomials of degree up to 19, so for ``f`` and ``f**2`` of every
    accepted ``f`` (degree <= 9).  The variance
    is the weighted sum of squared deviations from that mean, so nothing
    cancels when it is small.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(10)
    weights = (weights / weights.sum())[:, None]
    values = nonlinearity(x + np.sqrt(variance) * nodes[:, None])
    mean = np.sum(weights * values, axis=0)
    return mean, np.sum(weights * np.square(values - mean), axis=0)


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


class _SteadyState:
    """The closed loop's warm-up rule, applied to each column of a run on its own.

    Column ``i`` settles at the first period count ``>= _MIN_WARMUP`` at which
    its noise-free period changed by less than ``STEADY_STATE_RTOL`` in
    relative RMS: ``periods[i]`` is that count (0 before), ``residuals[i]``
    that change.  Errors name it realization ``first_realization + i``.
    """

    def __init__(self, width: int, first_realization: int):
        self.periods = np.zeros(width, dtype=int)
        self.residuals = np.full(width, np.inf)
        self._first_realization = first_realization
        self._previous = None
        self._count = 0

    def update(self, columns: np.ndarray) -> bool:
        """Take the next period, shape ``(N, width)``; True once all columns settled."""
        # A contiguous row per column is reduced as that column alone would be.
        rows = np.ascontiguousarray(columns.T)
        self._count += 1
        if self._previous is not None:
            unsettled = self.periods == 0
            rms = np.sqrt(np.mean(np.square([rows, rows - self._previous]), axis=-1))
            self.residuals[unsettled] = (rms[1] / np.maximum(rms[0], 1e-300))[unsettled]
            if self._count >= _MIN_WARMUP:
                self.periods[unsettled & (self.residuals < STEADY_STATE_RTOL)] = self._count
        self._previous = rows
        if not self.periods.all() and self._count == _MAX_WARMUP:
            i = int(np.flatnonzero(self.periods == 0)[0])
            raise InstabilityError(
                f"steady state not reached within {_MAX_WARMUP} warm-up periods in "
                f"realization {self._first_realization + i} "
                f"(relative residual {self.residuals[i]:.3g})"
            )
        return bool(self.periods.all())


def _check_periodic(sig: PeriodicSignal, name: str, where: str = "") -> None:
    """Raise ValueError naming the first period of ``sig`` that differs from period 0."""
    n = sig.samples_per_period
    rows = sig.samples[n:].reshape(sig.period_count - 1, n)
    differs = np.flatnonzero((rows != sig.period(0)).any(axis=1))
    if differs.size:
        raise ValueError(f"{name} period {differs[0] + 1}{where} differs from period 0; "
                         f"the simulator needs a periodic {name}")


@dataclass(frozen=True, eq=False)
class SimulationRecord:
    """Recorded steady-state periods of a noisy open-loop simulation, and the
    ``lead_in_samples`` that ran before them (0 without process noise)."""

    output: PeriodicSignal
    process_noise: np.ndarray
    output_noise: np.ndarray
    lead_in_samples: int


class HammersteinSimulator:
    """Re-runnable Hammerstein simulator ``y = S(q)[f(u + nx)] + ny``.

    Both noise sequences are white Gaussian.  Separate generators for the
    process and output noise make controlled re-simulation possible: fixing
    the input and redrawing only the process noise is what decomposition
    needs, and ``process_noise_statistics`` gives what such redraws would
    average to, exactly.
    """

    def __init__(self, dynamics: RationalLTI, nonlinearity: PolynomialNonlinearity,
                 process_noise_variance: float = 0.0, output_noise_variance: float = 0.0):
        _check_variance("process_noise_variance", process_noise_variance)
        _check_variance("output_noise_variance", output_noise_variance)
        self.dynamics = dynamics
        self.nonlinearity = nonlinearity
        self.process_noise_variance = float(process_noise_variance)
        self.output_noise_variance = float(output_noise_variance)

    def required_warmup(self, u: PeriodicSignal) -> tuple[int, int]:
        """The open loop's warm-up: ``(0, dynamics.settling_length())``.

        No warm-up period runs, since a run starts at the exact periodic
        steady state; the response to the process noise runs over a lead-in
        of ``settling_length()`` samples.  (The benchmark's tracer reads the
        first element as the periods simulated.)  Dynamics whose
        ``_decay_length()`` exceeds ``_MAX_WARMUP`` periods of ``u`` raise
        InstabilityError instead, before anything is drawn or filtered.
        """
        n = u.samples_per_period
        decay = self.dynamics._decay_length()
        if decay > _MAX_WARMUP * n:
            raise InstabilityError(
                f"steady state not reachable within {_MAX_WARMUP} warm-up periods: the "
                f"dynamics settle in {decay} samples, more than {_MAX_WARMUP} periods of {n}"
            )
        return 0, self.dynamics.settling_length()

    def run(self, u: PeriodicSignal, process_noise_rng=None,
            output_noise_rng=None) -> SimulationRecord:
        """Simulate ``u.period_count`` steady-state periods.

        ``S`` is linear, so the output splits as

            S[f(u + nx)] = S[f(u)] + S[f(u + nx) - f(u)].

        The first term is the exact periodic steady state (the fixed point
        the recursion converges to), computed in the frequency domain.  With
        process noise on, only the second runs: from zero state, in one
        ``dynamics.filter`` call, over a lead-in of ``required_warmup``'s
        ``dynamics.settling_length()`` samples (``u`` extended periodically
        before period 0) and the recorded stretch, so the recorded noise
        paths carry settled filter state.  The output noise is drawn over
        the recorded stretch only and added.  All of this is built from
        period 0, so ``u`` whose periods differ raises ValueError naming the
        first that differs.  A run that diverges raises InstabilityError; its
        simulated periods are the ``N``-sample blocks from the start of the
        lead-in.  Returns the measured output together with the exact noise
        sequences that entered it and the lead-in that ran (0 without
        process noise).
        """
        if self.process_noise_variance > 0 and process_noise_rng is None:
            raise ValueError("process_noise_rng is required when process noise is on")
        if self.output_noise_variance > 0 and output_noise_rng is None:
            raise ValueError("output_noise_rng is required when output noise is on")
        n = u.samples_per_period
        p = u.period_count
        _check_periodic(u, "input")
        _, lead = self.required_warmup(u)
        periodic = self._periodic_output(u)
        if self.process_noise_variance == 0:
            lead, y0, nx = 0, np.tile(periodic, p), np.zeros(p * n)
        else:
            phase = np.arange(-lead, p * n) % n  # the sample's index within its period
            u_ext = u.period(0)[phase]
            with np.errstate(over="ignore", invalid="ignore"):  # reported right below
                nx = generate_noise(self.process_noise_variance, lead + p * n,
                                    process_noise_rng)
                y0 = self.dynamics.filter(self.nonlinearity(u_ext + nx)
                                          - self.nonlinearity(u_ext))
                y0 += periodic[phase]
            _check_divergence(y0, n)
            y0, nx = y0[lead:], nx[lead:]
        ny = generate_noise(self.output_noise_variance, p * n, output_noise_rng)
        return SimulationRecord(
            output=PeriodicSignal(y0 + ny, n, p, u.sampling_frequency),
            process_noise=nx,
            output_noise=ny,
            lead_in_samples=lead,
        )

    def process_noise_statistics(self, u: PeriodicSignal) -> tuple[np.ndarray, np.ndarray]:
        """What ``run`` averages to over the process noise, and its spectrum, exactly.

        Returns ``(y_mean, var_process)``: ``y_mean`` is ``S[E f(u + nx)]``
        over the periods of ``u``, the expectation of ``run``'s output
        without output noise, and ``var_process`` the variance of one
        steady-state period's unitary DFT of that output, on bins
        ``0..N//2``.  With white ``nx``, ``f(u + nx) - E f(u + nx)`` is
        independent over time, with the periodic variance
        ``v = Var f(u + nx)``.  ``E f`` and ``v`` come from
        ``_noise_moments`` and ``var_process`` from
        ``_modulated_noise_variance``.  Nothing is drawn.  ``u`` must be
        periodic, as for ``run``, and a non-finite or diverging result
        raises InstabilityError.
        """
        n = u.samples_per_period
        p = u.period_count
        _check_periodic(u, "input")
        if self.process_noise_variance == 0:
            return np.tile(self._periodic_output(u), p), np.zeros(n // 2 + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # reported right below
            mean, variance = _noise_moments(self.nonlinearity, u.period(0),
                                            self.process_noise_variance)
            x = PeriodicSignal(mean, n, 1, u.sampling_frequency)
            y_mean = filter_periodic(self.dynamics, x).samples
            var_process = _modulated_noise_variance(self.dynamics, variance)
        _check_divergence(y_mean, n, "noise-averaged steady state")
        # A standard deviation per bin; abs, as round-off may leave a zero variance negative.
        _check_divergence(np.sqrt(np.abs(var_process)), var_process.size,
                          "process-noise spectrum")
        return np.tile(y_mean, p), var_process

    def _periodic_output(self, u: PeriodicSignal) -> np.ndarray:
        """One period of the exact noise-free periodic steady state."""
        n = u.samples_per_period
        with np.errstate(over="ignore", invalid="ignore"):  # reported right below
            x = PeriodicSignal(self.nonlinearity(u.period(0)), n, 1, u.sampling_frequency)
            period = filter_periodic(self.dynamics, x).samples
        _check_divergence(period, n, "periodic steady state")
        return period


# ---------------------------------------------------------------------------
# Closed loop


@dataclass(frozen=True, eq=False)
class HammersteinPlant:
    """Plant block ``y0 = S(q)[f(u0 + nx)]`` for use inside the loop."""

    dynamics: RationalLTI
    nonlinearity: PolynomialNonlinearity

    def stepper(self, width: int):
        """Per-sample ``f(u0 + nx)`` over ``width`` channels, into a reused row;
        the loop runs ``S`` in its stacked state."""
        f, (x, out) = self.nonlinearity, np.empty((2, width))
        return lambda u0, nx: f(np.add(u0, nx, out=x), out)


@dataclass(frozen=True, eq=False)
class VolterraPlant:
    """Plant block given by a sum of dual-input kernels on (u0, nx)."""

    kernels: tuple[DualVolterraKernel, ...]

    def __post_init__(self):
        kernels = tuple(self.kernels)
        if not kernels:
            raise ConfigurationError("need at least one kernel")
        object.__setattr__(self, "kernels", kernels)

    def stepper(self, width: int):
        """Per-sample plant output over ``width`` channels, into a reused row.
        One array holds a ones row, the terms' coefficients (kernels in tuple
        order) and ``span`` zeroed ring slots each for ``u0`` and ``nx``.  Per
        sample: one gather by the ring phase's table, one multiply reduction
        (``((c * u_a) * u_b) * nx_c``, padded with exact ones), and one
        ``add.accumulate`` adding the terms in turn onto zero (a sum would pair them)."""
        span = 1 + max(max(k.input_max_lag, k.noise_max_lag) for k in self.kernels)
        coefficients = np.concatenate([k.term_coefficients for k in self.kernels])
        u_slots = 1 + coefficients.size
        # Per term, row j: factor j's first slot (row 0: the coefficient) and lag.
        degree = max(k.coefficients.ndim for k in self.kernels)
        first, lag = np.zeros((2, 1 + degree, coefficients.size), dtype=np.intp)
        first[0], column = np.arange(1, u_slots), 0
        for kern in self.kernels:
            m, d = kern.input_degree, kern.input_degree + kern.noise_degree
            cols = slice(column, column + kern.term_coefficients.size)
            first[1:1 + m, cols], first[1 + m:1 + d, cols] = u_slots, u_slots + span
            lag[1:1 + d, cols], column = kern.term_lags.T, cols.stop
        ring = np.arange(span)[:, None, None]
        tables = np.where(first >= u_slots, first + (ring - lag) % span, first)
        store = np.zeros((u_slots + 2 * span, width))
        store[0], store[1:u_slots] = 1.0, coefficients[:, None]
        phases = itertools.cycle([(tables[p], store[u_slots + p], store[u_slots + span + p])
                                  for p in range(span)])
        gathered, sums = np.empty(tables.shape[1:] + (width,)), np.empty((u_slots, width))
        summands = np.zeros((u_slots, width))  # row 0 stays 0.0, where the sum starts
        products, total = summands[1:], sums[-1]

        def step(u0, nx):
            table, u_slot, nx_slot = next(phases)
            u_slot[...] = u0
            nx_slot[...] = nx
            np.take(store, table, axis=0, out=gathered, mode="clip")
            np.multiply.reduce(gathered, axis=0, out=products)
            np.add.accumulate(summands, axis=0, out=sums)
            return total

        return step


@dataclass(frozen=True, eq=False)
class ClosedLoopConfig:
    """Loop layout: ``u0 = G_act(q)[r - M(q) y0]`` around a noisy plant.

    The feedback path must be strictly delayed (``b[0] = 0``) so the loop is
    solvable sample by sample.  ``nu`` and ``ny`` are measurement noise on
    the recorded input and output; only the noise-free ``y0`` is fed back.
    """

    plant: HammersteinPlant | VolterraPlant
    actuator: RationalLTI
    feedback: RationalLTI
    input_noise_variance: float = 0.0
    process_noise_variance: float = 0.0
    output_noise_variance: float = 0.0

    def __post_init__(self):
        if not self.feedback.is_strictly_delayed:
            raise ConfigurationError(
                "feedback path must have at least one sample of delay (b[0] = 0)"
            )
        for name in ("input_noise_variance", "process_noise_variance",
                     "output_noise_variance"):
            _check_variance(name, getattr(self, name))


@dataclass(frozen=True, eq=False)
class ClosedLoopRecord:
    """Measured loop signals plus the noise-free internal ones."""

    input_measured: PeriodicSignal
    output_measured: PeriodicSignal
    input_noise_free: np.ndarray
    output_noise_free: np.ndarray
    reference: PeriodicSignal
    warmup_periods: int
    steady_state_residual: float


class _LoopEngine:
    """Sample-by-sample loop runner, vectorized over parallel loops.

    Column ``i`` is a loop of realization ``realizations[i]``.  Periods are
    counted from the engine's zero state, so a divergence is reported at the
    simulated period, warm-up included.  ``S`` (identity for a Volterra
    plant), ``G_act`` and ``M`` share one ``_StackedState``; its inputs and
    outputs are rows 0-2 and 2-4 of a per-period buffer of ``plant(u0, nx)``,
    ``r - M``'s head, ``y0``, ``u0`` and ``M[y0]``.  Order-0 blocks add no head
    (``-0.0 + 0.0`` is ``+0.0``)."""

    def __init__(self, config: ClosedLoopConfig, realizations):
        blocks = (getattr(config.plant, "dynamics", None) or RationalLTI.identity(),
                  config.actuator, config.feedback)  # S, or the identity for a Volterra plant
        self._stateful = [lti.order > 0 for lti in blocks]
        self._state = _StackedState(blocks, len(realizations))
        self._plant = config.plant.stepper(len(realizations))
        self._realizations = realizations
        self._period = 0

    def run_period(self, r_block: np.ndarray, nx_block: np.ndarray):
        n = r_block.shape[0]
        signals = np.zeros((n, 5, 1) + r_block.shape[1:])
        p, e, y0, u0, y_fb = signals[:, :, 0].transpose(1, 0, 2)
        (b_s, b_act, b_fb), (s_state, act_state, fb_state) = self._state.b0, self._stateful
        plant, advance, heads = self._plant, self._state.advance, self._state.heads
        # Overflow on the way to divergence is expected; it is detected and
        # reported as an InstabilityError right below.
        with np.errstate(over="ignore", invalid="ignore"):
            for r_t, nx_t, p_t, e_t, y0_t, u0_t, fb_t, x_t, y_t in zip(
                    r_block, nx_block, p, e, y0, u0, y_fb, signals[:, :3], signals[:, 2:]):
                z_s, z_act, z_fb = heads
                np.subtract(r_t, z_fb, out=e_t)
                np.multiply(b_act, e_t, out=u0_t)
                if act_state:
                    np.add(u0_t, z_act, out=u0_t)
                static = plant(u0_t, nx_t)
                np.multiply(b_s, static, out=y0_t)
                if s_state:
                    np.add(y0_t, z_s, out=y0_t)
                    p_t[...] = static
                np.multiply(b_fb, y0_t, out=fb_t)
                if fb_state:
                    np.add(fb_t, z_fb, out=fb_t)
                heads = advance(x_t, y_t)
        for i, m in enumerate(self._realizations):
            _check_divergence(y0[:, i], n, f"closed loop, realization {m}",
                              first_period=self._period)
        self._period += 1
        return u0, y0


def simulate_closed_loop_batch(config: ClosedLoopConfig, references, seed=None,
                               first_realization: int = 0) -> list[ClosedLoopRecord]:
    """Simulate one loop per reference signal, all advanced in lock step.

    One engine pass runs column ``i`` as the noise-free loop of realization
    ``m = first_realization + i`` and column ``M + i`` as its noisy loop,
    which records periods ``W_m .. W_m + P - 1``.  The warm-up ``W_m`` is
    the first period count ``>= _MIN_WARMUP`` (4) at which the noise-free
    loop alone, where steady state is defined, changed by less than
    ``STEADY_STATE_RTOL`` in relative RMS over one period.  Every reference
    must repeat its period 0, or ValueError names the first period that
    differs.  Noise streams are keyed by ``m``, so a record is a pure
    function of (config, seed, realization), batched or not.
    """
    references = list(references)
    if not references:
        return []
    n = references[0].samples_per_period
    p = references[0].period_count
    fs = references[0].sampling_frequency
    for m, r in enumerate(references, first_realization):
        if (r.samples_per_period, r.period_count, r.sampling_frequency) != (n, p, fs):
            raise ConfigurationError("all references must share one grid")
        _check_periodic(r, "reference", f" of realization {m}")
    width = len(references)
    master = seed if seed is not None else 0
    realizations = [first_realization + i for i in range(width)]
    nx_rngs = [derive_rng(master, "loop_process_noise", m) for m in realizations]

    engine = _LoopEngine(config, realizations * 2)
    steady = _SteadyState(width, first_realization)
    r_block = np.tile(np.stack([r.period(0) for r in references], axis=1), 2)
    nx_block = np.zeros_like(r_block)
    u0, y0 = np.empty((2, width, p, n))
    period = 0
    while not steady.periods.all() or period < steady.periods.max() + p:
        j = period - steady.periods  # the period each settled noisy loop records
        recording = (steady.periods > 0) & (j < p)
        for i, rng in enumerate(nx_rngs):
            nx_block[:, width + i] = generate_noise(config.process_noise_variance, n, rng)
        u0_block, y0_block = engine.run_period(r_block, nx_block)
        rec = np.flatnonzero(recording)
        u0[rec, j[rec]] = u0_block[:, width + rec].T
        y0[rec, j[rec]] = y0_block[:, width + rec].T
        steady.update(y0_block[:, :width])
        period += 1

    records = []
    for i, (m, r) in enumerate(zip(realizations, references)):
        nu = generate_noise(config.input_noise_variance, p * n,
                            derive_rng(master, "loop_input_noise", m))
        ny = generate_noise(config.output_noise_variance, p * n,
                            derive_rng(master, "loop_output_noise", m))
        records.append(ClosedLoopRecord(
            input_measured=PeriodicSignal(u0[i].reshape(-1) + nu, n, p, fs),
            output_measured=PeriodicSignal(y0[i].reshape(-1) + ny, n, p, fs),
            input_noise_free=u0[i].reshape(-1),
            output_noise_free=y0[i].reshape(-1),
            reference=r,
            warmup_periods=int(steady.periods[i]),
            steady_state_residual=float(steady.residuals[i]),
        ))
    return records


# ---------------------------------------------------------------------------
# System description files


@dataclass(frozen=True, eq=False)
class SystemDescription:
    """Named blocks of a simulation setup, as stored in a system file."""

    dynamics: RationalLTI
    nonlinearity: PolynomialNonlinearity
    actuator: RationalLTI | None = None
    feedback: RationalLTI | None = None


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ConfigurationError(f"bad coefficient list {text!r}") from exc


def _check_keys(parser: configparser.ConfigParser, schema: dict, path) -> None:
    """Raise ConfigurationError naming the first section or key outside ``schema``,
    which maps each section a reader reads to the keys it reads there."""
    for section in parser:  # [DEFAULT] first, so its keys are named as its own
        unread = [key for key in parser[section] if key not in schema.get(section, ())]
        if unread or section not in (*schema, parser.default_section):
            what = f"key {unread[0]!r} in section" if unread else "section"
            raise ConfigurationError(f"{path}: {what} [{section}] is unknown")


_SYSTEM_KEYS = {"S": ("b", "a"), "f": ("coefficients",), "G_act": ("b", "a"), "M": ("b", "a")}


def read_system_file(path) -> SystemDescription:
    """Parse a system description file (sections S, f and optional G_act, M)."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(str(path), encoding="utf-8"):
            raise ConfigurationError(f"cannot read system file {path}")
        _check_keys(parser, _SYSTEM_KEYS, path)
        lti = {name: RationalLTI(b=_parse_floats(parser.get(name, "b")),
                                 a=_parse_floats(parser.get(name, "a", fallback="1.0")))
               for name in ("S", "G_act", "M") if name == "S" or parser.has_section(name)}
        nonlinearity = PolynomialNonlinearity(_parse_floats(parser.get("f", "coefficients")))
    except (configparser.Error, KeyError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"invalid system file {path}: {exc}") from exc
    return SystemDescription(dynamics=lti["S"], nonlinearity=nonlinearity,
                             actuator=lti.get("G_act"), feedback=lti.get("M"))


def write_system_file(path, description: SystemDescription) -> None:
    parser = configparser.ConfigParser()

    def put(name, lti):
        parser[name] = {
            "b": ", ".join(map(_fmt, lti.numerator)),
            "a": ", ".join(map(_fmt, lti.denominator)),
        }

    put("S", description.dynamics)
    parser["f"] = {
        "coefficients": ", ".join(map(_fmt, description.nonlinearity.coefficients))
    }
    if description.actuator is not None:
        put("G_act", description.actuator)
    if description.feedback is not None:
        put("M", description.feedback)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
