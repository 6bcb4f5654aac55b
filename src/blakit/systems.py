"""Simulators for block-structured nonlinear systems.

Covers stable rational LTI blocks in the shift operator ``q``, static
polynomial nonlinearities, the Hammerstein structure
``y = S(q)[f(u + nx)] + ny`` and a closed loop built from a linear actuator,
the nonlinear plant and a strictly delayed linear feedback path.

Recorded periods are steady state.  The closed loop runs sample by sample,
the one time-domain recursion, since feedback needs it: a plant step, then
one linear map (``_loop_map``) for all its linear blocks.  Each
realization records from the first period ``s >= 1`` that its noise-free
loop repeats in period ``s + 1`` (the two differing by less than
``STEADY_STATE_RTOL`` in relative RMS), or from ``s + 1`` if that repeat is
not exact.  The noisy loop can carry its zero start longer: set beside a
longer lead-in, its record agrees to ``STEADY_STATE_RTOL`` after an exact
repeat and to 1e-7 after an inexact one (the property tests' bounds, on
loops that their reference drives; a numerically cut reference path
leaves about 1e-6).  The open loop has one filter,
``RationalLTI.filter``: the periodic steady-state response, a product of
spectra on the input's own grid.  A noise-free run filters one period; a
noisy run filters ``f(u + nx)`` once over whole periods, a lead-in of at
least ``settling_length()`` samples and the recorded ones, so that, for
simple dominant poles, the noise that wraps round onto a recorded sample has
decayed below ``STEADY_STATE_RTOL``.  What the white process noise does on
average, and its variance spectrum, are exact
(``HammersteinSimulator.process_noise_statistics``).  Open-loop dynamics
whose dominant mode needs more than ``_MAX_WARMUP`` periods to decay that
far raise InstabilityError before any draw.  Noisy simulations are a pure
function of their seeds.
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
    "simulate_closed_loop_batch",
    "SystemDescription",
    "read_system_file",
    "write_system_file",
]

STEADY_STATE_RTOL = 1e-10
DIVERGENCE_LIMIT = 1e12
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

    def _decay_length(self) -> int:
        """Samples over which the dominant mode decays by ``STEADY_STATE_RTOL``:
        ``ln(1 / STEADY_STATE_RTOL)`` time constants of the largest nonzero
        pole magnitude, or of the FIR length if there is none."""
        mags = np.abs(self._poles)
        mags = mags[mags > 0]
        time_constant = (float(self.numerator.size - 1) if mags.size == 0
                         else -1.0 / np.log(mags.max()))
        return int(np.ceil(time_constant * np.log(1.0 / STEADY_STATE_RTOL)))

    def settling_length(self) -> int:
        """Samples after which an impulse response has decayed below
        ``STEADY_STATE_RTOL`` of its size, for simple dominant poles:
        ``_decay_length()``, which reads only the largest pole magnitude, and
        at least 1000 samples.  A noisy open-loop run leads in over the
        fewest whole periods that span it."""
        return max(self._decay_length(), 1000)

    def bin_response(self, samples_per_period: int) -> np.ndarray:
        """Response ``B / A`` on the half DFT bin grid, bins ``0..N//2``: both
        polynomials in ``exp(-1j w)`` at ``w = 2 pi k / N`` radians/sample."""
        n = samples_per_period
        zinv = np.exp(-1j * (2.0 * np.pi * np.arange(n // 2 + 1) / n))
        num = np.polynomial.polynomial.polyval(zinv, self.numerator)
        den = np.polynomial.polynomial.polyval(zinv, self.denominator)
        return num / den

    def filter(self, x) -> np.ndarray:
        """Periodic steady-state response along the last axis: the response to
        ``x`` repeated forever, one period of it on ``x``'s own grid.

        ``x``'s spectrum times ``bin_response(T)``, for its ``T`` samples per
        row, transformed back: a product on the period's bin grid, with no
        padding and no start-up transient.  The grid response is kept for the
        last ``T``, so repeated calls at one length compute it once.
        """
        x = np.asarray(x, dtype=float)
        size = x.shape[-1]
        grid_size, response = self._grid
        if grid_size != size:
            response = self.bin_response(size)
            self._grid = size, response
        return np.fft.irfft(np.fft.rfft(x) * response, size)

    @property
    def order(self) -> int:
        return max(self.numerator.size, self.denominator.size) - 1


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

    Each period ``t >= 2`` of column ``i``'s noise-free loop is checked
    against period ``t - 1`` until one differs from it by less than
    ``STEADY_STATE_RTOL`` in relative RMS, which settles the column.
    ``starts[i]`` is the first recorded period: tentatively 1, and ``t``
    after each check whose residual is not 0, so that a column settles at
    ``t - 1`` on an exact repeat and at the confirming period ``t``
    otherwise.  ``residuals[i]`` is the last check's residual, once settled
    the confirming period's.  Errors name it realization ``i``.
    """

    def __init__(self, width: int):
        self.starts = np.ones(width, dtype=int)
        self.settled = np.zeros(width, dtype=bool)
        self.residuals = np.full(width, np.inf)
        self._previous = None
        self._count = 0

    def update(self, columns: np.ndarray) -> None:
        """Take the next period, shape ``(N, width)``, and check each unsettled
        column against its previous period."""
        # A contiguous row per column is reduced as that column alone would be.
        rows = np.ascontiguousarray(columns.T)
        self._count += 1
        if self._count > 2:
            unsettled = ~self.settled
            # Over each row's peak, so that a loop at 1e-200 does not square to 0.
            peak = np.maximum(np.abs(rows).max(axis=-1, keepdims=True), 1e-300)
            with np.errstate(over="ignore"):  # a residual of inf does not settle
                scaled = np.array([rows, rows - self._previous]) / peak
            rms = np.sqrt(np.mean(np.square(scaled), axis=-1))
            self.residuals[unsettled] = (rms[1] / np.maximum(rms[0], 1e-300))[unsettled]
            self.settled |= unsettled & (self.residuals < STEADY_STATE_RTOL)
            self.starts[unsettled & (self.residuals > 0)] = self._count - 1
        self._previous = rows
        if not self.settled.all() and self._count == _MAX_WARMUP:
            i = int(np.flatnonzero(~self.settled)[0])
            raise InstabilityError(
                f"steady state not reached within {_MAX_WARMUP} warm-up periods in "
                f"realization {i} "
                f"(relative residual {self.residuals[i]:.3g})"
            )


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
    lead_in_samples: int


class HammersteinSimulator:
    """Re-runnable Hammerstein simulator ``y = S(q)[f(u + nx)] + ny``.

    Both noise sequences are white Gaussian, each drawn from its own
    generator, so a run is a pure function of the two seeds.  What redraws
    of the process noise average to, and its variance spectrum, need no
    run: ``process_noise_statistics`` gives both exactly.
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
        """The noisy run's lead-in: ``(W, W * N)`` for ``W`` the fewest whole
        periods of ``u`` (``N`` samples each) that span
        ``dynamics.settling_length()`` samples.

        (The benchmark's tracer reads the first element as the periods
        simulated.)  Dynamics whose ``_decay_length()`` exceeds
        ``_MAX_WARMUP`` periods of ``u`` raise InstabilityError instead,
        before anything is drawn or filtered.
        """
        n = u.samples_per_period
        decay = self.dynamics._decay_length()
        if decay > _MAX_WARMUP * n:
            raise InstabilityError(
                f"steady state not reachable within {_MAX_WARMUP} warm-up periods: the "
                f"dynamics settle in {decay} samples, more than {_MAX_WARMUP} periods of {n}"
            )
        periods = -(-self.dynamics.settling_length() // n)
        return periods, periods * n

    def run(self, u: PeriodicSignal, process_noise_rng=None,
            output_noise_rng=None) -> SimulationRecord:
        """Simulate ``u.period_count`` (``P``) steady-state periods.

        ``dynamics.filter`` is the one filter.  Without process noise it runs
        on one period, ``f`` of period 0, and the output, that period
        repeated, is the exact periodic steady state.  With it, the process
        noise is drawn over ``W + P`` periods, ``W`` from ``required_warmup``,
        and the filter runs once on ``f(u + nx)`` over that whole grid, ``u``
        being period 0 repeated; the last ``P`` periods are recorded.  The
        grid is a whole number of periods, so the periodic part of the
        response is exact and the noise wraps round onto a recorded sample
        only through lags beyond ``W * N >= settling_length()``.  The output
        noise is drawn over the recorded stretch only and added.  ``u`` whose
        periods differ raises ValueError naming the first that differs.  A
        run that diverges raises InstabilityError; its simulated periods are
        the ``N``-sample blocks from the start of the lead-in.  Returns the
        measured output and the lead-in that ran (0 without process noise).
        """
        if self.process_noise_variance > 0 and process_noise_rng is None:
            raise ValueError("process_noise_rng is required when process noise is on")
        if self.output_noise_variance > 0 and output_noise_rng is None:
            raise ValueError("output_noise_rng is required when output noise is on")
        n = u.samples_per_period
        p = u.period_count
        _check_periodic(u, "input")
        lead_periods, lead = self.required_warmup(u)
        if self.process_noise_variance == 0:
            lead, y0 = 0, np.tile(self._periodic_output(u), p)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # reported right below
                nx = generate_noise(self.process_noise_variance, lead + p * n,
                                    process_noise_rng)
                y0 = self.dynamics.filter(
                    self.nonlinearity(np.tile(u.period(0), lead_periods + p) + nx))
            _check_divergence(y0, n)
            y0 = y0[lead:]
        ny = generate_noise(self.output_noise_variance, p * n, output_noise_rng)
        return SimulationRecord(output=PeriodicSignal(y0 + ny, n, p, u.sampling_frequency),
                                lead_in_samples=lead)

    def process_noise_statistics(self, u: PeriodicSignal) -> tuple[np.ndarray, np.ndarray]:
        """What ``run`` averages to over the process noise, and its spectrum, exactly.

        Returns ``(y_mean, var_process)``: ``y_mean`` is one period of
        ``S[E f(u + nx)]``, the expectation of each period of ``run``'s
        output without output noise, and ``var_process`` the variance of one
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
        _check_periodic(u, "input")
        if self.process_noise_variance == 0:
            return self._periodic_output(u), np.zeros(n // 2 + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # reported right below
            mean, variance = _noise_moments(self.nonlinearity, u.period(0),
                                            self.process_noise_variance)
            y_mean = self.dynamics.filter(mean)
            var_process = _modulated_noise_variance(self.dynamics, variance)
        _check_divergence(y_mean, n, "noise-averaged steady state")
        # A standard deviation per bin; abs, as round-off may leave a zero variance negative.
        _check_divergence(np.sqrt(np.abs(var_process)), var_process.size,
                          "process-noise spectrum")
        return y_mean, var_process

    def _periodic_output(self, u: PeriodicSignal) -> np.ndarray:
        """One period of the exact noise-free periodic steady state."""
        n = u.samples_per_period
        with np.errstate(over="ignore", invalid="ignore"):  # reported right below
            period = self.dynamics.filter(self.nonlinearity(u.period(0)))
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
        the loop's linear map runs ``S``."""
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
        One array holds a ones row, the coefficients of the kernels' ``terms``
        (kernels in tuple order) and ``span`` zeroed ring slots each for ``u0``
        and ``nx``.  Per sample: one gather by the ring phase's table, one
        multiply reduction (``((c * u_a) * u_b) * nx_c``, padded with exact
        ones: the order of ``evaluate_dual_kernel``), and one ``add.accumulate``
        adding the terms in turn onto zero (a sum would pair them)."""
        span = 1 + max(max(k.input_max_lag, k.noise_max_lag) for k in self.kernels)
        terms = [term for k in self.kernels for term in k.terms]
        u_slots = 1 + len(terms)
        # Per term, row j: factor j's first slot (row 0: the coefficient) and lag.
        degree = max(k.coefficients.ndim for k in self.kernels)
        first, lag = np.zeros((2, 1 + degree, len(terms)), dtype=np.intp)
        first[0] = np.arange(1, u_slots)
        for column, (_, u_lags, nx_lags) in enumerate(terms):
            m, d = len(u_lags), len(u_lags) + len(nx_lags)
            first[1:1 + m, column], first[1 + m:1 + d, column] = u_slots, u_slots + span
            lag[1:1 + d, column] = u_lags + nx_lags
        ring = np.arange(span)[:, None, None]
        tables = np.where(first >= u_slots, first + (ring - lag) % span, first)
        store = np.zeros((u_slots + 2 * span, width))
        store[0], store[1:u_slots] = 1.0, np.reshape([c for c, _, _ in terms], (-1, 1))
        phases = itertools.cycle([(tables[p], store[u_slots + p], store[u_slots + span + p])
                                  for p in range(span)])
        gathered, sums = np.empty(tables.shape[1:] + (width,)), np.empty((u_slots, width))
        summands = np.zeros((u_slots, width))  # row 0 stays 0.0, where the sum starts
        products, total = summands[1:], sums[-1]
        # The C methods, with positional arguments: at this size, np.take's
        # Python wrapper and keyword parsing cost about as much as the arithmetic.
        take, multiply_reduce, accumulate = store.take, np.multiply.reduce, np.add.accumulate

        def step(u0, nx):
            table, u_slot, nx_slot = next(phases)
            u_slot[...] = u0
            nx_slot[...] = nx
            take(table, 0, gathered, "clip")
            multiply_reduce(gathered, 0, None, products)
            accumulate(summands, 0, None, sums)
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
    """Measured loop signals, the reference, and the steady-state check that
    placed the record: its first period and that check's residual."""

    input_measured: PeriodicSignal
    output_measured: PeriodicSignal
    reference: PeriodicSignal
    warmup_periods: int
    steady_state_residual: float


def _df2t_step(lti: RationalLTI, z, x):
    """One direct-form II transposed step of ``lti`` on input ``x`` from state
    ``z`` (a sequence of ``lti.order`` taps): ``y = b0 x + z_0`` (``b0 x`` at
    order 0) and ``z'_i = z_{i+1} + (b_{i+1} x - a_{i+1} y)``, the last tap
    adding onto 0.  Returns ``(y, z')``."""
    order = lti.order
    b = np.pad(lti.numerator, (0, order + 1 - lti.numerator.size))
    a = np.pad(lti.denominator, (0, order + 1 - lti.denominator.size))
    y = b[0] * x + z[0] if order else b[0] * x
    return y, [(z[i + 1] if i + 1 < order else 0.0) + (b[i + 1] * x - a[i + 1] * y)
               for i in range(order)]


def _loop_map(dynamics: RationalLTI, actuator: RationalLTI, feedback: RationalLTI) -> np.ndarray:
    """The loop's linear blocks as one matrix ``A``, from one sample to the next:

        [u0(t+1), y0(t), x(t+1)] = A [x(t), p(t), r(t), r(t+1)],

    where ``x`` stacks the direct-form II transposed taps of ``S``, ``G_act``
    and ``M``, ``p = plant(u0, nx)`` is the plant's static output (``S``'s
    input) and ``r`` the reference.  ``M`` is strictly delayed, so its
    output is its first tap and ``u0(t+1) = G_act[r - M[y0]](t+1)`` follows
    from ``x(t+1)`` and ``r(t+1)``.  Column ``j`` of ``A`` is one step of the
    three recursions on the ``j``-th unit vector."""
    orders = np.cumsum([0, dynamics.order, actuator.order, feedback.order])
    basis = np.eye(orders[-1] + 3)
    z_s, z_act, z_fb = (basis[lo:hi] for lo, hi in zip(orders, orders[1:]))
    p, r, r_next = basis[orders[-1]:]
    y0, z_s = _df2t_step(dynamics, z_s, p)
    y_fb, z_fb = _df2t_step(feedback, z_fb, y0)
    _, z_act = _df2t_step(actuator, z_act, r - y_fb)
    u0_next, _ = _df2t_step(actuator, z_act, r_next - (z_fb[0] if z_fb else 0.0 * p))
    return np.array([u0_next, y0, *z_s, *z_act, *z_fb])


class _LoopEngine:
    """Sample-by-sample loop runner, vectorized over parallel loops.

    Column ``i`` is a loop on reference column ``i`` (one period, repeated),
    run from the zero state.  Row ``t`` of a per-period buffer holds
    ``[u0(t), y0(t-1), x(t), p(t), r(t), r(t+1)]``; a sample runs the plant
    into ``p(t)``, then writes ``_loop_map``'s product with the row's last
    entries into the next row's first ones, by one multiply and one add
    reduction over the columns in order: no BLAS rounding, and the same bits
    at every width, as the map's two or more rows keep numpy from pairing
    the terms of a one-element reduction.  Each period starts from the last
    row, which holds the start before the first: the zero state, with
    ``u0(0) = b_act0 r(0)``."""

    def __init__(self, config: ClosedLoopConfig, reference: np.ndarray):
        n, width = reference.shape
        matrix = _loop_map(getattr(config.plant, "dynamics", None) or RationalLTI.identity(),
                           config.actuator, config.feedback)  # identity S for a Volterra plant
        k = matrix.shape[0]
        self._matrix = np.ascontiguousarray(matrix.T)[:, :, None]
        self._products = np.empty((k + 1, k, width))
        self._rows = rows = np.zeros((n + 1, k + 3, width))
        rows[:-1, -2], rows[:-1, -1] = reference, np.roll(reference, -1, axis=0)
        rows[-1, 0] = config.actuator.numerator[0] * reference[0]
        self._plant = config.plant.stepper(width)

    def run_period(self, nx_block: np.ndarray):
        """One period on process noise ``nx_block`` ``(N, width)``: views of
        the buffer's ``u0`` and ``y0``, valid until the next call."""
        rows, k = self._rows, self._matrix.shape[1]
        rows[0, :k] = rows[-1, :k]
        plant, matrix, products = self._plant, self._matrix, self._products
        multiply, add_reduce = np.multiply, np.add.reduce
        # Overflow on the way to divergence is expected; the caller detects it
        # and reports it as an InstabilityError.  The row views are made
        # as the loop goes: kept for every period, they would hold ~0.6 kB a
        # sample for the whole run.
        with np.errstate(over="ignore", invalid="ignore"):
            for u0_t, nx_t, p_t, v_t, out_t in zip(rows[:-1, 0], nx_block, rows[:-1, k],
                                                   rows[:-1, 2:, None], rows[1:, :k]):
                p_t[...] = plant(u0_t, nx_t)
                multiply(matrix, v_t, products)
                add_reduce(products, 0, None, out_t)
        return rows[:-1, 0], rows[1:, 1]


def simulate_closed_loop_batch(config: ClosedLoopConfig, references,
                               seed=None) -> list[ClosedLoopRecord]:
    """Simulate one loop per reference signal, all advanced in lock step.

    One engine pass runs column ``m`` as the noise-free loop of realization
    ``m`` and column ``M + m`` as its noisy loop, which records periods
    ``W_m .. W_m + P - 1``.  The warm-up ``W_m`` is
    found on the noise-free loop alone, where steady state is defined: the
    first period ``s >= 1`` that its next period repeats to less than
    ``STEADY_STATE_RTOL`` in relative RMS, if that repeat is exact
    (residual 0), and the repeating period ``s + 1`` otherwise.  Recording
    starts at period 1 and moves to the checked period after each check
    that is not exact, so the confirming period is recorded with the rest
    whenever ``P >= 2``: a loop that repeats exactly at once runs ``1 + P``
    periods (3 for ``P = 1``).  Every reference
    must repeat its period 0, or ValueError names the first period that
    differs.  Noise streams are keyed by ``m``, so a record is a pure
    function of (config, seed, its reference and the index ``m``), whatever
    the references after it.
    """
    references = list(references)
    if not references:
        return []
    n = references[0].samples_per_period
    p = references[0].period_count
    fs = references[0].sampling_frequency
    for m, r in enumerate(references):
        if (r.samples_per_period, r.period_count, r.sampling_frequency) != (n, p, fs):
            raise ConfigurationError("all references must share one grid")
        _check_periodic(r, "reference", f" of realization {m}")
    width = len(references)
    master = seed if seed is not None else 0
    nx_rngs = [derive_rng(master, "loop_process_noise", m) for m in range(width)]

    r_block = np.tile(np.stack([r.period(0) for r in references], axis=1), 2)
    engine = _LoopEngine(config, r_block)
    steady = _SteadyState(width)
    nx_block = np.zeros_like(r_block)
    u0, y0 = np.empty((2, width, p, n))
    period = 0
    while not (steady.settled.all() and period >= steady.starts.max() + p):
        for i, rng in enumerate(nx_rngs):
            nx_block[:, width + i] = generate_noise(config.process_noise_variance, n, rng)
        u0_block, y0_block = engine.run_period(nx_block)
        # Periods count from the zero state, so a divergence is reported at the
        # simulated period, warm-up included: noise-free columns first.
        for i in range(2 * width):
            _check_divergence(y0_block[:, i], n, f"closed loop, realization {i % width}",
                              first_period=period)
        steady.update(y0_block[:, :width])
        j = period - steady.starts  # each noisy loop's record slot, if in 0..P-1
        rec = np.flatnonzero((j >= 0) & (j < p))
        u0[rec, j[rec]] = u0_block[:, width + rec].T
        y0[rec, j[rec]] = y0_block[:, width + rec].T
        period += 1

    records = []
    for m, r in enumerate(references):
        nu = generate_noise(config.input_noise_variance, p * n,
                            derive_rng(master, "loop_input_noise", m))
        ny = generate_noise(config.output_noise_variance, p * n,
                            derive_rng(master, "loop_output_noise", m))
        records.append(ClosedLoopRecord(
            input_measured=PeriodicSignal(u0[m].reshape(-1) + nu, n, p, fs),
            output_measured=PeriodicSignal(y0[m].reshape(-1) + ny, n, p, fs),
            reference=r,
            warmup_periods=int(steady.starts[m]),
            steady_state_residual=float(steady.residuals[m]),
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
