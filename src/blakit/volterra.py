"""Finite-support dual-input Volterra kernels.

A kernel takes the excitation and a process-noise sequence as separate
inputs; a single-input kernel is one without noise taps.  Averaging a
kernel's output over Gaussian process noise is the same as evaluating the
kernel without noise taps whose coefficients are the noise tap indices
contracted against Gaussian joint moments; that contraction is
:func:`expected_kernel` and the moments come from :func:`gaussian_moment`
(Isserlis pairing enumeration).  The noise-averaged kernel is a kernel like
any other.

Kernels are stored dense over the full tap hypercube.  Enumerating it costs
``(taps+1)**degree``, so construction is bounded to total degree
``m + n <= 6`` and tap lag ``<= 8``.  That cost is paid once per kernel:
construction compiles the nonzero coefficients, in C order, into a term
table of coefficients and their u- and nx-lags, and evaluation then costs
one gather-multiply per term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_TOTAL_DEGREE",
    "MAX_TAP_LAG",
    "DualVolterraKernel",
    "NoiseMomentModel",
    "evaluate_kernel",
    "evaluate_dual_kernel",
    "gaussian_moment",
    "expected_kernel",
]

MAX_TOTAL_DEGREE = 6
MAX_TAP_LAG = 8


@dataclass(frozen=True)
class DualVolterraKernel:
    """Dense kernel with ``input_degree`` excitation taps and ``noise_degree`` noise taps.

    The coefficient array carries the excitation axes first (each of length
    ``input_max_lag + 1``) and the noise axes last (length
    ``noise_max_lag + 1``).  ``noise_degree == 0`` is a single-input kernel;
    total degree 0 (a scalar constant) arises from contracting pure-noise
    kernels.

    ``term_coefficients[i]`` is the i-th nonzero coefficient in C
    (``np.ndindex``) order and ``term_lags[i]`` its tap lags, one column per
    axis of the coefficient array: excitation lags first, then noise lags.
    """

    input_degree: int
    noise_degree: int
    coefficients: np.ndarray
    term_coefficients: np.ndarray = field(init=False, repr=False, compare=False)
    term_lags: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = int(self.input_degree)
        n = int(self.noise_degree)
        if m < 0 or n < 0:
            raise ValueError("degrees must be >= 0")
        if m + n > MAX_TOTAL_DEGREE:
            raise ValueError(f"total degree {m + n} exceeds {MAX_TOTAL_DEGREE}")
        coeff = np.asarray(self.coefficients, dtype=float)
        if coeff.ndim != m + n:
            raise ValueError(
                f"coefficient array has {coeff.ndim} axes, expected m+n = {m + n}"
            )
        if m and len(set(coeff.shape[:m])) != 1:
            raise ValueError("input tap axes must share one length")
        if n and len(set(coeff.shape[m:])) != 1:
            raise ValueError("noise tap axes must share one length")
        for axis_len in coeff.shape:
            if axis_len - 1 > MAX_TAP_LAG:
                raise ValueError(f"tap lag {axis_len - 1} exceeds {MAX_TAP_LAG}")
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "input_degree", m)
        object.__setattr__(self, "noise_degree", n)
        object.__setattr__(self, "coefficients", coeff)
        nonzero = coeff != 0.0
        object.__setattr__(self, "term_coefficients", coeff[nonzero])
        object.__setattr__(self, "term_lags", np.argwhere(nonzero))

    @property
    def input_max_lag(self) -> int:
        return self.coefficients.shape[0] - 1 if self.input_degree else 0

    @property
    def noise_max_lag(self) -> int:
        return self.coefficients.shape[-1] - 1 if self.noise_degree else 0


@dataclass(frozen=True)
class NoiseMomentModel:
    """Second-order description of stationary Gaussian process noise.

    ``autocovariance[tau]`` is ``E{nx(t) nx(t - tau)}`` for lags
    ``0..len-1``; higher joint moments follow from Gaussianity.
    """

    autocovariance: np.ndarray

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.autocovariance, dtype=float))
        if not np.isfinite(r).all():
            raise ValueError("autocovariance must be finite")
        if r[0] < 0 or (r.size > 1 and np.abs(r[1:]).max() > r[0]):
            raise ValueError("need r(0) >= |r(tau)| >= 0 for all lags")
        object.__setattr__(self, "autocovariance", r)

    @property
    def variance(self) -> float:
        return float(self.autocovariance[0])

    @property
    def max_lag(self) -> int:
        return self.autocovariance.size - 1

    @classmethod
    def white(cls, variance: float, max_lag: int = 0) -> "NoiseMomentModel":
        r = np.zeros(max_lag + 1)
        r[0] = variance
        return cls(autocovariance=r)


def _lagged(x: np.ndarray, max_lag: int, periodic: bool) -> np.ndarray:
    """``x(t - l)`` along the last axis for lags 0..max_lag, lag axis first.

    Periodic lagging is circular, one modular-index gather; otherwise the
    sequence is zero-padded before its start.
    """
    t_len = x.shape[-1]
    if periodic:
        # Negative indices wrap once, which is ``(t - l) % t_len`` for l < t_len.
        index = np.arange(t_len) - np.arange(max_lag + 1)[:, None]
        return x[..., index].swapaxes(0, -2)
    rows = np.zeros((max_lag + 1,) + x.shape)
    for lag in range(max_lag + 1):
        rows[lag, ..., lag:] = x[..., : t_len - lag]
    return rows


def _lag_product(lagged: np.ndarray, lags) -> np.ndarray:
    """Left-to-right product of the lagged rows named by ``lags`` (non-empty)."""
    product = lagged[lags[0]]
    for lag in lags[1:]:
        product = product * lagged[lag]
    return product


def evaluate_kernel(kernel: DualVolterraKernel, u, periodic: bool = True) -> np.ndarray:
    """Exact nested-sum output of a kernel without noise taps.

    Periodic inputs are extended circularly (steady-state analysis);
    otherwise the input is zero-padded and the first ``input_max_lag``
    output samples are start-up transient.  A kernel with noise taps needs
    :func:`evaluate_dual_kernel`.
    """
    if kernel.noise_degree:
        raise ValueError(f"kernel has noise degree {kernel.noise_degree}; "
                         "evaluate it with evaluate_dual_kernel")
    return _sum_terms(kernel, u, u, periodic)


def evaluate_dual_kernel(kernel: DualVolterraKernel, u, nx, periodic: bool = True) -> np.ndarray:
    """Exact nested-sum output of a dual-input kernel over both tap sets.

    ``nx`` is one noise sequence of the length of ``u``, or a stack of
    ``K`` draws of shape ``(K, len(u))``; the output has the shape of ``nx``,
    and each row equals the call with that draw alone, bit for bit.
    """
    return _sum_terms(kernel, u, nx, periodic)


def _sum_terms(kernel: DualVolterraKernel, u, nx, periodic: bool) -> np.ndarray:
    """Sum of ``(c * prod u) * prod nx`` over the term table, one term after another.

    The body of both evaluators; without noise taps ``nx`` only gives the
    output shape.  Terms are added in order into a zero array rather than
    reduced with ``sum``, whose pairwise summation would change the rounding.
    """
    u = np.asarray(u, dtype=float)
    nx = np.asarray(nx, dtype=float)
    if u.ndim != 1 or nx.ndim not in (1, 2) or nx.shape[-1] != u.size:
        raise ValueError("input and noise sequences must share one length "
                         "(u of shape (T,), nx of shape (T,) or (K, T))")
    m, n = kernel.input_degree, kernel.noise_degree
    if m + n == 0:
        return np.full(nx.shape, float(kernel.coefficients))
    if u.size <= max(kernel.input_max_lag, kernel.noise_max_lag):
        raise ValueError("sequences shorter than the kernel tap support")
    u_lagged = _lagged(u, kernel.input_max_lag, periodic) if m else None
    nx_lagged = _lagged(nx, kernel.noise_max_lag, periodic) if n else None
    out = np.zeros(nx.shape)
    for c, lags in zip(kernel.term_coefficients.tolist(), kernel.term_lags.tolist()):
        term = c
        if m:
            term = term * _lag_product(u_lagged, lags[:m])
        if n:
            term = term * _lag_product(nx_lagged, lags[m:])
        out += term
    return out


def gaussian_moment(model: NoiseMomentModel, lags) -> float:
    """Joint moment ``E{nx(t-j_1) ... nx(t-j_n)}`` of a Gaussian stationary process.

    Zero for odd ``n``; for even ``n`` the sum over all perfect matchings of
    pairwise autocovariances, enumerated by recursively pairing the first
    remaining lag with each other.  Invariant under any permutation of the
    lags.  Requires every pairwise lag difference to lie inside the
    autocovariance support.
    """
    lags = tuple(int(j) for j in lags)
    if any(j < 0 for j in lags):
        raise ValueError("lags must be >= 0")
    n = len(lags)
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    r = model.autocovariance
    span = max(lags) - min(lags)
    if span > model.max_lag:
        raise ValueError(
            f"lag difference {span} outside autocovariance support (max {model.max_lag})"
        )

    def pairings(rest: tuple) -> float:
        if not rest:
            return 1.0
        first, tail = rest[0], rest[1:]
        total = 0.0
        for i, other in enumerate(tail):
            total += r[abs(first - other)] * pairings(tail[:i] + tail[i + 1:])
        return total

    return pairings(lags)


def expected_kernel(kernel: DualVolterraKernel, model: NoiseMomentModel) -> DualVolterraKernel:
    """Contract the noise taps of a dual-input kernel against Gaussian moments.

    Returns the kernel of input degree ``input_degree`` and no noise taps
    whose output equals the process-noise average of ``kernel``'s output.
    Odd noise degree gives the zero kernel.  The contraction is linear in
    the kernel coefficients.
    """
    m, n = kernel.input_degree, kernel.noise_degree
    if n == 0:
        return DualVolterraKernel(m, 0, kernel.coefficients.copy())
    shape_u = kernel.coefficients.shape[:m]
    if n % 2:
        return DualVolterraKernel(m, 0, np.zeros(shape_u))
    if kernel.noise_max_lag > model.max_lag:
        raise ValueError(
            f"kernel noise lags reach {kernel.noise_max_lag}, autocovariance "
            f"support ends at {model.max_lag}"
        )
    out = np.zeros(shape_u)
    for j_idx in np.ndindex((kernel.noise_max_lag + 1,) * n):
        weight = gaussian_moment(model, j_idx)
        if weight != 0.0:
            out = out + weight * kernel.coefficients[(...,) + j_idx]
    return DualVolterraKernel(m, 0, out)

