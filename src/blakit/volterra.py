"""Finite-support dual-input Volterra kernels.

A kernel takes the excitation and a process-noise sequence as separate
inputs; a single-input kernel is one without noise taps.  The process noise
is white and Gaussian; colored noise of finite memory is a kernel on white
noise, with the coloring folded into its noise taps.  Averaging a kernel's
output over the noise is the same as evaluating the kernel without noise
taps whose coefficients are the noise tap indices contracted against
Gaussian joint moments; that contraction is :func:`expected_kernel`, and
:func:`gaussian_moment` gives each moment as a product of per-lag Gaussian
power moments.  The noise-averaged kernel is a kernel like any other.

Kernels are stored dense over the full tap hypercube.  Enumerating it costs
``(taps+1)**degree``, so construction is bounded to total degree
``m + n <= 6`` and tap lag ``<= 8``.  That cost is paid once per kernel:
construction compiles the nonzero coefficients, in C order, into one term
table of ``(c, u_lags, nx_lags)`` tuples.  Evaluation is periodic: it puts
each input's last samples once in front of it, takes every lag as a slice
of that array, and then costs one multiply per factor of each term.  Every
term is formed as ``((c * u_a) * u_b) * nx_c``, left to right, and the
terms are added onto zero in table order: the order of the closed-loop
plant (``systems.VolterraPlant``) and of the scalar nested sum, so all
three give the same bits.

A kernel without noise taps gives the same output for every noise draw, so
it is evaluated once per excitation: each such kernel keeps a one-entry
memo of its last output, keyed by the bytes of the excitation, not by its
identity, since a caller may change ``u`` in place between calls.  A stack
of draws gets that one output in each row.
"""

from __future__ import annotations

import functools
import operator
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


@dataclass(frozen=True, eq=False)
class DualVolterraKernel:
    """Dense kernel with ``input_degree`` excitation taps and ``noise_degree`` noise taps.

    The coefficient array carries the excitation axes first (each of length
    ``input_max_lag + 1``) and the noise axes last (length
    ``noise_max_lag + 1``).  ``noise_degree == 0`` is a single-input kernel;
    total degree 0 (a scalar constant) arises from contracting pure-noise
    kernels.

    ``terms`` is the kernel's one compiled form: a ``(c, u_lags, nx_lags)``
    tuple per nonzero coefficient in C (``np.ndindex``) order, with ``c`` a
    Python float and the lags its excitation and noise tap indices.  Both
    evaluators, ``expected_kernel`` and ``VolterraPlant.stepper`` read it.
    ``_memo`` is the evaluators' ``(u bytes, read-only output)`` of a kernel
    without noise taps, or None.
    """

    input_degree: int
    noise_degree: int
    coefficients: np.ndarray
    terms: tuple = field(init=False, repr=False)
    _memo: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        m = _index("input_degree", self.input_degree)
        n = _index("noise_degree", self.noise_degree)
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
            if axis_len == 0:
                raise ValueError("tap axes must not be empty")
            if axis_len - 1 > MAX_TAP_LAG:
                raise ValueError(f"tap lag {axis_len - 1} exceeds {MAX_TAP_LAG}")
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "input_degree", m)
        object.__setattr__(self, "noise_degree", n)
        object.__setattr__(self, "coefficients", coeff)
        nonzero = coeff != 0.0
        object.__setattr__(self, "terms", tuple(
            (c, tuple(lags[:m]), tuple(lags[m:]))
            for c, lags in zip(coeff[nonzero].tolist(), np.argwhere(nonzero).tolist())))

    @property
    def input_max_lag(self) -> int:
        return self.coefficients.shape[0] - 1 if self.input_degree else 0

    @property
    def noise_max_lag(self) -> int:
        return self.coefficients.shape[-1] - 1 if self.noise_degree else 0


@dataclass(frozen=True)
class NoiseMomentModel:
    """Stationary white Gaussian process noise of one variance.

    ``max_lag`` is the noise-tap support the model covers: a kernel whose
    noise taps reach further cannot be contracted against it.  Colored noise
    of finite memory is a kernel on white noise, with the coloring folded
    into the kernel's noise taps.
    """

    variance: float
    max_lag: int

    def __post_init__(self):
        variance = float(self.variance)
        if not np.isfinite(variance) or variance < 0:
            raise ValueError("variance must be finite and >= 0")
        max_lag = _index("max_lag", self.max_lag)
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "max_lag", max_lag)

    @classmethod
    def white(cls, variance: float, max_lag: int = 0) -> "NoiseMomentModel":
        """White noise of ``variance`` for kernels with noise taps up to ``max_lag``."""
        return cls(variance, max_lag)


def _index(name: str, value) -> int:
    """``value`` as an int by ``operator.index``: integers and numpy integers, never floats."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _lagged(x: np.ndarray, max_lag: int) -> list[np.ndarray]:
    """Circular ``x(t - l)`` along the last axis for lags 0..max_lag, as views in lag order.

    The last ``max_lag`` samples are put in front of ``x`` once; lag ``l`` is
    then a slice of that one array.  Needs ``max_lag <= x.shape[-1]``.
    """
    t_len = x.shape[-1]
    padded = np.concatenate((x[..., t_len - max_lag:], x), axis=-1)
    return [padded[..., max_lag - lag:max_lag - lag + t_len] for lag in range(max_lag + 1)]


def evaluate_kernel(kernel: DualVolterraKernel, u) -> np.ndarray:
    """Exact nested-sum output of a kernel without noise taps.

    The input is one period, extended circularly (steady-state analysis).
    The term table runs once per distinct ``u`` (see the module docstring);
    every call returns a fresh array.  A kernel with noise taps needs
    :func:`evaluate_dual_kernel`.
    """
    if kernel.noise_degree:
        raise ValueError(f"kernel has noise degree {kernel.noise_degree}; "
                         "evaluate it with evaluate_dual_kernel")
    return _evaluate(kernel, u, u)


def evaluate_dual_kernel(kernel: DualVolterraKernel, u, nx) -> np.ndarray:
    """Exact nested-sum output of a dual-input kernel over both tap sets.

    Both inputs are extended circularly, as in :func:`evaluate_kernel`.
    ``nx`` is one noise sequence of the length of ``u``, or a stack of
    ``K`` draws of shape ``(K, len(u))``; the output is a fresh array of
    the shape of ``nx``, and each row equals the call with that draw alone,
    bit for bit.  A kernel without noise taps runs its term table once per
    distinct ``u``, whatever ``nx`` is, and copies that output into each row.
    """
    return _evaluate(kernel, u, nx)


def _evaluate(kernel: DualVolterraKernel, u, nx) -> np.ndarray:
    """Both evaluators: check the shapes, then sum the terms or copy the memo.

    A kernel without noise taps sums its terms over ``u`` alone and keeps
    the read-only result with ``u``'s bytes.  The memo is one tuple, read
    and replaced whole, so concurrent callers each get the output of their
    own ``u``.
    """
    u = np.asarray(u, dtype=float)
    nx = np.asarray(nx, dtype=float)
    if u.ndim != 1 or nx.ndim not in (1, 2) or nx.shape[-1] != u.size:
        raise ValueError("input and noise sequences must share one length "
                         "(u of shape (T,), nx of shape (T,) or (K, T))")
    if u.size <= max(kernel.input_max_lag, kernel.noise_max_lag):
        raise ValueError("sequences shorter than the kernel tap support")
    if kernel.noise_degree:
        return _sum_terms(kernel, u, nx)
    key = u.tobytes()
    memo = kernel._memo
    if memo is None or memo[0] != key:
        out = _sum_terms(kernel, u, u)
        out.flags.writeable = False
        memo = (key, out)
        object.__setattr__(kernel, "_memo", memo)
    out = np.empty(nx.shape)
    out[...] = memo[1]
    return out


def _sum_terms(kernel: DualVolterraKernel, u: np.ndarray, nx: np.ndarray) -> np.ndarray:
    """Sum of ``((c * u_a) * u_b) * nx_c`` over the term table, one term after another.

    The term loop of both evaluators, on checked float arrays; without
    noise taps ``nx`` only gives the output shape.  Each term's factors are
    multiplied in left to right, the excitation ones in a buffer the size of
    ``u`` and the noise ones in a buffer the size of the output, and the
    terms are added in order into a zero array rather than reduced with
    ``sum``, whose pairwise summation would change the rounding.
    """
    u_lagged = _lagged(u, kernel.input_max_lag) if kernel.input_degree else None
    nx_lagged = _lagged(nx, kernel.noise_max_lag) if kernel.noise_degree else None
    out = np.zeros(nx.shape)
    u_buffer, buffer = np.empty(u.shape), np.empty(nx.shape)
    for c, u_lags, nx_lags in kernel.terms:
        term = c
        for lag in u_lags:
            term = np.multiply(term, u_lagged[lag], u_buffer)
        for lag in nx_lags:
            term = np.multiply(term, nx_lagged[lag], buffer)
        np.add(out, term, out)
    return out


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


def gaussian_moment(model: NoiseMomentModel, lags) -> float:
    """Joint moment ``E{nx(t-j_1) ... nx(t-j_n)}`` of white Gaussian noise.

    Samples at different lags are independent, so the moment is the product,
    over the distinct lags in increasing order, of the Gaussian power moment
    of each lag's multiplicity: 1 for no lags, 0 when any lag appears an odd
    number of times.  Invariant under any permutation of the lags.  Requires
    every pairwise lag difference to lie inside the model's support.
    """
    lags = tuple(int(j) for j in lags)
    if any(j < 0 for j in lags):
        raise ValueError("lags must be >= 0")
    span = max(lags, default=0) - min(lags, default=0)
    if span > model.max_lag:
        raise ValueError(f"lag difference {span} outside the noise support (max {model.max_lag})")
    moment = 1.0
    for lag in sorted(set(lags)):
        moment *= gaussian_power_moment(lags.count(lag), model.variance)
    return moment


def expected_kernel(kernel: DualVolterraKernel, model: NoiseMomentModel) -> DualVolterraKernel:
    """Contract the noise taps of a dual-input kernel against Gaussian moments.

    Returns the kernel of input degree ``input_degree`` and no noise taps
    whose output equals the process-noise average of ``kernel``'s output.
    Odd noise degree gives the zero kernel.  The contraction is linear in
    the kernel coefficients: each term of ``kernel.terms`` with a nonzero
    moment adds ``moment * c`` to its excitation taps' coefficient, in
    table order.
    """
    m, n = kernel.input_degree, kernel.noise_degree
    if n == 0:
        return DualVolterraKernel(m, 0, kernel.coefficients.copy())
    out = np.zeros(kernel.coefficients.shape[:m])
    if n % 2:
        return DualVolterraKernel(m, 0, out)
    if kernel.noise_max_lag > model.max_lag:
        raise ValueError(
            f"kernel noise lags reach {kernel.noise_max_lag}, noise "
            f"support ends at {model.max_lag}"
        )
    moment = functools.cache(lambda lags: gaussian_moment(model, lags))
    for c, u_lags, nx_lags in kernel.terms:
        weight = moment(nx_lags)
        if weight != 0.0:
            out[u_lags] += weight * c
    return DualVolterraKernel(m, 0, out)

