"""Best linear approximation toolkit.

Multisine excitation design, simulation of block-structured nonlinear
systems with process and output noise (open and closed loop), robust
nonparametric frequency-response estimation with noise and total variance
spectra, output decomposition, and closed-form references for the
Hammerstein case.
"""

from .signals import (
    MultisineSpec,
    PeriodicSignal,
    Spectrum,
    cross_power_spectrum,
    derive_rng,
    dft,
    generate_multisine,
    generate_noise,
    inverse_dft,
    period_spectra,
)
from .volterra import (
    DualVolterraKernel,
    NoiseMomentModel,
    evaluate_dual_kernel,
    evaluate_kernel,
    expected_kernel,
    gaussian_moment,
)
from .systems import (
    ClosedLoopConfig,
    ConfigurationError,
    HammersteinPlant,
    HammersteinSimulator,
    InstabilityError,
    PolynomialNonlinearity,
    RationalLTI,
    VolterraPlant,
    filter_periodic,
    simulate_closed_loop,
    simulate_closed_loop_batch,
    simulate_hammerstein,
)
from .estimator import (
    BlaEstimate,
    Decomposition,
    ExperimentRecord,
    UnsupportedOperationError,
    decompose_output,
    predict_variances,
    robust_bla,
    robust_bla_closed_loop,
    spectral_bla,
)
from .analytic import (
    GaussianInputModel,
    SymbolicDecomposition,
    Term,
    analytic_hammerstein_bla,
    analytic_hammerstein_decomposition,
    bussgang_gain,
)

__version__ = "0.1.0"
