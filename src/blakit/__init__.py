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
    simulate_closed_loop_batch,
)
from .estimator import (
    BlaEstimate,
    ExperimentRecord,
    robust_bla,
    robust_bla_closed_loop,
)
from .analytic import (
    GaussianInputModel,
    analytic_hammerstein_bla,
    bussgang_gain,
    decompose_output,
    hermite_table,
    predict_variances,
)

__version__ = "0.1.0"
