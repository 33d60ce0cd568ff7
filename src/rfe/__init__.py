"""Randomized Fourier estimation of an eigenphase, with noise models,
guaranteed resource counts, and a seeded verification harness.

The quantum side is never simulated at the state level: outcomes of the
real/imaginary Hadamard-test pair are drawn directly from their likelihoods
(1 +- bias)/2, where the bias encodes the signal exp(i k theta) plus the
active noise model's deviations.
"""

from .bounds import (
    BoundsQuery,
    BoundsReport,
    BoundsUnachievable,
    bounds_report,
    derivation_report,
    expected_total_depth,
    grid_size,
    inspec_failure_bound,
    samples_ban,
    samples_gaussian,
    samples_noiseless,
    sigma_max,
)
from .estimator import (
    RunConfig,
    SpectrumEstimate,
    TrialResult,
    estimate_phase,
    run_block,
    run_rfe,
    spectrum_csv,
    trial_to_dict,
    winning_frequency,
)
from .harness import (
    FixedTheta,
    LemmaScanReport,
    OracleSpectrum,
    SuccessStats,
    SweepPoint,
    UniformTheta,
    exact_estimator_expectation,
    gaussian_shift_variance,
    lemma_bound_scan,
    monte_carlo_success,
    noise_sweep,
    sweep_csv,
    wilson_interval,
)
from .noise import (
    AdversaryStrategy,
    Ban,
    Dephasing,
    DeviationTable,
    Gaussian,
    GaussianLinear,
    HighCoherence,
    Ideal,
    NoiseModel,
    ban_threshold,
    dephasing_ratio_threshold_nominal,
    dephasing_ratio_threshold_rederived,
    noise_from_dict,
)
from .sampler import OutcomeSums, sample_outcome_sums, sample_pairs
from .spectrum import (
    CLOSE_MAGNITUDE_MIN,
    NON_ADJACENT_ENVELOPE_MAX,
    NON_ADJACENT_MAGNITUDE_MAX,
    ExpectedSpectrum,
    dirichlet_kernel,
    expected_spectrum,
    validate_phase,
)
from .verify import SUITE_NAMES, SuiteResult, run_suites

__version__ = "0.1.0"
