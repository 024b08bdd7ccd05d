"""Thin prime sets: enumeration, exponential sums, maximal and ergodic
averages, and ternary Goldbach counts, with a batch CLI."""

__version__ = "0.1.0"

from . import errors
from .averages import (
    Kernel,
    SparseSignal,
    abel_summation,
    build_kernel,
    convolve,
    kernel_gap_norm,
    lr_norm,
    maximal_function,
    weighted_maximal_compare,
)
from .ergodic import (
    AverageSeries,
    CircleRotation,
    FiniteCycle,
    average_series,
    ergodic_average,
    oscillation_sum,
    zeps_grid,
)
from .expsum import (
    DecayProfile,
    IntPolynomial,
    PhaseSpec,
    bilinear_sum_bound,
    default_v,
    formlem_decay,
    lambda_exp_sum,
    vaughan_split,
    vdc_bound_check,
)
from .goldbach import (
    GoldbachConfig,
    GoldbachReport,
    admissibility_check,
    goldbach_reports,
    parseval_check,
    rep_count,
    rep_counts,
)
from .sieve import (
    PrimeTable,
    ThinPrimeSet,
    build_prime_table,
    density_profile,
    enumerate_thin_primes,
)
from .thinfn import (
    AdmissibleParams,
    ThinFunction,
    admissible_params,
    derivative_ratio_report,
    make_thin_function,
)
