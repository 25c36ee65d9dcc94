"""Sub-Gaussian mean estimation for heavy-tailed data.

Estimators whose deviation from the true mean stays below
L * sigma * sqrt((1 + ln(1/delta)) / n) with probability at least 1 - delta:
median-of-means, quartile intervals of block means for distributions with
regular sums, confidence-interval combination into estimators that need no
confidence level as input, and a kurtosis-driven truncated mean whose
constant approaches the Gaussian optimum.  Ships with a seeded Monte Carlo
harness that measures the realized constants, coupling-based stress tests
that realize the matching lower bounds, and a CLI over all of it.
"""

from ._version import __version__
from .adversarial import (
    CoupledSample,
    coupled_scaled_bernoulli,
    infvar_stress,
    laplace_ratio_floor,
    poisson_point_mass_check,
    scaled_bernoulli_moment,
)
from .cli import main, run_cli
from .core_estimators import (
    BlockPartition,
    ConfidenceInterval,
    median_of_means,
    median_of_means_raw,
    mom_variance,
    pairwise_block_variance,
    partition_blocks,
    quantile_interval,
    quantile_interval_raw,
    quantile_select,
)
from .distributions import (
    DistributionSpec,
    MomentOverflowError,
    Sample,
    as_values,
    format_distribution,
    parse_distribution,
    regularity_probe,
    sample,
)
from .harness import (
    DELTA_DEPENDENT,
    ESTIMATORS,
    ExperimentConfig,
    TailReport,
    TailRow,
    exceedance_rate,
    normalized_quantile_curve,
    read_report,
    run_tail_experiment,
    write_report,
)
from .interval_combiner import (
    BUILDERS,
    CombineResult,
    IntervalFamily,
    adaptive_family,
    combine,
    fixed_sigma_family,
    multiple_delta_estimate,
    quantile_kreg_family,
)
from .kurtosis_pipeline import (
    KurtosisConfig,
    XiTerms,
    kurtosis_estimate,
    psi,
    truncated_mean,
    xi_terms,
)
from .seeding import mix_seed

__all__ = [
    "__version__",
    "BlockPartition",
    "BUILDERS",
    "CombineResult",
    "ConfidenceInterval",
    "CoupledSample",
    "DELTA_DEPENDENT",
    "DistributionSpec",
    "ESTIMATORS",
    "ExperimentConfig",
    "IntervalFamily",
    "KurtosisConfig",
    "MomentOverflowError",
    "Sample",
    "TailReport",
    "TailRow",
    "XiTerms",
    "adaptive_family",
    "as_values",
    "combine",
    "coupled_scaled_bernoulli",
    "exceedance_rate",
    "fixed_sigma_family",
    "format_distribution",
    "infvar_stress",
    "kurtosis_estimate",
    "laplace_ratio_floor",
    "main",
    "median_of_means",
    "median_of_means_raw",
    "mix_seed",
    "mom_variance",
    "multiple_delta_estimate",
    "normalized_quantile_curve",
    "pairwise_block_variance",
    "parse_distribution",
    "partition_blocks",
    "poisson_point_mass_check",
    "psi",
    "quantile_interval",
    "quantile_interval_raw",
    "quantile_kreg_family",
    "quantile_select",
    "read_report",
    "regularity_probe",
    "run_cli",
    "run_tail_experiment",
    "sample",
    "scaled_bernoulli_moment",
    "truncated_mean",
    "write_report",
    "xi_terms",
]
