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
from .adversarial import *
from .cli import *
from .core_estimators import *
from .distributions import *
from .harness import *
from .interval_combiner import *
from .kurtosis_pipeline import *
from .seeding import mix_seed  # seeding.__all__ also names trial_rngs, kept internal

__all__ = ["__version__", "mix_seed"]
__all__ += adversarial.__all__
__all__ += cli.__all__
__all__ += core_estimators.__all__
__all__ += distributions.__all__
__all__ += harness.__all__
__all__ += interval_combiner.__all__
__all__ += kurtosis_pipeline.__all__
