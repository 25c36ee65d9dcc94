"""Truncated-mean estimation driven by a kurtosis bound.

Pipeline: a median-of-means center and a median-of-block-variances spread
estimate pick a truncation window of half-width R = nu * sqrt(n/(2 b_max));
the estimate is the plain average of the sample clipped to that window.
With kurtosis at most kappa the effective constant is sqrt(2) * (1 + xi)
with xi -> 0 as b_max/n -> 0, approaching the Gaussian-optimal rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._batch import _clipped_mean, _pipeline
from .core_estimators import _MOM_WIDTH
# median_of_means_raw and mom_variance are not called here, but
# perfbench/spans.py wraps the core estimators under these names in this module.
from .core_estimators import median_of_means_raw, mom_variance  # noqa: F401
from .distributions import _count, as_values

__all__ = ["KurtosisConfig", "XiTerms", "psi", "truncated_mean", "xi_terms", "kurtosis_estimate"]


@dataclass(frozen=True)
class KurtosisConfig:
    """Block budget and kurtosis bound for the truncation pipeline.

    The smallest guaranteed confidence level is delta_floor(b_max) =
    (4e/(e-2)) * e^(-b_max).
    """

    b_max: int
    kappa_bound: float

    def __post_init__(self):
        object.__setattr__(self, "b_max", _count("b_max", self.b_max))
        if not (math.isfinite(self.kappa_bound) and self.kappa_bound >= 1.0):
            raise ValueError("kappa_bound must be finite and >= 1")


@dataclass(frozen=True)
class XiTerms:
    xi: float
    xi1: float
    xi2: float

    def __post_init__(self):
        if min(self.xi, self.xi1, self.xi2) < 0.0:
            raise ValueError("xi terms must be nonnegative")


def _check_window(mu: float, R: float) -> None:
    if not R >= 0.0:  # also rejects NaN
        raise ValueError("R must be >= 0")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")


def psi(mu: float, R: float, x):
    """Clip x (scalar or array) to the window [mu - R, mu + R], mu finite."""
    _check_window(mu, R)
    clipped = np.clip(x, mu - R, mu + R)
    if np.ndim(x) == 0:
        return float(clipped)
    return clipped


def truncated_mean(sample, mu: float, R: float) -> float:
    """Arithmetic mean of the sample clipped to [mu - R, mu + R], mu finite."""
    values = as_values(sample)
    _check_window(mu, R)
    return float(_clipped_mean(values, mu - R, mu + R))


def xi_terms(kappa: float, n: int, b_max: int) -> XiTerms:
    """The correction xi = xi1 + xi2 entering the constant sqrt(2)(1 + xi).

    xi1 = 36 sqrt(kappa b_max / n) dominates for large n;
    xi2 = 2 sqrt(2) kappa b_max^{3/2} / n + 1120 sqrt(kappa) b_max / n.
    """
    if not (kappa > 0.0 and n > 0 and b_max > 0):
        raise ValueError("all arguments must be positive")
    xi1 = 36.0 * math.sqrt(kappa * b_max / n)
    xi2 = (
        2.0 * math.sqrt(2.0) * kappa * b_max**1.5 / n
        + 1120.0 * math.sqrt(kappa) * b_max / n
    )
    return XiTerms(xi=xi1 + xi2, xi1=xi1, xi2=xi2)


def delta_floor(b_max: int) -> float:
    """Smallest confidence level the pipeline's guarantee covers:
    (4e/(e-2)) * e^(-b_max)."""
    return (4.0 * math.e / (math.e - 2.0)) * math.exp(-b_max)


def _check(n: int, b_max: int) -> None:
    """The pipeline's preconditions on (n, b_max); ValueError if unmet."""
    b_max = _count("b_max", b_max)
    if n < 4:
        raise ValueError("kurtosis_estimate needs n >= 4")
    if n // b_max < 2:
        raise ValueError(f"every block needs at least 2 points (n={n}, b_max={b_max})")


def kurtosis_estimate(sample, config: KurtosisConfig) -> float:
    """Truncated mean with a data-driven window.

    Steps: mu_hat = median of b_max block means; nu2_hat = median of b_max
    block pairwise variances (same partition); R_hat =
    sqrt(nu2_hat) * sqrt(n/(2 b_max)); return the mean of the sample clipped
    to [mu_hat - R_hat, mu_hat + R_hat].

    Guarantee target: P(|est - mu| > sqrt(2)(1+xi) sigma sqrt((1+ln(1/delta))/n))
    <= delta for delta >= delta_floor(b_max), under kurtosis <= kappa_bound.

    Emits RuntimeWarnings (never errors) when the bound's smallness
    conditions fail at this (n, b_max, kappa_bound); constant data yields a
    zero-width window and returns mu_hat.
    """
    values = as_values(sample)
    n = values.size
    b = config.b_max
    _check(n, b)
    kappa = config.kappa_bound

    cond = 96.0 * math.e * (kappa + 3.0) * b / n
    eps_mu = _MOM_WIDTH * math.sqrt(b / n)
    eps_r = 2.0 * math.e * math.sqrt(3.0 * (kappa + 3.0))
    half = math.sqrt(n / (2.0 * b))
    window = 2.0 * (eps_mu + eps_r)
    if cond > 1.0:
        warnings.warn("variance-estimate concentration condition fails: "
                      f"96*e*(kappa+3)*b_max/n = {cond:.4g} > 1", RuntimeWarning, stacklevel=2)
    if window > half:
        warnings.warn(f"truncation window may be unstable: 2*(eps_mu + eps_R) = {window:.4g} "
                      f"exceeds sqrt(n/(2*b_max)) = {half:.4g}", RuntimeWarning, stacklevel=2)
    if eps_mu > math.sqrt(kappa):
        warnings.warn(f"center-accuracy assumption fails: eps_mu = {eps_mu:.4g} exceeds "
                      f"sqrt(kappa_bound) = {math.sqrt(kappa):.4g}", RuntimeWarning, stacklevel=2)
    return _pipeline(values, b)[3]
