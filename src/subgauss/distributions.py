"""Distribution families with closed-form moments and seeded samplers.

Every spec carries the exact mean, variance, and kurtosis of its family so
simulation output can be scored against the truth.  Kurtosis is the fourth
central moment over sigma^4 (not excess); by convention it is 1 for
degenerate distributions and may be infinite for sufficiently heavy tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DistributionSpec",
    "MomentOverflowError",
    "Sample",
    "parse_distribution",
    "format_distribution",
    "sample",
    "regularity_probe",
    "as_values",
]


class MomentOverflowError(ValueError):
    """A well-formed spec whose exact mean or variance is not a finite float."""


@dataclass(frozen=True)
class DistributionSpec:
    """A named distribution with exact mean, variance, and kurtosis."""

    family: str
    params: tuple[float, ...]
    mu: float
    sigma2: float
    kappa: float

    def __post_init__(self):
        # Scores against an infinite mean or variance are meaningless; an
        # infinite kappa is legal (pareto with alpha <= 4).
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma2)):
            raise MomentOverflowError(
                f"{self.family}{self.params}: mu and sigma2 must be finite, "
                f"got mu={self.mu!r}, sigma2={self.sigma2!r}"
            )
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be >= 0")
        if self.sigma2 == 0.0 and self.kappa != 1.0:
            raise ValueError("degenerate distributions must have kappa = 1")
        if not self.kappa >= 1.0:  # also rejects NaN
            raise ValueError("kappa must be >= 1")


@dataclass(frozen=True)
class Sample:
    """An ordered sequence of finite real values, length >= 1.

    The stored array is an owned, read-only float64 copy of the input.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError("a sample must be one-dimensional")
        if arr.size < 1:
            raise ValueError("a sample needs at least one value")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample values must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size


def as_values(sample) -> np.ndarray:
    """Coerce a Sample or array-like into a validated 1-d float64 array."""
    if isinstance(sample, Sample):
        return sample.values
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a nonempty one-dimensional sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample values must all be finite")
    return arr


# Grammar token -> canonical family name.
_GRAMMAR = {
    "gaussian": "gaussian",
    "laplace": "laplace",
    "poisson": "poisson",
    "pareto": "pareto",
    "student": "student_t",
    "lognormal": "lognormal",
    "bern2+": "scaled_bernoulli_plus",
    "bern2-": "scaled_bernoulli_minus",
    "constant": "constant",
}
_TOKEN = {v: k for k, v in _GRAMMAR.items()}

_PARAM_COUNT = {
    "gaussian": 2,
    "laplace": 1,
    "poisson": 1,
    "pareto": 2,
    "student_t": 1,
    "lognormal": 2,
    "scaled_bernoulli_plus": 2,
    "scaled_bernoulli_minus": 2,
    "constant": 1,
}


def _moments_gaussian(mu, sigma):
    if sigma <= 0.0:
        raise ValueError("gaussian needs SIGMA > 0")
    return mu, sigma * sigma, 3.0


def _moments_laplace(lam):
    # Unit scale, location lam: variance 2, fourth central moment 24.
    return lam, 2.0, 6.0


def _moments_poisson(lam):
    if lam <= 0.0:
        raise ValueError("poisson needs LAMBDA > 0")
    return lam, lam, 3.0 + 1.0 / lam


def _moments_pareto(alpha, scale):
    if alpha <= 2.0:
        raise ValueError("pareto needs tail index ALPHA > 2")
    if scale <= 0.0:
        raise ValueError("pareto needs SCALE > 0")
    var = scale * scale * alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0))
    if alpha > 4.0:
        # Central fourth moment from the raw moments of the unshifted law.
        m1 = alpha * scale / (alpha - 1.0)
        m2 = alpha * scale**2 / (alpha - 2.0)
        m3 = alpha * scale**3 / (alpha - 3.0)
        m4 = alpha * scale**4 / (alpha - 4.0)
        mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
        kappa = mu4 / (var * var)
    else:
        kappa = math.inf
    # Shifted to mean zero.
    return 0.0, var, kappa


def _moments_student(nu):
    if nu <= 4.0:
        raise ValueError("student needs NU > 4 so the kurtosis is finite")
    return 0.0, nu / (nu - 2.0), 3.0 * (nu - 2.0) / (nu - 4.0)


def _moments_lognormal(mu, sigma):
    if sigma <= 0.0:
        raise ValueError("lognormal needs SIGMA > 0")
    s2 = sigma * sigma
    mean = math.exp(mu + 0.5 * s2)
    var = math.expm1(s2) * math.exp(2.0 * mu + s2)
    kappa = math.exp(4.0 * s2) + 2.0 * math.exp(3.0 * s2) + 3.0 * math.exp(2.0 * s2) - 3.0
    return mean, var, kappa


def _bern2_core(c, p):
    if c <= 0.0:
        raise ValueError("bern2 needs C > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("bern2 needs P in [0, 1]")
    var = c * c * p * (1.0 - p)
    if var == 0.0:
        return 0.0, 1.0
    kappa = ((1.0 - p) ** 3 + p**3) / (p * (1.0 - p))
    return var, kappa


def _moments_bern2_plus(c, p):
    var, kappa = _bern2_core(c, p)
    return p * c, var, kappa


def _moments_bern2_minus(c, p):
    var, kappa = _bern2_core(c, p)
    return -p * c, var, kappa


def _moments_constant(c):
    return c, 0.0, 1.0


_MOMENTS = {
    "gaussian": _moments_gaussian,
    "laplace": _moments_laplace,
    "poisson": _moments_poisson,
    "pareto": _moments_pareto,
    "student_t": _moments_student,
    "lognormal": _moments_lognormal,
    "scaled_bernoulli_plus": _moments_bern2_plus,
    "scaled_bernoulli_minus": _moments_bern2_minus,
    "constant": _moments_constant,
}


def parse_distribution(spec_string: str) -> DistributionSpec:
    """Parse ``family:p1,p2,...`` into a spec with exact moments filled in.

    Grammar (exact): ``gaussian:MU,SIGMA | laplace:LAMBDA | poisson:LAMBDA |
    pareto:ALPHA,SCALE | student:NU | lognormal:MU,SIGMA | bern2+:C,P |
    bern2-:C,P | constant:C``, parameters as decimal literals.

    Raises ValueError for an unknown family, a wrong parameter count, or
    parameters outside the family's domain, and its subclass
    MomentOverflowError when the exact mean or variance is not finite.
    """
    head, sep, tail = spec_string.partition(":")
    name = head.strip()
    if not sep or name not in _GRAMMAR:
        raise ValueError(f"unknown distribution family in {spec_string!r}")
    family = _GRAMMAR[name]
    try:
        params = tuple(float(tok) for tok in tail.split(","))
    except ValueError:
        raise ValueError(f"malformed parameters in {spec_string!r}") from None
    if len(params) != _PARAM_COUNT[family]:
        raise ValueError(
            f"{name} takes {_PARAM_COUNT[family]} parameter(s), got {len(params)}"
        )
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"parameters must be finite in {spec_string!r}")
    try:
        mu, sigma2, kappa = _MOMENTS[family](*params)
        return DistributionSpec(family, params, mu, sigma2, kappa)
    except (OverflowError, MomentOverflowError):
        raise MomentOverflowError(
            f"moments of {spec_string!r} overflow float64"
        ) from None


def format_distribution(dist: DistributionSpec) -> str:
    """Render a spec back to its canonical ``family:p1,p2`` string."""
    return _TOKEN[dist.family] + ":" + ",".join(repr(float(p)) for p in dist.params)


def _draw(dist: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    family = dist.family
    p = dist.params
    if family == "gaussian":
        return p[0] + p[1] * rng.standard_normal(n)
    if family == "laplace":
        return rng.laplace(loc=p[0], scale=1.0, size=n)
    if family == "poisson":
        return rng.poisson(p[0], n).astype(np.float64)
    if family == "pareto":
        alpha, scale = p
        # Inverse CDF on (0, 1]; 1 - random() never hits 0.
        u = 1.0 - rng.random(n)
        return scale * u ** (-1.0 / alpha) - alpha * scale / (alpha - 1.0)
    if family == "student_t":
        return rng.standard_t(p[0], n)
    if family == "lognormal":
        return rng.lognormal(p[0], p[1], n)
    if family == "scaled_bernoulli_plus":
        return np.where(rng.random(n) < p[1], p[0], 0.0)
    if family == "scaled_bernoulli_minus":
        return np.where(rng.random(n) < p[1], -p[0], 0.0)
    if family == "constant":
        return np.full(n, p[0], dtype=np.float64)
    raise ValueError(f"unknown family {family!r}")


def sample(dist: DistributionSpec, n: int, seed: int) -> Sample:
    """Draw n i.i.d. values from the distribution.

    Deterministic: the stream is numpy's PCG64 seeded with ``seed``, so the
    same (dist, n, seed) always yields the same Sample, independent of
    execution order or thread count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Sample(_draw(dist, n, np.random.default_rng(seed)))


def regularity_probe(
    dist: DistributionSpec, j: int, trials: int, seed: int
) -> tuple[float, float]:
    """Estimate how often a j-fold sum lands at or below / at or above j*mu.

    Returns (p_minus_hat, p_plus_hat): the fraction of `trials` independent
    j-sums with sum <= j*mu and sum >= j*mu respectively.  A sum exactly
    equal to j*mu counts toward both, so the two outputs can total more
    than 1.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    target = j * dist.mu
    below = 0
    above = 0
    # Bounded buffers; the batch size is fixed by (j, trials), never by
    # threads, so the probe is reproducible.
    batch = max(1, min(trials, 8_000_000 // j))
    done = 0
    while done < trials:
        t = min(batch, trials - done)
        sums = _draw(dist, t * j, rng).reshape(t, j).sum(axis=1)
        below += int(np.count_nonzero(sums <= target))
        above += int(np.count_nonzero(sums >= target))
        done += t
    return below / trials, above / trials
