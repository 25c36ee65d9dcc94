"""Distribution families with closed-form moments and seeded samplers.

Every spec carries the exact mean, variance, and kurtosis of its family so
simulation output can be scored against the truth.  Kurtosis is the fourth
central moment over sigma^4 (not excess); by convention it is 1 for
degenerate distributions and may be infinite for sufficiently heavy tails.

A seed handed straight to ``default_rng`` (`sample`, `regularity_probe`,
`adversarial.coupled_scaled_bernoulli`) must be an integer >= 0, while a
master seed (`harness.run_tail_experiment`, `adversarial.infvar_stress`) may
be any integer, reduced mod 2^64 by `seeding.mix_seed`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import seeding

__all__ = [
    "DistributionSpec", "MomentOverflowError", "Sample", "parse_distribution",
    "format_distribution", "sample", "regularity_probe", "as_values",
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
        arr = as_values(np.array(self.values, dtype=np.float64, copy=True))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size


def _as_int(name: str, value) -> int:
    """value as an int: an int, numpy integer or integral float; else ValueError naming it."""
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _count(name: str, value, least: int = 1) -> int:
    """value as an int >= least, by _as_int: the rule on a count, or with
    least=0 on a stream seed; else ValueError naming it."""
    value = _as_int(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def as_values(sample) -> np.ndarray:
    """Coerce a Sample or array-like into a validated 1-d float64 array."""
    if isinstance(sample, Sample):
        return sample.values
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a nonempty one-dimensional sample")
    # count_nonzero, unlike .all(), is one C call; a sum would warn on overflow.
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("sample values must all be finite")
    return arr


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
        # Kurtosis is scale-free, so take it at unit scale, where no power
        # of the scale can overflow.  Central fourth moment from the raw
        # moments of the unshifted law.
        m1 = alpha / (alpha - 1.0)
        m2 = alpha / (alpha - 2.0)
        m3 = alpha / (alpha - 3.0)
        m4 = alpha / (alpha - 4.0)
        mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
        unit_var = alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0))
        kappa = mu4 / (unit_var * unit_var)
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


def _moments_bern2(sign, c, p):
    # bern2+ (sign 1) and bern2- (sign -1): sign*C with probability P, else 0.
    if c <= 0.0:
        raise ValueError("bern2 needs C > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("bern2 needs P in [0, 1]")
    # P in {0, 1} is degenerate before c * c is formed (at C = 1e300 it
    # overflows, and inf * 0 is NaN), so P = -0.0 reports the variance 0.0.
    var = 0.0 if p in (0.0, 1.0) else c * c * p * (1.0 - p)
    if var == 0.0:  # also when the product underflows
        return sign * p * c, 0.0, 1.0
    kappa = ((1.0 - p) ** 3 + p**3) / (p * (1.0 - p))
    return sign * p * c, var, kappa


def _moments_constant(c):
    return c, 0.0, 1.0


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
    if not sep or name not in _FAMILIES:
        raise ValueError(f"unknown distribution family in {spec_string!r}")
    row = _FAMILIES[name]
    try:
        params = tuple(float(tok) for tok in tail.split(","))
    except ValueError:
        raise ValueError(f"malformed parameters in {spec_string!r}") from None
    if len(params) != row.param_count:
        raise ValueError(f"{name} takes {row.param_count} parameter(s), got {len(params)}")
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"parameters must be finite in {spec_string!r}")
    try:
        mu, sigma2, kappa = row.moments(*params)
        return DistributionSpec(row.family, params, mu, sigma2, kappa)
    except (OverflowError, MomentOverflowError):
        raise MomentOverflowError(
            f"moments of {spec_string!r} overflow float64"
        ) from None


def format_distribution(dist: DistributionSpec) -> str:
    """Render a spec back to its canonical ``family:p1,p2`` string."""
    return _token(dist) + ":" + ",".join(repr(float(p)) for p in dist.params)


# Each family draws in two stages: a raw fill of one row from that row's
# Generator, then an elementwise transform applied in place to every filled
# row at once.  The transform uses the same ufuncs in the same operand order
# as a one-row draw, so a row's values never depend on how many rows share
# the block.


def _fill_uniform(row, rng, p):
    rng.random(out=row)


def _fill_normal(row, rng, p):
    rng.standard_normal(out=row)


def _fill_laplace(row, rng, p):
    row[...] = rng.laplace(loc=p[0], scale=1.0, size=row.size)


def _fill_poisson(row, rng, p):
    row[...] = rng.poisson(p[0], row.size)


def _fill_student(row, rng, p):
    row[...] = rng.standard_t(p[0], row.size)


def _fill_lognormal(row, rng, p):
    row[...] = rng.lognormal(p[0], p[1], row.size)


def _fill_nothing(row, rng, p):
    pass


def _affine(block, p):
    np.multiply(p[1], block, out=block)
    np.add(p[0], block, out=block)


def _pareto_inverse_cdf(block, p):
    alpha, scale = p
    # Inverse CDF on (0, 1]; 1 - random() never hits 0.
    np.subtract(1.0, block, out=block)
    np.power(block, -1.0 / alpha, out=block)
    np.multiply(scale, block, out=block)
    np.subtract(block, alpha * scale / (alpha - 1.0), out=block)


def _select(sign, block, p):
    hit = block < p[1]
    block.fill(0.0)
    np.copyto(block, sign * p[0], where=hit)


def _constant(block, p):
    block.fill(p[0])


class _Family(NamedTuple):
    family: str  # canonical name, DistributionSpec.family
    param_count: int
    moments: Callable  # params -> (mu, sigma2, kappa)
    fill: Callable  # (row, rng, params): raw fill of one row
    transform: Callable | None  # (block, params): in place, on every row at once


# Grammar token -> the family's name, parameter count, moments and draw.
_FAMILIES = {
    "gaussian": _Family("gaussian", 2, _moments_gaussian, _fill_normal, _affine),
    "laplace": _Family("laplace", 1, _moments_laplace, _fill_laplace, None),
    "poisson": _Family("poisson", 1, _moments_poisson, _fill_poisson, None),
    "pareto": _Family("pareto", 2, _moments_pareto, _fill_uniform, _pareto_inverse_cdf),
    "student": _Family("student_t", 1, _moments_student, _fill_student, None),
    "lognormal": _Family("lognormal", 2, _moments_lognormal, _fill_lognormal, None),
    "bern2+": _Family("scaled_bernoulli_plus", 2, functools.partial(_moments_bern2, 1.0),
                      _fill_uniform, functools.partial(_select, 1.0)),
    "bern2-": _Family("scaled_bernoulli_minus", 2, functools.partial(_moments_bern2, -1.0),
                      _fill_uniform, functools.partial(_select, -1.0)),
    "constant": _Family("constant", 1, _moments_constant, _fill_nothing, _constant),
}
_TOKEN = {row.family: token for token, row in _FAMILIES.items()}


def _token(dist: DistributionSpec) -> str:
    """The grammar token of dist's family; ValueError for a hand-built spec of no family."""
    if dist.family not in _TOKEN:
        raise ValueError(f"unknown family {dist.family!r}")
    return _TOKEN[dist.family]


def _fill_family(token: str, params: tuple, block: np.ndarray, rngs) -> None:
    """Fill row i of the C-ordered float64 block from the i-th Generator of rngs
    by the family of a grammar token.  params are unchecked: a caller may
    draw a law whose moments overflow a float (bern2+ at C = 1e203)."""
    family = _FAMILIES[token]
    for row, rng in zip(block, rngs):
        family.fill(row, rng, params)
    if family.transform is not None:
        family.transform(block, params)


def _draw_chunk(token: str, params: tuple, n: int, seed: int, t0: int, t1: int) -> np.ndarray:
    """Trials t0..t1-1 of a run as a (t1 - t0, n) block: row t - t0 is the stream of
    ``default_rng(mix_seed(seed, t))``, built by `seeding.trial_rngs`, so it is
    sample(dist, n, mix_seed(seed, t)) for the family of token."""
    block = np.empty((t1 - t0, n))
    _fill_family(token, params, block, seeding.trial_rngs(seed, t0, t1))
    return block


def _draw(dist: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    block = np.empty((1, n))
    _fill_family(_token(dist), dist.params, block, (rng,))
    return block[0]


def sample(dist: DistributionSpec, n: int, seed: int) -> Sample:
    """Draw n i.i.d. values from the distribution.

    Deterministic: the stream is numpy's PCG64 seeded with ``seed``, so the
    same (dist, n, seed) always yields the same Sample, independent of
    execution order or thread count.
    """
    n, seed = _count("n", n), _count("seed", seed, 0)
    return Sample(_draw(dist, n, np.random.default_rng(seed)))


def regularity_probe(
    dist: DistributionSpec, j: int, trials: int, seed: int
) -> tuple[float, float]:
    """Estimate how often a j-fold sum lands at or below / at or above j*mu.

    Returns (p_minus_hat, p_plus_hat): the fraction of `trials` independent
    j-sums with sum <= j*mu and sum >= j*mu respectively.  A sum exactly
    equal to j*mu counts toward both, so the two outputs can total more
    than 1.  Raises ValueError when j*mu or a j-sum overflows float64.
    """
    j, trials, seed = _count("j", j), _count("trials", trials), _count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    target = j * dist.mu
    if not math.isfinite(target):
        raise ValueError(f"j*mu overflows float64 (j={j}, mu={dist.mu!r})")
    below = 0
    above = 0
    # Each chunk continues the same stream and the transforms are
    # elementwise, so the chunk layout changes no output.
    for t0, t1 in seeding.chunk_bounds(trials, j):
        sums = _draw(dist, (t1 - t0) * j, rng).reshape(t1 - t0, j).sum(axis=1)
        if not np.isfinite(sums).all():
            raise ValueError(f"a {j}-fold sum overflows float64 (j*mu = {target!r})")
        below += int(np.count_nonzero(sums <= target))
        above += int(np.count_nonzero(sums >= target))
    return below / trials, above / trials
