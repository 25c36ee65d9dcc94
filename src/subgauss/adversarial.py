"""Executable lower-bound ingredients used as stress tests.

Three mechanisms: a two-point coupling that forces any estimator to fail on
one of two nearly indistinguishable distributions, a product-density ratio
floor for the unit-scale double-exponential family, and point-mass bounds
for the Poisson family.  The first is a randomized stress test; the latter
two are deterministic self-checks that must always hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import Sample, _as_int, _draw_chunk, _fill_family, as_values
from .seeding import chunk_bounds

# Not called here, but perfbench/spans.py wraps the seeding layer under this
# name in this module.
from .seeding import mix_seed  # noqa: F401

__all__ = [
    "CoupledSample",
    "coupled_scaled_bernoulli",
    "scaled_bernoulli_moment",
    "infvar_stress",
    "laplace_ratio_floor",
    "poisson_point_mass_check",
]


@dataclass(frozen=True)
class CoupledSample:
    """Paired samples with (x_i, y_i) in {(0, 0), (c, -c)} for some c > 0."""

    x: Sample
    y: Sample

    def __post_init__(self):
        xv = self.x.values
        yv = self.y.values
        if xv.size != yv.size:
            raise ValueError("coupled samples must have equal length")
        if not np.array_equal(yv, -xv):
            raise ValueError("coupling requires y = -x elementwise")
        nonzero = xv[xv != 0.0]
        if nonzero.size and (np.min(nonzero) <= 0.0 or np.ptp(nonzero) != 0.0):
            raise ValueError("nonzero x entries must all equal one positive c")


def coupled_scaled_bernoulli(c: float, p: float, n: int, seed: int) -> CoupledSample:
    """Draw n i.i.d. coupled pairs: (c, -c) with probability p, else (0, 0).

    x is the ``bern2+:c,p`` draw of ``default_rng(seed)``, the values of
    ``sample(bern2+:c,p, n, seed)``, and y = 0 - x.  The marginals are the
    two-point laws with means +pc and -pc; the full vectors coincide exactly
    when no pair fires, probability (1-p)^n.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"c={c!r} must be finite and > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    n, seed = _as_int("n", n), _as_int("seed", seed)
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.empty((1, n))
    _fill_family("bern2+", (c, p), xs, (np.random.default_rng(seed),))
    return CoupledSample(Sample(xs[0]), Sample(np.subtract(0.0, xs[0])))


def scaled_bernoulli_moment(c: float, p: float, alpha: float) -> float:
    """Central (1+alpha)-moment of the two-point law P({c}) = p, P({0}) = 1-p.

    Equals c^(1+alpha) * p * (1-p) * (p^alpha + (1-p)^alpha); the same value
    holds for the mirrored law on {-c, 0}.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"c={c!r} must be finite and > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return c ** (1.0 + alpha) * p * (1.0 - p) * (p**alpha + (1.0 - p) ** alpha)


def infvar_stress(
    estimator: Callable[[np.ndarray], float],
    n: int,
    delta: float,
    alpha: float,
    M: float,
    trials: int,
    seed: int,
    p: float | None = None,
) -> tuple[float, float, float]:
    """Coupled two-point stress test against a mean estimator.

    Each trial draws a coupling whose marginals share the central
    (1+alpha)-moment M yet have means +pc and -pc, and coincide with
    probability (1-p)^n.  On a coinciding draw the estimator returns one
    number, so it must err beyond radius
    (M^(1/alpha) * ln(2/delta) / n)^(alpha/(1+alpha)) on at least one
    marginal; hence max(failure rates) >= match_rate / 2 up to Monte Carlo
    noise.  That inequality is the mechanism behind minimax lower bounds for
    infinite-variance classes.

    Trial t is coupled_scaled_bernoulli(c, p, n, mix_seed(seed, t)), with
    c = (M / scaled_bernoulli_moment(1, p, alpha))^(1/(1+alpha)).  The
    trials are drawn in chunks of the ``bern2+`` family by the harness's
    chunk draw, `distributions._draw_chunk`, and the estimator is called on
    x, then y, of trial 0, then of trial 1, and so on; each argument is a
    read-only float64 array of length n.  The family is drawn by its token,
    not a parsed spec, whose variance c*c*p*(1-p) overflows at c*c for tiny p.

    Returns (failure_rate_plus, failure_rate_minus, match_rate).  By default
    p = (2/n) ln(2/delta); pass p to explore other couplings.
    """
    n, trials, seed = _as_int("n", n), _as_int("trials", trials), _as_int("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not (M > 0.0 and math.isfinite(M)):
        raise ValueError(f"M={M!r} must be finite and > 0")
    log_term = math.log(2.0 / delta)
    if p is None:
        p = (2.0 / n) * log_term
    if not 0.0 < p < 1.0:
        raise ValueError(
            f"coupling probability p={p:.6g} outside (0, 1); delta too small for n"
        )
    try:
        c = (M / scaled_bernoulli_moment(1.0, p, alpha)) ** (1.0 / (1.0 + alpha))
        radius = (M ** (1.0 / alpha) * log_term / n) ** (alpha / (1.0 + alpha))
    except OverflowError as exc:
        raise ValueError(
            f"coupling constants overflow a float (M={M:.6g}, alpha={alpha:.6g}, p={p:.6g})"
        ) from exc
    mean_plus = p * c
    if not all(map(math.isfinite, (c, mean_plus, radius))):
        raise ValueError(
            f"coupling constants are not finite: c={c:.6g}, p*c={mean_plus:.6g}, "
            f"radius={radius:.6g} (M={M:.6g}, alpha={alpha:.6g}, p={p:.6g})"
        )

    fail_plus = 0
    fail_minus = 0
    match = 0
    for t0, t1 in chunk_bounds(trials, n):
        xs = _draw_chunk("bern2+", (c, p), n, seed, t0, t1)
        ys = np.subtract(0.0, xs)  # not -xs, which would make the zeros -0.0
        match += int(np.count_nonzero(~xs.any(axis=1)))
        xs.flags.writeable = False
        ys.flags.writeable = False
        for xv, yv in zip(xs, ys):
            if abs(estimator(xv) - mean_plus) > radius:
                fail_plus += 1
            if abs(estimator(yv) + mean_plus) > radius:
                fail_minus += 1
    return fail_plus / trials, fail_minus / trials, match / trials


def laplace_ratio_floor(lam: float, n: int, points) -> bool:
    """Check the product-density ratio bound for unit-scale double
    exponentials centered at 0 versus lam.

    Evaluates both product log-densities at the given n-vector and returns
    whether log(f_0(x)/f_lam(x)) >= -lam*n.  The triangle inequality makes
    this a theorem, so False indicates a density bug; a 1e-9 relative slack
    absorbs float rounding at the tight boundary.
    """
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    values = as_values(points)
    if values.size != n:
        raise ValueError(f"points has length {values.size}, expected n={n}")
    log_ratio = float(np.sum(np.abs(values - lam)) - np.sum(np.abs(values)))
    floor = -lam * n
    return bool(log_ratio >= floor - 1e-9 * max(1.0, abs(floor)))


def poisson_point_mass_check(m: int) -> bool:
    """Check Poisson(m) puts mass at least 1/(4 sqrt(m)) on the point m.

    The log pmf -m + m ln m - ln m! is evaluated in Stirling's form
    -ln(2 pi m)/2 - r(m) with r(m) = 1/(12m) - 1/(360m^3) + 1/(1260m^5)
    - 1/(1680m^7), whose truncation error is below 1/(1188m^9) (under 1e-3
    at m = 1).  The direct form cancels: at m ~ 1e15 its rounding error is
    several nats, against a margin of ln(0.399/0.25) ~ 0.47 nats.  The true
    mass is ~ 1/sqrt(2 pi m), comfortably above the floor for every m >= 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    inv = 1.0 / m
    remainder = inv / 12.0 - inv**3 / 360.0 + inv**5 / 1260.0 - inv**7 / 1680.0
    log_pmf = -0.5 * math.log(2.0 * math.pi * m) - remainder
    return bool(math.exp(log_pmf) >= 0.25 / math.sqrt(m))
