"""Point estimation of the overlap coefficients from two-sample data.

The ratio of the two sample means estimates R = theta1/theta2; its
bias-corrected version R* = R_hat * (n2-1)/n2 is exactly unbiased with

    Var(R*) = R^2 * (n1 + n2 - 1) / (n1 * (n2 - 2)),    n2 > 2.

The coefficient estimators plug the ratio estimate into the closed forms:
delta, rho and lambda use R*, while the KL overlap uses the uncorrected
R_hat.

``taylor_moments`` gives the published first-order variances and
second-order biases of the four estimators.  With u = log R, g_u and g_uu the
u-derivatives of a closed form g and c = (n1+n2-1)/(n1(n2-2)), every
variance is c * g_u^2 and every bias c * (g_uu - g_u), negated for the KL
overlap.  Both come from one kernel per coefficient at the folded ratio
s = min(R, 1/R) <= 1 of ``measures``, where no term overflows.  Each
published bias is exactly 2x the textbook term 0.5 * g''(R) * Var(R*) (-2x
for the KL overlap); the Monte Carlo module reports which version tracks
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._inputs import _integer, _positive, _real
from .measures import COEFFICIENTS, MEASURES, _fold, _log_over_gap


class EmptySample(ValueError):
    """A sample with no observations."""


class NonPositiveObservation(ValueError):
    """An observation outside the support (0, inf) of the exponential."""


class InsufficientSampleSize(ValueError):
    """Too few observations for the requested quantity (n2 > 2 is needed)."""


class RatioOutOfRange(ValueError):
    """The ratio of two finite sample means is 0 or infinite in float64."""


@dataclass(frozen=True)
class TwoSample:
    """Two independent vectors of strictly positive observations."""

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x1", "x2"):
            error = NonPositiveObservation if np.size(getattr(self, name)) else EmptySample
            object.__setattr__(self, name, _positive(name, getattr(self, name), error, ndim=1))

    @property
    def n1(self) -> int:
        return int(self.x1.size)

    @property
    def n2(self) -> int:
        return int(self.x2.size)


@dataclass(frozen=True)
class RatioEstimates:
    """Sample sizes, means and the two ratio estimates."""

    n1: int
    n2: int
    theta1_hat: float
    theta2_hat: float
    r_hat: float
    r_hat_star: float


def variance_factor(n1: int, n2: int) -> float:
    """(n1 + n2 - 1) / (n1 * (n2 - 2)), the common factor of all the
    approximation formulas.  Requires integers n1 >= 1 and n2 > 2."""
    n1 = _integer("n1", n1, 1, InsufficientSampleSize)
    n2 = _integer("n2", n2, 3, InsufficientSampleSize, rule="exceed 2")
    return (n1 + n2 - 1.0) / (n1 * (n2 - 2.0))


def corrected_ratio(r_hat, n2: int):
    """R* = R_hat * (n2 - 1) / n2, the unbiased ratio estimate, formed as
    R_hat - R_hat / n2 so that it cannot overflow; float or ndarray R_hat.
    Raises InsufficientSampleSize for n2 < 2, where E[1/mean(x2)] is infinite."""
    _positive("r_hat", r_hat)
    return r_hat - r_hat / _integer("n2", n2, 2, InsufficientSampleSize)


def _sample_mean(x: np.ndarray) -> float:
    """``np.mean``, or max * mean(x / max) where the sum overflows."""
    with np.errstate(over="ignore"):
        mean = np.mean(x)
    if not np.isfinite(mean):
        top = x.max()
        mean = top * np.mean(x / top)
    return float(mean)


def ratio_estimates(sample: TwoSample) -> RatioEstimates:
    """The sample averages (maximum likelihood estimates of the two means)
    and the two ratio estimates.

    Raises RatioOutOfRange when the two means are too far apart for their
    ratio to be a positive finite float.  r_hat_star is NaN at n2 = 1.
    """
    th1, th2 = _sample_mean(sample.x1), _sample_mean(sample.x2)
    r_hat = th1 / th2
    if not 0.0 < r_hat < math.inf:
        raise RatioOutOfRange(
            f"the ratio of the sample means {th1:.6g} / {th2:.6g} is outside the float range")
    return RatioEstimates(n1=sample.n1, n2=sample.n2, theta1_hat=th1, theta2_hat=th2,
                          r_hat=r_hat, r_hat_star=corrected_ratio(r_hat, sample.n2)
                          if sample.n2 > 1 else math.nan)


def ovl_point_estimates(r_hat, r_star) -> dict:
    """Plug-in overlap estimates from R_hat and R* = ``corrected_ratio(R_hat, n2)``,
    keyed in COEFFICIENTS order.

    delta, rho and lambda evaluate at r_star; the KL overlap evaluates at the
    uncorrected r_hat.  Both ratios may be floats or equal-shape ndarrays (one
    entry per replication); the values then have the same type.
    """
    return {key: MEASURES[key](r_hat if key == "kl_lambda" else r_star)
            for key in COEFFICIENTS}


#: delta's h = (w + s log s)/w^2 and m = (w + log s)/w^2 lose about eps/w to
#: cancellation, so below w = 1e-2 they are summed from their series in w.
_H_SERIES = [1.0 / ((j + 1) * (j + 2)) for j in range(9, -1, -1)]
_M_SERIES = [-1.0 / (j + 2) for j in range(9, -1, -1)]


def _delta_slopes(s, w, log_s):
    q, direct = _log_over_gap(w, log_s), w >= 1e-2
    w2 = np.where(direct, w * w, 1.0)
    h = np.where(direct, (w + s * log_s) / w2, np.polyval(_H_SERIES, w))
    m = np.where(direct, (w + log_s) / w2, np.polyval(_M_SERIES, w))
    e = np.exp(s * q)
    return -s * q * e, -s * e * (h + s * q * m)


#: Coefficient key -> (a, b) = (s g'(s), s^2 g''(s)) of its closed form g at
#: the folded ratio (s, w = 1 - s, log s), as the published rational forms;
#: s^2 - s + 1 is written 1 - s w.
_SLOPES = {
    "delta": _delta_slopes,
    "rho": lambda s, w, _: (np.sqrt(s) * w / (1.0 + s) ** 2,
                            np.sqrt(s) * (3.0 * s * (s - 2.0) - 1.0) / (2.0 * (1.0 + s) ** 3)),
    "lambda": lambda s, w, _: (4.0 * s * w / (1.0 + s) ** 3,
                               8.0 * s * s * (s - 2.0) / (1.0 + s) ** 4),
    "kl_lambda": lambda s, w, _: (s * w * (1.0 + s) / (1.0 - s * w) ** 2,
                                  s * s * (2.0 * s ** 3 - 6.0 * s + 2.0) / (1.0 - s * w) ** 3),
}


def taylor_moments(r: float, n1: int, n2: int) -> tuple[dict, dict]:
    """(variances, biases) of the four estimators at the ratio r, as published.

    With (a, b) from ``_SLOPES`` at s = min(r, 1/r), g_u = a and g_uu = a + b
    at u = log s; g_u is odd in u and g_uu even.  So Var = c * g_u^2 = c * a^2,
    and bias = c * (g_uu - g_u) is c * b for r <= 1 and c * (b + 2a) for
    r > 1, negated for the KL overlap.  At r = 1 delta's variance takes its
    limit c * e^-2, and its bias, with one-sided limits -+c/e, is NaN.
    """
    r, c = _real("r", r), variance_factor(n1, n2)
    folded = _fold(r)
    variances, biases = {}, {}
    for key in COEFFICIENTS:
        a, b = _SLOPES[key](*folded)
        bias = float(c * (b + 2.0 * a if r > 1.0 else b))
        variances[key] = float(c * a * a)
        biases[key] = -bias if key == "kl_lambda" else bias
    if r == 1.0:
        biases["delta"] = math.nan
    return variances, biases


@dataclass(frozen=True)
class EstimateReport(RatioEstimates):
    """Everything estimated from one pair of samples.

    Variances and biases are plug-in values: the expansion formulas evaluated
    at r_hat_star (the published recipe substitutes the consistent estimator
    for R, and the same rule is applied to all four coefficients).
    var_r_hat_star is the exact variance formula of R* evaluated there.
    """

    var_r_hat_star: float
    points: dict[str, float]
    variances: dict[str, float] = field(repr=False)
    biases: dict[str, float] = field(repr=False)


def estimate_report(sample: TwoSample) -> EstimateReport:
    """Point estimates with plug-in variance and bias approximations; the KL
    overlap is evaluated at the uncorrected r_hat.

    Raises InsufficientSampleSize when n2 <= 2 (the variance formula divides
    by n2 - 2).
    """
    est = ratio_estimates(sample)
    r_star = est.r_hat_star
    var_r_star = r_star * r_star * variance_factor(est.n1, est.n2)
    points = ovl_point_estimates(est.r_hat, r_star)
    variances, biases = taylor_moments(r_star, est.n1, est.n2)
    return EstimateReport(**vars(est), var_r_hat_star=var_r_star, points=points,
                          variances=variances, biases=biases)
