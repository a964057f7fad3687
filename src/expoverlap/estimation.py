"""Point estimation of the overlap coefficients from two-sample data.

The ratio of the two sample means estimates R = theta1/theta2; its
bias-corrected version R* = R_hat * (n2-1)/n2 is exactly unbiased with

    Var(R*) = R^2 * (n1 + n2 - 1) / (n1 * (n2 - 2)),    n2 > 2.

The coefficient estimators plug the ratio estimate into the closed forms:
delta, rho and lambda use R*, while the KL overlap uses the uncorrected
R_hat.

``taylor_variances`` and ``taylor_biases`` evaluate the first and second
order expansion formulas for the sampling variance and bias of the four
estimators exactly as published.  Each published bias is exactly 2x the
textbook term 0.5 * g''(R) * Var(R*) (-2x for the KL overlap), which
``taylor_bias_oracle`` computes from that identity; the Monte Carlo module
reports which of the two versions tracks simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import COEFFICIENTS, MEASURES, _log_ratio_over_gap


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
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                arr = arr.reshape(-1)
            if arr.size == 0:
                raise EmptySample(f"{name} has no observations")
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise NonPositiveObservation(
                    f"{name} must contain strictly positive finite values")
            object.__setattr__(self, name, arr)

    @property
    def n1(self) -> int:
        return int(self.x1.size)

    @property
    def n2(self) -> int:
        return int(self.x2.size)


@dataclass(frozen=True)
class RatioEstimates:
    """Sample means, sizes and the two ratio estimates."""

    theta1_hat: float
    theta2_hat: float
    n1: int
    n2: int
    r_hat: float
    r_hat_star: float


def variance_factor(n1: int, n2: int) -> float:
    """(n1 + n2 - 1) / (n1 * (n2 - 2)), the common factor of all the
    approximation formulas.  Requires n2 > 2."""
    if n1 < 1:
        raise InsufficientSampleSize(f"n1 must be >= 1, got {n1}")
    if n2 <= 2:
        raise InsufficientSampleSize(f"n2 must exceed 2, got {n2}")
    return (n1 + n2 - 1.0) / (n1 * (n2 - 2.0))


def corrected_ratio(r_hat, n2: int):
    """R* = R_hat * (n2 - 1) / n2, the unbiased ratio estimate; accepts a
    float or an ndarray of R_hat values."""
    return r_hat * (n2 - 1.0) / n2


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
    ratio to be a positive finite float.
    """
    th1, th2 = _sample_mean(sample.x1), _sample_mean(sample.x2)
    r_hat = th1 / th2
    if not 0.0 < r_hat < math.inf:
        raise RatioOutOfRange(
            f"the ratio of the sample means {th1:.6g} / {th2:.6g} is outside the float range")
    return RatioEstimates(theta1_hat=th1, theta2_hat=th2, n1=sample.n1, n2=sample.n2,
                          r_hat=r_hat, r_hat_star=corrected_ratio(r_hat, sample.n2))


def ovl_point_estimates(r_hat, r_star) -> dict:
    """Plug-in overlap estimates from R_hat and R* = ``corrected_ratio(R_hat, n2)``,
    keyed in COEFFICIENTS order.

    delta, rho and lambda evaluate at r_star; the KL overlap evaluates at the
    uncorrected r_hat.  Both ratios may be floats or equal-shape ndarrays (one
    entry per replication); the values then have the same type.
    """
    return {key: MEASURES[key](r_hat if key == "kl_lambda" else r_star)
            for key in COEFFICIENTS}


def taylor_variances(r: float, n1: int, n2: int) -> dict[str, float]:
    """First-order expansion of the sampling variances, as published.

    With c = (n1+n2-1)/(n1(n2-2)):

        Var(delta)  = c * R^(2/(1-R)) * (log R)^2 / (1-R)^2
        Var(rho)    = c * R (1-R)^2 / (1+R)^4
        Var(lambda) = c * 16 R^2 (1-R)^2 / (1+R)^6
        Var(kl)     = c * R^2 (1-R^2)^2 / (R^2-R+1)^4

    At R = 1 the last three vanish and the delta formula takes its analytic
    limit c * e^-2.  Each equals g'(R)^2 * Var(R*) for the matching closed
    form g.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be strictly positive, got {r!r}")
    c = variance_factor(n1, n2)
    q = float(_log_ratio_over_gap(np.asarray(r, dtype=float)))
    var_delta = c * math.exp(2.0 * q) * q * q
    return {
        "delta": var_delta,
        "rho": c * r * (1.0 - r) ** 2 / (1.0 + r) ** 4,
        "lambda": c * 16.0 * r ** 2 * (1.0 - r) ** 2 / (1.0 + r) ** 6,
        "kl_lambda": c * r ** 2 * (1.0 - r ** 2) ** 2 / (r ** 2 - r + 1.0) ** 4,
    }


def taylor_biases(r: float, n1: int, n2: int) -> dict[str, float]:
    """Second-order expansion of the sampling biases, verbatim as published.

    The delta formula is piecewise in R with mirrored cube denominators; its
    one-sided limits at R = 1 are +-c/e, so the value at R = 1 is undefined
    and reported as NaN.  Each formula is exactly 2x the Taylor term
    0.5 * g''(R) * Var(R*) (``taylor_bias_oracle``), -2x for the KL overlap;
    both are kept so simulation can adjudicate.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be strictly positive, got {r!r}")
    c = variance_factor(n1, n2)

    t = r - 1.0
    if t == 0.0:
        bias_delta = math.nan
    else:
        q = float(_log_ratio_over_gap(np.asarray(r, dtype=float)))
        power = math.exp((2.0 * r - 1.0) * q)
        if abs(t) < 1e-5:
            # numerator ~ t^3 - t^4/4; the cube denominators reduce it to
            # +-(1 - t/4) with sign following the branch
            core = (1.0 - 0.25 * t) * (1.0 if r > 1.0 else -1.0)
        else:
            log_r = math.log(r)
            num = r * (2.0 * r - log_r - 2.0) * log_r - t * t
            denom = t ** 3 if r > 1.0 else (-t) ** 3
            core = num / denom
        bias_delta = c * r ** 2 * power * core

    return {
        "delta": bias_delta,
        "rho": c * math.sqrt(r) * (3.0 * r * (r - 2.0) - 1.0) / (2.0 * (r + 1.0) ** 3),
        "lambda": c * 8.0 * r ** 2 * (r - 2.0) / (r + 1.0) ** 4,
        "kl_lambda": -c * r ** 2 * (2.0 * r ** 3 - 6.0 * r + 2.0) / (r ** 2 - r + 1.0) ** 3,
    }


def taylor_bias_oracle(r: float, n1: int, n2: int) -> dict[str, float]:
    """Second-order Taylor bias 0.5 * g''(R) * Var(R*) for each closed form g.

    Each published bias is exactly twice this term (minus twice for the KL
    overlap), so it is read off ``taylor_biases``; delta's is NaN at R = 1.
    """
    return {key: (-0.5 if key == "kl_lambda" else 0.5) * bias
            for key, bias in taylor_biases(r, n1, n2).items()}


@dataclass(frozen=True)
class EstimateReport:
    """Everything estimated from one pair of samples.

    Variances and biases are plug-in values: the expansion formulas evaluated
    at r_hat_star (the published recipe substitutes the consistent estimator
    for R, and the same rule is applied to all four coefficients).
    var_r_hat_star is the exact variance formula of R* evaluated there.
    """

    ratio: RatioEstimates
    var_r_hat_star: float
    points: dict[str, float]
    variances: dict[str, float] = field(repr=False)
    biases: dict[str, float] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "n1": self.ratio.n1,
            "n2": self.ratio.n2,
            "theta1_hat": self.ratio.theta1_hat,
            "theta2_hat": self.ratio.theta2_hat,
            "r_hat": self.ratio.r_hat,
            "r_hat_star": self.ratio.r_hat_star,
            "var_r_hat_star": self.var_r_hat_star,
            "points": dict(self.points),
            "variances": dict(self.variances),
            "biases": dict(self.biases),
        }


def estimate_report(sample: TwoSample) -> EstimateReport:
    """Point estimates with plug-in variance and bias approximations; the KL
    overlap is evaluated at the uncorrected r_hat.

    Raises InsufficientSampleSize when n2 <= 2 (the variance formula divides
    by n2 - 2).
    """
    est = ratio_estimates(sample)
    r_star = est.r_hat_star
    return EstimateReport(
        ratio=est,
        var_r_hat_star=r_star ** 2 * variance_factor(sample.n1, sample.n2),
        points=ovl_point_estimates(est.r_hat, r_star),
        variances=taylor_variances(r_star, sample.n1, sample.n2),
        biases=taylor_biases(r_star, sample.n1, sample.n2),
    )
