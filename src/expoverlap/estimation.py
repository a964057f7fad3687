"""Point estimation of the overlap coefficients from two-sample data.

The ratio of the two sample means estimates R = theta1/theta2; its
bias-corrected version R* = R_hat * (n2-1)/n2 is exactly unbiased with

    Var(R*) = R^2 * (n1 + n2 - 1) / (n1 * (n2 - 2)),    n2 > 2.

The coefficient estimators plug the ratio estimate into the closed forms:
delta, rho and lambda use R*, while the KL overlap uses the uncorrected
R_hat by default (``lambda_uses_corrected_ratio`` switches it to R*).

``taylor_variances`` and ``taylor_biases`` evaluate the first and second
order expansion formulas for the sampling variance and bias of the four
estimators exactly as published; ``taylor_bias_oracle`` computes the
textbook second-order term 0.5 * g''(R) * Var(R*) by central finite
differences instead.  The two bias versions disagree by roughly constant
factors; the Monte Carlo module reports which one tracks simulation.
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
    """Ratio estimates and the variance of the corrected ratio.

    var_r_hat_star is the plug-in evaluation of the exact variance formula
    at R = r_hat_star; it is None when n2 <= 2 (the formula needs n2 > 2).
    """

    theta1_hat: float
    theta2_hat: float
    n1: int
    n2: int
    r_hat: float
    r_hat_star: float
    var_r_hat_star: float | None


def mle_thetas(sample: TwoSample) -> tuple[float, float]:
    """Maximum likelihood estimates of the two means: the sample averages."""
    return float(np.mean(sample.x1)), float(np.mean(sample.x2))


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


def ratio_estimates(sample: TwoSample) -> RatioEstimates:
    th1, th2 = mle_thetas(sample)
    n1, n2 = sample.n1, sample.n2
    r_hat = th1 / th2
    r_star = corrected_ratio(r_hat, n2)
    var = r_star ** 2 * variance_factor(n1, n2) if n2 > 2 else None
    return RatioEstimates(theta1_hat=th1, theta2_hat=th2, n1=n1, n2=n2,
                          r_hat=r_hat, r_hat_star=r_star, var_r_hat_star=var)


def ovl_point_estimates(r_hat, r_star,
                        lambda_uses_corrected_ratio: bool = False) -> dict:
    """Plug-in overlap estimates from R_hat and R* = ``corrected_ratio(R_hat, n2)``,
    keyed in COEFFICIENTS order.

    delta, rho and lambda evaluate at r_star; the KL overlap evaluates at the
    uncorrected r_hat unless ``lambda_uses_corrected_ratio`` is set.  Both
    ratios may be floats or equal-shape ndarrays (one entry per replication);
    the values then have the same type.
    """
    r_for_kl = r_star if lambda_uses_corrected_ratio else r_hat
    return {key: MEASURES[key](r_for_kl if key == "kl_lambda" else r_star)
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
    and reported as NaN.  These formulas differ from the finite-difference
    Taylor term (``taylor_bias_oracle``) by roughly constant factors; both
    are kept so simulation can adjudicate.
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
    """Second-order Taylor bias 0.5 * g''(R) * Var(R*) by central differences.

    g'' uses the stencil (g(R+h) - 2 g(R) + g(R-h)) / h^2 with
    h = 1e-5 * max(R, 1) (capped at R/2 so the stencil stays positive).
    The Weitzman coefficient has a corner at R = 1 where no second
    derivative exists; NaN is returned when the stencil straddles it.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be strictly positive, got {r!r}")
    c = variance_factor(n1, n2)
    var_r_star = r ** 2 * c
    h = min(1e-5 * max(r, 1.0), 0.5 * r)
    out: dict[str, float] = {}
    for key in COEFFICIENTS:
        if key == "delta" and abs(r - 1.0) <= 4.0 * h:
            out[key] = math.nan
            continue
        g = MEASURES[key]
        second = (g(r + h) - 2.0 * g(r) + g(r - h)) / (h * h)
        out[key] = 0.5 * second * var_r_star
    return out


@dataclass(frozen=True)
class EstimateReport:
    """Everything estimated from one pair of samples.

    Variances and biases are plug-in values: the expansion formulas evaluated
    at r_hat_star (the published recipe substitutes the consistent estimator
    for R, and the same rule is applied to all four coefficients).
    """

    ratio: RatioEstimates
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
            "var_r_hat_star": self.ratio.var_r_hat_star,
            "points": dict(self.points),
            "variances": dict(self.variances),
            "biases": dict(self.biases),
            "lambda_uses_corrected_ratio": False,
        }


def estimate_report(sample: TwoSample) -> EstimateReport:
    """Point estimates with plug-in variance and bias approximations; the KL
    overlap is evaluated at the uncorrected r_hat.

    Raises InsufficientSampleSize when n2 <= 2 (the variance formula divides
    by n2 - 2).
    """
    if sample.n2 <= 2:
        raise InsufficientSampleSize(
            f"need n2 > 2 for variance and bias approximations, got n2={sample.n2}")
    est = ratio_estimates(sample)
    r_star = est.r_hat_star
    return EstimateReport(
        ratio=est,
        points=ovl_point_estimates(est.r_hat, r_star),
        variances=taylor_variances(r_star, sample.n1, sample.n2),
        biases=taylor_biases(r_star, sample.n1, sample.n2),
    )
