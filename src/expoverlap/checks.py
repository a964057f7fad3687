"""Self-check suites behind the ``check`` CLI command.

Five suites: closed-form anchor values, closed-form vs quadrature-oracle
agreement, the structural properties of the coefficients (range, unity at
r = 1, vanishing limits, reciprocity, piecewise monotonicity), F quantile
accuracy, and the sampling distribution laws of the mean and ratio
estimators.  Each suite returns a SuiteResult; the CLI turns failures into
exit code 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .distributions import (
    SeededStream,
    erlang_cdf,
    f_cdf,
    f_quantile,
    ks_critical_value,
    ks_statistic,
    reciprocal_f_identity_check,
    sample_exponential,
)
from .measures import COEFFICIENTS, ExponentialParams, MEASURES

#: 3-decimal anchor values of the quartet at the reference ratios.
ANCHOR_QUARTETS = {
    0.2: {"delta": 0.465, "rho": 0.745, "lambda": 0.556, "kl_lambda": 0.238},
    0.5: {"delta": 0.750, "rho": 0.943, "lambda": 0.889, "kl_lambda": 0.667},
    0.8: {"delta": 0.918, "rho": 0.994, "lambda": 0.988, "kl_lambda": 0.952},
}


@dataclass
class SuiteResult:
    name: str
    passed: bool
    n_checks: int
    failures: list[str] = field(default_factory=list)


def _result(name: str, n_checks: int, failures: list[str]) -> SuiteResult:
    return SuiteResult(name=name, passed=not failures, n_checks=n_checks,
                       failures=failures)


def suite_closed_form_anchors() -> SuiteResult:
    failures = []
    n = 0
    for r, expected in ANCHOR_QUARTETS.items():
        got = measures.overlap_quartet(r)
        for key, ref in expected.items():
            n += 1
            if round(got[key], 3) != ref:
                failures.append(f"quartet({r}).{key} = {got[key]:.6f}, expected {ref} (3 dp)")
    return _result("closed_form_anchors", n, failures)


def suite_oracle_equivalence(n_points: int = 50, tol: float = 1e-6) -> SuiteResult:
    """Closed forms vs quadrature oracle on a log-spaced ratio grid."""
    failures = []
    grid = np.geomspace(0.05, 20.0, n_points)
    n = 0
    for r in grid:
        params = ExponentialParams(theta1=float(r), theta2=1.0)
        for key in COEFFICIENTS:
            n += 1
            closed = MEASURES[key](float(r))
            oracle = measures.overlap_by_quadrature(params, key)
            if abs(closed - oracle) > tol:
                failures.append(
                    f"{key}(r={r:.4g}): closed {closed:.10f} vs oracle {oracle:.10f}")
    return _result("oracle_equivalence", n, failures)


def suite_structural_properties(n_grid: int = 1000) -> SuiteResult:
    """Range, unity at 1, vanishing limits, reciprocity, monotonicity."""
    failures = []
    n = 0
    grid = np.geomspace(1e-3, 1e3, n_grid)
    for key in COEFFICIENTS:
        fn = MEASURES[key]
        vals = fn(grid)
        n += 1
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            failures.append(f"{key}: values escape [0, 1] on the grid")
        n += 1
        if fn(1.0) != 1.0:
            failures.append(f"{key}(1) = {fn(1.0)!r}, expected exactly 1.0")
        n += 1
        if fn(1e-12) > 1e-5 or fn(1e12) > 1e-5:
            failures.append(f"{key}: vanishing-limit proxy above 1e-5")
        n += 1
        recip = fn(1.0 / grid)
        if np.max(np.abs(vals - recip)) > 1e-12:
            failures.append(f"{key}: reciprocity gap {np.max(np.abs(vals - recip)):.3e}")
        n += 1
        below = fn(np.geomspace(1e-3, 1.0 - 1e-9, n_grid))
        above = fn(np.geomspace(1.0 + 1e-9, 1e3, n_grid))
        if not (np.all(np.diff(below) > 0) and np.all(np.diff(above) < 0)):
            failures.append(f"{key}: piecewise monotonicity violated")
    return _result("structural_properties", n, failures)


def suite_quantile_accuracy(seed: int) -> SuiteResult:
    failures = []
    n = 0

    # round-trip on 100 random (df, prob) cases
    stream = SeededStream(seed, stream_id=2 ** 32 + 1)
    u = stream.uniforms(300)
    for i in range(100):
        d1 = 1 + int(u[3 * i] * 399)
        d2 = 1 + int(u[3 * i + 1] * 399)
        prob = 0.001 + 0.998 * u[3 * i + 2]
        n += 1
        x = f_quantile(d1, d2, prob)
        gap = abs(f_cdf(d1, d2, x) - prob)
        if gap > 1e-10:
            failures.append(f"round-trip df=({d1},{d2}) prob={prob:.4f}: gap {gap:.2e}")

    # independent anchor from printed F tables
    n += 1
    q = f_quantile(20, 20, 0.975)
    if abs(q - 2.4645) > 5e-4:
        failures.append(f"F quantile(20,20; 0.975) = {q:.6f}, expected 2.4645 +- 5e-4")

    for d1, d2, prob in ((40, 40, 0.025), (40, 100, 0.05), (4, 6, 0.5)):
        n += 1
        if not reciprocal_f_identity_check(d1, d2, prob):
            failures.append(f"reciprocal identity failed for ({d1},{d2},{prob})")

    n += 1
    med = f_quantile(24, 24, 0.5)
    if abs(med - 1.0) > 1e-9:
        failures.append(f"median of equal-df F = {med!r}, expected 1.0")
    return _result("quantile_accuracy", n, failures)


def suite_distribution_laws(seed: int, replications: int = 100_000,
                            n_obs: int = 20, alpha: float = 0.01) -> SuiteResult:
    """Sampling laws: mean ~ Gamma(n, theta/n) and ratio/R ~ F(2n, 2n)."""
    failures = []
    n = 0
    theta = 1.0
    crit = ks_critical_value(replications, alpha)

    draws = sample_exponential(SeededStream(seed, stream_id=11), theta,
                               replications * n_obs).reshape(replications, n_obs)
    theta_hat = draws.mean(axis=1)

    n += 1
    mean_gap = abs(theta_hat.mean() - theta)
    if mean_gap > 3.0 / math.sqrt(n_obs * replications):
        failures.append(f"mean of theta_hat off by {mean_gap:.5f}")
    n += 1
    var_target = theta ** 2 / n_obs
    if abs(theta_hat.var() - var_target) > 0.05 * var_target:
        failures.append(f"variance of theta_hat {theta_hat.var():.5f} vs {var_target:.5f}")

    n += 1
    d_gamma = ks_statistic(theta_hat, lambda x: erlang_cdf(n_obs, theta / n_obs, x))
    if d_gamma > crit:
        failures.append(f"gamma law KS {d_gamma:.5f} > critical {crit:.5f}")

    second = sample_exponential(SeededStream(seed, stream_id=12), theta,
                                replications * n_obs).reshape(replications, n_obs)
    ratio = theta_hat / second.mean(axis=1)
    n += 1
    d_f = ks_statistic(ratio, lambda x: f_cdf(2 * n_obs, 2 * n_obs, x))
    if d_f > crit:
        failures.append(f"F law KS {d_f:.5f} > critical {crit:.5f}")
    return _result("distribution_laws", n, failures)


def run_all(seed: int) -> list[SuiteResult]:
    return [
        suite_closed_form_anchors(),
        suite_oracle_equivalence(),
        suite_structural_properties(),
        suite_quantile_accuracy(seed),
        suite_distribution_laws(seed),
    ]
