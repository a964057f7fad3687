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
from dataclasses import dataclass

import numpy as np

from . import measures
from .distributions import (
    SeededStream,
    erlang_cdf,
    f_cdf,
    f_quantile,
    ks_critical_value,
    ks_statistic,
    sample_exponential,
)
from .measures import COEFFICIENTS, MEASURES

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
    failures: list[str]


def _suite(name: str, checks: list[tuple[bool, str]]) -> SuiteResult:
    """A suite's verdict from its (passed, message) checks."""
    failures = [message for passed, message in checks if not passed]
    return SuiteResult(name=name, passed=not failures, n_checks=len(checks),
                       failures=failures)


def suite_closed_form_anchors() -> SuiteResult:
    checks = []
    for r, expected in ANCHOR_QUARTETS.items():
        got = measures.overlap_quartet(r)
        checks += [(round(got[key], 3) == ref,
                    f"quartet({r}).{key} = {got[key]:.6f}, expected {ref} (3 dp)")
                   for key, ref in expected.items()]
    return _suite("closed_form_anchors", checks)


def suite_oracle_equivalence() -> SuiteResult:
    """Closed forms vs quadrature oracle at 50 log-spaced ratios, to 1e-12."""
    checks = []
    for r in np.geomspace(0.05, 20.0, 50):
        for key in COEFFICIENTS:
            closed = MEASURES[key](float(r))
            oracle = measures.overlap_by_quadrature(float(r), 1.0, key)
            checks.append((abs(closed - oracle) <= 1e-12,
                           f"{key}(r={r:.4g}): closed {closed:.17g} vs oracle {oracle:.17g}"))
    return _suite("oracle_equivalence", checks)


def suite_structural_properties() -> SuiteResult:
    """Range, unity at 1, vanishing limits, reciprocity, monotonicity."""
    checks = []
    grid = np.geomspace(1e-3, 1e3, 1000)
    for key in COEFFICIENTS:
        fn = MEASURES[key]
        vals = fn(grid)
        at_one = fn(1.0)
        gap = np.max(np.abs(vals - fn(1.0 / grid)))
        below = fn(np.geomspace(1e-3, 1.0 - 1e-9, 1000))
        above = fn(np.geomspace(1.0 + 1e-9, 1e3, 1000))
        checks += [
            (np.all((vals >= 0.0) & (vals <= 1.0)),
             f"{key}: values escape [0, 1] on the grid"),
            (at_one == 1.0, f"{key}(1) = {at_one!r}, expected exactly 1.0"),
            (fn(1e-12) <= 1e-5 and fn(1e12) <= 1e-5,
             f"{key}: vanishing-limit proxy above 1e-5"),
            (gap <= 1e-12, f"{key}: reciprocity gap {gap:.3e}"),
            (np.all(np.diff(below) > 0) and np.all(np.diff(above) < 0),
             f"{key}: piecewise monotonicity violated"),
        ]
    return _suite("structural_properties", checks)


def suite_quantile_accuracy(seed: int) -> SuiteResult:
    checks = []

    # round-trip on 100 random (df, prob) cases
    u = SeededStream(seed, stream_id=2 ** 32 + 1).uniforms(300).reshape(100, 3)
    for u1, u2, u3 in u:
        d1, d2, prob = 1 + int(u1 * 399), 1 + int(u2 * 399), 0.001 + 0.998 * u3
        gap = abs(f_cdf(d1, d2, f_quantile(d1, d2, prob)) - prob)
        checks.append((gap <= 1e-10,
                       f"round-trip df=({d1},{d2}) prob={prob:.4f}: gap {gap:.2e}"))

    # independent anchor from printed F tables
    q = f_quantile(20, 20, 0.975)
    checks.append((abs(q - 2.4645) <= 5e-4,
                   f"F quantile(20,20; 0.975) = {q:.6f}, expected 2.4645 +- 5e-4"))

    # q(d1, d2; p) = 1 / q(d2, d1; 1 - p), to relative tolerance 1e-9
    for d1, d2, prob in ((40, 40, 0.025), (40, 100, 0.05), (4, 6, 0.5)):
        product = f_quantile(d1, d2, prob) * f_quantile(d2, d1, 1.0 - prob)
        checks.append((abs(product - 1.0) <= 1e-9 * max(1.0, abs(product)),
                       f"reciprocal identity failed for ({d1},{d2},{prob})"))

    med = f_quantile(24, 24, 0.5)
    checks.append((abs(med - 1.0) <= 1e-9, f"median of equal-df F = {med!r}, expected 1.0"))
    return _suite("quantile_accuracy", checks)


def suite_distribution_laws(seed: int) -> SuiteResult:
    """Sampling laws: mean ~ Gamma(n, theta/n) and ratio/R ~ F(2n, 2n), from
    100,000 samples of 20, by KS tests at level 0.01."""
    theta, replications, n_obs = 1.0, 100_000, 20
    crit = ks_critical_value(replications, 0.01)

    draws = sample_exponential(SeededStream(seed, stream_id=11), theta,
                               replications * n_obs).reshape(replications, n_obs)
    theta_hat = draws.mean(axis=1)
    mean_gap = abs(theta_hat.mean() - theta)
    var, var_target = theta_hat.var(), theta ** 2 / n_obs
    d_gamma = ks_statistic(theta_hat, lambda x: erlang_cdf(n_obs, theta / n_obs, x))

    second = sample_exponential(SeededStream(seed, stream_id=12), theta,
                                replications * n_obs).reshape(replications, n_obs)
    ratio = theta_hat / second.mean(axis=1)
    d_f = ks_statistic(ratio, lambda x: f_cdf(2 * n_obs, 2 * n_obs, x))
    return _suite("distribution_laws", [
        (mean_gap <= 3.0 / math.sqrt(n_obs * replications),
         f"mean of theta_hat off by {mean_gap:.5f}"),
        (abs(var - var_target) <= 0.05 * var_target,
         f"variance of theta_hat {var:.5f} vs {var_target:.5f}"),
        (d_gamma <= crit, f"gamma law KS {d_gamma:.5f} > critical {crit:.5f}"),
        (d_f <= crit, f"F law KS {d_f:.5f} > critical {crit:.5f}"),
    ])


def run_all(seed: int) -> list[SuiteResult]:
    return [
        suite_closed_form_anchors(),
        suite_oracle_equivalence(),
        suite_structural_properties(),
        suite_quantile_accuracy(seed),
        suite_distribution_laws(seed),
    ]
