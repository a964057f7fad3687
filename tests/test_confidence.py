import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expoverlap.confidence import (
    ConfidenceInterval,
    InvalidInterval,
    all_ovl_cis,
    ovl_ci,
    ratio_ci,
)
from expoverlap.distributions import SeededStream, f_quantile, sample_exponential
from expoverlap.estimation import RatioEstimates, TwoSample, ratio_estimates
from expoverlap.measures import COEFFICIENTS, MEASURES


def _estimates(r_hat, n1=10, n2=10):
    return RatioEstimates(theta1_hat=r_hat, theta2_hat=1.0, n1=n1, n2=n2,
                          r_hat=r_hat, r_hat_star=r_hat * (n2 - 1) / n2)


def _ratio_interval(lower, upper, level=0.95):
    return ConfidenceInterval(lower=lower, upper=upper, level=level,
                              target="ratio", contains_one=lower < 1 < upper)


def test_ratio_ci_f_table_anchor():
    ci = ratio_ci(_estimates(1.0), level=0.95)
    assert abs(ci.lower - 0.4058) <= 5e-4
    assert abs(ci.upper - 2.4645) <= 5e-4
    assert ci.contains_one
    # endpoints come from the same quantile via the reciprocal identity
    assert abs(ci.lower * ci.upper - 1.0) <= 1e-9


def test_ratio_ci_at_huge_ratio_is_finite():
    # r_hat ~ 7.7e199: the squared ratio overflows, and the interval never needs it
    x1 = 7.7e199 * sample_exponential(SeededStream(4, 0), 1.0, 40)
    x2 = sample_exponential(SeededStream(4, 1), 1.0, 40)
    estimates = ratio_estimates(TwoSample(x1, x2))
    assert 1e199 < estimates.r_hat < 1e201
    ci = ratio_ci(estimates, level=0.95)
    assert math.isfinite(ci.lower) and math.isfinite(ci.upper)
    assert 0.0 < ci.lower < estimates.r_hat < ci.upper
    assert not ci.contains_one


def test_ovl_ci_orders_images_that_rounding_swaps():
    # the coefficients are flat just below 1: there rho maps these two limits,
    # one ulp apart, to values in the wrong order, and ci raised "lower
    # exceeds upper"
    lo = 0.9999999000000004
    hi = lo + np.spacing(lo)
    for key, interval in all_ovl_cis(_ratio_interval(lo, hi)).items():
        assert interval.lower == min(MEASURES[key](lo), MEASURES[key](hi)), key
        assert interval.upper == max(MEASURES[key](lo), MEASURES[key](hi)), key


def test_ratio_ci_scales_linearly():
    base = ratio_ci(_estimates(0.7), level=0.9)
    doubled = ratio_ci(_estimates(1.4), level=0.9)
    assert doubled.lower == 2.0 * base.lower
    assert doubled.upper == 2.0 * base.upper


def test_interval_rejects_lower_above_upper():
    with pytest.raises(ValueError, match="exceeds upper"):
        ConfidenceInterval(target="ratio", level=0.9, lower=2.0, upper=1.0)


def test_ratio_ci_level_validation():
    with pytest.raises(ValueError):
        ratio_ci(_estimates(1.0), level=1.5)


def test_ovl_ci_below_one_uses_closed_forms_exactly():
    interval = _ratio_interval(0.25, 0.64)
    rho = ovl_ci(interval, "rho")
    assert rho.lower == MEASURES["rho"](0.25) == 0.8
    assert rho.upper == MEASURES["rho"](0.64)
    assert abs(rho.upper - 1.6 / 1.64) <= 1e-15
    kl = ovl_ci(interval, "kl_lambda")
    assert abs(kl.lower - 0.25 / 0.8125) <= 1e-15
    assert abs(kl.upper - 0.64 / 0.7696) <= 1e-15
    assert not kl.contains_one


def test_ovl_ci_above_one_swaps_endpoints():
    interval = _ratio_interval(1.25, 4.0)
    for key in COEFFICIENTS:
        ci = ovl_ci(interval, key)
        assert ci.lower == MEASURES[key](4.0)
        assert ci.upper == MEASURES[key](1.25)
        assert ci.lower <= ci.upper


def test_ovl_ci_straddling_one_pins_upper_limit():
    interval = _ratio_interval(0.5, 2.0)
    for key in COEFFICIENTS:
        ci = ovl_ci(interval, key)
        assert ci.upper == 1.0
        assert ci.contains_one
        assert ci.lower == min(MEASURES[key](0.5), MEASURES[key](2.0))


def test_ovl_ci_reciprocal_consistency():
    above = _ratio_interval(1.25, 4.0)
    below = _ratio_interval(0.25, 0.8)
    for key in COEFFICIENTS:
        a = ovl_ci(above, key)
        b = ovl_ci(below, key)
        assert abs(a.lower - b.lower) <= 1e-12
        assert abs(a.upper - b.upper) <= 1e-12


def test_ovl_ci_validation():
    good = _ratio_interval(0.5, 0.9)
    with pytest.raises(InvalidInterval):
        ovl_ci(good, "jaccard")
    with pytest.raises(InvalidInterval):
        ovl_ci(ConfidenceInterval("rho", 0.95, 0.2, 0.4), "rho")
    with pytest.raises(InvalidInterval):
        ovl_ci(ConfidenceInterval("ratio", 0.95, 0.0, 0.4), "rho")


@given(lo=st.floats(min_value=1e-3, max_value=50.0),
       width=st.floats(min_value=0.0, max_value=10.0))
def test_ovl_ci_endpoint_ordering(lo, width):
    interval = _ratio_interval(lo, lo + width)
    for key in COEFFICIENTS:
        ci = ovl_ci(interval, key)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0


def test_all_ovl_cis_keys():
    out = all_ovl_cis(_ratio_interval(0.3, 0.7))
    assert tuple(out) == COEFFICIENTS


def test_ratio_ci_coverage_monte_carlo():
    # exact pivot: empirical coverage of the 95% interval near 0.95
    reps, n, true_r = 2000, 20, 0.5
    m1 = sample_exponential(SeededStream(61, 0), 1.0, reps * n).reshape(reps, n).mean(axis=1)
    m2 = sample_exponential(SeededStream(61, 1), 2.0, reps * n).reshape(reps, n).mean(axis=1)
    r_hat = m1 / m2
    hi_q = f_quantile(2 * n, 2 * n, 0.975)
    lo_q = f_quantile(2 * n, 2 * n, 0.025)
    covered = (r_hat / hi_q <= true_r) & (true_r <= r_hat / lo_q)
    assert abs(covered.mean() - 0.95) <= 0.02
