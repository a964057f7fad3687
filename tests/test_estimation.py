import math

import mpmath
import numpy as np
import pytest

from expoverlap.distributions import SeededStream, sample_exponential
from expoverlap.estimation import (
    EmptySample,
    InsufficientSampleSize,
    NonPositiveObservation,
    TwoSample,
    corrected_ratio,
    estimate_report,
    ovl_point_estimates,
    ratio_estimates,
    taylor_moments,
    variance_factor,
)
from expoverlap.measures import COEFFICIENTS, MEASURES, overlap_quartet


# --- samples and MLEs ---------------------------------------------------------

def test_two_sample_validation():
    with pytest.raises(EmptySample):
        TwoSample(x1=[], x2=[1.0])
    with pytest.raises(NonPositiveObservation):
        TwoSample(x1=[1.0, -2.0], x2=[1.0])
    with pytest.raises(NonPositiveObservation):
        TwoSample(x1=[1.0], x2=[0.0])
    with pytest.raises(NonPositiveObservation):
        TwoSample(x1=[1.0], x2=[math.inf])


def test_mle_is_arithmetic_mean():
    est = ratio_estimates(TwoSample([1, 1, 1], [2, 2]))
    assert (est.theta1_hat, est.theta2_hat) == (1.0, 2.0)
    est = ratio_estimates(TwoSample([0.5, 1.5], [3.0]))
    assert (est.theta1_hat, est.theta2_hat) == (1.0, 3.0)


def test_mle_monte_carlo():
    n = 10 ** 6
    x = sample_exponential(SeededStream(31, 0), 2.0, n)
    th1 = ratio_estimates(TwoSample(x, [1.0])).theta1_hat
    assert abs(th1 - 2.0) <= 3 * 2.0 / math.sqrt(n)


# --- ratio estimates ------------------------------------------------------------

def test_ratio_estimates_definition():
    est = ratio_estimates(TwoSample([2.0] * 10, [2.0] * 10))
    assert est.r_hat == 1.0
    assert est.r_hat_star == 0.9
    assert est.n1 == est.n2 == 10


def test_ratio_variance_plug_in():
    # means 10 and 19 with n=20 give r_hat_star exactly 0.5
    report = estimate_report(TwoSample([10.0] * 20, [19.0] * 20))
    assert report.r_hat_star == 0.5
    assert abs(report.var_r_hat_star - 0.25 * 39.0 / 360.0) <= 1e-15


def test_corrected_ratio_is_unbiased():
    reps, n = 100_000, 20
    m1 = sample_exponential(SeededStream(77, 0), 1.0, reps * n).reshape(reps, n).mean(axis=1)
    m2 = sample_exponential(SeededStream(77, 1), 2.0, reps * n).reshape(reps, n).mean(axis=1)
    r_star = (m1 / m2) * (n - 1) / n
    se = r_star.std() / math.sqrt(reps)
    assert abs(r_star.mean() - 0.5) <= 3 * se


def test_corrected_ratio_does_not_overflow():
    # r_hat (n2 - 1) is past the float range here; r_hat - r_hat / n2 is not
    got = corrected_ratio(1e307, 40)
    assert math.isfinite(got)
    assert math.isclose(got, 9.75e306, rel_tol=1e-15)


# --- point estimates ------------------------------------------------------------

def test_point_estimates_at_unity():
    points = ovl_point_estimates(1.0, 1.0)
    assert tuple(points.values()) == (1.0, 1.0, 1.0, 1.0)


def test_point_estimates_table_values():
    points = ovl_point_estimates(0.5, 0.5)
    assert round(points["delta"], 3) == 0.750
    assert round(points["rho"], 3) == 0.943
    assert round(points["lambda"], 3) == 0.889
    assert round(points["kl_lambda"], 3) == 0.667


def test_kl_estimate_uses_uncorrected_ratio_by_default():
    points = ovl_point_estimates(0.5, 0.475)
    assert points["kl_lambda"] == MEASURES["kl_lambda"](0.5)
    assert points["delta"] == MEASURES["delta"](0.475)  # the other three use r_star


# --- variance approximations -----------------------------------------------------

def test_variances_at_unity():
    v = taylor_moments(1.0, 20, 20)[0]
    assert v["rho"] == 0.0 and v["lambda"] == 0.0 and v["kl_lambda"] == 0.0
    assert abs(v["delta"] - (39.0 / 360.0) * math.exp(-2.0)) <= 1e-15


def test_variance_rho_spot_value():
    v = taylor_moments(0.5, 20, 20)[0]
    expected = (39.0 / 360.0) * 0.5 * 0.25 / 1.5 ** 4
    assert abs(v["rho"] - expected) <= 1e-15


def test_variance_kl_symbolic_anchor():
    # Var(kl) must equal (dLambda/dR)^2 * R^2 * c with the analytic derivative
    for r in (0.05, 0.3, 0.9, 2.0, 7.0):
        c = variance_factor(20, 20)
        deriv = (1.0 - r ** 2) / (r ** 2 - r + 1.0) ** 2
        expected = deriv ** 2 * r ** 2 * c
        got = taylor_moments(r, 20, 20)[0]["kl_lambda"]
        assert abs(got - expected) <= 1e-10 * max(expected, 1e-300)


@pytest.mark.parametrize("r", [0.05, 0.3, 0.8, 1.3, 5.0, 20.0])
def test_variances_match_delta_method(r):
    # first-order delta method: g'(R)^2 * Var(R*), derivative by central FD
    n1 = n2 = 20
    c = variance_factor(n1, n2)
    var_r_star = r ** 2 * c
    h = 1e-6 * max(r, 1.0)
    formulas = taylor_moments(r, n1, n2)[0]
    for key in COEFFICIENTS:
        g = MEASURES[key]
        deriv = (g(r + h) - g(r - h)) / (2 * h)
        expected = deriv ** 2 * var_r_star
        assert abs(formulas[key] - expected) <= 1e-5 * expected


def test_variance_requires_n2_above_two():
    with pytest.raises(InsufficientSampleSize):
        taylor_moments(0.5, 20, 2)[0]
    with pytest.raises(InsufficientSampleSize):
        variance_factor(0, 20)


# --- bias approximations ----------------------------------------------------------

def test_bias_lambda_vanishes_at_two():
    assert taylor_moments(2.0, 20, 20)[1]["lambda"] == 0.0


def test_bias_kl_at_unity():
    got = taylor_moments(1.0, 20, 20)[1]["kl_lambda"]
    assert abs(got - (39.0 / 360.0) * 2.0) <= 1e-15


def test_bias_rho_spot_value():
    # direct substitution into the published expression
    c = 39.0 / 360.0
    expected = c * math.sqrt(0.5) * (3 * 0.5 * (0.5 - 2) - 1) / (2 * 1.5 ** 3)
    got = taylor_moments(0.5, 20, 20)[1]["rho"]
    assert abs(expected - (-0.03688303889522424)) <= 1e-15
    assert abs(got - expected) <= 1e-15


def test_bias_delta_undefined_at_unity():
    assert math.isnan(taylor_moments(1.0, 20, 20)[1]["delta"])


def test_bias_delta_one_sided_limits():
    # the two branches approach +-c/e
    c = 39.0 / 360.0
    up = taylor_moments(1.0 + 1e-3, 20, 20)[1]["delta"]
    down = taylor_moments(1.0 - 1e-3, 20, 20)[1]["delta"]
    assert abs(up - c / math.e) <= 0.02 * c / math.e
    assert abs(down + c / math.e) <= 0.02 * c / math.e


def test_bias_delta_series_consistent_with_direct():
    # values just inside and outside the series threshold must agree
    for r in (1.0 + 9e-6, 1.0 - 9e-6):
        series = taylor_moments(r, 20, 20)[1]["delta"]
        direct = taylor_moments(r + math.copysign(3e-6, r - 1.0), 20, 20)[1]["delta"]
        assert abs(series - direct) <= 5e-5 * abs(series)


def _taylor_bias_term(r, n1, n2):
    """0.5 * g''(R) * Var(R*), read off the published biases as half of each
    (minus half for the KL overlap), as the study's bias oracle is."""
    return {key: (-0.5 if key == "kl_lambda" else 0.5) * bias
            for key, bias in taylor_moments(r, n1, n2)[1].items()}


def test_bias_oracle_matches_analytic_second_derivatives():
    n1 = n2 = 20
    c = variance_factor(n1, n2)
    for r in (0.2, 0.5, 0.8, 1.6, 4.0):
        oracle = _taylor_bias_term(r, n1, n2)
        var_r_star = r ** 2 * c
        # analytic second derivatives of the closed forms; delta is
        # 1 -+ (1 - r) e^(r q) with q = log(r) / (1 - r), - below r = 1
        lam2 = -8.0 * (2.0 - r) / (1.0 + r) ** 4
        kl2 = (2 * r ** 3 - 6 * r + 2) / (r ** 2 - r + 1) ** 3
        rho2 = -(0.5 + 3 * r - 1.5 * r ** 2) / (r ** 1.5 * (1 + r) ** 3)
        q = math.log(r) / (1.0 - r)
        delta2 = (-math.copysign(1.0, 1.0 - r) * math.exp(r * q)
                  * (1.0 / r - 1.0 + math.log(r) + q * (math.log(r) + 1.0 - r))
                  / (1.0 - r) ** 2)
        for key, second in (("lambda", lam2), ("kl_lambda", kl2), ("rho", rho2),
                            ("delta", delta2)):
            expected = 0.5 * second * var_r_star
            assert abs(oracle[key] - expected) <= 1e-12 * max(abs(expected), 1e-12)


# the closed forms written out for mpmath, independent of expoverlap.measures
_MP_CLOSED_FORMS = {
    "delta": lambda r: 1 - abs(1 - 1 / r) * r ** (1 / (1 - r)),
    "rho": lambda r: 2 * mpmath.sqrt(r) / (1 + r),
    "lambda": lambda r: 4 * r / (1 + r) ** 2,
    "kl_lambda": lambda r: r / (r * r - r + 1),
}


def test_bias_oracle_is_half_g2_var_against_mpmath():
    n1, n2 = 15, 40
    ratios = [float(r) for r in np.geomspace(1e-3, 1e3, 40)]
    ratios += [1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 1e-5, 1.0 + 1e-5, 1.0 - 1e-7, 1.0 + 1e-7]
    for r in ratios:
        oracle = _taylor_bias_term(r, n1, n2)
        with mpmath.workdps(50):
            x = mpmath.mpf(r)
            var_r_star = x ** 2 * (n1 + n2 - 1) / (n1 * (n2 - mpmath.mpf(2)))
            for key, g in _MP_CLOSED_FORMS.items():
                expected = float(mpmath.diff(g, x, 2) * var_r_star / 2)
                tol = 1e-12 if key == "delta" and abs(r - 1.0) < 1e-2 else 1e-9
                assert abs(oracle[key] - expected) <= tol * abs(expected), (key, r)


#: Ratios of the log-coordinate check: both ends of the float range, a
#: geometric grid that avoids r = 1, and both sides of 1 close in.
_MP_RATIOS = [1e-300, 1e-200, 1e-100, *(float(r) for r in np.geomspace(1e-12, 1e12, 48)),
              1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 1e-5, 1.0 + 1e-5, 1.0 - 1e-7, 1.0 + 1e-7,
              1e100, 1e200, 1e300, 1.7e308]


@pytest.mark.parametrize("key", COEFFICIENTS)
def test_values_and_taylor_terms_match_mpmath_in_log_coordinates(key):
    # with u = log r: value g, variance c g_u^2 and bias c (g_uu - g_u),
    # negated for KL.  Delta's closed form cancels to ~r at tiny r (and ~1/r
    # at huge r), so its digits grow with |log10 r|.
    n1, n2 = 15, 40
    c = variance_factor(n1, n2)
    g = _MP_CLOSED_FORMS[key]
    sign = -1 if key == "kl_lambda" else 1
    for r in _MP_RATIOS:
        variances, biases = taylor_moments(r, n1, n2)
        with mpmath.workdps(40 + (int(abs(math.log10(r))) if key == "delta" else 0)):
            u = mpmath.log(mpmath.mpf(r))
            g_u = mpmath.diff(lambda t: g(mpmath.exp(t)), u, 1)
            g_uu = mpmath.diff(lambda t: g(mpmath.exp(t)), u, 2)
            exact = {"value": float(g(mpmath.mpf(r))), "variance": float(c * g_u ** 2),
                     "bias": float(sign * c * (g_uu - g_u))}
        got = {"value": MEASURES[key](r), "variance": variances[key], "bias": biases[key]}
        for name, want in exact.items():
            if abs(want) >= 2.3e-308:
                assert abs(got[name] - want) <= 1e-12 * abs(want), (name, r)


def test_bias_oracle_nan_for_delta_at_corner():
    oracle = _taylor_bias_term(1.0, 20, 20)
    assert math.isnan(oracle["delta"])
    assert all(math.isfinite(oracle[key]) for key in ("rho", "lambda", "kl_lambda"))
    for r in (1.0 - 1e-7, 1.0 + 1e-7, 1e-170, 1e-300):
        assert all(math.isfinite(v) for v in _taylor_bias_term(r, 20, 20).values())


def test_bias_oracle_is_half_published_formula():
    # each published bias carries exactly twice the Taylor term, minus
    # twice for the KL overlap
    for r in (1e-3, 0.2, 0.5, 0.8, 1.0 - 1e-7, 1.0 + 1e-7, 3.0, 300.0, 1e5):
        published = taylor_moments(r, 20, 20)[1]
        oracle = _taylor_bias_term(r, 20, 20)
        for key in COEFFICIENTS:
            sign = -1.0 if key == "kl_lambda" else 1.0
            assert 2.0 * oracle[key] == sign * published[key], (key, r)


# --- full report ------------------------------------------------------------------

def test_estimate_report_constant_samples():
    report = estimate_report(TwoSample([1.0] * 20, [1.0] * 20))
    assert report.r_hat == 1.0
    assert report.r_hat_star == 0.95
    # delta/rho/lambda evaluate at 0.95, the KL overlap at r_hat = 1
    assert abs(report.points["delta"] - 0.9811323198732347) <= 1e-12
    assert abs(report.points["rho"] - 0.9996712148522013) <= 1e-12
    assert abs(report.points["lambda"] - 0.9993425378040762) <= 1e-12
    assert report.points["kl_lambda"] == 1.0
    assert report.variances == taylor_moments(0.95, 20, 20)[0]
    assert report.biases == taylor_moments(0.95, 20, 20)[1]


def test_estimate_report_insufficient_n2():
    with pytest.raises(InsufficientSampleSize):
        estimate_report(TwoSample([1.0] * 20, [1.0, 2.0]))


def test_estimate_report_deterministic():
    sample = TwoSample(sample_exponential(SeededStream(3, 0), 1.0, 30),
                       sample_exponential(SeededStream(3, 1), 2.0, 30))
    assert vars(estimate_report(sample)) == vars(estimate_report(sample))


def test_point_estimates_concentrate_on_truth():
    # median absolute error must shrink as n grows
    truth = overlap_quartet(0.5)
    reps = 301
    med_errors = {key: [] for key in COEFFICIENTS}
    for size_idx, n in enumerate((100, 1000, 10000)):
        m1 = sample_exponential(SeededStream(55, 2 * size_idx), 1.0,
                                reps * n).reshape(reps, n).mean(axis=1)
        m2 = sample_exponential(SeededStream(55, 2 * size_idx + 1), 2.0,
                                reps * n).reshape(reps, n).mean(axis=1)
        r_hat = m1 / m2
        r_star = r_hat * (n - 1) / n
        ests = {
            "delta": MEASURES["delta"](r_star),
            "rho": MEASURES["rho"](r_star),
            "lambda": MEASURES["lambda"](r_star),
            "kl_lambda": MEASURES["kl_lambda"](r_hat),
        }
        for key in COEFFICIENTS:
            med_errors[key].append(float(np.median(np.abs(ests[key] - truth[key]))))
    for key in COEFFICIENTS:
        a, b, c = med_errors[key]
        assert a > b > c


@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
def test_empirical_variance_matches_formula(r):
    # n = 200: first-order variance against the Monte Carlo variance.  Near
    # r = 1 the first derivative of rho/lambda gets small and the dropped
    # second-order terms contribute ~10% at this n, hence the wider band
    # for those two coefficients at r = 0.8.
    reps, n = 100_000, 200
    m1 = sample_exponential(SeededStream(88, 0), r, reps * n).reshape(reps, n).mean(axis=1)
    m2 = sample_exponential(SeededStream(88, 1), 1.0, reps * n).reshape(reps, n).mean(axis=1)
    r_hat = m1 / m2
    r_star = r_hat * (n - 1) / n
    formulas = taylor_moments(r, n, n)[0]
    ests = {
        "delta": MEASURES["delta"](r_star),
        "rho": MEASURES["rho"](r_star),
        "lambda": MEASURES["lambda"](r_star),
        "kl_lambda": MEASURES["kl_lambda"](r_hat),
    }
    for key in COEFFICIENTS:
        empirical = float(np.var(ests[key]))
        tol = 0.15 if (r == 0.8 and key in ("rho", "lambda")) else 0.10
        assert abs(formulas[key] - empirical) <= tol * empirical


def test_delta_estimate_tracks_truth_at_large_n():
    # theta ratio 0.2 at n = 500: the estimator's sd is ~0.017, so a 0.04
    # band (2.3 sigma) captures >= 95% of replications and the average
    # lands within MC error of the true 0.465
    reps, n = 1000, 500
    m1 = sample_exponential(SeededStream(91, 0), 1.0, reps * n).reshape(reps, n).mean(axis=1)
    m2 = sample_exponential(SeededStream(91, 1), 5.0, reps * n).reshape(reps, n).mean(axis=1)
    r_star = (m1 / m2) * (n - 1) / n
    delta_hat = MEASURES["delta"](r_star)
    truth = overlap_quartet(0.2)["delta"]
    frac = float(np.mean(np.abs(delta_hat - truth) <= 0.04))
    assert frac >= 0.95
    assert abs(delta_hat.mean() - truth) <= 3 * delta_hat.std() / math.sqrt(reps)
