import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from expoverlap import checks, distributions
from expoverlap.distributions import (
    SeededStream,
    erlang_cdf,
    f_cdf,
    f_quantile,
    ks_critical_value,
    ks_statistic,
    reciprocal_f_identity_check,
    regularized_incomplete_beta,
    sample_exponential,
)
from expoverlap.simulation import DEFAULT_SEED


# --- seeded streams and the exponential sampler -----------------------------

def test_stream_determinism():
    s = SeededStream(42, 0)
    a = sample_exponential(s, 1.0, 3)
    b = sample_exponential(s, 1.0, 3)
    assert np.array_equal(a, b)


def test_stream_scaling_is_exact():
    s = SeededStream(42, 0)
    assert np.array_equal(sample_exponential(s, 2.0, 5),
                          2.0 * sample_exponential(s, 1.0, 5))


def test_distinct_streams_differ():
    a = sample_exponential(SeededStream(42, 0), 1.0, 8)
    b = sample_exponential(SeededStream(42, 1), 1.0, 8)
    c = sample_exponential(SeededStream(43, 0), 1.0, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_open_interval():
    u = SeededStream(0, 0).uniforms(10_000)
    assert np.all((u > 0.0) & (u < 1.0))


def test_stream_validation():
    with pytest.raises(ValueError):
        SeededStream(-1, 0)
    with pytest.raises(ValueError):
        SeededStream(0, 2 ** 64)
    with pytest.raises(ValueError):
        sample_exponential(SeededStream(1, 1), 0.0, 3)
    with pytest.raises(ValueError):
        SeededStream(1, 1).uniforms(0)


def test_law_of_large_numbers():
    draws = sample_exponential(SeededStream(7, 1), 1.0, 10 ** 6)
    assert abs(draws.mean() - 1.0) <= 0.005
    assert np.all(draws > 0)


def test_sample_mean_moments():
    # theta_hat over 1e5 replications of n=20: mean within 3 sigma of theta,
    # variance within 5% of theta^2/n
    reps, n, theta = 100_000, 20, 1.0
    draws = sample_exponential(SeededStream(100, 0), theta, reps * n).reshape(reps, n)
    theta_hat = draws.mean(axis=1)
    assert abs(theta_hat.mean() - theta) <= 3.0 / math.sqrt(n * reps)
    assert abs(theta_hat.var() - theta ** 2 / n) <= 0.05 * theta ** 2 / n


def test_gamma_law_ks():
    reps, n, theta = 20_000, 20, 1.0
    draws = sample_exponential(SeededStream(101, 0), theta, reps * n).reshape(reps, n)
    theta_hat = draws.mean(axis=1)
    d = ks_statistic(theta_hat, lambda x: erlang_cdf(n, theta / n, x))
    assert d < ks_critical_value(reps, 0.01)


def test_f_law_ks():
    reps, n = 20_000, 20
    m1 = sample_exponential(SeededStream(102, 0), 1.0, reps * n).reshape(reps, n).mean(axis=1)
    m2 = sample_exponential(SeededStream(102, 1), 1.0, reps * n).reshape(reps, n).mean(axis=1)
    d = ks_statistic(m1 / m2, lambda x: f_cdf(2 * n, 2 * n, x))
    assert d < ks_critical_value(reps, 0.01)


# --- regularized incomplete beta ---------------------------------------------

def test_beta_uniform_case():
    for x in (0.0, 0.25, 1.0):
        assert abs(regularized_incomplete_beta(1.0, 1.0, x) - x) <= 1e-14


@pytest.mark.parametrize("a", [1.0, 2.5, 10.0])
def test_beta_symmetry_at_half(a):
    assert abs(regularized_incomplete_beta(a, a, 0.5) - 0.5) <= 1e-13


@pytest.mark.parametrize("a", [1e6, 1e7])
def test_beta_at_the_mode_of_large_parameters(a):
    # the fraction needs more than 500 terms here (544 at a = 1e6)
    assert abs(regularized_incomplete_beta(a, a, 0.5) - 0.5) <= 1e-13


def test_beta_polynomial_oracle():
    # Beta(2,3) CDF expands to 6x^2 - 8x^3 + 3x^4
    x = 0.36
    expected = 6 * x ** 2 - 8 * x ** 3 + 3 * x ** 4
    assert expected == 0.45474048
    assert abs(regularized_incomplete_beta(2.0, 3.0, x) - expected) <= 1e-12


def test_beta_validation():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)
    for x in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, x)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=0.1, max_value=400.0),
       b=st.floats(min_value=0.1, max_value=400.0),
       x=st.floats(min_value=0.0, max_value=1.0))
def test_beta_against_scipy(a, b, x):
    assert abs(regularized_incomplete_beta(a, b, x) - special.betainc(a, b, x)) <= 5e-12


@given(a=st.floats(min_value=0.1, max_value=100.0),
       b=st.floats(min_value=0.1, max_value=100.0),
       x=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_beta_reflection(a, b, x):
    # x range keeps 1-x faithfully representable so the pair really reflects
    total = (regularized_incomplete_beta(a, b, x)
             + regularized_incomplete_beta(b, a, 1.0 - x))
    assert abs(total - 1.0) <= 5e-12


def _mpmath_beta_cdf(a, b, x):
    """I_x(a, b) by mpmath quadrature of the beta density at 30 digits, split near the mode."""
    with mpmath.workdps(30):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        ln_beta = mpmath.log(mpmath.beta(a, b))

        def density(t):
            return mpmath.exp((a - 1) * mpmath.log(t) + (b - 1) * mpmath.log1p(-t) - ln_beta)

        mode = (a - 1) / (a + b - 2)
        sd = mpmath.sqrt(a * b / (a + b) ** 3)
        if x <= mode:
            cuts = [c for c in (mode - 40 * sd, mode - 10 * sd, mode - 3 * sd) if 0 < c < x]
            return mpmath.quad(density, [0, *cuts, x])
        cuts = [c for c in (mode + 3 * sd, mode + 10 * sd, mode + 40 * sd) if x < c < 1]
        return 1 - mpmath.quad(density, [x, *cuts, 1])


@pytest.mark.parametrize("a", [1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("b", [1e3, 1e4, 1e5, 1e6])
def test_beta_large_parameters_against_mpmath(a, b):
    # lgamma(a) + lgamma(b) - lgamma(a+b) cancels here; the Stirling-form
    # front factor and the unrounded distance to the mode must not
    mode, sd = a / (a + b), math.sqrt(a * b / (a + b) ** 3)
    for x in (0.999 * mode, 1.001 * mode, mode - sd, mode + sd):
        if x < 1.0:
            exact = _mpmath_beta_cdf(a, b, x)
            assert abs(regularized_incomplete_beta(a, b, x) - float(exact)) <= 1e-12


def test_beta_vectorized():
    xs = np.array([0.0, 0.2, 0.8, 1.0])
    vec = regularized_incomplete_beta(2.0, 3.0, xs)
    assert vec.shape == xs.shape
    for i, x in enumerate(xs):
        assert vec[i] == regularized_incomplete_beta(2.0, 3.0, float(x))


# --- F distribution -----------------------------------------------------------

def test_f_cdf_edges_and_symmetry():
    assert f_cdf(7, 9, 0.0) == 0.0
    for d in (2, 20, 100):
        assert abs(f_cdf(d, d, 1.0) - 0.5) <= 1e-12


@pytest.mark.parametrize("d1,d2", [(2, 2), (1, 40), (300, 7)])
def test_f_cdf_at_infinity_is_one(d1, d2):
    got = f_cdf(d1, d2, math.inf)
    assert got == 1.0 and isinstance(got, float)
    vals = f_cdf(d1, d2, np.array([0.0, 1.0, math.inf]))
    assert vals[0] == 0.0 and vals[2] == 1.0
    assert vals[1] == f_cdf(d1, d2, 1.0)


@pytest.mark.parametrize("x", [math.nan, np.array([1.0, math.nan]), -math.inf])
def test_f_cdf_rejects_nan_and_negative_infinity(x):
    with pytest.raises(ValueError):
        f_cdf(2, 2, x)


def test_f_cdf_table_anchor():
    assert abs(f_cdf(20, 20, 2.4645) - 0.975) <= 1e-4


def test_f_cdf_monotone():
    xs = np.linspace(0.0, 8.0, 200)
    vals = f_cdf(5, 11, xs)
    assert np.all(np.diff(vals) >= 0)


def test_f_quantile_median():
    for d in (2, 20, 240):
        assert abs(f_quantile(d, d, 0.5) - 1.0) <= 1e-9


def test_f_quantile_table_anchor():
    assert abs(f_quantile(20, 20, 0.975) - 2.4645) <= 5e-4


def test_f_quantile_round_trip_random():
    u = SeededStream(2024, 5).uniforms(300)
    for i in range(100):
        d1 = 1 + int(u[3 * i] * 399)
        d2 = 1 + int(u[3 * i + 1] * 399)
        prob = 0.001 + 0.998 * u[3 * i + 2]
        x = f_quantile(d1, d2, prob)
        assert abs(f_cdf(d1, d2, x) - prob) <= 1e-10


def test_f_quantile_monotone_in_prob():
    qs = [f_quantile(12, 8, p) for p in (0.05, 0.25, 0.5, 0.75, 0.99)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_f_quantile_validation():
    with pytest.raises(ValueError):
        f_quantile(0, 5, 0.5)
    with pytest.raises(ValueError):
        f_quantile(5, 5, 1.0)


@pytest.mark.parametrize("d1,d2,prob", [(40, 40, 0.025), (40, 100, 0.05), (4, 6, 0.5)])
def test_reciprocal_identity(d1, d2, prob):
    assert reciprocal_f_identity_check(d1, d2, prob)


@settings(max_examples=60, deadline=None)
@given(d1=st.integers(min_value=1, max_value=300),
       d2=st.integers(min_value=1, max_value=300),
       prob=st.floats(min_value=0.01, max_value=0.99))
def test_f_round_trip_property(d1, d2, prob):
    x = f_quantile(d1, d2, prob)
    assert abs(f_cdf(d1, d2, x) - prob) <= 1e-10


@pytest.mark.parametrize("d", [1, 2])
def test_f_quantile_relative_accuracy_in_the_tail(d):
    assert math.isclose(f_quantile(d, d, 1e-14), stats.f.ppf(1e-14, d, d), rel_tol=1e-9)
    upper = 1.0 - 1e-14
    assert math.isclose(f_quantile(d, d, upper), stats.f.isf(1.0 - upper, d, d), rel_tol=1e-9)


@pytest.mark.parametrize("prob", [0.025, 0.975])
def test_f_quantile_million_observations(prob):
    # df of two samples of 10^6 observations; a fixed 500-term cap failed here
    assert math.isclose(f_quantile(2_000_000, 2_000_000, prob),
                        stats.f.ppf(prob, 2_000_000, 2_000_000), rel_tol=1e-9)


_log_df = st.floats(min_value=0.0, max_value=math.log(2e6)).map(lambda t: round(math.exp(t)))
_tail = st.floats(min_value=math.log(1e-14), max_value=math.log(0.5)).map(math.exp)


@settings(max_examples=200, deadline=None)
@given(d1=_log_df, d2=_log_df, tail=_tail, upper=st.booleans())
def test_f_quantile_against_scipy_property(d1, d2, tail, upper):
    prob = 1.0 - tail if upper else tail
    assert math.isclose(f_quantile(d1, d2, prob), stats.f.ppf(prob, d1, d2), rel_tol=1e-9)


def test_f_quantile_cdf_evaluations(monkeypatch):
    # f_cdf calls per quantile over the round-trip cases of the quantile suite
    calls, per_quantile = [0], []
    f_cdf_inner, f_quantile_inner = distributions.f_cdf, checks.f_quantile

    def counted_cdf(*args):
        calls[0] += 1
        return f_cdf_inner(*args)

    def counted_quantile(*args):
        calls[0] = 0
        q = f_quantile_inner(*args)
        per_quantile.append(calls[0])
        return q

    monkeypatch.setattr(distributions, "f_cdf", counted_cdf)
    monkeypatch.setattr(checks, "f_quantile", counted_quantile)
    assert checks.suite_quantile_accuracy(DEFAULT_SEED).passed
    round_trip = per_quantile[:100]
    assert sum(round_trip) / len(round_trip) <= 5
    assert max(round_trip) <= 12


# --- Erlang CDF and KS helpers --------------------------------------------------

def test_erlang_against_scipy():
    xs = np.linspace(0.0, 3.0, 50)
    mine = erlang_cdf(20, 0.05, xs)
    ref = stats.gamma.cdf(xs, a=20, scale=0.05)
    assert np.max(np.abs(mine - ref)) <= 1e-10


@pytest.mark.parametrize("shape", [1, 1000, 10_000])
def test_erlang_shapes_against_scipy(shape):
    # shape 20 is test_erlang_against_scipy; from shape ~745 on, exp(-y)
    # underflows near the mean unless the terms are built in log space
    xs = np.linspace(0.0, 3.0, 301)
    ref = stats.gamma.cdf(xs, a=shape, scale=1.0 / shape)
    assert np.max(np.abs(erlang_cdf(shape, 1.0 / shape, xs) - ref)) <= 1e-10


def test_erlang_validation():
    with pytest.raises(ValueError):
        erlang_cdf(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        erlang_cdf(3, -1.0, 1.0)


def test_ks_statistic_uniform_sample():
    u = SeededStream(9, 9).uniforms(50_000)
    d = ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
    assert d < ks_critical_value(50_000, 0.01)


def test_ks_critical_value():
    assert abs(ks_critical_value(100_000, 0.01) - 0.0051470) <= 1e-6
    with pytest.raises(ValueError):
        ks_critical_value(0, 0.01)
