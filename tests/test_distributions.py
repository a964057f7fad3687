import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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


def test_interleaved_streams_match_fresh_philox():
    # the per-thread generator is re-keyed on every call: A, then B, then A
    # again each give the words of a freshly keyed Philox
    def fresh(seed, stream_id, n):
        raw = np.random.Philox(key=(stream_id << 64) | seed).random_raw(n)
        return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53

    a, b = SeededStream(7, 2 ** 64 - 1), SeededStream(2 ** 64 - 1, 3)
    for stream, n in ((a, 5), (b, 1001), (a, 5), (a, 3), (b, 2)):
        got = stream.uniforms(n)
        assert np.array_equal(got, fresh(stream.seed, stream.stream_id, n))


def test_threads_draw_streams_independently():
    # each thread re-keys its own generator from its own state dict; a switch
    # between the keying and the draw must not hand one thread another's words
    streams = [SeededStream(5, i) for i in range(6)]
    expected = [s.uniforms(9) for s in streams]
    # and each thread draws blocks through sample_exponential at its own n
    blocks = {k: sample_exponential(streams, 0.7, 3 + 5 * k) for k in range(4)}
    mismatches = []

    def work(k):
        for i in range(300):
            j = (i + k) % len(streams)
            if not np.array_equal(streams[j].uniforms(9), expected[j]):
                mismatches.append((k, j))
            if i % 10 == 0 and not np.array_equal(
                    sample_exponential(streams, 0.7, 3 + 5 * k), blocks[k]):
                mismatches.append((k, "block"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_exponential_rows_match_single_streams():
    streams = [SeededStream(11, i) for i in (0, 5, 2 ** 63)]
    for n in (1, 20, 257):
        block = sample_exponential(streams, 0.3, n)
        assert block.shape == (3, n)
        for row, stream in zip(block, streams):
            assert np.array_equal(row, sample_exponential(stream, 0.3, n))
            assert np.array_equal(row, 0.3 * (-np.log(stream.uniforms(n))))


def test_uniform_map_bits_at_chosen_words():
    # the words sit in the Philox buffer, which the next draws read first
    words = [0, 2 ** 64 - 2 ** 11 - 1, 2 ** 64 - 2 ** 11, 2 ** 64 - 1]
    philox = np.random.Philox(key=0)
    state = philox.state
    state["buffer"], state["buffer_pos"] = words, 0
    philox.state = state
    got = distributions._uniforms(np.random.Generator(philox), 4)
    raw = np.array(words, dtype=np.uint64)
    old = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    assert np.array_equal(got.view(np.uint64), old.view(np.uint64))
    # the documented range (0, 1]: 2^53 - 1.5 rounds to even, the top 2^11 words to 1.0
    assert got.tolist() == [2.0 ** -54, 1.0 - 2.0 ** -52, 1.0, 1.0]


def test_first_draws_are_pinned():
    # numpy's Philox, its state setter, Generator.random and SIMD log, each
    # pinned under its own name rather than as output digest mismatches
    u = SeededStream(123456789, 2 ** 63 + 5).uniforms(4)
    assert [hex(b) for b in u.view(np.uint64).tolist()] == [
        "0x3fdd65ba45600b31", "0x3fe9f273be044822", "0x3f9751bd0f5187b0", "0x3fe3f66dd04c30d8"]
    row = sample_exponential([SeededStream(123456789, i) for i in (7, 2 ** 64 - 1)], 0.5, 4)[1]
    assert [hex(b) for b in row.view(np.uint64).tolist()] == [
        "0x3fca3ae0fd9f2fa5", "0x3fdbf4ee755ba371", "0x3fb021447d1927c5", "0x3fda128eb17b2737"]


@pytest.mark.parametrize("v", [5, np.uint64(5), np.int64(5), 2 ** 64 - 1, np.uint64(2 ** 64 - 1)],
                         ids=repr)
def test_stream_keeps_integer_kinds_as_plain_ints(v):
    # at either field, a numpy integer is held as the int it equals
    for stream, plain in ((SeededStream(9, v), SeededStream(9, int(v))),
                          (SeededStream(v, 9), SeededStream(int(v), 9))):
        assert type(stream.seed) is int and type(stream.stream_id) is int
        assert stream == plain and hash(stream) == hash(plain)
        assert np.array_equal(stream.uniforms(9).view(np.uint64),
                              plain.uniforms(9).view(np.uint64))


def test_uniforms_open_interval():
    u = SeededStream(0, 0).uniforms(10_000)
    assert np.all((u > 0.0) & (u < 1.0))


def test_stream_validation():
    for bad in (True, 5.0, -1, 2 ** 64, np.int64(-1)):
        for args in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match="unsigned 64-bit integer"):
                SeededStream(*args)
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
    for x in (1.5, -0.1, math.nan, np.array([0.5, math.nan]), np.array([0.5, 1.5])):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, x)


def test_beta_budget_is_capped_past_the_tested_domain():
    # near the mode the fraction needs ~4.3 (a+b)^(1/3) terms; 10^5 of them end the call
    with pytest.raises(distributions.NonConvergence, match="no convergence in 100000"):
        regularized_incomplete_beta(1e30, 1e30, 0.5)


def test_beta_and_f_cdf_at_negative_zero():
    # -0.0 is a valid x, and I and F there are +0.0, sign bit clear
    for got in (regularized_incomplete_beta(2.0, 3.0, -0.0), f_cdf(4, 6, -0.0),
                regularized_incomplete_beta(2.0, 3.0, np.array([-0.0, 0.5]))[0],
                f_cdf(4, 6, np.array([-0.0, 1.0]))[0]):
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=0.1, max_value=400.0),
       b=st.floats(min_value=0.1, max_value=400.0),
       x=st.floats(min_value=0.0, max_value=1.0))
@example(a=0.5, b=0.5, x=1.0 - 2.0 ** -53)
def test_beta_against_scipy(a, b, x):
    # scipy's betainc loses digits as x -> 1 (at a = b = 0.5, x = 1 - 2^-53 it is
    # 2.8e-9 off the mpmath value); above 1/2 it is asked for the reflection
    # 1 - I_{1-x}(b, a), where 1 - x is exact
    expected = special.betainc(a, b, x) if x <= 0.5 else 1.0 - special.betainc(b, a, 1.0 - x)
    assert abs(regularized_incomplete_beta(a, b, x) - expected) <= 5e-12


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
    # A scalar x takes the Python-float branch and gives the bits of a
    # one-element array, over both front-factor forms (max(a, b) below 30 and
    # from 30 on), both sides of the mode, within 1e-6 of it, and the ends.
    # At (3107, 274) and x = 0.9113351840981234, libm pow and numpy's power
    # give w^3 in _rlog1 bits that reach I_x on an AVX-512 numpy build.
    # In a longer array the fraction runs until its slowest element converges,
    # so an element may move from its lone value by a few times the 1e-15
    # relative at which the fraction stops.
    for a, b in ((2.0, 3.0), (0.5, 40.0), (3107.0, 274.0), (1e6, 23.5)):
        mode = a / (a + b)
        xs = np.array([0.0, 0.2, 0.8, 0.5 * mode, mode - 1e-6, mode - 3e-9, mode,
                       mode + 3e-9, mode + 1e-6, 0.5 * (1.0 + mode), 0.9113351840981234, 1.0])
        vec = regularized_incomplete_beta(a, b, xs)
        for i, x in enumerate(xs):
            got = regularized_incomplete_beta(a, b, float(x))
            assert type(got) is float, (a, b, x)
            assert got == regularized_incomplete_beta(a, b, xs[i:i + 1])[0], (a, b, x)
            assert abs(got - vec[i]) <= 4e-15 * got, (a, b, x)
    fs = np.array([0.0, 1e-3, 0.5, 1.0, 2.0, 1e3, math.inf])
    for d1, d2 in ((4, 6), (1, 80), (6214, 548), (2_000_000, 47)):
        vec = f_cdf(d1, d2, fs)
        for i, x in enumerate(fs):
            got = f_cdf(d1, d2, float(x))
            assert type(got) is float, (d1, d2, x)
            assert got == f_cdf(d1, d2, fs[i:i + 1])[0], (d1, d2, x)
            assert abs(got - vec[i]) <= 4e-15 * got, (d1, d2, x)


def test_rlog1_scalar_is_an_array_element():
    # one body for both input types: w^3 must come from numpy's power on a
    # np.float64 as on an array, not from libm's pow, all over the series
    # branch |e| < 0.1 and on both sides of its edges
    edges = [np.nextafter(c, c + d) for c in (-0.1, 0.1) for d in (-1.0, 1.0)]
    es = np.concatenate([np.linspace(-0.1, 0.1, 20_001)[1:-1], [-0.1, 0.1, -0.12, 0.12],
                         edges, np.geomspace(1e-12, 0.1, 200), -np.geomspace(1e-12, 0.1, 200)])
    logs = np.log1p(es)
    vec = distributions._rlog1(es, logs)
    for e, log1p_e, want in zip(es, logs, vec):
        assert distributions._rlog1(e, log1p_e) == want, e


_beta_shape = st.floats(min_value=math.log(0.5), max_value=math.log(2e6)).map(math.exp)


@settings(max_examples=200, deadline=None)
@given(a=_beta_shape, b=_beta_shape, x=st.floats(min_value=0.0, max_value=1.0),
       near_mode=st.booleans(), offset=st.floats(min_value=-1e-6, max_value=1e-6))
@example(a=0.5, b=2e6, x=5e-324, near_mode=False, offset=0.0)
@example(a=3.0, b=0.5, x=2.0 ** -1070, near_mode=False, offset=0.0)
@example(a=0.5, b=0.5, x=1.0 - 2.0 ** -53, near_mode=False, offset=0.0)
@example(a=2e6, b=2e6, x=0.0, near_mode=True, offset=0.0)
def test_beta_scalar_is_a_one_element_array(a, b, x, near_mode, offset):
    # the scalar branch runs the continued fraction on Python floats; its
    # + - * / round as numpy's do, so it gives the bits of the array branch
    if near_mode:
        x = min(max(a / (a + b) * (1.0 + offset), 0.0), 1.0)
    got = regularized_incomplete_beta(a, b, float(x))
    assert type(got) is float
    assert got == regularized_incomplete_beta(a, b, np.array([x]))[0]


def test_beta_converges_near_the_mode_on_the_tested_domain():
    # the documented domain a, b >= 1/2 holds every F law; below it (such as
    # a = 0.0512, b = 9529) the fraction may exhaust its budget near the mode
    rng = np.random.default_rng(708)
    for a, b in np.exp(rng.uniform(math.log(0.5), math.log(3e6), size=(3_000, 2))):
        x0, y0 = a / (a + b), b / (a + b)
        for x in (x0 * (1.0 - 1e-3), x0, min(x0 * (1.0 + 1e-3), 1.0), 0.5 * x0, 1.0 - 0.5 * y0):
            assert 0.0 <= regularized_incomplete_beta(a, b, float(x)) <= 1.0, (a, b, x)


# --- F distribution -----------------------------------------------------------

def test_f_cdf_edges_and_symmetry():
    assert f_cdf(7, 9, 0.0) == 0.0
    for d in (2, 20, 100):
        assert abs(f_cdf(d, d, 1.0) - 0.5) <= 1e-12


@pytest.mark.parametrize("d1,d2", [(2, 2), (1, 40), (300, 7)])
def test_f_cdf_at_infinity_is_one(d1, d2):
    # d1 x past the float range reads as 1 too, with no overflow warning
    for x in (math.inf, 1.7e308):
        got = f_cdf(d1, d2, x)
        assert got == 1.0 and isinstance(got, float)
    vals = f_cdf(d1, d2, np.array([0.0, 1.0, 1.7e308, math.inf]))
    assert vals[0] == 0.0 and vals[2] == vals[3] == 1.0
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
    product = f_quantile(d1, d2, prob) * f_quantile(d2, d1, 1.0 - prob)
    assert abs(product - 1.0) <= 1e-9


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


@pytest.mark.parametrize("d1,d2,prob,bits", [
    (20_000_000, 20_000_000, 0.025, "0x3feff8d29ab51541"),
    (6, 20_000_000, 1.0 - 1e-6, "0x4019816da74aae18"),
    (2, 2, 1e-14, "0x3d06849b86a12bc0"),
    (20, 20, 0.975, "0x4003b7438b1b9939"),
    (20_000_000, 6, 0.5, "0x3ff1f3424a787fd8"),
    (3107, 274, 0.1, "0x3feca85e5a80af23"),
])
def test_f_quantile_bits_are_pinned(d1, d2, prob, bits):
    # the scalar incomplete beta's arithmetic, pinned under its own name
    # rather than as an output digest mismatch of ci or check
    assert hex(np.float64(f_quantile(d1, d2, prob)).view(np.uint64)) == bits


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


def test_f_quantile_nonconvergence(monkeypatch):
    # a CDF stuck at 0.5 never meets prob 0.3: the search walks x to 0 and gives up
    monkeypatch.setattr(distributions, "f_cdf", lambda d1, d2, x: 0.5)
    with np.errstate(divide="ignore"), \
            pytest.raises(distributions.NonConvergence, match="F quantile did not converge"):
        f_quantile(4, 6, 0.3)


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


def test_erlang_scalar_is_an_array_element():
    for shape, xs in ((1, np.linspace(0.0, 3.0, 301)), (20, np.geomspace(1e-3, 3.0, 301)),
                      (1000, np.linspace(0.8, 1.2, 301))):
        vec = erlang_cdf(shape, 1.0 / shape, xs)
        for i, x in enumerate(xs):
            assert erlang_cdf(shape, 1.0 / shape, np.float64(x)) == vec[i], (shape, x)
            assert erlang_cdf(shape, 1.0 / shape, np.array(x)) == vec[i], (shape, x)


@pytest.mark.parametrize("shape", [1, 20, 1000])
def test_erlang_is_one_past_the_float_range(shape):
    # where x/scale overflows, y = inf would put inf - inf in the running log
    for x in (math.inf, 1.7e308):
        assert erlang_cdf(shape, 0.05, x) == 1.0
    got = erlang_cdf(shape, 0.05, np.array([0.0, 1.0, 1.7e308, math.inf]))
    assert got.tolist() == [0.0, erlang_cdf(shape, 0.05, 1.0), 1.0, 1.0]


def test_erlang_validation():
    with pytest.raises(ValueError):
        erlang_cdf(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        erlang_cdf(3, -1.0, 1.0)


def test_ks_statistic_uniform_sample():
    u = SeededStream(9, 9).uniforms(50_000)
    d = ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
    assert d < ks_critical_value(50_000, 0.01)


def test_ks_statistic_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="empty sample"):
        ks_statistic(np.array([]), lambda x: x)


def test_ks_critical_value():
    assert abs(ks_critical_value(100_000, 0.01) - 0.0051470) <= 1e-6
    with pytest.raises(ValueError):
        ks_critical_value(0, 0.01)
