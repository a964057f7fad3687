"""The input contract of the public library.

Every public function of ``measures``, ``distributions``, ``estimation``,
``confidence`` and ``simulation`` either raises its module's documented
ValueError subclass or returns exactly what the canonical input returns.
A bool is never a number, a numeric string is not a number, a size is an
integer, a numpy scalar counts as its kind, and a ratio array of any shape
gives the elementwise values.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expoverlap import confidence, distributions, estimation, measures, simulation
from expoverlap.confidence import ConfidenceInterval, ratio_ci
from expoverlap.distributions import SeededStream
from expoverlap.estimation import (
    EmptySample,
    InsufficientSampleSize,
    NonPositiveObservation,
    RatioEstimates,
    TwoSample,
)
from expoverlap.simulation import ConfigError, SimConfig

MODULES = (measures, distributions, estimation, confidence, simulation)

_ESTIMATES = RatioEstimates(n1=5, n2=5, theta1_hat=1.0, theta2_hat=2.0, r_hat=0.5,
                            r_hat_star=0.4)
_SMALL = SimConfig(r_values=(0.5,), sample_sizes=(3,), replications=4, seed=7)


def _same(got, want) -> bool:
    """Equal values of equal shapes, through dicts, sequences and records."""
    if dataclasses.is_dataclass(want):
        return type(got) is type(want) and _same(vars(got), vars(want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, str):
        return got == want
    return np.shape(got) == np.shape(want) and np.array_equal(got, want, equal_nan=True)


def _tiled(value, shape):
    """``value`` with every one-element array broadcast to ``shape``."""
    if isinstance(value, dict):
        return {k: _tiled(v, shape) for k, v in value.items()}
    return np.full(shape, value)


# kind of input -> strategy of canonical values
POSITIVE = st.floats(1e-3, 1e3)
UNIT = st.floats(1e-3, 1.0 - 1e-3)

#: Input site -> (kind, strategy, low of an integer, error type, call of the input).
#: The kinds are "real" (a positive real), "unit" (a real in (0, 1)), "integer",
#: "ratio" (a ratio array of any shape), "point" (a point or array of points at
#: which a distribution function is evaluated) and "seed".
SITES = {
    # measures
    "weitzman_delta": ("ratio", POSITIVE, None, ValueError, measures.weitzman_delta),
    "matusita_rho": ("ratio", POSITIVE, None, ValueError, measures.matusita_rho),
    "morisita_lambda": ("ratio", POSITIVE, None, ValueError, measures.morisita_lambda),
    "kl_lambda": ("ratio", POSITIVE, None, ValueError, measures.kl_lambda),
    "overlap_quartet": ("ratio", POSITIVE, None, ValueError, measures.overlap_quartet),
    "overlap_by_quadrature.rate1": ("real", st.floats(0.1, 10.0), None, ValueError,
                                    lambda x: measures.overlap_by_quadrature(x, 1.0, "rho")),
    "overlap_by_quadrature.rate2": ("real", st.floats(0.1, 10.0), None, ValueError,
                                    lambda x: measures.overlap_by_quadrature(2.0, x, "delta")),
    # distributions
    "SeededStream.seed": ("seed", None, 0, ValueError,
                          lambda k: SeededStream(k, 3).uniforms(2)),
    "SeededStream.stream_id": ("seed", None, 0, ValueError,
                               lambda k: SeededStream(3, k).uniforms(2)),
    "SeededStream.block": ("seed", None, 0, ValueError,
                           lambda k: SeededStream.block(k, [0, 1])),
    "SeededStream.uniforms": ("integer", st.integers(1, 40), 1, ValueError,
                              lambda n: SeededStream(1, 2).uniforms(n)),
    "sample_exponential.mean_theta": ("real", POSITIVE, None, ValueError,
                                      lambda x: distributions.sample_exponential(
                                          SeededStream(1, 2), x, 3)),
    "sample_exponential.n": ("integer", st.integers(1, 40), 1, ValueError,
                             lambda n: distributions.sample_exponential(
                                 [SeededStream(1, 2)], 1.5, n)),
    "regularized_incomplete_beta.a": ("real", POSITIVE, None, ValueError,
                                      lambda a: distributions.regularized_incomplete_beta(
                                          a, 2.0, 0.3)),
    "regularized_incomplete_beta.b": ("real", POSITIVE, None, ValueError,
                                      lambda b: distributions.regularized_incomplete_beta(
                                          2.0, b, np.array([0.3, 0.7]))),
    "regularized_incomplete_beta.x": ("point", UNIT, None, ValueError,
                                      lambda x: distributions.regularized_incomplete_beta(
                                          2.0, 3.0, x)),
    "f_cdf.d1": ("integer", st.integers(1, 60), 1, ValueError,
                 lambda d: distributions.f_cdf(d, 7, 1.3)),
    "f_cdf.d2": ("integer", st.integers(1, 60), 1, ValueError,
                 lambda d: distributions.f_cdf(7, d, np.array([0.4, 1.3]))),
    "f_cdf.x": ("point", POSITIVE, None, ValueError, lambda x: distributions.f_cdf(2, 3, x)),
    "f_quantile.d1": ("integer", st.integers(1, 60), 1, ValueError,
                      lambda d: distributions.f_quantile(d, 7, 0.3)),
    "f_quantile.d2": ("integer", st.integers(1, 60), 1, ValueError,
                      lambda d: distributions.f_quantile(7, d, 0.8)),
    "f_quantile.prob": ("unit", UNIT, None, ValueError,
                        lambda p: distributions.f_quantile(6, 9, p)),
    "erlang_cdf.shape": ("integer", st.integers(1, 40), 1, ValueError,
                         lambda k: distributions.erlang_cdf(k, 1.0, 2.0)),
    "erlang_cdf.scale": ("real", POSITIVE, None, ValueError,
                         lambda s: distributions.erlang_cdf(3, s, np.array([0.5, 2.0]))),
    "erlang_cdf.x": ("point", POSITIVE, None, ValueError,
                     lambda x: distributions.erlang_cdf(3, 1.5, x)),
    "ks_statistic.sample": ("point", POSITIVE, None, ValueError,
                            lambda x: distributions.ks_statistic(x, np.tanh)),
    "ks_critical_value.m": ("integer", st.integers(1, 10 ** 6), 1, ValueError,
                            lambda m: distributions.ks_critical_value(m, 0.01)),
    "ks_critical_value.alpha": ("unit", UNIT, None, ValueError,
                                lambda a: distributions.ks_critical_value(100, a)),
    # estimation
    "variance_factor.n1": ("integer", st.integers(1, 500), 1, InsufficientSampleSize,
                           lambda n: estimation.variance_factor(n, 10)),
    "variance_factor.n2": ("integer", st.integers(3, 500), 3, InsufficientSampleSize,
                           lambda n: estimation.variance_factor(10, n)),
    "corrected_ratio.r_hat": ("ratio", POSITIVE, None, ValueError,
                              lambda r: estimation.corrected_ratio(r, 10)),
    "corrected_ratio.n2": ("integer", st.integers(2, 500), 2, InsufficientSampleSize,
                           lambda n: estimation.corrected_ratio(0.7, n)),
    "ovl_point_estimates": ("ratio", POSITIVE, None, ValueError,
                            lambda r: estimation.ovl_point_estimates(r, r)),
    "taylor_moments.r": ("real", POSITIVE, None, ValueError,
                         lambda r: estimation.taylor_moments(r, 20, 20)),
    "taylor_moments.n1": ("integer", st.integers(1, 500), 1, InsufficientSampleSize,
                          lambda n: estimation.taylor_moments(0.5, n, 20)),
    "taylor_moments.n2": ("integer", st.integers(3, 500), 3, InsufficientSampleSize,
                          lambda n: estimation.taylor_moments(0.5, 20, n)),
    # confidence
    "ConfidenceInterval.level": ("unit", UNIT, None, ValueError,
                                 lambda lv: ConfidenceInterval("ratio", lv, 0.5, 2.0)),
    "ratio_ci.level": ("unit", UNIT, None, ValueError, lambda lv: ratio_ci(_ESTIMATES, lv)),
    # simulation
    "SimConfig.replications": ("integer", st.integers(2, 10 ** 6), 2, ConfigError,
                               lambda k: SimConfig(replications=k)),
    "SimConfig.seed": ("seed", None, 0, ConfigError, lambda k: SimConfig(seed=k)),
    "run_cell.r": ("real", st.floats(0.1, 10.0), None, ConfigError,
                   lambda r: simulation.run_cell(_SMALL, r, 3)),
    "run_cell.n": ("integer", st.integers(3, 8), 3, InsufficientSampleSize,
                   lambda n: simulation.run_cell(_SMALL, 0.5, n)),
}

#: Inputs with a rule of their own, each checked by its own test below.
OWN_TESTS = {"SimConfig.r_values", "SimConfig.sample_sizes", "TwoSample.x1", "TwoSample.x2"}

#: Public functions whose arguments are records built by the validated
#: constructors above, a coefficient key or file paths, not one of the library's inputs.
NOT_INPUT_SITES = {
    "ratio_estimates", "estimate_report", "ovl_ci", "all_ovl_cis",
    "run_study", "compare_to_reference", "theoretical_vs_empirical", "write_cells_csv",
    "write_figure_csvs", "write_summary_json",
}


def _bad(kind, value, low):
    """Inputs of ``kind`` near ``value`` that its site must reject."""
    common = [True, False, np.bool_(True), str(value), None]
    if kind == "point":  # any number is a point; each function checks the range
        return common + [np.array([True, False]), np.array([str(value)]), [value, True],
                         (np.bool_(False), value), [[value], [True]],
                         np.array([value], dtype=object), np.array([value + 1j])]
    common += [math.nan, math.inf, -math.inf]
    if kind == "ratio":
        return common + [0.0, -value, [], np.array([True, False]), np.array([str(value)]),
                         [value, True], np.array([value, math.nan]),
                         np.array([value], dtype=object)]
    common += [np.full((2, 2), value), np.array(value)]
    if kind == "real":
        return common + [0.0, -value, np.float64(-value)]
    if kind == "unit":
        return common + [0.0, -value, 1.0, 1.0 + value]
    return common + [value + 0.5, float(value), np.float64(value), low - 1, np.int64(low - 1)]


def _equivalent(kind, value):
    """(equivalent input, shape of its result, or None for the canonical one) pairs."""
    if kind in ("real", "unit"):
        return [(np.float64(value), None)]
    if kind == "point":
        return [(np.float64(value), None), (np.array(value), None)]
    if kind == "ratio":
        return [(np.float64(value), None), (np.full((2, 3), value), (2, 3)),
                (np.full((1, 1, 2), value), (1, 1, 2))]
    return [(np.int64(value) if value < 2 ** 63 else np.uint64(value), None),
            (np.uint64(value), None)]


def test_sites_cover_every_public_function():
    public = {name for module in MODULES for name, obj in vars(module).items()
              if inspect.isfunction(obj) and obj.__module__ == module.__name__
              and not name.startswith("_")}
    covered = {site.split(".")[0] for site in (*SITES, *OWN_TESTS)}
    assert public - covered == NOT_INPUT_SITES


@pytest.mark.parametrize("site", SITES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_input_is_rejected_or_canonical(site, data):
    kind, values, low, error, call = SITES[site]
    if kind == "seed":
        value = data.draw(st.integers(0, 2 ** 64 - 1) | st.sampled_from([0, 2 ** 64 - 1]))
        bad = _bad("integer", value, 0) + [2 ** 64, np.uint64(2 ** 64 - 1) + 0.0]
    else:
        value = data.draw(values)
        bad = _bad(kind, value, low)
    want = call(value)
    for x in bad:
        with pytest.raises(error):
            call(x)
            pytest.fail(f"{site} accepted {x!r}")
    for x, shape in _equivalent("integer" if kind == "seed" else kind, value):
        # an array is compared with a one-element array: a 0-d ratio takes numpy's
        # scalar arithmetic, whose ** is libm's pow, and may differ by an ulp
        base = want if shape is None else _tiled(call(np.full(1, value)), shape)
        assert _same(call(x), base), (site, x)


@settings(max_examples=30, deadline=None)
@given(r=st.lists(POSITIVE, min_size=1, max_size=4))
def test_config_ratios_are_a_one_dimensional_ratio_array(r):
    want = SimConfig(r_values=tuple(r))
    assert all(type(v) is float for v in want.r_values)
    for same in (list(r), np.array(r), [np.float64(v) for v in r]):
        assert SimConfig(r_values=same) == want
    for bad in (r[0], str(r[0]), "".join(map(str, r)), [True], [*r, True], [str(v) for v in r],
                [[v] for v in r], [], [math.nan], [*r, math.inf], [*r, 0.0], None):
        with pytest.raises(ConfigError):
            SimConfig(r_values=bad)


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(3, 500), min_size=1, max_size=4))
def test_config_sizes_are_integers_of_at_least_three(sizes):
    want = SimConfig(sample_sizes=tuple(sizes))
    assert SimConfig(sample_sizes=[np.int64(n) for n in sizes]) == want
    assert SimConfig(sample_sizes=np.array(sizes)) == want
    for bad in ([True], [*sizes, 2.5], [float(sizes[0])], [str(sizes[0])], [math.nan],
                [*sizes, 2], [], [np.float64(sizes[0])]):
        with pytest.raises(ConfigError):
            SimConfig(sample_sizes=bad)


@settings(max_examples=30, deadline=None)
@given(x=st.lists(POSITIVE, min_size=1, max_size=5), side=st.sampled_from(["x1", "x2"]))
def test_two_sample_is_a_one_dimensional_positive_array(x, side):
    other = [1.0, 2.0]

    def sample(values):
        return TwoSample(**{side: values, "x1" if side == "x2" else "x2": other})

    want = sample(x)
    for same in (np.array(x), tuple(x), [np.float64(v) for v in x]):
        assert _same(sample(same), want)
    ints = [max(1, round(v)) for v in x]
    assert _same(sample(np.array(ints)), sample([float(v) for v in ints]))
    with pytest.raises(EmptySample):
        sample([])
    for bad in ("123", str(x[0]), True, [True, True], (*x, True), [str(v) for v in x], [x], x[0],
                [*x, math.nan], [*x, math.inf], [*x, -x[0]], [*x, 0.0],
                np.array(x, dtype=object), None):
        with pytest.raises(NonPositiveObservation):
            sample(bad)


#: Named calls that a bool check, a string check or an integer check must stop.
NAMED_BAD_INPUTS = {
    "SimConfig(r_values='25')": (lambda: SimConfig(r_values="25"), ConfigError),
    "SimConfig(r_values=0.5)": (lambda: SimConfig(r_values=0.5), ConfigError),
    "SimConfig(sample_sizes=20)": (lambda: SimConfig(sample_sizes=20), ConfigError),
    "overlap_quartet(True)": (lambda: measures.overlap_quartet(True), ValueError),
    "f_quantile(True, 2, 0.5)": (lambda: distributions.f_quantile(True, 2, 0.5), ValueError),
    "taylor_moments(0.5, 2.5, 20)": (lambda: estimation.taylor_moments(0.5, 2.5, 20),
                                     InsufficientSampleSize),
    "run_cell(cfg, 0.5, 3.9)": (lambda: simulation.run_cell(_SMALL, 0.5, 3.9),
                                InsufficientSampleSize),
    "TwoSample(x1='123')": (lambda: TwoSample(x1="123", x2=[1.0]), NonPositiveObservation),
    "overlap_by_quadrature(True, 1.0, 'rho')": (
        lambda: measures.overlap_by_quadrature(True, 1.0, "rho"), ValueError),
    "erlang_cdf(True, 1.0, 1.0)": (lambda: distributions.erlang_cdf(True, 1.0, 1.0), ValueError),
    "f_cdf(2, 3, '0.5')": (lambda: distributions.f_cdf(2, 3, "0.5"), ValueError),
    "f_cdf(2, 3, True)": (lambda: distributions.f_cdf(2, 3, True), ValueError),
    "SimConfig(r_values=(0.5, True))": (lambda: SimConfig(r_values=(0.5, True)), ConfigError),
    "overlap_quartet([0.5, True])": (lambda: measures.overlap_quartet([0.5, True]), ValueError),
}


@pytest.mark.parametrize("case", NAMED_BAD_INPUTS)
def test_named_bad_inputs_are_rejected(case):
    call, error = NAMED_BAD_INPUTS[case]
    with pytest.raises(error):
        call()


def test_corrected_ratio_needs_two_observations():
    # E[1 / mean(x2)] is infinite for one observation, so no unbiased R* exists
    with pytest.raises(InsufficientSampleSize):
        estimation.corrected_ratio(0.5, 1)
    est = estimation.ratio_estimates(TwoSample([0.5, 1.5], [3.0]))
    assert est.r_hat == 1.0 / 3.0 and math.isnan(est.r_hat_star)
    assert estimation.ratio_estimates(TwoSample([0.5, 1.5], [3.0, 1.0])).r_hat_star == 0.25
