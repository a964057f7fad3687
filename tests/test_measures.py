import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchors import ANCHORS
from expoverlap import checks, measures
from expoverlap.measures import (
    COEFFICIENTS,
    MEASURES,
    _fold,
    _log_over_gap,
    kl_lambda,
    matusita_rho,
    morisita_lambda,
    overlap_by_quadrature,
    overlap_quartet,
    weitzman_delta,
)

ratios = st.floats(min_value=1e-3, max_value=1e3)


@pytest.mark.parametrize("r,expected", sorted(ANCHORS.items()))
def test_quartet_anchor_values(r, expected):
    got = overlap_quartet(r).values()
    assert tuple(round(v, 3) for v in got) == expected


def test_unity_at_one_is_exact():
    q = overlap_quartet(1.0)
    assert tuple(q.values()) == (1.0, 1.0, 1.0, 1.0)


def test_vanishing_limits_proxy():
    for fn in MEASURES.values():
        assert fn(1e-12) <= 1e-5
        assert fn(1e12) <= 1e-5


def test_delta_continuity_near_one():
    assert abs(weitzman_delta(1.0 - 1e-8) - 1.0) <= 1e-6
    assert abs(weitzman_delta(1.0 + 1e-8) - 1.0) <= 1e-6


def test_quartet_reciprocity_at_two():
    a = overlap_quartet(2.0).values()
    b = overlap_quartet(0.5).values()
    assert all(abs(x - y) <= 1e-12 for x, y in zip(a, b))


@given(r=ratios)
def test_reciprocity(r):
    for fn in MEASURES.values():
        assert abs(fn(r) - fn(1.0 / r)) <= 1e-12


@given(r=ratios)
def test_range(r):
    for fn in MEASURES.values():
        assert 0.0 <= fn(r) <= 1.0


@given(r=ratios)
def test_morisita_is_squared_matusita(r):
    # 4r/(1+r)^2 == (2 sqrt(r)/(1+r))^2
    assert abs(morisita_lambda(r) - matusita_rho(r) ** 2) <= 1e-12


def test_piecewise_monotonicity():
    below = np.geomspace(1e-3, 1.0 - 1e-9, 1000)
    above = np.geomspace(1.0 + 1e-9, 1e3, 1000)
    for fn in MEASURES.values():
        assert np.all(np.diff(fn(below)) > 0)
        assert np.all(np.diff(fn(above)) < 0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_ratio_validation(bad):
    for fn in MEASURES.values():
        with pytest.raises(ValueError):
            fn(bad)


@pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
def test_oracle_rate_validation(bad):
    for rates in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError):
            overlap_by_quadrature(*rates, "delta")


def test_symmetric_kl_matches_quadrature():
    # J recovered from the oracle's KL overlap must match (R-1)^2 / R
    for r in (0.2, 0.5, 3.0):
        j = (r - 1.0) ** 2 / r
        j_oracle = 1.0 / overlap_by_quadrature(r, 1.0, "kl_lambda") - 1.0
        assert abs(j_oracle - j) <= 1e-12
        assert abs(kl_lambda(r) - 1.0 / (1.0 + j)) <= 1e-15


def test_oracle_spot_values():
    assert abs(overlap_by_quadrature(1.0, 1.0, "delta") - 1.0) <= 1e-12
    assert abs(overlap_by_quadrature(1.0, 2.0, "delta") - 0.750) <= 1e-12
    rho_02 = 2.0 * math.sqrt(0.2) / 1.2
    assert abs(overlap_by_quadrature(1.0, 5.0, "rho") - rho_02) <= 1e-12


@pytest.mark.parametrize("r", np.geomspace(0.05, 20.0, 10))
def test_oracle_matches_closed_forms(r):
    for key in COEFFICIENTS:
        assert abs(MEASURES[key](float(r)) - overlap_by_quadrature(float(r), 1.0, key)) <= 1e-12


def test_oracle_scale_invariance():
    base = [overlap_by_quadrature(0.5, 1.0, k) for k in COEFFICIENTS]
    for c in (0.1, 10.0):
        scaled = [overlap_by_quadrature(0.5 * c, 1.0 * c, k) for k in COEFFICIENTS]
        assert all(abs(a - b) <= 1e-12 for a, b in zip(base, scaled))


def test_oracle_mean_parameterization():
    # mean parameters (2, 1) are rates (1/2, 1), rate ratio 1/2; by
    # reciprocity the quartet must equal the closed forms at the mean ratio 2
    for key in COEFFICIENTS:
        assert abs(overlap_by_quadrature(1.0 / 2.0, 1.0 / 1.0, key) - MEASURES[key](2.0)) <= 1e-12


def test_oracle_rejects_unknown_key():
    with pytest.raises(ValueError):
        overlap_by_quadrature(1.0, 2.0, "jaccard")


#: Ratios at which the oracle is held to the closed forms: 233 log-spaced over
#: [1e-8, 1e8], 1 itself, and 1 + 1e-9, where the delta kink nearly meets 1/rate.
ORACLE_RATIOS = [*np.geomspace(1e-8, 1e8, 233).tolist(), 1.0, 1.0 + 1e-9]


@pytest.mark.parametrize("key", COEFFICIENTS)
def test_oracle_matches_closed_forms_over_sixteen_decades(key):
    # the panels up to 2^6 / rate matter: with 2^5 the last panel is too wide
    # for rho beyond ratios of 1e+-6
    gaps = [abs(overlap_by_quadrature(r, 1.0, key) - MEASURES[key](r)) for r in ORACLE_RATIOS]
    worst = int(np.argmax(gaps))
    assert gaps[worst] <= 1e-14, (ORACLE_RATIOS[worst], gaps[worst])


def _mpmath_overlap(r, key):
    """The defining integral of ``key`` at rates (r, 1), by mpmath at 30 digits."""
    r, one = mpmath.mpf(r), mpmath.mpf(1)
    cuts = sorted({mpmath.mpf(0), 1 / r, one, 10 / r, mpmath.mpf(10)}) + [mpmath.inf]

    def f1(x):
        return r * mpmath.exp(-r * x)

    def f2(x):
        return mpmath.exp(-x)

    def quad(g, extra=()):
        return mpmath.quad(g, sorted({*cuts[:-1], *extra}) + [mpmath.inf])

    if key == "delta":
        return quad(lambda x: min(f1(x), f2(x)), [mpmath.log(r) / (r - 1)] if r != 1 else [])
    if key == "rho":
        return quad(lambda x: mpmath.sqrt(f1(x) * f2(x)))
    if key == "lambda":
        return 2 * quad(lambda x: f1(x) * f2(x)) / (quad(lambda x: f1(x) ** 2)
                                                    + quad(lambda x: f2(x) ** 2))
    return 1 / (1 + quad(lambda x: (f1(x) - f2(x)) * (mpmath.log(r) - (r - 1) * x)))


@pytest.mark.parametrize("r", [1e-6, 0.05, 0.5, 1.0, 3.0, 40.0, 1e6])
def test_oracle_matches_mpmath_quadrature(r):
    # an oracle independent of the closed forms the fixed rule is checked against
    with mpmath.workdps(30):
        for key in COEFFICIENTS:
            want = float(_mpmath_overlap(r, key))
            assert abs(overlap_by_quadrature(r, 1.0, key) - want) <= 1e-14, (key, want)


@settings(max_examples=25, deadline=None)
@given(r=st.floats(min_value=0.05, max_value=20.0))
@example(r=17.25)
@example(r=0.058)
def test_oracle_equivalence_property(r):
    assert abs(weitzman_delta(r) - overlap_by_quadrature(r, 1.0, "delta")) <= 1e-12


def test_vectorized_matches_scalar():
    # a np.float64's ** 2 is libm's pow, an array's an exact square; lambda's
    # (1 + s)^2 differed by an ulp at r = 733.6561968882239, among others
    grid = np.append(np.geomspace(1e-6, 1e6, 20001), [0.2, 1.0, 3.5, 733.6561968882239])
    for fn in MEASURES.values():
        vec = fn(grid)
        assert vec.shape == grid.shape
        for i, r in enumerate(grid):
            assert vec[i] == fn(float(r)), r


def _near_one():
    """r = 1 +- 2**-k for k = 1..52, and r = 1 +- 10**-j for j = 3..7."""
    gaps = [2.0 ** -k for k in range(1, 53)] + [10.0 ** -j for j in range(3, 8)]
    return np.array([1.0 + s * g for g in gaps for s in (-1.0, 1.0)])


def test_log_ratio_over_gap_matches_mpmath_near_one():
    # q = log(s) / (1 - s) at the folded s = min(r, 1/r), on both sides of 1
    r = _near_one()
    got = _log_over_gap(*_fold(r)[1:])
    with mpmath.workdps(50):
        exact = []
        for ri in r:
            s = min(mpmath.mpf(ri), 1 / mpmath.mpf(ri))
            exact.append(float(mpmath.log(s) / (1 - s)))
    for ri, gi, ei in zip(r, got, exact):
        assert abs(gi - ei) <= 2 * np.spacing(abs(ei)), ri
    assert _log_over_gap(*_fold(np.array([1.0]))[1:])[0] == -1.0


@pytest.mark.parametrize("fn", list(MEASURES.values()))
def test_closed_forms_quiet_over_full_range(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = fn(np.geomspace(1e-320, 1.79e308, 601))
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_delta_non_decreasing_up_to_one():
    # 1 - (1 - s) e^(s q) lost monotony below r ~ 1e-10, which swapped the
    # limits of a ci at r_hat ~ 1e-16
    vals = weitzman_delta(np.geomspace(1e-320, 1.0, 20001))
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[-1] == 1.0


@pytest.mark.parametrize("r", [4.5e307, 1.79e308])
def test_closed_forms_in_range_at_huge_ratios(r):
    # (1 + r)^2 and r^2 overflow here; 4 r must not turn lambda into inf/inf
    vals = [fn(r) for fn in MEASURES.values()]
    assert all(0.0 <= v <= 1.0 for v in vals), vals


def test_closed_form_wrapper_types():
    grid = np.geomspace(0.1, 10.0, 6).reshape(2, 3)
    for key, fn in MEASURES.items():
        assert fn.__module__ == "expoverlap.measures" and fn.__doc__
        assert type(fn(0.5)) is float
        assert fn(grid).shape == (2, 3)
        for bad in (np.array([]), np.array([0.5, math.nan])):
            with pytest.raises(ValueError):
                fn(bad)


def test_oracle_work_of_check_is_fixed(monkeypatch):
    # check's 200 oracle calls, counted through a wrapped integrand: the panel
    # rule fixes every integral's nodes, so no count depends on the seed
    seen = {"integrals": 0, "panels": 0, "points": 0}
    rule = measures._gauss_legendre

    def counted(f, edges):
        def g(x):
            seen["points"] += x.size
            return f(x)
        seen["integrals"] += 1
        seen["panels"] += len(edges) - 1
        return rule(g, edges)

    monkeypatch.setattr(measures, "_gauss_legendre", counted)
    assert checks.suite_oracle_equivalence().passed
    # 50 ratios; delta, rho and kl_lambda take one integral each, lambda three
    assert seen == {"integrals": 300, "panels": 5426, "points": 24 * 5426}


def test_nan_oracle_fails_every_oracle_gate(monkeypatch):
    monkeypatch.setattr(measures, "overlap_by_quadrature", lambda r1, r2, key: math.nan)
    result = checks.suite_oracle_equivalence()
    assert not result.passed and len(result.failures) == result.n_checks == 200
