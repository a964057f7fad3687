import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expoverlap.measures import (
    COEFFICIENTS,
    MEASURES,
    ExponentialParams,
    Parameterization,
    QuadratureNonConvergence,
    integrate_adaptive,
    kl_lambda,
    matusita_rho,
    morisita_lambda,
    overlap_by_quadrature,
    overlap_quartet,
    symmetric_kl_exponential,
    weitzman_delta,
)

# 3-decimal reference values of the quartet at the study ratios
ANCHORS = {
    0.2: (0.465, 0.745, 0.556, 0.238),
    0.5: (0.750, 0.943, 0.889, 0.667),
    0.8: (0.918, 0.994, 0.988, 0.952),
}

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


def test_exponential_params_validation():
    with pytest.raises(ValueError):
        ExponentialParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ExponentialParams(1.0, -2.0)
    p = ExponentialParams(3.0, 1.5, Parameterization.MEAN)
    assert p.ratio() == 2.0
    assert p.rates() == (1.0 / 3.0, 1.0 / 1.5)


def test_symmetric_kl_values():
    assert symmetric_kl_exponential(ExponentialParams(1.3, 1.3)) == 0.0
    assert abs(symmetric_kl_exponential(ExponentialParams(0.5, 1.0)) - 0.5) <= 1e-15
    assert abs(symmetric_kl_exponential(ExponentialParams(0.2, 1.0)) - 3.2) <= 1e-14


def test_symmetric_kl_matches_quadrature():
    # J recovered from the oracle's KL overlap must match (R-1)^2 / R
    for r in (0.2, 0.5, 3.0):
        params = ExponentialParams(r, 1.0)
        j_oracle = 1.0 / overlap_by_quadrature(params, "kl_lambda") - 1.0
        assert abs(j_oracle - symmetric_kl_exponential(params)) <= 1e-8
        assert abs(kl_lambda(r) - 1.0 / (1.0 + symmetric_kl_exponential(params))) <= 1e-15


def test_oracle_spot_values():
    assert abs(overlap_by_quadrature(ExponentialParams(1.0, 1.0), "delta") - 1.0) <= 1e-9
    assert abs(overlap_by_quadrature(ExponentialParams(1.0, 2.0), "delta") - 0.750) <= 1e-9
    rho_02 = 2.0 * math.sqrt(0.2) / 1.2
    assert abs(overlap_by_quadrature(ExponentialParams(1.0, 5.0), "rho") - rho_02) <= 1e-9


@pytest.mark.parametrize("r", np.geomspace(0.05, 20.0, 10))
def test_oracle_matches_closed_forms(r):
    params = ExponentialParams(float(r), 1.0)
    for key in COEFFICIENTS:
        assert abs(MEASURES[key](float(r)) - overlap_by_quadrature(params, key)) <= 1e-6


def test_oracle_scale_invariance():
    base = [overlap_by_quadrature(ExponentialParams(0.5, 1.0), k) for k in COEFFICIENTS]
    for c in (0.1, 10.0):
        params = ExponentialParams(0.5 * c, 1.0 * c)
        scaled = [overlap_by_quadrature(params, k) for k in COEFFICIENTS]
        assert all(abs(a - b) <= 1e-8 for a, b in zip(base, scaled))


def test_oracle_mean_parameterization():
    # mean parameters (2, 1) have rate ratio 1/2; by reciprocity the quartet
    # must equal the closed forms at the mean ratio 2
    p = ExponentialParams(2.0, 1.0, Parameterization.MEAN)
    for key in COEFFICIENTS:
        assert abs(overlap_by_quadrature(p, key) - MEASURES[key](2.0)) <= 1e-6


def test_oracle_rejects_unknown_key():
    with pytest.raises(ValueError):
        overlap_by_quadrature(ExponentialParams(1.0, 2.0), "jaccard")


def test_quadrature_budget_exhaustion():
    with pytest.raises(QuadratureNonConvergence):
        overlap_by_quadrature(ExponentialParams(1.0, 7.0), "delta",
                              tol=1e-13, max_subdivisions=1)


def test_integrate_adaptive_known_integral():
    val = integrate_adaptive(lambda x: np.exp(-x), 0.0, 60.0, tol=1e-12)
    assert abs(val - 1.0) <= 1e-11


@settings(max_examples=25, deadline=None)
@given(r=st.floats(min_value=0.05, max_value=20.0))
@example(r=17.25)
@example(r=0.058)
def test_oracle_equivalence_property(r):
    params = ExponentialParams(r, 1.0)
    assert abs(weitzman_delta(r) - overlap_by_quadrature(params, "delta")) <= 1e-6


def test_vectorized_matches_scalar():
    grid = np.array([0.2, 1.0, 3.5])
    for fn in MEASURES.values():
        vec = fn(grid)
        assert vec.shape == grid.shape
        for i, r in enumerate(grid):
            assert vec[i] == fn(float(r))
