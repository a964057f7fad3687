"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 7 grades the default-seed simulation on the reference grid against
the exact bias and MSE of each estimator.  R_hat / R follows F(2n, 2n), so
those moments are scipy integrals against the F density (``bench/oracles.py``,
through the ``exact_moments`` fixture in conftest.py); the criterion keeps the
tolerance max(0.01, 3 * mc_se) and the 90% gate.  It does not grade against
the bundled reference table: that table is published-formula output, with
biases about twice the exact ones (delta at (0.5, 20): table -0.031, exact
-0.0154) and flipped KL signs at R = 0.2 and 0.8 (kl_lambda at (0.8, 20):
table -0.20, exact -0.0662).  ``simulate`` still grades against the table, see
the README.
"""

import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from expoverlap.confidence import all_ovl_cis, ratio_ci
from expoverlap.distributions import SeededStream, f_cdf, f_quantile, sample_exponential
from expoverlap.estimation import taylor_variances, variance_factor
from expoverlap.measures import (
    COEFFICIENTS,
    MEASURES,
    overlap_by_quadrature,
    overlap_quartet,
)
from expoverlap.simulation import (
    SimConfig,
    theoretical_vs_empirical,
)


def _verdict(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " | " + "; ".join(failures)
    print(f"ACCEPTANCE {num} {name}: {status}{detail}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


# 1 ---------------------------------------------------------------------------

def test_criterion_1_closed_form_anchors():
    expected = {
        0.2: (0.465, 0.745, 0.556, 0.238),
        0.5: (0.750, 0.943, 0.889, 0.667),
        0.8: (0.918, 0.994, 0.988, 0.952),
    }
    failures = []
    for r, ref in expected.items():
        got = tuple(round(v, 3) for v in overlap_quartet(r).values())
        if got != ref:
            failures.append(f"quartet({r}) = {got}, expected {ref}")
    _verdict(1, "closed-form anchors", failures)


# 2 ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    failures = []
    for r in np.geomspace(0.05, 20.0, 50):
        for key in COEFFICIENTS:
            gap = abs(MEASURES[key](float(r)) - overlap_by_quadrature(float(r), 1.0, key))
            if gap > 1e-6:
                failures.append(f"{key}(r={r:.4g}) gap {gap:.2e}")
    _verdict(2, "oracle equivalence", failures)


# 3 ---------------------------------------------------------------------------

def test_criterion_3_structural_properties():
    failures = []
    grid = np.geomspace(1e-3, 1e3, 1000)
    below = np.geomspace(1e-3, 1.0 - 1e-9, 1000)
    above = np.geomspace(1.0 + 1e-9, 1e3, 1000)
    for key in COEFFICIENTS:
        fn = MEASURES[key]
        vals = fn(grid)
        if np.any(vals < 0) or np.any(vals > 1):
            failures.append(f"{key} escapes [0,1]")
        if fn(1.0) != 1.0:
            failures.append(f"{key}(1) != 1")
        if np.max(np.abs(vals - fn(1.0 / grid))) > 1e-12:
            failures.append(f"{key} reciprocity > 1e-12")
        if not (np.all(np.diff(fn(below)) > 0) and np.all(np.diff(fn(above)) < 0)):
            failures.append(f"{key} not piecewise monotone")
    _verdict(3, "coefficient properties", failures)


# 4 ---------------------------------------------------------------------------

def test_criterion_4_distribution_laws():
    # independent oracle: scipy distributions provide the reference CDFs
    failures = []
    reps, n, theta = 100_000, 20, 1.0
    theta_hat = sample_exponential(SeededStream(2026, 0), theta,
                                   reps * n).reshape(reps, n).mean(axis=1)
    res = stats.kstest(theta_hat, lambda x: stats.gamma.cdf(x, a=n, scale=theta / n))
    if res.pvalue < 0.01:
        failures.append(f"gamma law KS p={res.pvalue:.4f}")

    other = sample_exponential(SeededStream(2026, 1), theta,
                               reps * n).reshape(reps, n).mean(axis=1)
    res = stats.kstest(theta_hat / other, lambda x: stats.f.cdf(x, 2 * n, 2 * n))
    if res.pvalue < 0.01:
        failures.append(f"F law KS p={res.pvalue:.4f}")
    _verdict(4, "sampling distribution laws", failures)


# 5 ---------------------------------------------------------------------------

def test_criterion_5_quantile_accuracy():
    failures = []
    u = SeededStream(2027, 0).uniforms(300)
    for i in range(100):
        d1 = 1 + int(u[3 * i] * 399)
        d2 = 1 + int(u[3 * i + 1] * 399)
        prob = 0.001 + 0.998 * u[3 * i + 2]
        gap = abs(f_cdf(d1, d2, f_quantile(d1, d2, prob)) - prob)
        if gap > 1e-10:
            failures.append(f"round-trip gap {gap:.2e} at df=({d1},{d2}), p={prob:.4f}")
    q = f_quantile(20, 20, 0.975)
    if abs(q - 2.4645) > 5e-4:
        failures.append(f"F_0.975(20,20) = {q:.6f}, expected 2.4645 +- 5e-4")
    # cross-check through an independent beta CDF implementation
    y = 20 * q / (20 * q + 20)
    if abs(special.betainc(10, 10, y) - 0.975) > 1e-9:
        failures.append("independent beta CDF disagrees at the quantile")
    _verdict(5, "F quantile accuracy", failures)


# 6 ---------------------------------------------------------------------------

def test_criterion_6_variance_formulas_match_delta_method():
    failures = []
    n1 = n2 = 20
    c = variance_factor(n1, n2)
    rs = np.concatenate([np.linspace(0.05, 0.95, 15), np.geomspace(1.05, 20.0, 15)])
    for r in rs:
        r = float(r)
        h = 1e-6 * max(r, 1.0)
        formulas = taylor_variances(r, n1, n2)
        for key in COEFFICIENTS:
            g = MEASURES[key]
            deriv = (g(r + h) - g(r - h)) / (2 * h)
            expected = deriv ** 2 * r ** 2 * c
            rel = abs(formulas[key] - expected) / expected
            if rel > 1e-5:
                failures.append(f"{key}(r={r:.3g}) rel err {rel:.2e}")
    at_one = taylor_variances(1.0, n1, n2)
    if abs(at_one["delta"] - c * math.exp(-2.0)) > 1e-12 * c:
        failures.append("delta variance limit at r=1 is not c*e^-2")
    if any(at_one[k] != 0.0 for k in ("rho", "lambda", "kl_lambda")):
        failures.append("rho/lambda/kl variances nonzero at r=1")
    _verdict(6, "variance formulas vs delta method", failures)


# 7 ---------------------------------------------------------------------------

def test_criterion_7_reference_table_reproduction(default_table, exact_moments):
    # independent oracle: exact sampling moments from the F(2n, 2n) law of
    # R_hat / R, integrated against the F density (bench/oracles.py)
    failures = []
    n_passed = n_compared = 0
    for cell in default_table.cells:
        for key in COEFFICIENTS:
            cell_stats = cell.stats[key]
            exact_bias, exact_mse = exact_moments[(cell.r, cell.n1, key)]
            tolerance = max(0.01, 3.0 * cell_stats.mc_se)
            for empirical, exact in ((cell_stats.bias, exact_bias), (cell_stats.mse, exact_mse)):
                n_compared += 1
                n_passed += abs(empirical - exact) <= tolerance
    if n_passed / n_compared < 0.90:
        failures.append(f"gate: {n_passed}/{n_compared} entries "
                        f"({n_passed / n_compared:.1%}) < 90%")

    for r, n, key, half_width in ((0.8, 20, "kl_lambda", 0.02), (0.5, 20, "delta", 0.01)):
        bias = default_table.cell(r, n).stats[key].bias
        centre = exact_moments[(r, n, key)][0]
        if abs(bias - centre) > half_width:
            failures.append(f"anchor {key}({r},{n}) bias {bias:+.4f} "
                            f"not in {centre:+.4f} +- {half_width}")
    for r in (0.2, 0.5, 0.8):
        for key in COEFFICIENTS:
            bias = default_table.cell(r, 500).stats[key].bias
            if abs(bias) > 0.01:
                failures.append(f"n=500 bias {key}(r={r}) = {bias:+.4f} > 0.01")
    _verdict(7, "reference grid vs exact moments", failures)


def test_exact_moment_oracle_recovers_ratio_moments(bench_oracles):
    # R* = R_hat (n2-1)/n2 is exactly unbiased with a closed-form variance
    for r, n in ((0.2, 20), (0.8, 500)):
        def err(x, r=r, n=n):
            return (n - 1.0) / n * r * x - r

        bias = bench_oracles._f_expectation(err, 2 * n, 2 * n)
        mse = bench_oracles._f_expectation(lambda x: err(x) ** 2, 2 * n, 2 * n)
        assert abs(bias) < 1e-8
        assert math.isclose(mse, r * r * (2 * n - 1) / (n * (n - 2)), rel_tol=1e-6)


# 8 ---------------------------------------------------------------------------

def test_criterion_8_confidence_interval_coverage():
    failures = []

    # exact pivot coverage, 1e4 replications at R = 0.5, n = 20
    reps, n, true_r = 10_000, 20, 0.5
    m1 = sample_exponential(SeededStream(2028, 0), 1.0, reps * n).reshape(reps, n).mean(axis=1)
    m2 = sample_exponential(SeededStream(2028, 1), 2.0, reps * n).reshape(reps, n).mean(axis=1)
    r_hat = m1 / m2
    hi_q = f_quantile(2 * n, 2 * n, 0.975)
    lo_q = f_quantile(2 * n, 2 * n, 0.025)
    lower, upper = r_hat / hi_q, r_hat / lo_q
    coverage = float(np.mean((lower <= true_r) & (true_r <= upper)))
    if abs(coverage - 0.95) > 0.015:
        failures.append(f"ratio coverage {coverage:.4f} outside 0.95 +- 0.015")

    # transformed intervals at n = 50
    reps, n = 10_000, 50
    m1 = sample_exponential(SeededStream(2029, 0), 1.0, reps * n).reshape(reps, n).mean(axis=1)
    m2 = sample_exponential(SeededStream(2029, 1), 2.0, reps * n).reshape(reps, n).mean(axis=1)
    r_hat = m1 / m2
    hi_q = f_quantile(2 * n, 2 * n, 0.975)
    lo_q = f_quantile(2 * n, 2 * n, 0.025)
    lo, hi = r_hat / hi_q, r_hat / lo_q
    truth = overlap_quartet(true_r)
    for key in COEFFICIENTS:
        fn = MEASURES[key]
        f_lo, f_hi = fn(lo), fn(hi)
        lower = np.where(hi <= 1.0, f_lo, np.where(lo >= 1.0, f_hi,
                                                   np.minimum(f_lo, f_hi)))
        upper = np.where(hi <= 1.0, f_hi, np.where(lo >= 1.0, f_lo, 1.0))
        coverage = float(np.mean((lower <= truth[key]) & (truth[key] <= upper)))
        if coverage < 0.935:
            failures.append(f"{key} coverage {coverage:.4f} < 0.935")
    _verdict(8, "confidence interval coverage", failures)


def test_vectorized_coverage_logic_matches_ovl_ci():
    # the array logic used in criterion 8 must agree with the scalar transform
    from expoverlap.confidence import ConfidenceInterval, ovl_ci
    for lo, hi in ((0.3, 0.8), (1.2, 3.0), (0.6, 1.7)):
        interval = ConfidenceInterval(lo, hi, 0.95, "ratio", lo < 1 < hi)
        for key in COEFFICIENTS:
            fn = MEASURES[key]
            lower = fn(lo) if hi <= 1 else (fn(hi) if lo >= 1 else min(fn(lo), fn(hi)))
            upper = fn(hi) if hi <= 1 else (fn(lo) if lo >= 1 else 1.0)
            scalar = ovl_ci(interval, key)
            assert scalar.lower == lower and scalar.upper == upper


# 9 ---------------------------------------------------------------------------

def test_criterion_9_bias_adjudication_report(default_table):
    failures = []
    report = theoretical_vs_empirical(default_table)
    if len(report.entries) != 60:
        failures.append(f"expected 60 entries, got {len(report.entries)}")
    required = {"r", "n1", "n2", "coefficient", "empirical_bias",
                "empirical_variance", "mc_se", "variance_formula",
                "variance_rel_err", "bias_formula", "bias_oracle", "closer"}
    for entry in report.entries:
        missing = required - set(entry)
        if missing:
            failures.append(f"entry missing {missing}")
            break
        if entry["closer"] not in ("formula", "oracle", "tie"):
            failures.append(f"bad closer verdict {entry['closer']!r}")
            break
    totals = {k: sum(v.values()) for k, v in report.closer_counts.items()}
    if any(t != 15 for t in totals.values()):
        failures.append(f"closer counts do not cover the grid: {totals}")
    _verdict(9, "bias adjudication report", failures)


# 10 --------------------------------------------------------------------------

#: sha256 of the default ``simulate`` outputs.  Byte identity rests on numpy's
#: SIMD ``log``, so these hold for one numpy build and set of CPU features;
#: a change that alters output bytes on purpose re-pins them.
GOLDEN_DIGESTS = {
    "cells.csv": "9a501cc4338f83bad2217746207fdc9c11428392abc599d3694efed884b7f9f7",
    "bias_vs_r.csv": "fe0f70a589c963910ee0d489b7286a4007e667a1cf5f095c0883d5da53d010f2",
    "std_vs_r.csv": "5558dd812f2a23ae25602abfbdbdad75772292b82a80aa0da7b4dec050c43ce7",
    "mse_vs_r.csv": "35a0fd65e94112607eaa1744dfea7b7725b96ac2fdb72de145b49523be080cc5",
    "summary.json": "0474be641b41ae6235cddd0886736c7d9e0748ec12f86a242e7b8b9ca5d02f13",
}


def test_criterion_10_byte_identical_runs(tmp_path):
    failures = []
    dirs = (tmp_path / "run_a", tmp_path / "run_b")
    codes = []
    for out_dir in dirs:
        proc = subprocess.run(
            [sys.executable, "-m", "expoverlap", "--output", str(out_dir), "simulate"],
            capture_output=True, text=True)
        codes.append(proc.returncode)
    if codes[0] != codes[1]:
        failures.append(f"exit codes differ: {codes}")
    for name, digest in GOLDEN_DIGESTS.items():
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        if a != b:
            failures.append(f"{name} differs between identical-seed runs")
        if hashlib.sha256(a).hexdigest() != digest:
            failures.append(f"{name} differs from its pinned digest")
    _verdict(10, "seeded determinism", failures)
