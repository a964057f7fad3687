import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expoverlap import checks, confidence, distributions, measures
from expoverlap.cli import SampleFileError, main, read_sample_file
from expoverlap.confidence import ConfidenceInterval
from expoverlap.distributions import NonConvergence, SeededStream, sample_exponential
from expoverlap.estimation import EstimateReport, TwoSample, estimate_report, ratio_estimates
from expoverlap.measures import COEFFICIENTS
from expoverlap.simulation import DEFAULT_SEED, ComparisonReport


@pytest.fixture()
def runner():
    return CliRunner()


def _write_sample(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


@pytest.fixture()
def constant_files(tmp_path):
    f1 = _write_sample(tmp_path / "a.txt", [1.0] * 20)
    f2 = _write_sample(tmp_path / "b.txt", [1.0] * 20)
    return f1, f2


# --- estimate -----------------------------------------------------------------

def test_estimate_constant_samples(runner, constant_files):
    res = runner.invoke(main, ["--format", "json", "estimate", *constant_files])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["r_hat"] == 1.0
    assert payload["r_hat_star"] == 0.95
    assert payload["points"]["kl_lambda"] == 1.0


def test_estimate_matches_library(runner, tmp_path):
    x1 = sample_exponential(SeededStream(1, 0), 1.0, 50)
    x2 = sample_exponential(SeededStream(1, 1), 2.0, 50)
    f1 = _write_sample(tmp_path / "x1.txt", x1)
    f2 = _write_sample(tmp_path / "x2.txt", x2)
    res = runner.invoke(main, ["--format", "json", "estimate", f1, f2])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    expected = vars(estimate_report(TwoSample(x1, x2)))
    assert list(payload["points"]) == list(COEFFICIENTS)
    assert payload["points"] == expected["points"]
    assert payload["variances"] == expected["variances"]


def test_estimate_rejects_bad_line(runner, tmp_path, constant_files):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\n# comment\n\n-1.0\n2.0\n")
    res = runner.invoke(main, ["estimate", constant_files[0], str(bad)])
    assert res.exit_code == 2
    assert "bad.txt:4" in res.output


def test_estimate_rejects_non_numeric(runner, tmp_path, constant_files):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\npotato\n")
    res = runner.invoke(main, ["estimate", constant_files[0], str(bad)])
    assert res.exit_code == 2
    assert "bad.txt:2" in res.output


_MIXED_SYNTAX = "# header\r\n1_000\r\n+1e-3\r\n\r\n  2.5  \n\t7E-2\n# 0\n3\r\n"


def test_read_sample_file_matches_line_loop(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes(_MIXED_SYNTAX.encode())
    expected = [float(line.strip()) for line in _MIXED_SYNTAX.splitlines()
                if line.strip() and not line.strip().startswith("#")]
    got = read_sample_file(str(path))
    assert got.dtype == np.float64
    assert got.tolist() == expected == [1000.0, 0.001, 2.5, 0.07, 3.0]


@pytest.mark.parametrize("bad, message", [
    ("potato", "not a number: 'potato'"),
    ("1,5", "not a number: '1,5'"),
    ("0", "observations must be positive and finite, got 0"),
    ("-0.0", "observations must be positive and finite, got -0.0"),
    ("nan", "observations must be positive and finite, got nan"),
    ("1e999", "observations must be positive and finite, got 1e999"),
])
def test_read_sample_file_names_first_bad_line(tmp_path, bad, message):
    # the bad line is line 9, before a second bad line; CRLF line ends
    path = tmp_path / "bad.txt"
    path.write_bytes((_MIXED_SYNTAX + f"  {bad}  \r\n-1\r\n").encode())
    with pytest.raises(SampleFileError) as err:
        read_sample_file(str(path))
    assert str(err.value) == f"{path}:9: {message}"


def test_read_sample_file_without_observations(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# only\n\n   \n")
    with pytest.raises(SampleFileError, match="no observations found"):
        read_sample_file(str(path))


def _near_max_files(tmp_path):
    """40 observations in [1e307, 4e307] each: either sum overflows float64."""
    values = [1e307 * (1.0 + 3.0 * k / 39) for k in range(40)]
    return (_write_sample(tmp_path / "a.txt", values),
            _write_sample(tmp_path / "b.txt", values[::-1]))


def test_estimate_means_do_not_overflow(runner, tmp_path):
    files = _near_max_files(tmp_path)
    res = runner.invoke(main, ["--format", "json", "estimate", *files])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert math.isclose(payload["theta1_hat"], 2.5e307, rel_tol=1e-14)
    assert payload["theta1_hat"] == payload["theta2_hat"]
    assert payload["r_hat"] == 1.0


def test_ci_means_do_not_overflow(runner, tmp_path):
    res = runner.invoke(main, ["--format", "json", "ci", *_near_max_files(tmp_path)])
    assert res.exit_code == 0, res.output
    ratio = json.loads(res.output)["ratio"]
    assert ratio["lower"] < 1.0 < ratio["upper"]


@pytest.mark.parametrize("command", ["estimate", "ci"])
def test_ratio_outside_float_range_is_input_error(runner, tmp_path, command):
    huge = _write_sample(tmp_path / "huge.txt", [1e300] * 40)
    tiny = _write_sample(tmp_path / "tiny.txt", [1e-300] * 40)
    for files in ((huge, tiny), (tiny, huge)):
        res = runner.invoke(main, [command, *files])
        assert res.exit_code == 2
        assert "outside the float range" in res.output


#: Sample pairs whose ratios once overflowed a Taylor term, a closed form or
#: r_hat_star: (values of file 1, values of file 2), 40 observations each.
_EXTREME_PAIRS = {
    "r_hat 3.6e38": ([3.6e38] * 40, [1.0] * 40),
    "r_hat 1e40": ([1e40] * 40, [1.0] * 40),
    "r_hat 1.4e200": ([1.4e200] * 40, [1.0] * 40),
    "subnormal r_hat": ([1e-310 * (1.0 + k / 39) for k in range(40)], [1.0] * 40),
    "subnormal means": ([1e-310 * (1.0 + k / 39) for k in range(40)], [3e-310] * 40),
    "means 1e307 against 1": ([1e307] * 40, [1.0] * 40),
    "r_hat 1e-16": ([1.0] * 40, [1e16] * 40),
}


@pytest.mark.parametrize("command", ["estimate", "ci"])
@pytest.mark.parametrize("pair", list(_EXTREME_PAIRS))
def test_extreme_ratios_exit_zero(runner, tmp_path, command, pair):
    files = [_write_sample(tmp_path / f"{i}.txt", values)
             for i, values in enumerate(_EXTREME_PAIRS[pair])]
    res = runner.invoke(main, ["--format", "json", command, *files])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    if command == "ci":
        for interval in payload["coefficients"].values():
            assert 0.0 <= interval["lower"] <= interval["upper"] <= 1.0
    else:
        # r_hat_star * r_hat_star * c is past the float range above ~1.3e154
        assert (payload["var_r_hat_star"] == math.inf) == (payload["r_hat_star"] > 1.3e154)
        assert all(math.isfinite(v) for v in payload["variances"].values())
        assert all(math.isfinite(v) for v in payload["biases"].values())


@pytest.mark.parametrize("r", ["1e160", "1e200", "1e-200", "1e-310"])
def test_simulate_extreme_ratio_exits_zero(runner, tmp_path, r):
    out = tmp_path / "sim"
    res = runner.invoke(main, ["--output", str(out), "simulate",
                               "--r", r, "--n", "20", "--reps", "10"])
    assert res.exit_code == 0, res.output
    entries = json.loads((out / "summary.json").read_text())["theory_comparison"]["entries"]
    delta = next(e for e in entries if e["coefficient"] == "delta")
    c = 39.0 / 360.0
    if float(r) < 1e-300:  # r is subnormal, so only a few of its bits are kept
        assert delta["bias_formula"] < 0.0
    elif float(r) < 1.0:  # delta's bias is about -c r there, not -0.0
        assert math.isclose(delta["bias_formula"], -c * float(r), rel_tol=1e-6)


@pytest.mark.parametrize("values, end", [(([1e-310], [1e10]), "lower"),
                                         (([1e300], [1.0]), "upper")])
def test_ci_clamps_ratio_limits_to_the_float_range(runner, tmp_path, values, end):
    # r_hat * q underflows to 0, or r_hat / q overflows to inf, at this level
    files = [_write_sample(tmp_path / f"{i}.txt", v) for i, v in enumerate(values)]
    res = runner.invoke(main, ["--format", "json", "ci", *files,
                               "--level", "0.999999999999"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["ratio"][end] == (5e-324 if end == "lower" else sys.float_info.max)
    for interval in payload["coefficients"].values():
        assert 0.0 <= interval["lower"] <= interval["upper"] <= 1.0


def test_simulate_overflowing_ratio_is_config_error(runner, tmp_path):
    res = runner.invoke(main, ["--output", str(tmp_path / "sim"), "simulate",
                               "--r", "1e308", "--n", "20", "--reps", "10"])
    assert res.exit_code == 3, res.output
    assert "error: ratio 1e+308 overflows the float range" in res.output


def test_simulate_underflowing_ratio_is_config_error(runner, tmp_path):
    # at a subnormal r some sample mean of theta1 * E rounds to 0, and so does r_hat
    res = runner.invoke(main, ["--output", str(tmp_path / "sim"), "simulate",
                               "--r", "5e-324", "--n", "3", "--reps", "50"])
    assert res.exit_code == 3, res.output
    assert "error: ratio 5e-324 underflows" in res.output


def test_estimate_missing_file(runner, constant_files):
    res = runner.invoke(main, ["estimate", constant_files[0], "/nonexistent/file.txt"])
    assert res.exit_code == 2


def test_estimate_rejects_non_utf8_file(runner, tmp_path, constant_files):
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"\xff\xfe1.0\n")
    res = runner.invoke(main, ["estimate", constant_files[0], str(binary)])
    assert res.exit_code == 2
    assert "bin.txt" in res.output


def test_estimate_insufficient_sample(runner, tmp_path, constant_files):
    tiny = _write_sample(tmp_path / "tiny.txt", [1.0, 2.0])
    res = runner.invoke(main, ["estimate", constant_files[0], tiny])
    assert res.exit_code == 3


def test_estimate_monte_carlo_anchor(runner, tmp_path):
    # theta ratio 0.5: the Weitzman estimate should land within 0.02 of 0.75
    n = 10_000
    f1 = _write_sample(tmp_path / "m1.txt",
                       sample_exponential(SeededStream(4, 0), 1.0, n))
    f2 = _write_sample(tmp_path / "m2.txt",
                       sample_exponential(SeededStream(4, 1), 2.0, n))
    res = runner.invoke(main, ["--format", "json", "estimate", f1, f2])
    payload = json.loads(res.output)
    assert abs(payload["points"]["delta"] - 0.75) <= 0.02


# --- ci ------------------------------------------------------------------------

def test_ci_constant_samples_pin_upper_limit(runner, constant_files):
    res = runner.invoke(main, ["--format", "json", "ci", *constant_files,
                               "--level", "0.95"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["ratio"]["contains_one"]
    for key in COEFFICIENTS:
        assert payload["coefficients"][key]["upper"] == 1.0
        assert payload["coefficients"][key]["contains_one"]


def test_ci_f_table_anchor(runner, tmp_path):
    f1 = _write_sample(tmp_path / "c1.txt", [3.0] * 10)
    f2 = _write_sample(tmp_path / "c2.txt", [3.0] * 10)
    res = runner.invoke(main, ["--format", "json", "ci", f1, f2])
    payload = json.loads(res.output)
    assert abs(payload["ratio"]["lower"] - 0.4058) <= 5e-4
    assert abs(payload["ratio"]["upper"] - 2.4645) <= 5e-4


def test_ci_rejects_bad_level(runner, constant_files):
    res = runner.invoke(main, ["ci", *constant_files, "--level", "1.5"])
    assert res.exit_code == 2


def test_ci_nonconvergence_exit_code(runner, tmp_path, monkeypatch):
    def no_convergence(d1, d2, prob):
        raise NonConvergence("F quantile did not converge")

    monkeypatch.setattr(confidence, "f_quantile", no_convergence)
    f1 = _write_sample(tmp_path / "a.txt", [1.0])
    f2 = _write_sample(tmp_path / "b.txt", [2.0])
    res = runner.invoke(main, ["ci", f1, f2])
    assert res.exit_code == 6
    assert "did not converge" in res.output


@pytest.mark.parametrize("level", ["0.99999999999998", "0.9999999999999999"])
def test_ci_extreme_level_on_one_line_files(runner, tmp_path, level):
    # F(2, 2) has CDF x / (1 + x), so its p-quantile is p / (1 - p); with
    # r_hat = 0.5 and tail a = alpha/2 the limits are 0.5 a/(1-a), 0.5 (1-a)/a
    f1 = _write_sample(tmp_path / "a.txt", [1.0])
    f2 = _write_sample(tmp_path / "b.txt", [2.0])
    res = runner.invoke(main, ["--format", "json", "ci", f1, f2, "--level", level])
    assert res.exit_code == 0
    ratio = json.loads(res.output)["ratio"]
    a = (1.0 - float(level)) / 2.0
    assert math.isclose(ratio["lower"], 0.5 * a / (1.0 - a), rel_tol=1e-9)
    assert math.isclose(ratio["upper"], 0.5 * (1.0 - a) / a, rel_tol=1e-9)


def test_ci_table_ratio_row_at_huge_ratio(runner, tmp_path):
    # r_hat = 9.4e99: fixed-point limits would run to ~100 digits each
    f1 = _write_sample(tmp_path / "a.txt", [9.4e99] * 40)
    f2 = _write_sample(tmp_path / "b.txt", [1.0] * 40)
    res = runner.invoke(main, ["ci", f1, f2])
    assert res.exit_code == 0
    row = next(line for line in res.output.splitlines() if line.startswith("ratio"))
    assert len(row) <= 45
    ratio = json.loads(runner.invoke(main, ["--format", "json", "ci", f1, f2]).output)["ratio"]
    assert row.split()[1:] == [f"{ratio['lower']:.6g}", f"{ratio['upper']:.6g}"]


# --- curves ----------------------------------------------------------------------

def test_curves_contains_unity_row(runner):
    res = runner.invoke(main, ["--format", "csv", "curves",
                               "--r-min", "0.5", "--r-max", "1.5", "--points", "3"])
    assert res.exit_code == 0
    rows = list(csv.DictReader(res.output.splitlines()))
    middle = rows[1]
    assert float(middle["r"]) == 1.0
    assert all(float(middle[key]) == 1.0 for key in COEFFICIENTS)


def test_curves_reference_row(runner):
    res = runner.invoke(main, ["--format", "csv", "curves",
                               "--r-min", "0.2", "--r-max", "1.0", "--points", "5"])
    rows = list(csv.DictReader(res.output.splitlines()))
    first = rows[0]
    assert float(first["r"]) == 0.2
    assert round(float(first["delta"]), 3) == 0.465
    assert round(float(first["rho"]), 3) == 0.745
    assert round(float(first["lambda"]), 3) == 0.556
    assert round(float(first["kl_lambda"]), 3) == 0.238


def test_curves_lambda_is_rho_squared(runner):
    res = runner.invoke(main, ["--format", "csv", "curves",
                               "--r-min", "0.05", "--r-max", "20", "--points", "40"])
    for row in csv.DictReader(res.output.splitlines()):
        rho, lam = float(row["rho"]), float(row["lambda"])
        assert lam <= rho + 1e-15
        assert abs(lam - rho ** 2) <= 1e-12


def test_curves_table_prints_huge_ratios_compactly(runner):
    # fixed-point would print r = 5e307 with 308 digits
    res = runner.invoke(main, ["curves", "--r-min", "1", "--r-max", "1e308", "--points", "3"])
    assert res.exit_code == 0
    rows = res.output.splitlines()
    assert [row.split()[0] for row in rows[1:]] == ["1", "5e+307", "1e+308"]
    assert len({len(row) for row in rows}) == 1


def test_curves_usage_errors(runner, tmp_path):
    assert runner.invoke(main, ["curves", "--r-min", "2", "--r-max", "1"]).exit_code == 2
    assert runner.invoke(main, ["curves", "--r-min", "0.5", "--r-max", "2",
                                "--points", "1"]).exit_code == 2
    svg = tmp_path / "x.svg"
    assert runner.invoke(main, ["curves", "--r-min", "0.5", "--r-max", "2",
                                "--svg", str(svg)]).exit_code == 2
    assert not svg.exists()


_SCALES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_LEVELS = st.one_of(st.floats(1e-12, 1e-3), st.floats(0.999, 1.0 - 1e-12))


@settings(max_examples=100, deadline=None)
@given(scales=st.tuples(_SCALES, _SCALES), sizes=st.tuples(st.integers(1, 10_000),
                                                           st.integers(1, 10_000)),
       seed=st.integers(0, 2 ** 32 - 1), level=_LEVELS,
       fmt=st.sampled_from(["table", "csv", "json"]),
       grid=st.tuples(_SCALES, _SCALES, st.integers(2, 50)),
       study=st.tuples(st.one_of(_SCALES, st.just(1e308)), st.integers(2, 5)))
# a ratio limit past the float range: r_hat * q underflows, r_hat / q overflows
@example(scales=(1e-310, 1e10), sizes=(1, 1), seed=0, level=0.999999999999, fmt="json",
         grid=(1.0, 2.0, 2), study=(1e308, 2))
@example(scales=(1e300, 1.0), sizes=(1, 1), seed=0, level=0.999999999999, fmt="json",
         grid=(1.0, 2.0, 2), study=(1e300, 2))
def test_cli_ends_in_a_documented_exit_code(tmp_path_factory, scales, sizes, seed, level,
                                            fmt, grid, study):
    # every run ends in 0, 2, 3 or 6 with no traceback and no RuntimeWarning
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(seed)
    files = [_write_sample(root / f"{i}.txt", scale * rng.standard_exponential(n))
             for i, (scale, n) in enumerate(zip(scales, sizes))]
    r_min, r_max, points = grid
    ratio, reps = study
    runs = (["estimate", *files], ["ci", *files, "--level", repr(level)],
            ["curves", "--r-min", repr(r_min), "--r-max", repr(r_max),
             "--points", str(points)],
            ["--output", str(root / "sim"), "simulate", "--r", repr(ratio),
             "--n", str(sizes[0]), "--reps", str(reps), "--seed", str(seed)])
    for args in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = CliRunner().invoke(main, ["--format", fmt, *args])
        assert res.exit_code in (0, 2, 3, 6), (args, res.output, res.exception)
        assert res.exception is None or isinstance(res.exception, SystemExit), args
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args


# --- simulate ---------------------------------------------------------------------

def test_simulate_small_grid(runner, tmp_path):
    out = tmp_path / "sim"
    res = runner.invoke(main, ["--output", str(out), "simulate",
                               "--r", "0.5", "--n", "10,20", "--reps", "60",
                               "--seed", "3"])
    assert res.exit_code == 0, res.output
    names = sorted(p.name for p in out.iterdir())
    assert names == ["bias_vs_r.csv", "cells.csv", "mse_vs_r.csv",
                     "std_vs_r.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reference_comparison"] is None
    with (out / "cells.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 4
    # emitted values round-trip to the in-memory stats exactly
    by_cell = {(c["r"], c["n1"]): c for c in summary["cells"]}
    for row in rows:
        stats = by_cell[(float(row["r"]), int(row["n"]))]["stats"][row["coefficient"]]
        assert float(row["bias"]) == stats["bias"]
        assert float(row["mse"]) == stats["mse"]


@pytest.mark.parametrize("r", ["1e-200", "1e-300"])
def test_simulate_tiny_ratio_writes_finite_bias_oracle(runner, tmp_path, r):
    out = tmp_path / "sim"
    res = runner.invoke(main, ["--output", str(out), "simulate",
                               "--r", r, "--n", "20", "--reps", "10"])
    assert res.exit_code == 0, res.output
    entries = json.loads((out / "summary.json").read_text())["theory_comparison"]["entries"]
    assert sorted(e["coefficient"] for e in entries) == sorted(COEFFICIENTS)
    assert all(math.isfinite(e["bias_oracle"]) for e in entries)


def test_simulate_rejects_bad_config(runner, tmp_path):
    res = runner.invoke(main, ["--output", str(tmp_path / "x"), "simulate",
                               "--reps", "1"])
    assert res.exit_code == 3
    res = runner.invoke(main, ["--output", str(tmp_path / "y"), "simulate",
                               "--n", "2", "--reps", "10"])
    assert res.exit_code == 3
    for bad in (["--r", "abc"], ["--n", "2.5"]):
        res = runner.invoke(main, ["--output", str(tmp_path / "z"), "simulate", *bad])
        assert res.exit_code == 2
        assert "Invalid value for --r/--n" in res.output
    res = runner.invoke(main, ["--output", str(tmp_path / "z"), "simulate", "--seed", "-1"])
    assert res.exit_code == 3
    assert "error: seed must be an unsigned 64-bit integer, got -1" in res.output
    assert not (tmp_path / "z").exists()
    for removed in (["--theta2", "2"], ["--lambda-corrected"]):
        out = tmp_path / removed[0].lstrip("-")
        res = runner.invoke(main, ["--output", str(out), "simulate", "--r", "0.5",
                                   "--n", "10", "--reps", "10", *removed])
        assert res.exit_code == 2
        assert not out.exists()


def test_simulate_help_shows_config_defaults(runner):
    res = runner.invoke(main, ["simulate", "--help"])
    assert res.exit_code == 0
    for default in ("0.2,0.5,0.8", "20,50,100,200,500", "1000", "123456789"):
        assert f"[default: {default}]" in res.output


def test_simulate_default_grid_verdict_matches_exit(runner, tmp_path):
    out = tmp_path / "full"
    res = runner.invoke(main, ["--output", str(out), "--format", "json", "simulate"])
    summary = json.loads((out / "summary.json").read_text())
    comparison = summary["reference_comparison"]
    assert comparison is not None
    assert res.exit_code == (0 if comparison["overall_pass"] else 4)
    assert comparison["n_excluded"] == 2


def test_simulate_verdict_stable_across_seeds(runner, tmp_path):
    # the tolerance bands exceed seed-to-seed noise at 1000 replications,
    # so different seeds must reach the same pass/fail verdict
    verdicts = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        runner.invoke(main, ["--output", str(out), "simulate", "--seed", seed])
        summary = json.loads((out / "summary.json").read_text())
        verdicts.append(summary["reference_comparison"]["overall_pass"])
    assert verdicts[0] == verdicts[1]


def test_output_flag_writes_file(runner, tmp_path, constant_files):
    dest = tmp_path / "report.json"
    res = runner.invoke(main, ["--format", "json", "--output", str(dest),
                               "estimate", *constant_files])
    assert res.exit_code == 0
    assert json.loads(dest.read_text())["r_hat"] == 1.0


def test_output_unwritable_file_is_input_error(runner, tmp_path, constant_files):
    dest = tmp_path / "missing" / "x.json"
    res = runner.invoke(main, ["--output", str(dest), "estimate", *constant_files])
    assert res.exit_code == 2
    assert f"error: {dest}: No such file or directory" in res.output


def test_simulate_output_on_a_file_is_input_error(runner, tmp_path):
    dest = tmp_path / "taken"
    dest.write_text("")
    res = runner.invoke(main, ["--output", str(dest), "simulate", "--r", "0.5",
                               "--n", "10", "--reps", "10"])
    assert res.exit_code == 2
    assert f"error: {dest}: File exists" in res.output
    assert dest.read_text() == ""


def test_simulate_unwritable_result_file_is_input_error(runner, tmp_path):
    (tmp_path / "cells.csv").mkdir()
    res = runner.invoke(main, ["--output", str(tmp_path), "simulate", "--r", "0.5",
                               "--n", "10", "--reps", "10"])
    assert res.exit_code == 2
    assert f"error: {tmp_path / 'cells.csv'}: Is a directory" in res.output


#: the environment of a command run as a user runs it: standard output buffered,
#: so a failed flush leaves bytes that the exit would flush again
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _onto_full(*args):
    with open("/dev/full", "w") as full:
        return subprocess.run([sys.executable, "-m", "expoverlap", *args], env=BUFFERED,
                              stdout=full, stderr=subprocess.PIPE, text=True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_standard_output_is_input_error(constant_files):
    proc = _onto_full("estimate", *constant_files)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_output_file_is_named(runner, constant_files):
    # the write fails once the file is open, so the error names no file itself
    res = runner.invoke(main, ["--output", "/dev/full", "estimate", *constant_files])
    assert (res.exit_code, res.output) == (2, "error: /dev/full: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_simulate_summary_onto_full_standard_output_names_no_file(tmp_path):
    out = tmp_path / "out"
    proc = _onto_full("--output", str(out), "simulate", "--r", "0.5", "--n", "10",
                      "--reps", "10")
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "bias_vs_r.csv", "cells.csv", "mse_vs_r.csv", "std_vs_r.csv", "summary.json"]


def test_closed_standard_output_pipe_ends_quietly(constant_files):
    # as `| head -c 10` does once it has read enough: the read end is closed
    # before the command writes, so its write fails with EPIPE
    proc = subprocess.Popen([sys.executable, "-m", "expoverlap", "estimate", *constant_files],
                            env=BUFFERED, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    assert (proc.wait(), proc.stderr.read()) == (1, "")
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", ["cells.csv", "bias_vs_r.csv", "std_vs_r.csv",
                                  "mse_vs_r.csv", "summary.json"])
def test_full_simulate_result_file_is_named(runner, tmp_path, name):
    # the write fails once the file is open, so the error names no file itself
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    res = runner.invoke(main, ["--output", str(out), "simulate", "--r", "0.5",
                               "--n", "10", "--reps", "10"])
    assert (res.exit_code, res.output) == (2, f"error: {out / name}: No space left on device\n")


def test_missing_sample_file_is_named_as_given(runner, tmp_path, monkeypatch, constant_files):
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, ["estimate", "./nope/x.txt", constant_files[0]])
    assert (res.exit_code, res.output) == (2, "error: ./nope/x.txt: No such file or directory\n")


# --- check --------------------------------------------------------------------------

def test_check_passes_clean_build(runner):
    res = runner.invoke(main, ["--format", "json", "check"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["passed"]
    assert len(payload["suites"]) == 5
    for suite in payload["suites"]:
        assert list(suite) == ["name", "passed", "n_checks", "failures"]
    assert {s["name"]: s["n_checks"] for s in payload["suites"]} == {
        "closed_form_anchors": 12, "oracle_equivalence": 200, "structural_properties": 20,
        "quantile_accuracy": 105, "distribution_laws": 4}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", ["estimate", "ci", "curves", "check"])
def test_check_table_honours_output(runner, tmp_path, command, fmt):
    # the --output file holds the bytes standard output gets, CSV's CRLF line ends too
    files = [_write_sample(tmp_path / f"{i}.txt", values)
             for i, values in enumerate(([0.4, 1.7, 0.9, 2.2, 0.3], [1.1, 0.6, 2.8, 1.9, 1.4]))]
    args = {"estimate": ["estimate", *files], "ci": ["ci", *files],
            "curves": ["curves", "--r-min", "0.5", "--r-max", "2", "--points", "7"],
            "check": ["check", "--seed", "7"]}[command]
    dest = tmp_path / "out.txt"
    res = runner.invoke(main, ["--format", fmt, "--output", str(dest), *args])
    assert res.exit_code == 0, res.output
    assert res.output == ""
    stdout = runner.invoke(main, ["--format", fmt, *args])
    assert stdout.exit_code == 0, stdout.output
    assert dest.read_bytes() == stdout.stdout_bytes
    if command == "check" and fmt != "json":
        assert stdout.output.count(" PASS  (") == 5


@pytest.mark.parametrize("target, patched, gates", [
    ("erlang_cdf", lambda cdf: lambda k, scale, x: cdf(k, 1.05 * scale, x), {"gamma_ks"}),
    ("f_cdf", lambda cdf: lambda d1, d2, x: cdf(d1, d2, 1.05 * x), {"f_ks"}),
    ("sample_exponential", lambda draw: lambda stream, theta, n: draw(stream, 1.03 * theta, n),
     {"mean", "variance", "gamma_ks"}),
])
def test_sampling_law_failures_name_their_gate(monkeypatch, bench_oracles, target, patched,
                                               gates):
    monkeypatch.setattr(checks, target, patched(getattr(distributions, target)))
    result = checks.suite_distribution_laws(DEFAULT_SEED)
    assert result.n_checks == 4 and not result.passed
    reported = {gate for gate, prefix in bench_oracles.LAW_GATES.items()
                if any(f.startswith(prefix) for f in result.failures)}
    assert reported == gates and len(result.failures) == len(gates)


def test_nan_law_cdf_fails_its_ks_gate(monkeypatch, bench_oracles):
    monkeypatch.setattr(checks, "erlang_cdf", lambda k, scale, x: np.full(np.shape(x), np.nan))
    result = checks.suite_distribution_laws(DEFAULT_SEED)
    assert not result.passed
    assert any(f.startswith(bench_oracles.LAW_GATES["gamma_ks"]) for f in result.failures)


def test_nan_coefficient_fails_every_structural_gate(monkeypatch):
    monkeypatch.setitem(checks.MEASURES, "rho", lambda r: np.full(np.shape(r), np.nan))
    result = checks.suite_structural_properties()
    rho_failures = [f for f in result.failures if f.startswith("rho")]
    assert len(rho_failures) == 5 and len(result.failures) == 5


def test_check_rejects_negative_seed(runner):
    assert runner.invoke(main, ["check", "--seed", "-1"]).exit_code == 2


def test_check_catches_injected_perturbation(runner, monkeypatch):
    rho = measures.MEASURES["rho"]
    monkeypatch.setitem(measures.MEASURES, "rho", lambda r: rho(r) + 1e-4)
    res = runner.invoke(main, ["--format", "json", "check"])
    assert res.exit_code == 5
    payload = json.loads(res.output)
    verdicts = {s["name"]: s["passed"] for s in payload["suites"]}
    assert verdicts["oracle_equivalence"] is False
    assert verdicts["closed_form_anchors"] is True


# --- JSON schemas ---------------------------------------------------------------------

def _field_names(record):
    return [f.name for f in fields(record)]


def test_json_objects_list_their_record_fields(runner, tmp_path, constant_files):
    # each JSON object carries its record's fields in declaration order
    res = runner.invoke(main, ["--format", "json", "estimate", *constant_files])
    assert list(json.loads(res.output)) == _field_names(EstimateReport)
    res = runner.invoke(main, ["--format", "json", "ci", *constant_files])
    payload = json.loads(res.output)
    for interval in (payload["ratio"], *payload["coefficients"].values()):
        assert list(interval) == _field_names(ConfidenceInterval)
    res = runner.invoke(main, ["--output", str(tmp_path), "simulate", "--reps", "2"])
    assert res.exit_code in (0, 4), res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary["reference_comparison"]) == _field_names(ComparisonReport)


def test_ratio_ci_takes_an_estimate_report():
    sample = TwoSample([0.4, 1.7, 0.9, 2.2, 0.3], [1.1, 0.6, 2.8, 1.9])
    report = estimate_report(sample)
    assert confidence.ratio_ci(report) == confidence.ratio_ci(ratio_estimates(sample))


# --- input errors ---------------------------------------------------------------------

@pytest.mark.parametrize("args, message", [
    (["simulate", "--r", "0"], "r_values must be nonempty and strictly positive"),
    (["simulate", "--r", "inf"], "r_values must be nonempty and strictly positive"),
    (["simulate", "--reps", "1"], "replications must be >= 2, got 1"),
    (["simulate", "--n", "2"], "sample_sizes must be nonempty with every n >= 3, got [2]"),
    (["simulate", "--seed", "-1"], "seed must be an unsigned 64-bit integer, got -1"),
])
def test_bad_input_messages_keep_their_text(runner, tmp_path, args, message):
    res = runner.invoke(main, ["--output", str(tmp_path / "out"), *args])
    assert (res.exit_code, res.output) == (3, f"error: {message}\n")
    tiny = _write_sample(tmp_path / "tiny.txt", [1.0, 2.0])
    res = runner.invoke(main, ["estimate", tiny, tiny])
    assert (res.exit_code, res.output) == (3, "error: n2 must exceed 2, got 2\n")


@pytest.mark.parametrize("args", [
    ["curves", "--r-min", "1", "--r-max", "2", "--points", str(10 ** 18)],
    ["simulate", "--r", "0.5", "--n", "20", "--reps", str(10 ** 18)],
])
def test_request_too_large_for_memory_exits_3(runner, tmp_path, args):
    # 8e18 bytes lie past any 64-bit address space, so numpy's request fails
    # before anything is allocated, whatever the kernel's overcommit policy
    res = runner.invoke(main, ["--output", str(tmp_path / "out"), *args])
    assert res.exit_code == 3, res.output
    assert res.output.startswith("error: Unable to allocate"), res.output


# --- runtime dependencies -------------------------------------------------------------

#: run each command line of argv[1] through main, then report the exit codes
#: and which test-only packages the process imported
_COMMANDS_AND_IMPORTS = """
import json, sys
from expoverlap.cli import main
codes = []
for args in json.loads(sys.argv[1]):
    try:
        main(args)
    except SystemExit as exc:
        codes.append(exc.code)
test_only = {"scipy", "mpmath", "hypothesis", "pytest"}
sys.stderr.write(json.dumps({"codes": codes, "imported": sorted(test_only & set(sys.modules))}))
"""


def test_commands_import_no_test_only_package(tmp_path, constant_files):
    # pyproject.toml declares numpy and click alone: no command may need the test extras
    out = str(tmp_path / "out")
    commands = [["--output", f"{out}.json", "estimate", *constant_files],
                ["--output", f"{out}.csv", "ci", *constant_files],
                ["--output", f"{out}.txt", "curves", "--r-min", "0.5", "--r-max", "2"],
                ["--output", f"{out}.check", "check"],
                ["--output", out, "simulate", "--reps", "10"]]
    proc = subprocess.run([sys.executable, "-c", _COMMANDS_AND_IMPORTS, json.dumps(commands)],
                          capture_output=True, text=True)
    assert json.loads(proc.stderr) == {"codes": [0] * 5, "imported": []}, proc.stderr
