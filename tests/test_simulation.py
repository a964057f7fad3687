import csv
import json
import math
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest
import scipy.stats

from expoverlap.distributions import SeededStream, sample_exponential
from expoverlap.estimation import InsufficientSampleSize
from expoverlap.measures import COEFFICIENTS, MEASURES, overlap_quartet
from expoverlap.reference import EXCLUDED_CELLS, REFERENCE_CELLS
from expoverlap.simulation import (
    ConfigError,
    SimConfig,
    compare_to_reference,
    run_cell,
    run_study,
    theoretical_vs_empirical,
    write_cells_csv,
    write_figure_csvs,
    write_summary_json,
    _cell_stream_ids,
    _draw_means,
)

SMALL = SimConfig(r_values=(0.5,), sample_sizes=(10, 25), replications=200, seed=9)


@pytest.fixture(scope="module")
def small_table():
    return run_study(SMALL)


# --- configuration -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(replications=1)
    with pytest.raises(ConfigError):
        SimConfig(sample_sizes=(2,))
    with pytest.raises(ConfigError):
        SimConfig(r_values=(0.0,))
    with pytest.raises(ConfigError):
        SimConfig(sample_sizes=())


@pytest.mark.parametrize("kwargs, bad", [
    ({"sample_sizes": (20, 3.9)}, 3.9), ({"sample_sizes": (True, 20)}, True),
    ({"replications": 10.5}, 10.5), ({"replications": np.float64(100.0)}, np.float64(100.0)),
    ({"seed": True}, True), ({"seed": 7.0}, 7.0)])
def test_config_rejects_non_integer_counts(kwargs, bad):
    # a float size was truncated, a float replication count failed in the
    # draws, and a bool seed was echoed as true
    with pytest.raises(ConfigError, match=re.escape(f"integer, got {bad!r}")):
        SimConfig(**kwargs)


def test_config_accepts_numpy_integers_as_ints():
    cfg = SimConfig(sample_sizes=(np.int64(20),), replications=np.uint32(50),
                    seed=np.uint64(2 ** 64 - 1))
    assert json.loads(json.dumps(cfg.to_dict()))["seed"] == 2 ** 64 - 1
    assert all(type(v) is int for v in (*cfg.sample_sizes, cfg.replications, cfg.seed))


def test_default_grid():
    cfg = SimConfig()
    assert len(cfg.cells()) == 15
    assert cfg.cells()[0] == (0.2, 20)


# --- engine determinism -----------------------------------------------------------

def test_study_is_deterministic(small_table):
    again = run_study(SMALL)
    assert again == small_table


def test_seed_changes_results(small_table):
    other = run_study(SimConfig(r_values=(0.5,), sample_sizes=(10, 25),
                                replications=200, seed=10))
    assert other != small_table


def test_run_cell_matches_study_cell(small_table):
    standalone = run_cell(SMALL, 0.5, 25)
    assert standalone == small_table.cell(0.5, 25)


def test_stream_ids_distinct():
    ids = set(_cell_stream_ids(0.5, 20, 50).ravel().tolist())
    assert len(ids) == 100
    assert _cell_stream_ids(0.5, 20, 1)[0, 0] != _cell_stream_ids(0.2, 20, 1)[0, 0]


def _splitmix64(z):
    mask = 2 ** 64 - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


# the test ids show n twice, as the stream key folds it
@pytest.mark.parametrize("r, n", [(0.2, 20), (0.5, 10), (1e-300, 3), (7.5, 500)],
                         ids=lambda v: f"{v}-{v}" if isinstance(v, int) else None)
def test_stream_ids_match_scalar_splitmix(r, n):
    ids = _cell_stream_ids(r, n, 300)
    assert ids.shape == (300, 2) and ids.dtype == np.uint64
    r_bits = struct.unpack("<Q", struct.pack("<d", r))[0]
    for rep in range(300):
        for pop in (0, 1):
            h = 0
            for part in (r_bits, n, n, rep, pop):
                h = _splitmix64(h ^ part)
            assert int(ids[rep, pop]) == h


@pytest.mark.parametrize("n, reps", [(7, 40), (3, 25), (500, 300), (20, 3300)],
                         ids=["7-7-40", "3-3-25", "500-500-300", "20-20-3300"])
def test_block_means_match_per_replication_draws(n, reps):
    # 65,536 // 500 = 131 and 65,536 // 20 = 3,276 rows per block: neither
    # 300 nor 3,300 replications fill a whole number of blocks
    cfg = SimConfig(r_values=(0.5,), sample_sizes=(n,), replications=reps, seed=29)
    m1, m2 = _draw_means(cfg, 0.5, n)
    ids = _cell_stream_ids(0.5, n, reps)
    for rep in range(reps):
        a = sample_exponential(SeededStream(29, int(ids[rep, 0])), 0.5, n).mean()
        b = sample_exponential(SeededStream(29, int(ids[rep, 1])), 1.0, n).mean()
        assert m1[rep] == a and m2[rep] == b


@pytest.mark.parametrize("n", [3, 500])
def test_draw_means_follow_their_sampling_laws(n):
    # the mean of n draws with mean theta is Gamma(n, theta/n), and m1/m2/r is
    # F(2n, 2n): a mean over n - 1 draws, a mis-scaled theta or two populations
    # on the same streams fail one of the three KS tests
    m1, m2 = _draw_means(SimConfig(replications=10_000, seed=2017), 0.5, n)
    for means, theta in ((m1, 0.5), (m2, 1.0)):
        law = scipy.stats.gamma(n, scale=theta / n)
        assert scipy.stats.kstest(means, law.cdf).pvalue >= 1e-6
    assert scipy.stats.kstest(m1 / m2 / 0.5, scipy.stats.f(2 * n, 2 * n).cdf).pvalue >= 1e-6


def test_run_cell_requires_n2_above_two():
    with pytest.raises(InsufficientSampleSize):
        run_cell(SMALL, 0.5, 2)


# --- cell statistics ----------------------------------------------------------------

def test_mse_identity(small_table):
    for cell in small_table.cells:
        for stats in cell.stats.values():
            lhs = stats.mse
            rhs = stats.variance + stats.bias ** 2
            assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1e-300)


def test_cell_stats_fields(small_table):
    cell = small_table.cell(0.5, 10)
    truth = overlap_quartet(0.5)
    for key in COEFFICIENTS:
        s = cell.stats[key]
        assert s.true_value == truth[key]
        assert s.bias == s.mean_estimate - s.true_value
        assert s.std == math.sqrt(s.variance)
        assert abs(s.ratio_bias_sigma - s.bias / s.std) <= 1e-15
        assert abs(s.mc_se - s.std / math.sqrt(SMALL.replications)) <= 1e-18


def test_study_reciprocity():
    # estimating with the two samples swapped is the r -> 1/r study on the
    # same streams; true values match exactly, biases within MC error
    reps, n, r = 400, 50, 0.5
    seed = 13
    bias = {key: 0.0 for key in COEFFICIENTS}
    bias_swapped = {key: 0.0 for key in COEFFICIENTS}
    truth = overlap_quartet(r)
    truth_recip = overlap_quartet(1.0 / r)
    for key in COEFFICIENTS:
        assert abs(truth[key] - truth_recip[key]) <= 1e-12
    se_sq = {key: 0.0 for key in COEFFICIENTS}
    ests = {key: [] for key in COEFFICIENTS}
    ests_swapped = {key: [] for key in COEFFICIENTS}
    for rep in range(reps):
        x1 = sample_exponential(SeededStream(seed, 2 * rep), r, n)
        x2 = sample_exponential(SeededStream(seed, 2 * rep + 1), 1.0, n)
        r_hat = x1.mean() / x2.mean()
        for r_val, store in ((r_hat, ests), (1.0 / r_hat, ests_swapped)):
            r_star = r_val * (n - 1) / n
            store["delta"].append(MEASURES["delta"](r_star))
            store["rho"].append(MEASURES["rho"](r_star))
            store["lambda"].append(MEASURES["lambda"](r_star))
            store["kl_lambda"].append(MEASURES["kl_lambda"](r_val))
    for key in ("delta", "rho", "lambda"):
        a = np.asarray(ests[key])
        b = np.asarray(ests_swapped[key])
        bias_a = a.mean() - truth[key]
        bias_b = b.mean() - truth_recip[key]
        se = math.hypot(a.std() / math.sqrt(reps), b.std() / math.sqrt(reps))
        assert abs(bias_a - bias_b) <= 3 * se


# --- reference comparison -------------------------------------------------------------

def test_compare_requires_reference_grid(small_table):
    assert compare_to_reference(small_table) is None
    assert compare_to_reference(run_study(SimConfig(r_values=(0.3,), sample_sizes=(20,),
                                                    replications=10))) is None
    # a study cell is its exact (r, n): one ratio 1 ulp off the grid is not graded
    near = SimConfig(r_values=(np.nextafter(0.2, 1.0), 0.5, 0.8), replications=2)
    assert compare_to_reference(run_study(near)) is None
    # the reference cells in any order are graded
    reverse = run_study(SimConfig(r_values=(0.8, 0.5, 0.2),
                                  sample_sizes=(500, 200, 100, 50, 20), replications=2))
    assert len(compare_to_reference(reverse).entries) == 120
    with pytest.raises(KeyError):
        reverse.cell(np.nextafter(0.2, 1.0), 20)


def test_reference_table_shape():
    assert len(REFERENCE_CELLS) == 15
    assert all(len(v) == 4 for v in REFERENCE_CELLS.values())
    assert all(len(pair) == 2 for v in REFERENCE_CELLS.values() for pair in v.values())
    assert len(EXCLUDED_CELLS) == 2


def test_comparison_report_structure(default_comparison):
    report = default_comparison
    # 15 cells x 4 coefficients x 2 metrics
    assert len(report.entries) == 120
    assert report.n_excluded == 2
    assert report.n_compared == 118
    assert report.n_passed == sum(e.passed for e in report.entries if not e.excluded)
    assert report.pass_fraction == report.n_passed / report.n_compared
    excluded = {(e.r, e.n, e.coefficient, e.metric)
                for e in report.entries if e.excluded}
    assert excluded == set(EXCLUDED_CELLS)


def test_comparison_tolerance_formula(default_table, default_comparison):
    for entry in default_comparison.entries:
        mc_se = default_table.cell(entry.r, entry.n).stats[entry.coefficient].mc_se
        assert entry.tolerance == max(0.01, 3.0 * mc_se)
        assert entry.passed == (entry.abs_diff <= entry.tolerance)


# --- empirical behaviour of the default study ---------------------------------------

def test_bias_shrinks_with_sample_size(default_table):
    for r in (0.2, 0.5, 0.8):
        for key in COEFFICIENTS:
            b20 = abs(default_table.cell(r, 20).stats[key].bias)
            b500 = abs(default_table.cell(r, 500).stats[key].bias)
            assert b500 < b20


def test_mse_decreases_monotonically(default_table):
    for r in (0.2, 0.5, 0.8):
        for key in COEFFICIENTS:
            mses = [default_table.cell(r, n).stats[key].mse
                    for n in (20, 50, 100, 200, 500)]
            assert all(a > b for a, b in zip(mses, mses[1:]))


def test_n500_biases_small(default_table):
    for r in (0.2, 0.5, 0.8):
        for key in COEFFICIENTS:
            assert abs(default_table.cell(r, 500).stats[key].bias) <= 0.01


# --- theory vs empirical report ---------------------------------------------------------

def test_theory_report_schema(default_table):
    report = theoretical_vs_empirical(default_table)
    assert len(report.entries) == 60
    required = {"r", "n1", "n2", "coefficient", "empirical_bias",
                "empirical_variance", "mc_se", "variance_formula",
                "variance_rel_err", "bias_formula", "bias_oracle", "closer"}
    for entry in report.entries:
        assert required <= set(entry)
        assert entry["closer"] in ("formula", "oracle", "tie")
        # the Taylor term is exactly half the published bias, minus half for KL
        sign = -1.0 if entry["coefficient"] == "kl_lambda" else 1.0
        assert 2.0 * entry["bias_oracle"] == sign * entry["bias_formula"]
    for key in COEFFICIENTS:
        assert sum(report.closer_counts[key].values()) == 15
    # the report is JSON-serializable as emitted
    json.dumps(asdict(report))


def test_theory_variances_track_empirical(default_table):
    report = theoretical_vs_empirical(default_table)
    by_key = {(e["r"], e["n1"], e["coefficient"]): e for e in report.entries}
    assert by_key[(0.5, 200, "rho")]["variance_rel_err"] <= 0.15
    assert by_key[(0.2, 500, "lambda")]["variance_rel_err"] <= 0.10


# --- file emission ------------------------------------------------------------------------

def test_csv_round_trip(tmp_path, small_table):
    path = write_cells_csv(small_table, None, tmp_path / "cells.csv")
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(small_table.cells) * 4
    for row in rows:
        cell = small_table.cell(float(row["r"]), int(row["n"]))
        stats = cell.stats[row["coefficient"]]
        assert float(row["bias"]) == stats.bias
        assert float(row["mse"]) == stats.mse
        assert float(row["ratio"]) == stats.ratio_bias_sigma
        assert float(row["mc_se"]) == stats.mc_se
        assert row["pass"] == ""  # no comparison was attached


def test_csv_columns_stable(tmp_path, small_table):
    path = write_cells_csv(small_table, None, tmp_path / "cells.csv")
    header = path.read_text().splitlines()[0]
    assert header == "r,n,coefficient,bias,mse,ratio,mc_se,reference_bias,reference_mse,pass"


def test_figure_csvs(tmp_path, small_table):
    paths = write_figure_csvs(small_table, tmp_path)
    assert sorted(p.name for p in paths) == ["bias_vs_r.csv", "mse_vs_r.csv", "std_vs_r.csv"]
    for path in paths:
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(small_table.cells) * 4


def test_summary_json(tmp_path, small_table):
    theory = theoretical_vs_empirical(small_table)
    path = write_summary_json(small_table, None, theory, tmp_path / "summary.json")
    payload = json.loads(path.read_text())
    assert payload["config"]["replications"] == SMALL.replications
    assert payload["reference_comparison"] is None
    assert len(payload["cells"]) == len(small_table.cells)
    assert len(payload["theory_comparison"]["entries"]) == len(small_table.cells) * 4


def test_emission_is_byte_deterministic(tmp_path, small_table):
    a = write_cells_csv(small_table, None, tmp_path / "a.csv").read_bytes()
    b = write_cells_csv(run_study(SMALL), None, tmp_path / "b.csv").read_bytes()
    assert a == b
