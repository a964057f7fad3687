"""Seeded Monte Carlo study of the four overlap estimators.

For every grid cell (r, n) the engine draws ``replications`` independent
pairs of exponential samples of size n with means r and 1 (the coefficients
and the estimator laws depend on the populations only through
r = theta1 / theta2), computes the four plug-in estimators, and aggregates
empirical bias, MSE, bias/sigma and the Monte Carlo standard error of the
bias.

Determinism: streams are keyed by (seed, r, n, replication, population), so
results are bit-identical across runs, thread counts and grid compositions,
and ``run_cell`` reproduces exactly the cell that ``run_study`` would
produce.  A cell's stream ids are one numpy expression.  Its samples are
drawn in blocks of about _BLOCK_UNIFORMS variates: ``SeededStream.block``
keys a block's streams from their uint64 ids, each stream draws one
replication's row with one ``uniforms`` call, and rows are reduced
row-wise, bitwise as if drawn one replication at a time.

``compare_to_reference`` grades a default-grid table against the embedded
reference dataset at tolerance max(0.01, 3 * mc_se) per cell;
``theoretical_vs_empirical`` tabulates the closed-form variance and both
bias approximations against the empirical moments and records which bias
version lands closer.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import estimation, measures
from ._inputs import _integer, _positive, _real
from .distributions import SeededStream, sample_exponential
from .estimation import InsufficientSampleSize
from .measures import COEFFICIENTS
from .reference import (
    EXCLUDED_CELLS,
    REFERENCE_CELLS,
    REFERENCE_R_VALUES,
    REFERENCE_SAMPLE_SIZES,
)

DEFAULT_SEED = 123456789

#: Absolute floor of the reproduction tolerance max(floor, 3 * mc_se).
TOLERANCE_FLOOR = 0.01

#: Required fraction of non-excluded cells within tolerance.
PASS_FRACTION_REQUIRED = 0.90


class ConfigError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    """Study design: grid of ratios and sample sizes, replication count and seed."""

    r_values: tuple[float, ...] = REFERENCE_R_VALUES
    sample_sizes: tuple[int, ...] = REFERENCE_SAMPLE_SIZES
    replications: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        r_values = _positive("r_values", self.r_values, ConfigError, ndim=1)
        object.__setattr__(self, "r_values", tuple(r_values.tolist()))
        if np.ndim(self.sample_sizes) != 1:
            raise ConfigError(f"sample_sizes must be a sequence, got {self.sample_sizes!r}")
        object.__setattr__(self, "sample_sizes", tuple(
            _integer("each sample size", n, error=ConfigError) for n in self.sample_sizes))
        object.__setattr__(self, "replications",
                           _integer("replications", self.replications, 2, ConfigError))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, ConfigError, 2 ** 64,
                                                  "be an unsigned 64-bit integer"))
        if not self.sample_sizes or min(self.sample_sizes) < 3:
            raise ConfigError(f"sample_sizes must be nonempty with every n >= 3, "
                              f"got {list(self.sample_sizes)}")

    def cells(self) -> list[tuple[float, int]]:
        return [(r, n) for r in self.r_values for n in self.sample_sizes]

    def to_dict(self) -> dict:
        # theta2, the equal sizes and the KL rule are constants, still echoed
        # so summary.json keeps its bytes
        return {**asdict(self), "theta2": 1.0, "equal_sample_sizes": True,
                "unequal_pairs": None, "lambda_uses_corrected_ratio": False}


@dataclass(frozen=True)
class CellStats:
    """Empirical sampling moments of one estimator in one cell."""

    true_value: float
    mean_estimate: float
    bias: float
    variance: float
    std: float
    mse: float
    ratio_bias_sigma: float
    mc_se: float


@dataclass(frozen=True)
class SimCell:
    r: float
    n: int
    stats: dict[str, CellStats]


@dataclass(frozen=True)
class SimulationTable:
    config: SimConfig
    cells: list[SimCell] = field(repr=False)

    def cell(self, r: float, n: int) -> SimCell:
        for cell in self.cells:
            if (cell.r, cell.n) == (r, n):
                return cell
        raise KeyError(f"no cell (r={r}, n={n}) in table")


#: Uniforms per block of replications drawn and reduced at once (512 KiB).
_BLOCK_UNIFORMS = 65_536


def _cell_stream_ids(r: float, n: int, replications: int) -> np.ndarray:
    """64-bit substream selectors, shape (replications, 2): splitmix64 folded
    over the bits of r, then n twice, the replication and the population."""
    h = np.zeros(1, dtype=np.uint64)
    for part in (np.float64(r).view(np.uint64), n, n,
                 np.arange(replications, dtype=np.uint64)[:, None],
                 np.arange(2, dtype=np.uint64)):
        h = (h ^ part) + 0x9E3779B97F4A7C15
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB
        h ^= h >> 31
    return h


def _draw_means(cfg: SimConfig, r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample means of every replication's two samples, one substream each."""
    ids = _cell_stream_ids(r, n, cfg.replications)
    rows = max(1, _BLOCK_UNIFORMS // n)
    means = np.empty((2, cfg.replications))
    for pop, theta in enumerate((r, 1.0)):
        for start in range(0, cfg.replications, rows):
            streams = SeededStream.block(cfg.seed, ids[start:start + rows, pop])
            means[pop, start:start + rows] = sample_exponential(streams, theta, n).mean(axis=1)
    return means[0], means[1]


def run_cell(cfg: SimConfig, r: float, n: int) -> SimCell:
    """Simulate one grid cell: two samples of size n per replication.

    Sampling uses substreams keyed only by (seed, r, n, replication,
    population), so the same cell simulated standalone or inside run_study
    yields identical results.
    """
    r, n = _real("r", r, ConfigError), _integer("n", n, 3, InsufficientSampleSize)

    try:
        with np.errstate(over="raise"):
            m1, m2 = _draw_means(cfg, r, n)
            r_hat = m1 / m2
    except FloatingPointError:
        raise ConfigError(f"ratio {r!r} overflows the float range in its draws, "
                          "sample means or r_hat") from None
    if not np.all(r_hat > 0):
        raise ConfigError(f"ratio {r!r} underflows to an r_hat of 0 in its draws or sample means")
    estimates = estimation.ovl_point_estimates(r_hat, estimation.corrected_ratio(r_hat, n))
    truth = measures.overlap_quartet(r)

    stats: dict[str, CellStats] = {}
    for key in COEFFICIENTS:
        est = estimates[key]
        true_value = truth[key]
        mean_estimate = float(np.mean(est))
        bias = mean_estimate - true_value
        variance = float(np.mean((est - mean_estimate) ** 2))
        std = math.sqrt(variance)
        mse = float(np.mean((est - true_value) ** 2))
        stats[key] = CellStats(
            true_value=true_value,
            mean_estimate=mean_estimate,
            bias=bias,
            variance=variance,
            std=std,
            mse=mse,
            ratio_bias_sigma=bias / std if std > 0 else math.nan,
            mc_se=std / math.sqrt(cfg.replications),
        )
    return SimCell(r=r, n=n, stats=stats)


def run_study(cfg: SimConfig) -> SimulationTable:
    """Simulate every cell of the configured grid."""
    cells = [run_cell(cfg, r, n) for r, n in cfg.cells()]
    return SimulationTable(config=cfg, cells=cells)


# ---------------------------------------------------------------------------
# Comparison against the embedded reference dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonEntry:
    r: float
    n: int
    coefficient: str
    metric: str          # "bias" or "mse"
    empirical: float
    reference: float
    abs_diff: float
    tolerance: float
    passed: bool
    excluded: bool


@dataclass(frozen=True)
class ComparisonReport:
    n_compared: int
    n_passed: int
    n_excluded: int
    pass_fraction: float
    overall_pass: bool
    required_fraction: float = field(default=PASS_FRACTION_REQUIRED, init=False)
    entries: list[ComparisonEntry] = field(repr=False)


def compare_to_reference(table: SimulationTable) -> ComparisonReport | None:
    """Grade a default-grid study against the embedded reference values.

    Per cell, coefficient and metric (bias, mse) the check is
    |empirical - reference| <= max(0.01, 3 * mc_se); excluded cells are
    reported but not graded.  Returns None off the exact reference (r, n) cells.
    """
    if sorted((c.r, c.n) for c in table.cells) != sorted(REFERENCE_CELLS):
        return None

    entries: list[ComparisonEntry] = []
    for cell in table.cells:
        for coeff in COEFFICIENTS:
            stats = cell.stats[coeff]
            tolerance = max(TOLERANCE_FLOOR, 3.0 * stats.mc_se)
            for metric, empirical, reference in zip(("bias", "mse"), (stats.bias, stats.mse),
                                                    REFERENCE_CELLS[cell.r, cell.n][coeff]):
                diff = abs(empirical - reference)
                entries.append(ComparisonEntry(
                    r=cell.r, n=cell.n, coefficient=coeff, metric=metric,
                    empirical=empirical, reference=reference, abs_diff=diff,
                    tolerance=tolerance, passed=diff <= tolerance,
                    excluded=(cell.r, cell.n, coeff, metric) in EXCLUDED_CELLS))

    graded = [e for e in entries if not e.excluded]
    n_passed = sum(e.passed for e in graded)
    fraction = n_passed / len(graded)
    return ComparisonReport(entries=entries, n_compared=len(graded), n_passed=n_passed,
                            n_excluded=len(entries) - len(graded), pass_fraction=fraction,
                            overall_pass=fraction >= PASS_FRACTION_REQUIRED)


# ---------------------------------------------------------------------------
# Theoretical approximations vs empirical moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryComparisonReport:
    """Closed-form variance and both bias versions against simulation."""

    entries: list[dict] = field(repr=False)
    closer_counts: dict[str, dict[str, int]]


def theoretical_vs_empirical(table: SimulationTable) -> TheoryComparisonReport:
    """Tabulate approximation formulas against empirical moments per cell.

    For each coefficient the report records the first-order variance formula,
    the published bias formula, the Taylor bias 0.5 * g''(R) * Var(R*) and
    which bias version is closer to the empirical bias ("formula", "oracle",
    or "tie" where neither distance is smaller, a NaN included).
    """
    entries: list[dict] = []
    closer_counts: dict[str, dict[str, int]] = {
        key: {"formula": 0, "oracle": 0, "tie": 0} for key in COEFFICIENTS}
    for cell in table.cells:
        variances, biases = estimation.taylor_moments(cell.r, cell.n, cell.n)
        for key in COEFFICIENTS:
            stats = cell.stats[key]
            var_th = variances[key]
            oracle = (-0.5 if key == "kl_lambda" else 0.5) * biases[key]
            var_rel_err = (abs(var_th - stats.variance) / stats.variance
                           if stats.variance > 0 else math.nan)
            d_formula = abs(biases[key] - stats.bias)
            d_oracle = abs(oracle - stats.bias)
            closer = ("formula" if d_formula < d_oracle else "oracle" if d_oracle < d_formula
                      else "tie")
            closer_counts[key][closer] += 1
            entries.append({
                "r": cell.r, "n1": cell.n, "n2": cell.n, "coefficient": key,
                "empirical_bias": stats.bias,
                "empirical_variance": stats.variance,
                "mc_se": stats.mc_se,
                "variance_formula": var_th,
                "variance_rel_err": var_rel_err,
                "bias_formula": biases[key],
                "bias_oracle": oracle,
                "closer": closer,
            })
    return TheoryComparisonReport(entries=entries, closer_counts=closer_counts)


# ---------------------------------------------------------------------------
# File emission (schema-stable CSV and JSON)
# ---------------------------------------------------------------------------

CELLS_CSV_COLUMNS = ("r", "n", "coefficient", "bias", "mse", "ratio", "mc_se",
                     "reference_bias", "reference_mse", "pass")

FIGURE_FILES = {
    "bias": "bias_vs_r.csv",
    "std": "std_vs_r.csv",
    "mse": "mse_vs_r.csv",
}


def _fmt(value: float) -> str:
    """Full-precision float text; round-trips exactly through float()."""
    return repr(float(value))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(path: str | Path, text: str) -> Path:
    """Write text to path; a nameless OSError (failed write or close) names it as given."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise
    return Path(path)


def write_cells_csv(table: SimulationTable, comparison: ComparisonReport | None,
                    path: str | Path) -> Path:
    """One row per cell x coefficient, full precision, fixed column order; a
    graded cell passes when each of its non-excluded entries does."""
    entries = {(e.r, e.n, e.coefficient, e.metric): e
               for e in (comparison.entries if comparison else ())}
    rows = []
    for cell in table.cells:
        for coeff in COEFFICIENTS:
            s = cell.stats[coeff]
            bias, mse = (entries.get((cell.r, cell.n, coeff, m)) for m in ("bias", "mse"))
            grade = ["", "", ""] if bias is None else [
                _fmt(bias.reference), _fmt(mse.reference),
                "true" if all(e.passed for e in (bias, mse) if not e.excluded) else "false"]
            rows.append([_fmt(cell.r), cell.n, coeff, _fmt(s.bias), _fmt(s.mse),
                         _fmt(s.ratio_bias_sigma), _fmt(s.mc_se), *grade])
    return _write(path, _csv_text(CELLS_CSV_COLUMNS, rows))


def write_figure_csvs(table: SimulationTable, out_dir: str | Path) -> list[Path]:
    """Plot-ready series versus r, per n, of each CellStats field FIGURE_FILES names."""
    paths = []
    for metric, filename in FIGURE_FILES.items():
        rows = ([_fmt(cell.r), cell.n, coeff, _fmt(getattr(cell.stats[coeff], metric))]
                for cell in table.cells for coeff in COEFFICIENTS)
        paths.append(_write(Path(out_dir) / filename,
                            _csv_text(("r", "n", "coefficient", metric), rows)))
    return paths


def write_summary_json(table: SimulationTable, comparison: ComparisonReport | None,
                       theory: TheoryComparisonReport | None,
                       path: str | Path) -> Path:
    payload = {
        "config": table.config.to_dict(),
        "cells": [
            {"r": cell.r, "n1": cell.n, "n2": cell.n,
             "stats": {k: asdict(v) for k, v in cell.stats.items()}}
            for cell in table.cells
        ],
        "reference_comparison": asdict(comparison) if comparison else None,
        "theory_comparison": asdict(theory) if theory else None,
    }
    return _write(path, json.dumps(payload, indent=2) + "\n")
