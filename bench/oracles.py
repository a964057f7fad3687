"""Checks made apart from the program.

Nothing here imports the package under test.  The four closed forms are
written out from their definitions in the project README; the exact
sampling moments of the estimators come from scipy quadrature over the
F(2 n1, 2 n2) law of r_hat / r; F quantiles come from ``scipy.stats.f``;
the sampling-law gates of ``check`` are recomputed from the documented
stream keying with numpy's Philox and scipy's gamma and F laws.

Each ``check_*`` function returns a list of problems, empty when the
operation's output is right.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special, stats

COEFFICIENTS = ("delta", "rho", "lambda", "kl_lambda")


def _delta(r):
    return 1.0 if r == 1.0 else 1.0 - abs(1.0 - 1.0 / r) * r ** (1.0 / (1.0 - r))


CLOSED_FORMS = {
    "delta": _delta,
    "rho": lambda r: 2.0 * math.sqrt(r) / (1.0 + r),
    "lambda": lambda r: 4.0 * r / ((1.0 + r) * (1.0 + r)),
    "kl_lambda": lambda r: r / (r * r - r + 1.0),
}


def _close(got, want, rel=0.0, abs_=0.0) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= abs_ + rel * abs(want))


# ---------------------------------------------------------------------------
# study: exact bias and MSE of each estimator over the F law of r_hat / r
# ---------------------------------------------------------------------------

STUDY_R = (0.2, 0.5, 0.8)
STUDY_N = (20, 50, 100, 200, 500)
STUDY_REPS = 10_000
FIGURE_FILES = ("bias_vs_r.csv", "std_vs_r.csv", "mse_vs_r.csv")
#: Allowed distance between a simulated moment and the exact one, in exact
#: Monte Carlo standard errors.
Z_GATE = 6.0


def _f_expectation(h, d1: int, d2: int, breaks=()) -> float:
    """E[h(X)] for X ~ F(d1, d2), split at the given points and the bulk."""
    a, b = d1 / 2.0, d2 / 2.0
    log_norm = a * math.log(d1 / d2) - special.betaln(a, b)

    def pdf(x):
        if x <= 0.0:
            return 0.0
        return math.exp(log_norm + (a - 1.0) * math.log(x)
                        - (a + b) * math.log1p(d1 * x / d2))

    law = stats.f(d1, d2)
    top = float(law.isf(1e-17))
    edges = {0.0, top, *(float(q) for q in law.ppf([1e-6, 0.1, 0.5, 0.9, 1 - 1e-6]))}
    edges |= {float(p) for p in breaks if 0.0 < p < top}
    edges = sorted(edges)
    return math.fsum(
        integrate.quad(lambda x: h(x) * pdf(x), lo, hi, epsabs=1e-17, epsrel=1e-11,
                       limit=400)[0]
        for lo, hi in zip(edges, edges[1:]))


def exact_study_moments(replications: int = STUDY_REPS) -> dict:
    """(r, n, coefficient) -> exact bias, MSE and their Monte Carlo errors.

    delta, rho and lambda plug in R* = R_hat (n-1)/n; the KL overlap plugs in
    R_hat.  The Monte Carlo standard errors of a ``replications``-draw mean
    follow from the exact second and fourth moments of the estimator's error.
    """
    d = 2 * STUDY_N[0]
    mean = _f_expectation(lambda x: x, d, d)
    if not math.isclose(mean, d / (d - 2.0), rel_tol=1e-9):
        raise AssertionError(f"F-law oracle off: E[X] = {mean!r}, want {d / (d - 2.0)!r}")

    out = {}
    for r in STUDY_R:
        for n in STUDY_N:
            for key, g in CLOSED_FORMS.items():
                scale = 1.0 if key == "kl_lambda" else (n - 1.0) / n
                truth = g(r)

                def err(x, g=g, scale=scale, truth=truth):
                    return g(scale * r * x) - truth

                kink = 1.0 / (scale * r)
                bias = _f_expectation(err, 2 * n, 2 * n, (kink,))
                mse = _f_expectation(lambda x: err(x) ** 2, 2 * n, 2 * n, (kink,))
                m4 = _f_expectation(lambda x: err(x) ** 4, 2 * n, 2 * n, (kink,))
                out[(r, n, key)] = {
                    "truth": truth, "bias": bias, "mse": mse,
                    "bias_se": math.sqrt(max(mse - bias * bias, 0.0) / replications),
                    "mse_se": math.sqrt(max(m4 - mse * mse, 0.0) / replications),
                }
    return out


def check_study(op_dir: Path, seed: int, exit_code: int, moments: dict) -> list[str]:
    """The five files of one ``simulate`` run against the exact moments."""
    problems = []
    try:
        summary = json.loads((op_dir / "summary.json").read_text())
        with (op_dir / "cells.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        figures = {}
        for name in FIGURE_FILES:
            with (op_dir / name).open(newline="") as fh:
                figures[name] = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]

    cfg = summary["config"]
    if (cfg["seed"] != seed or cfg["replications"] != STUDY_REPS
            or tuple(cfg["r_values"]) != STUDY_R or tuple(cfg["sample_sizes"]) != STUDY_N
            or cfg["lambda_uses_corrected_ratio"]):
        problems.append(f"config echo {cfg} does not match the request")
    graded = summary["reference_comparison"]
    if graded is None or exit_code != (0 if graded["overall_pass"] else 4):
        problems.append(f"exit code {exit_code} does not match the table grade")

    stats_by_cell = {(c["r"], c["n1"]): c["stats"] for c in summary["cells"]}
    if len(rows) != len(moments) or len(stats_by_cell) != len(STUDY_R) * len(STUDY_N):
        problems.append(f"{len(rows)} rows in cells.csv, expected {len(moments)}")
    for row in rows:
        r, n, key = float(row["r"]), int(row["n"]), row["coefficient"]
        exact = moments.get((r, n, key))
        s = stats_by_cell.get((r, n), {}).get(key)
        if exact is None or s is None:
            problems.append(f"unexpected row {r}, {n}, {key}")
            continue
        bias, mse = float(row["bias"]), float(row["mse"])
        if abs(bias - exact["bias"]) > Z_GATE * exact["bias_se"]:
            problems.append(f"bias {key}({r},{n}) = {bias:.6g}, exact {exact['bias']:.6g} "
                            f"+- {Z_GATE:g} x {exact['bias_se']:.2g}")
        if abs(mse - exact["mse"]) > Z_GATE * exact["mse_se"]:
            problems.append(f"mse {key}({r},{n}) = {mse:.6g}, exact {exact['mse']:.6g} "
                            f"+- {Z_GATE:g} x {exact['mse_se']:.2g}")
        if not _close(s["true_value"], exact["truth"], abs_=1e-12):
            problems.append(f"true value {key}({r}) = {s['true_value']!r}")
        if (s["bias"] != bias or s["mse"] != mse
                or not _close(float(row["mc_se"]), s["std"] / math.sqrt(STUDY_REPS), rel=1e-12)
                or not _close(s["std"], math.sqrt(s["variance"]), rel=1e-12)):
            problems.append(f"cells.csv and summary.json disagree at {key}({r},{n})")
    for name, metric in zip(FIGURE_FILES, ("bias", "std", "mse")):
        for row in figures[name]:
            s = stats_by_cell.get((float(row["r"]), int(row["n"])), {}).get(row["coefficient"])
            if s is None or float(row[metric]) != s[metric]:
                problems.append(f"{name} row {row} disagrees with summary.json")
                break
    return problems


# ---------------------------------------------------------------------------
# inference: estimate and ci on sample files
# ---------------------------------------------------------------------------


def parse_sample(path: Path) -> list[float]:
    return [float(line) for line in path.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


class PairTruth:
    """What ``estimate`` and ``ci`` must report for one pair of files."""

    def __init__(self, x1: list[float], x2: list[float]) -> None:
        self.n1, self.n2 = len(x1), len(x2)
        self.theta1 = math.fsum(x1) / self.n1
        self.theta2 = math.fsum(x2) / self.n2
        self.r_hat = self.theta1 / self.theta2
        self.r_star = self.r_hat * (self.n2 - 1.0) / self.n2


def _derivative(g, r: float) -> float:
    h = 1e-6 * r
    return (g(r + h) - g(r - h)) / (2.0 * h)


def check_estimate(payload: dict, truth: PairTruth) -> list[str]:
    """Points at r_hat_star (r_hat for KL) and first-order variances."""
    problems = []
    if payload["n1"] != truth.n1 or payload["n2"] != truth.n2:
        problems.append(f"sizes {payload['n1']},{payload['n2']} != {truth.n1},{truth.n2}")
    for key, want in (("theta1_hat", truth.theta1), ("theta2_hat", truth.theta2),
                      ("r_hat", truth.r_hat), ("r_hat_star", truth.r_star)):
        if not _close(payload[key], want, rel=1e-12):
            problems.append(f"{key} = {payload[key]!r}, want {want!r}")
    c = (truth.n1 + truth.n2 - 1.0) / (truth.n1 * (truth.n2 - 2.0))
    var_r = truth.r_star ** 2 * c
    if not _close(payload["var_r_hat_star"], var_r, rel=1e-10):
        problems.append(f"var_r_hat_star = {payload['var_r_hat_star']!r}, want {var_r!r}")
    for key, g in CLOSED_FORMS.items():
        at = truth.r_hat if key == "kl_lambda" else truth.r_star
        if not _close(payload["points"][key], g(at), abs_=1e-10):
            problems.append(f"point {key} = {payload['points'][key]!r}, want {g(at)!r}")
        var = _derivative(g, truth.r_star) ** 2 * var_r
        if not _close(payload["variances"][key], var, rel=1e-5, abs_=1e-15):
            problems.append(f"variance {key} = {payload['variances'][key]!r}, want {var!r}")
    return problems


def _ovl_interval(g, lo: float, hi: float) -> tuple[float, float, bool]:
    """Straddle rule: the overlap image of a ratio interval."""
    if hi <= 1.0:
        return g(lo), g(hi), False
    if lo >= 1.0:
        return g(hi), g(lo), False
    return min(g(lo), g(hi)), 1.0, True


def check_ci(payload: dict, truth: PairTruth, level: float) -> list[str]:
    """Ratio interval from scipy's F quantiles; overlap intervals by the
    straddle rule applied to the reported ratio interval."""
    problems = []
    if payload["level"] != level:
        problems.append(f"level {payload['level']!r} != {level!r}")
    if not _close(payload["r_hat"], truth.r_hat, rel=1e-12):
        problems.append(f"r_hat = {payload['r_hat']!r}, want {truth.r_hat!r}")
    law = stats.f(2 * truth.n1, 2 * truth.n2)
    alpha = 1.0 - level
    ratio = payload["ratio"]
    for end, prob in (("lower", 1.0 - alpha / 2.0), ("upper", alpha / 2.0)):
        q = float(law.ppf(prob))
        want = truth.r_hat / q
        # f_quantile promises |F(q) - prob| <= 1e-10; allow twice that.
        rel = 2e-10 / (float(law.pdf(q)) * q) + 1e-12
        if not _close(ratio[end], want, rel=rel):
            problems.append(f"ratio {end} = {ratio[end]!r}, want {want!r} (rel {rel:.1e})")
    lo, hi = ratio["lower"], ratio["upper"]
    if ratio["contains_one"] != (lo < 1.0 < hi) or ratio["level"] != level:
        problems.append("ratio interval flags wrong")
    for key, g in CLOSED_FORMS.items():
        got = payload["coefficients"][key]
        want_lo, want_hi, straddles = _ovl_interval(g, lo, hi)
        if (not _close(got["lower"], want_lo, abs_=1e-12)
                or not _close(got["upper"], want_hi, abs_=1e-12)
                or got["contains_one"] != straddles or got["target"] != key):
            problems.append(f"{key} interval {got}, want ({want_lo!r}, {want_hi!r}, "
                            f"{straddles})")
    return problems


# ---------------------------------------------------------------------------
# selfcheck: the check command's suites
# ---------------------------------------------------------------------------

SUITE_CHECKS = {"closed_form_anchors": 12, "oracle_equivalence": 200,
                "structural_properties": 20, "quantile_accuracy": 105,
                "distribution_laws": 4}
LAW_GATES = {"mean": "mean of theta_hat", "variance": "variance of theta_hat",
             "gamma_ks": "gamma law KS", "f_ks": "F law KS"}


def _uniforms(seed: int, stream_id: int, n: int) -> np.ndarray:
    """The documented stream: Philox keyed by (stream_id << 64) | seed,
    mapped through ((raw >> 11) + 0.5) * 2^-53."""
    raw = np.random.Philox(key=(stream_id << 64) | seed).random_raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def law_gates(seed: int, replications: int = 100_000, n_obs: int = 20,
              alpha: float = 0.01) -> dict[str, tuple[float, float]]:
    """Each sampling-law gate of ``check``: (statistic, limit)."""
    means = -np.log(_uniforms(seed, 11, replications * n_obs)).reshape(
        replications, n_obs).mean(axis=1)
    other = -np.log(_uniforms(seed, 12, replications * n_obs)).reshape(
        replications, n_obs).mean(axis=1)
    crit = math.sqrt(math.log(2.0 / alpha) / (2.0 * replications))
    gamma = stats.gamma(n_obs, scale=1.0 / n_obs)
    f_law = stats.f(2 * n_obs, 2 * n_obs)
    return {
        "mean": (abs(means.mean() - 1.0), 3.0 / math.sqrt(n_obs * replications)),
        "variance": (abs(means.var() - 1.0 / n_obs), 0.05 / n_obs),
        "gamma_ks": (stats.kstest(means, gamma.cdf).statistic, crit),
        "f_ks": (stats.kstest(means / other, f_law.cdf).statistic, crit),
    }


def check_selfcheck(payload: dict, seed: int, exit_code: int) -> tuple[list[str], bool]:
    """(problems, whether the sampling-law suite rejected this seed)."""
    problems = []
    suites = {s["name"]: s for s in payload.get("suites", [])}
    if payload.get("seed") != seed or list(suites) != list(SUITE_CHECKS):
        return [f"unexpected report header: seed {payload.get('seed')}, "
                f"suites {list(suites)}"], False
    for name, count in SUITE_CHECKS.items():
        s = suites[name]
        if s["n_checks"] != count or s["passed"] != (not s["failures"]):
            problems.append(f"{name}: {s['n_checks']} checks, passed={s['passed']}, "
                            f"{len(s['failures'])} failures")
        elif name != "distribution_laws" and not s["passed"]:
            problems.append(f"{name} failed: {s['failures'][:3]}")
    passed = all(s["passed"] for s in suites.values())
    if payload["passed"] != passed or exit_code != (0 if passed else 5):
        problems.append(f"exit code {exit_code} / passed={payload['passed']} inconsistent")

    laws = suites["distribution_laws"]
    reported = {gate for gate, prefix in LAW_GATES.items()
                if any(f.startswith(prefix) for f in laws["failures"])}
    if len(reported) != len(laws["failures"]):
        problems.append(f"unrecognised sampling-law failure: {laws['failures']}")
    for gate, (stat, limit) in law_gates(seed).items():
        if abs(stat - limit) <= 1e-9 * limit:
            continue  # too close to the gate to call either way
        if (stat > limit) != (gate in reported):
            problems.append(f"sampling law {gate}: statistic {stat:.6g} vs limit "
                            f"{limit:.6g}, but the program reported "
                            f"{'a failure' if gate in reported else 'a pass'}")
    return problems, bool(laws["failures"])


def rejections_plausible(rejections: int, runs: int, level: float = 0.03,
                         tail: float = 1e-6) -> bool:
    """False when ``rejections`` of ``runs`` seeds is far above the gates'
    nominal rejection rate: the binomial tail P(X >= rejections) < ``tail``."""
    if rejections == 0:
        return True
    return float(stats.binom.sf(rejections - 1, runs, level)) >= tail
