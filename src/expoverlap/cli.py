"""Command-line front end.

Subcommands:

    estimate FILE1 FILE2        point estimates with plug-in variance/bias
    ci FILE1 FILE2 --level L    ratio and overlap confidence intervals
    curves --r-min --r-max ...  coefficient-vs-ratio curve data (optional SVG)
    simulate [...]              the Monte Carlo study, CSV/JSON emission
    check                       self-check suites

Global options choose the output format (table, csv, json) and destination.
Sample files carry one observation per line; blank lines and lines starting
with '#' are ignored.

Exit codes: 0 ok, 2 unreadable input or usage error, 3 insufficient data or
bad configuration, 4 reproduction gate failure, 5 self-check failure,
6 numerical method did not converge.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from . import checks, confidence, estimation, measures, simulation
from .distributions import NonConvergence
from .estimation import EmptySample, InsufficientSampleSize, NonPositiveObservation, TwoSample
from .measures import COEFFICIENTS, QuadratureNonConvergence
from .simulation import DEFAULT_SEED, ConfigError, GridMismatch, SimConfig

EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3
EXIT_REPRODUCTION = 4
EXIT_SELF_CHECK = 5
EXIT_NONCONVERGENCE = 6


class SampleFileError(Exception):
    """A sample file could not be parsed; the message names the line."""


#: Exit code of each error a command may raise; see ``_Main.invoke``.
EXIT_CODES = {
    SampleFileError: EXIT_INPUT,
    EmptySample: EXIT_INPUT,
    NonPositiveObservation: EXIT_INPUT,
    InsufficientSampleSize: EXIT_INSUFFICIENT,
    ConfigError: EXIT_INSUFFICIENT,
    NonConvergence: EXIT_NONCONVERGENCE,
    QuadratureNonConvergence: EXIT_NONCONVERGENCE,
}


def read_sample_file(path: str) -> np.ndarray:
    values = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SampleFileError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SampleFileError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError as exc:
            raise SampleFileError(f"{path}:{lineno}: not a number: {text!r}") from exc
        if not math.isfinite(value) or value <= 0.0:
            raise SampleFileError(
                f"{path}:{lineno}: observations must be positive and finite, got {text}")
        values.append(value)
    if not values:
        raise SampleFileError(f"{path}: no observations found")
    return np.asarray(values)


@dataclass
class OutputSpec:
    format: str
    destination: str

    def write(self, text: str) -> None:
        if self.destination == "-":
            click.echo(text, nl=not text.endswith("\n"))
        else:
            Path(self.destination).write_text(text if text.endswith("\n") else text + "\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _full(value) -> str:
    return repr(float(value))


class _Main(click.Group):
    def invoke(self, ctx: click.Context):
        """Run the command; an error listed in EXIT_CODES ends it with its code."""
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)))


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]),
              default="table", show_default=True, help="Output format.")
@click.option("--output", default="-", show_default=True,
              help="Output path, or '-' for standard output; "
                   "`simulate` treats it as a directory.")
@click.pass_context
def main(ctx: click.Context, fmt: str, output: str) -> None:
    """Overlap coefficients for two exponential populations."""
    ctx.obj = OutputSpec(format=fmt, destination=output)


def _load_two_samples(file1: str, file2: str) -> TwoSample:
    return TwoSample(x1=read_sample_file(file1), x2=read_sample_file(file2))


def _render_estimate_table(report: estimation.EstimateReport) -> str:
    lines = [
        f"n1 = {report.ratio.n1}, n2 = {report.ratio.n2}",
        f"theta1_hat = {report.ratio.theta1_hat:.6g}   theta2_hat = {report.ratio.theta2_hat:.6g}",
        f"r_hat = {report.ratio.r_hat:.6g}   r_hat_star = {report.ratio.r_hat_star:.6g}"
        f"   var(r_hat_star) = {report.ratio.var_r_hat_star:.6g}",
        "",
        f"{'coefficient':<20}{'estimate':>10}{'approx var':>14}{'approx bias':>14}",
    ]
    for key in COEFFICIENTS:
        lines.append(f"{key:<20}{report.points[key]:>10.3f}"
                     f"{report.variances[key]:>14.6f}{report.biases[key]:>14.6f}")
    return "\n".join(lines)


@main.command()
@click.argument("file1")
@click.argument("file2")
@click.pass_obj
def estimate(out: OutputSpec, file1: str, file2: str) -> None:
    """Estimate the ratio and the four overlap coefficients from data files."""
    report = estimation.estimate_report(_load_two_samples(file1, file2))
    if out.format == "json":
        out.write(json.dumps(report.to_dict(), indent=2))
    elif out.format == "csv":
        rows = [(key, _full(report.points[key]), _full(report.variances[key]),
                 _full(report.biases[key])) for key in COEFFICIENTS]
        prefix = _csv_text(
            ("quantity", "value"),
            [("n1", report.ratio.n1), ("n2", report.ratio.n2),
             ("theta1_hat", _full(report.ratio.theta1_hat)),
             ("theta2_hat", _full(report.ratio.theta2_hat)),
             ("r_hat", _full(report.ratio.r_hat)),
             ("r_hat_star", _full(report.ratio.r_hat_star)),
             ("var_r_hat_star", _full(report.ratio.var_r_hat_star))])
        out.write(prefix + _csv_text(
            ("coefficient", "estimate", "approx_variance", "approx_bias"), rows))
    else:
        out.write(_render_estimate_table(report))


@main.command()
@click.argument("file1")
@click.argument("file2")
@click.option("--level", type=float, default=0.95, show_default=True,
              help="Confidence level, strictly between 0 and 1.")
@click.pass_obj
def ci(out: OutputSpec, file1: str, file2: str, level: float) -> None:
    """Confidence intervals for the ratio and each overlap coefficient."""
    if not (0.0 < level < 1.0):
        raise click.BadParameter("level must lie strictly between 0 and 1",
                                 param_hint="--level")
    estimates = estimation.ratio_estimates(_load_two_samples(file1, file2))
    r_int = confidence.ratio_ci(estimates, level=level)
    ovl_ints = confidence.all_ovl_cis(r_int)

    if out.format == "json":
        payload = {"level": level, "r_hat": estimates.r_hat,
                   "ratio": r_int.to_dict(),
                   "coefficients": {k: v.to_dict() for k, v in ovl_ints.items()}}
        out.write(json.dumps(payload, indent=2))
    elif out.format == "csv":
        rows = [("ratio", _full(r_int.lower), _full(r_int.upper),
                 str(r_int.contains_one).lower())]
        rows += [(k, _full(v.lower), _full(v.upper), str(v.contains_one).lower())
                 for k, v in ovl_ints.items()]
        out.write(_csv_text(("target", "lower", "upper", "contains_one"), rows))
    else:
        lines = [f"{100 * level:g}% confidence intervals (r_hat = {estimates.r_hat:.6g})",
                 f"{'target':<20}{'lower':>10}{'upper':>10}",
                 f"{'ratio':<20}{r_int.lower:>10.3f}{r_int.upper:>10.3f}"]
        for key, interval in ovl_ints.items():
            lines.append(f"{key:<20}{interval.lower:>10.3f}{interval.upper:>10.3f}")
        if r_int.contains_one:
            lines.append("note: the ratio interval includes 1, so every overlap "
                         "interval attains its upper limit 1.")
        out.write("\n".join(lines))


_SVG_COLORS = {"delta": "#1f77b4", "rho": "#d62728",
               "lambda": "#2ca02c", "kl_lambda": "#9467bd"}


def _curves_svg(rs: np.ndarray, series: dict[str, np.ndarray]) -> str:
    width, height, margin = 640, 420, 50
    x0, x1 = float(rs[0]), float(rs[-1])
    span = x1 - x0 or 1.0

    def sx(r):
        return margin + (r - x0) / span * (width - 2 * margin)

    def sy(v):
        return height - margin - v * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">ratio r</text>',
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height / 2:.0f})">overlap</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(f'<line x1="{margin - 4}" y1="{y:.1f}" x2="{margin}" y2="{y:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{frac:g}</text>')
    for frac in np.linspace(0.0, 1.0, 5):
        r = x0 + frac * span
        x = sx(r)
        parts.append(f'<line x1="{x:.1f}" y1="{height - margin}" x2="{x:.1f}" '
                     f'y2="{height - margin + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - margin + 16}" text-anchor="middle" '
                     f'font-size="11">{r:.3g}</text>')
    for i, (key, vals) in enumerate(series.items()):
        points = " ".join(f"{sx(r):.2f},{sy(v):.2f}" for r, v in zip(rs, vals))
        color = _SVG_COLORS[key]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        y = margin + 16 * i
        parts.append(f'<line x1="{width - margin - 120}" y1="{y}" '
                     f'x2="{width - margin - 96}" y2="{y}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - margin - 90}" y="{y + 4}" '
                     f'font-size="12">{key}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@main.command()
@click.option("--r-min", type=float, required=True)
@click.option("--r-max", type=float, required=True)
@click.option("--points", type=int, default=101, show_default=True)
@click.option("--svg", "svg_path", default=None, help="Also write an SVG line chart here.")
@click.pass_obj
def curves(out: OutputSpec, r_min: float, r_max: float, points: int,
           svg_path: str | None) -> None:
    """Tabulate the four coefficients on a ratio grid (plot-ready)."""
    if not (0.0 < r_min < r_max) or not math.isfinite(r_max):
        raise click.BadParameter("need 0 < r-min < r-max", param_hint="--r-min/--r-max")
    if points < 2:
        raise click.BadParameter("need at least 2 points", param_hint="--points")

    rs = np.linspace(r_min, r_max, points)
    series = measures.overlap_quartet(rs)

    if svg_path:
        Path(svg_path).write_text(_curves_svg(rs, series))

    if out.format == "json":
        payload = {"r": [float(r) for r in rs]}
        payload.update({key: [float(v) for v in series[key]] for key in COEFFICIENTS})
        out.write(json.dumps(payload, indent=2))
    elif out.format == "csv":
        rows = [(_full(r), *(_full(series[key][i]) for key in COEFFICIENTS))
                for i, r in enumerate(rs)]
        out.write(_csv_text(("r",) + COEFFICIENTS, rows))
    else:
        lines = [f"{'r':>10}" + "".join(f"{key:>12}" for key in COEFFICIENTS)]
        for i, r in enumerate(rs):
            lines.append(f"{r:>10.4f}" + "".join(
                f"{series[key][i]:>12.3f}" for key in COEFFICIENTS))
        out.write("\n".join(lines))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


@main.command()
@click.option("--r", "r_text", default=None, help="Comma-separated ratio values.")
@click.option("--n", "n_text", default=None, help="Comma-separated sample sizes.")
@click.option("--reps", type=int, default=None, help="Replications per cell.")
@click.option("--seed", type=int, default=None, help=f"RNG seed (default {DEFAULT_SEED}).")
@click.option("--theta2", type=float, default=None, help="Scale anchor of population 2.")
@click.option("--lambda-corrected", is_flag=True,
              help="Evaluate the KL overlap at the corrected ratio r_hat_star.")
@click.pass_obj
def simulate(out: OutputSpec, r_text: str | None, n_text: str | None,
             reps: int | None, seed: int | None, theta2: float | None,
             lambda_corrected: bool) -> None:
    """Run the Monte Carlo study; write cell, figure and summary files.

    Emits cells.csv, bias_vs_r.csv, std_vs_r.csv, mse_vs_r.csv and
    summary.json into the output directory.  On the default grid the cells
    are also graded against the embedded reference values; the command exits
    4 when fewer than 90% of the non-excluded cells agree.
    """
    kwargs = {}
    try:
        if r_text is not None:
            kwargs["r_values"] = _parse_float_list(r_text)
        if n_text is not None:
            kwargs["size_pairs"] = tuple((n, n) for n in _parse_int_list(n_text))
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--r/--n")
    if reps is not None:
        kwargs["replications"] = reps
    if seed is not None:
        kwargs["seed"] = seed
    if theta2 is not None:
        kwargs["theta2"] = theta2
    kwargs["lambda_uses_corrected_ratio"] = lambda_corrected

    cfg = SimConfig(**kwargs)

    out_dir = Path("simulation_output" if out.destination == "-" else out.destination)
    out_dir.mkdir(parents=True, exist_ok=True)

    table = simulation.run_study(cfg)
    try:
        comparison = simulation.compare_to_reference(table)
    except GridMismatch:
        comparison = None
    theory = simulation.theoretical_vs_empirical(table)

    simulation.write_cells_csv(table, comparison, out_dir / "cells.csv")
    simulation.write_figure_csvs(table, out_dir)
    simulation.write_summary_json(table, comparison, theory, out_dir / "summary.json")

    if comparison is None:
        verdict = "reference comparison skipped (non-reference grid)"
    else:
        verdict = (f"reference comparison: {comparison.n_passed}/{comparison.n_compared} "
                   f"cells within tolerance ({comparison.pass_fraction:.1%}), "
                   f"{comparison.n_excluded} excluded -> "
                   f"{'PASS' if comparison.overall_pass else 'FAIL'}")
    summary = {"output_dir": str(out_dir), "verdict": verdict,
               "overall_pass": comparison.overall_pass if comparison else None}
    if out.format == "json":
        click.echo(json.dumps(summary, indent=2))
    else:
        click.echo(f"wrote {out_dir}/cells.csv, "
                   f"{', '.join(sorted(simulation.FIGURE_FILES.values()))}, summary.json")
        click.echo(verdict)

    if comparison is not None and not comparison.overall_pass:
        sys.exit(EXIT_REPRODUCTION)


@main.command()
@click.option("--seed", type=click.IntRange(0, 2 ** 64 - 1), default=DEFAULT_SEED,
              show_default=True)
@click.pass_obj
def check(out: OutputSpec, seed: int) -> None:
    """Run the self-check suites; exit 5 if any suite fails."""
    results = checks.run_all(seed=seed)
    if out.format == "json":
        out.write(json.dumps({"seed": seed,
                              "passed": all(r.passed for r in results),
                              "suites": [asdict(r) for r in results]}, indent=2))
    else:
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            click.echo(f"{result.name:<24} {status}  ({result.n_checks} checks)")
            for failure in result.failures[:10]:
                click.echo(f"    {failure}")
    if not all(r.passed for r in results):
        sys.exit(EXIT_SELF_CHECK)


if __name__ == "__main__":
    main()
