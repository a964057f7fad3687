"""Command-line front end.

Subcommands:

    estimate FILE1 FILE2        point estimates with plug-in variance/bias
    ci FILE1 FILE2 --level L    ratio and overlap confidence intervals
    curves --r-min --r-max ...  coefficient-vs-ratio curve data (plot-ready)
    simulate [...]              the Monte Carlo study, CSV/JSON emission
    check                       self-check suites

Global options choose the output format (table, csv, json) and destination.
Sample files are UTF-8 text, split into lines by ``str.splitlines`` and
stripped by ``str.strip``; a leading byte-order mark is ignored.  A blank
line is skipped, and so is a line whose first non-blank character is '#', the
only place '#' opens a comment.  Every other line holds one value in Python
``float`` syntax, positive and finite.  The text is split once.  Leading blank
or '#' lines, then values and empty lines, are parsed in one pass; any other
file takes the line-by-line loop, which names the first bad line.

Exit codes: 0 ok, 2 unreadable input, a ratio of sample means outside the
float range, a file that cannot be written (named: the ``--output`` file or
the ``simulate`` result file), standard output that cannot be written, or
usage error, 3 insufficient data or bad configuration (a ``simulate`` ratio
whose draws or sample means leave the float range, overflowing or underflowing
to 0, or a request too large for memory), 4 reproduction gate failure, 5
self-check failure, 6 numerical method did not converge.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path

import click
import numpy as np

from . import checks, confidence, estimation, measures, simulation
from ._inputs import _integer, _real
from .distributions import NonConvergence
from .estimation import InsufficientSampleSize, RatioOutOfRange, TwoSample
from .measures import COEFFICIENTS
from .simulation import DEFAULT_SEED, ConfigError, SimConfig, _csv_text, _fmt, _write

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
    OSError: EXIT_INPUT,
    RatioOutOfRange: EXIT_INPUT,
    InsufficientSampleSize: EXIT_INSUFFICIENT,
    ConfigError: EXIT_INSUFFICIENT,
    MemoryError: EXIT_INSUFFICIENT,
    NonConvergence: EXIT_NONCONVERGENCE,
}


def read_sample_file(path: str) -> np.ndarray:
    """The observations of a sample file, read once; see the module docstring.

    ``float`` accepts a line only where ``str.strip`` leaves that one value,
    so the one-pass parse gives the bits of ``_parse_lines``.
    """
    try:
        with open(path, encoding="utf-8") as fh:  # an OSError names the path as given
            lines = fh.read().removeprefix("\ufeff").splitlines()
    except UnicodeDecodeError as exc:
        raise SampleFileError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    start = 0
    while start < len(lines) and lines[start].lstrip()[:1] in ("", "#"):
        start += 1
    try:
        values = np.fromiter(map(float, filter(None, islice(lines, start, None))),
                             dtype=float)
        if values.size and 0.0 < values.min() and values.max() < math.inf:
            return values
    except ValueError:
        pass
    return _parse_lines(path, lines)


def _parse_lines(path: str, lines: list[str]) -> np.ndarray:
    """Any file: skip blank and '#' lines, else raise naming the first bad line."""
    values = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text[0] == "#":
            continue
        try:
            value = float(text)
        except ValueError as exc:
            raise SampleFileError(f"{path}:{lineno}: not a number: {text!r}") from exc
        if not 0.0 < value < math.inf:
            raise SampleFileError(
                f"{path}:{lineno}: observations must be positive and finite, got {text}")
        values.append(value)
    if not values:
        raise SampleFileError(f"{path}: no observations found")
    return np.array(values)


@dataclass
class OutputSpec:
    format: str
    destination: str

    def write(self, text: str) -> None:
        text = text if text.endswith("\n") else text + "\n"
        if self.destination == "-":
            click.echo(text, nl=False)
        else:
            _write(self.destination, text)


class _Main(click.Group):
    def invoke(self, ctx: click.Context):
        """Run the command; an error listed in EXIT_CODES ends it with its code.
        An OSError is named by the file it read or was writing, where it names one."""
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # a reader that closed the pipe: click's main ends the run quietly
        except tuple(EXIT_CODES) as exc:
            name = isinstance(exc, OSError) and exc.filename
            message = f"{name}: {exc.strerror or exc}" if name else exc
            click.echo(f"error: {message}", err=True)
            # drop what a failed flush left in stdout: the exit would fail to flush it, exit 120
            sys.stdout = io.StringIO()
            sys.exit(next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)))


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]),
              default="table", show_default=True,
              help="Output format; `check` and `simulate` print their table under csv.")
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
        f"n1 = {report.n1}, n2 = {report.n2}",
        f"theta1_hat = {report.theta1_hat:.6g}   theta2_hat = {report.theta2_hat:.6g}",
        f"r_hat = {report.r_hat:.6g}   r_hat_star = {report.r_hat_star:.6g}"
        f"   var(r_hat_star) = {report.var_r_hat_star:.6g}",
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
        out.write(json.dumps(vars(report), indent=2))
    elif out.format == "csv":
        quantities = [(k, v if isinstance(v, int) else _fmt(v))
                      for k, v in vars(report).items() if not isinstance(v, dict)]
        rows = [(key, _fmt(report.points[key]), _fmt(report.variances[key]),
                 _fmt(report.biases[key])) for key in COEFFICIENTS]
        out.write(_csv_text(("quantity", "value"), quantities) + _csv_text(
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
    _real("--level", level, click.BadParameter, high=1.0)
    estimates = estimation.ratio_estimates(_load_two_samples(file1, file2))
    r_int = confidence.ratio_ci(estimates, level=level)
    ovl_ints = confidence.all_ovl_cis(r_int)

    if out.format == "json":
        payload = {"level": level, "r_hat": estimates.r_hat, "ratio": vars(r_int),
                   "coefficients": {k: vars(v) for k, v in ovl_ints.items()}}
        out.write(json.dumps(payload, indent=2))
    elif out.format == "csv":
        rows = [(v.target, _fmt(v.lower), _fmt(v.upper), str(v.contains_one).lower())
                for v in (r_int, *ovl_ints.values())]
        out.write(_csv_text(("target", "lower", "upper", "contains_one"), rows))
    else:
        # the ratio limits take .6g like r_hat; the space keeps 12-character
        # limits such as 1.46159e+100 apart
        lines = [f"{100 * level:g}% confidence intervals (r_hat = {estimates.r_hat:.6g})",
                 f"{'target':<20}{'lower':>10}{'upper':>10}",
                 f"{'ratio':<20}{r_int.lower:>10.6g} {r_int.upper:>9.6g}"]
        for key, interval in ovl_ints.items():
            lines.append(f"{key:<20}{interval.lower:>10.3f}{interval.upper:>10.3f}")
        if r_int.contains_one:
            lines.append("note: the ratio interval includes 1, so every overlap "
                         "interval attains its upper limit 1.")
        out.write("\n".join(lines))


@main.command()
@click.option("--r-min", type=float, required=True)
@click.option("--r-max", type=float, required=True)
@click.option("--points", type=int, default=101, show_default=True)
@click.pass_obj
def curves(out: OutputSpec, r_min: float, r_max: float, points: int) -> None:
    """Tabulate the four coefficients on a ratio grid (plot-ready)."""
    _real("--r-min", r_min, click.BadParameter)
    _real("--r-max", r_max, click.BadParameter, low=r_min)
    _integer("--points", points, 2, click.BadParameter)

    rs = np.linspace(r_min, r_max, points)
    series = measures.overlap_quartet(rs)

    if out.format == "json":
        payload = {"r": [float(r) for r in rs]}
        payload.update({key: [float(v) for v in series[key]] for key in COEFFICIENTS})
        out.write(json.dumps(payload, indent=2))
    elif out.format == "csv":
        rows = [(_fmt(r), *(_fmt(series[key][i]) for key in COEFFICIENTS))
                for i, r in enumerate(rs)]
        out.write(_csv_text(("r",) + COEFFICIENTS, rows))
    else:
        lines = [f"{'r':>10}" + "".join(f"{key:>12}" for key in COEFFICIENTS)]
        for i, r in enumerate(rs):
            lines.append(f"{r:>10.6g}" + "".join(
                f"{series[key][i]:>12.3f}" for key in COEFFICIENTS))
        out.write("\n".join(lines))


@main.command()
@click.option("--r", "r_text", default=",".join(map(str, SimConfig.r_values)),
              show_default=True, help="Comma-separated ratio values.")
@click.option("--n", "n_text", default=",".join(map(str, SimConfig.sample_sizes)),
              show_default=True, help="Comma-separated sample sizes.")
@click.option("--reps", type=int, default=SimConfig.replications, show_default=True,
              help="Replications per cell.")
@click.option("--seed", type=int, default=SimConfig.seed, show_default=True,
              help="RNG seed.")
@click.pass_obj
def simulate(out: OutputSpec, r_text: str, n_text: str, reps: int, seed: int) -> None:
    """Run the Monte Carlo study; write cell, figure and summary files.

    Emits cells.csv, bias_vs_r.csv, std_vs_r.csv, mse_vs_r.csv and
    summary.json into the output directory.  On the default grid the cells
    are also graded against the embedded reference values; the command exits
    4 when fewer than 90% of the non-excluded cells agree.
    """
    try:
        r_values = tuple(map(float, filter(str.strip, r_text.split(","))))
        sample_sizes = tuple(map(int, filter(str.strip, n_text.split(","))))
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--r/--n")
    cfg = SimConfig(r_values=r_values, sample_sizes=sample_sizes, replications=reps, seed=seed)

    out_dir = Path("simulation_output" if out.destination == "-" else out.destination)
    out_dir.mkdir(parents=True, exist_ok=True)

    table = simulation.run_study(cfg)
    comparison = simulation.compare_to_reference(table)
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
        lines = []
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            lines.append(f"{result.name:<24} {status}  ({result.n_checks} checks)")
            lines += [f"    {failure}" for failure in result.failures[:10]]
        out.write("\n".join(lines))
    if not all(r.passed for r in results):
        sys.exit(EXIT_SELF_CHECK)


if __name__ == "__main__":
    main()
