"""The benchmark's span tracer still reaches every layer it measures.

``bench/tracer.py`` wraps the program's public functions by name, so a rename
that escapes it would silently zero a per-layer metric.  Here it is installed
in a fresh interpreter (it patches modules for good), a small run of each
command goes through the CLI in process, and the exact work counts that the
benchmark fixes are read back through ``layer_metrics``.
"""

import json
import subprocess
import sys
from pathlib import Path

from expoverlap.distributions import SeededStream, sample_exponential

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

CHILD = """
import importlib.util, json, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
spans = tracer.Tracer()
spans.install()
from expoverlap import cli

work = Path(sys.argv[2])
for args in json.loads(sys.argv[3]):
    try:
        cli.main.main(args=args, prog_name="expoverlap", standalone_mode=False)
    except SystemExit:
        pass
spans.write(work / "spans.npz")
metrics = tracer.layer_metrics(tracer.Spans(work / "spans.npz"), 1)
(work / "metrics.json").write_text(json.dumps(metrics))
"""


def test_tracer_counts_every_layer(tmp_path):
    files = []
    for i, (theta, n) in enumerate(((2.0, 40), (1.0, 35))):
        path = tmp_path / f"x{i}.txt"
        values = sample_exponential(SeededStream(1, i), theta, n)
        path.write_text("\n".join(map(repr, values.tolist())) + "\n")
        files.append(str(path))
    runs = [
        ["--output", str(tmp_path / "sim"), "simulate", "--r", "0.5", "--n", "10",
         "--reps", "20"],
        ["--output", str(tmp_path / "estimate.txt"), "estimate", *files],
        ["--output", str(tmp_path / "ci.txt"), "ci", *files],
        ["--output", str(tmp_path / "check.txt"), "check", "--seed", "5"],
    ]
    proc = subprocess.run([sys.executable, "-c", CHILD, str(TRACER), str(tmp_path),
                           json.dumps(runs)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("sim/summary.json", "estimate.txt", "ci.txt", "check.txt"):
        assert (tmp_path / name).stat().st_size > 0, name
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    # 40 simulation streams of 10, then check's 300 quantile uniforms and two
    # 2e6-variate law draws; 2 quantiles for ci and 108 in check
    assert metrics["distributions.streams"] == 43
    assert metrics["distributions.uniforms"] == 4_000_700
    assert metrics["distributions.f_quantile.calls"] == 110
    # the solver's work: 334 f_cdf calls under the 110 quantiles, and every x
    # the incomplete beta saw (the scalar ones and check's 1e5-point KS test)
    assert metrics["distributions.f_cdf.per_quantile"] == 334 / 110
    assert metrics["distributions.incomplete_beta.points"] == 100_434
    assert metrics["measures.quadrature.calls"] == 200
    # the tracer counts this metric from the integrand points of the adaptive
    # integrator that the fixed Gauss-Legendre rule replaced, so it reads 0; the
    # exact panel count is test_measures.py::test_oracle_work_of_check_is_fixed
    assert metrics["measures.quadrature.panels"] == 0
