#!/usr/bin/env python3
"""Benchmark of the expoverlap CLI: study, inference and selfcheck workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {study,inference,selfcheck} --seed N \
        --seconds S --trace {0,1}

The program is run from the checkout's ``src/`` in one single-threaded
worker process per workload (bench/worker.py), in a closed loop with one
client.  This process makes the inputs from ``--seed``, measures set-up,
starts the worker, checks every operation's output against the independent
oracles in bench/oracles.py, and prints each metric by name with its unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

See bench/README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORKLOADS = ("study", "inference", "selfcheck")

#: Fresh interpreters timed for set-up before the operations, and again after
#: them, so that the median spans two moments of the machine's speed.
SETUP_SAMPLES = 6
#: Operations prepared for the worker; far more than a run makes.
MAX_OPS = 8192

STUDY_OP = [["--output", "{dir}", "simulate", "--reps", str(oracles.STUDY_REPS),
             "--seed", "{seed}"]]
SELFCHECK_OP = [["--format", "json", "--output", "{dir}/check.json", "check",
                 "--seed", "{seed}"]]
#: Sample sizes of the inference cycle, log-spaced from 3 to 10^5.
INFERENCE_SIZES = tuple(round(3 * (1e5 / 3) ** (k / 6)) for k in range(7))

#: Per-operation work counts fixed by the method; the traced run must
#: reproduce them exactly, or some call escaped the tracer's wrappers.
EXACT_COUNTS = {
    "study": {
        "distributions.uniforms": oracles.STUDY_REPS * len(oracles.STUDY_R)
        * sum(2 * n for n in oracles.STUDY_N),
        "distributions.streams": 2 * oracles.STUDY_REPS * len(oracles.STUDY_R)
        * len(oracles.STUDY_N),
        "distributions.f_quantile.calls": 0,
    },
    "inference": {
        "distributions.f_quantile.calls": 2,
        "distributions.uniforms": 0,
    },
    "selfcheck": {
        "measures.quadrature.calls": 200,
        "distributions.f_quantile.calls": 108,
        "distributions.uniforms": 300 + 2 * 2_000_000,
    },
}
EXPECTED_EXIT = {"study": ({0, 4},), "selfcheck": ({0, 5},), "inference": ({0}, {0})}

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p95_s": "s", "peak_rss_MB": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_program(env: dict[str, str]) -> None:
    """Import the package once (this also fills its bytecode cache) and make
    sure it is the checkout's own copy."""
    found = subprocess.run(
        [sys.executable, "-c", "import expoverlap.cli as c; print(c.__file__)"],
        env=env, capture_output=True, text=True, timeout=120)
    where = Path(found.stdout.strip() or "-").resolve()
    if found.returncode != 0 or where.parent != (SRC / "expoverlap").resolve():
        sys.exit(f"error: expoverlap.cli does not import from {SRC}: "
                 f"{found.stderr.strip() or where}")


#: A fresh interpreter imports the CLI, then samples the machine's speed with
#: the reference kernel and prints the time it spent after the import.
SETUP_CHILD = ("import time; t0 = time.perf_counter(); import expoverlap.cli; "
               "t1 = time.perf_counter(); import speed; "
               "k = [speed.kernel() for _ in range(10)]; print(time.perf_counter() - t1, *k)")


def setup_times(env: dict[str, str]) -> list[float]:
    """Normalised times of fresh interpreters through `import expoverlap.cli`:
    each one's wall time, less what it spent after the import, divided by the
    speed factor of its own kernel samples."""
    env = dict(env, PYTHONPATH=os.pathsep.join((str(BENCH), env["PYTHONPATH"])))
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env,
                               capture_output=True, text=True, check=True, timeout=120)
        wall = time.perf_counter() - t0
        after_import, *kernels = map(float, child.stdout.split())
        times.append((wall - after_import) / speed.factor(kernels))
    return times


def op_seeds(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [{"seed": rng.getrandbits(63)} for _ in range(MAX_OPS)]


def inference_inputs(seed: int, out: Path) -> tuple[list, list, list]:
    """The cycle of (estimate, ci) operations, each pair's true estimates, and
    each operation's level.

    Fifteen pairs: the seven equal pairs (n, n), a second (10^5, 10^5) pair,
    the six unequal pairs of neighbouring sizes (alternating which sample is
    larger) and (3, 10^5).  Ratio and scale of each pair, and the level of
    each operation, come from the seed.  With an odd count the median falls
    in the middle of one pair's block; with the heaviest pair twice in
    fifteen (13%) the 95th percentile falls well inside its block rather than
    on a boundary between pairs.  A quantile's cost depends on its level, so
    every operation draws its own: a run then averages over many levels
    instead of resting on fifteen.
    """
    sizes = INFERENCE_SIZES
    pairs = [(n, n) for n in sizes] + [(sizes[-1], sizes[-1])]
    pairs += [(sizes[k], sizes[k + 1]) if k % 2 == 0 else (sizes[k + 1], sizes[k])
              for k in range(len(sizes) - 1)]
    pairs.append((sizes[0], sizes[-1]))
    rng = np.random.default_rng(seed)
    inputs = out / "inputs"
    inputs.mkdir(parents=True)
    cycle, truths = [], []
    for k, (n1, n2) in enumerate(pairs):
        r = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        theta2 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        files = []
        for i, (n, theta) in enumerate(((n1, r * theta2), (n2, theta2)), start=1):
            path = inputs / f"pair{k}_sample{i}.txt"
            values = rng.exponential(theta, n)
            path.write_text(f"# pair {k}, sample {i}: {n} exponential draws, mean "
                            f"{theta!r}\n" + "\n".join(map(repr, values.tolist())) + "\n")
            files.append(str(path))
        cycle.append([
            ["--format", "json", "--output", "{dir}/estimate.json", "estimate", *files],
            ["--format", "json", "--output", "{dir}/ci.json", "ci", *files,
             "--level", "{level}"],
        ])
        truths.append(oracles.PairTruth(*(oracles.parse_sample(Path(f)) for f in files)))
    levels = [{"level": repr(round(float(x), 4))}
              for x in rng.uniform(0.80, 0.99, MAX_OPS)]
    return cycle, truths, levels


def run_worker(plan: dict, out: Path, env: dict[str, str], seconds: int) -> dict:
    plan_path = out / "plan.json"
    plan_path.write_text(json.dumps(plan))
    log_path = out / "worker.log"
    with log_path.open("w") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(plan_path)],
                                env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=seconds + 120)
        except subprocess.TimeoutExpired:
            sys.exit(f"error: worker still running after {seconds + 120} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = log_path.read_text()[-2000:]
        sys.exit(f"error: worker exited with {code}:\n{tail}")
    return json.loads((out / "results.json").read_text())


def check_ops(workload: str, ops: list[dict], out: Path, truths) -> tuple[list, list, list]:
    """(failed ops, problems, sampling-law rejections) over all operations."""
    failed, problems, rejections = [], [], []
    moments = oracles.exact_study_moments() if workload == "study" else None
    for op in ops:
        codes = op["exit_codes"]
        expected = EXPECTED_EXIT[workload]
        if op["error"] or len(codes) != len(expected) or any(
                c not in ok for c, ok in zip(codes, expected)):
            failed.append(op)
            continue
        op_dir = out / "ops" / str(op["index"])
        try:
            if workload == "study":
                found = oracles.check_study(op_dir, op["params"]["seed"], codes[0], moments)
            elif workload == "selfcheck":
                payload = json.loads((op_dir / "check.json").read_text())
                found, rejected = oracles.check_selfcheck(payload, op["params"]["seed"],
                                                          codes[0])
                if rejected:
                    rejections.append(op["params"]["seed"])
            else:
                truth = truths[op["position"]]
                found = oracles.check_estimate(
                    json.loads((op_dir / "estimate.json").read_text()), truth)
                found += oracles.check_ci(json.loads((op_dir / "ci.json").read_text()),
                                          truth, float(op["params"]["level"]))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = [f"unreadable output: {exc!r}"]
        problems += [f"op {op['index']} {op['params']}: {p}" for p in found]
    if workload == "selfcheck" and not oracles.rejections_plausible(
            len(rejections), len(ops) - len(failed)):
        problems.append(f"sampling-law suite rejected {len(rejections)} of "
                        f"{len(ops) - len(failed)} seeds, far above its nominal level")
    return failed, problems, rejections


def p95(times: list[float]) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=20, method="inclusive")[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Terminate through SystemExit, so that the worker is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "expoverlap" / "cli.py").is_file():
        sys.exit(f"error: no program to benchmark: {SRC / 'expoverlap'} is missing")
    env = child_env()
    check_program(env)
    setup = setup_times(env) if not args.trace else []

    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    truths = None
    if args.workload == "inference":
        cycle, truths, params = inference_inputs(args.seed, out)
    else:
        cycle = [STUDY_OP if args.workload == "study" else SELFCHECK_OP]
        params = op_seeds(args.seed)
    plan = {"out": str(out), "seconds": args.seconds, "trace": bool(args.trace),
            "cycle": cycle, "params": params}
    results = run_worker(plan, out, env, args.seconds)
    if not args.trace:
        setup += setup_times(env)

    ops = results["ops"]
    failed, problems, rejections = check_ops(args.workload, ops, out, truths)
    failed_ids = {op["index"] for op in failed}
    ok_ops = [op for op in ops if op["index"] not in failed_ids]
    if not ok_ops:
        problems.append("no operation completed")

    units = END_TO_END_UNITS
    if args.trace:
        units = tracer.LAYER_UNITS
        traced = [op["normalised_seconds"] for op in ok_ops if op["phase"] == "traced"]
        plain = [op["normalised_seconds"] for op in ok_ops if op["phase"] == "plain"]
        n_traced = sum(op["phase"] == "traced" for op in ops)
        values = tracer.layer_metrics(tracer.Spans(out / "spans.npz"), n_traced)
        values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain)
                                      if traced and plain else math.nan)
        for name, want in EXACT_COUNTS[args.workload].items():
            if values[name] != want:
                problems.append(f"tracer self-test: {name} = {values[name]!r} per "
                                f"operation, the method fixes {want}")
    else:
        times = [op["normalised_seconds"] for op in ok_ops] or [math.nan]
        values = {"setup_s": statistics.median(setup), "op_p50_s": statistics.median(times),
                  "op_p95_s": p95(times), "peak_rss_MB": results["peak_rss_kb"] / 1024.0}

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}: {len(ops)} operations attempted, {len(failed)} failed")
    if rejections:
        print(f"  sampling-law suite rejected {len(rejections)} of {len(ok_ops)} seeds "
              f"(completed runs, counted apart): {rejections}")
    for op in failed[:5]:
        print(f"  FAILED op {op['index']}: exit codes {op['exit_codes']}\n{op['error'] or ''}")
    if problems:
        print(f"  {len(problems)} wrong outputs; the first {min(len(problems), 20)}:")
    for problem in problems[:20]:
        print(f"  WRONG {problem}")
    raw = [op["seconds"] for op in ok_ops] or [math.nan]
    factors = [op["speed_factor"] for op in ok_ops] or [math.nan]
    print(f"  raw wall time per operation: median {statistics.median(raw):.6g} s, "
          f"95th percentile {p95(raw):.6g} s; machine speed factor median "
          f"{statistics.median(factors):.4g}")
    for name, value in values.items():
        print(f"  {name:<42} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
