"""Benchmark worker: runs one workload's operations in a closed loop.

Usage: python worker.py PLAN.json

One client, one process, one thread: each operation is one or more calls of
the ``expoverlap`` CLI entry point in-process, and the next starts only when
the previous has returned.  The plan (written by run.py) gives the cycle of
operations, each operation's parameters (seed or level) and the time budget.
Operations run in whole cycles; another cycle starts only while the last one
would still end within the budget, and at least one cycle always runs.

A ``speed.Sampler`` measures the machine's speed throughout, and each
operation's time is also given normalised by it.  With tracing on, the first
half of the budget runs untraced and the second half under the span tracer,
so the two medians give the tracing overhead.  The worker writes the
operations' timings and exit codes, its peak resident memory and, when
traced, its spans; run.py checks the outputs afterwards, so none of the
checking counts toward this process's time or memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from expoverlap import cli
from speed import Sampler, factor
from tracer import Tracer


def invoke(argv: list[str], tracer: Tracer | None) -> int:
    """One CLI command; returns its exit code."""
    command = next(a for a in argv if a in cli.main.commands)
    try:
        if tracer is None:
            cli.main.main(args=argv, prog_name="expoverlap", standalone_mode=False)
        else:
            with tracer.span(f"cli.{command}"):
                cli.main.main(args=argv, prog_name="expoverlap", standalone_mode=False)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    out = Path(plan["out"])
    params = plan["params"]
    cycle = plan["cycle"]
    phases = [("plain", plan["seconds"])]
    if plan["trace"]:
        phases = [("plain", plan["seconds"] / 2), ("traced", plan["seconds"] / 2)]

    ops = []
    tracer = None
    sampler = Sampler()
    sampler.start()
    for phase, budget in phases:
        if phase == "traced":
            tracer = Tracer()
            tracer.install()
        began = time.perf_counter()
        while len(ops) + len(cycle) <= len(params):
            cycle_began = time.perf_counter()
            for position, template in enumerate(cycle):
                k = len(ops)
                op_dir = out / "ops" / str(k)
                op_dir.mkdir(parents=True)
                argvs = [[a.format(dir=op_dir, **params[k]) for a in argv]
                         for argv in template]
                codes, error = [], None
                t0 = time.perf_counter()
                try:
                    for argv in argvs:
                        codes.append(invoke(argv, tracer))
                except Exception:
                    error = traceback.format_exc()
                ops.append({"index": k, "position": position, "phase": phase,
                            "params": params[k], "start": t0, "end": time.perf_counter(),
                            "exit_codes": codes, "error": error})
            now = time.perf_counter()
            if now - began + (now - cycle_began) > budget:
                break

    sampler.stop()
    for op in ops:
        op["seconds"] = op["end"] - op["start"]
        op["speed_factor"] = factor(sampler.around(op["start"], op["end"]))
        op["normalised_seconds"] = (
            (op["seconds"] - sampler.busy(op["start"], op["end"])) / op["speed_factor"])

    if tracer is not None:
        tracer.write(out / "spans.npz")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (out / "results.json").write_text(json.dumps(
        {"ops": ops, "peak_rss_kb": peak_kb, "traced": tracer is not None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
