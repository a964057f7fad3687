#!/usr/bin/env python3
"""Reproduce the bundled reference table and print the cell-by-cell grade.

Runs the default Monte Carlo study (1000 replications on the reference grid)
and compares empirical bias/MSE per coefficient against the embedded
reference values at tolerance max(0.01, 3 * mc_se).  Prints a compact table
(3 decimals) plus the gate verdict.

Usage: python scripts/reproduce_reference_table.py [seed]
"""

import sys

from expoverlap.measures import COEFFICIENTS
from expoverlap.simulation import DEFAULT_SEED, SimConfig, compare_to_reference, run_study


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_SEED
    cfg = SimConfig(seed=seed)
    print(f"running {cfg.replications} replications on "
          f"{cfg.r_values} x {cfg.sample_sizes} (seed {seed}) ...")
    table = run_study(cfg)
    comparison = compare_to_reference(table)

    entries = {(e.r, e.n, e.coefficient, e.metric): e for e in comparison.entries}
    header = f"{'r':>5} {'n':>4} {'coeff':<10} " \
             f"{'bias':>8} {'ref':>8} {'mse':>8} {'ref':>8}  flags"
    print(header)
    print("-" * len(header))
    for cell in table.cells:
        for coeff in COEFFICIENTS:
            b, m = (entries[(cell.r, cell.n, coeff, metric)] for metric in ("bias", "mse"))
            flags = [f"{e.metric}:excluded" if e.excluded
                     else f"{e.metric}:off-by-{e.abs_diff:.3f}"
                     for e in (b, m) if e.excluded or not e.passed]
            print(f"{cell.r:>5.1f} {cell.n:>4d} {coeff:<10} "
                  f"{b.empirical:>8.3f} {b.reference:>8.3f} "
                  f"{m.empirical:>8.3f} {m.reference:>8.3f}  {' '.join(flags)}")

    print()
    print(f"{comparison.n_passed}/{comparison.n_compared} non-excluded cells within "
          f"tolerance ({comparison.pass_fraction:.1%}); "
          f"{comparison.n_excluded} excluded")
    print("gate (>= 90%):", "PASS" if comparison.overall_pass else "FAIL")
    return 0 if comparison.overall_pass else 4


if __name__ == "__main__":
    raise SystemExit(main())
