#!/usr/bin/env python3
"""Reproduce the bundled reference table: the cell-by-cell grade and the bias tally.

Runs the default Monte Carlo study (1000 replications on the reference grid)
once.  It compares empirical bias/MSE per coefficient against the embedded
reference values at tolerance max(0.01, 3 * mc_se) and prints a compact table
(3 decimals) plus the gate verdict.  From the same study it then reports which
bias approximation tracks simulation: each published second-order bias
expression is exactly twice the textbook Taylor term 0.5 * g''(R) * Var(R*)
for delta, rho and lambda, and minus twice it for the KL overlap, which the
study evaluates at the uncorrected ratio.  Per coefficient it counts how often
each lands closer to the empirical bias, and it lists the six cells with the
largest empirical bias.  Exits 4 when the gate fails.

Usage: python scripts/reproduce_reference_table.py [seed]
"""

import sys

from expoverlap.measures import COEFFICIENTS
from expoverlap.simulation import (DEFAULT_SEED, SimConfig, compare_to_reference, run_study,
                                   theoretical_vs_empirical)


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

    report = theoretical_vs_empirical(table)
    print("\nwhich bias approximation lands closer to the empirical bias:")
    print(f"{'coeff':<10} {'formula':>8} {'oracle':>8} {'tie':>5}")
    for key in COEFFICIENTS:
        counts = report.closer_counts[key]
        print(f"{key:<10} {counts['formula']:>8} {counts['oracle']:>8} {counts['tie']:>5}")
    print("\nlargest empirical biases and both approximations:")
    for e in sorted(report.entries, key=lambda e: -abs(e["empirical_bias"]))[:6]:
        print(f"  r={e['r']:<4} n={e['n1']:<4} {e['coefficient']:<10} "
              f"empirical {e['empirical_bias']:+.4f}  "
              f"formula {e['bias_formula']:+.4f}  oracle {e['bias_oracle']:+.4f}")
    return 0 if comparison.overall_pass else 4


if __name__ == "__main__":
    raise SystemExit(main())
