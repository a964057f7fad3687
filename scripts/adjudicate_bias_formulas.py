#!/usr/bin/env python3
"""Which bias approximation tracks simulation: published formulas or Taylor term?

Each published second-order bias expression is exactly twice the textbook
Taylor term 0.5 * g''(R) * Var(R*) for delta, rho and lambda, and minus twice
it for the KL overlap.  This script runs the default study, whose KL overlap
is evaluated at the uncorrected ratio, and reports, per coefficient, how
often each version lands closer to the empirical bias, plus the worst cells.

Usage: python scripts/adjudicate_bias_formulas.py [seed]
"""

import sys

from expoverlap.measures import COEFFICIENTS
from expoverlap.simulation import DEFAULT_SEED, SimConfig, run_study, theoretical_vs_empirical


def run(label: str, cfg: SimConfig) -> None:
    report = theoretical_vs_empirical(run_study(cfg))
    print(f"=== {label} ===")
    print(f"{'coeff':<10} {'formula':>8} {'oracle':>8} {'tie':>5}")
    for key in COEFFICIENTS:
        counts = report.closer_counts[key]
        print(f"{key:<10} {counts['formula']:>8} {counts['oracle']:>8} {counts['tie']:>5}")
    print("\nlargest empirical biases and both approximations:")
    worst = sorted(report.entries, key=lambda e: -abs(e["empirical_bias"]))[:6]
    for e in worst:
        print(f"  r={e['r']:<4} n={e['n1']:<4} {e['coefficient']:<10} "
              f"empirical {e['empirical_bias']:+.4f}  "
              f"formula {e['bias_formula']:+.4f}  oracle {e['bias_oracle']:+.4f}")
    print()


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_SEED
    run("default study", SimConfig(seed=seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
