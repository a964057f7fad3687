"""Embedded reference dataset for the Monte Carlo reproduction study.

Published bias / MSE / bias-over-sigma values for the four coefficient
estimators on the grid R in {0.2, 0.5, 0.8} x n in {20, 50, 100, 200, 500},
as printed for a study of 1000 replications.  Entries printed as "0.000*"
in the source table (meaning |value| < 0.001) are stored as 0.0; the
comparison tolerance floor of 0.01 makes the distinction irrelevant.

The entries are output of the published second-order formulas, not of a
simulation.  Each bias is the published bias formula at (R, n), as
``estimation.taylor_biases(R, n, n)`` gives it, which is about twice the true
bias (delta at (0.5, 20): table -0.031, formula -0.0311, exact -0.0154); the
KL entries carry flipped signs at R = 0.2 and R = 0.8 (at (0.8, 20): table
-0.20, formula +0.2078, exact -0.0662).  Each MSE is the published variance
plus the squared published bias.  Here "exact" is the bias of the estimator
under the F(2n, 2n) law of R_hat / R, by quadrature.

Two bias entries break the monotone trend of their columns by an order of
magnitude and are treated as transcription slips: they are listed in
EXCLUDED_CELLS and skipped by the reproduction gate.  Two further entries are
slips of the same kind but stay graded, so the gate's counts do not move:
the lambda bias at (0.2, 100) is -0.056 where the formula gives -0.0056
(exact -0.0028), and the delta MSE at (0.2, 200) is 0.027 where the formula
gives 0.0007 (exact 0.0007).
"""

from __future__ import annotations

REFERENCE_R_VALUES = (0.2, 0.5, 0.8)
REFERENCE_SAMPLE_SIZES = (20, 50, 100, 200, 500)

#: (bias, mse, ratio_bias_over_sigma) per coefficient per (r, n) cell.
REFERENCE_CELLS: dict[tuple[float, int], dict[str, tuple[float, float, float]]] = {
    (0.2, 20): {
        "rho": (-0.029, 0.007, -0.36),
        "lambda": (-0.030, 0.016, -0.25),
        "delta": (-0.0180, 0.008, -0.061),
        "kl_lambda": (0.0060, 0.0080, 0.067),
    },
    (0.2, 50): {
        "rho": (-0.011, 0.003, -0.22),
        "lambda": (-0.012, 0.006, -0.15),
        "delta": (-0.0070, 0.007, -0.030),
        "kl_lambda": (0.0020, 0.0030, 0.041),
    },
    (0.2, 100): {
        "rho": (-0.055, 0.001, -0.15),
        "lambda": (-0.056, 0.003, -0.11),
        "delta": (-0.0034, 0.0015, -0.017),
        "kl_lambda": (0.0011, 0.0015, 0.029),
    },
    (0.2, 200): {
        "rho": (-0.003, 0.0, -0.11),
        "lambda": (-0.003, 0.001, -0.07),
        "delta": (-0.0020, 0.027, 0.010),
        "kl_lambda": (0.0, 0.0, 0.020),
    },
    (0.2, 500): {
        "rho": (-0.001, 0.0, -0.07),
        "lambda": (-0.001, 0.0, -0.05),
        "delta": (0.0, 0.0, -0.039),
        "kl_lambda": (0.0, 0.0, 0.013),
    },
    (0.5, 20): {
        "rho": (-0.036, 0.0040, -0.71),
        "lambda": (-0.640, 0.0140, -0.66),
        "delta": (-0.031, 0.014, -0.092),
        "kl_lambda": (0.048, 0.0500, 0.22),
    },
    (0.5, 50): {
        "rho": (-0.014, 0.0010, -0.44),
        "lambda": (-0.024, 0.0040, -0.41),
        "delta": (-0.012, 0.005, -0.045),
        "kl_lambda": (0.018, 0.0190, 0.013),
    },
    (0.5, 100): {
        "rho": (-0.007, 0.0, -0.31),
        "lambda": (-0.012, 0.0020, -0.28),
        "delta": (-0.006, 0.0024, -0.026),
        "kl_lambda": (0.009, 0.0090, 0.095),
    },
    (0.5, 200): {
        "rho": (-0.003, 0.0, -0.27),
        "lambda": (-0.006, 0.0, -0.20),
        "delta": (-0.003, 0.001, -0.015),
        "kl_lambda": (0.004, 0.0045, 0.067),
    },
    (0.5, 500): {
        "rho": (-0.001, 0.0, -0.13),
        "lambda": (-0.002, 0.0, -0.13),
        "delta": (-0.001, 0.0, -0.05),
        "kl_lambda": (-0.0018, 0.0018, -0.042),
    },
    (0.8, 20): {
        "rho": (-0.032, 0.001, -0.87),
        "lambda": (-0.063, 0.005, -0.87),
        "delta": (-0.037, 0.016, -0.3),
        "kl_lambda": (-0.20, 0.061, -0.84),
    },
    (0.8, 50): {
        "rho": (-0.012, 0.0, -0.74),
        "lambda": (-0.024, 0.0011, -0.73),
        "delta": (-0.014, 0.006, -0.19),
        "kl_lambda": (-0.079, 0.013, -0.69),
    },
    (0.8, 100): {
        "rho": (-0.006, 0.0, -0.61),
        "lambda": (-0.012, 0.0, -0.6),
        "delta": (-0.007, 0.0027, -0.133),
        "kl_lambda": (-0.039, 0.005, -0.56),
    },
    (0.8, 200): {
        "rho": (-0.003, 0.0, -0.47),
        "lambda": (-0.006, 0.0, -0.47),
        "delta": (-0.003, 0.001, -0.09),
        "kl_lambda": (-0.019, 0.002, -0.43),
    },
    (0.8, 500): {
        "rho": (-0.001, 0.0, -0.32),
        "lambda": (-0.002, 0.0, -0.32),
        "delta": (-0.001, 0.0, -0.06),
        "kl_lambda": (-0.008, 0.0, -0.28),
    },
}

#: (r, n, coefficient, metric) cells excluded from the reproduction gate:
#: suspected transcription slips, each an order of magnitude off its column
#: trend (lambda bias -0.640 at (0.5, 20); rho bias -0.055 at (0.2, 100)).
EXCLUDED_CELLS = frozenset({
    (0.5, 20, "lambda", "bias"),
    (0.2, 100, "rho", "bias"),
})
