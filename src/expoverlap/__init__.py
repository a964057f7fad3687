"""Overlap coefficients between two exponential populations.

Closed forms of the Weitzman, Matusita, Morisita and KL-based overlap
coefficients as functions of the parameter ratio, two-sample estimation with
sampling variance/bias approximations, exact F-pivot confidence intervals,
and a seeded Monte Carlo study with reference comparison.

The package exports the nine names of the README's Library section; every
other name is imported from its module.
"""

from .confidence import all_ovl_cis, ratio_ci
from .estimation import TwoSample, estimate_report
from .measures import overlap_by_quadrature, overlap_quartet
from .simulation import SimConfig, compare_to_reference, run_study

__version__ = "0.1.0"
