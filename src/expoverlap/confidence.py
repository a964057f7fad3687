"""Confidence intervals for the ratio and the overlap coefficients.

R_hat / R follows F(2 n1, 2 n2) exactly, which pivots into an exact interval
for R.  With q(d1, d2; p) the p-quantile of F(d1, d2):

    L = r_hat * q(2 n2, 2 n1; alpha/2),   U = r_hat / q(2 n1, 2 n2; alpha/2).

L uses 1 / F(d1, d2) ~ F(d2, d1), so the upper tail is never formed as
1 - alpha/2, which loses accuracy and rounds to 1 for alpha/2 < 2^-54.
A limit past the float range is clamped to the smallest or largest positive
float, so no representable ratio inside the exact interval is lost.

Each overlap coefficient is increasing in R on (0, 1] and decreasing on
[1, inf), so the transformed interval is (OVL(L), OVL(U)) when U <= 1, the
endpoints swap roles when L >= 1, and an interval straddling 1 maps to the
conservative (min(OVL(L), OVL(U)), 1] with the upper limit pinned at 1.

Note the KL overlap transform uses Lambda(x) = x / (x^2 - x + 1), matching
its closed form (and keeping the endpoints inside [0, 1] for every x > 0).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ._inputs import _real
from .distributions import f_quantile
from .estimation import RatioEstimates
from .measures import COEFFICIENTS, MEASURES

#: Target name of the ratio interval; coefficient intervals carry their key.
RATIO_TARGET = "ratio"

#: The smallest and largest positive floats, the ends of a ratio limit.
_TINY, _HUGE = 5e-324, sys.float_info.max


class InvalidInterval(ValueError):
    """The input interval cannot be transformed (wrong target or endpoints)."""


@dataclass(frozen=True)
class ConfidenceInterval:
    target: str
    level: float
    lower: float
    upper: float
    contains_one: bool = False

    def __post_init__(self) -> None:
        _real("level", self.level, high=1.0)
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")


def ratio_ci(estimates: RatioEstimates, level: float = 0.95) -> ConfidenceInterval:
    """Exact confidence interval for R from the F pivot.

    Uses the uncorrected r_hat: the pivot r_hat / R ~ F(2 n1, 2 n2) is exact
    as stated, so coverage is exactly the nominal level.
    """
    alpha = 1.0 - _real("level", level, high=1.0)
    d1, d2 = 2 * estimates.n1, 2 * estimates.n2
    lower = estimates.r_hat * f_quantile(d2, d1, alpha / 2.0)
    upper = estimates.r_hat / f_quantile(d1, d2, alpha / 2.0)
    lower, upper = (min(max(limit, _TINY), _HUGE) for limit in (lower, upper))
    return ConfidenceInterval(lower=lower, upper=upper, level=level,
                              target=RATIO_TARGET,
                              contains_one=lower < 1.0 < upper)


def ovl_ci(ratio_interval: ConfidenceInterval, which: str) -> ConfidenceInterval:
    """Transform a ratio interval into an interval for one coefficient."""
    if which not in COEFFICIENTS:
        raise InvalidInterval(f"unknown coefficient {which!r}")
    if ratio_interval.target != RATIO_TARGET:
        raise InvalidInterval(f"expected a ratio interval, got target {ratio_interval.target!r}")
    lo, hi = ratio_interval.lower, ratio_interval.upper
    if not (0.0 < lo <= hi):
        raise InvalidInterval(f"need 0 < lower <= upper, got ({lo}, {hi})")

    # monotone on either side of 1, so the images of the limits are in order
    # but for rounding, which can swap them where the coefficient is flat
    ends = sorted((MEASURES[which](lo), MEASURES[which](hi)))
    straddles = lo < 1.0 < hi
    lower, upper = ends[0], 1.0 if straddles else ends[1]
    return ConfidenceInterval(lower=lower, upper=upper,
                              level=ratio_interval.level, target=which,
                              contains_one=straddles)


def all_ovl_cis(ratio_interval: ConfidenceInterval) -> dict[str, ConfidenceInterval]:
    return {key: ovl_ci(ratio_interval, key) for key in COEFFICIENTS}
