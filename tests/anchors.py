"""Closed-form anchor values shared by the test modules.

Written out here rather than imported from ``checks.ANCHOR_QUARTETS``, so the
tests stay independent of the code they check.
"""

#: 3-decimal values of the quartet at the study ratios, in COEFFICIENTS order.
ANCHORS = {
    0.2: (0.465, 0.745, 0.556, 0.238),
    0.5: (0.750, 0.943, 0.889, 0.667),
    0.8: (0.918, 0.994, 0.988, 0.952),
}
