"""Closed-form overlap coefficients between two exponential densities.

All four coefficients depend on the two populations only through the
parameter ratio r = theta1 / theta2:

    weitzman_delta    area under min(f1, f2):  1 - |1 - 1/r| * r**(1/(1-r))
    matusita_rho      integral of sqrt(f1*f2):  2*sqrt(r) / (1 + r)
    morisita_lambda   2*int(f1*f2) / (int f1^2 + int f2^2):  4*r / (1 + r)**2
    kl_lambda         1 / (1 + J), J the symmetric KL divergence:  r / (r^2 - r + 1)

Every coefficient lies in [0, 1], equals 1 exactly at r = 1, vanishes in the
limits r -> 0 and r -> inf, satisfies OVL(r) = OVL(1/r), and is strictly
increasing on (0, 1), strictly decreasing on (1, inf).

``overlap_by_quadrature(rate1, rate2, which)`` evaluates the defining
integrals numerically over the two densities rate * exp(-rate * x), with
adaptive Gauss-Kronrod quadrature; the ratio is r = rate1 / rate2.  It never
calls the closed forms, so it serves as an independent oracle for them.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

#: Canonical coefficient keys, used for dict results, CSV columns and CLI output.
COEFFICIENTS = ("delta", "rho", "lambda", "kl_lambda")


class QuadratureNonConvergence(RuntimeError):
    """Adaptive quadrature failed to reach the error target within budget."""


def _as_ratio(r):
    """Validate a ratio argument; returns (ndarray, was_scalar)."""
    arr = np.asarray(r, dtype=float)
    if arr.size == 0:
        raise ValueError("ratio argument is empty")
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
        raise ValueError("ratio must be strictly positive and finite")
    return arr, arr.ndim == 0


def _log_ratio_over_gap(r: np.ndarray) -> np.ndarray:
    """log(r) / (1 - r), with a series expansion near r = 1.

    The direct quotient is 0/0 at r = 1; for |r - 1| < 1e-6 use
    -1 + t/2 - t^2/3 + t^3/4 with t = r - 1 (error below 1e-24 there).
    """
    t = r - 1.0
    small = np.abs(t) < 1e-6
    safe_r = np.where(small, 2.0, r)
    safe_gap = np.where(small, 1.0, 1.0 - r)
    direct = np.log(safe_r) / safe_gap
    series = -1.0 + t / 2.0 - t * t / 3.0 + t * t * t / 4.0
    return np.where(small, series, direct)


def weitzman_delta(r):
    """Weitzman overlap: the area under the pointwise minimum of the densities.

    Returns 1 - |1 - 1/r| * r**(1/(1-r)), extended by continuity to 1 at r = 1.
    Accepts a float or an ndarray of ratios.
    """
    arr, scalar = _as_ratio(r)
    q = _log_ratio_over_gap(arr)
    val = 1.0 - np.abs(1.0 - 1.0 / arr) * np.exp(q)
    # guard against sub-ulp excursions outside [0, 1] at extreme ratios
    val = np.clip(val, 0.0, 1.0)
    val = np.where(arr == 1.0, 1.0, val)
    return float(val) if scalar else val


def matusita_rho(r):
    """Matusita overlap 2*sqrt(r)/(1 + r) (the Bhattacharyya affinity)."""
    arr, scalar = _as_ratio(r)
    val = np.clip(2.0 * np.sqrt(arr) / (1.0 + arr), 0.0, 1.0)
    return float(val) if scalar else val


def morisita_lambda(r):
    """Morisita similarity index 4*r/(1 + r)**2."""
    arr, scalar = _as_ratio(r)
    val = np.clip(4.0 * arr / (1.0 + arr) ** 2, 0.0, 1.0)
    return float(val) if scalar else val


def kl_lambda(r):
    """Overlap 1 / (1 + J), J = (r - 1)^2 / r the symmetric KL divergence: r / (r^2 - r + 1).

    The denominator is positive for every real r, so there is no singularity.
    """
    arr, scalar = _as_ratio(r)
    val = np.clip(arr / (arr * arr - arr + 1.0), 0.0, 1.0)
    return float(val) if scalar else val


#: Coefficient key -> closed-form function of the ratio.
MEASURES = {
    "delta": weitzman_delta,
    "rho": matusita_rho,
    "lambda": morisita_lambda,
    "kl_lambda": kl_lambda,
}


def overlap_quartet(r) -> dict:
    """All four coefficients at the same ratio, keyed in COEFFICIENTS order;
    values are floats for a float ratio, ndarrays for an ndarray."""
    return {key: MEASURES[key](r) for key in COEFFICIENTS}


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature (the independent oracle)
# ---------------------------------------------------------------------------

#: Absolute error target of each integral behind ``overlap_by_quadrature``.
_QUADRATURE_TOL = 1e-10

# 15-point Kronrod nodes with embedded 7-point Gauss rule.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WEIGHTS_K = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GK_WEIGHTS_G = np.array([
    0.0, 0.129484966168870, 0.0,
    0.279705391489277, 0.0, 0.381830050505119,
    0.0, 0.417959183673469,
    0.0, 0.381830050505119, 0.0,
    0.279705391489277, 0.0, 0.129484966168870,
    0.0,
])


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 15(7) panel; returns (estimate, error_estimate)."""
    half = 0.5 * (b - a)
    xs = half * _GK_NODES + 0.5 * (a + b)
    fx = np.asarray(f(xs), dtype=float)
    k15 = half * float(np.dot(_GK_WEIGHTS_K, fx))
    g7 = half * float(np.dot(_GK_WEIGHTS_G, fx))
    return k15, abs(k15 - g7)


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10,
                       max_subdivisions: int = 4000,
                       initial_points=None) -> float:
    """Integrate f over [a, b] to absolute accuracy tol.

    The worst interval (largest error estimate) is bisected until the summed
    error estimate drops below tol.  ``initial_points`` seeds extra interval
    boundaries, useful when the mass of the integrand is far from uniform.

    Raises QuadratureNonConvergence when the subdivision budget is exhausted.
    """
    pts = sorted({float(a), float(b), *(float(p) for p in (initial_points or ()))})
    pts = [p for p in pts if a <= p <= b]
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    total_err = 0.0
    for left, right in zip(pts, pts[1:]):
        val, err = _gk15(f, left, right)
        heapq.heappush(heap, (-err, counter, left, right, val))
        counter += 1
        total_err += err

    splits = 0
    while total_err > tol:
        if splits >= max_subdivisions:
            raise QuadratureNonConvergence(
                f"error estimate {total_err:.3e} above tol {tol:.3e} "
                f"after {splits} subdivisions")
        neg_err, _, left, right, _ = heapq.heappop(heap)
        total_err += neg_err  # neg_err = -err of the removed interval
        mid = 0.5 * (left + right)
        if mid <= left or mid >= right:
            # interval at floating point resolution; keep its estimate as is
            heapq.heappush(heap, (0.0, counter, left, right, -neg_err))
            counter += 1
            continue
        for lo, hi in ((left, mid), (mid, right)):
            val, err = _gk15(f, lo, hi)
            heapq.heappush(heap, (-err, counter, lo, hi, val))
            counter += 1
            total_err += err
        splits += 1

    # sum in interval order for a deterministic, well-conditioned total
    return float(sum(val for _, _, _, _, val in sorted(heap, key=lambda e: e[2])))


def overlap_by_quadrature(rate1: float, rate2: float, which: str) -> float:
    """Evaluate one overlap coefficient from its defining integral over the
    densities rate * exp(-rate * x) of the two populations.

    The integrals run over [0, x_max] with x_max = 50 / min(rate1, rate2);
    the neglected tail of every integrand is bounded by exp(-50), far below
    the error target of _QUADRATURE_TOL per integral.  Absolute error of the
    result is held below ~1e-9.

    Args:
        rate1: hazard rate of the first population.
        rate2: hazard rate of the second population.
        which: one of COEFFICIENTS.

    Raises:
        ValueError: unknown coefficient key, or a rate that is not strictly
            positive and finite.
        QuadratureNonConvergence: budget exhausted before reaching the target.
    """
    if which not in COEFFICIENTS:
        raise ValueError(f"unknown coefficient {which!r}, expected one of {COEFFICIENTS}")
    for name, rate in (("rate1", rate1), ("rate2", rate2)):
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"{name} must be strictly positive and finite, got {rate!r}")
    r1, r2 = rate1, rate2
    x_max = 50.0 / min(r1, r2)
    # min(f1, f2) has a kink where the densities cross; the error estimate of
    # a panel straddling it is far too small, so the crossing is a boundary
    kinks = (math.log(r1 / r2) / (r1 - r2),) if which == "delta" and r1 != r2 else ()
    seeds = sorted({s for s in (
        1.0 / max(r1, r2), 1.0 / min(r1, r2),
        5.0 / min(r1, r2), 20.0 / min(r1, r2), *kinks,
    ) if 0.0 < s < x_max})

    def f1(x):
        return r1 * np.exp(-r1 * x)

    def f2(x):
        return r2 * np.exp(-r2 * x)

    def integrate(g, part_tol=_QUADRATURE_TOL):
        return integrate_adaptive(g, 0.0, x_max, tol=part_tol, initial_points=seeds)

    if which == "delta":
        return integrate(lambda x: np.minimum(f1(x), f2(x)))
    if which == "rho":
        return integrate(lambda x: np.sqrt(f1(x) * f2(x)))
    if which == "lambda":
        part_tol = 0.25 * _QUADRATURE_TOL * max(1.0, 0.5 * (r1 + r2))
        i12 = integrate(lambda x: f1(x) * f2(x), part_tol)
        i11 = integrate(lambda x: f1(x) ** 2, part_tol)
        i22 = integrate(lambda x: f2(x) ** 2, part_tol)
        return 2.0 * i12 / (i11 + i22)
    # symmetric KL divergence, evaluated with log densities to dodge underflow
    log_ratio = math.log(r1) - math.log(r2)
    j_tol = _QUADRATURE_TOL * (1.0 + r1 / r2 + r2 / r1)
    j = integrate(lambda x: (f1(x) - f2(x)) * (log_ratio - (r1 - r2) * x), j_tol)
    return 1.0 / (1.0 + max(j, 0.0))
