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

They are evaluated through that symmetry: ``_fold`` maps r to
s = min(r, 1/r) <= 1 (with w = 1 - s and log s), where each closed form is
written so that no term overflows, and the Taylor terms of ``estimation``
use the same fold.

``overlap_by_quadrature(rate1, rate2, which)`` evaluates the defining
integrals numerically over the two densities rate * exp(-rate * x), with
adaptive Gauss-Kronrod quadrature; the ratio is r = rate1 / rate2.  It never
calls the closed forms, so it serves as an independent oracle for them.
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np

from ._inputs import _positive, _real
from .distributions import NonConvergence

#: Canonical coefficient keys, used for dict results, CSV columns and CLI output.
COEFFICIENTS = ("delta", "rho", "lambda", "kl_lambda")


def _fold(r):
    """The arrays (s, w, log s) of s = min(r, 1/r) <= 1 and w = 1 - s.  Above 1
    they are 1/r, (r - 1)/r and -log r, so w and log s keep full relative
    accuracy near r = 1.  Raises ValueError for an empty or non-numeric argument
    (a bool is not a number) or a ratio that is not strictly positive and finite."""
    r = _positive("ratio", r)
    top = np.maximum(r, 1.0)
    return np.minimum(r, 1.0 / top), np.abs(1.0 - r) / top, -np.abs(np.log(r))


def _log_over_gap(w, log_s):
    """q = log(s) / (1 - s) of a folded ratio, extended by continuity to -1 at s = 1."""
    return np.divide(log_s, w, out=np.full_like(w, -1.0), where=w != 0.0)


def _closed_form(formula):
    """A function of the ratio r from a closed form on its fold (s, w, log s),
    clipped to [0, 1]; a float for a float r, an ndarray for an ndarray."""
    @functools.wraps(formula)
    def closed_form(r):
        folded = _fold(r)
        val = np.clip(formula(*folded), 0.0, 1.0)
        return float(val) if folded[0].ndim == 0 else val
    del closed_form.__wrapped__  # its signature is (r), not that of the formula
    return closed_form


@_closed_form
def weitzman_delta(s, w, log_s):
    """Weitzman overlap 1 - |1 - 1/r| * r**(1/(1-r)), the area under min(f1, f2);
    it is s e^(sq) - expm1(sq) with s = min(r, 1/r), q = log(s) / (1 - s)."""
    sq = s * _log_over_gap(w, log_s)
    return s * np.exp(sq) - np.expm1(sq)


@_closed_form
def matusita_rho(s, w, log_s):
    """Matusita overlap 2*sqrt(r)/(1 + r) (the Bhattacharyya affinity)."""
    return 2.0 * np.sqrt(s) / (1.0 + s)


@_closed_form
def morisita_lambda(s, w, log_s):
    """Morisita similarity index 4*r/(1 + r)**2."""
    return 4.0 * s / (1.0 + s) ** 2


@_closed_form
def kl_lambda(s, w, log_s):
    """Overlap 1 / (1 + J), J = (r - 1)^2 / r the symmetric KL divergence: r / (r^2 - r + 1);
    at s = min(r, 1/r) it is s / (1 - s (1 - s)), with the denominator in [3/4, 1]."""
    return s / (1.0 - s * w)


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
#: The Kronrod and Gauss weights as the two columns of one (15, 2) matrix.
_GK_WEIGHTS = np.stack([_GK_WEIGHTS_K, _GK_WEIGHTS_G], axis=1)


def _gk15(f, lefts, rights) -> tuple[list[float], list[float]]:
    """Gauss-Kronrod 15(7) panels [lefts[i], rights[i]] from one call of f on
    all their nodes; returns each panel's estimate and error estimate."""
    lefts, rights = np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float)
    half = 0.5 * (rights - lefts)
    xs = half[:, None] * _GK_NODES + (0.5 * (lefts + rights))[:, None]
    kg = np.asarray(f(xs), dtype=float) @ _GK_WEIGHTS
    k15, g7 = half * kg[:, 0], half * kg[:, 1]
    return k15.tolist(), np.abs(k15 - g7).tolist()


#: Bisections integrate_adaptive may make before it raises NonConvergence.
_MAX_SUBDIVISIONS = 4000


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10,
                       initial_points=None) -> float:
    """Integrate f over [a, b] to absolute accuracy tol.

    The worst interval (largest error estimate) is bisected until the summed
    error estimate drops below tol.  ``initial_points`` seeds extra interval
    boundaries, useful when the mass of the integrand is far from uniform.
    f is called on arrays of nodes: once on those of all the seeded
    intervals, then once per bisection on the 30 nodes of its two halves.

    Raises ValueError unless a, b, tol are finite reals; NonConvergence if the budget runs out.
    """
    a, b, tol = (_real(k, v, low=-math.inf) for k, v in (("a", a), ("b", b), ("tol", tol)))
    pts = sorted({a, b, *(float(p) for p in (initial_points or ()))})
    pts = [p for p in pts if a <= p <= b]
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    total_err = 0.0
    for left, right, val, err in zip(pts, pts[1:], *_gk15(f, pts[:-1], pts[1:])):
        heapq.heappush(heap, (-err, counter, left, right, val))
        counter += 1
        total_err += err

    splits = 0
    while total_err > tol:
        if splits >= _MAX_SUBDIVISIONS:
            raise NonConvergence(
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
        lefts, rights = (left, mid), (mid, right)
        for lo, hi, val, err in zip(lefts, rights, *_gk15(f, lefts, rights)):
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
        NonConvergence: budget exhausted before reaching the target.
    """
    if which not in COEFFICIENTS:
        raise ValueError(f"unknown coefficient {which!r}, expected one of {COEFFICIENTS}")
    r1, r2 = _real("rate1", rate1), _real("rate2", rate2)
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
