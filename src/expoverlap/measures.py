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
integrals numerically over the two densities rate * exp(-rate * x), with a
fixed 24-point Gauss-Legendre rule on panels at the known scales 2^k / rate;
the ratio is r = rate1 / rate2.  It never calls the closed forms, so it serves
as an independent oracle for them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._inputs import _positive, _real

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
    return 4.0 * s / ((1.0 + s) * (1.0 + s))  # a np.float64's ** 2 is libm's pow


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
# Fixed Gauss-Legendre quadrature (the independent oracle)
# ---------------------------------------------------------------------------

#: Nodes and weights of the 24-point Gauss-Legendre rule on [-1, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gauss_legendre(f, edges) -> float:
    """The 24-point Gauss-Legendre rule summed over the panels between consecutive
    ``edges``, from one call of f on the (panels, 24) array of all their nodes."""
    edges = np.asarray(edges, dtype=float)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    return float(half @ (f(half[:, None] * _GL_NODES + mid[:, None]) @ _GL_WEIGHTS))


def overlap_by_quadrature(rate1: float, rate2: float, which: str) -> float:
    """Evaluate one overlap coefficient from its defining integral over the
    densities rate * exp(-rate * x) of the two populations.

    Each integrand is a sum of exponentials in x, smooth between the scales
    2^k / rate, so the integrals run over [0, x_max], x_max = 50 / min(rate1,
    rate2), on panels cut at 2^k / rate for k = -2 ... 6 and both rates, and for
    delta at the kink of min(f1, f2) where the densities cross.  The neglected
    tail of every integrand is bounded by exp(-50).  Both rates are first scaled,
    exactly, by the power of two that puts the larger in [0.5, 1), so the value
    is bitwise the same under any common power-of-two scale of the rates.

    Args:
        rate1: hazard rate of the first population.
        rate2: hazard rate of the second population.
        which: one of COEFFICIENTS.

    Raises:
        ValueError: unknown coefficient key, a rate that is not strictly
            positive and finite, or a rate ratio outside 2^-1000 ... 2^1000.
    """
    if which not in COEFFICIENTS:
        raise ValueError(f"unknown coefficient {which!r}, expected one of {COEFFICIENTS}")
    r1, r2 = _real("rate1", rate1), _real("rate2", rate2)
    e = math.frexp(max(r1, r2))[1]
    r1, r2 = math.ldexp(r1, -e), math.ldexp(r2, -e)
    if min(r1, r2) < 2.0 ** -1000 * max(r1, r2):  # keeps both rates normal, 50 / rate finite
        raise ValueError(f"rate1 / rate2 = {rate1!r} / {rate2!r} is outside 2^-1000 ... 2^1000")
    x_max = 50.0 / min(r1, r2)
    kinks = [math.log(r1 / r2) / (r1 - r2)] if which == "delta" and r1 != r2 else []
    scales = 2.0 ** np.arange(-2, 7)
    edges = np.unique([0.0, x_max, *kinks, *scales / r1, *scales / r2])
    integrate = functools.partial(_gauss_legendre, edges=edges[edges <= x_max])

    def f1(x):
        return r1 * np.exp(-r1 * x)

    def f2(x):
        return r2 * np.exp(-r2 * x)

    if which == "delta":
        return integrate(lambda x: np.minimum(f1(x), f2(x)))
    if which == "rho":
        return integrate(lambda x: np.sqrt(f1(x) * f2(x)))
    if which == "lambda":
        i12 = integrate(lambda x: f1(x) * f2(x))
        return 2.0 * i12 / (integrate(lambda x: f1(x) ** 2) + integrate(lambda x: f2(x) ** 2))
    # symmetric KL divergence, evaluated with log densities to dodge underflow
    log_ratio = math.log(r1) - math.log(r2)
    j = integrate(lambda x: (f1(x) - f2(x)) * (log_ratio - (r1 - r2) * x))
    return 1.0 / (1.0 + max(j, 0.0))
