"""Sampling and distribution functions backing estimation and simulation.

Contents: a counter-based seeded stream abstraction (Philox), the exponential
inverse-CDF sampler, the regularized incomplete beta function by continued
fraction, the F distribution CDF/quantile built on it, the gamma (Erlang) CDF
of the exponential sample mean, and small Kolmogorov-Smirnov helpers used by
the distribution-law self checks.

Everything here is deterministic: a (seed, stream_id) pair always produces
the same variates under any execution order.  The Philox uniforms are the
same on every platform; ``sample_exponential`` maps them through numpy's
SIMD ``log``, so its variates are bit-identical on the same numpy build and
CPU features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonConvergence(RuntimeError):
    """An iterative evaluation exhausted its budget before converging."""


@dataclass(frozen=True)
class SeededStream:
    """A reproducible, independent random substream.

    Keyed by (seed, stream_id) into a Philox counter-based generator, so
    distinct stream_ids give statistically independent streams and the same
    pair always reproduces the same sequence.  A stream is a value, not a
    mutable generator: every call to ``uniforms`` restarts from the key.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not (0 <= int(v) < 2 ** 64):
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform variates on the open interval (0, 1).

        Raw 64-bit Philox output is mapped through (raw >> 11 + 0.5) * 2^-53,
        which can produce neither 0.0 nor 1.0.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        key = (int(self.stream_id) << 64) | int(self.seed)
        raw = np.random.Philox(key=key).random_raw(int(n))
        return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def sample_exponential(stream: SeededStream, mean_theta: float, n: int) -> np.ndarray:
    """n i.i.d. draws from the exponential density (1/theta) exp(-x/theta).

    Inverse-CDF method x = -theta * log(U); with U in the open unit interval
    the output is always finite and strictly positive, and scaling in theta
    is exact: the theta=2 sample is bitwise twice the theta=1 sample.
    """
    if not (math.isfinite(mean_theta) and mean_theta > 0):
        raise ValueError(f"mean_theta must be strictly positive, got {mean_theta!r}")
    return mean_theta * (-np.log(stream.uniforms(n)))


# ---------------------------------------------------------------------------
# Regularized incomplete beta and the F distribution
# ---------------------------------------------------------------------------

_BETA_EPS = 1e-15


def _beta_cf(a: float, b: float, x: np.ndarray, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """R with I_x(a, b) = R x^a y^b / B(a, b), for x <= a/(a+b) and y = 1 - x.

    DiDonato & Morris (TOMS 708) bfrac, vectorized over x.  lam = a - (a+b) x
    is passed in so that a reflected call can form it from the exact original
    x, not from the rounded 1 - x; no step then cancels near the mode.  Runs
    until every convergent moves by at most _BETA_EPS relative; near the mode
    that takes ~(a+b)^(1/3) terms (544 at a = b = 1e6), capped at 500 + 4 sqrt(a+b).
    """
    max_iter = 500 + int(4.0 * math.sqrt(a + b))
    c, c0, c1, yp1 = 1.0 + lam, b / a, 1.0 + 1.0 / a, y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1, r = 0.0, 1.0, 1.0, c / c1, c1 / c
    for n in range(1, max_iter + 1):
        t, w = n / a, n * (b - n) * x
        alpha = p * (p + c0) * (a / s) ** 2 * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + 2.0 * t) * (c + n * yp1)
        p, s = 1.0 + t, s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if np.all(np.abs(r - r0) <= _BETA_EPS * r):
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise NonConvergence(
        f"incomplete beta continued fraction: no convergence in {max_iter} "
        f"iterations for a={a}, b={b}")


def _rlog1(e, log1p_e):
    """e - log(1 + e), given log(1 + e); by the atanh series in w = e/(2 + e) for |e| < 0.1."""
    w = e / (2.0 + e)
    series = e * w - 2.0 * w ** 3 * np.polyval(1.0 / np.arange(13.0, 2.0, -2.0), w * w)
    return np.where(np.abs(e) < 0.1, series, e - log1p_e)


def _stirling_rest(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), by its series from z = 30 on."""
    if z < 30.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + 0.5 * math.log(2.0 * math.pi))
    z2 = 1.0 / (z * z)
    return (1.0 / 12.0 - z2 * (1.0 / 360.0 - z2 * (1.0 / 1260.0 - z2 / 1680.0))) / z


def _log_front(a: float, b: float, x):
    """log(x^a (1-x)^b / B(a, b)), the front factor of I_x(a, b), for 0 < x < 1.

    From a or b = 30 on, where lgamma(a) + lgamma(b) - lgamma(a+b) cancels,
    ln B is in Stirling form with the terms linear in x - a/(a+b) cancelled
    analytically (DiDonato & Morris, TOMS 708, brcomp).
    """
    if max(a, b) < 30.0:
        ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        return a * np.log(x) + b * np.log1p(-x) - ln_beta
    x0, y0 = a / (a + b), b / (a + b)
    return (0.5 * math.log(a * y0 / (2.0 * math.pi))
            - a * _rlog1((x - x0) / x0, np.log(x) - math.log(x0))
            - b * _rlog1((x0 - x) / y0, np.log1p(-x) - math.log(y0))
            - _stirling_rest(a) - _stirling_rest(b) + _stirling_rest(a + b))


def regularized_incomplete_beta(a: float, b: float, x):
    """I_x(a, b) to absolute accuracy ~1e-12, and relative ~1e-12 below a/(a+b).

    The front factor x^a (1-x)^b / B(a, b) times the continued fraction of
    _beta_cf, switching through I_x(a, b) = 1 - I_{1-x}(b, a) above the mode
    a/(a+b).  Vectorized over x; a, b are scalars.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("x must lie in [0, 1]")

    out = np.empty_like(arr)
    at_zero = arr == 0.0
    at_one = arr == 1.0
    out[at_zero] = 0.0
    out[at_one] = 1.0

    interior = ~(at_zero | at_one)
    xi = arr[interior]
    if xi.size:
        front, yi, lam = np.exp(_log_front(a, b, xi)), 1.0 - xi, a - (a + b) * xi
        res = np.empty_like(xi)
        d = lam > 0
        if np.any(d):
            res[d] = front[d] * _beta_cf(a, b, xi[d], yi[d], lam[d])
        if np.any(~d):
            res[~d] = 1.0 - front[~d] * _beta_cf(b, a, yi[~d], xi[~d], -lam[~d])
        out[interior] = res

    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def _check_df(d1: int, d2: int) -> None:
    if not (isinstance(d1, (int, np.integer)) and isinstance(d2, (int, np.integer))):
        raise ValueError("degrees of freedom must be integers")
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")


def f_cdf(d1: int, d2: int, x):
    """CDF of the F(d1, d2) distribution: I_y(d1/2, d2/2), y = d1 x/(d1 x + d2),
    and y = 1 at x = inf."""
    _check_df(d1, d2)
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0):
        raise ValueError("x must be nonnegative")
    # in place, to allocate no more than the plain quotient d1 x / (d1 x + d2)
    y = np.asarray(d1 * arr)
    inf = np.isinf(y)
    np.divide(y, y + d2, out=y, where=~inf)
    y[inf] = 1.0
    return regularized_incomplete_beta(d1 / 2.0, d2 / 2.0, y)


def f_pdf(d1: int, d2: int, x: float) -> float:
    """Density of the F(d1, d2) distribution; x f(x) is the front factor at y."""
    _check_df(d1, d2)
    if x <= 0:
        return 0.0
    y = d1 * x / (d1 * x + d2)
    return math.exp(float(_log_front(d1 / 2.0, d2 / 2.0, y))) / x


#: Largest step in log x while the quantile is not yet bracketed on that side.
_LOG_STEP_MAX = 16.0


def f_quantile(d1: int, d2: int, prob: float) -> float:
    """Quantile of F(d1, d2): x with |f_cdf(x) - prob| <= 1e-12 min(prob, 1 - prob).

    Solved in the smaller tail: for prob > 1/2, F(d2, d1) at 1 - prob, then
    the reciprocal.  Paulson's cube-root normal approximation (A&S 26.6.15,
    normal quantile by 26.2.23) starts Newton on log F in u = log x, slope
    x f(x) / F; F(e^u) is log-concave, so after at most one overshoot it
    converges monotonically, in ~3 CDF calls.  Until F - p changes sign on a
    side of the bracket in u, steps toward it are capped at _LOG_STEP_MAX;
    steps out of a closed bracket become bisection.  A step below 1e-12 in u
    also ends it, for where f_cdf's rounding exceeds the target (d1 >> d2).
    """
    _check_df(d1, d2)
    if not (0.0 < prob < 1.0):
        raise ValueError(f"prob must lie strictly between 0 and 1, got {prob!r}")
    swap = prob > 0.5
    if swap:
        d1, d2, prob = d2, d1, 1.0 - prob

    t = math.sqrt(-2.0 * math.log(prob))
    z = -t + (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    c1, c2 = 2.0 / (9.0 * d1), 2.0 / (9.0 * d2)
    # keep z where Paulson's quadratic in x^(1/3) has a positive root
    z = max(z, -0.9 * min((1.0 - c1) / math.sqrt(c1), (1.0 - c2) / math.sqrt(c2)))
    rad = (1.0 - c1) ** 2 * c2 + (1.0 - c2) ** 2 * c1 - z * z * c1 * c2
    u = 3.0 * math.log(((1.0 - c1) * (1.0 - c2) + z * math.sqrt(rad))
                       / ((1.0 - c2) ** 2 - z * z * c2))

    lo, hi = -math.inf, math.inf
    for _ in range(100):
        x = math.exp(u)
        cdf = f_cdf(d1, d2, x)
        if abs(cdf - prob) <= 1e-12 * prob:
            break
        lo, hi = (lo, u) if cdf > prob else (u, hi)
        slope = x * f_pdf(d1, d2, x) / cdf if cdf > 0 else 0.0
        step = -math.log(cdf / prob) / slope if slope > 0 else math.copysign(math.inf, prob - cdf)
        nxt = u + min(max(step, -_LOG_STEP_MAX), _LOG_STEP_MAX)
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - u) <= 1e-12:
            x = math.exp(nxt)
            break
        u = nxt
    else:
        raise NonConvergence(f"F quantile did not converge for df=({d1},{d2}), prob={prob}")
    return 1.0 / x if swap else x


def reciprocal_f_identity_check(d1: int, d2: int, prob: float) -> bool:
    """Verify F_q(d1, d2; p) == 1 / F_q(d2, d1; 1-p) to relative tolerance 1e-9."""
    q = f_quantile(d1, d2, prob)
    q_swapped = f_quantile(d2, d1, 1.0 - prob)
    return abs(q * q_swapped - 1.0) <= 1e-9 * max(1.0, abs(q * q_swapped))


# ---------------------------------------------------------------------------
# Gamma (Erlang) law of the exponential sample mean, KS helpers
# ---------------------------------------------------------------------------


def erlang_cdf(shape: int, scale: float, x):
    """CDF of Gamma(shape, scale) for integer shape.

    The sample mean of n exponential observations with mean theta follows
    Gamma(n, theta/n), so an integer-shape (Erlang) CDF is all the sampling
    law checks need.  Computed as P(k, y) = 1 - sum_{j<k} t_j with
    t_j = exp(-y) y^j / j!, each term built from a running log
    log t_j = log t_{j-1} + log y - log j, so exp(-y) never underflows.
    """
    if not isinstance(shape, (int, np.integer)) or shape < 1:
        raise ValueError(f"shape must be a positive integer, got {shape!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be strictly positive, got {scale!r}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    y = np.maximum(np.atleast_1d(arr) / scale, 0.0)
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    log_term = -y
    total = np.exp(log_term)
    for j in range(1, int(shape)):
        log_term += log_y - math.log(j)
        total += np.exp(log_term)
    out = np.clip(1.0 - total, 0.0, 1.0)
    return float(out[0]) if scalar else out


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance between a sample and a CDF."""
    xs = np.sort(np.asarray(sample, dtype=float))
    m = xs.size
    if m == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, m + 1, dtype=float)
    return float(np.maximum(f - (i - 1.0) / m, i / m - f).max())


def ks_critical_value(m: int, alpha: float) -> float:
    """Asymptotic two-sided KS critical value sqrt(log(2/alpha) / (2m))."""
    if m < 1 or not (0.0 < alpha < 1.0):
        raise ValueError("need m >= 1 and 0 < alpha < 1")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))
