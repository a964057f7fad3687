"""Sampling and distribution functions backing estimation and simulation.

Contents: a counter-based seeded stream abstraction (Philox), the exponential
inverse-CDF sampler, the regularized incomplete beta function by continued
fraction, the F distribution CDF/quantile built on it, the gamma (Erlang) CDF
of the exponential sample mean, and small Kolmogorov-Smirnov helpers used by
the distribution-law self checks.  A scalar incomplete beta, as in each F
quantile, runs its continued fraction on Python floats, with the bits of a
one-element array.

Everything here is deterministic: a (seed, stream_id) pair always produces
the same variates under any execution order.  Each thread keeps one Philox,
a Generator on it and one state dict: a call swaps the dict's key, assigns
it, and adds half an ulp to the Generator's 53-bit doubles, so a stream is
still a value.  The Philox uniforms are the same on every platform;
``sample_exponential`` maps them through numpy's SIMD ``log``, so its
variates are bit-identical on the same numpy build and CPU features, and a
list of streams mapped in place gives each row the bits of its stream alone.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from ._inputs import _integer, _points, _real


class NonConvergence(RuntimeError):
    """An iterative evaluation exhausted its budget before converging."""


#: Per thread: a Philox generator, a Generator on it and the state dict it is re-keyed from.
_PER_THREAD = threading.local()

#: 2^-54 as a 0-d array, which numpy adds without converting a Python float on each call.
_HALF_ULP = np.array(2.0 ** -54)


def _uniforms(generator: np.random.Generator, n: int) -> np.ndarray:
    """((w >> 11) + 0.5) * 2^-53 of the next n words w, as ``random``'s k * 2^-53 (k = w >> 11)
    plus 2^-54, which rounds as k + 0.5 does: 1.0 for w >= 2^64 - 2^11."""
    u = generator.random(n)
    u += _HALF_ULP
    return u


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
        seed, i = self.seed, self.stream_id  # hot path: once per replication and population
        if type(seed) is type(i) is int and 0 <= seed < 2 ** 64 and 0 <= i < 2 ** 64:
            return
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 0, high=2 ** 64,
                                                    rule="be an unsigned 64-bit integer"))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform variates on (0, 1]: ((raw >> 11) + 0.5) * 2^-53 of the raw
        64-bit Philox words, never 0.0 but 1.0 with probability 2^-53 per draw."""
        n = n if type(n) is int and n >= 1 else _integer("n", n, 1)  # hot path: once per stream
        keyed = getattr(_PER_THREAD, "keyed", None)
        if keyed is None:  # counter 0, empty buffer: a fresh Philox(key=(stream_id << 64) | seed)
            philox = np.random.Philox(key=0)
            keyed = _PER_THREAD.keyed = (philox, np.random.Generator(philox), {
                "bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0, "state": {"counter": [0] * 4, "key": None}})
        philox, generator, state = keyed
        state["state"]["key"] = (self.seed, self.stream_id)
        philox.state = state
        return _uniforms(generator, n)


def sample_exponential(stream: SeededStream | list[SeededStream], mean_theta: float,
                       n: int) -> np.ndarray:
    """n i.i.d. draws from the exponential density (1/theta) exp(-x/theta).

    Inverse-CDF method x = -theta * log(U); with U in (0, 1] the output is
    finite and non-negative: -0.0 where U is 1.0 (probability 2^-53 per
    draw).  Scaling in theta is exact: the theta=2 sample is bitwise twice
    the theta=1 sample.  Given a list of streams, the result has one row of
    n draws per stream, each bitwise the sample that stream gives alone.
    """
    mean_theta = _real("mean_theta", mean_theta)
    x = (stream.uniforms(n) if isinstance(stream, SeededStream)
         else np.concatenate([s.uniforms(n) for s in stream]).reshape(len(stream), n))
    np.log(x, out=x)
    return np.multiply(-mean_theta, x, out=x)


# ---------------------------------------------------------------------------
# Regularized incomplete beta and the F distribution
# ---------------------------------------------------------------------------

_BETA_EPS = 1e-15


def _beta_cf(a: float, b: float, x, y, lam):
    """R with I_x(a, b) = R x^a y^b / B(a, b), for x <= a/(a+b) and y = 1 - x.

    DiDonato & Morris (TOMS 708) bfrac, over arrays or Python floats x, y, lam,
    whose + - * / round as numpy's do.  lam = a - (a+b) x is passed in so that
    a reflected call can form it from the exact original x, not from the
    rounded 1 - x; no step then cancels near the mode.  Runs
    until every convergent moves by at most _BETA_EPS relative; near the mode
    that takes ~4.3 (a+b)^(1/3) terms (544 at a = b = 1e6, 53,757 at 1e12), capped
    at 500 + 4 sqrt(a+b) and at 10^5, which ends a call near the mode past a+b ~ 1e13.
    """
    scalar = isinstance(x, float)
    max_iter = min(500 + int(4.0 * math.sqrt(a + b)), 100_000)
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
        done = abs(r - r0) <= _BETA_EPS * r
        if done if scalar else done.all():
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise NonConvergence(
        f"incomplete beta continued fraction: no convergence in {max_iter} "
        f"iterations for a={a}, b={b}")


def _rlog1(e, log1p_e):
    """e - log(1 + e), given log(1 + e); by the atanh series in w = e/(2 + e) for |e| < 0.1."""
    w, poly = e / (2.0 + e), 1.0 / 13.0
    for k in (11.0, 9.0, 7.0, 5.0, 3.0):
        poly = poly * (w * w) + 1.0 / k
    # w^3 by numpy's power for every input: a np.float64's ** is libm's pow
    series = e * w - 2.0 * np.power(w, 3) * poly
    if isinstance(e, np.ndarray):
        return np.where(abs(e) < 0.1, series, e - log1p_e)
    return series if abs(e) < 0.1 else e - log1p_e


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
    """I_x(a, b), tested for a, b >= 1/2 (every F law) and a + b <= 2e12; outside,
    NonConvergence may end it (past ~1e13 near the mode, the 10^5-term budget does).

    Absolute accuracy ~1e-12, relative ~1e-12 below a/(a+b), except for b << a near a
    mode close to 1 (1.2e-10 at a = 2.6e6, b = 1.48).  The front factor x^a (1-x)^b
    / B(a, b) times _beta_cf's fraction, switching through I_x(a, b) = 1 - I_{1-x}(b, a)
    above the mode a/(a+b).  Vectorized over x; a, b are scalars.  A scalar x runs the
    same continued fraction on Python floats, with the bits of a one-element array.
    """
    a, b, arr = _real("a", a), _real("b", b), _points("x", x)
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("x must lie in [0, 1]")
    if arr.ndim == 0:
        x = arr[()]
        if x == 0.0 or x == 1.0:
            return float(x == 1.0)  # +0.0 also at x = -0.0
        front, lam, xf = np.exp(_log_front(a, b, x)), float(a - (a + b) * x), float(x)
        if lam > 0:
            res = front * _beta_cf(a, b, xf, 1.0 - xf, lam)
        else:
            res = 1.0 - front * _beta_cf(b, a, 1.0 - xf, xf, -lam)
        return min(max(float(res), 0.0), 1.0)
    out = np.where(arr == 1.0, 1.0, 0.0)
    interior = (arr > 0.0) & (arr < 1.0)
    xi = arr[interior]
    front, yi, lam = np.exp(_log_front(a, b, xi)), 1.0 - xi, a - (a + b) * xi
    res, d = np.empty_like(xi), lam > 0
    res[d] = front[d] * _beta_cf(a, b, xi[d], yi[d], lam[d])
    res[~d] = 1.0 - front[~d] * _beta_cf(b, a, yi[~d], xi[~d], -lam[~d])
    out[interior] = res
    return np.clip(out, 0.0, 1.0)


def f_cdf(d1: int, d2: int, x):
    """CDF of the F(d1, d2) distribution: I_y(d1/2, d2/2), y = d1 x/(d1 x + d2),
    and y = 1 where d1 x is past the float range, x = inf included."""
    d1, d2, arr = _integer("d1", d1, 1), _integer("d2", d2, 1), _points("x", x)
    if not np.all(arr >= 0):
        raise ValueError("x must be nonnegative")
    with np.errstate(over="ignore"):  # d1 x past the range reads as max, and max/(max + d2) is 1
        y = np.minimum(d1 * arr, sys.float_info.max)
    y /= y + d2
    return regularized_incomplete_beta(d1 / 2.0, d2 / 2.0, y)


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
    d1, d2, prob = _integer("d1", d1, 1), _integer("d2", d2, 1), _real("prob", prob, high=1.0)
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
        slope = 0.0  # x f(x) / F: the front factor at y = d1 x/(d1 x + d2), over F
        if cdf > 0 and x < math.inf:
            slope = math.exp(float(_log_front(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2)))) / cdf
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
    A point whose x/scale is past the float range, x = inf included, gives 1.
    Vectorized over x; a 0-d x gives a np.float64 with the bits of an array element.
    """
    shape, scale = _integer("shape", shape, 1), _real("scale", scale)
    with np.errstate(over="ignore"):  # y = max gives exp(-max) = 0 in every term
        y = np.clip(_points("x", x) / scale, 0.0, sys.float_info.max)
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    log_term = -y
    total = np.exp(log_term)
    for j in range(1, shape):
        log_term += log_y - math.log(j)
        total += np.exp(log_term)
    return np.clip(1.0 - total, 0.0, 1.0)


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance between a sample, flattened, and a CDF."""
    xs = np.sort(_points("sample", sample), axis=None)
    m = xs.size
    if m == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, m + 1, dtype=float)
    return float(np.maximum(f - (i - 1.0) / m, i / m - f).max())


def ks_critical_value(m: int, alpha: float) -> float:
    """Asymptotic two-sided KS critical value sqrt(log(2/alpha) / (2m))."""
    m, alpha = _integer("m", m, 1), _real("alpha", alpha, high=1.0)
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))
