"""The input rules of the library, each written once.  A bool is never a number,
a numpy scalar counts as its kind, and each validator raises the ValueError
subclass its caller names, so an error keeps its type and exit code."""

import math
from numbers import Integral, Real

import numpy as np


def _real(name, value, error=ValueError, high=math.inf, low=0.0):
    """``value`` as a float, if a real number in (low, high); ``float`` skips the ABC check."""
    if type(value) is bool or not isinstance(value, (float, Real)) or not low < value < high:
        raise error(f"{name} must be a real number in ({low!r}, {high!r}), got {value!r}")
    return float(value)


def _integer(name, value, low=-math.inf, error=ValueError, high=math.inf, rule=None):
    """``value`` as an int, if it is an integer in [low, high); the error says that
    ``name`` must ``rule``, by default "be an integer" or "be >= low"."""
    is_int = type(value) is int or type(value) is not bool and isinstance(value, Integral)
    if not (is_int and low <= value < high):
        rule = rule or (f"be >= {low}" if is_int else "be an integer")
        raise error(f"{name} must {rule}, got {value!r}")
    return int(value)


def _not_numbers(values, arr):
    """Whether ``arr = np.asarray(values)`` is not of a numeric dtype, or came from a
    list or tuple that holds a bool; only a list or tuple has its elements scanned."""
    return arr.dtype.kind not in "fiu" or isinstance(values, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat)


def _points(name, values):
    """``values`` as a float array, 0-d for a scalar, if numbers; the caller checks their range."""
    arr = np.asarray(values)
    if _not_numbers(values, arr):
        raise ValueError(f"{name} must be a real number or an array of them")
    return np.asarray(arr, dtype=float)


def _positive(name, values, error=ValueError, ndim=None):
    """``values`` as a float array, if numbers, nonempty, of ``ndim``
    dimensions when given, and every value positive and finite."""
    arr = np.asarray(values)
    if (_not_numbers(values, arr) or arr.size == 0 or ndim not in (None, arr.ndim)
            or not 0 < arr.min() <= arr.max() < math.inf):
        raise error(f"{name} must be nonempty and strictly positive")
    return np.asarray(arr, dtype=float)
