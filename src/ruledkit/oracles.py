"""Finite-difference oracles.

These exist to check analytic derivatives from the outside (tests and
the self-test command); the analysis pipeline never differentiates
numerically.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .splitmix import SplitMix64


def _default_step(order: int) -> float:
    # balances truncation O(h^4) against rounding eps/h^order
    return 1e-3 if order == 1 else 4e-3


def central_difference(f, t, order: int = 1, h: float | None = None):
    """Richardson-extrapolated central difference of a vector function;
    `t` may be an array when `f` maps parameter arrays to stacks."""
    if h is None:
        h = _default_step(order)
    if order == 1:
        def diff(hh):
            return (f(t + hh) - f(t - hh)) / (2.0 * hh)
    elif order == 2:
        def diff(hh):
            return (f(t + hh) - 2.0 * f(t) + f(t - hh)) / (hh * hh)
    else:
        raise ValueError("orders 1 and 2 only")
    return (4.0 * diff(0.5 * h) - diff(h)) / 3.0


def max_derivative_error(field, interval, order: int, n: int = 50,
                         seed: int = 0, h: float | None = None) -> float:
    """Largest |analytic - finite difference| over random parameters.

    The parameters are the SplitMix64 stream of `seed`, drawn uniformly
    at least 2h inside the interval. The field is evaluated at order 0
    once, on every offset parameter at once, and `central_difference` at
    t = 0 reads the values by their offsets.
    """
    if h is None:
        h = _default_step(order)
    stream = SplitMix64(seed)
    lo, hi = interval
    lo, hi = lo + 2.0 * h, hi - 2.0 * h
    if hi < lo:
        raise ValidationError(f"interval {tuple(interval)} is shorter than 4h = {4.0 * h} "
                              f"for the finite-difference step h = {h}")
    ts = stream.uniform(lo, hi, n)
    analytic = field.eval(ts, order)
    # the offsets from t at which central_difference reads f
    half = 0.5 * h
    offsets = (half, -half, h, -h) + ((0.0,) if order == 2 else ())
    values = field.eval(np.concatenate([ts + s for s in offsets]), 0)
    shifted = dict(zip(offsets, np.split(values, len(offsets))))
    numeric = central_difference(shifted.__getitem__, 0.0, order, h)
    return float(np.abs(analytic - numeric).max(initial=0.0))
