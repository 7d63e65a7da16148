"""Finite-difference oracles.

These exist to check analytic derivatives from the outside (tests and
the self-test command); the analysis pipeline never differentiates
numerically.
"""

from __future__ import annotations

import numpy as np


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
    """Largest |analytic - finite difference| over random parameters."""
    if h is None:
        h = _default_step(order)
    rng = np.random.default_rng(seed)
    lo, hi = interval
    lo, hi = lo + 2.0 * h, hi - 2.0 * h
    ts = rng.uniform(lo, hi, size=n)
    analytic = field.eval(ts, order)
    numeric = central_difference(lambda s: field.eval(s, 0), ts, order, h)
    return float(np.abs(analytic - numeric).max(initial=0.0))
