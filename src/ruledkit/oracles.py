"""Finite-difference oracles.

These exist to check analytic derivatives from the outside (tests and
the self-test command); the analysis pipeline never differentiates
numerically. `max_derivative_error` checks a patch's fields at several
orders in one call: one draw of seeded points, one order-0 evaluation
per field on every offset point, one analytic evaluation per field and
order.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .splitmix import SplitMix64, scaled


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


def max_derivative_error(fields, interval, orders, n: int = 50, seed: int = 0,
                         h: float | None = None) -> float:
    """Largest |analytic - finite difference| over the `fields`, the
    derivative `orders` and random parameters.

    The parameters are one draw of n unit fractions from the SplitMix64
    stream of `seed`, scaled for each order to the interval less 2h at
    either end, h the order's step (`SplitMix64.uniform`'s arithmetic, so
    each order's points are that stream's uniform draws on its range).
    Each field is evaluated at order 0 once, on the offset parameters of
    every order at once, and once analytically per order;
    `central_difference` at t = 0 reads the values by their offsets.
    """
    lo, hi = interval
    steps = [_default_step(order) if h is None else h for order in orders]
    for step in steps:
        if hi - 2.0 * step < lo + 2.0 * step:
            raise ValidationError(f"interval {tuple(interval)} is shorter than 4h = {4.0 * step} "
                                  f"for the finite-difference step h = {step}")
    fractions = SplitMix64(seed).fractions(n)
    ts = [scaled(fractions, lo + 2.0 * step, hi - 2.0 * step) for step in steps]
    # the offsets from t at which central_difference reads f, per order
    offsets = [(0.5 * step, -0.5 * step, step, -step) + ((0.0,) if order == 2 else ())
               for order, step in zip(orders, steps)]
    shifted = [t + s for t, offs in zip(ts, offsets) for s in offs]
    worst = 0.0
    for field in fields:
        values = iter(np.split(field.eval(np.concatenate(shifted), 0), len(shifted)))
        for order, step, t, offs in zip(orders, steps, ts, offsets):
            at = dict(zip(offs, values))
            numeric = central_difference(at.__getitem__, 0.0, order, step)
            worst = max(worst, float(np.abs(field.eval(t, order) - numeric).max(initial=0.0)))
    return worst
