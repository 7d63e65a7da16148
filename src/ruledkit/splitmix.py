"""The seeded stream of the selftest's random draws: SplitMix64.

SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014) is counter-based: draw k of a seed is a fixed
bijective mix of the 64-bit word state + (k + 1) * GAMMA, so a block of
draws is one array expression over its counters. The arithmetic runs on
uint64 arrays, whose overflow wraps silently (numpy warns on the
overflow of a uint64 scalar).

The package draws its seeded points here and not from numpy's random
module, whose import loads `secrets`, `hashlib` and OpenSSL's
`_hashlib` (about 6 MB of resident memory) for points that reach no
written file: the stability sweep's ruling pairs and the derivative
oracle's sample points.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .errors import ValidationError

#: the golden-ratio increment of the SplitMix64 state
GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def check_seed(seed) -> int:
    """The seed as a plain int; a validation error unless it is a
    non-negative integer. A bool is not a seed; a numpy integer is
    taken as its int, so that a report writes it as JSON."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return operator.index(seed)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function of the states z, a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _initial_state(seed: int) -> np.ndarray:
    """The 64-bit state of a non-negative seed, as a (1,) uint64 array.

    A seed below 2**64 is its own state. A longer seed folds its 64-bit
    limbs from the top: state = mix(state) ^ limb. The top limb is not
    zero and the mix is a bijection with mix(0) = 0, so a seed of two
    limbs never shares the state of its low limb.
    """
    limbs = [seed & _MASK]
    while seed := seed >> 64:
        limbs.append(seed & _MASK)
    state = np.array([limbs.pop()], dtype=np.uint64)
    while limbs:
        state = _mix(state) ^ np.uint64(limbs.pop())
    return state


class SplitMix64:
    """The SplitMix64 stream of a non-negative integer seed, drawn in
    blocks: each draw continues where the last one stopped."""

    def __init__(self, seed: int):
        self._state = _initial_state(check_seed(seed))
        self._drawn = 0

    def words(self, n: int) -> np.ndarray:
        """The next n draws of the stream, as (n,) uint64 words."""
        k = np.arange(self._drawn + 1, self._drawn + n + 1, dtype=np.uint64)
        self._drawn += n
        return _mix(k * np.uint64(GAMMA) + self._state)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Uniform floats in [low, high), low < high, of shape `size`, one
        draw each: the unit fractions of `fractions`, scaled to the range
        (`scaled`)."""
        return scaled(self.fractions(size), low, high)

    def fractions(self, size) -> np.ndarray:
        """Floats in [0, 1) of shape `size`, one draw each: the top 53 bits
        of a word as a fraction of 2**53."""
        shape = tuple(np.atleast_1d(size))
        return ((self.words(int(np.prod(shape))) >> np.uint64(11)) * 2.0 ** -53).reshape(shape)

    def signs(self, size) -> np.ndarray:
        """+-1.0 of shape `size`, one draw each: -1 where its top bit is set."""
        shape = tuple(np.atleast_1d(size))
        top = self.words(int(np.prod(shape))) >> np.uint64(63)
        return (1.0 - 2.0 * top).reshape(shape)


def scaled(fraction: np.ndarray, low: float, high: float) -> np.ndarray:
    """Unit fractions (`SplitMix64.fractions`) scaled to [low, high), low <
    high. A value that rounds up to `high` (a range narrow against its
    ends) is taken as the float just below it."""
    return np.minimum(low + (high - low) * fraction, np.nextafter(high, low))
