"""The seeded stream of the selftest's draws: SplitMix64 of the seed, drawn in
blocks that continue one stream, with every seed width accepted."""

import warnings

import numpy as np
import pytest

from ruledkit import ValidationError
from ruledkit.splitmix import SplitMix64


def _words(seed, n):
    return [int(w) for w in SplitMix64(seed).words(n)]


def test_known_answers():
    # the reference outputs of SplitMix64 with the state set to the seed
    assert _words(0, 3) == [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
    assert _words(1, 1) == [0x910a2dec89025cc1]


def test_the_same_seed_gives_the_same_draws():
    a, b = SplitMix64(7), SplitMix64(7)
    assert np.array_equal(a.uniform(-1.0, 2.0, (5, 3)), b.uniform(-1.0, 2.0, (5, 3)))
    assert np.array_equal(a.signs((4, 2)), b.signs((4, 2)))
    assert not np.array_equal(SplitMix64(8).words(8), SplitMix64(7).words(8))


def test_successive_blocks_continue_one_stream():
    whole = SplitMix64(11).words(20)
    stream = SplitMix64(11)
    parts = [stream.words(n) for n in (3, 0, 8, 1, 8)]
    assert np.array_equal(np.concatenate(parts), whole)
    # uniforms and signs take one draw each, in order
    stream = SplitMix64(11)
    u = stream.uniform(0.0, 1.0, (2, 3))
    s = stream.signs(4)
    assert np.array_equal(u.ravel(), (whole[:6] >> np.uint64(11)) * 2.0 ** -53)
    assert np.array_equal(s, np.where(whole[6:10] >> np.uint64(63), -1.0, 1.0))


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-3.5, 3.5), (2.0, 2.0 + 1e-12),
                                       (-1e-3, 0.0), (1.0, 7.0)])
def test_uniforms_fall_in_the_half_open_range(low, high):
    u = SplitMix64(3).uniform(low, high, 4000)
    assert u.shape == (4000,)
    assert np.all(low <= u) and np.all(u < high)
    if high - low > 1e-6:
        # spread over the range, not stuck at one end
        assert u.min() < low + 0.01 * (high - low) and u.max() > high - 0.01 * (high - low)


def test_signs_are_plus_and_minus_one():
    s = SplitMix64(5).signs((100, 3))
    assert s.shape == (100, 3) and s.dtype == float
    assert set(np.unique(s)) == {-1.0, 1.0}


def test_empty_blocks_draw_nothing():
    stream = SplitMix64(4)
    assert stream.uniform(-1.0, 1.0, (32, 0)).shape == (32, 0)
    assert np.array_equal(stream.words(2), SplitMix64(4).words(2))


@pytest.mark.parametrize("low", [0, 5, 2 ** 64 - 1])
def test_seeds_of_more_than_64_bits_do_not_alias_their_low_limb(low):
    draws = {seed: _words(seed, 4) for seed in (low, 2 ** 64 + low, 2 ** 65 + low,
                                                2 ** 128 + low, 2 ** 192 + 2 ** 64 + low)}
    assert len({tuple(d) for d in draws.values()}) == len(draws)
    assert _words(2 ** 64 + low, 4) == draws[2 ** 64 + low]


def test_numpy_integer_seeds_are_their_int():
    assert _words(np.int64(3), 3) == _words(3, 3)
    assert _words(np.uint64(2 ** 64 - 1), 3) == _words(2 ** 64 - 1, 3)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
def test_invalid_seeds_are_refused(seed):
    with pytest.raises(ValidationError, match="seed"):
        SplitMix64(seed)


def test_draws_raise_no_warning():
    # uint64 overflow wraps silently on arrays; numpy warns on scalars
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 3 ** 90):
            stream = SplitMix64(seed)
            stream.words(1)
            stream.uniform(-1.0, 1.0, (7, 3))
            stream.signs(9)
