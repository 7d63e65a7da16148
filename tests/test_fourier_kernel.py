"""The Fourier kernel against its earlier form, bit for bit, and the
memory of an arclength map of a many-harmonic curve.

`reference_eval` is the earlier `FourierField.eval`: every term's sine at
every parameter in one (N, terms) stack, summed per coordinate by
`np.add.reduceat` along the terms. The kernel evaluates one sine row per
distinct harmonic, in blocks of parameters, and must give the same bits
(as uint64 views, so that signed zeros count) in a C-ordered array.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledkit import fields
from ruledkit.fields import FourierField, ParameterArray, ParameterMap, VectorField, array_eval

TWO_PI = 2.0 * math.pi


def reference_eval(field: FourierField, ts: np.ndarray, order: int) -> np.ndarray:
    """The (N, dim) values of the field's order-th derivative at ts, in
    the earlier (N, terms) form, built from the field's coordinates."""
    amp, freq, phase, starts = [], [], [], []
    for const, cos_c, sin_c, omega in field.coordinates:
        starts.append(len(amp))
        amp.append(0.0)
        freq.append(0.0)
        phase.append(0.0)
        for k, a in enumerate(cos_c, start=1):
            amp.append(a)
            freq.append(k * omega)
            phase.append(math.pi / 2.0)
        for k, b in enumerate(sin_c, start=1):
            amp.append(b)
            freq.append(k * omega)
            phase.append(0.0)
    freq, phase = np.asarray(freq), np.asarray(phase)
    scaled = np.asarray(amp) * freq ** order
    arg = ts[:, None] * freq + phase
    if order:
        arg += order * math.pi / 2.0
    sums = np.add.reduceat(scaled * np.sin(arg), np.asarray(starts), axis=1)
    const = np.asarray([c[0] for c in field.coordinates])
    return (const if order == 0 else 0.0) + sums


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_kernel_matches(field: FourierField, t, values: np.ndarray, order: int):
    got = field.eval(t, order)
    want = reference_eval(field, values, order)
    if np.ndim(t) == 0 and not isinstance(t, ParameterArray):
        want = want[0]
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(want))


_signed_zero = st.sampled_from([0.0, -0.0])
_number = st.one_of(_signed_zero, st.floats(-4.0, 4.0, allow_nan=False))
_coordinate = st.tuples(
    _number,
    st.lists(_number, max_size=12),
    st.lists(_number, max_size=12),
    st.one_of(_signed_zero, st.sampled_from([1.0, -1.0, 2.0]), st.floats(-3.0, 3.0)),
)
_fields = st.lists(_coordinate, min_size=1, max_size=4).map(FourierField)
_parameter = st.one_of(_signed_zero, st.floats(-30.0, 30.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(field=_fields, order=st.integers(0, 4), kind=st.sampled_from(["scalar", "array", "params"]),
       values=st.lists(_parameter, max_size=40))
def test_kernel_equals_the_reference_bit_for_bit(field, order, kind, values):
    # a scalar, an empty or a short 1-D array, and a ParameterArray
    ts = np.asarray(values, dtype=float)
    if kind == "scalar":
        t = float(ts[0]) if ts.size else 0.5
        _assert_kernel_matches(field, t, np.array([t]), order)
    else:
        _assert_kernel_matches(field, ParameterArray(ts) if kind == "params" else ts, ts, order)


@settings(max_examples=60, deadline=None)
@given(field=_fields, order=st.integers(0, 4), blocks=st.integers(1, 3),
       extra=st.integers(-1, 1), seed=st.integers(0, 2**32 - 1))
def test_kernel_equals_the_reference_across_block_edges(field, order, blocks, extra, seed):
    # arrays of one to three blocks and a point on either side of a block
    # edge, at the module's budget
    terms = sum(1 + len(cos_c) + len(sin_c) for _, cos_c, sin_c, _ in field.coordinates)
    step = max(1, fields.FOURIER_BLOCK_ENTRIES // terms)
    ts = np.random.default_rng(seed).uniform(-30.0, 30.0, size=max(0, blocks * step + extra))
    _assert_kernel_matches(field, ts, ts, order)


@settings(max_examples=100, deadline=None)
@given(field=_fields, order=st.integers(0, 4), budget=st.integers(1, 200),
       values=st.lists(_parameter, max_size=60))
def test_kernel_equals_the_reference_in_small_blocks(field, order, budget, values):
    # budgets down to one parameter per block put many block edges in short arrays
    ts = np.asarray(values, dtype=float)
    with mock.patch.object(fields, "FOURIER_BLOCK_ENTRIES", budget):
        _assert_kernel_matches(field, ts, ts, order)


class _ReferenceFourier(VectorField):
    """A Fourier field evaluated by the reference, 64 parameters at a
    time, so that its arclength map stays small in memory too."""

    def __init__(self, field: FourierField):
        self.field = field
        self.dim = field.dim

    @array_eval
    def eval(self, ts, order=0):
        parts = [reference_eval(self.field, ts[i:i + 64], order) for i in range(0, ts.size, 64)]
        return np.concatenate(parts) if parts else np.empty((0, self.dim))


def _many_harmonic_curve(harmonics: int, seed: int) -> FourierField:
    """A seeded Fourier curve in R^3 with `harmonics` cosine and sine
    terms per coordinate, decaying as 1/k^2 around a regular ellipse."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, harmonics + 1)
    lead = (k == 1).astype(float)
    decay = 0.2 / k ** 2
    return FourierField([
        (0.0, 2.0 * lead + decay * rng.normal(size=harmonics), decay * rng.normal(size=harmonics), 1.0),
        (0.0, decay * rng.normal(size=harmonics), 1.5 * lead + decay * rng.normal(size=harmonics), 1.0),
        (0.5, decay * rng.normal(size=harmonics), 0.5 * lead + decay * rng.normal(size=harmonics), 1.0),
    ])


def test_many_harmonic_map_memory_is_bounded_and_its_table_unchanged():
    curve = _many_harmonic_curve(200, seed=17)
    tracemalloc.start()
    try:
        pmap = ParameterMap(curve, (0.0, TWO_PI))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.1 MB; one (5633, 1203) stack of the terms would take 54 MB
    assert peak < 1_500_000
    reference = ParameterMap(_ReferenceFourier(curve), (0.0, TWO_PI))
    assert np.array_equal(_bits(np.float64(pmap.length)), _bits(np.float64(reference.length)))
    ts = np.array([0.0, 0.1, 1.0, 2.5, 4.0, TWO_PI])
    ss = np.array([0.0, 0.3, 0.5 * pmap.length, 0.9 * pmap.length, pmap.length])
    assert np.array_equal(_bits(pmap.s(ts)), _bits(reference.s(ts)))
    assert np.array_equal(_bits(pmap.t(ss)), _bits(reference.t(ss)))
