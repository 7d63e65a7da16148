"""One arclength inversion per parameter array and map.

Fields evaluated on one `ParameterArray` share its inversions; the values
must equal those of each field evaluated on its own, bit for bit, and the
pipeline must invert each grid once per map.
"""

import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from perfbench.scenegen import explicit_scene
from ruledkit import ValidationError, ingest
from ruledkit.analysis import analyze
from ruledkit.fields import (AffineCombinationField, ComposedField,
                             FourierField, ParameterArray, ParameterMap,
                             VectorField, array_eval)
from ruledkit.parametric import FramedCurve, arclength_framed_curve

TWO_PI = 2.0 * math.pi


def _assert_grid_values_equal_per_field_evals(fc: FramedCurve, ts: np.ndarray):
    """`GridValues` (one shared ParameterArray) against one plain-array
    `eval` per field and order (a fresh inversion each), orders 0-2."""
    values = fc.grid_values(ts)
    for order in range(3):
        frame = np.stack([f.eval(ts, order) for f in fc.frame], axis=1)
        assert np.array_equal(values.frame(order), frame)
        assert np.array_equal(values.directrix(order), fc.directrix.eval(ts, order))


def _off_grid(fc: FramedCurve, seed: int) -> np.ndarray:
    lo, hi = fc.interval
    return np.random.default_rng(seed).uniform(lo, hi, 32)


def _counting_inversions(monkeypatch) -> list:
    """Record every `ParameterMap.t` call as (map, size, depth), depth
    being the number of `t` calls it runs inside."""
    calls = []
    depth = [0]
    original = ParameterMap.t

    def counting(self, s):
        calls.append((self, np.size(s), depth[0]))
        depth[0] += 1
        try:
            return original(self, s)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ParameterMap, "t", counting)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_grid_values_of_explicit_scene_equal_per_field_evals(seed, monkeypatch):
    result = ingest(explicit_scene(seed))
    assert result.normalized["normalization"] == {"reparametrized": True,
                                                  "orthonormalized": True}
    p = result.patch
    _assert_grid_values_equal_per_field_evals(p.fc, p.grid.t_samples)
    _assert_grid_values_equal_per_field_evals(p.fc, _off_grid(p.fc, seed))
    # the patch's values are evaluated on the grid's shared parameter array
    assert p.values.parameters is p.grid.parameters
    # the Gram-Schmidt frame's orders 0-2 on one grid invert the map once
    calls = _counting_inversions(monkeypatch)
    values = p.fc.grid_values(p.grid.t_samples)
    for order in range(3):
        values.frame(order)
    assert [n for _, n, depth in calls if depth == 0] == [p.grid.t_samples.size]


@pytest.mark.parametrize("seed", range(4))
def test_no_fourier_field_is_evaluated_twice_at_one_parameter_array_and_order(
        seed, tmp_path, monkeypatch):
    # ingest + analyze, invariance off: a composed field's orders 1 and 2
    # and its map's dt/ds, d2t/ds2 read one evaluation of the base's
    # derivatives at the inverted t; analyze evaluates on the grid alone,
    # at inverted t that ingest has evaluated already
    calls = []
    original = FourierField.eval

    def recording(self, t, order=0):
        ts = t.values if isinstance(t, ParameterArray) else np.asarray(t, dtype=float)
        calls.append((id(self), order, ts.tobytes()))
        return original(self, t, order)

    monkeypatch.setattr(FourierField, "eval", recording)
    result = ingest(explicit_scene(seed))
    ingested = {ts for _, _, ts in calls}
    analyze(result, tmp_path, invariance=False)
    assert len(calls) >= 10
    assert len(set(calls)) == len(calls)
    assert {ts for _, _, ts in calls} == ingested


def _chain_rule(field: ComposedField, ss: np.ndarray, order: int) -> np.ndarray:
    """A composed field's derivative from plain `ParameterMap` calls, the
    formula each field evaluated when it inverted on its own."""
    pm, base = field.parameter_map, field.base
    t = pm.t(np.clip(ss, *pm.s_interval))
    if order == 0:
        return base.eval(t, 0)
    dt = pm.dt(t)[:, None]
    if order == 1:
        return base.eval(t, 1) * dt
    return base.eval(t, 2) * dt ** 2 + base.eval(t, 1) * pm.d2t(t)[:, None]


@pytest.mark.parametrize("seed", range(4))
def test_composed_directrix_equals_the_chain_rule_on_plain_arrays(seed):
    fc = ingest(explicit_scene(seed)).patch.fc
    ts = np.concatenate([np.linspace(*fc.interval, 50), _off_grid(fc, seed)])
    values = fc.grid_values(ts)
    for order in range(3):
        assert np.array_equal(values.directrix(order), _chain_rule(fc.directrix, ts, order))


def test_nested_map_values_equal_per_field_evals_and_invert_once_per_map(monkeypatch):
    # the invariance re-solve's curve: a shifted directrix of a reparametrized
    # scene, reparametrized again, so the outer map sits over fields composed
    # with the inner one
    p = ingest(explicit_scene(1)).patch
    c = np.full(p.m - 1, 0.5)
    fc = arclength_framed_curve(
        replace(p.fc, directrix=AffineCombinationField(p.fc.directrix, list(p.fc.frame), c)))
    ts = np.linspace(*fc.interval, 40)
    _assert_grid_values_equal_per_field_evals(fc, ts)
    _assert_grid_values_equal_per_field_evals(fc, _off_grid(fc, 1))

    calls = _counting_inversions(monkeypatch)
    values = fc.grid_values(ts)
    for order in range(3):
        values.frame(order)
        values.directrix(order)
    # the outer map, then the inner one at the inverted parameters; the
    # outer map's Newton steps invert the inner map at their own
    # quadrature nodes, inside the first call
    outer = fc.directrix.parameter_map
    inner = p.fc.directrix.parameter_map
    assert [(m, n) for m, n, depth in calls if depth == 0] == [(outer, ts.size),
                                                              (inner, ts.size)]


class _ScalarOnlyFrame(VectorField):
    """A user field written for one float t at a time."""

    dim = 3

    def __init__(self):
        self.seen = set()

    def eval(self, t, order=0):
        self.seen.add(type(t))
        phase = 0.5 * t + order * math.pi / 2.0
        scale = 0.5 ** order
        return np.array([scale * math.cos(phase), scale * math.sin(phase), float(order == 0)])


def test_scalar_only_field_composed_with_a_map_evaluates_arrays():
    pmap = ParameterMap(FourierField([(0.0, [2.0], [], 1.0), (0.0, [], [1.0], 1.0),
                                      (0.3, [0.2], [], 3.0)]), (0.0, TWO_PI))
    base = _ScalarOnlyFrame()
    composed = ComposedField(base, pmap)
    ss = np.linspace(0.0, pmap.length, 9)
    for order in range(3):
        stacked = composed.eval(ss, order)
        assert stacked.shape == (ss.size, 3)
        assert np.array_equal(stacked, np.array([composed.eval(s, order) for s in ss]))
        assert np.array_equal(composed.eval(ParameterArray(ss), order), stacked)
    assert base.seen == {float}


def test_parameter_array_rejects_matrices():
    with pytest.raises(ValidationError, match="1-D"):
        ParameterArray(np.zeros((2, 2)))


def test_explicit_scene_inverts_each_grid_once(tmp_path, monkeypatch):
    calls = _counting_inversions(monkeypatch)
    analyze(ingest(explicit_scene(0)), tmp_path, invariance=False)
    # ingest's grid, shared by the patch, and the singular locus's off-sheet
    # points (17 calls when every field and order inverted on its own)
    assert len(calls) <= 3


def test_invariance_makes_no_inversion(tmp_path, monkeypatch, pytestconfig):
    scene = pathlib.Path(pytestconfig.rootpath) / "scenes" / "helicoid_explicit.json"
    calls = _counting_inversions(monkeypatch)
    report = analyze(ingest(scene), tmp_path)
    offsets = report["directrix_invariance"]["offsets"]
    assert offsets and not report["directrix_invariance"]["skipped"]
    # the re-solves run on the patch's own grid and build no arclength map
    # (one map and grid per offset made 3 calls, 15 when every field and
    # order inverted on its own)
    assert not calls


class _CountingField(VectorField):
    """A field that records the size and order of every `eval` call."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.domain = base.domain
        self.calls = []

    @array_eval
    def eval(self, ts, order=0):
        self.calls.append((ts.size, order))
        return self.base.eval(ts, order)


@pytest.mark.parametrize("seed", range(4))
def test_inversion_evaluates_the_curve_only_at_newton_iterates(seed):
    directrix = ingest(explicit_scene(seed)).patch.fc.directrix
    curve = _CountingField(directrix.base)
    pmap = ParameterMap(curve, directrix.parameter_map.t_interval)
    curve.calls.clear()
    n = 200
    ts = pmap.t(np.linspace(0.0, pmap.length, n))
    # one speed evaluation per Newton pass, at the iterates only
    assert 1 <= len(curve.calls) <= 2
    assert all(size <= n and order == 1 for size, order in curve.calls)
    assert sum(size for size, _ in curve.calls) < 21 * n
    assert np.array_equal(ts, directrix.parameter_map.t(np.linspace(0.0, pmap.length, n)))
