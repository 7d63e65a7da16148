"""Each field evaluated once per parameter array and order (ROADMAP item 13).

Ingest's speed, Gram and `validate_on` checks read the grid values that
the ingested patch is primed with, and a patch derived from another (a
segment by `restrict`, a pivot by `pivot_frame`, a shifted directrix by
`shift_directrix`) is primed from its parent's grid values. So ingest
and `analyze` together evaluate each field at most once per order and
parameter array: on the grid and on a segment's sub-grid. The one
exemption is the invariance fit (`striction.least_squares`), which reads
the sheet off the grid; with invariance off, `analyze` evaluates fields
on the grid and its segments' sub-grids alone, since the off-sheet
regularity is certified from the grid values.

The derivatives' coordinates in the frame QR (`GridValues.coordinates`)
are taken likewise at most once per values object and order, the
frame's apart from the directrix's, so the degree profile evaluates no
directrix derivative; a segment's values slice them from the whole
grid's, and a shifted directrix's share the frame's.
"""

import glob
import os

import numpy as np
import pytest

from conftest import small_patch
from perfbench.scenegen import explicit_scene
from ruledkit import RuledPatch, SampleGrid, make_builtin_patch, pivot_frame, rho_at, striction
from ruledkit.analysis import analyze
from ruledkit.distribution import degree_profile
from ruledkit.fields import FourierField, ParameterArray, PolynomialField, VectorField
from ruledkit.parametric import FramedCurve, GridValues
from ruledkit.scene import IngestResult, ingest
from ruledkit.selftest import run_selftest
from scene_families import osculating_scene

SCENE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")
SCENES = ([(os.path.basename(path)[:-len(".json")], path)
           for path in sorted(glob.glob(os.path.join(SCENE_DIR, "*.json")))]
          + [("explicit_scene0", explicit_scene(0)),
             ("osculating_scene0", osculating_scene(0, 3, 4))])
CYLINDERS = {"cylinder_helix_r4", "slow_circle_reparametrized"}


def field_classes():
    """`VectorField` and its subclasses that define their own `eval`."""
    todo, seen = [VectorField], []
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return [cls for cls in seen if "eval" in vars(cls)]


class Evaluation:
    """One field `eval` call. It holds the field object itself, not its
    id(): a shifted directrix is garbage-collected once its check is
    done, and a later field may reuse its id."""

    def __init__(self, field, order, t, top, in_fit):
        self.field, self.order, self.top, self.in_fit = field, order, top, in_fit
        self.values = np.asarray(t.values if isinstance(t, ParameterArray) else t, dtype=float)
        self.key = (self.values.shape, self.values.tobytes())

    def repeats(self, other) -> bool:
        return (self.field is other.field and self.order == other.order
                and self.key == other.key)


def recorded_evaluations(patch) -> list[Evaluation]:
    """Record every field `eval` call from here on, in call order; `top`
    marks a call that no other `eval` made, and `in_fit` one made inside
    `striction.least_squares`."""
    calls, depth, fit = [], [0], [0]

    def recording(original):
        def wrapper(self, t, order=0):
            calls.append(Evaluation(self, order, t, depth[0] == 0, fit[0] > 0))
            depth[0] += 1
            try:
                return original(self, t, order)
            finally:
                depth[0] -= 1
        return wrapper

    def fitting(*args, **kwargs):
        fit[0] += 1
        try:
            return least_squares(*args, **kwargs)
        finally:
            fit[0] -= 1

    least_squares = striction.least_squares
    patch.setattr(striction, "least_squares", fitting)
    for cls in field_classes():
        patch.setattr(cls, "eval", recording(vars(cls)["eval"]))
    return calls


@pytest.mark.parametrize("name,scene", SCENES, ids=[name for name, _ in SCENES])
def test_analyze_evaluates_each_field_once_per_parameters_and_order(
        monkeypatch, tmp_path, name, scene):
    with monkeypatch.context() as patch:
        calls = recorded_evaluations(patch)
        result = ingest(scene)
        report = analyze(result, tmp_path, invariance=True)
    # every scene but the two cylinders runs the invariance check
    assert (report["directrix_invariance"] is None) == (name in CYLINDERS)
    # the shifted directrices are summed from the grid values
    assert [c for c in calls if type(c.field).__name__ == "AffineCombinationField"] == []
    top = [c for c in calls if c.top and not c.in_fit]
    repeats = [(type(b.field).__name__, b.order, b.key[0])
               for i, b in enumerate(top) if any(a.repeats(b) for a in top[:i])]
    assert repeats == []


@pytest.mark.parametrize("name,scene", SCENES, ids=[name for name, _ in SCENES])
def test_analyze_without_invariance_evaluates_only_on_the_grid(
        monkeypatch, tmp_path, name, scene):
    # every field evaluation that no other evaluation makes reads the grid's
    # parameters or a contiguous run of them, a segment's sub-grid (ingest
    # has primed the grid values, so some scenes evaluate nothing here)
    result = ingest(scene)
    grid = result.patch.grid.t_samples
    with monkeypatch.context() as patch:
        calls = recorded_evaluations(patch)
        analyze(result, tmp_path, invariance=False)
    for ts in [np.atleast_1d(c.values) for c in calls if c.top]:
        lo = int(np.searchsorted(grid, ts[0]))
        assert np.array_equal(ts, grid[lo:lo + ts.size])


def test_restrict_and_pivot_evaluate_no_field(monkeypatch):
    p = small_patch("tangent_developable_product", 41)
    assert p.profile and p.scan  # the whole grid's stages run first, as in `analyze`
    with monkeypatch.context() as patch:
        calls = recorded_evaluations(patch)
        sub = p.restrict(5, 30)
        assert sub.values and sub.profile and sub.scan
        for q in (p, sub):
            pivoted = pivot_frame(q, 1)
            assert pivoted is not q and pivoted.profile
    assert calls == []


def recorded_coordinates(patch):
    """Record, from here on, each `GridValues.frame_coordinates` and
    `GridValues.coordinates` call that computes its frame or directrix
    products, as (values, (part, order)), and each values object that
    `GridValues.restrict` derives."""
    misses, restricted = [], []
    frame_coordinates, coordinates = GridValues.frame_coordinates, GridValues.coordinates
    restrict = GridValues.restrict

    def counting_frame(self, order):
        if order not in self._frame_coordinates:
            misses.append((self, ("frame", order)))
        return frame_coordinates(self, order)

    def counting(self, order):
        if order not in self._directrix_coordinates:
            misses.append((self, ("directrix", order)))
        return coordinates(self, order)

    def recording(self, lo, hi):
        restricted.append(restrict(self, lo, hi))
        return restricted[-1]

    patch.setattr(GridValues, "frame_coordinates", counting_frame)
    patch.setattr(GridValues, "coordinates", counting)
    patch.setattr(GridValues, "restrict", recording)
    return misses, restricted


def assert_coordinates_taken_once(misses, restricted):
    # the recorded objects are alive, so their ids are distinct
    keys = [(id(values), order) for values, order in misses]
    assert len(set(keys)) == len(keys)
    assert not {id(values) for values in restricted} & {key for key, _ in keys}


@pytest.mark.parametrize("name,scene", SCENES, ids=[name for name, _ in SCENES])
def test_analyze_takes_each_coordinates_once(monkeypatch, tmp_path, name, scene):
    with monkeypatch.context() as patch:
        misses, restricted = recorded_coordinates(patch)
        analyze(ingest(scene), tmp_path, invariance=True)
    assert misses
    assert_coordinates_taken_once(misses, restricted)


def test_selftest_takes_each_coordinates_once(monkeypatch):
    with monkeypatch.context() as patch:
        misses, restricted = recorded_coordinates(patch)
        run_selftest(t_samples=20)
    assert misses
    assert_coordinates_taken_once(misses, restricted)


def test_segments_slice_the_coordinates(monkeypatch, tmp_path):
    # a frame that rotates only for t > 0: a cylindrical and a degree-1
    # segment, each of whose values slices the whole grid's coordinates
    from test_distribution import _BumpFrame
    fc = FramedCurve(3, 2, PolynomialField([[0.0], [0.0], [0.0, 1.0]]), (_BumpFrame(),),
                     (-1.0, 1.0))
    p = RuledPatch(fc, SampleGrid.uniform(fc.interval, 81))
    with monkeypatch.context() as patch:
        misses, restricted = recorded_coordinates(patch)
        report = analyze(IngestResult(p, {}, []), tmp_path, invariance=True)
        assert len(report["first_normal_bounds"]) == 2 and len(restricted) == 2
        for values in restricted:
            for order in (1, 2):
                for got, whole in zip(values.coordinates(order), p.values.coordinates(order)):
                    assert np.shares_memory(got, whole)
    assert_coordinates_taken_once(misses, restricted)
    # the whole grid's two orders; the degree-1 segment's system degenerates
    # next to the splice, so it has no sheet and no off-sheet check
    assert sorted(key for _, key in misses) == [("directrix", 1), ("directrix", 2),
                                                 ("frame", 1), ("frame", 2)]
    assert report["striction"] == []


def test_profile_evaluates_no_directrix(monkeypatch):
    # the degree profile reads the frame's coordinates only: the cone's
    # frame at orders 0 and 1, and no directrix derivative
    fc = make_builtin_patch("circular_cone")
    grid = SampleGrid.uniform(fc.interval, 50)
    for stage in (lambda: degree_profile(fc, grid), lambda: rho_at(fc, 1.0)):
        with monkeypatch.context() as patch:
            calls = recorded_evaluations(patch)
            stage()
        assert [(c.field, c.order) for c in calls if isinstance(c.field, FourierField)] == [
            (fc.frame[0], 0), (fc.frame[0], 1)]


def test_shifted_values_share_the_frame_coordinates():
    p = small_patch("tangent_developable_product", 41)
    shifted = p.shift_directrix(np.array([0.5, -0.7]))
    for order in (1, 2):
        got, parent = shifted.values.coordinates(order), p.values.coordinates(order)
        assert got[1] is parent[1] and got[3] is parent[3]
