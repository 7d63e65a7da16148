"""The directrix-invariance check against its per-offset reference.

`directrix_invariance` factorizes each pivot run's striction systems once,
solves every offset's right-hand side on the factors and fits all the
re-solved points of the run in one `least_squares` call. The reference
below is the per-offset form it replaces: each offset re-solves the
shifted patch with `solve_striction` and fits each free sample position
with its own `least_squares` call. The two give the same offsets,
deviations, skips and maximum, bit for bit, on the shipped scenes, the
seeded scene families and a segment of three pivot runs.

A deviation that is not finite skips its offset with a numeric reason
instead of reading as a pass (Python's max(0.0, nan) is 0.0).
"""

import json
from itertools import product

import numpy as np
import pytest

from ruledkit import NumericError, RuledPatch, SampleGrid, ingest, striction
from ruledkit.analysis import analyze
from ruledkit.classify import segment_analyses
from ruledkit.errors import ValidationError
from ruledkit.striction import (INVARIANCE_AXIS_SAMPLES, INVARIANCE_SCALES, InvarianceResult,
                                directrix_invariance, solve_striction)
from scene_families import FAMILIES
from test_distribution import _migrating_frame


def _offset_deviation(p, sheet, c):
    """Largest distance to `sheet` from the sheet re-solved off the
    directrix shifted by c, one fit per free sample position."""
    new_sheet = solve_striction(p.shift_directrix(c), sheet.d)
    axis = np.linspace(-p.grid.u_extent, p.grid.u_extent, INVARIANCE_AXIS_SAMPLES)
    step = max(1, p.grid.t_samples.size // 64)
    ts = p.grid.t_samples[::step]
    seeds = np.empty((ts.size, 1 + sheet.free_count))
    seeds[:, 0] = ts
    dev = 0.0
    for u_free in np.array(list(product(axis, repeat=sheet.free_count))):
        seeds[:, 1:] = u_free + c[:sheet.free_count]
        dists = striction._distances_to_sheet(sheet, new_sheet.grid_points(u_free)[::step],
                                              seeds)
        dev = max(dev, float(dists.max()))
    return dev


def reference_invariance(runs, scales=INVARIANCE_SCALES) -> InvarianceResult:
    """The per-offset invariance check: for each offset, each run in turn."""
    if any(sheet.d < 1 for _, sheet in runs):
        raise ValidationError("invariance requires a solved sheet (degree >= 1)")
    offsets = [np.full(runs[0][0].m - 1, float(s)) for s in scales]
    per_offset, skipped = [], []
    for c in offsets:
        try:
            dev = max(_offset_deviation(p, sheet, c) for p, sheet in runs)
        except NumericError as exc:
            skipped.append((c.tolist(), f"{type(exc).__name__}: {exc}"))
            continue
        per_offset.append((c.tolist(), dev))
    return InvarianceResult(offsets=tuple(c.tolist() for c in offsets),
                            per_offset=tuple(per_offset), skipped=tuple(skipped),
                            max_deviation=max([0.0] + [dev for _, dev in per_offset]))


def _bits(result: InvarianceResult) -> tuple:
    """The result's fields with every float as its bit pattern."""
    def bits(x):
        return np.float64(x).view(np.uint64).item()

    return (result.offsets, tuple((c, bits(dev)) for c, dev in result.per_offset),
            result.skipped, bits(result.max_deviation))


def _runs(patch: RuledPatch) -> list:
    """The (pivoted patch, sheet) pairs the analysis checks: the pivot runs
    of a patch of constant degree at least 1."""
    assert patch.profile.constant_degree >= 1
    return [(seg.pivoted, seg.sheet) for seg in segment_analyses(patch)]


def _assert_matches_reference(runs):
    got, want = directrix_invariance(runs), reference_invariance(runs)
    assert _bits(got) == _bits(want)
    assert len(got.per_offset) + len(got.skipped) == len(INVARIANCE_SCALES)
    return got


#: the shipped scenes of degree at least 1; the other two are cylinders,
#: whose sheet is not solved and which have no invariance check
SHEET_SCENES = ["circular_cone", "elliptic_cone_explicit", "helicoid", "helicoid_explicit",
                "tangent_developable_helix", "two_rotation_r5"]


def test_sheet_scenes_are_the_shipped_scenes_of_positive_degree(pytestconfig):
    degrees = {path.stem: ingest(path).patch.profile.constant_degree
               for path in (pytestconfig.rootpath / "scenes").glob("*.json")}
    assert len(degrees) == 8
    assert sorted(name for name, d in degrees.items() if d >= 1) == SHEET_SCENES


@pytest.mark.parametrize("name", SHEET_SCENES)
def test_shipped_scene_invariance_equals_reference(pytestconfig, name):
    path = pytestconfig.rootpath / "scenes" / f"{name}.json"
    _assert_matches_reference(_runs(ingest(path).patch))


FAMILIES_WITH_SHEETS = sorted(name for name, (_, expected) in FAMILIES.items()
                              if expected["degree"] >= 1)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", FAMILIES_WITH_SHEETS)
def test_family_invariance_equals_reference(family, seed):
    make, _ = FAMILIES[family]
    runs = _runs(ingest(make(seed)).patch)
    assert runs[0][1].free_count in (0, 1, 2)
    _assert_matches_reference(runs)


def test_family_cases_cover_free_counts_zero_to_two():
    counts = {ingest(FAMILIES[name][0](0)).patch.m - 2 for name in FAMILIES_WITH_SHEETS}
    assert counts == {0, 1, 2}


def test_pivot_run_segment_invariance_equals_reference(tol):
    fc = _migrating_frame()
    runs = _runs(RuledPatch(fc, SampleGrid.uniform(fc.interval, 40), tol))
    assert len(runs) == 3
    _assert_matches_reference(runs)


def _inject(monkeypatch, value):
    """Make the last distance of every invariance fit `value`: a point of
    the last offset still tested in the run."""
    distances = striction._distances_to_sheet

    def injected(sheet, points, seeds):
        out = distances(sheet, points, seeds)
        out[-1] = value
        return out

    monkeypatch.setattr(striction, "_distances_to_sheet", injected)


@pytest.fixture
def cone_runs():
    return _runs(ingest({"builtin_patch": "circular_cone", "grid": {"t_samples": 40}}).patch)


@pytest.mark.parametrize("value, text", [(np.nan, "nan"), (np.inf, "inf")])
def test_non_finite_deviation_skips_its_offset(monkeypatch, cone_runs, value, text):
    clean = directrix_invariance(cone_runs)
    _inject(monkeypatch, value)
    result = directrix_invariance(cone_runs)
    reason = f"NumericError: invariance deviation is not finite: {text}"
    assert result.skipped == (([-0.7], reason),)
    assert result.per_offset == clean.per_offset[:2]
    assert result.max_deviation == max(dev for _, dev in clean.per_offset[:2])


def test_non_finite_deviation_skips_in_later_runs_too(monkeypatch, tol):
    # the non-finite deviation of the first run skips the offset there, so
    # the later runs do not re-solve it
    fc = _migrating_frame()
    runs = _runs(RuledPatch(fc, SampleGrid.uniform(fc.interval, 40), tol))
    _inject(monkeypatch, np.nan)
    resolve, resolved = striction._shifted_sheet, []

    def recording(p, d, a, chol, c):
        resolved.append(c.tolist())
        return resolve(p, d, a, chol, c)

    monkeypatch.setattr(striction, "_shifted_sheet", recording)
    result = directrix_invariance(runs)
    assert [c for c, _ in result.skipped] == [[0.5, 0.5], [1.0, 1.0], [-0.7, -0.7]]
    assert result.per_offset == () and result.max_deviation == 0.0
    assert resolved == [[0.5, 0.5], [1.0, 1.0], [-0.7, -0.7], [0.5, 0.5], [1.0, 1.0], [0.5, 0.5]]


def test_analyze_notes_a_non_finite_deviation(monkeypatch, tmp_path):
    _inject(monkeypatch, np.nan)
    report = analyze(ingest({"builtin_patch": "circular_cone", "grid": {"t_samples": 40}}),
                     tmp_path, seed=0)
    inv = json.loads((tmp_path / "report.json").read_text())["directrix_invariance"]
    assert inv == report["directrix_invariance"]
    assert [c for c, _ in inv["per_offset"]] == [[0.5], [1.0]]
    assert inv["skipped"] == [[[-0.7], "NumericError: invariance deviation is not finite: nan"]]
    assert sum("directrix invariance skipped offsets" in n for n in report["notes"]) == 1
