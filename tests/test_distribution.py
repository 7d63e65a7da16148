import math

import numpy as np
import pytest

from ambient_second_form import svd_span_verdicts
from conftest import small_patch
from ruledkit import (NumericError, PivotError, RuledPatch, SampleGrid, TolerancePolicy,
                      ValidationError, make_builtin_patch, pivot_frame, rho_at, striction)
from ruledkit.analysis import analyze
from ruledkit.classify import segment_analyses
from ruledkit.distribution import (DegreeProfile, constant_degree_segments, degree_profile,
                                   equal_runs)
from ruledkit.fields import FourierField, PolynomialField, VectorField
from ruledkit.parametric import FramedCurve
from ruledkit.scene import IngestResult
from ruledkit.striction import directrix_invariance
from test_evaluations import recorded_evaluations

TWO_PI = 2.0 * math.pi


def test_cylinder_rho_vanishes(tol):
    fc = make_builtin_patch("cylinder_helix")
    sample = rho_at(fc, 1.0, tol)
    assert sample.degree == 0
    assert np.abs(sample.rho_vectors).max() < 1e-14


def test_helicoid_rho_is_rotated_tangent(tol):
    fc = make_builtin_patch("helicoid_frame")
    for t in (0.0, 0.8, 3.1):
        sample = rho_at(fc, t, tol)
        assert sample.degree == 1
        assert np.allclose(sample.rho_vectors[0],
                           [-math.sin(t), math.cos(t), 0.0], atol=1e-12)


def test_two_rotation_family_degree_two(tol):
    fc = make_builtin_patch("two_rotation_r5")
    sample = rho_at(fc, 0.3, tol)
    assert sample.degree == 2
    # projected derivatives stay orthogonal to the ruling span
    x = fc.frame_values(0.3)
    assert np.abs(sample.rho_vectors @ x.T).max() < tol.zero_abs_tol


def test_rho_rejects_parameter_outside_interval(tol):
    fc = make_builtin_patch("helicoid_frame")
    with pytest.raises(ValidationError):
        rho_at(fc, 100.0, tol)


@pytest.mark.parametrize("name,degree", [
    ("cylinder_helix", 0),
    ("rotating_cylinder", 0),
    ("helicoid_frame", 1),
    ("circular_cone", 1),
    ("tangent_developable_helix", 1),
    ("tangent_developable_product", 1),
    ("two_rotation_r5", 2),
])
def test_degree_profiles_and_bound(name, degree, tol):
    fc = make_builtin_patch(name)
    grid = SampleGrid.uniform(fc.interval, 41)
    prof = degree_profile(fc, grid, tol)
    assert prof.constant_degree == degree
    assert prof.cylindrical == (degree == 0)
    assert prof.noncylindrical == (degree > 0)
    bound = min(fc.m - 1, fc.codim + 1)
    assert all(d <= bound for d in prof.degrees)


class _BumpFrame(VectorField):
    """Unit field rotating only for t > 0 (smooth splice)."""

    dim = 3

    @staticmethod
    def _theta(t, order):
        if t <= 0.0:
            return 0.0
        e = math.exp(-1.0 / t)
        if order == 0:
            return e
        if order == 1:
            return e / t ** 2
        return e * (1.0 / t ** 4 - 2.0 / t ** 3)

    def eval(self, t, order=0):
        th = self._theta(t, 0)
        c, s = math.cos(th), math.sin(th)
        if order == 0:
            return np.array([c, s, 0.0])
        d1 = self._theta(t, 1)
        if order == 1:
            return d1 * np.array([-s, c, 0.0])
        d2 = self._theta(t, 2)
        return d2 * np.array([-s, c, 0.0]) - d1 * d1 * np.array([c, s, 0.0])


def test_spliced_field_splits_into_two_segments(tol):
    directrix = PolynomialField([[0.0], [0.0], [0.0, 1.0]])
    fc = FramedCurve(3, 2, directrix, (_BumpFrame(),), (-1.0, 1.0))
    grid = SampleGrid.uniform(fc.interval, 81)
    prof = degree_profile(fc, grid, tol)
    assert prof.constant_degree is None
    assert not prof.cylindrical and not prof.noncylindrical
    runs = constant_degree_segments(prof)
    assert len(runs) == 2
    assert runs[0][2] == 0 and runs[1][2] == 1


# --- pivoting ----------------------------------------------------------------

def test_pivot_swaps_product_frame(monkeypatch):
    p = small_patch("tangent_developable_product", 21)
    assert p.profile  # the pivot reads the patch's profile and its values
    with monkeypatch.context() as patch:
        calls = recorded_evaluations(patch)
        pivoted = pivot_frame(p, 1)
        frames = [pivoted.values.frame(order) for order in range(2)]
    assert calls == []
    assert pivoted.fc.frame == (p.fc.frame[1], p.fc.frame[0])
    assert (pivoted.grid, pivoted.tol) == (p.grid, p.tol)
    # the parent's frame arrays with their columns swapped, bit for bit
    for order, frame in enumerate(frames):
        assert frame.tobytes() == p.values.frame(order)[:, ::-1].tobytes()


def test_pivot_keeps_satisfying_frame():
    p = small_patch("two_rotation_r5", 21)
    assert pivot_frame(p, 2) is p


def test_pivot_preserves_degree(tol):
    p = small_patch("tangent_developable_product", 21)
    pivoted = pivot_frame(p, 1)
    after = degree_profile(pivoted.fc, p.grid, tol).degrees
    assert np.array_equal(p.profile.degrees, after)


def test_pivot_reads_the_patch_profile(monkeypatch):
    from ruledkit import distribution
    p = small_patch("tangent_developable_product", 21)
    p.profile
    monkeypatch.setattr(distribution, "profile_from_values", None)
    monkeypatch.setattr(distribution, "degree_profile", None)
    assert pivot_frame(p, 1).fc.frame == (p.fc.frame[1], p.fc.frame[0])
    # a restricted patch pivots on the slice of its parent's profile
    sub = p.restrict(3, 15)
    assert pivot_frame(sub, 1).grid is sub.grid


def test_pivot_rejects_wrong_degree():
    with pytest.raises(ValidationError):
        pivot_frame(small_patch("cylinder_helix", 21), 1)


def _migrating_frame():
    """Degree-1 pair whose projected derivative migrates between the two
    frame fields, so no constant reordering works on the whole interval."""
    directrix = PolynomialField([[0.0, 1.0], [0.0], [0.0], [0.0]])
    x1 = FourierField([  # cos(t/2) e4 + sin(t/2) (0, cos t, sin t, 0)
        (0.0, [], [], 0.5),
        (0.0, [], [-0.5, 0.0, 0.5], 0.5),
        (0.0, [0.5, 0.0, -0.5], [], 0.5),
        (0.0, [1.0], [], 0.5),
    ])
    x2 = FourierField([  # -sin(t/2) e4 + cos(t/2) (0, cos t, sin t, 0)
        (0.0, [], [], 0.5),
        (0.0, [0.5, 0.0, 0.5], [], 0.5),
        (0.0, [], [0.5, 0.0, 0.5], 0.5),
        (0.0, [], [-1.0], 0.5),
    ])
    # the grid must hit t=0 (rho X_1 = 0), t=pi (rho X_2 = 0) and t=2 pi
    # exactly, so that neither field alone can carry the degree everywhere
    return FramedCurve(4, 3, directrix, (x1, x2), (0.0, TWO_PI))


@pytest.mark.parametrize("t_samples, lengths", [(40, [10, 20, 10]), (41, [11, 20, 10]),
                                               (200, [50, 100, 50])], ids=["40", "41", "200"])
def test_migrating_frame_pivots_by_runs(tol, tmp_path, t_samples, lengths):
    # at 40 and 200 samples one permutation clears the cutoff at every
    # node, but its trailing rho vanishes at the midpoint t = pi; the runs
    # split where the best-conditioned field changes instead
    fc = _migrating_frame()
    grid = SampleGrid.uniform(fc.interval, t_samples)
    patch = RuledPatch(fc, grid, tol)
    assert patch.profile.constant_degree == 1
    segments = segment_analyses(patch)
    assert [seg.i1 - seg.i0 for seg in segments] == lengths
    assert [(seg.i0, seg.d) for seg in segments] == [(sum(lengths[:k]), 1) for k in range(3)]
    assert [seg.pivoted.fc.frame for seg in segments] == [
        fc.frame, (fc.frame[1], fc.frame[0]), fc.frame]
    for seg in segments:
        pivoted = seg.pivoted.fc
        ts = seg.patch.grid.t_samples
        ts = np.sort(np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1])]))
        x = pivoted.frame_values(ts)
        assert np.abs(x @ x.swapaxes(1, 2) - np.eye(2)).max() <= tol.derivative_check_tol
        for t in ts:
            sample = rho_at(pivoted, t, tol)
            assert sample.degree == 1
            assert np.linalg.norm(sample.rho_vectors[-1]) > tol.zero_abs_tol
        # the same pointwise span as the raw frame
        regular, worst = svd_span_verdicts(np.stack([x, fc.frame_values(ts)], axis=1), tol)
        assert regular.all() and (worst < tol.rank_rel_tol).all()
    report = analyze(IngestResult(patch, {}, []), tmp_path)
    classification = report["classification"]
    assert [r["kind"] for r in classification["regions"]] == ["non_rank_one"]
    assert classification["boundary_points"] == []
    assert [s["t_range"][0] for s in report["striction"]] == [
        float(grid.t_samples[seg.i0]) for seg in segments]
    assert all(s["offsheet"]["regular"] == 32 for s in report["striction"])
    assert report["directrix_invariance"]["max_deviation"] < 1e-12
    assert not report["directrix_invariance"]["skipped"]


def test_invariance_over_pivot_runs(tol, monkeypatch):
    # one call over the three runs: each offset's deviation is the worst of
    # the single-run calls
    fc = _migrating_frame()
    runs = [(seg.pivoted, seg.sheet)
            for seg in segment_analyses(RuledPatch(fc, SampleGrid.uniform(fc.interval, 40), tol))]
    assert len(runs) == 3
    whole, single = directrix_invariance(runs), [directrix_invariance([run]) for run in runs]
    assert whole.offsets == ([0.5, 0.5], [1.0, 1.0], [-0.7, -0.7])
    assert not whole.skipped and not any(inv.skipped for inv in single)
    assert whole.per_offset == tuple(
        (c, max(inv.per_offset[k][1] for inv in single)) for k, c in enumerate(whole.offsets))
    assert whole.max_deviation == max(inv.max_deviation for inv in single)

    # the offset [1, 1] fails its re-solve on the second and third runs: it
    # is skipped with the second run's reason, the third run does not
    # re-solve it, and the others are reported
    resolve, resolved = striction._shifted_sheet, []

    def failing(p, d, a, chol, c):
        k = [run[0] for run in runs].index(p)
        resolved.append((k, c.tolist()))
        if k in (1, 2) and c.tolist() == [1.0, 1.0]:
            raise NumericError(f"re-solve of run {k} failed")
        return resolve(p, d, a, chol, c)

    monkeypatch.setattr(striction, "_shifted_sheet", failing)
    partial = directrix_invariance(runs)
    assert partial.skipped == (([1.0, 1.0], "NumericError: re-solve of run 1 failed"),)
    assert [k for k, c in resolved if c == [1.0, 1.0]] == [0, 1]
    assert len(resolved) == 3 + 3 + 2
    assert partial.per_offset == (whole.per_offset[0], whole.per_offset[2])
    assert partial.max_deviation == max(whole.per_offset[0][1], whole.per_offset[2][1])


def test_pivot_subsets_are_scored_once(tol, monkeypatch):
    fc = _migrating_frame()
    patch = RuledPatch(fc, SampleGrid.uniform(fc.interval, 200), tol)
    assert patch.profile.constant_degree == 1
    shapes, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", recording)
        segments = segment_analyses(patch)
        pivoted = [seg.pivoted for seg in segments]
    # one batched SVD per 1-subset of the two fields, over the whole
    # segment; the three runs' pivots read their rows
    assert len(pivoted) == 3 and shapes == [(200, 1, 4)] * 2
    for seg in segments:
        profile = seg.patch.profile
        own = DegreeProfile(profile.t, profile.rho, profile.degrees, profile.borderline)
        assert own.subset_scores(1)[1].tobytes() == profile.subset_scores(1)[1].tobytes()


def test_pivot_frame_raises_where_no_permutation_works(tol):
    fc = _migrating_frame()
    patch = RuledPatch(fc, SampleGrid.uniform(fc.interval, 41), tol)
    with pytest.raises(PivotError, match="no frame permutation"):
        pivot_frame(patch, 1)


def test_borderline_samples_are_flagged():
    # rotation rate chosen so the rho norm sits inside the ambiguous band
    # around zero_abs_tol
    eps = 3e-9
    directrix = PolynomialField([[0.0], [0.0], [0.0, 1.0]])
    x = FourierField([(0.0, [1.0], [], eps), (0.0, [], [1.0], eps), (0.0, [], [], 1.0)])
    fc = FramedCurve(3, 2, directrix, (x,), (0.0, TWO_PI))
    grid = SampleGrid.uniform(fc.interval, 9)
    prof = degree_profile(fc, grid, TolerancePolicy())
    assert prof.borderline_t


def test_equal_runs_split_at_every_change():
    assert equal_runs([]) == []
    assert equal_runs([1]) == [(0, 1)]
    assert equal_runs(np.array([0, 0, 1, 1, 1, 0])) == [(0, 2), (2, 5), (5, 6)]
    assert equal_runs([None, "a", "a", None, None]) == [(0, 1), (1, 3), (3, 5)]
