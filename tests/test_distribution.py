import math

import numpy as np
import pytest

from ambient_second_form import svd_span_verdicts
from conftest import small_patch
from frame_oracles import project_off_spans
from ruledkit import (RuledPatch, SampleGrid, TolerancePolicy, ValidationError,
                      make_builtin_patch, pivot_frame, rho_at)
from ruledkit.distribution import constant_degree_segments, degree_profile, equal_runs
from ruledkit.fields import FourierField, PolynomialField, VectorField
from ruledkit.multilinear import numerical_ranks
from ruledkit.parametric import FramedCurve

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

def test_pivot_swaps_product_frame():
    p = small_patch("tangent_developable_product", 21)
    pivoted = pivot_frame(p, 1)
    assert pivoted.fc.frame == (p.fc.frame[1], p.fc.frame[0])
    assert (pivoted.grid, pivoted.tol, pivoted.origin) == (p.grid, p.tol, None)


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


def test_pivot_rotation_fallback(tol):
    fc = _migrating_frame()
    grid = SampleGrid.uniform(fc.interval, 41)
    fc.validate_on(grid, tol)
    patch = RuledPatch(fc, grid, tol)
    assert patch.profile.constant_degree == 1
    rotated = pivot_frame(patch, 1)
    # the rotated patch keeps the profile the pivot checked it with
    assert rotated.profile.constant_degree == 1
    pivoted = rotated.fc
    assert pivoted is not fc
    assert pivoted.frame != fc.frame and pivoted.frame != (fc.frame[1], fc.frame[0])
    for t in grid.t_samples:
        sample = rho_at(pivoted, t, tol)
        # trailing field carries the full degree after the rotation
        assert np.linalg.norm(sample.rho_vectors[-1]) > tol.zero_abs_tol
        assert sample.degree == 1
        # same pointwise span as the original frame
        pair = np.stack([pivoted.frame_values(t), fc.frame_values(t)])
        regular, worst = svd_span_verdicts(pair[None], tol)
        assert regular.all() and worst[0] < tol.zero_abs_tol
    # between the nodes the rotation is interpolated, so the rotated frame is
    # orthonormal only to the interpolation error; its span, and the degree
    # its trailing field carries, are checked off the span of the SVD
    ts = grid.t_samples
    mids = 0.5 * (ts[1:] + ts[:-1])
    x = pivoted.frame_values(mids)
    assert np.abs(x @ x.swapaxes(1, 2) - np.eye(2)).max() < 1e-5
    rho = project_off_spans(x, pivoted.frame_values(mids, 1))
    assert (np.linalg.norm(rho[:, -1], axis=1) > tol.zero_abs_tol).all()
    assert (numerical_ranks(rho, tol) == 1).all()
    regular, worst = svd_span_verdicts(np.stack([x, fc.frame_values(mids)], axis=1), tol)
    assert regular.all() and (worst < tol.zero_abs_tol).all()


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
