import math

import numpy as np
import pytest

from ruledkit import (ConfigError, DegeneracyError, HelixCurve, SampleGrid,
                      ValidationError, make_builtin_patch, rho_at)
from ruledkit.fields import ConstantField, FourierField, PolynomialField
from ruledkit.multilinear import gram_matrix, numerical_rank, project_orthogonal
from ruledkit.parametric import (BUILTIN_PATCHES, FramedCurve, arclength_framed_curve,
                                 builtin_families, gram_schmidt_frame,
                                 parallel_transport_frame)

TWO_PI = 2.0 * math.pi
SQ2 = math.sqrt(2.0)


@pytest.mark.parametrize("name", sorted(BUILTIN_PATCHES))
def test_builtin_patches_satisfy_frame_invariants(name):
    fc = make_builtin_patch(name)
    grid = SampleGrid.uniform(fc.interval, 33)
    fc.validate_on(grid)


def test_cone_directrix_and_ruling_values():
    fc = make_builtin_patch("circular_cone")
    for t in (0.0, 0.7, 2.0):
        assert np.allclose(fc.directrix.eval(t, 0),
                           [math.cos(t), math.sin(t), 1.0], atol=1e-14)
        assert np.allclose(fc.frame[0].eval(t, 0),
                           np.array([math.cos(t), math.sin(t), 1.0]) / SQ2, atol=1e-14)


def test_tangent_developable_ruling_is_the_tangent():
    fc = make_builtin_patch("tangent_developable_helix")
    for t in (0.0, 1.1, 4.5):
        assert np.array_equal(fc.frame[0].eval(t, 0), fc.directrix.eval(t, 1))


def test_helicoid_frame_values():
    fc = make_builtin_patch("helicoid_frame")
    t = 0.9
    assert np.allclose(fc.directrix.eval(t, 0), [0.0, 0.0, t], atol=1e-14)
    assert np.allclose(fc.frame[0].eval(t, 0),
                       [math.cos(t), math.sin(t), 0.0], atol=1e-14)


def test_unknown_patch_family_errors():
    with pytest.raises(ConfigError):
        make_builtin_patch("moebius")
    with pytest.raises(ConfigError):
        make_builtin_patch("circular_cone", {"apex": 1.0})


def test_builtin_families_registry_lists_curves_and_patches():
    families = builtin_families()
    assert "curve:helix" in families
    assert "patch:circular_cone" in families
    assert len(families) >= 10


def test_framed_curve_rejects_bad_shapes():
    helix = HelixCurve()
    with pytest.raises(ValidationError):
        FramedCurve(3, 4, helix, (ConstantField([0, 0, 1.0]),) * 3, (0.0, 1.0))
    with pytest.raises(ValidationError):
        FramedCurve(3, 2, helix, (), (0.0, 1.0))
    with pytest.raises(ValidationError):
        FramedCurve(3, 2, helix, (ConstantField([1.0, 0.0]),), (0.0, 1.0))
    with pytest.raises(ValidationError):
        FramedCurve(3, 2, helix, (ConstantField([1.0, 0.0, 0.0]),), (1.0, 1.0))


def test_validate_on_catches_non_unit_speed():
    fast = PolynomialField([[0.0, 2.0], [0.0], [0.0]])
    fc = FramedCurve(3, 2, fast, (ConstantField([0.0, 1.0, 0.0]),), (0.0, 1.0))
    with pytest.raises(ValidationError):
        fc.validate_on(SampleGrid.uniform((0.0, 1.0), 9))


def test_sample_grid_validation():
    with pytest.raises(ValidationError):
        SampleGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        SampleGrid(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValidationError):
        SampleGrid(np.linspace(0, 1, 5), u_extent=-1.0)
    assert np.array_equal(SampleGrid(np.linspace(0, 1, 5), 2.0, 1).u_axis, [0.0])
    assert SampleGrid(np.linspace(0, 1, 5), 2.0, 3).u_points(2).shape == (9, 2)


@pytest.mark.parametrize("t_samples", [2, 0, -5, 4.0, 3.5, "9"])
def test_uniform_grid_rejects_bad_sample_counts(t_samples):
    with pytest.raises(ValidationError, match="at least 3 parameter samples"):
        SampleGrid.uniform((0.0, 1.0), t_samples)


@pytest.mark.parametrize("u_extent", [math.inf, -math.inf, math.nan, 0.0])
def test_grid_rejects_bad_u_extent(u_extent):
    with pytest.raises(ValidationError, match="u_extent"):
        SampleGrid.uniform((0.0, 1.0), 5, u_extent)


def test_uniform_grid_takes_numpy_integers():
    assert SampleGrid.uniform((0.0, 1.0), np.int64(3)).t_samples.tolist() == [0.0, 0.5, 1.0]


# --- Gram-Schmidt -----------------------------------------------------------

def test_gram_schmidt_keeps_orthonormal_input():
    fc = make_builtin_patch("two_rotation_r5")
    grid = SampleGrid.uniform(fc.interval, 21)
    out = gram_schmidt_frame(fc.frame, grid)
    for t in grid.t_samples:
        for orig, new in zip(fc.frame, out):
            assert np.abs(new.eval(t, 0) - orig.eval(t, 0)).max() < 1e-10


def test_gram_schmidt_constant_pair():
    fields = [ConstantField([1.0, 0.0, 0.0]), ConstantField([1.0, 1.0, 0.0])]
    grid = SampleGrid.uniform((0.0, 1.0), 9)
    out = gram_schmidt_frame(fields, grid)
    assert np.allclose(out[0].eval(0.5, 0), [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(out[1].eval(0.5, 0), [0.0, 1.0, 0.0], atol=1e-12)


def test_gram_schmidt_smooth_pair_r4():
    f1 = FourierField([(0.0, [1.0], [], 1.0), (0.0, [], [1.0], 1.0),
                       (0.3, [], [], 1.0), (0.0, [0.2], [], 1.0)])
    f2 = FourierField([(1.0, [], [], 1.0), (0.0, [0.5], [], 1.0),
                       (0.0, [], [], 1.0), (0.4, [], [0.3], 1.0)])
    grid = SampleGrid.uniform((0.0, TWO_PI), 25)
    out = gram_schmidt_frame([f1, f2], grid)
    eye = np.eye(2)
    for t in grid.t_samples:
        vals = np.array([f.eval(t, 0) for f in out])
        assert np.abs(gram_matrix(vals) - eye).max() < 1e-9
        # span preserved, and order preserved: first output stays in span of f1
        assert numerical_rank(np.vstack([vals, f1.eval(t, 0), f2.eval(t, 0)])) == 2
        assert numerical_rank(np.vstack([vals[0], f1.eval(t, 0)])) == 1


def test_arclength_framed_curve_composes_every_field_with_one_map():
    fast = FourierField([(0.0, [2.0], [0.0], 1.0), (0.0, [0.0], [2.0], 1.0),
                         (0.0, [], [], 1.0)])
    fc = FramedCurve(3, 2, fast, (ConstantField([0.0, 0.0, 1.0]),), (0.0, TWO_PI))
    out = arclength_framed_curve(fc)
    pmap = out.directrix.parameter_map
    assert out.interval == (0.0, pmap.length)
    assert pmap.length == pytest.approx(2.0 * TWO_PI, rel=1e-12)
    assert all(f.parameter_map is pmap and f.base is g for f, g in zip(out.frame, fc.frame))
    out.validate_on(SampleGrid.uniform(out.interval, 33))
    ss = np.linspace(0.0, pmap.length, 7)
    assert np.abs(out.directrix_values(ss) - fc.directrix_values(pmap.t(ss))).max() < 1e-14


def test_gram_schmidt_reports_degenerate_parameter():
    fields = [ConstantField([1.0, 0.0, 0.0]), PolynomialField([[1.0], [0.0, 1.0], [0.0]])]
    grid = SampleGrid.uniform((0.0, 1.0), 9)
    with pytest.raises(DegeneracyError, match="t=0"):
        gram_schmidt_frame(fields, grid)


# --- parallel transport ------------------------------------------------------

def test_transport_constant_frame_unchanged():
    fc = make_builtin_patch("cylinder_helix")
    grid = SampleGrid.uniform(fc.interval, 17)
    out = parallel_transport_frame(fc, grid)
    for t in grid.t_samples:
        assert np.abs(out[0].eval(t, 0) - fc.frame[0].eval(t, 0)).max() < 1e-9


def test_transport_rotating_frame_becomes_constant():
    fc = make_builtin_patch("rotating_cylinder")
    grid = SampleGrid.uniform(fc.interval, 17)
    out = parallel_transport_frame(fc, grid)
    e0 = [f.eval(0.0, 0) for f in out]
    worst_drift = 0.0
    worst_deriv = 0.0
    for t in grid.t_samples:
        for f, v0 in zip(out, e0):
            worst_drift = max(worst_drift, float(np.abs(f.eval(t, 0) - v0).max()))
            worst_deriv = max(worst_deriv, float(np.linalg.norm(f.eval(t, 1))))
    assert worst_drift < 1e-8
    # rank of the transported derivatives equals the distribution degree (0)
    assert worst_deriv < 1e-8


def test_transport_helix_tangent_rank_matches_degree(tol):
    helix = HelixCurve()
    from ruledkit.fields import DerivativeField
    fc = FramedCurve(3, 2, helix, (DerivativeField(helix, 1),), (0.0, TWO_PI))
    grid = SampleGrid.uniform(fc.interval, 17)
    out = parallel_transport_frame(fc, grid)
    for t in grid.t_samples[::4]:
        derivs = np.array([f.eval(t, 1) for f in out])
        assert numerical_rank(derivs, tol) == 1
        assert rho_at(fc, t, tol).degree == 1


def test_transport_removes_tangential_derivative(tol):
    fc = make_builtin_patch("two_rotation_r5")
    grid = SampleGrid.uniform(fc.interval, 17)
    out = parallel_transport_frame(fc, grid)
    eye = np.eye(len(out))
    for t in grid.t_samples:
        vals = np.array([f.eval(t, 0) for f in out])
        assert np.abs(gram_matrix(vals) - eye).max() < tol.derivative_check_tol
        for f in out:
            tangential = f.eval(t, 1) - project_orthogonal(f.eval(t, 1), vals, tol)
            assert np.linalg.norm(tangential) < tol.zero_abs_tol
        # the rank of the transported derivatives equals the rank of the
        # projected frame derivatives
        derivs = np.array([f.eval(t, 1) for f in out])
        assert numerical_rank(derivs, tol) == rho_at(fc, t, tol).degree == 2


def test_transport_preserves_span(tol):
    fc = make_builtin_patch("two_rotation_r5")
    grid = SampleGrid.uniform(fc.interval, 17)
    out = parallel_transport_frame(fc, grid)
    for t in grid.t_samples[::4]:
        orig = fc.frame_values(t)
        new = np.array([f.eval(t, 0) for f in out])
        assert numerical_rank(np.vstack([orig, new]), tol) == len(out)
