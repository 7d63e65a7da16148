import math

import numpy as np
import pytest

from ruledkit import (ConfigError, DegeneracyError, DomainError, HelixCurve, SampleGrid,
                      ValidationError, make_builtin_patch)
from frame_oracles import gram_schmidt_r
from ruledkit.fields import (ConstantField, FourierField, ParameterArray, PolynomialField,
                             VectorField, array_eval, stack_fields)
from ruledkit.multilinear import TolerancePolicy, numerical_rank
from ruledkit.oracles import max_derivative_error
from ruledkit.parametric import (BUILTIN_PATCHES, FramedCurve, arclength_framed_curve,
                                 builtin_families, gram_schmidt_frame)

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
    with pytest.raises(ValidationError, match="u_extent must be finite and strictly positive"):
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


def test_gram_schmidt_frame_is_defined_over_its_grid():
    # the coefficient spline is not extrapolated past the grid's ends
    fields = [ConstantField([1.0, 0.0, 0.0]), ConstantField([1.0, 1.0, 0.0])]
    out = gram_schmidt_frame(fields, SampleGrid.uniform((0.25, 1.0), 9))
    assert out[1].domain == (0.25, 1.0)
    with pytest.raises(DomainError, match="t=0.0 outside"):
        out[1].eval(np.array([0.5, 0.0]), 0)


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
        assert np.abs(vals @ vals.T - eye).max() < 1e-9
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


def _raw_frame_r5():
    """Three independent Fourier fields in R^5, of uneven lengths and
    angles, with harmonics t and 2t: a frame far from orthonormal."""
    rng = np.random.default_rng(7)
    fields = []
    for i in range(3):
        coords = [(2.0 * (j == i) + 0.3 * rng.normal(), [0.4 * rng.normal()],
                   [0.4 * rng.normal()], float(1 + (i + j) % 2)) for j in range(5)]
        fields.append(FourierField(coords))
    return fields


class _CountingField(VectorField):
    """A field that records the order of every `eval` call."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.calls = []

    @array_eval
    def eval(self, ts, order=0):
        self.calls.append(order)
        return self.base.eval(ts, order)


def test_gram_schmidt_frame_is_orthonormal_at_every_t():
    # off the grid too, and equal to the Householder QR of the raw frame
    raw = _raw_frame_r5()
    out = gram_schmidt_frame(raw, SampleGrid.uniform((0.0, TWO_PI), 17))
    ts = np.random.default_rng(3).uniform(0.0, TWO_PI, 200)
    e = stack_fields(out, ts)
    assert np.abs(e @ e.swapaxes(1, 2) - np.eye(3)).max() <= 1e-14
    v = stack_fields(raw, ts)
    want = np.linalg.solve(gram_schmidt_r(v).swapaxes(1, 2), v)
    assert np.abs(e - want).max() <= 1e-14


@pytest.mark.parametrize("order", [1, 2])
def test_gram_schmidt_frame_derivatives_pass_the_oracle(order):
    tol = TolerancePolicy().derivative_check_tol
    out = gram_schmidt_frame(_raw_frame_r5(), SampleGrid.uniform((0.0, TWO_PI), 17))
    for field in out:
        for seed in range(3):
            assert max_derivative_error(field, field.domain, order, n=50, seed=seed) < tol


def test_gram_schmidt_frame_orthonormalizes_once_per_parameter_array_and_order():
    raw = [_CountingField(f) for f in _raw_frame_r5()]
    out = gram_schmidt_frame(raw, SampleGrid.uniform((0.0, TWO_PI), 17))
    for f in raw:
        f.calls.clear()
    params = ParameterArray(np.linspace(0.5, 6.0, 40))
    for order in (2, 0, 1, 2):
        for field in out:
            field.eval(params, order)
    assert all(sorted(f.calls) == [0, 1, 2] for f in raw)

