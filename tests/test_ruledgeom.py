import math

import numpy as np
import pytest

from ambient_second_form import second_form_along_directrix
from conftest import small_patch
from ruledkit import (RegularityError, RuledPatch, SampleGrid, ValidationError,
                      make_builtin_patch)
from ruledkit.fields import ConstantField, PolynomialField
from ruledkit.multilinear import numerical_rank
from ruledkit.parametric import BUILTIN_PATCHES, FramedCurve
from ruledkit.ruledgeom import (_coordinate_plane_curvatures, _orthonormal_tangent_coeffs,
                                _second_form_vectors, first_normal_bounds_check,
                                flatness_check, jacobian_sigma, rank_one_check,
                                sectional_curvature, tangent_space_stability)

SQ2 = math.sqrt(2.0)


def plane_patch():
    """Cylinder over a straight line: an affine plane, planar everywhere."""
    directrix = PolynomialField([[0.0, 1.0], [0.0], [0.0]])
    fc = FramedCurve(3, 2, directrix, (ConstantField([0.0, 1.0, 0.0]),), (0.0, 4.0))
    return RuledPatch(fc, SampleGrid.uniform(fc.interval, 21))


def sigma_on_grid(p, u):
    """The patch point at every grid parameter and ruling coordinates u,
    (N, dim), from the patch's grid values."""
    return p.values.directrix(0) + np.asarray(u, dtype=float) @ p.values.frame(0)


def test_eval_sigma_at_zero_is_directrix(cone_patch):
    ts = cone_patch.grid.t_samples
    assert np.allclose(sigma_on_grid(cone_patch, [0.0]),
                       cone_patch.fc.directrix.eval(ts, 0), atol=1e-14)


def test_eval_sigma_cylinder_offset(cylinder_patch):
    fc, ts = cylinder_patch.fc, cylinder_patch.grid.t_samples
    expected = fc.directrix.eval(ts, 0) + fc.frame[0].eval(ts, 0)
    assert np.allclose(sigma_on_grid(cylinder_patch, [1.0]), expected, atol=1e-14)


def test_eval_sigma_cone_apex(cone_patch):
    assert np.abs(sigma_on_grid(cone_patch, [-SQ2])).max() < 1e-14


def test_jacobian_cylinder_full_rank(cylinder_patch):
    for u in ([-1.5], [0.0], [2.0]):
        assert numerical_rank(jacobian_sigma(cylinder_patch, 1.0, u)) == 2


def test_jacobian_tangent_developable_drops_rank_on_edge(tangent_dev_patch):
    p = tangent_dev_patch
    assert numerical_rank(jacobian_sigma(p, 1.0, [0.0]), p.tol) == 1
    assert numerical_rank(jacobian_sigma(p, 1.0, [0.5]), p.tol) == 2


def test_jacobian_helicoid_always_regular(helicoid_patch):
    for u in (-2.0, 0.0, 1.0):
        assert numerical_rank(jacobian_sigma(helicoid_patch, 0.4, [u])) == 2


def test_jacobian_rank_m_iff_partials_wedge_nonzero(tangent_dev_patch):
    from ruledkit.multilinear import wedge_norm
    p = tangent_dev_patch
    for t, u in ((0.4, [0.0]), (0.4, [0.8]), (2.2, [-1.3])):
        jac = jacobian_sigma(p, t, u)
        full_rank = numerical_rank(jac, p.tol) == p.m
        assert full_rank == (wedge_norm(jac) > p.tol.zero_abs_tol)


def test_jacobian_rank_never_below_m_minus_one():
    rng = np.random.default_rng(11)
    for name in ["circular_cone", "tangent_developable_helix", "helicoid_frame",
                 "tangent_developable_product", "two_rotation_r5"]:
        p = small_patch(name, 9)
        lo, hi = p.fc.interval
        for _ in range(25):
            t = rng.uniform(lo, hi)
            u = rng.uniform(-2.0, 2.0, p.m - 1)
            assert numerical_rank(jacobian_sigma(p, t, u), p.tol) >= p.m - 1


# --- second fundamental form -------------------------------------------------

def test_plane_is_planar_everywhere():
    p = plane_patch()
    form = second_form_along_directrix(p, 1.0, [0.3])
    assert np.abs(form.II_vectors).max() < 1e-12
    assert form.first_normal_dim == 0
    pts = p.scan.planar()
    assert len(pts) == 21 * 5


def test_helicoid_first_normal_dimension(helicoid_patch):
    form = second_form_along_directrix(helicoid_patch, 0.6, [0.0])
    assert form.first_normal_dim == 1
    # II(x0, x1) is the projected frame derivative, nonzero on the axis
    assert np.linalg.norm(form.II_vectors[1]) == pytest.approx(1.0, abs=1e-12)


def test_two_rotation_first_normal_dimension(two_rotation_patch):
    form = second_form_along_directrix(two_rotation_patch, 0.6, [0.0, 0.0])
    assert form.first_normal_dim == 2


def test_second_form_raises_at_singular_point(tangent_dev_patch):
    with pytest.raises(RegularityError):
        second_form_along_directrix(tangent_dev_patch, 1.0, [0.0])


def test_second_form_vectors_are_normal(helicoid_patch, product_patch):
    for p, u in ((helicoid_patch, [0.7]), (product_patch, [0.5, -1.0])):
        t = 1.1
        form = second_form_along_directrix(p, t, u)
        jac = jacobian_sigma(p, t, u)
        q = np.linalg.qr(jac.T)[0]
        residual = np.abs(form.II_vectors @ q).max()
        assert residual < 1e-9


@pytest.mark.parametrize("name,d,expected_dims", [
    ("cylinder_helix", 0, {1}),
    ("tangent_developable_helix", 1, {1}),
    ("two_rotation_r5", 2, {2}),
])
def test_first_normal_bounds_examples(name, d, expected_dims):
    p = small_patch(name, 15)
    report = first_normal_bounds_check(p, d)
    assert report.ok
    assert report.checked == len(p.scan.entries())
    dims = {dim for _, _, dim in p.scan.entries()}
    assert dims == expected_dims


def test_first_normal_bounds_plane_lower_bound_vacuous():
    p = plane_patch()
    report = first_normal_bounds_check(p, 0)
    assert report.ok
    assert {dim for _, _, dim in p.scan.entries()} == {0}


def test_planar_points_empty_for_curved_patches(helicoid_patch, tangent_dev_patch):
    assert helicoid_patch.scan.planar() == []
    assert tangent_dev_patch.scan.planar() == []


# --- rank-one test -------------------------------------------------------------

def test_rank_one_tangent_developable(tangent_dev_patch):
    result = rank_one_check(tangent_dev_patch)
    assert result.verdict
    assert result.max_residual < 1e-10


def test_rank_one_helicoid_fails_with_unit_residual(helicoid_patch):
    result = rank_one_check(helicoid_patch)
    assert not result.verdict
    for _, res in result.residual_table:
        assert res == pytest.approx(1.0, abs=1e-9)


def test_rank_one_cone(cone_patch):
    assert rank_one_check(cone_patch).verdict


def test_rank_one_plane_fails_via_planarity():
    result = rank_one_check(plane_patch())
    assert not result.verdict
    assert result.max_residual < 1e-12
    assert result.planar


# --- tangent space stability ----------------------------------------------------

def test_stability_cylinder_all_pairs(cylinder_patch):
    assert tangent_space_stability(cylinder_patch, 1.0,
                                   [([-2.0], [0.5]), ([0.0], [1.7])])


def test_stability_tangent_developable_off_edge(tangent_dev_patch):
    assert tangent_space_stability(tangent_dev_patch, 0.8, [([1.0], [2.0])])


def test_stability_helicoid_fails(helicoid_patch):
    assert not tangent_space_stability(helicoid_patch, 0.8, [([0.0], [1.0])])


def test_stability_rejects_singular_point(tangent_dev_patch):
    with pytest.raises(RegularityError):
        tangent_space_stability(tangent_dev_patch, 0.8, [([0.0], [1.0])])


def slowed_helicoid_patch():
    """Helicoid whose axis directrix (0, 0, t^2) stops at t=0: not
    developable, and singular at (t=0, u=0) only."""
    frame = make_builtin_patch("helicoid_frame").frame
    fc = FramedCurve(3, 2, PolynomialField([[0.0], [0.0], [0.0, 0.0, 1.0]]), frame, (-1.0, 1.0))
    return RuledPatch(fc, SampleGrid.uniform(fc.interval, 21))


def test_stability_checks_pairs_in_order_each_at_its_own_t():
    p = slowed_helicoid_patch()
    differ, singular, same = ([0.0], [1.0]), ([1.0], [0.0]), ([0.3], [0.3])
    # an earlier differing pair decides before a later singular point
    assert not tangent_space_stability(p, [0.5, 0.0], [differ, singular])
    # a singular pair raises, naming its own t, when no earlier pair differed
    with pytest.raises(RegularityError, match=r"second comparison point is singular at t=0\.0$"):
        tangent_space_stability(p, [0.5, 0.0, 0.5], [same, singular, differ])
    with pytest.raises(RegularityError, match=r"first comparison point is singular at t=0\.0$"):
        tangent_space_stability(p, 0.0, [differ])
    # off the axis, the tangent plane at t=0 is the same at every u, not at t=0.5
    off_axis = ([1.0], [2.0])
    assert tangent_space_stability(p, [0.5, 0.0], [same, off_axis])
    assert not tangent_space_stability(p, [0.0, 0.5], [same, off_axis])
    with pytest.raises(ValidationError):
        tangent_space_stability(p, [0.5, 0.0, 0.5], [same, differ])


# --- curvature -------------------------------------------------------------------

def test_cylinder_flat(cylinder_patch):
    assert flatness_check(cylinder_patch).max_abs < 1e-9


def test_tangent_developable_flat_off_edge(tangent_dev_patch):
    result = flatness_check(tangent_dev_patch)
    assert result.max_abs < 1e-8
    assert result.skipped_singular > 0  # the u=0 edge is skipped


def test_helicoid_curvature_values(helicoid_patch):
    assert sectional_curvature(helicoid_patch, 0.0, [0.0]) == pytest.approx(-1.0, abs=1e-9)
    assert sectional_curvature(helicoid_patch, 0.0, [1.0]) == pytest.approx(-0.25, abs=1e-9)
    assert flatness_check(helicoid_patch).max_abs == pytest.approx(1.0, abs=1e-9)


def test_rank_one_equivalence_on_planar_free_patches():
    # wedge test, tangent stability, and flatness agree patch by patch
    for name, expected in [("cylinder_helix", True), ("helicoid_frame", False),
                           ("circular_cone", True), ("tangent_developable_helix", True),
                           ("two_rotation_r5", False)]:
        p = small_patch(name, 15)
        wedge = rank_one_check(p).verdict
        flat = flatness_check(p).is_flat(1e-6)
        assert wedge == flat == expected, name


# --- orthonormal tangent basis and second form, against the loops they replaced ----

def _loop_tangent_coeffs(jac, tol):
    """Gram-Schmidt on the Jacobian rows, one row at a time: the lower
    triangular S with S @ jac orthonormal."""
    m = jac.shape[-2]
    basis = np.empty_like(jac)
    coeff = np.zeros(jac.shape[:-2] + (m, m))
    for i in range(m):
        w = jac[..., i, :].copy()
        c = np.zeros(jac.shape[:-2] + (m,))
        c[..., i] = 1.0
        for a in range(i):
            proj = np.sum(basis[..., a, :] * jac[..., i, :], axis=-1)[..., None]
            w -= proj * basis[..., a, :]
            c -= proj * coeff[..., a, :]
        norm = np.linalg.norm(w, axis=-1)
        if np.any(norm < tol.zero_abs_tol):
            raise RegularityError("tangent basis is degenerate")
        basis[..., i, :] = w / norm[..., None]
        coeff[..., i, :] = c / norm[..., None]
    return coeff


def _loop_plane_curvatures(jac, vecs, tol):
    """II in the orthonormal basis entry by entry, then the Gauss equation
    on every coordinate plane (a, b), a < b."""
    s = _loop_tangent_coeffs(jac, tol)
    m = jac.shape[-2]
    ii = np.zeros(jac.shape[:-2] + (m, m, vecs.shape[-1]))
    for a in range(m):
        for b in range(a, m):
            v = (s[..., a, 0] * s[..., b, 0])[..., None] * vecs[..., 0, :]
            for j in range(1, m):
                v = v + (s[..., a, 0] * s[..., b, j]
                         + s[..., a, j] * s[..., b, 0])[..., None] * vecs[..., j, :]
            ii[..., a, b, :] = ii[..., b, a, :] = v
    return np.stack([np.sum(ii[..., a, a, :] * ii[..., b, b, :], axis=-1)
                     - np.sum(ii[..., a, b, :] * ii[..., a, b, :], axis=-1)
                     for a in range(m) for b in range(a + 1, m)], axis=-1)


@pytest.mark.parametrize("name", sorted(BUILTIN_PATCHES))
def test_tangent_basis_and_curvatures_equal_the_loops(name):
    p = small_patch(name, 20)
    jac, vecs, regular = _second_form_vectors(p.values, slice(None),
                                              p.grid.u_points(p.m - 1), p.tol)
    jac, vecs = jac[regular], vecs[regular]
    assert jac.shape[0] > 0
    s = _orthonormal_tangent_coeffs(jac, p.tol)
    assert np.abs(s - _loop_tangent_coeffs(jac, p.tol)).max() < 1e-12
    assert np.abs(s @ jac @ (s @ jac).swapaxes(1, 2) - np.eye(p.m)).max() < 1e-12
    assert np.abs(_coordinate_plane_curvatures(jac, vecs, p.tol)
                  - _loop_plane_curvatures(jac, vecs, p.tol)).max() < 1e-12


@pytest.mark.parametrize("m, dim", [(2, 3), (3, 4), (4, 6)])
def test_plane_curvatures_equal_the_loops_on_generic_input(m, dim, tol):
    # the builtins' second forms are sparse and their curvatures mostly 0;
    # generic input exercises every entry of II
    rng = np.random.default_rng(m)
    jac, vecs = rng.normal(size=(2, 50, m, dim))
    got = _coordinate_plane_curvatures(jac, vecs, tol)
    want = _loop_plane_curvatures(jac, vecs, tol)
    assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


def test_tangent_basis_raises_on_a_dependent_stack(tol):
    jac = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                    [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]])
    for coeffs in (_orthonormal_tangent_coeffs, _loop_tangent_coeffs):
        with pytest.raises(RegularityError):
            coeffs(jac, tol)
