import math

import numpy as np
import pytest

from ambient_second_form import (gram_schmidt_plane_curvatures, gram_schmidt_tangent_coeffs,
                                  second_form_along_directrix, second_form_vectors)
from conftest import small_patch
from frame_oracles import gram_schmidt_r
from ruledkit import (RegularityError, RuledPatch, SampleGrid, TolerancePolicy,
                      ValidationError, make_builtin_patch)
from ruledkit import ruledgeom
from ruledkit.fields import ConstantField, FourierField, PolynomialField
from ruledkit.multilinear import numerical_rank
from ruledkit.parametric import BUILTIN_PATCHES, FramedCurve
from ruledkit.ruledgeom import (_inverse_factors, _normal_plane_curvatures,
                                _reduced_jacobians,
                                first_normal_bounds_check, flatness_check, jacobian_sigma,
                                rank_one_check, sectional_curvature, tangent_space_stability)

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


def test_sectional_curvature_raises_at_a_singular_point(tangent_dev_patch):
    with pytest.raises(RegularityError, match="singular"):
        sectional_curvature(tangent_dev_patch, 1.0, [0.0])


def test_rank_one_equivalence_on_planar_free_patches():
    # wedge test, tangent stability, and flatness agree patch by patch
    for name, expected in [("cylinder_helix", True), ("helicoid_frame", False),
                           ("circular_cone", True), ("tangent_developable_helix", True),
                           ("two_rotation_r5", False)]:
        p = small_patch(name, 15)
        wedge = rank_one_check(p).verdict
        flat = flatness_check(p).is_flat(1e-6)
        assert wedge == flat == expected, name


@pytest.mark.parametrize("name, zero_tols", [("circular_cone", (0.5, 1.0, 2.0)),
                                             ("helicoid_frame", (1.0, 2.0)),
                                             ("two_rotation_r5", (1.0, 2.0))])
def test_flatness_reads_the_scans_regularity_at_any_zero_tol(name, zero_tols):
    # a Gram-Schmidt row length of about 1 once fell below an absolute
    # zero_abs_tol of 1 or more and raised at points the scan calls regular
    fc = make_builtin_patch(name)
    for zero_tol in zero_tols:
        p = RuledPatch(fc, SampleGrid.uniform(fc.interval, 40), TolerancePolicy(zero_abs_tol=zero_tol))
        result = flatness_check(p)
        assert result.checked == np.count_nonzero(p.scan.regular)
        assert result.skipped_singular == p.scan.skipped
        if (name, zero_tol) == ("circular_cone", 1.0):
            assert (result.checked, result.skipped_singular) == (156, 44)


def test_flatness_takes_no_second_pass_over_the_grid(monkeypatch):
    p = small_patch("two_rotation_r5", 20)
    p.scan
    calls = []
    for name in ("_reduced_jacobians", "_regularity", "_normal_dims", "_second_form_ranks"):
        kernel = getattr(ruledgeom, name)
        monkeypatch.setattr(ruledgeom, name,
                            lambda *args, kernel=kernel, name=name: calls.append(name) or kernel(*args))
    assert not flatness_check(p).is_flat()
    assert calls == []


# --- closed-form curvatures, against the Gram-Schmidt kernel they replaced --------

def closed_form_curvatures(p):
    """K(n, q_i), (K, m-1), at the K regular grid points of `p`, t-major:
    `_normal_plane_curvatures` on the rows Y = R^-T (Xdot comp) and sigma_t's
    complement coordinates c, the values whose largest magnitude
    `flatness_check` reports."""
    i, j = np.nonzero(p.scan.regular)
    _, _, c0, xdot = p.values.coordinates(1)
    y = _inverse_factors(p.values.frame_basis()[0]).swapaxes(-1, -2) @ xdot
    k = _normal_plane_curvatures(y[i], c0[i, 0] + (p.scan.u[j, None] @ xdot[i])[:, 0])
    assert flatness_check(p).max_abs == (-k.min() if k.size else 0.0)
    return k


def _qr_tangent_coeffs(jac, tol):
    """The lower triangular S with S @ jac orthonormal, from the stacked
    QR factor of the rows (`gram_schmidt_r`) and its stacked inverse."""
    r = gram_schmidt_r(jac)
    if np.any(np.diagonal(r, axis1=-2, axis2=-1) < tol.zero_abs_tol):
        raise RegularityError("tangent basis is degenerate")
    return np.linalg.inv(r).swapaxes(-1, -2)


def _qr_plane_curvatures(jac, vecs, tol):
    """The Gauss equation <II_aa, II_bb> - |II_ab|^2 on every coordinate
    plane (a, b), a < b, with II in the basis of `_qr_tangent_coeffs`
    read from all rows of vecs, sigma_tt among them: only row/column 0 of
    the coordinate form is nonzero, so II_ab = s_a0 W_b + s_b0 W_a
    - s_a0 s_b0 vecs_0 with W = s @ vecs."""
    s = _qr_tangent_coeffs(jac, tol)
    m = jac.shape[-2]
    w = s @ vecs
    s0 = s[..., :, :1]

    def ii(a, b):
        return (s0[..., a, :] * w[..., b, :] + s0[..., b, :] * w[..., a, :]
                - s0[..., a, :] * s0[..., b, :] * vecs[..., :1, :])

    a, b = np.triu_indices(m, 1)
    diag = ii(np.arange(m), np.arange(m))
    return np.sum(diag[..., a, :] * diag[..., b, :], axis=-1) - np.sum(ii(a, b) ** 2, axis=-1)


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


def _loop_gauss_curvatures(s, vecs):
    """II in the orthonormal basis e_a = sum_x S_ax d_x entry by entry, then
    the Gauss equation on every coordinate plane (a, b), a < b."""
    m = s.shape[-1]
    ii = np.zeros(s.shape[:-2] + (m, m, vecs.shape[-1]))
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


def _loop_plane_curvatures(jac, vecs, tol):
    """The Gauss equation on every coordinate plane of the basis that
    Gram-Schmidt orthonormalizes from the Jacobian rows, entry by entry."""
    return _loop_gauss_curvatures(_loop_tangent_coeffs(jac, tol), vecs)


def assert_closed_form_matches(jac, vecs, k, tol):
    """The closed-form K(n, q_i) `k` (..., m-1) of reduced Jacobians `jac`
    (..., m, m) and second-form vectors `vecs`: on the basis (q, n), whose
    coordinate change is jac^-1, the loop's Gauss equation gives k on the
    planes (q_i, n) and 0 on the planes (q_i, q_l); the sum over the planes
    equals the Gram-Schmidt kernel's, which does not depend on the basis;
    and for m = 2, the one plane, its value."""
    m = jac.shape[-1]
    loop = _loop_gauss_curvatures(np.linalg.inv(jac), vecs)
    a, b = np.triu_indices(m, 1)
    scale = max(1.0, np.abs(loop).max())
    assert np.abs(loop[..., b == m - 1] - k).max() <= 1e-12 * scale
    assert np.abs(loop[..., b < m - 1]).max(initial=0.0) <= 1e-12 * scale
    reference = gram_schmidt_plane_curvatures(jac, vecs, tol)
    assert np.abs(k.sum(axis=-1) - reference.sum(axis=-1)).max() <= 1e-12 * scale
    if m == 2:
        assert np.abs(k - reference).max() <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(BUILTIN_PATCHES))
def test_tangent_basis_and_curvatures_equal_the_loops(name):
    p = small_patch(name, 20)
    jac, vecs, regular = second_form_vectors(p.values, slice(None),
                                              p.grid.u_points(p.m - 1), p.tol)
    jac, vecs = jac[regular], vecs[regular]
    assert jac.shape[0] > 0
    s = gram_schmidt_tangent_coeffs(jac, p.tol)
    k = gram_schmidt_plane_curvatures(jac, vecs, p.tol)
    for coeffs, curvatures in ((_qr_tangent_coeffs, _qr_plane_curvatures),
                               (_loop_tangent_coeffs, _loop_plane_curvatures)):
        assert np.abs(s - coeffs(jac, p.tol)).max() < 1e-12
        assert np.abs(k - curvatures(jac, vecs, p.tol)).max() < 1e-12
    assert np.abs(s @ jac @ (s @ jac).swapaxes(1, 2) - np.eye(p.m)).max() < 1e-12
    assert_closed_form_matches(jac, vecs, closed_form_curvatures(p), p.tol)


def random_reduced_stacks(rng, size, m, dim):
    """(jac, vecs, y, c) at `size` random points: reduced Jacobians
    [[a, |c|], [R^T, 0]] with well-conditioned triangular R, the second-form
    vectors (sigma_tt and Xdot_j in complement coordinates, less their part
    along c), and the closed form's inputs Y = R^-T (Xdot comp) and c."""
    k = m - 1
    r = np.triu(rng.normal(size=(size, k, k))) + 3.0 * np.eye(k)
    sigma_q = (rng.normal(size=(size, 1, k)), rng.normal(size=(size, k, k)))
    sigma_c = (rng.normal(size=(size, 1, dim - k)), rng.normal(size=(size, k, dim - k)))
    u = rng.uniform(-2.0, 2.0, (size, 1, k))
    pieces, c = _reduced_jacobians(r, (*sigma_q, *sigma_c), u)
    jac, c = pieces.matrices(np.ones((size, 1), dtype=bool)), c[:, 0]
    n = c / np.linalg.norm(c, axis=-1, keepdims=True)
    vecs = np.concatenate([rng.normal(size=(size, 1, dim - k)), sigma_c[1]], axis=1)
    vecs -= (vecs @ n[..., None]) * n[:, None]
    return jac, vecs, np.linalg.inv(r).swapaxes(-1, -2) @ sigma_c[1], c


@pytest.mark.parametrize("m, dim", [(2, 3), (3, 4), (3, 5), (4, 6)])
def test_plane_curvatures_equal_the_loops_on_generic_input(m, dim, tol):
    # the builtins' second forms are sparse and their curvatures mostly 0;
    # generic input exercises every entry of II
    rng = np.random.default_rng(m + dim)
    jac, vecs = rng.normal(size=(2, 50, m, dim))
    got = gram_schmidt_plane_curvatures(jac, vecs, tol)
    for curvatures in (_qr_plane_curvatures, _loop_plane_curvatures):
        want = curvatures(jac, vecs, tol)
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())
    jac, vecs, y, c = random_reduced_stacks(rng, 50, m, dim)
    assert_closed_form_matches(jac, vecs, _normal_plane_curvatures(y, c), tol)


def test_tangent_basis_raises_on_a_dependent_stack(tol):
    jac = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                    [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]])
    for coeffs in (gram_schmidt_tangent_coeffs, _qr_tangent_coeffs, _loop_tangent_coeffs):
        with pytest.raises(RegularityError):
            coeffs(jac, tol)


def tilted_rotation_patch():
    """m = 3 in R^4: X_1 turns in the (x, z) plane, X_2 = e_y is constant,
    and the directrix (0, t / 2, 0, t) moves along X_2 as well, so that
    sigma_t has a component a_2 along the second ruling direction."""
    frame = (FourierField([(0.0, [1.0], [], 1.0), (0.0, [], [], 1.0),
                           (0.0, [], [1.0], 1.0), (0.0, [], [], 1.0)]),
             ConstantField([0.0, 1.0, 0.0, 0.0]))
    fc = FramedCurve(4, 3, PolynomialField([[0.0], [0.0, 0.5], [0.0], [0.0, 1.0]]), frame,
                     (0.0, 2.0))
    return RuledPatch(fc, SampleGrid.uniform(fc.interval, 40))


@pytest.mark.parametrize("name", ["helicoid_frame", "circular_cone", "two_rotation_r5",
                                  "tangent_developable_product", "tilted_rotation"])
def test_sectional_curvature_equals_the_gram_schmidt_plane(name):
    # plane (0, 1) of the sigma_t-first Gram-Schmidt basis is span(sigma_t, X_1)
    p = tilted_rotation_patch() if name == "tilted_rotation" else small_patch(name, 40)
    for t in (float(p.grid.t_samples[3]), 0.37, 1.1):
        for u in ([0.3] * (p.m - 1), [-1.2] + [0.5] * (p.m - 2), [1.7] * (p.m - 1)):
            jac, vecs, regular = second_form_vectors(p.fc.grid_values(np.array([t])),
                                                      slice(None), np.array([u]), p.tol)
            assert regular[0, 0]
            want = gram_schmidt_plane_curvatures(jac[0, 0], vecs[0, 0], p.tol)[0]
            assert abs(sectional_curvature(p, t, u) - want) <= 1e-15 * max(1.0, abs(want))
