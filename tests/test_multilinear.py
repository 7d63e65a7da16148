import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frame_oracles import gram_schmidt_r, project_off_spans
from ruledkit import TolerancePolicy, ValidationError
from ruledkit.multilinear import _upper_pairs, as_vector_list, numerical_rank, wedge_norm
from ruledkit.striction import WEDGE_SLACK_PER_VECTOR

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def project(v, basis):
    """`project_off_spans`, the SVD oracle of the degree profile's
    projection, on a stack of one: v (dim,) off the span of the rows of
    basis (k, dim), k = 0 included."""
    v = np.asarray(v, dtype=float)
    basis = np.asarray(basis, dtype=float).reshape(1, len(basis), v.size)
    return project_off_spans(basis, v[None, None])[0, 0]


def test_wedge_orthonormal_is_one():
    assert wedge_norm([E1, E2]) == pytest.approx(1.0, abs=1e-14)


def test_wedge_parallel_is_zero():
    assert wedge_norm([E1, 2.0 * E1]) == pytest.approx(0.0, abs=1e-14)


def test_wedge_general_pair():
    # det [[2,1],[1,1]] = 1
    assert wedge_norm([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]) == pytest.approx(1.0, rel=1e-12)


def test_wedge_too_many_vectors_errors():
    with pytest.raises(ValidationError):
        wedge_norm([E1, E2, E1 + E2, E1 - E2])


def test_rank_empty_and_dependent():
    assert numerical_rank([], dim=3) == 0
    assert numerical_rank([E1, E2, E1 + E2]) == 2


def test_rank_near_dependency_cases():
    tol = TolerancePolicy(rank_rel_tol=1e-8)
    nearly_orthogonal = [E1, E2 + 1e-12 * E1]
    nearly_parallel = [E1, E1 + 1e-12 * E2]
    # oracle: direct singular value inspection
    s_orth = np.linalg.svd(np.vstack(nearly_orthogonal), compute_uv=False)
    s_par = np.linalg.svd(np.vstack(nearly_parallel), compute_uv=False)
    assert s_orth[1] / s_orth[0] > 1e-8
    assert s_par[1] / s_par[0] < 1e-8
    assert numerical_rank(nearly_orthogonal, tol) == 2
    assert numerical_rank(nearly_parallel, tol) == 1


def test_project_onto_self_vanishes():
    assert np.allclose(project(E1, [E1]), 0.0, atol=1e-14)


def test_project_orthogonal_direction_unchanged():
    assert np.allclose(project(E1, [E2]), E1, atol=1e-14)


def test_project_axis():
    out = project([1.0, 1.0, 0.0], [[1.0, 0.0, 0.0]])
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-14)


def test_project_empty_basis_identity():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(project(v, []), v)


# --- property tests -------------------------------------------------------

def vector_lists(max_dim=6):
    return st.integers(2, max_dim).flatmap(
        lambda dim: st.integers(1, dim).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(-5, 5), min_size=dim, max_size=dim),
                min_size=k, max_size=k)))


@settings(max_examples=150, deadline=None)
@given(vector_lists())
# a zero row: the wedge is a rounding-level 2.4e-16, the determinant 0
@example([[0, -2, -1], [0, 0, 0], [1, 5, 4]])
def test_wedge_squared_equals_gram_det(rows):
    mat = np.asarray(rows, dtype=float)
    w = wedge_norm(mat)
    det = np.linalg.det(mat @ mat.T)
    # relative to the Hadamard bound, the natural scale of the determinant
    # (plain relative comparison is ill-posed when both sides are ~0)
    hadamard = float(np.prod(np.linalg.norm(mat, axis=1) ** 2))
    scale = max(abs(det), w * w, hadamard, 1e-30)
    # plus the square of the wedge's rounding floor c k eps |A|_F^k, which a
    # product of singular values keeps when the vectors are dependent
    k = mat.shape[0]
    floor = WEDGE_SLACK_PER_VECTOR * k * np.finfo(float).eps * np.linalg.norm(mat) ** k
    assert abs(w * w - det) <= 1e-10 * scale + floor ** 2


@settings(max_examples=150, deadline=None)
@given(vector_lists(), st.randoms(use_true_random=False))
def test_rank_invariant_under_permutation_and_scaling(rows, rnd):
    # the rank rule compares singular values with a fixed fraction of the
    # largest one, so it is invariant under a row permutation and under one
    # uniform factor; scaling rows independently is not covered (below)
    mat = np.asarray(rows, dtype=float)
    base = numerical_rank(mat)
    perm = list(range(mat.shape[0]))
    rnd.shuffle(perm)
    factor = 2.0 ** rnd.randint(-10, 10)
    assert numerical_rank(mat[perm] * factor) == base


def test_row_scaling_can_change_numerical_rank():
    # full-rank integer matrix (determinant 6) whose smallest singular value
    # falls under the relative cutoff once its rows are scaled independently
    mat = np.array([[0, -4, 1, -5, 5, 1], [1, 3, -2, -3, 3, -5],
                    [-2, 1, 0, 2, -1, -4], [-2, 3, -5, 2, 3, -1],
                    [-4, 2, -3, -1, 3, -5], [-5, -3, -2, -3, 4, 4]], dtype=float)
    scales = 2.0 ** np.array([7, 3, 0, -5, -4, -10])
    assert round(np.linalg.det(mat)) == 6
    assert numerical_rank(mat) == 6
    assert numerical_rank(mat * scales[:, None]) == 5


@settings(max_examples=150, deadline=None)
@given(vector_lists())
def test_projection_idempotent(rows):
    mat = np.asarray(rows, dtype=float)
    v = mat[0] + 0.25
    once = project(v, mat[1:])
    twice = project(once, mat[1:])
    assert np.abs(twice - once).max() <= 1e-10


@settings(max_examples=100, deadline=None)
@given(vector_lists())
def test_projection_output_orthogonal_to_basis(rows):
    mat = np.asarray(rows, dtype=float)
    v = np.ones(mat.shape[1])
    out = project(v, mat)
    scale = max(1.0, float(np.linalg.norm(v)))
    assert np.abs(mat @ out).max() <= 1e-8 * scale * max(
        1.0, float(np.abs(mat).max()))


def test_as_vector_list_rejects_empty_mismatched_and_nan():
    with pytest.raises(ValidationError):
        as_vector_list([])
    with pytest.raises(ValidationError):
        as_vector_list([[1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValidationError):
        as_vector_list([[np.nan, 0.0]])


def test_as_vector_list_fast_path_checks_finiteness():
    bad = np.array([[1.0, np.inf]])
    with pytest.raises(ValidationError):
        as_vector_list(bad)


def test_tolerance_policy_validation():
    with pytest.raises(ValidationError):
        TolerancePolicy(rank_rel_tol=2.0)
    with pytest.raises(ValidationError):
        TolerancePolicy(zero_abs_tol=0.0)
    with pytest.raises(ValidationError):
        TolerancePolicy(derivative_check_tol=-1e-9)


@pytest.mark.parametrize("k, dim", [(1, 3), (2, 3), (3, 5)])
def test_gram_schmidt_r_factors_the_rows(k, dim):
    stack = np.random.default_rng(k).normal(size=(6, k, dim))
    stack[0, -1] = -2.0 * stack[0, 0]  # the last row depends on the first
    r = gram_schmidt_r(stack)
    assert np.array_equal(r, np.triu(r))
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert (diag >= 0.0).all()
    # R^T R is the Gram matrix of the rows, and R^-T @ stack is orthonormal
    assert np.abs(r.swapaxes(1, 2) @ r - stack @ stack.swapaxes(1, 2)).max() < 1e-12
    q = np.linalg.solve(r[1:].swapaxes(1, 2), stack[1:])
    assert np.abs(q @ q.swapaxes(1, 2) - np.eye(k)).max() < 1e-12
    if k > 1:
        assert diag[0, -1] < 1e-12


@pytest.mark.parametrize("n", range(7))
def test_upper_pairs_are_the_cached_triu_indices(n):
    i, j = _upper_pairs(n)
    expected = np.triu_indices(n, 1)
    np.testing.assert_array_equal(i, expected[0])
    np.testing.assert_array_equal(j, expected[1])
    assert i.dtype == expected[0].dtype
    assert _upper_pairs(n)[0] is i
    with pytest.raises(ValueError):
        i[...] = 0
