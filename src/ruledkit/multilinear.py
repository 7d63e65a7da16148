"""Dense linear/exterior-algebra kernels for small ambient dimensions.

Vectors are plain 1-D numpy arrays; ordered collections of vectors are
stacked into (k, dim) matrices, and many collections of one shape into
(..., k, dim) stacks. Wedge products are never materialized: every use
in this package is a dependence test or a volume, so the Gram
determinant (equivalently the product of singular values) is enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

Vector = np.ndarray


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical cutoffs used throughout the pipeline.

    rank_rel_tol: relative singular-value cutoff for rank decisions.
    zero_abs_tol: absolute cutoff for wedge norms and residuals.
    derivative_check_tol: allowed disagreement between analytic
        derivatives and finite differences, also used for unit-speed
        and frame-orthonormality validation.
    """

    rank_rel_tol: float = 1e-8
    zero_abs_tol: float = 1e-8
    derivative_check_tol: float = 1e-7

    def __post_init__(self):
        for name in ("rank_rel_tol", "zero_abs_tol", "derivative_check_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ValidationError(f"{name} must be strictly positive, got {value}")
        if self.rank_rel_tol >= 1.0:
            raise ValidationError("rank_rel_tol must be < 1")


DEFAULT_TOLERANCES = TolerancePolicy()


def as_vector(v, dim: int | None = None) -> Vector:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("vector has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise ValidationError(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


def as_vector_list(vectors: Iterable, dim: int | None = None) -> np.ndarray:
    """Stack vectors into a (k, dim) matrix, enforcing consistent dims.

    An empty input is allowed only when `dim` is given (the result is a
    (0, dim) matrix).
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2 \
            and vectors.dtype == np.float64:
        if not np.all(np.isfinite(vectors)):
            raise ValidationError("vectors have non-finite entries")
        if dim is not None and vectors.shape[1] != dim:
            raise ValidationError(f"expected dimension {dim}, got {vectors.shape[1]}")
        return vectors
    rows = [as_vector(v) for v in vectors]
    if not rows:
        if dim is None:
            raise ValidationError("empty vector list with unknown dimension")
        return np.zeros((0, dim))
    width = rows[0].shape[0]
    for r in rows:
        if r.shape[0] != width:
            raise ValidationError("vectors have mismatched dimensions")
    if dim is not None and width != dim:
        raise ValidationError(f"expected dimension {dim}, got {width}")
    return np.vstack(rows)


def gram_matrix(vectors: Sequence) -> np.ndarray:
    """Matrix of pairwise Euclidean inner products.

    The result is symmetrized exactly; it is positive semidefinite up
    to roundoff.
    """
    mat = as_vector_list(vectors)
    if mat.shape[0] == 0:
        raise ValidationError("gram_matrix requires at least one vector")
    g = mat @ mat.T
    return 0.5 * (g + g.T)


def wedge_norm(vectors: Sequence, dim: int | None = None) -> float:
    """Norm of the wedge product of the vectors.

    Equals sqrt(det(gram_matrix(vectors))), computed as the product of
    singular values for numerical stability. Zero exactly when the
    vectors are linearly dependent. The empty wedge has norm 1.
    """
    mat = as_vector_list(vectors, dim)
    if mat.shape[0] > mat.shape[1]:
        raise ValidationError(
            f"wedge of {mat.shape[0]} vectors in dimension {mat.shape[1]} "
            "is identically zero; callers must not rely on this"
        )
    if mat.shape[0] == 0:
        return 1.0
    return float(wedge_norms(mat[None])[0])


def wedge_norms(stack: np.ndarray) -> np.ndarray:
    """Wedge norm of each (k, dim) matrix of a (..., k, dim) stack, k <= dim."""
    return np.prod(np.linalg.svd(stack, compute_uv=False), axis=-1)


def numerical_rank(vectors: Sequence, tol: TolerancePolicy = DEFAULT_TOLERANCES,
                   dim: int | None = None) -> int:
    """Rank of the span, via singular values with a relative cutoff.

    Singular values above rank_rel_tol times the largest one are
    counted; if the largest is below zero_abs_tol the rank is 0.
    """
    mat = as_vector_list(vectors, dim)
    if mat.shape[0] == 0:
        return 0
    return int(numerical_ranks(mat[None], tol)[0])


def rank_mask(s: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Which singular values of (..., r) descending stacks count toward the rank.

    A value counts when it exceeds rank_rel_tol times the largest one,
    and none counts when the largest is below zero_abs_tol. This is the
    one rank rule of the package: numerical ranks, truncated spans,
    degrees and regularity all apply it.
    """
    lead = s[..., :1]
    return (s > tol.rank_rel_tol * lead) & (lead >= tol.zero_abs_tol)


def numerical_ranks(stack: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCES
                    ) -> np.ndarray:
    """`numerical_rank` of each matrix of a (..., k, dim) stack, as ints."""
    return np.count_nonzero(rank_mask(np.linalg.svd(stack, compute_uv=False), tol),
                            axis=-1)


def gram_schmidt_r(stack: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the rows of each (k, dim) matrix of a (..., k, dim)
    stack, k <= dim, as the (..., k, k) upper triangular R of the QR
    factorization of its transpose, with nonnegative diagonal.

    Row i is sum_a R[a, i] q_a over the orthonormalized rows q_a, a <= i,
    so R^-T @ stack is orthonormal; R[i, i] is the length of row i off
    the span of the rows before it, 0 when they are dependent.
    """
    r = np.linalg.qr(stack.swapaxes(-1, -2), mode="r")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return r * np.where(diag == 0, 1.0, np.sign(diag))[..., None]


def orthonormal_span(vectors: Sequence, tol: TolerancePolicy = DEFAULT_TOLERANCES,
                     dim: int | None = None) -> np.ndarray:
    """Orthonormal basis (rows) of the span, rank-truncated by `tol`."""
    mat = as_vector_list(vectors, dim)
    if mat.shape[0] == 0:
        return mat
    _, s, vt = np.linalg.svd(mat, full_matrices=False)
    return vt[rank_mask(s, tol)]


def project_orthogonal(v, basis: Sequence, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> Vector:
    """Component of `v` orthogonal to span(basis).

    The basis need not be orthonormal or independent; an empty basis
    returns `v` unchanged. Idempotent.
    """
    vec = as_vector(v)
    mat = as_vector_list(basis, dim=vec.shape[0])
    if mat.shape[0] == 0:
        return vec.copy()
    return project_off_spans(mat[None], vec[None, None], tol)[0, 0]


def project_off_spans(basis: np.ndarray, v: np.ndarray,
                      tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Rows of each (..., j, dim) matrix of `v` minus their projection onto
    the row span of the matching (..., k, dim) matrix of `basis`, the
    span rank-truncated as in `orthonormal_span`."""
    _, s, vt = np.linalg.svd(basis, full_matrices=False)
    q = vt * rank_mask(s, tol)[..., None]
    return v - (v @ q.swapaxes(-1, -2)) @ q


def spans_equal(a: Sequence, b: Sequence, tol: TolerancePolicy = DEFAULT_TOLERANCES,
                residual_tol: float | None = None) -> bool:
    """True when the two vector collections span the same subspace.

    Checked by mutual projection: every basis direction of one span
    must leave no residual when projected off the other.
    """
    if residual_tol is None:
        residual_tol = tol.zero_abs_tol
    qa = orthonormal_span(a, tol)
    qb = orthonormal_span(b, tol)
    if qa.shape[0] != qb.shape[0]:
        return False
    if qa.shape[0] == 0:
        return True
    res_ab = qa - (qa @ qb.T) @ qb
    res_ba = qb - (qb @ qa.T) @ qa
    worst = max(np.linalg.norm(res_ab, axis=1).max(), np.linalg.norm(res_ba, axis=1).max())
    return bool(worst < residual_tol)
