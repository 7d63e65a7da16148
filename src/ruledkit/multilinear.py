"""Dense linear/exterior-algebra kernels for small ambient dimensions.

Vectors are plain 1-D numpy arrays; ordered collections of vectors are
stacked into (k, dim) matrices, and many collections of one shape into
(..., k, dim) stacks. Wedge products are never materialized: every use
in this package is a dependence test or a volume, so the Gram
determinant (equivalently the product of singular values) is enough, and
for two vectors the norm of their 2 x 2 minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
                raise ValidationError(f"{name} must be finite and strictly positive, got {value}")
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


def wedge_norm(vectors: Sequence, dim: int | None = None) -> float:
    """Norm of the wedge product of the vectors.

    Equals sqrt(det(V V^T)) for the matrix V of the vectors as rows,
    computed as the product of singular values for numerical stability.
    For k linearly dependent vectors it is zero up to rounding, at most
    about k eps |V|_F^k (`striction.WEDGE_SLACK_PER_VECTOR` bounds the
    constant), not exactly zero. The empty wedge has norm 1.
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


#: relative rounding margin of the closed-form rank verdicts: a closed form
#: settles a verdict only when it clears the cutoff by this factor. LAPACK's
#: singular values are exact for a matrix within a few eps * s1 of the
#: input, so at a cutoff s_i = ratio * s1 their relative error is a few
#: eps / ratio, about 1e-7 at the default rank_rel_tol of 1e-8; the closed
#: forms' rounding is smaller. `_ratio_margin` raises the margin to
#: 32 eps / ratio for smaller ratios.
RANK_BOUND_MARGIN = 1e-6


def _ratio_margin(ratio: float) -> float:
    """The rounding margin of a verdict s_i > ratio * s1."""
    return max(RANK_BOUND_MARGIN, 32.0 * np.finfo(float).eps / ratio)


def _rank_margin(tol: TolerancePolicy) -> float:
    """The rounding margin of the rank cutoff s_i > rank_rel_tol * s1."""
    return _ratio_margin(tol.rank_rel_tol)


def settled(value: np.ndarray, cutoff, delta: float, slack=0.0):
    """(above, decided): whether value > cutoff, decided only where value
    clears the cutoff by the relative margin delta plus an absolute slack,
    so that a value within that rounding of it gives the same verdict."""
    above = value * (1.0 - delta) - slack > cutoff
    return above, above | (value * (1.0 + delta) + slack < cutoff)


@cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, 1)`, the index pairs i < j, as read-only arrays
    built once per n."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _pair_wedge_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a ^ b|^2 of broadcast (..., n) vectors: the sum of the squared
    2 x 2 minors a_i b_j - a_j b_i, i < j (Lagrange's identity)."""
    i, j = _upper_pairs(a.shape[-1])
    minors = a[..., i] * b[..., j] - a[..., j] * b[..., i]
    return np.sum(minors * minors, axis=-1)


def pair_wedge_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a ^ b| of broadcast (..., n) vectors from their 2 x 2 minors. Each
    minor is a difference of two products with absolute error of order
    eps |a| |b|, so, unlike |a|^2 |b|^2 - (a . b)^2, the norm keeps that
    accuracy however small it is."""
    return np.sqrt(_pair_wedge_squares(a, b))


def rank2_singular_values(stack: np.ndarray):
    """(s1, s2), the two largest singular values of each matrix of a
    (..., k, n) stack of rank at most 2: k <= 2 rows, or rows known to lie
    in a plane.

    One row is its own norm, and s2 = 0. Otherwise s1 s2 is the norm of
    all 2 x 2 minors of the rows (Lagrange's identity), each a difference
    of products with absolute error of order eps s1^2, so s2 = s1 s2 / s1
    keeps an absolute accuracy of order eps s1 however small it is;
    s1 = (sqrt(F^2 + 2 s1 s2) + sqrt(F^2 - 2 s1 s2)) / 2, F the Frobenius
    norm, loses at most sqrt(eps) where s1 and s2 are close. Exactly zero
    rows give exact zeros, with no division by zero.
    """
    f2 = np.sum(stack * stack, axis=(-2, -1))
    if stack.shape[-2] == 1:
        return np.sqrt(f2), np.zeros_like(f2)
    i, j = _upper_pairs(stack.shape[-2])
    det = np.sqrt(np.sum(_pair_wedge_squares(stack[..., i, :], stack[..., j, :]), axis=-1))
    s1 = 0.5 * (np.sqrt(f2 + 2.0 * det) + np.sqrt(np.maximum(f2 - 2.0 * det, 0.0)))
    return s1, det / np.where(s1 > 0.0, s1, 1.0)


def rank2_ranks(stack: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """`numerical_ranks` of a (..., k, n) stack of rank at most 2 (see
    `rank2_singular_values`).

    The rank rule reads the closed-form s1 and s2 wherever they clear the
    cutoffs by the rounding margin (`_rank_margin`); only the matrices
    next to a cutoff go through the batched SVD.
    """
    s1, s2 = rank2_singular_values(stack)
    delta = _rank_margin(tol)
    lead, lead_ok = settled(s1, tol.zero_abs_tol, delta)
    second, second_ok = settled(s2, tol.rank_rel_tol * s1, delta)
    ranks = np.where(lead, 1 + second, 0)
    # a lead below the cutoff decides rank 0 whatever s2
    decided = lead_ok & (~lead | second_ok)
    if not decided.all():
        ranks[~decided] = numerical_ranks(stack[~decided], tol)
    return ranks


def gram_schmidt_rows(stack: np.ndarray) -> tuple:
    """Gram-Schmidt of the rows of each (k, dim) matrix of a (..., k, dim)
    stack, one row at a time over the whole stack, with no LAPACK call:
    the orthonormal rows E, the lower triangular change of basis C with
    E = C @ stack, and the length of each row off the span of the rows
    before it, (..., k). A zero length gives a zero row of E and C.

    Row i is projected off each earlier orthonormal row by its own
    coefficient against that row (classical Gram-Schmidt), accurate to a
    few eps times the square of the stack's condition number.
    """
    k = stack.shape[-2]
    basis = np.empty_like(stack)
    coeffs = np.zeros(stack.shape[:-2] + (k, k))
    lengths = np.empty(stack.shape[:-1])
    for i in range(k):
        w = stack[..., i, :].copy()
        c = coeffs[..., i, :]
        c[..., i] = 1.0
        for a in range(i):
            proj = np.einsum("...k,...k->...", basis[..., a, :], stack[..., i, :])[..., None]
            w -= proj * basis[..., a, :]
            c -= proj * coeffs[..., a, :]
        norm = np.sqrt(np.einsum("...k,...k->...", w, w))
        lengths[..., i] = norm
        scale = (1.0 / np.where(norm > 0.0, norm, np.inf))[..., None]
        basis[..., i, :] = w * scale
        c *= scale
    return basis, coeffs, lengths


def frame_qr(x: np.ndarray):
    """One complete QR of each frame of an (N, k, dim) stack, k <= dim,
    X^T = [q | comp] R: the (N, k, k) triangular factors R, the orthonormal
    bases q (N, dim, k) of the frame span and comp (N, dim, dim-k) of its
    complement, and the volumes |X_1 ^ ... ^ X_k| = |det R| (N,)."""
    k = x.shape[1]
    basis, r = np.linalg.qr(x.swapaxes(1, 2), mode="complete")
    volume = np.abs(np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1))
    return r[:, :k], basis[..., :k], basis[..., k:], volume
