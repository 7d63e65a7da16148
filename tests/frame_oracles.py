"""The SVD kernels that the grid's one frame QR replaced, kept as oracles.

`project_off_spans` is the degree profile's projection as it was taken
before `GridValues.frame_basis`: the rows of v less their projection onto
the row span of the frame, from the right singular vectors that
`rank_mask` counts. `rank_one_wedges` and `sheet_wedges` are the stacks
whose wedge norms (`multilinear.wedge_norms`, a product of singular
values) the rank-one check and the singular locus wrote before their
closed forms, and `wedge_slack` is the rounding slack
`WEDGE_SLACK_PER_VECTOR` k eps |A|_F^k within which the closed forms must
equal those norms. `gram_schmidt_r` is the stacked Householder QR factor
that the row-by-row Gram-Schmidt kernels of the orthonormalized frame
and of the Gram-Schmidt curvature reference
(`ambient_second_form.gram_schmidt_tangent_coeffs`) replaced.
"""

from __future__ import annotations

import numpy as np

from ruledkit.multilinear import DEFAULT_TOLERANCES, TolerancePolicy, rank_mask
from ruledkit.parametric import GridValues
from ruledkit.striction import WEDGE_SLACK_PER_VECTOR


def project_off_spans(basis: np.ndarray, v: np.ndarray,
                      tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Rows of each (..., j, dim) matrix of `v` minus their projection onto
    the row span of the matching (..., k, dim) matrix of `basis`; the
    span keeps the right singular vectors that `rank_mask` counts."""
    _, s, vt = np.linalg.svd(basis, full_matrices=False)
    q = vt * rank_mask(s, tol)[..., None]
    return v - (v @ q.swapaxes(-1, -2)) @ q


def rank_one_wedges(v: GridValues) -> np.ndarray:
    """(N, m-1, m+1, dim) stacks [Xdot_j, gamma', X_1..X_{m-1}] per (t, j)."""
    x0, x1 = v.frame(0), v.frame(1)
    n, k, dim = x0.shape
    wedges = np.empty((n, k, k + 2, dim))
    wedges[:, :, 0] = x1
    wedges[:, :, 1] = v.directrix(1)[:, None]
    wedges[:, :, 2:] = x0[:, None]
    return wedges


def sheet_wedges(sheet) -> np.ndarray:
    """(N, P, m, dim) stacks [beta_dot, X_1, ..., X_{m-1}] at every grid
    parameter and free grid position of a striction sheet."""
    beta_dot = sheet.grid_partials[:, :, 0]
    wedges = np.empty(beta_dot.shape[:2] + (sheet.fc.m, sheet.fc.dim))
    wedges[:, :, 0] = beta_dot
    wedges[:, :, 1:] = sheet.values.frame(0)[:, None]
    return wedges


def wedge_slack(stack: np.ndarray) -> np.ndarray:
    """`WEDGE_SLACK_PER_VECTOR` k eps |A|_F^k of each (k, dim) matrix A of a
    (..., k, dim) stack."""
    k = stack.shape[-2]
    frob2 = np.sum(stack * stack, axis=(-2, -1))
    return WEDGE_SLACK_PER_VECTOR * k * np.finfo(float).eps * frob2 ** (0.5 * k)


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
