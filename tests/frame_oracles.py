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

`projector_tangents`, `beta_dot_locus_residuals` and
`beta_dot_augmented_vanish` are the ambient forms that the coordinates of
the frame QR (`GridValues.coordinates`) replaced: the striction sheet's
tangents from the (N, dim, dim) projector off the frame span, and the
sheet wedges and augmented wedges read from the sheet's t-partial
beta_dot rather than from sigma_t at the sheet point.
"""

from __future__ import annotations

import numpy as np

from ruledkit.multilinear import (DEFAULT_TOLERANCES, RANK_BOUND_MARGIN, TolerancePolicy,
                                  pair_wedge_norms, rank_mask, settled, wedge_norms)
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


def projector_tangents(sheet) -> np.ndarray:
    """(N, d, m-d) t-derivatives of the sheet's solved nodes from the
    derivative of its system A N = B, A Ndot = -(rhodot_tail E1^T +
    rho_tail E2^T), in ambient coordinates: rho = Xdot P for the projector
    P = comp comp^T and rhodot = Xddot P - Xdot Pidot, where
    Pidot = P Xdot^T R^-1 q^T plus its transpose is the derivative of the
    span's projector q q^T."""
    v, lo = sheet.values, sheet.free_count
    r, q, comp, _ = v.frame_basis()
    x1, x2 = v.frame(1), v.frame(2)
    proj = comp @ comp.swapaxes(1, 2)
    half = proj @ x1.swapaxes(1, 2) @ np.linalg.solve(r, q.swapaxes(1, 2))
    rho = (x1 @ proj)[:, lo:]
    rho_dot = (x2 @ proj - x1 @ (half + half.swapaxes(1, 2)))[:, lo:]
    nodes = sheet.solution_nodes.swapaxes(1, 2)  # (N, 1 + lo, d)
    e1 = np.concatenate([v.directrix(1)[:, None], x1[:, :lo]], axis=1) + nodes @ x1[:, lo:]
    e2 = np.concatenate([v.directrix(2)[:, None], x2[:, :lo]], axis=1) + nodes @ x2[:, lo:]
    a = rho @ x1[:, lo:].swapaxes(1, 2)
    return -np.linalg.solve(a, rho_dot @ e1.swapaxes(1, 2) + rho @ e2.swapaxes(1, 2))


def beta_dot_locus_residuals(sheet) -> np.ndarray:
    """(N, P) sheet wedges |beta_dot ^ X_1 ^ ... ^ X_{m-1}| =
    |det R| |beta_dot comp| from the sheet's t-partials beta_dot."""
    _, _, comp, volume = sheet.values.frame_basis()
    return volume[:, None] * np.linalg.norm(sheet.grid_partials[:, :, 0] @ comp, axis=-1)


def beta_dot_augmented_vanish(sheet, tol: TolerancePolicy) -> np.ndarray:
    """(N, P, m-1) verdicts |Xdot_j ^ beta_dot ^ X_1 ^ ... ^ X_{m-1}| <
    zero_abs_tol from the sheet's t-partials beta_dot: |det R| |a_j ^ b|
    with a_j = Xdot_j comp and b = beta_dot comp, settled against the
    cutoff by the relative margin `RANK_BOUND_MARGIN` plus the slack
    `WEDGE_SLACK_PER_VECTOR` k eps |A|_F^k, and the rest by the SVD's
    `wedge_norms`."""
    v = sheet.values
    x0, x1, beta_dot = v.frame(0), v.frame(1), sheet.grid_partials[:, :, 0]
    _, _, comp, volume = v.frame_basis()
    wedges = volume[:, None, None] * pair_wedge_norms((x1 @ comp)[:, None],
                                                      (beta_dot @ comp)[:, :, None])
    k = x0.shape[1] + 2
    frob2 = (np.sum(x1 * x1, axis=2)[:, None] + np.sum(beta_dot * beta_dot, axis=2)[..., None]
             + np.sum(x0 * x0, axis=(1, 2))[:, None, None])
    slack = WEDGE_SLACK_PER_VECTOR * k * np.finfo(float).eps * frob2 ** (0.5 * k)
    above, decided = settled(wedges, tol.zero_abs_tol, RANK_BOUND_MARGIN, slack)
    vanish = ~above
    if not decided.all():
        i, pos, j = np.nonzero(~decided)
        stack = np.empty((i.size, k, x0.shape[2]))
        stack[:, 0], stack[:, 1], stack[:, 2:] = x1[i, j], beta_dot[i, pos], x0[i]
        vanish[~decided] = wedge_norms(stack) < tol.zero_abs_tol
    return vanish
