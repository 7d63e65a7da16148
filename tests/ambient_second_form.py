"""The second-form kernel in ambient coordinates, kept as a reference.

`ruledgeom._second_form_vectors` works in coordinates adapted to the
ruled structure: an m x m reduced Jacobian and the second-form vectors
in coordinates of the normal space. The functions here build the same
objects in R^dim, the way the kernel did before: the m x dim Jacobian
with its batched SVD, and the second-form vectors projected off the
tangent space. Tests compare the two, and the pointwise II vectors of
`second_form_along_directrix` are checked against the ambient tangent
space.

`svd_regularity` and `svd_normal_ranks` keep the scan's rank verdicts as
it took them before its closed-form bounds: `rank_mask` of the batched
SVD of every reduced Jacobian (m >= 3) and of every matrix of
second-form vectors with more than two columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ruledkit.errors import RegularityError
from ruledkit.multilinear import TolerancePolicy, numerical_rank, numerical_ranks, rank_mask
from ruledkit.parametric import GridValues
from ruledkit.ruledgeom import (RuledPatch, _as_u, _jacobians, _reduced_singular_values,
                                _second_form_vectors)


def ambient_second_form_vectors(v: GridValues, rows: slice, u: np.ndarray,
                                tol: TolerancePolicy):
    """Jacobians, normal parts of sigma_tt and Xdot_j, and regularity,
    stacked over the N parameters `rows` of `v` times P ruling positions
    u (P, m-1).

    Returns (jac, vecs, regular) of shapes (N, P, m, dim), (N, P, m, dim)
    and (N, P). The tangent space at a regular point is the frame span
    plus the unit part of sigma_t off that span.
    """
    x0, x1, g1 = v.frame(0)[rows], v.frame(1)[rows], v.directrix(1)[rows]
    jac = _jacobians(x0, x1, g1, u)
    regular = rank_mask(np.linalg.svd(jac, compute_uv=False), tol).all(axis=-1)
    q = np.linalg.qr(x0.swapaxes(1, 2))[0]  # (N, dim, m-1): orthonormal frame basis

    def off_frame(w):
        return w - (w @ q) @ q.swapaxes(1, 2)

    normal = off_frame(g1[:, None]) + u @ off_frame(x1)  # (N, P, dim)
    length = np.linalg.norm(normal, axis=-1, keepdims=True)
    normal /= np.where(length > 0.0, length, 1.0)
    raw = np.empty_like(jac)
    raw[:, :, 0] = v.directrix(2)[rows][:, None, :] + u @ v.frame(2)[rows]
    raw[:, :, 1:] = x1[:, None]
    vecs = (raw - (raw @ q[:, None]) @ q[:, None].swapaxes(-1, -2)
            - (raw @ normal[..., None]) * normal[..., None, :])
    return jac, vecs, regular


def ambient_scan(p: RuledPatch):
    """(jac, vecs, regular, dims) over the whole grid of `p`, dims -1
    where the patch is singular."""
    jac, vecs, regular = ambient_second_form_vectors(p.values, slice(None),
                                                     p.grid.u_points(p.m - 1), p.tol)
    return jac, vecs, regular, np.where(regular, numerical_ranks(vecs, p.tol), -1)


def svd_regularity(jac: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """Regularity of a (..., m, m) stack of reduced Jacobians: `rank_mask`
    of their singular values, in closed form for m = 2 and from the
    batched SVD for larger m."""
    return rank_mask(_reduced_singular_values(jac), tol).all(axis=-1)


def svd_normal_ranks(vecs: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """Numerical rank of each (m, dim-m+1) matrix of second-form vectors:
    the Frobenius norm against zero_abs_tol for a normal space of
    dimension 1 or 0 (at most two columns), the batched SVD otherwise."""
    if vecs.shape[-1] <= 2:
        return (np.linalg.norm(vecs, axis=(-2, -1)) >= tol.zero_abs_tol).astype(int)
    return numerical_ranks(vecs, tol)


def svd_scan_verdicts(p: RuledPatch):
    """(regular, dims) over the whole grid of `p` from the SVD verdicts
    on the reduced kernel's Jacobians and second-form vectors, dims -1
    where the patch is singular."""
    jac, vecs, _ = _second_form_vectors(p.values, slice(None), p.grid.u_points(p.m - 1), p.tol)
    regular = svd_regularity(jac, p.tol)
    return regular, np.where(regular, svd_normal_ranks(vecs, p.tol), -1)


@dataclass(frozen=True, eq=False)
class PointwiseSecondForm:
    """Second fundamental form vectors II(x0, x_i) at one patch point."""

    t: float
    u: np.ndarray
    II_vectors: np.ndarray  # (m, dim): entries for x0 paired with x0, x1, ..., x_{m-1}
    first_normal_dim: int


def second_form_along_directrix(p: RuledPatch, t: float, u) -> PointwiseSecondForm:
    """Second form vectors II(x0, .) at a regular point, in ambient coordinates."""
    u = _as_u(p, u)
    _, vecs, regular = ambient_second_form_vectors(p.fc.grid_values(np.array([float(t)])),
                                                   slice(None), u[None], p.tol)
    if not regular[0, 0]:
        raise RegularityError(f"patch is singular at (t={t}, u={u.tolist()})")
    return PointwiseSecondForm(t=float(t), u=u, II_vectors=vecs[0, 0],
                               first_normal_dim=numerical_rank(vecs[0, 0], p.tol))
