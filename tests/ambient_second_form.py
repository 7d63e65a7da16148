"""The second-form kernels the scan replaced, kept as references.

`second_form_vectors` and `normal_ranks` are the per-point kernel the
second-form scan ran before it decided its dimensions ruling by ruling
(`ruledgeom._normal_dims`): an m x m reduced Jacobian and an m x
(dim-m+1) matrix of second-form vectors in coordinates of the normal
space at every grid point, and the rank rule on each matrix, in closed
form for a normal space of dimension 2 (`rank2_ranks`). `reference_scan`
gives its (regular, dims) over a patch's grid.

`ambient_second_form_vectors` builds the same objects in R^dim, the way
the kernel did before that: the m x dim Jacobian with its batched SVD,
and the second-form vectors projected off the tangent space. Tests
compare the two, and the pointwise II vectors of
`second_form_along_directrix` are checked against the ambient tangent
space.

`svd_regularity` and `svd_normal_ranks` keep the scan's rank verdicts as
it took them before its closed-form bounds: `rank_mask` of the batched
SVD of every reduced Jacobian (m >= 3) and of every matrix of
second-form vectors with more than two columns. `reduced_pieces` turns a
stack of reduced Jacobian matrices into the pieces the program's
kernels read (`ruledgeom.ReducedJacobians`).

`svd_regular_pairs` and `svd_tangent_space_stability` keep the stability
sweep's two verdicts as they were taken before the closed forms of the
reduced Jacobians: from one stacked SVD of the ambient Jacobians of every
pair point.

`gram_schmidt_tangent_coeffs` and `gram_schmidt_plane_curvatures` keep
the curvature kernel that the flatness check ran before its closed form:
the Gauss equation on every coordinate plane of the tangent basis that
Gram-Schmidt orthonormalizes from the Jacobian rows, sigma_t first. Its
plane (0, 1) is the plane of sigma_t and X_1 that
`ruledgeom.sectional_curvature` reads, and for m = 2 the tangent plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ruledkit.errors import RegularityError, ValidationError
from ruledkit.multilinear import (TolerancePolicy, gram_schmidt_rows, numerical_rank,
                                  numerical_ranks, rank2_ranks, rank_mask)
from ruledkit.parametric import GridValues
from ruledkit.ruledgeom import (ReducedJacobians, RuledPatch, _as_u, _inverse_factors, _jacobians,
                                _reduced_jacobians, _reduced_singular_values, _regularity,
                                jacobians_at)
from ruledkit.selftest import PAIR_CONDITION_LIMIT


def reduced_pieces(jac: np.ndarray, r_inv: np.ndarray | None = None) -> ReducedJacobians:
    """The pieces (a, b, R, R^-1, a R^-T) of a (..., m, m) stack of reduced
    Jacobian matrices [[a, b], [R^T, 0]], with R^-1 from
    `_inverse_factors` unless given."""
    k = jac.shape[-1] - 1
    r = jac[..., 1:, :k].swapaxes(-1, -2)
    r_inv = _inverse_factors(r) if r_inv is None else r_inv
    a = jac[..., 0, :k]
    return ReducedJacobians(a, jac[..., 0, k], r, r_inv,
                            (a[..., None, :] @ r_inv.swapaxes(-1, -2))[..., 0, :])


def reduced_singular_values(jac: np.ndarray) -> np.ndarray:
    """Descending singular values of a (..., m, m) stack of reduced
    Jacobians: the program's closed form for m = 2, the batched SVD for
    larger m."""
    if jac.shape[-1] == 2:
        return _reduced_singular_values(reduced_pieces(jac))
    return np.linalg.svd(jac, compute_uv=False)


def second_form_vectors(v: GridValues, rows: slice, u: np.ndarray, tol: TolerancePolicy):
    """Reduced Jacobians, second-form vectors and regularity, stacked over
    the N parameters `rows` of `v` times P ruling positions u (P, m-1), in
    coordinates adapted to the ruled structure.

    Returns (jac, vecs, regular) of shapes (N, P, m, m),
    (N, P, m, dim-m+1) and (N, P). The reduced Jacobians come from the
    derivatives' coordinates in the grid's one complete QR of the frame per
    parameter (`GridValues.coordinates`, `_reduced_jacobians`). The rows of
    vecs are sigma_tt and Xdot_j in comp coordinates less their component along
    the unit normal n = c / |c|. All mixed partials d2(sigma)/du_i du_j
    vanish, so these rows span the image of the second fundamental form; they are
    meaningful only where `regular` holds. The Gauss equation reads only
    inner products of the rows of jac and of vecs, which the change of
    basis keeps.
    """
    r = v.frame_basis()[0][rows]
    coords = [a[rows] for a in v.coordinates(1)]
    pieces, c = _reduced_jacobians(r, coords, u)
    regular = _regularity(pieces, tol)
    jac = pieces.matrices(np.ones(regular.shape, dtype=bool)).reshape(
        regular.shape + (r.shape[-1] + 1,) * 2)
    length = pieces.b
    normal = c / np.where(length > 0.0, length, 1.0)[..., None]
    vecs = np.empty(c.shape[:2] + (jac.shape[-1], c.shape[-1]))
    _, _, g2_c, x2_c = v.coordinates(2)
    vecs[:, :, 0] = g2_c[rows] + u @ x2_c[rows]
    vecs[:, :, 1:] = coords[3][:, None]
    vecs -= (vecs @ normal[..., None]) * normal[..., None, :]
    return jac, vecs, regular


def normal_ranks(vecs: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """First normal space dimension from (..., m, dim-m+1) second-form
    vectors of `second_form_vectors`: the numerical rank of each matrix.

    The rows lie in the dim-m dimensional space orthogonal to n. When that
    is a line (or a point), the rank is 0 or 1 and the largest singular
    value is the Frobenius norm F, so the rank rule reduces to that norm
    against zero_abs_tol. When it is a plane (dim - m = 2), the rank is at
    most 2 and `rank2_ranks` reads s1 and s2 in closed form, leaving only
    the matrices next to a cutoff to the batched SVD. Wider normal spaces
    go through the batched SVD.
    """
    if vecs.shape[-1] <= 2:
        return (np.linalg.norm(vecs, axis=(-2, -1)) >= tol.zero_abs_tol).astype(int)
    if vecs.shape[-1] > 3:
        return numerical_ranks(vecs, tol)
    return rank2_ranks(vecs, tol)


def reference_scan(p: RuledPatch):
    """(regular, dims) over the whole grid of `p` from the per-point kernel,
    dims -1 where the patch is singular."""
    _, vecs, regular = second_form_vectors(p.values, slice(None), p.grid.u_points(p.m - 1), p.tol)
    return regular, np.where(regular, normal_ranks(vecs, p.tol), -1)


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
    return rank_mask(reduced_singular_values(jac), tol).all(axis=-1)


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
    jac, vecs, _ = second_form_vectors(p.values, slice(None), p.grid.u_points(p.m - 1), p.tol)
    regular = svd_regularity(jac, p.tol)
    return regular, np.where(regular, svd_normal_ranks(vecs, p.tol), -1)


def svd_pair_margins(jac: np.ndarray) -> np.ndarray:
    """Smallest over largest singular value of each (m, dim) Jacobian of a
    stack, 0 where the largest is 0, from one stacked SVD."""
    s = np.linalg.svd(jac, compute_uv=False)
    lead = s[..., 0]
    return np.divide(s[..., -1], lead, out=np.zeros_like(lead), where=lead > 0)


def svd_regular_pairs(p: RuledPatch, t: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Mask of the (P, 2, m-1) candidate pairs whose two Jacobians at
    their t, (P,), both have a smallest over largest singular value of at
    least 1 / PAIR_CONDITION_LIMIT, from one stacked SVD."""
    margins = svd_pair_margins(jacobians_at(p, np.repeat(t, 2),
                                            candidates.reshape(-1, p.m - 1)))
    return ~(margins.reshape(-1, 2).min(axis=1) < 1.0 / PAIR_CONDITION_LIMIT)


def svd_span_verdicts(jac: np.ndarray, tol: TolerancePolicy):
    """(regular, worst) of (P, 2, m, dim) pairs of ambient Jacobians:
    `rank_mask` of each one's singular values, (P, 2), and the largest
    residual of either orthonormal tangent basis off the other's span,
    (P,), all from one stacked SVD."""
    _, s, vt = np.linalg.svd(jac.reshape((-1,) + jac.shape[2:]), full_matrices=False)
    regular = rank_mask(s, tol).all(axis=-1).reshape(-1, 2)
    # regular Jacobians have m independent rows: vt is a basis of their span
    qa, qb = vt[0::2], vt[1::2]
    cross = qa @ qb.swapaxes(1, 2)
    worst = np.maximum(np.linalg.norm(qa - cross @ qb, axis=-1).max(axis=-1),
                       np.linalg.norm(qb - cross.swapaxes(1, 2) @ qa, axis=-1).max(axis=-1))
    return regular, worst


def svd_tangent_space_stability(p: RuledPatch, t, u_pairs) -> bool:
    """`ruledgeom.tangent_space_stability` with every Jacobian, rank and
    span comparison from one stacked SVD of the ambient Jacobians."""
    u = np.asarray(u_pairs, dtype=float)
    if u.size == 0:
        return True
    if u.shape[1:] != (2, p.m - 1):
        raise ValidationError(f"expected pairs of {p.m - 1} ruling coordinates, "
                              f"got shape {u.shape}")
    if np.ndim(t) and np.shape(t) != u.shape[:1]:
        raise ValidationError(f"expected one t or one per pair ({u.shape[0]}), "
                              f"got shape {np.shape(t)}")
    pair_t = np.broadcast_to(np.asarray(t, dtype=float), u.shape[:1])
    point_t = t if np.ndim(t) == 0 else np.repeat(pair_t, 2)
    jac = jacobians_at(p, point_t, u.reshape(-1, p.m - 1))
    regular, worst = svd_span_verdicts(jac.reshape((-1, 2) + jac.shape[1:]), p.tol)
    stop = ~regular.all(axis=1) | ~(worst < p.tol.rank_rel_tol)
    if not stop.any():
        return True
    i = int(np.argmax(stop))
    for name, ok in zip(("first", "second"), regular[i]):
        if not ok:
            raise RegularityError(f"{name} comparison point is singular at t={float(pair_t[i])}")
    return False


def gram_schmidt_tangent_coeffs(jac: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """Gram-Schmidt on the Jacobian rows of a (..., m, dim) stack
    (`multilinear.gram_schmidt_rows`): the lower triangular change of basis
    S with S @ jac orthonormal, per stack entry. Raises where a row's
    length off the span of the rows before it is below zero_abs_tol."""
    _, s, lengths = gram_schmidt_rows(jac)
    if np.any(lengths < tol.zero_abs_tol):
        raise RegularityError("tangent basis is degenerate")
    return s


def gram_schmidt_plane_curvatures(jac: np.ndarray, vecs: np.ndarray,
                                  tol: TolerancePolicy) -> np.ndarray:
    """Sectional curvature of every coordinate 2-plane (a, b), a < b, of the
    basis of `gram_schmidt_tangent_coeffs`, from the Gauss equation;
    (..., pairs) in (0, 1), (0, 2), ..., (m-2, m-1) order.

    In the basis e_a = S_a0 d_t + sum_j S_aj d_u_j, and with
    II(d_u_i, d_u_j) = 0 on a ruled patch, II(e_a, e_b) = alpha_a alpha_b v_0
    + alpha_a w_b + alpha_b w_a, where alpha = S[:, 0], v_j are the rows of
    vecs and w = S[:, 1:] @ v[1:]. The Gauss equation then reduces to
    K_ab = -|alpha_a w_b - alpha_b w_a|^2: sigma_tt (v_0) drops out.
    """
    s = gram_schmidt_tangent_coeffs(jac, tol)
    alpha = s[..., :, 0, None]
    w = s[..., :, 1:] @ vecs[..., 1:, :]
    a, b = np.triu_indices(jac.shape[-2], 1)
    cross = alpha[..., a, :] * w[..., b, :] - alpha[..., b, :] * w[..., a, :]
    return -np.einsum("...k,...k->...", cross, cross)


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
