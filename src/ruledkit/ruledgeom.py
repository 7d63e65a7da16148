"""Geometry of the swept patch sigma(t, u) = directrix + u . frame.

Evaluation, Jacobian and regularity, the second fundamental form along
the t-direction, first normal space dimensions, planar points, the
rank-one (developability) wedge test, tangent-space stability along
rulings, and sectional curvature from the Gauss equation.

Grid stages run on stacked arrays over all N x P grid points (t samples
times ruling samples). The second-form scan works in coordinates adapted
to the ruled structure: the derivatives in the bases of the frame span
and its complement from the grid's one frame QR (`GridValues.coordinates`).
Its regularity verdicts read the reduced Jacobians by their pieces
(`ReducedJacobians`): closed-form singular values for surfaces (m = 2),
and for m >= 3 Frobenius bounds that settle all but the points next to
the rank cutoff, whose m x m matrices alone are assembled for a stacked
SVD. Its first normal dimensions are decided ruling by ruling
(`_normal_dims`): one Gram-Schmidt factorization of
B = [g1 comp; Xdot comp] per t gives dims = rank B - 1 + [e(u) clears the
cutoff], e(u) the part of sigma_tt comp off B's row space, affine in u,
wherever bounds on the second-form vectors' singular values settle the
rank rule; only the points next to a cutoff go through the per-point
kernel (`_second_form_ranks`).
The tangent-space stability check reads the same reduced Jacobians, one
frame factorization and inversion per distinct t (at grid samples, the
rows of the grid's own values, frame basis and inverse factors), or the
caller's when it holds them, and compares two tangent spaces by the
angle between their normal directions off the frame span. Every
regularity verdict takes this one route, `GridValues.coordinates`,
`_reduced_jacobians`, `_regularity`: the scan's, the stability check's,
`sectional_curvature`'s on its own reduced Jacobian and the selftest
sweep's pair filter; the flatness check reads the scan's, and the
off-sheet certificate (`striction.offsheet_certificate`) bounds the
pieces of `_regularity`'s settle rules over a band off the sheet. Sectional
curvatures come from the Gauss equation in closed form, in the tangent
basis of the frame QR and the unit normal n off the frame span: II
vanishes on pairs of ruling directions, so sigma_tt drops out, the
planes of two ruling directions are flat and every other curvature is
minus a squared wedge norm, with no second pass over the grid. A patch
computes its frame values, basis and coordinates, degree profile and
second-form scan once, on first use; a patch derived from it is primed
from them. The single-point functions run the same kernels on a stack of
one (`_values_at`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .distribution import DegreeProfile, profile_from_values
from .errors import RegularityError, ValidationError
from .fields import AffineCombinationField
from .multilinear import (DEFAULT_TOLERANCES, RANK_BOUND_MARGIN, TolerancePolicy,
                          _pair_wedge_squares, _rank_margin, gram_schmidt_rows,
                          numerical_ranks, pair_wedge_norms, rank2_ranks, rank_mask,
                          settled)
from .parametric import FramedCurve, GridValues, SampleGrid


@dataclass(frozen=True, eq=False)
class RuledPatch:
    """A framed curve with its sampling grid and tolerance policy.

    The grid stages (`values`, `profile`, `scan`, `rank_one`) are
    computed on first use and kept; they are shared, so callers must not
    mutate them. A patch derived from another (`restrict`, `shift_directrix`,
    `distribution.pivot_frame`) is primed from the parent's stages, evaluating no field.
    """

    fc: FramedCurve
    grid: SampleGrid
    tol: TolerancePolicy = DEFAULT_TOLERANCES

    @property
    def m(self) -> int:
        return self.fc.m

    @property
    def dim(self) -> int:
        return self.fc.dim

    def restrict(self, lo: int, hi: int) -> "RuledPatch":
        """The patch over grid samples lo..hi-1 (end exclusive), sliced from this one."""
        if lo == 0 and hi == self.grid.t_samples.size:
            return self
        sub = RuledPatch(self.fc, self.grid.restrict(lo, hi), self.tol)
        # the scan first, so that the sliced values hold every order it read
        vars(sub).update((stage, getattr(self, stage).restrict(lo, hi))
                         for stage in ("scan", "profile", "values"))
        return sub

    def shift_directrix(self, c) -> "RuledPatch":
        """The patch swept from the shifted directrix t -> sigma(t, c) over
        the same grid, so that sigma'(t, u) = sigma(t, u + c).

        The frame is this patch's, so the new patch shares the grid's
        parameters, the frame values and the degree profile, which
        depend on the frame only; the shifted directrix is summed from the
        grid values (`GridValues.with_directrix`), with no evaluation.
        """
        fc = replace(self.fc, directrix=AffineCombinationField(
            self.fc.directrix, list(self.fc.frame), c))
        shifted = RuledPatch(fc, self.grid, self.tol)
        # prime the cached stages the shift leaves unchanged
        vars(shifted).update(values=self.values.with_directrix(fc), profile=self.profile)
        return shifted

    @cached_property
    def values(self) -> GridValues:
        return self.fc.grid_values(self.grid.parameters)

    @cached_property
    def profile(self) -> DegreeProfile:
        return profile_from_values(self.values, self.tol)

    @cached_property
    def scan(self) -> "SecondFormScan":
        return second_form_scan(self)

    @cached_property
    def rank_one(self) -> "RankOneResult":
        return rank_one_check(self)


def _as_u(p: RuledPatch, u) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (p.m - 1,):
        raise ValidationError(f"expected {p.m - 1} ruling coordinates, got shape {u.shape}")
    return u


def _jacobians(x0: np.ndarray, x1: np.ndarray, g1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(N, P, m, dim) Jacobians at N parameters times P ruling positions.

    x0, x1: (N, m-1, dim) frame values and derivatives; g1: (N, dim)
    directrix derivatives; u: (P, m-1) ruling coordinates shared by every
    parameter, or (N, P, m-1) coordinates of their own.
    """
    n, k, dim = x0.shape
    jac = np.empty((n, u.shape[-2], k + 1, dim))
    jac[:, :, 0] = g1[:, None, :] + u @ x1
    jac[:, :, 1:] = x0[:, None]
    return jac


def jacobian_sigma(p: RuledPatch, t: float, u) -> np.ndarray:
    """(m, dim) matrix of partials: d/dt first, then the ruling directions."""
    return jacobians_at(p, t, _as_u(p, u)[None])[0]


def _values_at(p: RuledPatch, t):
    """(values, rows) of the patch at t, a scalar or a 1-D array: rows of its
    grid values when every t is a grid sample, else one evaluation at t."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    grid = p.grid.t_samples
    at = np.minimum(np.searchsorted(grid, ts), grid.size - 1)
    if np.array_equal(grid[at], ts):
        return p.values, at
    return p.fc.grid_values(ts), slice(None)


def jacobians_at(p: RuledPatch, t, u: np.ndarray) -> np.ndarray:
    """(P, m, dim) Jacobians at P ruling positions u (P, m-1) and t, one
    parameter shared by all of them or an array of P, one per position,
    from the patch's values at t (`_values_at`)."""
    v, rows = _values_at(p, t)
    u = u if np.ndim(t) == 0 else u[:, None]
    return _jacobians(v.frame(0)[rows], v.frame(1)[rows], v.directrix(1)[rows],
                      u).reshape(-1, p.m, p.dim)


@dataclass(frozen=True, eq=False)
class ReducedJacobians:
    """The reduced Jacobians J = [[a, b], [R^T, 0]], b >= 0, of a stack of
    points (see `_reduced_jacobians`), held as their pieces: a = sigma_t . q,
    (..., m-1), b = |c|, (...), the frame's triangular factors R and their
    inverses R^-1 (`GridValues.inverse_factors`), (..., m-1, m-1) broadcast over the
    points of one parameter, and a R^-T, (..., m-1). The m x m matrices
    are assembled only for the points an SVD reads (`matrices`)."""

    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    r_inv: np.ndarray
    a_r: np.ndarray

    def matrices(self, mask: np.ndarray) -> np.ndarray:
        """The (K, m, m) matrices J at the K points of the boolean `mask`."""
        a = self.a[mask]
        k = a.shape[-1]
        jac = np.zeros(a.shape[:-1] + (k + 1, k + 1))
        jac[..., 0, :k] = a
        jac[..., 0, k] = self.b[mask]
        r = np.broadcast_to(self.r, self.a.shape[:-1] + (k, k))[mask]
        jac[..., 1:, :k] = r.swapaxes(-1, -2)
        return jac


def _reduced_singular_values(jac: ReducedJacobians) -> np.ndarray:
    """Descending singular values of the reduced Jacobians of a surface
    (m = 2), [[a, b], [r, 0]] with b >= 0.

    They follow from the determinant and the Frobenius norm F:
    s1 s2 = |det| = b |r|, and s1 +- s2 = sqrt(F^2 +- 2 |det|), where
    F^2 +- 2 |det| = a^2 + (b +- |r|)^2 is a sum of squares. So
    s1 = (hypot(a, b + |r|) + hypot(a, b - |r|)) / 2 has no cancellation,
    even where s1 and s2 are close, and s2 = |det| / s1, a product and a
    quotient, keeps its relative accuracy however small it is. Larger m
    goes through the batched SVD of `ReducedJacobians.matrices`, which
    `_regularity` calls only on the points its bounds leave undecided.
    """
    a, b, r = jac.a[..., 0], jac.b, np.abs(jac.r[..., 0, 0])
    s1 = 0.5 * (np.hypot(a, b + r) + np.hypot(a, b - r))
    return np.stack([s1, b * r / np.where(s1 > 0.0, s1, 1.0)], axis=-1)


def _frobenius_conditions(jac: ReducedJacobians):
    """(|J|_F, kappa_F b) of a stack of reduced Jacobians
    J = [[a, b], [R^T, 0]], b >= 0.

    J^-1 = [[0, R^-T], [1 / b, -a R^-T / b]], so the Frobenius condition
    number kappa_F = |J|_F |J^-1|_F needs no SVD, and it brackets the
    2-norm one: kappa_2 <= kappa_F <= m kappa_2. It is returned times b,
    kappa_F b = |J|_F sqrt(b^2 |R^-1|_F^2 + 1 + |a R^-T|^2), which needs
    no 1 / b: 0 < kappa_F b at b = 0 marks a singular J, and NaN a
    singular R. The norms of R and R^-1 are taken once per parameter.
    """
    b = jac.b
    norm = np.sqrt(np.sum(jac.a * jac.a, axis=-1) + b * b
                   + np.sum(jac.r * jac.r, axis=(-2, -1)))
    return norm, norm * np.sqrt(b * b * np.sum(jac.r_inv * jac.r_inv, axis=(-2, -1))
                                + 1.0 + np.sum(jac.a_r * jac.a_r, axis=-1))


def _regularity(jac: ReducedJacobians, tol: TolerancePolicy) -> np.ndarray:
    """The rank rule's full-rank verdict (`rank_mask` of all m singular
    values) on a stack of reduced Jacobians J = [[a, b], [R^T, 0]], b >= 0.

    For m = 2 the singular values have a closed form
    (`_reduced_singular_values`). For m >= 3 the Frobenius condition number
    kappa_F (`_frobenius_conditions`) brackets the 2-norm one,
    kappa_2 <= kappa_F <= m kappa_2, and |J|_F / sqrt(m) <= s1 <= |J|_F.
    A point is regular when kappa_F settles below 1 / rank_rel_tol and
    |J|_F above sqrt(m) zero_abs_tol, and singular when kappa_F settles
    above m / rank_rel_tol (b = 0 among them) or |J|_F below
    zero_abs_tol (`multilinear.settled`, with the rounding margin
    `_rank_margin`). Only the points in between, near the cutoff, and
    those whose R is singular, go through the batched SVD, of the m x m
    matrices assembled for them alone.
    """
    k = jac.a.shape[-1]
    if k == 1:
        return rank_mask(_reduced_singular_values(jac), tol).all(axis=-1)
    norm, kappa_b = _frobenius_conditions(jac)
    b = jac.b
    delta, rel, zero = _rank_margin(tol), tol.rank_rel_tol, tol.zero_abs_tol
    ill, ill_ok = settled(kappa_b, b / rel, delta)
    faint, faint_ok = settled(norm, zero, delta)
    regular = ill_ok & ~ill & settled(norm, np.sqrt(k + 1) * zero, delta)[0]
    singular = settled(kappa_b, (k + 1) / rel * b, delta)[0] | (faint_ok & ~faint)
    undecided = ~(regular | singular)
    if undecided.any():
        s = np.linalg.svd(jac.matrices(undecided), compute_uv=False)
        regular[undecided] = rank_mask(s, tol).all(axis=-1)
    return regular


def _reduced_jacobians(r: np.ndarray, r_inv: np.ndarray, coords, u: np.ndarray,
                       row=slice(None)):
    """Reduced Jacobians and sigma_t's complement coordinates from the
    frame QR's factors R, their inverses R^-1 (`GridValues.inverse_factors`)
    and the order-1 coordinates (g1 q, Xdot q, g1 comp, Xdot comp) of N
    parameters (`GridValues.coordinates`), at ruling positions u: (P, m-1)
    shared by the points' parameters, or (Q, P, m-1) of their own. `row`
    picks the parameter of each of the Q leading entries, all N by default.

    sigma_t has coordinates a = sigma_t . q and c = sigma_t . comp, so in
    the orthonormal basis (q, n) of the tangent space, n = c / |c|, the
    Jacobian is the m x m matrix [[a, |c|], [R^T, 0]], with the singular
    values of the m x dim one. The products with R^-1 are taken once per
    parameter: a R^-T = g1 q R^-T + u . (Xdot q R^-T). Returns
    (`ReducedJacobians`, c), c of shape (Q, P, dim-m+1).
    """
    g_q, x_q, g_c, x_c = coords
    a = g_q[row] + u @ x_q[row]
    c = g_c[row] + u @ x_c[row]
    if r.shape[-1] == 1:
        a_r = a * r_inv[row, None, 0]
    else:
        r_t = r_inv.swapaxes(-1, -2)
        a_r = (g_q @ r_t)[row] + u @ (x_q @ r_t)[row]
    return ReducedJacobians(a, np.linalg.norm(c, axis=-1), r[row, None], r_inv[row, None],
                            a_r), c


#: c / (dim + 1) for the slack c (dim + 1) eps times a point's scale that
#: covers the rounding of the second-form vectors, of their singular values
#: and of the scan's own bounds; see `_normal_dims`
SCAN_SLACK_PER_DIM = 64.0


def _normal_dims(first, second, u: np.ndarray, length: np.ndarray, tol: TolerancePolicy):
    """First normal space dimensions at N parameters times P ruling
    positions u (P, m-1), ruling by ruling, with no per-point matrix:
    (dims, undecided), both (N, P), from the order-1 and order-2
    coordinates (g q, X q, g comp, X comp) of the N parameters
    (`GridValues.coordinates`). `length` is |c| = |sigma_t comp|.

    The rank rule reads the singular values of the m x (dim-m+1) matrix
    V = [s P_n; Xdot comp P_n] at each point, s = sigma_tt comp =
    g2 comp + u . (Xddot comp) and P_n the projection off n = c / |c|
    (`_second_form_ranks`). Along one ruling only s and n move, and
    c = b_0 + u . b is a row combination of B = [g1 comp; Xdot comp] =
    [b_0; b]: [c; Xdot comp] = L B with the unimodular L = [[1, u], [0, I]].
    B is factored once per t (`multilinear.gram_schmidt_rows`), a row of
    length at most rank_rel_tol |B|_F off the rows before it counting as
    dependent: r orthonormal rows Q, their orthogonality defect w (the
    Gram matrix's off-diagonal entries), the dependent rows' lengths, which
    bound their distances from span Q (rho_0 for b_0, rho for the rows of
    b, root sums of squares), and the change of basis C, so that
    s_r(B) >= (1 - w) / |C|_F - |(rho_0, rho)| less rounding. The
    part of s off span Q is e(u) = e_0 + u . E_1. With B projected to
    span Q, V becomes V^ = [[alpha, |e|], [Y, 0]] in a basis of
    (span Q off n) + e, where Y = rows 1.. of (L B) P_n, and:

    - s_i(Y) >= s_{i+1}(L B) >= s_r(B) / |L^-1| for i < r (interlacing
      twice), |L^-1| = (|u| + sqrt(|u|^2 + 4)) / 2; call it lambda;
    - s_1 ... s_{r-1} of V^ are at least lambda, s_r(V^) lies in
      [|e| lambda / (lambda + |s| + |e|), |e|] (a left inverse of V^, and
      Weyl), and V^ has rank <= r; V^ = [e; 0] for r = 1;
    - |V^|_F <= U = sqrt(|s|^2 + |Xdot comp|_F^2), |s| bounded by
      |g2 comp| + |u| |Xddot comp|;
    - V moves from V^ by at most pi = U min(1, sin) + rho, where
      sin = (rho_0 + |u| rho) / |c| bounds the turn of n, plus a slack of
      `SCAN_SLACK_PER_DIM` (dim + 1) eps (|s| + |B| (1 + |u|) (1 + U / |c|))
      for the rounding of the kernel's vectors (its n turns by a few
      eps |B| (1 + |u|) / |c|) and singular values; |e| moves by 2 w |s|
      more.

    So dims = r - 1 + [e clears the cutoff]: zero_abs_tol against |e| when
    r = 1, rank_rel_tol s_1 otherwise; for dim - m + 1 <= 2 the rule reads
    the Frobenius norm against zero_abs_tol alone. Each comparison is
    `settled` with the rounding margin `_rank_margin`, and the points
    where one is not are `undecided`. e is not formed where every ruling's
    B has full rank dim - m + 1, which leaves no part of s off its span.
    """
    _, _, g1, x1 = first
    _, _, g2, x2 = second
    rows = np.concatenate([g1, x1], axis=1)
    m, width = rows.shape[-2:]
    eps = np.finfo(float).eps
    size = np.sqrt(np.einsum("nij,nij->n", rows, rows))
    floor = tol.rank_rel_tol * size
    basis, coeffs, lengths = gram_schmidt_rows(rows, floor)
    kept = lengths > floor[:, None]
    rank = np.count_nonzero(kept, axis=1)[:, None]
    # a dependent row's length bounds its distance from the span, and the
    # defect w bounds |Q Q^T - I|_F by the Gram matrix's off-diagonal entries
    off_span = np.where(kept, 0.0, lengths)
    residual = np.sqrt(np.einsum("ni,ni->n", off_span, off_span))[:, None]
    defect = sum(np.abs(np.einsum("nk,nk->n", basis[:, i], basis[:, j]))
                 for i in range(m) for j in range(i))
    defect = 2.0 * defect[:, None] + 4.0 * m * eps
    inverse = np.sqrt(np.einsum("nij,nij->n", coeffs, coeffs))[:, None]
    volume = np.maximum(1.0 - defect - 4.0 * m * eps * inverse * size[:, None], 0.0)
    spread = np.maximum(np.divide(volume, inverse, out=np.zeros_like(inverse),
                                  where=inverse > 0.0) - residual, 0.0)
    radius = np.linalg.norm(u, axis=-1)
    s = (np.sqrt(np.einsum("nij,nij->n", g2, g2))[:, None]
         + np.sqrt(np.einsum("nij,nij->n", x2, x2))[:, None] * radius)
    top = np.sqrt(s * s + np.einsum("nij,nij->n", x1, x1)[:, None])
    spare = SCAN_SLACK_PER_DIM * (m + width) * eps
    reach = spare * size[:, None] * (1.0 + radius)
    rest = np.sqrt(np.einsum("ni,ni->n", off_span[:, 1:], off_span[:, 1:]))[:, None]
    # the kernel's own c, and so its n, moves by a few eps |B| (1 + |u|) too
    turn = np.divide(off_span[:, :1] + rest * radius + reach, length,
                     out=np.ones_like(length), where=length > 0.0)
    pert = top * np.minimum(turn, 1.0) + rest + spare * s + reach
    miss = 2.0 * defect * s + spare * s + reach
    e_lo, e_hi = 0.0, miss
    if (rank < width).any():
        # e(u) = e_0 + u . E_1, sigma_tt comp off the span; 0 where B has full rank
        sigma = np.concatenate([g2, x2], axis=1)
        for a in range(m):
            sigma = sigma - (np.einsum("njw,nw->nj", sigma, basis[:, a])[..., None]
                             * basis[:, None, a])
        e = sigma[:, :1] + u @ sigma[:, 1:]
        e = np.sqrt(np.einsum("npw,npw->np", e, e))
        e_lo, e_hi = np.maximum(e - miss, 0.0), e + miss
    lam = spread / (0.5 * (radius + np.sqrt(radius * radius + 4.0)))

    delta = _rank_margin(tol)
    lower = np.maximum(e_lo, np.where(rank >= 2, lam, 0.0)) - pert
    upper = np.where(rank == 1, e_hi, top) + pert
    lead = settled(lower, tol.zero_abs_tol, delta)[0]
    faint = upper * (1.0 + delta) < tol.zero_abs_tol
    if width <= 2:
        return lead.astype(int), ~(lead | faint)

    rel = tol.rank_rel_tol
    low_e = e_lo * lam / (lam + s + e_hi + np.finfo(float).tiny)
    counts = (rank == 1) | settled(low_e - pert, rel * upper, delta)[0]
    drops = (rank >= 2) & ((e_hi + pert) * (1.0 + delta) < rel * lower)
    spans = (rank < 3) | settled(lam - pert, rel * upper, delta)[0]
    beyond = (rank >= min(m, width - 1)) | (pert * (1.0 + delta) < rel * lower)
    dims = np.where(lead, rank - 1 + counts, 0)
    return dims, ~(faint | (lead & spans & (counts | drops) & beyond))


def _second_form_ranks(v: GridValues, i: np.ndarray, u: np.ndarray, tol: TolerancePolicy):
    """The rank rule on the second-form vectors at K points, each at the
    parameter of index i (K,) of `v` and its ruling position u (K, m-1):
    the reference for the points `_normal_dims` leaves undecided, in one
    batched call.

    The rows of V are sigma_tt and Xdot_j in comp coordinates less their
    component along the unit normal n = c / |c|; all mixed partials
    d2(sigma)/du_i du_j vanish, so these rows span the image of the second
    fundamental form. The rows lie in the dim-m dimensional space
    orthogonal to n. When that is a line (or a point), the rank rule
    reduces to the Frobenius norm against zero_abs_tol; when it is a plane,
    `rank2_ranks` reads s1 and s2 in closed form and leaves only the
    matrices next to a cutoff to the batched SVD; wider normal spaces go
    through the batched SVD (`numerical_ranks`).
    """
    _, _, g1, x1 = v.coordinates(1)
    _, _, g2, x2 = v.coordinates(2)
    c = g1[i, 0] + (u[:, None] @ x1[i])[:, 0]
    length = np.linalg.norm(c, axis=-1)
    normal = c / np.where(length > 0.0, length, 1.0)[:, None]
    vecs = np.concatenate([g2[i] + u[:, None] @ x2[i], x1[i]], axis=1)
    vecs -= (vecs @ normal[:, :, None]) * normal[:, None, :]
    if vecs.shape[-1] <= 2:
        return (np.linalg.norm(vecs, axis=(-2, -1)) >= tol.zero_abs_tol).astype(int)
    return (rank2_ranks if vecs.shape[-1] == 3 else numerical_ranks)(vecs, tol)


#: grid points per block of the second-form scan; keeps its temporary
#: (N, P) arrays near 32 kB on any grid, below the size that the C
#: allocator maps afresh from the system, so that a scan of a large grid
#: does not grow the process's peak memory (3 MB more without the blocks
#: on the benchmark's R^5 scene at 800 samples)
SCAN_BLOCK_POINTS = 4096


@dataclass(frozen=True, eq=False)
class SecondFormScan:
    """First normal space dimension at every grid point (t sample x ruling sample)."""

    t: np.ndarray        # (N,)
    u: np.ndarray        # (P, m-1)
    regular: np.ndarray  # (N, P) bool
    dims: np.ndarray     # (N, P) first_normal_dim; -1 where the patch is singular

    @property
    def skipped(self) -> int:
        return int(np.count_nonzero(~self.regular))

    def entries(self, mask: np.ndarray | None = None) -> list[tuple[float, list[float], int]]:
        """(t, u, first_normal_dim) at regular points (and `mask`), t-major."""
        keep = self.regular if mask is None else self.regular & mask
        i, j = np.nonzero(keep)
        return list(zip(self.t[i].tolist(), self.u[j].tolist(), self.dims[i, j].tolist()))

    def planar(self) -> list[tuple[float, list[float]]]:
        """Regular grid points where the second fundamental form vanishes."""
        return [(t, u) for t, u, _ in self.entries(self.dims == 0)]

    def restrict(self, lo: int, hi: int) -> "SecondFormScan":
        return SecondFormScan(self.t[lo:hi], self.u, self.regular[lo:hi], self.dims[lo:hi])


def second_form_scan(p: RuledPatch) -> SecondFormScan:
    """first_normal_dim at every regular grid point, plus where it is singular.

    Regularity is the rank rule on the reduced Jacobians (`_regularity`).
    The dimensions are decided ruling by ruling (`_normal_dims`): one
    factorization of B = [g1 comp; Xdot comp] per t gives its rank r and
    the part e(u) of sigma_tt comp off its row space, affine in u, and
    dims = r - 1 + [e(u) clears the cutoff] wherever bounds on the
    second-form vectors' singular values settle the rank rule. Only the
    regular points they leave undecided, within a rounding margin of a
    cutoff, go through the reference kernel (`_second_form_ranks`), in one
    batched call. Pipeline stages read the patch's cached `p.scan` instead.
    """
    ts, u, v = p.grid.t_samples, p.grid.u_points(p.m - 1), p.values
    r, r_inv = v.frame_basis()[0], v.inverse_factors()
    first, second = v.coordinates(1), v.coordinates(2)
    regular = np.empty((ts.size, u.shape[0]), dtype=bool)
    dims = np.empty((ts.size, u.shape[0]), dtype=int)
    undecided = np.empty((ts.size, u.shape[0]), dtype=bool)
    step = max(1, SCAN_BLOCK_POINTS // u.shape[0])
    for lo in range(0, ts.size, step):
        rows = slice(lo, lo + step)
        block = [a[rows] for a in first]
        jac, _ = _reduced_jacobians(r[rows], r_inv[rows], block, u)
        regular[rows] = _regularity(jac, p.tol)
        dims[rows], undecided[rows] = _normal_dims(block, [a[rows] for a in second], u, jac.b,
                                                   p.tol)
    i, j = np.nonzero(undecided & regular)
    if i.size:
        dims[i, j] = _second_form_ranks(v, i, u[j], p.tol)
    return SecondFormScan(t=ts, u=u, regular=regular, dims=np.where(regular, dims, -1))


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """First-normal-space dimension versus the degree bounds over the grid."""

    d: int
    checked: int     # regular grid points
    violations: list  # (t, u, first_normal_dim) outside the bounds, t-major
    skipped_singular: int

    @property
    def ok(self) -> bool:
        return not self.violations


def first_normal_bounds_check(p: RuledPatch, d: int) -> BoundsReport:
    """Check d-1 <= first_normal_dim <= d+1 at every regular grid sample."""
    scan = p.scan
    outside = (scan.dims < d - 1) | (scan.dims > d + 1)
    return BoundsReport(d=d, checked=int(np.count_nonzero(scan.regular)),
                        violations=scan.entries(outside), skipped_singular=scan.skipped)


@dataclass(frozen=True, eq=False)
class RankOneResult:
    """Outcome of the developability wedge system plus the planar-point scan."""

    verdict: bool
    max_residual: float
    residual_table: list  # (t, max wedge norm over the frame derivatives)
    planar: list = field(default_factory=list)


def rank_one_check(p: RuledPatch) -> RankOneResult:
    """Developability test: every frame derivative must be wedged away by
    the tangent configuration, and no sampled point may be planar.

    The residual at t is max_j |Xdot_j ^ gamma' ^ X_1 ^ ... ^ X_{m-1}| =
    |det R| max_j |(Xdot_j comp) ^ (gamma' comp)| on the grid's frame QR
    X^T = [q | comp] R (`GridValues.coordinates`), within
    `striction.WEDGE_SLACK_PER_VECTOR` k eps |A|_F^k of the SVD's wedge
    norm of those k = m + 1 vectors A; it is 0 where k exceeds the ambient
    dimension (comp has one column). The planar points come from the
    patch's second-form scan.
    """
    v, ts = p.values, p.grid.t_samples
    _, _, g1_c, x1_c = v.coordinates(1)
    residuals = v.frame_basis()[3] * pair_wedge_norms(x1_c, g1_c).max(axis=1)
    worst = float(residuals.max())
    planar = p.scan.planar()
    verdict = worst < p.tol.zero_abs_tol and not planar
    return RankOneResult(verdict=verdict, max_residual=worst,
                         residual_table=np.stack([ts, residuals], axis=1).tolist(),
                         planar=planar)


def _pair_jacobians(p: RuledPatch, t: np.ndarray, u_pairs: np.ndarray):
    """Reduced Jacobians at (P, 2, m-1) pairs of ruling positions, each
    pair at its own parameter of the (P,) array t.

    The fields, the frame's QR, the coordinates in it and R^-1 are taken
    once per distinct t and shared by its pairs. When every distinct t
    is a grid sample, they are the rows of the patch's own values, frame
    basis and inverse factors, with no new evaluation, factorization or
    inversion; other t are evaluated. Returns (`ReducedJacobians`, c), of
    (P, 2) points and c of shape (P, 2, dim-m+1).
    """
    ts, row = np.unique(t, return_inverse=True)
    v, rows = _values_at(p, ts)
    return _reduced_jacobians(v.frame_basis()[0][rows], v.inverse_factors()[rows],
                              [a[rows] for a in v.coordinates(1)], u_pairs, row)


#: c / m for the slack c eps kappa_F that covers the SVD's rounding of a
#: tangent space in the stability check; see `_span_verdicts`
SPAN_SLACK_PER_DIM = 64.0


def _span_verdicts(jac: ReducedJacobians, c: np.ndarray, tol: TolerancePolicy):
    """Regularity and change of the tangent space over (P, 2) pairs of
    points at a shared parameter, from `_pair_jacobians`' (jac, c).

    Returns (regular, differ, undecided) of shapes (P, 2), (P,) and (P,):
    `differ` is meaningful where both points are regular and the pair
    is not `undecided`. Both tangent spaces contain the frame span, so
    they differ only by the angle theta between c_a and c_b, and
    sin theta = |c_a ^ c_b| / (|c_a| |c_b|), the wedge norm from the 2 x 2
    minors (Lagrange's identity), which does not cancel the way
    1 - cos^2 would. The SVD comparison of `_svd_span_residuals` reads a
    basis-dependent residual with sin theta / sqrt(m) <= worst <= sin theta
    (the squared residuals of an orthonormal basis sum to sin^2 theta),
    and its subspaces are exact for Jacobians within a few eps |J| of the
    input, so they move by about eps kappa_2 <= eps kappa_F (Wedin).
    Whether the two spaces are the same is a rank decision on numbers at
    most 1, so the cutoff is the relative rank_rel_tol, not the absolute
    zero_abs_tol: a pair is the same when sin theta settles below
    rank_rel_tol and differs when sin theta / sqrt(m) settles above it
    (`settled`), with the absolute slack `SPAN_SLACK_PER_DIM` m eps kappa_F
    (the larger kappa_F of the two points), generous against the few-eps
    factors of LAPACK's and the minors' rounding, and the relative margin
    `RANK_BOUND_MARGIN` for the rounding of sin theta itself, a few eps.
    The pairs in between are `undecided`.
    """
    m = jac.a.shape[-1] + 1
    regular = _regularity(jac, tol)
    _, kappa_b = _frobenius_conditions(jac)
    b = jac.b
    kappa = np.divide(kappa_b, b, out=np.full_like(b, np.inf), where=b > 0.0).max(axis=1)
    lengths = b[:, 0] * b[:, 1]
    sin = pair_wedge_norms(c[:, 0], c[:, 1]) / np.where(lengths > 0.0, lengths, 1.0)
    slack = SPAN_SLACK_PER_DIM * m * np.finfo(float).eps * kappa
    moved, decided = settled(sin, tol.rank_rel_tol, RANK_BOUND_MARGIN, slack)
    differ, _ = settled(sin / np.sqrt(m), tol.rank_rel_tol, RANK_BOUND_MARGIN, slack)
    return regular, differ, regular.all(axis=1) & ~((decided & ~moved) | differ)


def _svd_span_residuals(p: RuledPatch, t: np.ndarray, u_pairs: np.ndarray) -> np.ndarray:
    """Largest residual of either pair point's orthonormal tangent basis
    off the other's tangent space, from one stacked SVD of the ambient
    Jacobians of (P, 2, m-1) regular pairs at the (P,) parameters t."""
    _, _, vt = np.linalg.svd(jacobians_at(p, np.repeat(t, 2), u_pairs.reshape(-1, p.m - 1)),
                             full_matrices=False)
    qa, qb = vt[0::2], vt[1::2]
    cross = qa @ qb.swapaxes(1, 2)
    return np.maximum(np.linalg.norm(qa - cross @ qb, axis=-1).max(axis=-1),
                      np.linalg.norm(qb - cross.swapaxes(1, 2) @ qa, axis=-1).max(axis=-1))


def tangent_space_stability(p: RuledPatch, t, u_pairs, jacobians=None) -> bool:
    """True when the tangent space is the same subspace at the two ruling
    positions of each pair, both taken at the pair's parameter. Both
    points must be regular.

    t is one parameter shared by every pair or an array of P, one per
    pair of the (P, 2, m-1) `u_pairs`. The pairs are checked in order: a
    singular point raises, naming its own pair's t, unless an earlier
    pair already differed. Regularity is the second-form scan's
    (`_regularity`), and each pair's verdict comes from the angle between
    its two normal directions in complement coordinates
    (`_span_verdicts`), with one frame factorization per distinct t; only
    pairs within a rounding margin of the cutoff go through the SVD
    comparison of the ambient Jacobians (`_svd_span_residuals`). Both
    compare a number at most 1, sin theta or the SVD residual, with the
    relative rank_rel_tol: the spaces are the same when it is below.

    `jacobians` is the pairs' (`ReducedJacobians`, c) of `_pair_jacobians`
    when the caller holds them, as the selftest's sweep does from its
    candidate filter; the check builds them itself when it is None.
    """
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
    if jacobians is None:
        jacobians = _pair_jacobians(p, pair_t, u)
    regular, differ, undecided = _span_verdicts(*jacobians, p.tol)
    if undecided.any():
        differ[undecided] = ~(_svd_span_residuals(p, pair_t[undecided], u[undecided])
                              < p.tol.rank_rel_tol)
    stop = ~regular.all(axis=1) | differ
    if not stop.any():
        return True
    i = int(np.argmax(stop))
    for name, ok in zip(("first", "second"), regular[i]):
        if not ok:
            raise RegularityError(f"{name} comparison point is singular at t={float(pair_t[i])}")
    return False


@dataclass(frozen=True, eq=False)
class FlatnessResult:
    """Largest |sectional curvature| over the coordinate planes of the
    tangent basis (q, n) at the regular grid points."""

    max_abs: float
    checked: int
    skipped_singular: int

    def is_flat(self, curvature_tol: float = 1e-6) -> bool:
        return self.max_abs < curvature_tol


def _normal_plane_curvatures(y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """K(n, q_i) = -|Y_i ^ c|^2 / |c|^4 (see `flatness_check`) of a
    (..., m-1, dim-m+1) stack of rows Y = R^-T (Xdot comp) and a
    (..., dim-m+1) stack of sigma_t's complement coordinates c, (..., m-1),
    from the 2 x 2 minors (`_pair_wedge_squares`), which do not cancel."""
    c2 = np.sum(c * c, axis=-1)
    return -_pair_wedge_squares(y, c[..., None, :]) / (c2 * c2)[..., None]


def flatness_check(p: RuledPatch) -> FlatnessResult:
    """Sectional curvatures from the Gauss equation, in closed form, at the
    regular points of the patch's second-form scan.

    The tangent space has the orthonormal basis (q_1, ..., q_{m-1}, n) of
    the grid's frame QR X^T = [q | comp] R (`GridValues.coordinates`), where
    n = c / |c| and c = sigma_t comp. II vanishes on pairs of ruling
    directions, so K(q_i, q_l) = 0 and K(n, q_i) = -|II(n, q_i)|^2. As
    q = R^-T X and n = (d_t - a . q) / |c|, II(n, q_i) is the part off n
    of Y_i / |c|, with Y = R^-T (Xdot comp) taken once per parameter, so
    K(n, q_i) = -|Y_i ^ c|^2 / |c|^4 (`_normal_plane_curvatures`), and
    sigma_tt drops out. Where every K(n, q_i) vanishes, II is nonzero on
    (n, n) alone and every sectional curvature is 0, so these planes
    witness non-flatness completely.
    """
    scan = p.scan
    i, j = np.nonzero(scan.regular)
    _, _, c0, xdot = p.values.coordinates(1)
    y = p.values.inverse_factors().swapaxes(-1, -2) @ xdot
    c = c0[i, 0] + (scan.u[j, None] @ xdot[i])[:, 0]
    curv = _normal_plane_curvatures(y[i], c)
    return FlatnessResult(max_abs=float(-curv.min()) if curv.size else 0.0,
                          checked=int(i.size), skipped_singular=scan.skipped)


def sectional_curvature(p: RuledPatch, t: float, u) -> float:
    """Curvature of the tangent plane spanned by sigma_t and X_1 at a regular
    point, from the Gauss equation: II(X_1, X_1) = 0, so
    K = -|II(d_t, d_u1)|^2 / |sigma_t ^ X_1|^2. For m = 2 it is the full
    intrinsic curvature.

    In the frame QR's coordinates (`GridValues.coordinates`, `_reduced_jacobians`)
    sigma_t is (a, c) and X_1 = R_11 q_1, so |sigma_t ^ X_1|^2 is
    R_11^2 (|a_2..a_{m-1}|^2 + |c|^2), and II(d_t, d_u1), the part of
    Xdot_1 comp off n = c / |c|, has |II|^2 = |Xdot_1 comp ^ c|^2 / |c|^2.
    Regularity is the rank rule's (`_regularity`) on the same reduced
    Jacobian; a singular point raises.
    """
    u = _as_u(p, u)[None]
    v, rows = _values_at(p, t)
    r = v.frame_basis()[0][rows]
    coords = [a[rows] for a in v.coordinates(1)]
    jac, c = _reduced_jacobians(r, v.inverse_factors()[rows], coords, u)
    if not _regularity(jac, p.tol)[0, 0]:
        raise RegularityError(f"patch is singular at (t={t}, u={u[0].tolist()})")
    # sigma_t's row of the reduced Jacobian past a_1: a_2..a_{m-1}, then |c|
    length = jac.b[0, 0]
    rest = np.append(jac.a[0, 0, 1:], length)
    wedge = _pair_wedge_squares(coords[3][0, 0], c[0, 0])
    return float(-wedge / (length * length * r[0, 0, 0] ** 2 * (rest @ rest)))
