"""The striction sheet: the locus inside a ruled patch where the sweep
direction is orthogonal to every projected frame derivative.

For a patch of constant degree d (frame pivoted so the trailing d fields
carry the degree), the defining orthogonality conditions reduce to a d x d
linear system whose matrix depends on t only and whose right-hand side is
affine in the free ruling coordinates. One factorization per t therefore
solves the sheet for all ruling positions at once. All singular points of
the patch sit on this sheet, which the locus scan verifies sample-wise.

The grid stages run on stacked arrays, once per patch: the systems of all
samples are assembled, checked and Cholesky-solved as (N, d, d) stacks,
and the sheet is the solved nodes plus their exact t-derivatives, by
implicit differentiation of the system. Every grid stage reads the nodes
(the locus scan, the equivalent-condition check and the CSV through one
cached array of the ruling coordinates at the grid, `StrictionSheet.grid_u`),
the sheet Jacobian ranks also the tangents; `solved` solves the system
at its own t, and only `beta` and `beta_partials`, which the invariance
fit calls, interpolate. The tangents, the sheet wedges of the locus scan
(the CSV's residuals) and the augmented wedges of the equivalent-condition
check are closed forms in the derivatives' coordinates in the grid's one
frame QR (`GridValues.coordinates`), the wedges on sigma_t at the sheet
point. Those verdicts and
the sheet Jacobian ranks read closed forms, and the off-sheet regularity
reads the scan's reduced Jacobians and rank rule
(`ruledgeom.jacobian_regularity`); the SVD settles just the ones within a
rounding margin of a cutoff.
The stage results stay arrays until a report or file converts them,
once, with `tolist()`.

The directrix-invariance check, one call per segment over its pivot runs,
re-solves the sheet of each shifted directrix on the patch's own grid,
since the solved coordinates do not change under reparametrization; the
shifted patch shares the frame values and degree profile, so no arclength
map is built, and the system matrices, which do not read the directrix,
are factorized once per run for all offsets. The distance of each
re-solved node to the analyzed sheet comes from a per-point Gauss-Newton
fit over the sheet's parameters (`least_squares`), one call per run.

Every stage is deterministic except `offsheet_check`, the randomized
regularity spot check just off the sheet; it alone takes a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .distribution import profile_from_values, rho_at
from .errors import DegeneracyError, NumericError, ValidationError
from .exports import float_texts
from .fields import CubicHermite, as_parameter_array
from .multilinear import (DEFAULT_TOLERANCES, RANK_BOUND_MARGIN, TolerancePolicy,
                          numerical_ranks, pair_wedge_norms, rank2_ranks, settled, wedge_norms)
from .parametric import FramedCurve, GridValues, SampleGrid
from .ruledgeom import RuledPatch, _inverse_factors, jacobian_regularity
from .splitmix import SplitMix64


@dataclass(frozen=True, eq=False)
class StrictionSystem:
    """Per-parameter linear system A u_solved = b for the sheet coordinates.

    A is the Gram matrix of the trailing projected frame derivatives
    (symmetric, positive definite under the degree assumption); b is
    stored in affine form over (1, free ruling coordinates).
    """

    t: float
    A: np.ndarray         # (d, d)
    b_affine: np.ndarray  # (d, m-d): column 0 constant, then free-u coefficients


def _check_degree(fc: FramedCurve, d: int):
    k = fc.m - 1
    if not (1 <= d <= k):
        raise ValidationError(f"degree d={d} out of range 1..{k}")


def _matrices(values: GridValues, rho: np.ndarray, d: int) -> np.ndarray:
    """The matrices A of the striction systems at every parameter of
    `values`, (N, d, d): entry (h, c) pairs the derivative of trailing
    field c with the projected derivative of trailing field h. They read
    the frame and the degree profile only, not the directrix."""
    lo = values.fc.m - 1 - d
    return rho[:, lo:] @ values.frame(1)[:, lo:].swapaxes(1, 2)


def _right_hand_sides(values: GridValues, rho: np.ndarray, d: int) -> np.ndarray:
    """The affine right-hand sides of the striction systems at every
    parameter of `values`, (N, d, m-d): the directrix and leading-field
    terms with a sign flip."""
    lo = values.fc.m - 1 - d
    xdot = values.frame(1)
    rhs = np.concatenate([values.directrix(1)[:, None, :], xdot[:, :lo]], axis=1)
    return -(rho[:, lo:] @ rhs.swapaxes(1, 2))


def _assemble(values: GridValues, rho: np.ndarray, d: int, tol: TolerancePolicy):
    """Striction systems at every parameter of `values`, as (N, d, d) and
    (N, d, m-d) stacks (`_matrices`, `_right_hand_sides`), with the
    smallest eigenvalue of each matrix (N,); raises at the first
    degenerate one."""
    a, b = _matrices(values, rho, d), _right_hand_sides(values, rho, d)
    eigmin = np.linalg.eigvalsh(0.5 * (a + a.swapaxes(1, 2))).min(axis=1)
    degenerate = np.flatnonzero(eigmin < tol.zero_abs_tol)
    if degenerate.size:
        i = int(degenerate[0])
        raise DegeneracyError(
            f"striction system degenerate at t={values.ts[i]}: "
            f"smallest eigenvalue {eigmin[i]:.3e}")
    return a, b, eigmin


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solves A N = b of a stack from the Cholesky factors of A."""
    return np.linalg.solve(chol.swapaxes(1, 2), np.linalg.solve(chol, b))


def _solve(values: GridValues, rho: np.ndarray, d: int, tol: TolerancePolicy):
    """The striction systems at the parameters of `values` (`_assemble`)
    and their Cholesky solves, the solved coefficients (N, d, m-d):
    (a, b, eigmin, coefficients)."""
    a, b, eigmin = _assemble(values, rho, d, tol)
    return a, b, eigmin, _cholesky_solve(np.linalg.cholesky(a), b)


def _defining_residual(a: np.ndarray, b: np.ndarray, nodes: np.ndarray,
                       tol: TolerancePolicy) -> float:
    """The largest solve residual at u_free = 0, |A s - b|; raises where it
    exceeds `zero_abs_tol` or is NaN."""
    max_def = float(np.abs(a @ nodes[..., :1] - b[..., :1]).max())
    if not max_def <= tol.zero_abs_tol:  # NaN included
        raise NumericError(
            f"striction sheet violates its defining property: residual {max_def:.3e}")
    return max_def


def striction_systems(p: RuledPatch, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The striction systems at every grid sample of the pivoted patch `p`,
    as (N, d, d) matrices and (N, d, m-d) affine right-hand sides, from
    its cached frame values and degree profile."""
    _check_degree(p.fc, d)
    return _assemble(p.values, p.profile.rho, d, p.tol)[:2]


def assemble_system(fc: FramedCurve, t: float, d: int,
                    tol: TolerancePolicy = DEFAULT_TOLERANCES) -> StrictionSystem:
    """Build the striction system at t from the pivoted frame."""
    _check_degree(fc, d)
    values = fc.grid_values(np.array([float(t)]))
    a, b, _ = _assemble(values, profile_from_values(values, tol).rho, d, tol)
    return StrictionSystem(t=float(t), A=a[0], b_affine=b[0])


@dataclass(eq=False)
class StrictionSheet:
    """The solve of the striction system on the grid of `values`.

    The solved trailing coordinates are affine in the free ruling
    coordinates with t-dependent weights, so one (d, m-d) matrix per grid
    node holds the whole sheet there. The grid readers (`grid_solved`,
    `grid_points`, `grid_partials`) read these nodes, their exact
    t-derivatives (`solution_tangents`) and the grid values. `solved`
    solves the system at its own t, under `tol`; `beta` and
    `beta_partials` read the cubic Hermite interpolant of the nodes and
    tangents, built on the first such read.
    """

    d: int
    grid: SampleGrid
    values: GridValues
    solution_nodes: np.ndarray       # (N, d, m-d)
    max_defining_residual: float
    fallback_ts: list = field(default_factory=list)
    tol: TolerancePolicy = DEFAULT_TOLERANCES

    @property
    def fc(self) -> FramedCurve:
        return self.values.fc

    @property
    def free_count(self) -> int:
        return self.fc.m - 1 - self.d

    @cached_property
    def solution_tangents(self) -> np.ndarray:
        """(N, d, m-d) t-derivatives of `solution_nodes` at fixed free
        coordinates, from the derivative of the system A N = B:
        A Ndot = Bdot - Adot N = -(rhodot_tail E1^T + rho_tail E2^T), the
        rows of E1 and E2 being sigma_t and sigma_tt on the sheet at each
        affine basis vector (1, u_free). In the coordinates of the frame QR
        X^T = [q | comp] R (`GridValues.coordinates`), C_o = X^(o) comp,
        Q1 = Xdot q and E1q, E1c, E2c, rho = C1 comp^T and
        d(comp comp^T)/dt = -(comp C1^T R^-1 q^T + its transpose), so with
        Y = R^-T C1 and t marking the trailing rows, A = C1_t C1_t^T and
        A Ndot = -[(C2_t - Q1_t Y) E1c^T + C1_t (E2c^T - Y^T E1q^T)]."""
        v, lo = self.values, self.free_count
        g1_q, x1_q, g1_c, x1_c = v.coordinates(1)
        _, _, g2_c, x2_c = v.coordinates(2)
        nodes = self.solution_nodes.swapaxes(1, 2)  # (N, 1 + lo, d)
        # [g; X_lead] + N^T X_tail, (N, 1 + lo, .)
        e1_q, e1_c, e2_c = (np.concatenate([g, x[:, :lo]], axis=1) + nodes @ x[:, lo:]
                            for g, x in ((g1_q, x1_q), (g1_c, x1_c), (g2_c, x2_c)))
        y = _inverse_factors(v.frame_basis()[0]).swapaxes(1, 2) @ x1_c
        c1 = x1_c[:, lo:]
        rhs = ((x2_c[:, lo:] - x1_q[:, lo:] @ y) @ e1_c.swapaxes(1, 2)
               + c1 @ (e2_c.swapaxes(1, 2) - y.swapaxes(1, 2) @ e1_q.swapaxes(1, 2)))
        return -np.linalg.solve(c1 @ c1.swapaxes(1, 2), rhs)

    @cached_property
    def _interpolant(self) -> CubicHermite:
        return CubicHermite(self.grid.t_samples, self.solution_nodes, self.solution_tangents)

    def _affine(self, u_free) -> np.ndarray:
        """(1, u_free) for one free position (free,), or one row per
        position of an (M, free) array."""
        u_free = np.asarray(u_free, dtype=float)
        if u_free.ndim == 0:
            u_free = u_free[None]
        if u_free.ndim > 2 or u_free.shape[-1] != self.free_count:
            raise ValidationError(
                f"expected {self.free_count} free coordinates, got {u_free.shape}")
        return np.concatenate([np.ones(u_free.shape[:-1] + (1,)), u_free], axis=-1)

    def _full_u(self, coeff: np.ndarray, u_free) -> np.ndarray:
        """All ruling coordinates of the sheet, free ones first, from the
        solved coefficients `coeff` at one parameter (d, m-d) or N (N, d, m-d)
        and u_free one free position (free,) or one per parameter (N, free)."""
        affine = self._affine(u_free)
        solved = (coeff @ affine[..., None])[..., 0]
        if affine.ndim < solved.ndim:  # one free position for every parameter
            affine = np.broadcast_to(affine, solved.shape[:-1] + affine.shape)
        return np.concatenate([affine[..., 1:], solved], axis=-1)

    def solved(self, t, u_free=(), values: GridValues | None = None) -> np.ndarray:
        """Trailing (solved) ruling coordinates of the sheet at (t, u_free),
        by the solve of the striction system on one evaluation of the curve
        at t, or the caller's, `values`: (d,) for a scalar t, (N, d) for an
        array (u_free as in `_full_u`)."""
        if values is None:
            values = self.fc.grid_values(np.atleast_1d(np.asarray(t, dtype=float)))
        rho = profile_from_values(values, self.tol).rho
        out = self._full_u(_solve(values, rho, self.d, self.tol)[3], u_free)
        return out[..., self.free_count:] if np.ndim(t) else out[0, self.free_count:]

    def grid_solved(self, u_free=()) -> np.ndarray:
        """`solved` at every grid parameter, from the nodes."""
        return self._full_u(self.solution_nodes, u_free)[..., self.free_count:]

    @cached_property
    def grid_u(self) -> np.ndarray:
        """All ruling coordinates of the sheet at every grid parameter and free
        grid position, (N, P, m-1), free ones first: the locus' and CSV's points."""
        u_free = self.grid.u_points(self.free_count)
        s = self._affine(u_free) @ self.solution_nodes.swapaxes(1, 2)  # (N, P, d)
        return np.concatenate([np.broadcast_to(u_free, s.shape[:2] + u_free.shape[1:]), s], -1)

    def _points(self, coeff: np.ndarray, x0: np.ndarray, g0: np.ndarray, u_free) -> np.ndarray:
        """Sheet points from the solved coefficients, frame values x0 and
        directrix values g0 at the same parameters."""
        u = self._full_u(coeff, u_free)
        return g0 + (u[..., None, :] @ x0)[..., 0, :]

    def beta(self, t, u_free=()) -> np.ndarray:
        """Point of the sheet in ambient coordinates: (dim,) for a scalar t,
        (N, dim) for an array (u_free as in `_full_u`)."""
        # the frame and the directrix share one inversion of any parameter map
        at = as_parameter_array(t)
        return self._points(self._interpolant(t), self.fc.frame_values(at),
                            self.fc.directrix_values(at, 0), u_free)

    def grid_points(self, u_free) -> np.ndarray:
        """`beta` at every grid parameter, (N, dim), from the nodes."""
        v = self.values
        return self._points(self.solution_nodes, v.frame(0), v.directrix(0), u_free)

    def _partials(self, values: GridValues, u_free: np.ndarray, coeff: np.ndarray,
                  coeff_dot: np.ndarray) -> np.ndarray:
        """(N, P, m-d, dim) sheet Jacobians at the N parameters of `values`
        times P free positions, from the solved coefficients there and their
        t-derivatives: the t-partial at fixed free coordinates, then the free
        partials. u_free: (P, m-1-d) positions shared by every parameter, or
        (N, P, m-1-d) positions of their own."""
        lo = self.free_count
        x0, x1, g1 = values.frame(0), values.frame(1), values.directrix(1)
        affine = np.concatenate([np.ones(u_free.shape[:-1] + (1,)), u_free], axis=-1)
        s = affine @ coeff.swapaxes(1, 2)          # (N, P, d)
        sdot = affine @ coeff_dot.swapaxes(1, 2)   # (N, P, d)
        out = np.empty((values.ts.size, u_free.shape[-2], lo + 1, x0.shape[2]))
        out[:, :, 0] = g1[:, None, :] + u_free @ x1[:, :lo] + sdot @ x0[:, lo:] + s @ x1[:, lo:]
        out[:, :, 1:] = (x0[:, :lo] + coeff[:, :, 1:].swapaxes(1, 2) @ x0[:, lo:])[:, None]
        return out

    def beta_partials(self, t, u_free=()) -> np.ndarray:
        """Jacobian of the sheet map, the t-partial at fixed free coordinates
        first, then the free partials: (m-d, dim) for a scalar t,
        (N, m-d, dim) for an array (u_free as in `_full_u`)."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        u_free = self._affine(u_free)[..., None, 1:]  # (1, free) or (N, 1, free)
        out = self._partials(self.fc.grid_values(ts), u_free, self._interpolant(ts),
                             self._interpolant(ts, 1))[:, 0]
        return out if np.ndim(t) else out[0]

    @cached_property
    def grid_partials(self) -> np.ndarray:
        """Sheet Jacobians at every grid parameter and free grid position,
        (N, P, m-d, dim), from the nodes and their exact tangents."""
        return self._partials(self.values, self.grid.u_points(self.free_count),
                              self.solution_nodes, self.solution_tangents)

    def defining_residual(self, t: float, u_free=()) -> float:
        """max_h |<beta_dot, rho X_h>| over the trailing fields."""
        beta_dot = self.beta_partials(t, u_free)[0]
        rho = rho_at(self.fc, t).rho_vectors[self.fc.m - 1 - self.d:]
        return float(np.abs(rho @ beta_dot).max())


def solve_striction(p: RuledPatch, d: int) -> StrictionSheet:
    """Assemble and Cholesky-solve the striction system at every grid sample.

    `_assemble` rejects a system whose smallest eigenvalue is below
    `zero_abs_tol`, so every one solved is symmetric positive definite;
    those within a factor 10 of the cutoff are reported as `fallback_ts`.
    The defining property is checked as the solve residual at u_free = 0:
    rho X_h is orthogonal to the frame, so
    <beta_dot, rho X_h> = <sigma_t, rho X_h> = (A s - b)_h.
    """
    _check_degree(p.fc, d)
    tol = p.tol
    a, b, eigmin, nodes = _solve(p.values, p.profile.rho, d, tol)
    max_def = _defining_residual(a, b, nodes, tol)
    near = p.grid.t_samples[eigmin < 10.0 * tol.zero_abs_tol]
    return StrictionSheet(d=d, grid=p.grid, values=p.values, solution_nodes=nodes,
                          max_defining_residual=max_def, fallback_ts=near.tolist(), tol=tol)


def _ranks_above_floor(sheet: StrictionSheet, partials: np.ndarray, ts,
                       tol: TolerancePolicy) -> np.ndarray:
    """Ranks of (N, P, m-d, dim) sheet Jacobians at the parameters ts;
    raises at the first (t-major) one below the floor m-d-1. Jacobians of
    at most two rows take their singular values in closed form
    (`rank2_ranks`)."""
    ranks = (rank2_ranks if partials.shape[-2] <= 2 else numerical_ranks)(partials, tol)
    floor = sheet.fc.m - sheet.d - 1
    low = np.argwhere(ranks < floor)
    if low.size:
        i, j = low[0]
        raise NumericError(
            f"sheet Jacobian rank {ranks[i, j]} below the floor {floor} at t={ts[i]}; "
            "tolerances are likely misconfigured")
    return ranks


def striction_jacobian_rank(sheet: StrictionSheet, t: float, u_free=(),
                            tol: TolerancePolicy = DEFAULT_TOLERANCES) -> int:
    """Rank of the sheet Jacobian; never below m-d-1 for a valid sheet."""
    partials = sheet.beta_partials(t, u_free)[None, None]
    return int(_ranks_above_floor(sheet, partials, [t], tol)[0, 0])


def sheet_jacobian_ranks(p: RuledPatch, sheet: StrictionSheet) -> np.ndarray:
    """`striction_jacobian_rank` at every grid parameter and free grid
    position, (N, P)."""
    return _ranks_above_floor(sheet, sheet.grid_partials, p.grid.t_samples, p.tol)


@dataclass(frozen=True, eq=False)
class SingularLocus:
    """Where the patch degenerates, at every grid parameter `t` (N,) and
    free grid position `u_free` (P, m-1-d) of the sheet, t-major.

    `residuals` (N, P) is the wedge residual |beta_dot ^ X_1 ^ ... ^ X_{m-1}|
    there, and `singular` (N, P) whether it is below `zero_abs_tol`.
    """

    t: np.ndarray
    u_free: np.ndarray
    residuals: np.ndarray
    singular: np.ndarray

    @property
    def singular_fraction(self) -> float:
        if not self.singular.size:
            return 0.0
        return int(np.count_nonzero(self.singular)) / self.singular.size


@dataclass(frozen=True, eq=False)
class OffsheetCheck:
    """The randomized regularity spot check just off the sheet."""

    total: int
    failures: tuple  # (t, full ruling coordinates) of each irregular point

    @property
    def regular(self) -> int:
        return self.total - len(self.failures)


def singular_locus(p: RuledPatch, sheet: StrictionSheet) -> SingularLocus:
    """Wedge test along the sheet: a sheet sample is singular when the
    t-derivative of the sheet map is wedged to zero by the frame. As
    beta_dot - sigma_t = sdot . X_tail lies in the frame span, the residual
    |beta_dot ^ X_1 ^ ... ^ X_{m-1}| is |det R| |c| with the scan's
    c = g1 comp + u . (Xdot comp) at the sheet point, within
    `WEDGE_SLACK_PER_VECTOR` k eps |A|_F^k of the SVD's for those k = m vectors A."""
    v = sheet.values
    _, _, g1_c, x1_c = v.coordinates(1)
    c = g1_c + sheet.grid_u @ x1_c
    residuals = v.frame_basis()[3][:, None] * np.linalg.norm(c, axis=-1)
    return SingularLocus(t=p.grid.t_samples, u_free=p.grid.u_points(sheet.free_count),
                         residuals=residuals, singular=residuals < p.tol.zero_abs_tol)


#: random points of each off-sheet regularity check
OFFSHEET_CHECKS = 32


def offsheet_check(p: RuledPatch, sheet: StrictionSheet, seed: int = 0) -> OffsheetCheck:
    """Regularity of the patch just off the sheet at `OFFSHEET_CHECKS` random points.

    The SplitMix64 stream of `seed` (`splitmix.SplitMix64`) draws three
    blocks: the points' t, uniform over the grid's range (a segment's, for
    a segment patch), their uniform free coordinates, (OFFSHEET_CHECKS,
    free), and the sign of each solved coordinate's perturbation by
    +-delta, delta = 10 grid u-spacings, (OFFSHEET_CHECKS, d). The patch
    must be regular at every point, by the rank rule on the reduced
    Jacobians (`ruledgeom.jacobian_regularity`), the same route as the
    second-form scan's. One evaluation of the curve at the drawn t and its
    frame QR serve the solve there (`solved`) and the reduced Jacobians.
    This is the only seeded stage.
    """
    fc, grid = p.fc, p.grid
    stream = SplitMix64(seed)
    axis = grid.u_axis
    spacing = float(axis[1] - axis[0]) if axis.size > 1 else grid.u_extent / 5.0
    delta = 10.0 * spacing
    ts = stream.uniform(grid.t_samples[0], grid.t_samples[-1], OFFSHEET_CHECKS)
    u_free = stream.uniform(-grid.u_extent, grid.u_extent, (OFFSHEET_CHECKS, sheet.free_count))
    signs = stream.signs((OFFSHEET_CHECKS, sheet.d))
    values = fc.grid_values(ts)
    u = np.concatenate([u_free, sheet.solved(ts, u_free, values) + delta * signs], axis=1)
    irregular = np.flatnonzero(~jacobian_regularity(values, u, p.tol))
    return OffsheetCheck(total=OFFSHEET_CHECKS,
                         failures=tuple((float(ts[i]), u[i].tolist()) for i in irregular))


#: c / k for the slack c k eps |A|_F^k that covers the rounding of a wedge
#: norm of k vectors in closed form: `_augmented_vanish`, `singular_locus`
#: and `ruledgeom.rank_one_check`
WEDGE_SLACK_PER_VECTOR = 64.0


def _augmented_vanish(v: GridValues, u: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """Whether each augmented wedge |Xdot_j ^ sigma_t ^ X_1 ^ ... ^ X_{m-1}|
    is below zero_abs_tol, (N, P, m-1), with sigma_t at the N parameters of
    `v` times P ruling positions u (N, P, m-1): the verdict of `wedge_norms`.
    At the sheet (`StrictionSheet.grid_u`) these are the wedges with beta_dot.

    The complete QR of the frame per t, X^T = [q | comp] R, turns the
    wedge into |det R| |a_j ^ c| with the complement coordinates
    a_j = Xdot_j comp and c = sigma_t comp (`GridValues.coordinates`), and
    |a_j ^ c| is the norm of their 2 x 2 minors (`pair_wedge_norms`).
    The SVD's singular values are exact for a stack A of k = m + 1 vectors
    within a few eps |A| of it, so their product moves by at most about
    k eps |A|^k <= k eps |A|_F^k. For a frame orthonormal to the ingest
    tolerance, |det R| and comp are accurate to a few eps, and the closed
    form's rounding is of the same order. A wedge is settled when it clears
    zero_abs_tol by the relative margin `RANK_BOUND_MARGIN` plus the slack
    `WEDGE_SLACK_PER_VECTOR` k eps |A|_F^k; the rest go through
    `wedge_norms`.
    """
    x0, x1 = v.frame(0), v.frame(1)
    _, _, g1_c, x1_c = v.coordinates(1)
    sigma_t = v.directrix(1)[:, None] + u @ x1
    c = g1_c + u @ x1_c
    wedges = v.frame_basis()[3][:, None, None] * pair_wedge_norms(x1_c[:, None], c[:, :, None])
    k = x0.shape[1] + 2
    frob2 = (np.sum(x1 * x1, axis=2)[:, None] + np.sum(sigma_t * sigma_t, axis=2)[..., None]
             + np.sum(x0 * x0, axis=(1, 2))[:, None, None])
    slack = WEDGE_SLACK_PER_VECTOR * k * np.finfo(float).eps * frob2 ** (0.5 * k)
    above, decided = settled(wedges, tol.zero_abs_tol, RANK_BOUND_MARGIN, slack)
    vanish = ~above
    if not decided.all():
        # [Xdot_j, sigma_t, X_1..X_{m-1}] per undecided (t, u_free, j)
        i, pos, j = np.nonzero(~decided)
        stack = np.empty((i.size, k, x0.shape[2]))
        stack[:, 0], stack[:, 1], stack[:, 2:] = x1[i, j], sigma_t[i, pos], x0[i]
        vanish[~decided] = wedge_norms(stack) < tol.zero_abs_tol
    return vanish


@dataclass(frozen=True, eq=False)
class EquivalentConditionResult:
    """The plain and the augmented sheet wedge tests, side by side.

    The verdict arrays are (N, P) over the locus' grid parameters and
    free grid positions: `plain` is the locus' singular verdict,
    `augmented` whether every augmented wedge of a carrying frame
    derivative vanishes, and `agree` whether the two tests agree on every
    carrying derivative. `checked` (N,) marks the parameters with some
    carrying derivative; the others are `skipped`, and there `augmented`
    and `agree` hold vacuously.
    """

    checked: np.ndarray    # (N,) bool
    plain: np.ndarray      # (N, P) bool
    augmented: np.ndarray  # (N, P) bool
    agree: np.ndarray      # (N, P) bool
    skipped: tuple  # t where every projected derivative is below tolerance
    all_agree: bool


def equivalent_condition_check(p: RuledPatch, sheet: StrictionSheet,
                               locus: SingularLocus) -> EquivalentConditionResult:
    """Cross-check the sheet wedge test (`locus.singular`) against its
    frame-derivative-augmented variant; the two must agree wherever some
    projected derivative is nonzero."""
    fc, tol = p.fc, p.tol
    carriers = np.linalg.norm(p.profile.rho, axis=2) >= tol.zero_abs_tol  # (N, m-1)
    plain = locus.singular
    if fc.m + 1 > fc.dim:
        # the augmented wedge involves more vectors than the ambient
        # dimension, hence vanishes identically
        augmented = np.ones(plain.shape + (fc.m - 1,), dtype=bool)
    else:
        augmented = _augmented_vanish(sheet.values, sheet.grid_u, tol)  # (N, P, m-1)
    # only the carrying frame derivatives take part
    augmented = augmented | ~carriers[:, None, :]
    agree = ~((augmented != plain[..., None]) & carriers[:, None, :]).any(axis=-1)
    checked = carriers.any(axis=1)
    return EquivalentConditionResult(
        checked=checked, plain=plain, augmented=augmented.all(axis=-1), agree=agree,
        skipped=tuple(locus.t[~checked].tolist()), all_agree=bool(agree.all()))


@dataclass(frozen=True, eq=False)
class InvarianceResult:
    offsets: tuple     # offset list of each scale
    per_offset: tuple  # (offset list, max deviation) for each tested offset
    skipped: tuple     # (offset list, reason)
    max_deviation: float


@dataclass(frozen=True, eq=False)
class SheetFit:
    """Nearest sheet points found by `least_squares`: their parameters x
    (N, 1 + free), residuals fun (N, dim) and the number of residual
    evaluations, each one call over the points still moving."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


#: Gauss-Newton iterations of `least_squares` before it stops anyway
FIT_ITERATIONS = 100


def least_squares(sheet: StrictionSheet, points: np.ndarray, x0: np.ndarray,
                  lower: np.ndarray, upper: np.ndarray) -> SheetFit:
    """The sheet point nearest each of N points (N, dim), as the (t, free
    coordinates) rows inside the box [lower, upper], from the rows x0.

    Gauss-Newton on each point's own row, all points at once: the step
    solves the tiny normal equations J J^T step = -J r through a
    pseudo-inverse (a sheet that is a single point has J = 0), is
    projected onto the box, and is taken only where the point's
    distance falls; elsewhere it is halved and tried again. A point
    stops when |J r| <= 1e-14 or its step is below 1e-14 times its
    scale max(1, |row|), so a row already at a nearest point never
    moves, and no distance is ever larger than at x0. The points do not
    interact: each one's iterates are those of a call on it alone, so the
    invariance check fits all the points of a pivot run, every offset and
    free sample position, in one call.
    """
    theta = np.clip(x0, lower, upper)
    scale = np.maximum(1.0, np.abs(theta).max(axis=1))
    fun = sheet.beta(theta[:, 0], theta[:, 1:]) - points
    dist = np.linalg.norm(fun, axis=1)
    nfev = 1
    active = np.arange(points.shape[0])
    for _ in range(FIT_ITERATIONS):
        jac = sheet.beta_partials(theta[active, 0], theta[active, 1:])  # (a, 1 + free, dim)
        grad = (jac @ fun[active, :, None])[..., 0]
        moving = np.abs(grad).max(axis=1) > 1e-14
        active, jac, grad = active[moving], jac[moving], grad[moving]
        step = -(np.linalg.pinv(jac @ jac.swapaxes(1, 2)) @ grad[..., None])[..., 0]
        improved = [active[:0]]
        while active.size:
            trial = np.clip(theta[active] + step, lower, upper)
            large = np.abs(trial - theta[active]).max(axis=1) > 1e-14 * scale[active]
            active, step, trial = active[large], step[large], trial[large]
            if not active.size:
                break
            trial_fun = sheet.beta(trial[:, 0], trial[:, 1:]) - points[active]
            nfev += 1
            trial_dist = np.linalg.norm(trial_fun, axis=1)
            falls = trial_dist < dist[active]
            done = active[falls]
            theta[done], fun[done], dist[done] = trial[falls], trial_fun[falls], trial_dist[falls]
            improved.append(done)
            active, step = active[~falls], 0.5 * step[~falls]
        active = np.concatenate(improved)
        if not active.size:
            break
    return SheetFit(x=theta, fun=fun, nfev=nfev)


def _distances_to_sheet(sheet: StrictionSheet, points: np.ndarray,
                        seeds: np.ndarray) -> np.ndarray:
    """Distance from each of N points to the sheet as a continuous object,
    (N,), from its seed parameters (N, 1 + free).

    All points are refined together by one `least_squares` over their
    (t, free coordinates), within the curve interval and four times the
    grid's ruling extent. Each distance is to a sheet point, so it
    bounds the true distance from above, and it is never larger than
    the distance to the seed's sheet point.
    """
    lo, hi = sheet.fc.interval
    ext = 4.0 * sheet.grid.u_extent
    lower = np.array([lo] + [-ext] * sheet.free_count)
    upper = np.array([hi] + [ext] * sheet.free_count)
    fit = least_squares(sheet, points, seeds, lower, upper)
    return np.linalg.norm(fit.fun, axis=1)


#: free sample positions per free ruling axis of the invariance check,
#: spread over [-u_extent, u_extent]
INVARIANCE_AXIS_SAMPLES = 3

#: the invariance check's offsets: per scale, the ruling coordinates all that scale
INVARIANCE_SCALES = (0.5, 1.0, -0.7)


def _shifted_sheet(p: RuledPatch, d: int, a: np.ndarray, chol: np.ndarray,
                   c: np.ndarray) -> StrictionSheet:
    """The sheet of `p` re-solved off the directrix shifted by c on the
    same grid: the shifted patch shares the frame values and degree
    profile, hence the matrices a (`_matrices`) and their Cholesky factors
    chol, so only the right-hand sides are assembled anew. Raises
    `NumericError` where the solve violates the defining property."""
    values = p.shift_directrix(c).values
    b = _right_hand_sides(values, p.profile.rho, d)
    nodes = _cholesky_solve(chol, b)
    return StrictionSheet(d=d, grid=p.grid, values=values, solution_nodes=nodes,
                          max_defining_residual=_defining_residual(a, b, nodes, p.tol),
                          tol=p.tol)


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_deviations(p: RuledPatch, sheet: StrictionSheet, offsets: list,
                    skipped: dict) -> dict:
    """Largest distance to `sheet` from the sheet re-solved off the
    directrix shifted by each offset not yet in `skipped` (index -> reason),
    over about 64 of the grid nodes times `INVARIANCE_AXIS_SAMPLES` free
    positions per free axis: index -> deviation. The systems are
    factorized once for all offsets, each offset is solved on its own
    right-hand side, and one `least_squares` call fits the points of every
    offset; an offset whose solve fails or whose deviation is not finite
    (a NaN distance propagates to it) enters `skipped` instead."""
    d, free = sheet.d, sheet.free_count
    a = _matrices(p.values, p.profile.rho, d)
    chol = np.linalg.cholesky(a)
    axis = np.linspace(-p.grid.u_extent, p.grid.u_extent, INVARIANCE_AXIS_SAMPLES)
    step = max(1, p.grid.t_samples.size // 64)
    ts = p.grid.t_samples[::step]
    live, points, seeds = [], [], []
    for k, c in enumerate(offsets):
        if k in skipped:
            continue
        try:
            new_sheet = _shifted_sheet(p, d, a, chol, c)
        except NumericError as exc:
            skipped[k] = _reason(exc)
            continue
        live.append(k)
        for u_free in np.array(list(product(axis, repeat=free))):
            seed = np.empty((ts.size, 1 + free))
            seed[:, 0] = ts
            # sigma'(t, u) = sigma(t, u + c): the matched original parameters
            seed[:, 1:] = u_free + c[:free]
            points.append(new_sheet.grid_points(u_free)[::step])
            seeds.append(seed)
    if not live:
        return {}
    dists = _distances_to_sheet(sheet, np.concatenate(points), np.concatenate(seeds))
    devs = {}
    for k, dev in zip(live, dists.reshape(len(live), -1).max(axis=1).tolist()):
        if np.isfinite(dev):
            devs[k] = dev
        else:
            skipped[k] = _reason(NumericError(f"invariance deviation is not finite: {dev}"))
    return devs


def directrix_invariance(runs, scales=INVARIANCE_SCALES) -> InvarianceResult:
    """Re-solve the sheet from shifted directrices and compare images.

    `runs` are the (pivoted patch, sheet) pairs of one constant-degree
    segment, one per pivot run (`classify.segment_analyses`). Each scale
    gives one offset c, the ruling coordinate vector all that scale. The
    patch swept from the shifted directrix t -> sigma(t, c) along the same
    frame is re-solved on the same grid (`RuledPatch.shift_directrix`):
    the solved coordinates do not change under reparametrization, so no
    arclength map is needed, and the shifted patches of a run share its
    frame values and degree profile, so the run's systems are factorized
    once and each offset solves only its own right-hand side. Since
    sigma'(t, u) = sigma(t, u + c), the re-solved point at (t, u_free) is
    matched to the original sheet at (t, u_free + c_free); from there one
    `least_squares` per run moves the points of all its offsets and free
    sample positions to their nearest sheet points, each by its own
    Gauss-Newton iteration. An offset's deviation is the largest distance
    from a re-solved grid node to the original sheet over all runs; an
    offset whose re-solve fails numerically on some run, or whose
    deviation there is not finite, is skipped with the first failing
    run's reason, and later runs do not re-solve it.
    """
    if any(sheet.d < 1 for _, sheet in runs):
        raise ValidationError("invariance requires a solved sheet (degree >= 1)")
    offsets = [np.full(runs[0][0].m - 1, float(s)) for s in scales]
    devs, skipped = {}, {}
    for p, sheet in runs:
        for k, dev in _run_deviations(p, sheet, offsets, skipped).items():
            devs[k] = max(devs.get(k, dev), dev)
    per_offset = [(c.tolist(), devs[k]) for k, c in enumerate(offsets) if k not in skipped]
    return InvarianceResult(
        offsets=tuple(c.tolist() for c in offsets), per_offset=tuple(per_offset),
        skipped=tuple((offsets[k].tolist(), skipped[k]) for k in sorted(skipped)),
        max_deviation=max([0.0] + [dev for _, dev in per_offset]))


def write_striction_csv(sheet: StrictionSheet, locus: SingularLocus, path):
    """Sheet export with the fixed header
    t, u1..u{m-d-1}, s{m-d}..s{m-1}, b1..b{m+n}, wedge_residual, singular,
    one row per locus sample (grid parameter and free grid position),
    t-major, with `\r\n` line endings. Each number is its float repr, so
    no field needs the quoting of a CSV writer. All the file's numbers are
    formatted by one `exports.float_texts` call, so each distinct value of
    the file once, and placed by one template, a row's by its verdict."""
    m, d, dim = sheet.fc.m, sheet.d, sheet.fc.dim
    header = (["t"]
              + [f"u{j}" for j in range(1, m - d)]
              + [f"s{j}" for j in range(m - d, m)]
              + [f"b{i}" for i in range(1, dim + 1)]
              + ["wedge_residual", "singular"])
    # the ruling coordinates u and s of the sheet, (N, P, m-1), t-major as the locus
    u, v = sheet.grid_u, sheet.values
    # t, u and s, b and wedge_residual: m + dim + 1 numbers per row
    table = np.concatenate([np.broadcast_to(locus.t[:, None, None], u.shape[:2] + (1,)), u,
                            v.directrix(0)[:, None] + u @ v.frame(0),
                            locus.residuals[..., None]], axis=-1)
    cells = ",".join(["%s"] * (m + dim + 1))
    rows = np.array([cells + ",false", cells + ",true"],
                    dtype=object)[locus.singular.ravel().astype(np.intp)].tolist()
    with open(path, "w", newline="") as fh:
        fh.write(("\r\n".join([",".join(header), *rows]) + "\r\n") % tuple(float_texts(table)))
