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
and the sheet wedge test of the locus scan forms one stacked SVD, whose
residuals the CSV records and whose verdicts the equivalent-condition
check reads beside its augmented wedges. Those, the sheet Jacobian ranks
and the off-sheet regularity are verdicts only, read from closed forms;
the SVD settles just the ones within a rounding margin of a cutoff.
Only samples whose system sits near the eigenvalue floor fall back to a
per-sample pivoted QR solve. The stage results stay arrays until a
report or file converts them, once, with `tolist()`.

The directrix-invariance check re-solves the sheet of each shifted
directrix on the patch's own grid, since the solved coordinates do not
change under reparametrization; the shifted patch shares the frame
values and degree profile, so no arclength map is built.

Every stage is deterministic except `offsheet_check`, the randomized
regularity spot check just off the sheet; it alone takes a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import qr, solve_triangular
from scipy.optimize import least_squares

from .distribution import profile_from_values, rho_at
from .errors import DegeneracyError, NumericError, ValidationError
from .fields import as_parameter_array
from .multilinear import (DEFAULT_TOLERANCES, RANK_BOUND_MARGIN, TolerancePolicy,
                          numerical_ranks, pair_wedge_norms, rank2_ranks, settled,
                          wedge_norms)
from .parametric import FramedCurve, GridValues, SampleGrid
from .ruledgeom import RuledPatch, _frame_basis, jacobian_regularity, jacobians_at


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


def _assemble(values: GridValues, rho: np.ndarray, d: int, tol: TolerancePolicy):
    """Striction systems at every parameter of `values`, as (N, d, d) and
    (N, d, m-d) stacks; raises at the first degenerate one.

    Entry (h, c) of A pairs the derivative of trailing field c with the
    projected derivative of trailing field h; the affine right-hand side
    collects the directrix and leading-field terms with a sign flip.
    """
    k = values.fc.m - 1
    lo = k - d
    xdot = values.frame(1)
    rho_tail = rho[:, lo:]
    a = rho_tail @ xdot[:, lo:].swapaxes(1, 2)
    rhs = np.concatenate([values.directrix(1)[:, None, :], xdot[:, :lo]], axis=1)
    b = -(rho_tail @ rhs.swapaxes(1, 2))
    eigmin = np.linalg.eigvalsh(0.5 * (a + a.swapaxes(1, 2))).min(axis=1)
    degenerate = np.flatnonzero(eigmin < tol.zero_abs_tol)
    if degenerate.size:
        i = int(degenerate[0])
        raise DegeneracyError(
            f"striction system degenerate at t={values.ts[i]}: "
            f"smallest eigenvalue {eigmin[i]:.3e}")
    return a, b


def striction_systems(p: RuledPatch, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The striction systems at every grid sample of the pivoted patch `p`,
    as (N, d, d) matrices and (N, d, m-d) affine right-hand sides, from
    its cached frame values and degree profile."""
    _check_degree(p.fc, d)
    return _assemble(p.values, p.profile.rho, d, p.tol)


def assemble_system(fc: FramedCurve, t: float, d: int,
                    tol: TolerancePolicy = DEFAULT_TOLERANCES) -> StrictionSystem:
    """Build the striction system at t from the pivoted frame."""
    _check_degree(fc, d)
    values = fc.grid_values(np.array([float(t)]))
    a, b = _assemble(values, profile_from_values(values, tol).rho, d, tol)
    return StrictionSystem(t=float(t), A=a[0], b_affine=b[0])


@dataclass(eq=False)
class StrictionSheet:
    """Solved sheet coordinates over the grid, interpolated in t.

    The solved trailing coordinates are affine in the free ruling
    coordinates with t-dependent weights, so a single vector spline per
    t-node captures the whole sheet exactly up to interpolation in t.
    The grid stages (`values`, `grid_partials`) are computed on first
    use and kept; a sheet from `solve_striction` shares the frame values
    it was solved from.
    """

    d: int
    fc: FramedCurve
    grid: SampleGrid
    solution_nodes: np.ndarray       # (N, d, m-d)
    max_solve_residual: float
    max_defining_residual: float
    fallback_ts: list = field(default_factory=list)

    def __post_init__(self):
        self._spline = CubicSpline(self.grid.t_samples, self.solution_nodes, axis=0)

    @property
    def free_count(self) -> int:
        return self.fc.m - 1 - self.d

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

    def full_u(self, t, u_free=()) -> np.ndarray:
        """All ruling coordinates of the sheet at (t, u_free), free ones
        first: (m-1,) for a scalar t, (N, m-1) for an array of N
        parameters, with u_free one free position (free,) or one per
        parameter (N, free)."""
        affine = self._affine(u_free)
        solved = (self._spline(t) @ affine[..., None])[..., 0]
        if affine.ndim < solved.ndim:  # one free position for every parameter
            affine = np.broadcast_to(affine, solved.shape[:-1] + affine.shape)
        return np.concatenate([affine[..., 1:], solved], axis=-1)

    def solved(self, t, u_free=()) -> np.ndarray:
        """Trailing (solved) ruling coordinates of the sheet at (t, u_free),
        shaped as in `full_u`."""
        return self.full_u(t, u_free)[..., self.free_count:]

    @cached_property
    def values(self) -> GridValues:
        """Frame and directrix derivatives on the sheet's grid."""
        return self.fc.grid_values(self.grid.parameters)

    def _points(self, t, x0: np.ndarray, g0: np.ndarray, u_free) -> np.ndarray:
        """Sheet points at t (u_free as in `full_u`) from the frame values
        x0 and directrix values g0 at t."""
        u = self.full_u(t, u_free)
        return g0 + (u[..., None, :] @ x0)[..., 0, :]

    def beta(self, t, u_free=()) -> np.ndarray:
        """Point of the sheet in ambient coordinates: (dim,) for a scalar t,
        (N, dim) for an array (u_free as in `full_u`)."""
        # the frame and the directrix share one inversion of any parameter map
        at = as_parameter_array(t)
        return self._points(t, self.fc.frame_values(at), self.fc.directrix_values(at, 0), u_free)

    def grid_points(self, u_free) -> np.ndarray:
        """`beta` at every grid parameter, (N, dim), from the grid values;
        u_free is one free position or one per grid parameter."""
        v = self.values
        return self._points(self.grid.t_samples, v.frame(0), v.directrix(0), u_free)

    def _partials(self, values: GridValues, u_free: np.ndarray) -> np.ndarray:
        """(N, P, m-d, dim) sheet Jacobians at the N parameters of `values`
        times P free positions: the t-partial at fixed free coordinates,
        then the free partials. u_free: (P, m-1-d) positions shared by
        every parameter, or (N, P, m-1-d) positions of their own."""
        lo = self.free_count
        ts, x0, x1, g1 = values.ts, values.frame(0), values.frame(1), values.directrix(1)
        affine = np.concatenate([np.ones(u_free.shape[:-1] + (1,)), u_free], axis=-1)
        coeff = self._spline(ts)
        s = affine @ coeff.swapaxes(1, 2)                       # (N, P, d)
        sdot = affine @ self._spline(ts, nu=1).swapaxes(1, 2)   # (N, P, d)
        out = np.empty((ts.size, u_free.shape[-2], lo + 1, x0.shape[2]))
        out[:, :, 0] = g1[:, None, :] + u_free @ x1[:, :lo] + sdot @ x0[:, lo:] + s @ x1[:, lo:]
        out[:, :, 1:] = (x0[:, :lo] + coeff[:, :, 1:].swapaxes(1, 2) @ x0[:, lo:])[:, None]
        return out

    def beta_partials(self, t, u_free=()) -> np.ndarray:
        """Jacobian of the sheet map, the t-partial at fixed free coordinates
        first, then the free partials: (m-d, dim) for a scalar t,
        (N, m-d, dim) for an array (u_free as in `full_u`)."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        u_free = self._affine(u_free)[..., None, 1:]  # (1, free) or (N, 1, free)
        out = self._partials(self.fc.grid_values(ts), u_free)[:, 0]
        return out if np.ndim(t) else out[0]

    @cached_property
    def grid_partials(self) -> np.ndarray:
        """Sheet Jacobians at every grid parameter and free grid position,
        (N, P, m-d, dim)."""
        return self._partials(self.values, self.grid.u_points(self.free_count))

    def defining_residual(self, t: float, u_free=()) -> float:
        """max_h |<beta_dot, rho X_h>| over the trailing fields."""
        beta_dot = self.beta_partials(t, u_free)[0]
        return float(_defining_residuals(rho_at(self.fc, t).rho_vectors[None],
                                         beta_dot[None], self.d)[0])


def _defining_residuals(rho: np.ndarray, beta_dot: np.ndarray, d: int) -> np.ndarray:
    """max_h |<beta_dot, rho X_h>| over the d trailing fields, per sample;
    rho is (N, m-1, dim) and beta_dot (N, dim)."""
    trailing = rho[:, rho.shape[1] - d:]
    return np.abs(np.einsum("nhd,nd->nh", trailing, beta_dot)).max(axis=1)


def solve_striction(p: RuledPatch, d: int) -> StrictionSheet:
    """Assemble and solve the striction system at every grid sample.

    A symmetric positive-definite factorization is used; when the
    smallest eigenvalue sits within a factor 10 of the cutoff the solve
    falls back to column-pivoted QR and the sample is reported.
    """
    fc, grid, tol = p.fc, p.grid, p.tol
    ts = grid.t_samples
    a, b = striction_systems(p, d)
    nodes = np.empty_like(b)
    fallback = np.linalg.eigvalsh(a).min(axis=1) < 10.0 * tol.zero_abs_tol
    spd = ~fallback
    if spd.any():
        chol = np.linalg.cholesky(a[spd])
        nodes[spd] = np.linalg.solve(chol.swapaxes(1, 2), np.linalg.solve(chol, b[spd]))
    for i in np.flatnonzero(fallback):
        q, r, piv = qr(a[i], pivoting=True)
        nodes[i][piv] = solve_triangular(r, q.T @ b[i])
    max_solve = float(np.abs(a @ nodes - b).max())
    sheet = StrictionSheet(d=d, fc=fc, grid=grid, solution_nodes=nodes,
                           max_solve_residual=max_solve, max_defining_residual=0.0,
                           fallback_ts=[float(t) for t in ts[fallback]])
    sheet.values = p.values
    beta_dot = sheet._partials(p.values, np.zeros((1, sheet.free_count)))[:, 0, 0]
    max_def = float(_defining_residuals(p.profile.rho, beta_dot, d).max())
    sheet.max_defining_residual = max_def
    if not max_def <= tol.zero_abs_tol:  # NaN included
        raise NumericError(
            f"striction sheet violates its defining property: residual {max_def:.3e}")
    return sheet


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


def _sheet_wedges(sheet: StrictionSheet) -> np.ndarray:
    """(N, P, m, dim) stack of [beta_dot, X_1, ..., X_{m-1}] at every grid
    parameter and free grid position."""
    beta_dot = sheet.grid_partials[:, :, 0]
    wedges = np.empty(beta_dot.shape[:2] + (sheet.fc.m, sheet.fc.dim))
    wedges[:, :, 0] = beta_dot
    wedges[:, :, 1:] = sheet.values.frame(0)[:, None]
    return wedges


def singular_locus(p: RuledPatch, sheet: StrictionSheet) -> SingularLocus:
    """Wedge test along the sheet: a sheet sample is singular when the
    t-derivative of the sheet map is wedged to zero by the frame."""
    residuals = wedge_norms(_sheet_wedges(sheet))
    return SingularLocus(t=p.grid.t_samples, u_free=p.grid.u_points(sheet.free_count),
                         residuals=residuals, singular=residuals < p.tol.zero_abs_tol)


def offsheet_check(p: RuledPatch, sheet: StrictionSheet, seed: int = 0,
                   checks: int = 32) -> OffsheetCheck:
    """Regularity of the patch just off the sheet, at `checks` random points.

    Each point takes a t uniform over the grid's range (a segment's, for
    a segment patch, so the sheet is never extrapolated) and uniform free
    coordinates, and perturbs every solved coordinate by +-delta with
    delta = 10 grid u-spacings; the patch must be regular there, by the
    rank rule on the reduced Jacobians (`ruledgeom.jacobian_regularity`).
    This is the only seeded stage.
    """
    fc, grid = p.fc, p.grid
    rng = np.random.default_rng(seed)
    axis = grid.u_axis
    spacing = float(axis[1] - axis[0]) if axis.size > 1 else grid.u_extent / 5.0
    delta = 10.0 * spacing
    lo, hi = grid.t_samples[0], grid.t_samples[-1]
    ts = np.empty(checks)
    u = np.empty((checks, fc.m - 1))
    signs = np.empty((checks, sheet.d))
    for i in range(checks):  # the seed's stream: t, u_free, signs per check
        ts[i] = rng.uniform(lo, hi)
        u[i, :sheet.free_count] = rng.uniform(-grid.u_extent, grid.u_extent,
                                              size=sheet.free_count)
        signs[i] = rng.choice([-1.0, 1.0], size=sheet.d)
    u[:, sheet.free_count:] = sheet.solved(ts, u[:, :sheet.free_count]) + delta * signs
    irregular = np.flatnonzero(~jacobian_regularity(jacobians_at(p, ts, u), p.tol))
    return OffsheetCheck(total=checks,
                         failures=tuple((float(ts[i]), u[i].tolist()) for i in irregular))


#: c / k for the slack c k eps |A|_F^k that covers the rounding of a wedge
#: norm of k vectors in `_augmented_vanish`
WEDGE_SLACK_PER_VECTOR = 64.0


def _augmented_vanish(x0: np.ndarray, x1: np.ndarray, beta_dot: np.ndarray,
                      tol: TolerancePolicy) -> np.ndarray:
    """Whether each augmented wedge |Xdot_j ^ beta_dot ^ X_1 ^ ... ^ X_{m-1}|
    is below zero_abs_tol, (N, P, m-1): the verdict of `wedge_norms`. x0
    and x1 are (N, m-1, dim) frame values and derivatives at N parameters,
    beta_dot (N, P, dim) the sheet's t-partials at P free positions each.

    One complete QR of the frame per t, X^T = [q | comp] R
    (`ruledgeom._frame_basis`), turns the wedge into |det R| |a_j ^ b|
    with the complement coordinates a_j = Xdot_j comp and b = beta_dot comp,
    and |a_j ^ b| is the norm of their 2 x 2 minors (`pair_wedge_norms`).
    The SVD's singular values are exact for a stack A of k = m + 1 vectors
    within a few eps |A| of it, so their product moves by at most about
    k eps |A|^k <= k eps |A|_F^k. For a frame orthonormal to the ingest
    tolerance, |det R| and comp are accurate to a few eps, and the closed
    form's rounding is of the same order. A wedge is settled when it clears
    zero_abs_tol by the relative margin `RANK_BOUND_MARGIN` plus the slack
    `WEDGE_SLACK_PER_VECTOR` k eps |A|_F^k; the rest go through
    `wedge_norms`.
    """
    r, _, comp = _frame_basis(x0)
    volume = np.abs(np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1))
    wedges = volume[:, None, None] * pair_wedge_norms((x1 @ comp)[:, None],
                                                      (beta_dot @ comp)[:, :, None])
    k = x0.shape[1] + 2
    frob2 = (np.sum(x1 * x1, axis=2)[:, None] + np.sum(beta_dot * beta_dot, axis=2)[..., None]
             + np.sum(x0 * x0, axis=(1, 2))[:, None, None])
    slack = WEDGE_SLACK_PER_VECTOR * k * np.finfo(float).eps * frob2 ** (0.5 * k)
    above, decided = settled(wedges, tol.zero_abs_tol, RANK_BOUND_MARGIN, slack)
    vanish = ~above
    if not decided.all():
        # [Xdot_j, beta_dot, X_1..X_{m-1}] per undecided (t, u_free, j)
        i, pos, j = np.nonzero(~decided)
        stack = np.empty((i.size, k, x0.shape[2]))
        stack[:, 0] = x1[i, j]
        stack[:, 1] = beta_dot[i, pos]
        stack[:, 2:] = x0[i]
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
        augmented = _augmented_vanish(p.values.frame(0), p.values.frame(1),
                                      sheet.grid_partials[:, :, 0], tol)  # (N, P, m-1)
    # only the carrying frame derivatives take part
    augmented = augmented | ~carriers[:, None, :]
    agree = ~((augmented != plain[..., None]) & carriers[:, None, :]).any(axis=-1)
    checked = carriers.any(axis=1)
    return EquivalentConditionResult(
        checked=checked, plain=plain, augmented=augmented.all(axis=-1), agree=agree,
        skipped=tuple(locus.t[~checked].tolist()), all_agree=bool(agree.all()))


@dataclass(frozen=True, eq=False)
class InvarianceResult:
    per_offset: tuple  # (offset list, max deviation) for each tested offset
    skipped: tuple     # (offset list, reason)
    max_deviation: float


def _stacked_fit(sheet: StrictionSheet, points: np.ndarray):
    """Residual and exact Jacobian of the nearest-sheet-point problem of N
    points at once: theta holds one (t, free coordinates) row per point,
    flattened. Point i's residual depends on row i only, so the Jacobian
    is block diagonal, with the sheet partials of each row as its block."""
    n, dim = points.shape
    width = 1 + sheet.free_count
    rows = np.arange(n)

    def residual(theta):
        theta = theta.reshape(n, width)
        return (sheet.beta(theta[:, 0], theta[:, 1:]) - points).ravel()

    def jacobian(theta):
        theta = theta.reshape(n, width)
        jac = np.zeros((n, dim, n, width))
        jac[rows, :, rows] = sheet.beta_partials(theta[:, 0], theta[:, 1:]).swapaxes(1, 2)
        return jac.reshape(n * dim, n * width)

    return residual, jacobian


def _distances_to_sheet(sheet: StrictionSheet, points: np.ndarray,
                        seeds: np.ndarray) -> np.ndarray:
    """Distance from each of N points to the sheet as a continuous object,
    (N,), from its seed parameters (N, 1 + free).

    All points are refined together by one bounded least squares over
    their (t, free coordinates). A point's distance is the smaller of its
    distances to the seed's and to the refined sheet point; both are sheet
    points, so each value bounds the true distance from above.
    """
    lo, hi = sheet.fc.interval
    ext = 4.0 * sheet.grid.u_extent
    n = points.shape[0]
    lower = np.tile([lo] + [-ext] * sheet.free_count, n)
    upper = np.tile([hi] + [ext] * sheet.free_count, n)
    residual, jacobian = _stacked_fit(sheet, points)
    x0 = np.clip(seeds.ravel(), lower, upper)
    at_seed = residual(x0).reshape(points.shape)
    fit = least_squares(residual, x0, jac=jacobian, bounds=(lower, upper),
                        xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return np.minimum(np.linalg.norm(at_seed, axis=1),
                      np.linalg.norm(fit.fun.reshape(points.shape), axis=1))


def _offset_deviation(p: RuledPatch, sheet: StrictionSheet, c: np.ndarray,
                      free_pts: np.ndarray) -> float:
    """Largest distance to `sheet` from the sheet re-solved off the
    directrix shifted by c on the same grid, over about 64 of the grid
    nodes times `free_pts`."""
    new_sheet = solve_striction(p.shift_directrix(c), sheet.d)
    step = max(1, p.grid.t_samples.size // 64)
    ts = p.grid.t_samples[::step]
    seeds = np.empty((ts.size, 1 + sheet.free_count))
    seeds[:, 0] = ts
    dev = 0.0
    for u_free in free_pts:
        # sigma'(t, u) = sigma(t, u + c): the matched original parameters
        seeds[:, 1:] = u_free + c[:sheet.free_count]
        dists = _distances_to_sheet(sheet, new_sheet.grid_points(u_free)[::step], seeds)
        dev = max(dev, float(dists.max()))
    return dev


#: free sample positions per free ruling axis of the invariance check,
#: spread over [-u_extent, u_extent]
INVARIANCE_AXIS_SAMPLES = 3


def directrix_invariance(p: RuledPatch, sheet: StrictionSheet, offsets
                         ) -> InvarianceResult:
    """Re-solve the sheet from shifted directrices and compare images.

    Each offset is a constant ruling coordinate vector c. The patch swept
    from the shifted directrix t -> sigma(t, c) along the same frame is
    re-solved on the same grid (`RuledPatch.shift_directrix`): the solved
    coordinates do not change under reparametrization, so no arclength
    map is needed. Since sigma'(t, u) = sigma(t, u + c), the re-solved
    point at (t, u_free) is matched to the original sheet at
    (t, u_free + c_free); from there one least-squares refinement per
    free sample position moves all of an offset's points to their nearest
    sheet points. The deviation is the largest distance from a re-solved
    grid node to the original sheet. An offset whose re-solve fails
    numerically is skipped with its reason.
    """
    fc, grid = p.fc, p.grid
    if sheet.d < 1:
        raise ValidationError("invariance requires a solved sheet (degree >= 1)")
    axis = np.linspace(-grid.u_extent, grid.u_extent, INVARIANCE_AXIS_SAMPLES)
    free_pts = np.array(list(product(axis, repeat=sheet.free_count)))
    per_offset, skipped = [], []
    worst = 0.0
    for c in offsets:
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if c.shape != (fc.m - 1,):
            raise ValidationError(f"offset must have {fc.m - 1} coordinates")
        try:
            dev = _offset_deviation(p, sheet, c, free_pts)
        except NumericError as exc:
            skipped.append((c.tolist(), f"{type(exc).__name__}: {exc}"))
            continue
        per_offset.append((c.tolist(), dev))
        worst = max(worst, dev)
    return InvarianceResult(per_offset=tuple(per_offset), skipped=tuple(skipped),
                            max_deviation=worst)


def write_striction_csv(sheet: StrictionSheet, locus: SingularLocus, path):
    """Sheet export with the fixed header
    t, u1..u{m-d-1}, s{m-d}..s{m-1}, b1..b{m+n}, wedge_residual, singular,
    one row per locus sample (grid parameter and free grid position),
    t-major, with `\r\n` line endings. Each number is its float repr, so
    no field needs the quoting of a CSV writer; each column is formatted
    in one pass and each row joined once."""
    m, d, dim = sheet.fc.m, sheet.d, sheet.fc.dim
    header = (["t"]
              + [f"u{j}" for j in range(1, m - d)]
              + [f"s{j}" for j in range(m - d, m)]
              + [f"b{i}" for i in range(1, dim + 1)]
              + ["wedge_residual", "singular"])
    ts, u_pts = locus.t, locus.u_free
    n, n_pos = locus.residuals.shape
    # one column per free grid position: the t-major order of the locus
    solved = np.stack([sheet.solved(ts, u) for u in u_pts], axis=1).reshape(-1, d)
    points = np.stack([sheet.grid_points(u) for u in u_pts], axis=1).reshape(-1, dim)
    table = np.concatenate([np.repeat(ts, n_pos)[:, None], np.tile(u_pts, (n, 1)),
                            solved, points, locus.residuals.reshape(-1, 1)], axis=1)
    columns = [list(map(float.__repr__, column)) for column in table.T.tolist()]
    columns.append(np.where(locus.singular.ravel(), "true", "false").tolist())
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\r\n")
