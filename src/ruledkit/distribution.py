"""Degree of the ruling distribution and frame pivoting.

For each parameter t the frame derivatives are projected off the ruling
span; the rank of those projections is the degree at t. The projection
and the rank run on stacked arrays, once over the whole grid; the
single-parameter `rho_at` is the same computation on a stack of one.
Pivoting reorders the frame so the trailing d fields alone carry the
full degree, which the striction solver assumes. A pivot only permutes,
so a pivoted frame is as orthonormal as the frame it reorders, at every
t. Where the degree is d, some d rows of rho are independent at every
sample, but which d rows are best conditioned can change along a
segment; `pivot_runs` then splits it into runs that one permutation each
pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import FrameError, NumericError, PivotError, ValidationError
from .multilinear import (DEFAULT_TOLERANCES, RANK_BOUND_MARGIN, TolerancePolicy,
                          _rank_margin, _ratio_margin, rank2_singular_values,
                          rank_mask, settled)
from .parametric import FramedCurve, GridValues, SampleGrid

if TYPE_CHECKING:
    from .ruledgeom import RuledPatch


@dataclass(frozen=True, eq=False)
class RhoSample:
    """Projected frame derivatives at one parameter value."""

    t: float
    rho_vectors: np.ndarray  # (m-1, dim), row j orthogonal to the ruling span
    degree: int
    borderline: bool = False


@dataclass(frozen=True, eq=False)
class DegreeProfile:
    """Projected frame derivatives and the degree at every grid sample."""

    t: np.ndarray           # (N,)
    rho: np.ndarray         # (N, m-1, dim), rho[i, j] orthogonal to the ruling span at t[i]
    degrees: np.ndarray     # (N,) int
    borderline: np.ndarray  # (N,) bool: a singular value sits near the rank cutoff
    #: the profile this one is restricted from and the sample it starts at
    #: there: (None, 0) for a profile of its own, which keeps the subset scores
    root: "DegreeProfile | None" = field(default=None, repr=False)
    offset: int = 0
    _scores: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def constant_degree(self) -> int | None:
        degs = set(self.degrees.tolist())
        return degs.pop() if len(degs) == 1 else None

    @property
    def cylindrical(self) -> bool:
        return bool(np.all(self.degrees == 0))

    @property
    def noncylindrical(self) -> bool:
        return bool(np.all(self.degrees > 0))

    @property
    def borderline_t(self) -> list[float]:
        return [float(t) for t in self.t[self.borderline]]

    def restrict(self, lo: int, hi: int) -> "DegreeProfile":
        """The profile over samples lo..hi-1, which reads its root's subset scores."""
        return DegreeProfile(self.t[lo:hi], self.rho[lo:hi], self.degrees[lo:hi],
                             self.borderline[lo:hi], self.root or self, self.offset + lo)

    def subset_scores(self, d: int) -> tuple[list, np.ndarray]:
        """Every d-subset of the frame fields and, per sample of degree d, the
        smallest singular value of its rho block: the subsets and an
        (N, subsets) array, NaN at the other samples. The root profile scores
        each degree once, on all its samples of that degree, and a profile
        restricted from it reads its rows, so that `pivot_runs` and the
        `pivot_frame` of each run score no subset twice."""
        if self.root is not None:
            subsets, scores = self.root.subset_scores(d)
            return subsets, scores[self.offset:self.offset + self.t.size]
        if d not in self._scores:
            subsets = list(combinations(range(self.rho.shape[1]), d))
            at = np.flatnonzero(self.degrees == d)
            rho = self.rho[at]
            scores = np.full((self.t.size, len(subsets)), np.nan)
            for j, subset in enumerate(subsets):
                scores[at, j] = np.linalg.svd(rho[:, list(subset)], compute_uv=False)[:, -1]
            self._scores[d] = subsets, scores
        return self._scores[d]


def _svd_degrees(rho: np.ndarray, tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """`_degrees` from the singular values of one batched SVD."""
    s = np.linalg.svd(rho, compute_uv=False)
    lead = s[:, 0]
    cutoff = (tol.rank_rel_tol * lead)[:, None]
    degrees = np.count_nonzero(rank_mask(s, tol), axis=1)
    borderline = np.where(lead < tol.zero_abs_tol, lead > 0.1 * tol.zero_abs_tol,
                          np.any((s >= 0.1 * cutoff) & (s <= 10.0 * cutoff), axis=1))
    return degrees, borderline


def _degrees(rho: np.ndarray, tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """Numerical rank of each (m-1, c) block of rho coordinates and whether
    a singular value sits within a factor 10 of the rank cutoff: inside the
    band [0.1, 10] x rank_rel_tol x s1, or, when s1 is below zero_abs_tol,
    above 0.1 zero_abs_tol.

    Blocks of at most two rows read s1 and s2 in closed form
    (`rank2_singular_values`; s2 = 0 for one row, which settles every s2
    test as the SVD's absent s2 does). A verdict is settled where the value
    clears its cutoff or band edge by the rounding margin of that edge
    (`_ratio_margin`); only the blocks next to one go through the SVD
    (`_svd_degrees`). s1's own band test, 0.1 rank_rel_tol <= 1 <=
    10 rank_rel_tol, rounds either way when 10 rank_rel_tol is 1, so
    there every block goes through the SVD.
    """
    if rho.shape[1] > 2:
        return _svd_degrees(rho, tol)
    s1, s2 = rank2_singular_values(rho)
    rel, zero, delta = tol.rank_rel_tol, tol.zero_abs_tol, RANK_BOUND_MARGIN
    lead, lead_ok = settled(s1, zero, delta)
    faint, faint_ok = settled(s1, 0.1 * zero, delta)
    second, second_ok = settled(s2, rel * s1, _rank_margin(tol))
    low, low_ok = settled(s2, 0.1 * rel * s1, _ratio_margin(0.1 * rel))
    high, high_ok = settled(s2, 10.0 * rel * s1, _ratio_margin(10.0 * rel))
    lead_band = 0.1 * rel <= 1.0 <= 10.0 * rel
    degrees = np.where(lead, 1 + second, 0)
    borderline = np.where(lead, lead_band | (low & ~high), faint)
    decided = lead_ok & np.where(lead, second_ok & low_ok & high_ok, faint_ok)
    if abs(10.0 * rel - 1.0) <= delta:
        decided[lead] = False
    if not decided.all():
        degrees[~decided], borderline[~decided] = _svd_degrees(rho[~decided], tol)
    return degrees, borderline


def profile_from_values(values: GridValues,
                        tol: TolerancePolicy = DEFAULT_TOLERANCES) -> DegreeProfile:
    """Degree profile from stacked frame values: the frame derivatives off
    the ruling span, rho = (Xdot comp) comp^T from their coordinates
    Xdot comp in the grid's frame QR (`GridValues.coordinates`), and their
    ranks from those coordinates (`_degrees`).
    A frame that passes the orthonormality check below has full rank, so
    comp spans the whole complement.

    Raises, at the first offending parameter, a validation error when it
    lies outside the curve interval or the frame values there are not
    finite, a frame error when the frame fails its orthonormality
    tolerance, and a numeric error when the degree exceeds min(m-1, n+1).
    """
    fc, ts = values.fc, values.ts
    lo, hi = fc.interval
    outside = np.flatnonzero(~((lo - 1e-9 <= ts) & (ts <= hi + 1e-9)))
    if outside.size:
        first = int(outside[0])
        if first:  # an earlier sample may fail first
            profile_from_values(fc.grid_values(ts[:first]), tol)
        raise ValidationError(f"t={ts[first]} outside curve interval [{lo}, {hi}]")
    x, xdot = values.frame(0), values.frame(1)
    finite = np.isfinite(x).all(axis=(1, 2)) & np.isfinite(xdot).all(axis=(1, 2))
    if not finite.all():
        first = int(np.argmin(finite))
        if first:
            profile_from_values(fc.grid_values(ts[:first]), tol)
        raise ValidationError(f"frame values are not finite at t={ts[first]}")
    g = x @ x.swapaxes(1, 2)
    dev = np.abs(0.5 * (g + g.swapaxes(1, 2)) - np.eye(fc.m - 1)).max(axis=(1, 2))
    coords = values.coordinates(1)[3]
    rho = coords @ values.frame_basis()[2].swapaxes(1, 2)
    degrees, borderline = _degrees(coords, tol)
    bound = min(fc.m - 1, fc.codim + 1)
    bad_frame = dev > tol.derivative_check_tol
    offenders = np.flatnonzero(bad_frame | (degrees > bound))
    if offenders.size:
        i = int(offenders[0])
        if bad_frame[i]:
            raise FrameError(
                f"frame is not orthonormal at t={ts[i]} (deviation {dev[i]:.3e})")
        raise NumericError(
            f"degree {degrees[i]} at t={ts[i]} exceeds the bound min(m-1, n+1)={bound}; "
            "tolerances are likely misconfigured")
    return DegreeProfile(t=ts, rho=rho, degrees=degrees, borderline=borderline)


def rho_at(fc: FramedCurve, t: float, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> RhoSample:
    """Project each frame derivative off the ruling span at t.

    The degree at t is the rank of the projected vectors. Raises a frame
    error when the frame fails its orthonormality tolerance at t.
    """
    profile = profile_from_values(fc.grid_values(np.array([float(t)])), tol)
    return RhoSample(t=float(t), rho_vectors=profile.rho[0],
                     degree=int(profile.degrees[0]),
                     borderline=bool(profile.borderline[0]))


def degree_profile(fc: FramedCurve, grid: SampleGrid,
                   tol: TolerancePolicy = DEFAULT_TOLERANCES) -> DegreeProfile:
    """Degree of the ruling distribution at every grid sample."""
    return profile_from_values(fc.grid_values(grid.parameters), tol)


def equal_runs(values: Sequence) -> list[tuple[int, int]]:
    """Maximal runs of equal consecutive entries, as (start, end_exclusive)."""
    n = len(values)
    if not n:
        return []
    edges = [0] + [i for i in range(1, n) if values[i] != values[i - 1]] + [n]
    return list(zip(edges[:-1], edges[1:]))


def constant_degree_segments(profile: DegreeProfile) -> list[tuple[int, int, int]]:
    """Maximal runs of equal degree, as (start, end_exclusive, degree)."""
    degrees = profile.degrees.tolist()
    return [(i0, i1, degrees[i0]) for i0, i1 in equal_runs(degrees)]


#: fewest samples of a segment or pivot run with a grid of its own; a
#: shorter pivot run joins a neighbour
MIN_SEGMENT_SAMPLES = 3


def pivot_runs(profile: DegreeProfile, d: int,
               tol: TolerancePolicy = DEFAULT_TOLERANCES) -> list[tuple[int, int]]:
    """Runs (start, end_exclusive) of a degree-d profile, each of which one
    frame permutation pivots (`pivot_frame`).

    The samples split where the best-conditioned d-subset of the frame
    (the largest smallest singular value of its rho block) changes: a
    permutation that merely clears `zero_abs_tol` at every sample can
    still lose the degree between two of them. A run shorter than
    `MIN_SEGMENT_SAMPLES` joins a neighbour whose subset clears the cutoff
    on it, the left one first. A profile whose best subset never changes
    is one run, and so is one of degree 0 or m-1, or too short to split.
    """
    n, k = profile.t.size, profile.rho.shape[1]
    if not 0 < d < k or n < MIN_SEGMENT_SAMPLES:
        return [(0, n)]
    _, scores = profile.subset_scores(d)
    best = scores.argmax(axis=1).tolist()
    runs = [[i0, i1, best[i0]] for i0, i1 in equal_runs(best)]
    while True:
        joins = [(i, j) for i, (i0, i1, _) in enumerate(runs) if i1 - i0 < MIN_SEGMENT_SAMPLES
                 for j in (i - 1, i + 1)
                 if 0 <= j < len(runs) and scores[i0:i1, runs[j][2]].min() > tol.zero_abs_tol]
        if not joins:
            return [(i0, i1) for i0, i1, _ in runs]
        i, j = joins[0]
        lo, hi = min(i, j), max(i, j)
        runs[lo:hi + 1] = [[runs[lo][0], runs[hi][1], runs[j][2]]]


def pivot_frame(p: RuledPatch, d: int) -> RuledPatch:
    """The patch with its frame reordered so the last d fields carry the
    full degree; `p` itself when the frame already does.

    Reads the patch's cached degree profile and takes the permutation
    whose trailing rho block is best conditioned over the whole grid.
    Raises `PivotError` with the failing samples when that block falls to
    `zero_abs_tol` somewhere. The runs of `pivot_runs` are grids that one
    permutation each pivots. The reordered patch permutes the frame arrays
    of `p`'s values (`GridValues.with_frame`) and evaluates no field.
    """
    if d < 1:
        raise ValidationError("pivot requires degree >= 1")
    fc, profile, tol = p.fc, p.profile, p.tol
    k = fc.m - 1
    bad = [float(t) for t in profile.t[profile.degrees != d]]
    if bad:
        raise ValidationError(
            f"degree is not constantly {d} on the grid (first offenders: {bad[:3]})")
    if d == k:
        return p
    subsets, scores = profile.subset_scores(d)
    best = int(np.argmax(scores.min(axis=0)))
    failing = profile.t[scores[:, best] <= tol.zero_abs_tol]
    if failing.size:
        raise PivotError(
            f"no frame permutation makes the trailing {d} fields carry the degree; "
            f"failing t: {failing[:5].tolist()}")
    order = [j for j in range(k) if j not in subsets[best]] + list(subsets[best])
    if order == list(range(k)):
        return p
    pivoted = replace(p, fc=fc.with_frame([fc.frame[j] for j in order]))
    vars(pivoted)["values"] = p.values.with_frame(pivoted.fc, order)
    return pivoted
