"""Segment a ruled patch into labeled regions.

The pipeline: degree profile -> maximal constant-degree segments -> their
pivot runs (`distribution.pivot_runs`, one per segment unless its best
pivot changes) -> per run, decide cylindrical (degree 0 or fully planar),
tangent/conical (degree 1, developable, singular along the sheet, split
by the sheet's generic rank), or non-rank-one. Samples at verdict changes
are boundary points. Regions of one kind in adjacent runs of a segment
merge with no boundary point between them; tangent and conical regions
narrower than the minimum width after the merge stay undetermined.

A sample's generic rank is the largest sheet Jacobian rank over its free
grid positions, m-1 on a tangent sample and m-2 on a conical one. The
rank is lower semicontinuous, so that is the rank on an open dense set of
free coordinates: a thinner singular set of the sheet, such as an
osculating developable's cuspidal edge, moves no verdict. The floor m-d-1
of `striction.sheet_jacobian_ranks` holds at every position, not only for
the generic rank, since the free partials are independent everywhere.

Every verdict is a deterministic function of the degree profile and the
striction sheet; nothing here draws random numbers. The off-sheet
certificate (`striction.offsheet_certificate`), which no verdict reads,
is a holder's artifact that only `analysis` and the selftest read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .distribution import (MIN_SEGMENT_SAMPLES, constant_degree_segments, equal_runs,
                           pivot_frame, pivot_runs)
from .errors import DegeneracyError, NumericError, PivotError, ValidationError
from .multilinear import TolerancePolicy
from .ruledgeom import RuledPatch
from .striction import (EquivalentConditionResult, OffsheetCertificate, SingularLocus,
                        StrictionSheet, equivalent_condition_check, offsheet_certificate,
                        sheet_jacobian_ranks, singular_locus, solve_striction)

CYLINDRICAL = "cylindrical"
CONICAL = "conical"
TANGENT = "tangent"
NON_RANK_ONE = "non_rank_one"
UNDETERMINED = "undetermined"

#: a kind-run must span at least this many grid steps to become a region
MIN_RUN_STEPS = 4
#: fraction of sheet samples that must be singular to accept the
#: "singular along the striction sheet" hypothesis
SINGULAR_COVERAGE = 0.99


@dataclass(frozen=True, eq=False)
class RegionEvidence:
    degree: int
    max_rank_one_residual: float | None = None
    striction_rank_profile: tuple[int, ...] = ()
    singular_fraction: float | None = None
    planar: bool = False
    apex: tuple[float, ...] | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "max_rank_one_residual": self.max_rank_one_residual,
            "striction_rank_profile": list(self.striction_rank_profile),
            "singular_fraction": self.singular_fraction,
            "planar": self.planar,
            "apex": list(self.apex) if self.apex is not None else None,
            "notes": list(self.notes),
        }


@dataclass(frozen=True, eq=False)
class Region:
    t_range: tuple[float, float]
    kind: str
    evidence: RegionEvidence

    def validate(self, m: int, tol: TolerancePolicy):
        """Consistency of the label with its evidence."""
        ev = self.evidence
        if self.kind == CYLINDRICAL and not (ev.degree == 0 or ev.planar):
            raise ValidationError("cylindrical label requires degree 0 or planarity")
        if self.kind in (CONICAL, TANGENT):
            if ev.degree != 1:
                raise ValidationError(f"{self.kind} label requires degree 1")
            if ev.max_rank_one_residual is None or \
                    ev.max_rank_one_residual >= tol.zero_abs_tol:
                raise ValidationError(f"{self.kind} label requires vanishing "
                                      "developability residuals")
            if ev.singular_fraction is None or ev.singular_fraction < SINGULAR_COVERAGE:
                raise ValidationError(f"{self.kind} label requires a singular sheet")
            want = m - 2 if self.kind == CONICAL else m - 1
            if ev.striction_rank_profile != (want,):
                raise ValidationError(
                    f"{self.kind} label requires sheet rank {want}, "
                    f"got {ev.striction_rank_profile}")

    def to_dict(self) -> dict:
        return {"t_range": [self.t_range[0], self.t_range[1]],
                "kind": self.kind,
                "evidence": self.evidence.to_dict()}


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    regions: tuple[Region, ...]
    boundary_points: tuple[float, ...]
    is_rank_one: bool
    is_cylinder: bool
    degrees: tuple[int, ...]
    borderline_t: tuple[float, ...] = ()

    def kinds(self) -> list[str]:
        return [r.kind for r in self.regions]

    def to_dict(self) -> dict:
        return {
            "regions": [r.to_dict() for r in self.regions],
            "boundary_points": list(self.boundary_points),
            "is_rank_one": self.is_rank_one,
            "is_cylinder": self.is_cylinder,
            "degrees": list(self.degrees),
            "borderline_t": list(self.borderline_t),
        }


class SegmentAnalysis:
    """One pivot run of a constant-degree segment of a patch, samples
    i0..i1-1 at degree d (the whole segment when one permutation pivots it).

    Each artifact (pivoted patch, striction sheet, singular locus,
    off-sheet certificate, equivalent-condition check, sheet Jacobian
    ranks) is computed on first use and kept, so the classifier and the
    report read the same objects. A stage that raises is not kept and
    raises again when read.
    """

    def __init__(self, parent: RuledPatch, i0: int, i1: int, d: int):
        self.parent, self.i0, self.i1, self.d = parent, i0, i1, d

    @property
    def narrow(self) -> bool:
        """Too few samples for a grid of its own."""
        return self.i1 - self.i0 < MIN_SEGMENT_SAMPLES

    @cached_property
    def patch(self) -> RuledPatch:
        return self.parent.restrict(self.i0, self.i1)

    @cached_property
    def pivoted(self) -> RuledPatch:
        return pivot_frame(self.patch, self.d)

    @cached_property
    def sheet(self) -> StrictionSheet:
        return solve_striction(self.pivoted, self.d)

    @cached_property
    def locus(self) -> SingularLocus:
        return singular_locus(self.pivoted, self.sheet)

    @cached_property
    def equivalent_condition(self) -> EquivalentConditionResult:
        return equivalent_condition_check(self.pivoted, self.sheet, self.locus)

    @cached_property
    def offsheet(self) -> OffsheetCertificate:
        return offsheet_certificate(self.pivoted, self.sheet)

    @cached_property
    def jacobian_ranks(self) -> np.ndarray:
        """(N, P) sheet Jacobian rank at every sample and free grid position."""
        return sheet_jacobian_ranks(self.pivoted, self.sheet)


def segment_analyses(p: RuledPatch) -> list[SegmentAnalysis]:
    """One holder per pivot run of each maximal constant-degree run of the
    patch's profile; adjacent holders of one degree are runs of one
    segment."""
    return [SegmentAnalysis(p, i0 + lo, i0 + hi, d)
            for i0, i1, d in constant_degree_segments(p.profile)
            for lo, hi in pivot_runs(p.profile.restrict(i0, i1), d, p.tol)]


def _rank_runs(verdicts: list[str | None], ts: np.ndarray):
    """Maximal runs of identical non-None verdicts; None samples are boundaries."""
    runs = [(i0, i1, verdicts[i0]) for i0, i1 in equal_runs(verdicts)
            if verdicts[i0] is not None]
    boundaries = [float(ts[i]) for i, v in enumerate(verdicts) if v is None]
    return runs, boundaries


def _classify_segment(seg: SegmentAnalysis):
    """Kind runs (start, end_exclusive, kind, evidence), in the parent
    patch's samples, and boundary samples for one segment holder.

    The holder's evidence record gains fields as the stages run; a stage
    that decides the whole holder returns it as one run.
    """
    p, d = seg.patch, seg.d
    ts = p.grid.t_samples
    m = p.m
    ev = RegionEvidence(degree=d)

    def whole(kind: str, **fields):
        return [(seg.i0, seg.i1, kind, replace(ev, **fields))], []

    scan = p.scan
    regular = int(np.count_nonzero(scan.regular))
    planar = int(np.count_nonzero(scan.regular & (scan.dims == 0)))
    planar_all = regular > 0 and planar == regular
    if d == 0:
        return whole(CYLINDRICAL, planar=planar_all,
                     notes=("planar region",) if planar_all else ())

    if planar_all:
        return whole(CYLINDRICAL, planar=True,
                     notes=("planar region swept by a moving frame; treated as cylindrical",))

    r1 = p.rank_one
    ev = replace(ev, max_rank_one_residual=r1.max_residual)
    if d >= 2 or not r1.verdict:
        return whole(NON_RANK_ONE, notes=(f"{len(r1.planar)} isolated planar samples",)
                     if r1.planar else ())

    try:
        sheet = seg.sheet
    except (PivotError, DegeneracyError) as exc:
        return whole(UNDETERMINED, notes=(f"striction unavailable: {exc}",))

    ev = replace(ev, singular_fraction=seg.locus.singular_fraction)
    if ev.singular_fraction < SINGULAR_COVERAGE:
        return whole(UNDETERMINED, notes=("developable segment whose sheet is not "
                                          "singular at the required coverage",))

    try:
        ranks = seg.jacobian_ranks
    except NumericError as exc:
        return whole(UNDETERMINED, notes=(f"sheet rank profile unavailable: {exc}",))

    generic = ranks.max(axis=1).tolist()
    runs, boundary = _rank_runs([TANGENT if r == m - 1 else CONICAL if r == m - 2 else None
                                 for r in generic], ts)
    out = []
    for i0, i1, kind in runs:
        apex = None
        if kind == CONICAL and sheet.free_count == 0:
            pts = sheet.grid_points(())[i0:i1]
            if np.linalg.norm(pts - pts.mean(axis=0), axis=1).max() < 1e-6:
                apex = tuple(float(v) for v in pts.mean(axis=0))
        out.append((seg.i0 + i0, seg.i0 + i1, kind, replace(
            ev, striction_rank_profile=(m - 1 if kind == TANGENT else m - 2,), apex=apex)))
    return out, boundary


def _worst(a: RegionEvidence, b: RegionEvidence) -> RegionEvidence:
    """The evidence of one region over two adjacent pivot runs: the worse
    value of each, and the notes of both."""
    residuals = [v for v in (a.max_rank_one_residual, b.max_rank_one_residual) if v is not None]
    fractions = [v for v in (a.singular_fraction, b.singular_fraction) if v is not None]
    return replace(a, max_rank_one_residual=max(residuals, default=None),
                   singular_fraction=min(fractions, default=None), planar=a.planar and b.planar,
                   notes=tuple(dict.fromkeys(a.notes + b.notes)))


def classify_patch(p: RuledPatch,
                   segments: list[SegmentAnalysis] | None = None) -> ClassificationReport:
    """Label the sampled patch region by region.

    `segments` are the patch's segment holders when the caller keeps them
    (see `segment_analyses`), so that their artifacts are computed once.
    """
    if segments is None:
        segments = segment_analyses(p)
    profile = p.profile
    ts = p.grid.t_samples

    runs: list[list] = []  # [start, end_exclusive, kind, evidence], merged across pivot runs
    boundary: list[float] = []
    for k, seg in enumerate(segments):
        if seg.narrow:
            # too narrow even to sample; its points are boundary material
            boundary.extend(float(t) for t in ts[seg.i0:seg.i1])
            continue
        seg_runs, seg_boundary = _classify_segment(seg)
        boundary.extend(seg_boundary)
        for i0, i1, kind, ev in seg_runs:
            if runs and runs[-1][1:3] == [i0, kind] and runs[-1][3].degree == ev.degree:
                runs[-1][1], runs[-1][3] = i1, _worst(runs[-1][3], ev)
            else:
                runs.append([i0, i1, kind, ev])
        if seg.i1 < ts.size and segments[k + 1].d != seg.d:
            boundary.append(float(0.5 * (ts[seg.i1 - 1] + ts[seg.i1])))

    regions = []
    for i0, i1, kind, ev in runs:
        rng = (float(ts[i0]), float(ts[i1 - 1]))
        if kind in (TANGENT, CONICAL) and (i1 - 1) - i0 < MIN_RUN_STEPS:
            kind, ev = UNDETERMINED, replace(
                ev, apex=None, notes=("run narrower than the minimum region width",))
        regions.append(Region(rng, kind, ev))

    report = ClassificationReport(
        regions=tuple(regions),
        boundary_points=tuple(sorted(boundary)),
        is_rank_one=p.rank_one.verdict,
        is_cylinder=profile.cylindrical,
        degrees=tuple(profile.degrees.tolist()),
        borderline_t=tuple(profile.borderline_t),
    )
    for region in report.regions:
        region.validate(p.m, p.tol)
    return report


@dataclass(frozen=True, eq=False)
class ConverseResult:
    agree: bool
    rank_one: bool
    singular_coverage: float


def converse_check(p: RuledPatch,
                   segments: list[SegmentAnalysis] | None = None) -> ConverseResult:
    """On a degree-one patch, developability and a fully singular sheet
    must come together; returns whether the two verdicts agree.

    `segments` are the patch's segment holders when the caller keeps them
    (see `segment_analyses`): the pivot runs of its one segment, at degree
    one. The coverage is the smallest over them.
    """
    if p.profile.constant_degree != 1:
        raise ValidationError("converse check requires degree 1 on the whole grid")
    if segments is None:
        segments = segment_analyses(p)
    coverage = min(seg.locus.singular_fraction for seg in segments)
    r1 = p.rank_one
    covered = coverage >= SINGULAR_COVERAGE
    return ConverseResult(agree=(covered == r1.verdict),
                          rank_one=r1.verdict,
                          singular_coverage=coverage)
