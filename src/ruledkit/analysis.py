"""End-to-end analysis of an ingested patch, and its file outputs.

Runs the degree profile, classification, developability residuals,
first-normal-space bounds, per-segment striction solves with the
singularity scan, and the shifted-directrix invariance check, then
writes report.json, striction CSVs and the normalized scene. The OBJ
mesh, a view for 3-D viewers that no verdict reads, is written only on
request (`mesh=True`) and only for surfaces in R^3. A constant-degree
segment split into pivot runs (`classify.segment_analyses`) is reported
run by run, and its invariance deviation per offset is the worst over
its runs.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np

from . import __version__
from .classify import SegmentAnalysis, classify_patch, segment_analyses
from .errors import NumericError
from .exports import write_json, write_mesh_obj
from .ruledgeom import first_normal_bounds_check
from .scene import IngestResult
from .splitmix import check_seed
from .striction import directrix_invariance, offsheet_check, write_striction_csv

DEFAULT_INVARIANCE_SCALES = (0.5, 1.0, -0.7)


def analyze(result: IngestResult, out_dir, seed: int = 0,
            invariance: bool = True, mesh: bool = False) -> dict:
    """Run the full pipeline and write its outputs into `out_dir`.

    Writes report.json, the striction CSVs and normalized_scene.json, and
    with `mesh=True` also mesh.obj; on a scene that is not a surface in
    R^3 a requested mesh is skipped with a note. `outputs` in the report
    lists the files this run wrote; nothing already in `out_dir` is
    deleted. Returns the report dictionary (the same content as
    report.json). The seed drives only the off-sheet spot check of each
    striction sheet (`striction.offsheet_check`); every verdict is
    independent of it.
    """
    seed = check_seed(seed)
    patch = result.patch
    fc, grid, tol = patch.fc, patch.grid, patch.tol
    os.makedirs(out_dir, exist_ok=True)
    notes = list(result.notes)

    profile = patch.profile
    segments = segment_analyses(patch)
    classification = classify_patch(patch, segments=segments)
    r1 = patch.rank_one

    bounds_sections = []
    striction_sections = []
    csv_names = []
    solved: list[SegmentAnalysis] = []  # the segments with a sheet
    for k, seg in enumerate(segments):
        d = seg.d
        if seg.narrow:
            notes.append(f"segment {k} too narrow to analyze "
                         f"({seg.i1 - seg.i0} samples at degree {d})")
            continue
        sub = seg.patch
        t_range = [float(sub.grid.t_samples[0]), float(sub.grid.t_samples[-1])]
        bounds = first_normal_bounds_check(sub, d)
        bounds_sections.append({
            "t_range": t_range,
            "degree": d,
            "checked": bounds.checked,
            "skipped_singular": bounds.skipped_singular,
            "violations": [list(v) for v in bounds.violations],
        })
        if d == 0:
            continue
        try:
            sheet, locus = seg.sheet, seg.locus
            offsheet = offsheet_check(seg.pivoted, sheet, seed)
            eq = seg.equivalent_condition
            ranks = seg.jacobian_ranks
        except NumericError as exc:
            notes.append(f"striction unavailable on segment {k}: {exc}")
            continue
        name = "striction.csv" if len(segments) == 1 else f"striction_seg{k}.csv"
        write_striction_csv(sheet, locus, os.path.join(out_dir, name))
        csv_names.append(name)
        striction_sections.append({
            "t_range": t_range,
            "degree": d,
            "sheet_dimension": sheet.free_count + 1,
            "max_defining_residual": sheet.max_defining_residual,
            "solve_fallback_t": [float(t) for t in sheet.fallback_ts],
            "singular_fraction": locus.singular_fraction,
            "offsheet": {"total": offsheet.total, "regular": offsheet.regular},
            "equivalent_condition": {"all_agree": eq.all_agree,
                                     "skipped_t": list(eq.skipped)},
            "jacobian_rank_range": [int(ranks.min()), int(ranks.max())],
            "csv": name,
        })
        solved.append(seg)

    invariance_section = None
    if invariance and solved and len(solved) == len(segments) and profile.constant_degree:
        offsets = [np.full(fc.m - 1, s) for s in DEFAULT_INVARIANCE_SCALES]
        per_offset, skipped = [], []
        for c in offsets:  # the worst over the runs, or the first reason to skip
            runs = [directrix_invariance(seg.pivoted, seg.sheet, [c]) for seg in solved]
            reasons = [reason for inv in runs for _, reason in inv.skipped]
            if reasons:
                skipped.append([c.tolist(), reasons[0]])
            else:
                per_offset.append([c.tolist(), max(inv.per_offset[0][1] for inv in runs)])
        if skipped:
            notes.append("directrix invariance skipped offsets "
                         + ", ".join(str(c) for c, _ in skipped)
                         + " (reasons under directrix_invariance.skipped)")
        invariance_section = {
            "offsets": [o.tolist() for o in offsets],
            "per_offset": per_offset,
            "skipped": skipped,
            "max_deviation": max([0.0] + [dev for _, dev in per_offset]),
        }

    mesh_name = None
    if mesh and (fc.dim, fc.m) != (3, 2):
        notes.append("mesh.obj not written: the OBJ mesh is defined for surfaces "
                     "in R^3 (ambient_dim 3, m 2)")
    elif mesh:
        mesh_name = "mesh.obj"
        if len(segments) == len(solved) == 1:
            write_mesh_obj(os.path.join(out_dir, mesh_name), patch, solved[0].sheet)
        else:
            write_mesh_obj(os.path.join(out_dir, mesh_name), patch)

    report = {
        "schema": "ruledkit.report/v1",
        "generator": f"ruledkit {__version__}",
        "scene": result.normalized,
        "notes": notes,
        "ambient_dim": fc.dim,
        "m": fc.m,
        "codim": fc.codim,
        "grid": {"t_samples": int(grid.t_samples.size), "u_extent": grid.u_extent,
                 "u_samples_per_axis": grid.u_samples_per_axis,
                 "interval": [float(fc.interval[0]), float(fc.interval[1])]},
        "tolerances": asdict(tol),
        "seed": seed,
        "degree_profile": {
            "t": grid.t_samples.tolist(),
            "degree": profile.degrees.tolist(),
            "constant_degree": profile.constant_degree,
            "cylindrical": profile.cylindrical,
            "noncylindrical": profile.noncylindrical,
            "borderline_t": list(profile.borderline_t),
        },
        "classification": classification.to_dict(),
        "rank_one": {
            "verdict": r1.verdict,
            "max_residual": r1.max_residual,
            "planar_points": [[t, u] for t, u in r1.planar],
            "residual_table": [[t, r] for t, r in r1.residual_table],
        },
        "first_normal_bounds": bounds_sections,
        "striction": striction_sections,
        "directrix_invariance": invariance_section,
        "outputs": {"mesh": mesh_name, "striction_csv": csv_names},
    }
    write_json(os.path.join(out_dir, "report.json"), report)
    write_json(os.path.join(out_dir, "normalized_scene.json"), result.normalized)
    return report
