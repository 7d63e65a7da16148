"""Built-in verification corpus.

Runs every release-gate check against the builtin patch families at
their stated tolerances and reports one line per criterion group. The
pytest acceptance module asserts exactly these results, so `ruledkit
selftest` reproduces the test gate from the shell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .classify import (CONICAL, CYLINDRICAL, NON_RANK_ONE, TANGENT,
                       SegmentAnalysis, classify_patch, converse_check,
                       segment_analyses)
from .errors import RuledKitError
from .multilinear import TolerancePolicy
from .oracles import max_derivative_error
from .parametric import SampleGrid, make_builtin_patch
from .ruledgeom import (RuledPatch, _pair_jacobians, _regularity, first_normal_bounds_check,
                        flatness_check, sectional_curvature, tangent_space_stability)
from .scene import DEFAULT_GRID, check_grid_budget
from .splitmix import SplitMix64, check_seed
from .striction import directrix_invariance, striction_systems

CORPUS_DEGREES = {
    "cylinder_helix": 0,
    "rotating_cylinder": 0,
    "helicoid_frame": 1,
    "circular_cone": 1,
    "tangent_developable_helix": 1,
    "tangent_developable_product": 1,
    "two_rotation_r5": 2,
}

EXPECTED_KINDS = {
    "cylinder_helix": CYLINDRICAL,
    "rotating_cylinder": CYLINDRICAL,
    "helicoid_frame": NON_RANK_ONE,
    "circular_cone": CONICAL,
    "tangent_developable_helix": TANGENT,
    "tangent_developable_product": TANGENT,
    "two_rotation_r5": NON_RANK_ONE,
}

#: patches without planar points, where the three developability
#: characterizations must agree
EQUIVALENCE_PATCHES = [
    "cylinder_helix", "helicoid_frame", "circular_cone",
    "tangent_developable_helix", "tangent_developable_product", "two_rotation_r5",
]

DEGREE_ONE_PATCHES = [
    "helicoid_frame", "circular_cone", "tangent_developable_helix",
    "tangent_developable_product",
]

#: patches of constant positive degree whose striction systems are checked
SYSTEM_PATCHES = [
    "helicoid_frame", "circular_cone", "tangent_developable_helix",
    "tangent_developable_product", "two_rotation_r5",
]

FLATNESS_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f"  [{self.detail}]" if self.detail else ""
        return f"[{status}] criterion {self.criterion}: {self.name}{detail}"


def build_corpus(tol: TolerancePolicy, t_samples: int = 200) -> dict[str, RuledPatch]:
    """The corpus patches on `t_samples`-point grids with the default ruling
    axes; the work budget of `scene.ingest` is checked before any grid is built."""
    curves = {name: make_builtin_patch(name) for name in CORPUS_DEGREES}
    u = DEFAULT_GRID["u_samples_per_axis"]
    for fc in curves.values():
        check_grid_budget(t_samples, u, fc.m)
    return {name: RuledPatch(fc, SampleGrid.uniform(fc.interval, t_samples,
                                                    u_samples_per_axis=u), tol)
            for name, fc in curves.items()}


#: a candidate ruling pair of the stability sweep is kept when both of
#: its Jacobians have a condition number s1 / s_m below this, that is a
#: smallest over largest singular value above its inverse
PAIR_CONDITION_LIMIT = 1e3


def _regular_pairs(p: RuledPatch, t: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Mask of the (P, 2, m-1) candidate pairs whose two Jacobians at
    their t, (P,), both have a condition number below
    `PAIR_CONDITION_LIMIT`: the package's rank rule at
    rank_rel_tol = 1 / `PAIR_CONDITION_LIMIT` (`ruledgeom._regularity`),
    or at the patch's own rank_rel_tol where that is coarser, with the
    patch's zero_abs_tol, on the pairs' reduced Jacobians
    (`_pair_jacobians`). So every kept point is regular for the stability
    check too, and only m >= 3 points next to the cutoff reach the SVD, of
    their m x m reduced Jacobians.
    """
    jac, _ = _pair_jacobians(p, t, candidates)
    rel = max(p.tol.rank_rel_tol, 1.0 / PAIR_CONDITION_LIMIT)
    return _regularity(jac, replace(p.tol, rank_rel_tol=rel)).all(axis=1)


def _stability_sweep(p: RuledPatch, pairs_per_t: int, seed: int) -> bool:
    """Tangent-space stability over random regular ruling pairs at each grid t.

    In each of at most 50 rounds, the SplitMix64 stream of `seed` draws
    `pairs_per_t` candidate pairs for every t still short of `pairs_per_t`
    regular pairs, as one (t, pairs_per_t, 2, m-1) block tested in one
    stack. A t keeps its first `pairs_per_t` regular candidates in draw
    order, so it gives up after `50 * pairs_per_t` candidates. All kept
    pairs, each with its own t, go in t order to one
    `tangent_space_stability` call.
    """
    stream = SplitMix64(seed)
    ext, k, ts = p.grid.u_extent, p.m - 1, p.grid.t_samples
    need = np.full(ts.size, pairs_per_t)
    kept_t, kept = [], []
    for _ in range(50):
        short = np.flatnonzero(need)
        if not short.size:
            break
        candidates = stream.uniform(-ext, ext, (short.size, pairs_per_t, 2, k))
        ok = _regular_pairs(p, np.repeat(ts[short], pairs_per_t),
                            candidates.reshape(-1, 2, k)).reshape(short.size, pairs_per_t)
        ok &= np.cumsum(ok, axis=1) <= need[short, None]
        need[short] -= ok.sum(axis=1)
        kept_t.append(short[np.nonzero(ok)[0]])
        kept.append(candidates[ok])
    pair_t = np.concatenate(kept_t)
    order = np.argsort(pair_t, kind="stable")
    return tangent_space_stability(p, ts[pair_t[order]], np.concatenate(kept)[order])


def run_selftest(tol: TolerancePolicy | None = None, seed: int = 0,
                 t_samples: int = 200) -> list[CheckResult]:
    """Run every acceptance criterion; one result per named check.

    The seed drives the ruling pairs of the stability sweep and the
    derivative oracle's sample points; criterion 4's off-sheet regularity
    is the deterministic certificate of each sheet
    (`striction.offsheet_certificate`).
    """
    seed = check_seed(seed)
    tol = tol or TolerancePolicy()
    results: list[CheckResult] = []

    def record(criterion, name, passed, detail=""):
        results.append(CheckResult(criterion, name, bool(passed), detail))

    def guarded(criterion, name, fn):
        try:
            fn()
        except RuledKitError as exc:
            record(criterion, name, False, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # a crash is a failure, not an abort
            record(criterion, name, False, f"unexpected {type(exc).__name__}: {exc}")

    patches = build_corpus(tol, t_samples)

    @functools.cache
    def segments(name):
        """The patch's segment holders, built once and shared by all criteria."""
        return segment_analyses(patches[name])

    def whole(name) -> SegmentAnalysis:
        """The holder of the whole patch at its corpus degree: the patch's own
        single segment when its degree is constant, so its sheet is solved once."""
        segs, d = segments(name), CORPUS_DEGREES[name]
        if len(segs) == 1 and segs[0].d == d:
            return segs[0]
        return SegmentAnalysis(patches[name], 0, t_samples, d)

    # -- criterion 1: degree profiles and the degree bound -----------------
    def c1():
        for name, expected in CORPUS_DEGREES.items():
            p = patches[name]
            prof = p.profile
            bound = min(p.m - 1, p.fc.codim + 1)
            ok = (prof.constant_degree == expected
                  and all(d <= bound for d in prof.degrees))
            record(1, f"degree profile {name}", ok,
                   f"degree={prof.constant_degree} expected={expected} bound={bound}")
    guarded(1, "degree profiles", c1)

    # -- criterion 2: striction recovery ------------------------------------
    def c2():
        sqrt2 = math.sqrt(2.0)
        sheet = whole("circular_cone").sheet
        u_err = float(np.abs(sheet.grid_solved()[:, 0] + sqrt2).max())
        apex_err = float(np.linalg.norm(sheet.grid_points(()), axis=1).max())
        record(2, "cone solved coordinate -sqrt(2)", u_err < 1e-8, f"max err {u_err:.2e}")
        record(2, "cone apex at origin", apex_err < 1e-6, f"max |beta| {apex_err:.2e}")

        sheet = whole("helicoid_frame").sheet
        axis_err = float(np.linalg.norm(sheet.grid_points(())[:, :2], axis=1).max())
        record(2, "helicoid striction line is the axis", axis_err < 1e-8,
               f"max off-axis {axis_err:.2e}")

        sheet = whole("tangent_developable_helix").sheet
        ts = sheet.grid.t_samples
        u_err = float(np.abs(sheet.grid_solved()[:, 0]).max())
        curve_err = float(np.linalg.norm(sheet.grid_points(()) - sheet.fc.directrix.eval(ts, 0),
                                         axis=1).max())
        record(2, "tangent developable sheet is the directrix",
               u_err < 1e-8 and curve_err < 1e-6,
               f"max |u| {u_err:.2e}, max |beta-curve| {curve_err:.2e}")
    guarded(2, "striction recovery", c2)

    # -- criterion 3: striction system structure ----------------------------
    def c3():
        for name in SYSTEM_PATCHES:
            d = CORPUS_DEGREES[name]
            pivoted = whole(name).pivoted
            a, _ = striction_systems(pivoted, d)
            rho = pivoted.profile.rho[:, pivoted.m - 1 - d:]
            worst_sym = float(np.abs(a - a.swapaxes(1, 2)).max())
            worst_gram = float(np.abs(a - rho @ rho.swapaxes(1, 2)).max())
            pd_ok = bool((np.linalg.eigvalsh(a).min(axis=1) > 0.0).all())
            ok = worst_sym <= 1e-10 and worst_gram <= 1e-10 and pd_ok
            record(3, f"striction system structure {name}", ok,
                   f"sym {worst_sym:.2e}, gram {worst_gram:.2e}, pd {pd_ok}")
    guarded(3, "striction system structure", c3)

    # -- criterion 4: singularity localization ------------------------------
    def c4():
        for name in ["circular_cone", "tangent_developable_helix",
                     "tangent_developable_product"]:
            seg = whole(name)
            locus, offsheet = seg.locus, seg.offsheet
            ok = locus.singular_fraction >= 0.99 and offsheet.certified
            record(4, f"singularities confined to the sheet: {name}", ok,
                   f"coverage {locus.singular_fraction:.3f}, "
                   f"off-sheet certified {offsheet.certified}, margin {offsheet.margin:.2e}")
        locus = whole("helicoid_frame").locus
        record(4, "helicoid sheet has no singular samples",
               locus.singular_fraction == 0.0,
               f"fraction {locus.singular_fraction:.3f}")
    guarded(4, "singularity localization", c4)

    # -- criterion 5: developability characterizations agree ----------------
    def c5():
        for name in EQUIVALENCE_PATCHES:
            p = patches[name]
            wedge_verdict = p.rank_one.verdict
            flat_verdict = flatness_check(p).is_flat(FLATNESS_TOL)
            stable_verdict = _stability_sweep(p, pairs_per_t=10, seed=seed)
            ok = wedge_verdict == flat_verdict == stable_verdict
            record(5, f"characterizations agree: {name}", ok,
                   f"wedge={wedge_verdict} flat={flat_verdict} stable={stable_verdict}")
        k = sectional_curvature(patches["helicoid_frame"], 0.0, [0.0])
        record(5, "helicoid curvature at the axis", abs(k + 1.0) < 1e-6, f"K={k!r}")
    guarded(5, "developability characterizations", c5)

    # -- criterion 6: first normal space bounds -----------------------------
    def c6():
        for name, d in CORPUS_DEGREES.items():
            report = first_normal_bounds_check(patches[name], d)
            record(6, f"first normal bounds {name}", report.ok,
                   f"checked {report.checked}, violations {len(report.violations)}")
    guarded(6, "first normal bounds", c6)

    # -- criterion 7: directrix invariance ----------------------------------
    def c7():
        for name in ["circular_cone", "tangent_developable_helix"]:
            seg = whole(name)
            inv = directrix_invariance([(seg.pivoted, seg.sheet)])
            ok = inv.max_deviation < 1e-6 and not inv.skipped
            record(7, f"directrix invariance {name}", ok,
                   f"max deviation {inv.max_deviation:.2e}")
    guarded(7, "directrix invariance", c7)

    # -- criterion 8: classification ----------------------------------------
    def c8():
        for name, expected in EXPECTED_KINDS.items():
            rep = classify_patch(patches[name], segments=segments(name))
            kinds = rep.kinds()
            ok = kinds == [expected]
            detail = f"kinds={kinds} expected=[{expected}]"
            if name == "tangent_developable_product" and ok:
                sheet = whole(name).sheet
                ok = sheet.free_count + 1 == 2
                detail += f", sheet dimension {sheet.free_count + 1}"
            record(8, f"classification {name}", ok, detail)
        for name in DEGREE_ONE_PATCHES:
            cv = converse_check(patches[name], segments=segments(name))
            record(8, f"singularity/developability converse {name}", cv.agree,
                   f"rank_one={cv.rank_one} coverage={cv.singular_coverage:.3f}")
    guarded(8, "classification", c8)

    # -- criterion 9: numerical hygiene --------------------------------------
    def c9():
        for name, p in patches.items():
            fields = [p.fc.directrix, *p.fc.frame]
            worst = 0.0
            for f in fields:
                for order in (1, 2):
                    worst = max(worst, max_derivative_error(
                        f, p.fc.interval, order, n=50, seed=seed))
            record(9, f"analytic vs finite-difference derivatives {name}",
                   worst < 1e-7, f"max err {worst:.2e}")
        rep = classify_patch(patches["rotating_cylinder"],
                             segments=segments("rotating_cylinder"))
        record(9, "rotating-frame cylinder classified cylindrical",
               rep.kinds() == [CYLINDRICAL], f"kinds={rep.kinds()}")
    guarded(9, "numerical hygiene", c9)

    return results


def format_results(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
