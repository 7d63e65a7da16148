"""Built-in verification corpus.

Runs every release-gate check against the builtin patch families at
their stated tolerances and reports one line per criterion group. The
pytest acceptance module asserts exactly these results, so `ruledkit
selftest` reproduces the test gate from the shell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classify import (CONICAL, CYLINDRICAL, NON_RANK_ONE, TANGENT,
                       SegmentAnalysis, classify_patch, converse_check,
                       segment_analyses)
from .errors import RuledKitError
from .multilinear import RANK_BOUND_MARGIN, TolerancePolicy
from .oracles import max_derivative_error
from .parametric import SampleGrid, make_builtin_patch
from .ruledgeom import (RuledPatch, _frobenius_conditions,
                        _pair_jacobians, _reduced_singular_values,
                        first_normal_bounds_check, flatness_check, jacobians_at,
                        sectional_curvature, tangent_space_stability)
from .scene import DEFAULT_GRID, check_grid_budget, check_seed
from .striction import directrix_invariance, offsheet_check, striction_systems

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
INVARIANCE_OFFSET_SCALES = (0.5, 1.0, -0.7)


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
#: its Jacobians have a condition number s1 / s_m of at most this, that
#: is a smallest over largest singular value of at least its inverse
PAIR_CONDITION_LIMIT = 1e3


def _pair_condition_verdicts(jac: np.ndarray, r_inv: np.ndarray):
    """(kept, undecided) masks of the `PAIR_CONDITION_LIMIT` rule on a
    (..., m, m) stack of reduced Jacobians with their R^-1
    (`ruledgeom._pair_jacobians`).

    For m = 2 the rule reads the closed-form singular values
    (`_reduced_singular_values`). For m >= 3 it reads the Frobenius
    condition number, kappa_2 <= kappa_F <= m kappa_2
    (`_frobenius_conditions`): a point is kept when
    kappa_F < (1 - delta) limit and dropped when
    kappa_F > (1 + delta) m limit. delta = `RANK_BOUND_MARGIN` covers the
    rounding of the closed forms and of LAPACK's s_m / s1, a few
    eps kappa_2 relative, below 1e-12 at the limit. The points in between
    are `undecided`.
    """
    delta, limit = RANK_BOUND_MARGIN, PAIR_CONDITION_LIMIT
    if jac.shape[-1] == 2:
        s = _reduced_singular_values(jac)
        kept = s[..., 1] * limit > (1.0 + delta) * s[..., 0]
        dropped = s[..., 1] * limit < (1.0 - delta) * s[..., 0]
    else:
        _, kappa_b = _frobenius_conditions(jac, r_inv)
        b = jac[..., 0, -1]
        kept = kappa_b < (1.0 - delta) * limit * b
        dropped = kappa_b > (1.0 + delta) * jac.shape[-1] * limit * b
    return kept, ~(kept | dropped)


def _regular_pairs(p: RuledPatch, t, candidates: np.ndarray) -> np.ndarray:
    """Mask of the (P, 2, m-1) candidate pairs whose two Jacobians at t
    (one shared parameter or one per pair) both have a condition number
    of at most `PAIR_CONDITION_LIMIT`. The verdicts come from the reduced
    Jacobians (`_pair_condition_verdicts`); only points near the limit go
    through the SVD of their ambient Jacobians."""
    t = np.broadcast_to(np.asarray(t, dtype=float), candidates.shape[:1])
    jac, _, r_inv = _pair_jacobians(p, t, candidates)
    kept, undecided = _pair_condition_verdicts(jac, r_inv)
    if undecided.any():
        at = np.nonzero(undecided)
        s = np.linalg.svd(jacobians_at(p, t[at[0]], candidates[at]), compute_uv=False)
        lead = s[:, 0]
        margins = np.divide(s[:, -1], lead, out=np.zeros_like(lead), where=lead > 0)
        kept[at] = ~(margins < 1.0 / PAIR_CONDITION_LIMIT)
    return kept.all(axis=1)


def _stability_sweep(p: RuledPatch, pairs_per_t: int, seed: int) -> bool:
    """Tangent-space stability over random regular ruling pairs at each grid t.

    Draw contract: the pairs are those of a one-pair-at-a-time loop over
    t with one generator seeded by `seed`, which draws a candidate pair
    until `pairs_per_t` were regular or `50 * pairs_per_t` were drawn at
    that t. Each round draws the first `pairs_per_t` candidates of every
    remaining t at once and tests them in one stack. At the first t with
    a rejected candidate the generator is rewound to the round's start
    and advanced past the draws up to that t's first candidates; that t
    is finished with per-t redraws, then the next round starts at the
    following t. All accepted pairs, each with its own t, go to one
    `tangent_space_stability` call, which checks them in t order.
    """
    rng = np.random.default_rng(seed)
    ext, k, ts = p.grid.u_extent, p.m - 1, p.grid.t_samples
    max_attempts = 50 * pairs_per_t
    pair_t, pairs = [], []
    i = 0
    while i < ts.size:
        state = rng.bit_generator.state
        rest = ts[i:]
        candidates = rng.uniform(-ext, ext, (rest.size, pairs_per_t, 2, k))
        ok = _regular_pairs(p, np.repeat(rest, pairs_per_t),
                            candidates.reshape(-1, 2, k)).reshape(rest.size, pairs_per_t)
        full = ok.all(axis=1)
        n_full = rest.size if full.all() else int(np.argmin(full))
        pair_t.append(np.repeat(rest[:n_full], pairs_per_t))
        pairs.append(candidates[:n_full].reshape(-1, 2, k))
        i += n_full
        if i == ts.size:
            break
        # rewind, then skip the draws up to this t's first candidates
        rng.bit_generator.state = state
        rng.uniform(-ext, ext, (n_full + 1, pairs_per_t, 2, k))
        t, found, attempts = ts[i], list(candidates[n_full][ok[n_full]]), pairs_per_t
        while len(found) < pairs_per_t and attempts < max_attempts:
            batch = min(pairs_per_t - len(found), max_attempts - attempts)
            attempts += batch
            more = rng.uniform(-ext, ext, (batch, 2, k))
            found.extend(more[_regular_pairs(p, t, more)])
        pair_t.append(np.full(len(found), t))
        pairs.append(np.reshape(found, (-1, 2, k)))
        i += 1
    return tangent_space_stability(p, np.concatenate(pair_t), np.concatenate(pairs))


def run_selftest(tol: TolerancePolicy | None = None, seed: int = 0,
                 t_samples: int = 200) -> list[CheckResult]:
    """Run every acceptance criterion; one result per named check.

    The seed drives the off-sheet spot checks of criterion 4, the ruling
    pairs of the stability sweep and the derivative oracle's sample points.
    """
    check_seed(seed)
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
        ts = sheet.grid.t_samples
        u_err = float(np.abs(sheet.solved(ts)[:, 0] + sqrt2).max())
        apex_err = float(np.linalg.norm(sheet.beta(ts), axis=1).max())
        record(2, "cone solved coordinate -sqrt(2)", u_err < 1e-8, f"max err {u_err:.2e}")
        record(2, "cone apex at origin", apex_err < 1e-6, f"max |beta| {apex_err:.2e}")

        sheet = whole("helicoid_frame").sheet
        axis_err = float(np.linalg.norm(sheet.beta(sheet.grid.t_samples)[:, :2], axis=1).max())
        record(2, "helicoid striction line is the axis", axis_err < 1e-8,
               f"max off-axis {axis_err:.2e}")

        sheet = whole("tangent_developable_helix").sheet
        ts = sheet.grid.t_samples
        u_err = float(np.abs(sheet.solved(ts)[:, 0]).max())
        curve_err = float(np.linalg.norm(sheet.beta(ts) - sheet.fc.directrix.eval(ts, 0),
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
            locus, offsheet = seg.locus, offsheet_check(seg.pivoted, seg.sheet, seed)
            ok = locus.singular_fraction >= 0.99 and not offsheet.failures
            record(4, f"singularities confined to the sheet: {name}", ok,
                   f"coverage {locus.singular_fraction:.3f}, "
                   f"off-sheet regular {offsheet.regular}/{offsheet.total}")
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
            offsets = [np.full(seg.patch.m - 1, s) for s in INVARIANCE_OFFSET_SCALES]
            inv = directrix_invariance(seg.pivoted, seg.sheet, offsets)
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
