import csv
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares

from ruledkit import (DegeneracyError, RuledPatch, SampleGrid, ValidationError,
                      offsheet_certificate, pivot_frame, rho_at, singular_locus,
                      solve_striction)
import offsheet_oracle
from conftest import fail_invariance_resolve, small_patch
from frame_oracles import sheet_wedges, wedge_slack
from offsheet_oracle import jacobian_regularity, offsheet_check
from ruledkit import striction
from ruledkit.analysis import analyze
from ruledkit.classify import segment_analyses
from ruledkit.exports import write_mesh_obj
from ruledkit.fields import FourierField, ParameterMap, PolynomialField, VectorField
from ruledkit.multilinear import TolerancePolicy, numerical_rank, wedge_norm
from ruledkit.parametric import FramedCurve, arclength_framed_curve
from ruledkit.ruledgeom import jacobian_sigma
from ruledkit.scene import ingest
from ruledkit.splitmix import SplitMix64
from ruledkit.striction import (INVARIANCE_AXIS_SAMPLES, INVARIANCE_SCALES, assemble_system,
                                directrix_invariance, equivalent_condition_check,
                                striction_jacobian_rank, write_striction_csv)

SQ2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


def pivoted(patch, d=1):
    return pivot_frame(patch, d)


@pytest.fixture
def cone_sheet(cone_patch):
    p = pivoted(cone_patch)
    return p, solve_striction(p, 1)


@pytest.fixture
def td_sheet(tangent_dev_patch):
    p = pivoted(tangent_dev_patch)
    return p, solve_striction(p, 1)


@pytest.fixture
def product_sheet(product_patch):
    p = pivoted(product_patch)
    return p, solve_striction(p, 1)


# --- system assembly ---------------------------------------------------------

def test_assemble_tangent_developable(tangent_dev_patch):
    sys = assemble_system(tangent_dev_patch.fc, 0.8, 1)
    assert sys.A == pytest.approx(np.array([[0.5]]), abs=1e-12)
    assert sys.b_affine == pytest.approx(np.array([[0.0]]), abs=1e-12)


def test_assemble_helicoid(helicoid_patch):
    sys = assemble_system(helicoid_patch.fc, 1.9, 1)
    assert sys.A == pytest.approx(np.array([[1.0]]), abs=1e-12)
    assert sys.b_affine == pytest.approx(np.array([[0.0]]), abs=1e-12)


def test_assemble_cone(cone_patch):
    sys = assemble_system(cone_patch.fc, 0.5, 1)
    assert sys.A == pytest.approx(np.array([[0.5]]), abs=1e-12)
    assert sys.b_affine == pytest.approx(np.array([[-1.0 / SQ2]]), abs=1e-12)


def test_assemble_rejects_degenerate(cylinder_patch):
    with pytest.raises(DegeneracyError):
        assemble_system(cylinder_patch.fc, 1.0, 1)


def test_assemble_rejects_degree_zero(cylinder_patch):
    with pytest.raises(ValidationError):
        assemble_system(cylinder_patch.fc, 1.0, 0)


def test_system_matrix_is_rho_gram(product_patch, two_rotation_patch, tol):
    for patch, d in ((product_patch, 1), (two_rotation_patch, 2)):
        p = pivoted(patch, d)
        for t in p.grid.t_samples[::5]:
            sys = assemble_system(p.fc, t, d, tol)
            assert np.abs(sys.A - sys.A.T).max() <= 1e-10
            assert np.linalg.eigvalsh(sys.A).min() > 0
            rho = rho_at(p.fc, t, tol).rho_vectors[p.m - 1 - d:]
            assert np.abs(sys.A - rho @ rho.T).max() <= 1e-10


# --- sheet solving -----------------------------------------------------------

def test_tangent_developable_sheet_is_directrix(td_sheet):
    p, sheet = td_sheet
    for t in p.grid.t_samples[::4]:
        assert abs(float(sheet.solved(t)[0])) < 1e-10
        assert np.abs(sheet.beta(t) - p.fc.directrix.eval(t, 0)).max() < 1e-10


def test_cone_sheet_is_apex(cone_sheet):
    p, sheet = cone_sheet
    for t in p.grid.t_samples[::4]:
        assert float(sheet.solved(t)[0]) == pytest.approx(-SQ2, abs=1e-10)
        assert np.abs(sheet.beta(t)).max() < 1e-10


def test_product_sheet_is_directrix_times_line(product_sheet):
    p, sheet = product_sheet
    assert sheet.free_count == 1
    helix = p.fc.directrix
    for t in p.grid.t_samples[::6]:
        for u in (-1.0, 0.0, 2.0):
            expected = helix.eval(t, 0).copy()
            expected[3] += u
            assert np.abs(sheet.beta(t, [u]) - expected).max() < 1e-10
            assert abs(float(sheet.solved(t, [u])[0])) < 1e-10


def test_defining_property_at_samples(td_sheet, cone_sheet, product_sheet, tol):
    for p, sheet in (td_sheet, cone_sheet, product_sheet):
        for t in p.grid.t_samples[::7]:
            for u in p.grid.u_points(sheet.free_count)[::2]:
                assert sheet.defining_residual(t, u) < tol.zero_abs_tol


def test_striction_jacobian_ranks(td_sheet, cone_sheet, product_sheet, tol):
    (_, td), (_, cone), (_, product) = td_sheet, cone_sheet, product_sheet
    assert striction_jacobian_rank(td, 1.0, (), tol) == 1
    assert striction_jacobian_rank(cone, 1.0, (), tol) == 0
    assert striction_jacobian_rank(product, 1.0, [0.5], tol) == 2


def test_solve_fallback_near_degenerate_system():
    # rotation rate makes the system matrix ~9e-8, inside the 10x fallback band
    eps = 3e-4
    directrix = PolynomialField([[0.0], [0.0], [0.0, 1.0]])
    x = FourierField([(0.0, [1.0], [], eps), (0.0, [], [1.0], eps), (0.0, [], [], 1.0)])
    fc = FramedCurve(3, 2, directrix, (x,), (0.0, 1.0))
    p = RuledPatch(fc, SampleGrid.uniform(fc.interval, 9))
    sheet = solve_striction(p, 1)
    assert sheet.fallback_ts  # reported, and Cholesky-solved like every sample
    for t in p.grid.t_samples:
        assert abs(float(sheet.solved(t)[0])) < 1e-8


def _resolved_nodes(p, d, ts):
    """Solved nodes of the pivoted patch `p` re-solved at the parameters ts."""
    return solve_striction(RuledPatch(p.fc, SampleGrid(ts), p.tol), d).solution_nodes


def _r4_patch(x1, x2):
    """An R^4 patch with m = 3 over a cubic directrix that is not unit speed."""
    directrix = PolynomialField([[0.0, 0.0, 0.3], [0.0, 1.0], [0.0, 0.5, 0.1],
                                 [1.0, 0.0, 0.0, 0.2]])
    fc = FramedCurve(4, 3, directrix, (x1, x2), (0.0, 1.0))
    return RuledPatch(fc, SampleGrid.uniform(fc.interval, 21))


def _moving_sheet_patches(pytestconfig):
    """(patch, d) whose solved coordinates move with t: the elliptic cone,
    an explicit non-rank-one scene, and in R^4 a sheet of degree 2 and one
    of degree 1 that depends on its free coordinate."""
    from perfbench.scenegen import explicit_scene
    cone = ingest(str(pytestconfig.rootpath / "scenes" / "elliptic_cone_explicit.json"),
                  overrides={"t_samples": 40}).patch
    explicit = ingest(explicit_scene(0), {"t_samples": 40}).patch
    # two planes turning at rates 1 and 2: rho = Xdot has rank 2
    turning = _r4_patch(FourierField([(0.0, [1.0], [], 1.0), (0.0, [], [1.0], 1.0),
                                      (0.0, [], [], 1.0), (0.0, [], [], 1.0)]),
                        FourierField([(0.0, [], [], 1.0), (0.0, [], [], 1.0),
                                      (0.0, [0.0, 1.0], [], 1.0), (0.0, [], [0.0, 1.0], 1.0)]))
    # a fixed rotation of (cos t, sin t, 0, 0) and e3: both derivatives move
    # along one direction, so the degree is 1 and both fields carry it
    c, s = math.cos(0.3), math.sin(0.3)
    tilted = _r4_patch(FourierField([(0.0, [c], [], 1.0), (0.0, [], [c], 1.0),
                                     (s, [], [], 1.0), (0.0, [], [], 1.0)]),
                       FourierField([(0.0, [-s], [], 1.0), (0.0, [], [-s], 1.0),
                                     (c, [], [], 1.0), (0.0, [], [], 1.0)]))
    return [(cone, 1), (explicit, 1), (turning, 2), (tilted, 1)]


def test_solution_tangents_are_the_derivative_of_the_solved_nodes(pytestconfig):
    h = 1e-5
    for patch, d in _moving_sheet_patches(pytestconfig):
        p = pivoted(patch, d)
        sheet = solve_striction(p, d)
        ts = p.grid.t_samples[1:-1]
        central = (_resolved_nodes(p, d, ts + h) - _resolved_nodes(p, d, ts - h)) / (2.0 * h)
        assert np.abs(central).max() > 0.1  # the sheet moves
        assert np.abs(sheet.solution_tangents[1:-1] - central).max() <= 1e-8


def test_analyze_interpolates_only_the_analyzed_sheet(tmp_path, monkeypatch):
    # the invariance fit reads the analyzed sheet off the grid; the
    # re-solved sheets are read at their grid nodes only
    built, resolved = [], []
    hermite, resolve = striction.CubicHermite, striction._shifted_sheet

    def counting_spline(*args, **kwargs):
        built.append(1)
        return hermite(*args, **kwargs)

    def recording_resolve(*args):
        resolved.append(resolve(*args))
        return resolved[-1]

    monkeypatch.setattr(striction, "CubicHermite", counting_spline)
    monkeypatch.setattr(striction, "_shifted_sheet", recording_resolve)
    analyze(ingest({"builtin_patch": "circular_cone", "grid": {"t_samples": 40}}),
            tmp_path)
    assert len(resolved) == len(INVARIANCE_SCALES) == 3
    assert len(built) == 1
    for sheet in resolved:
        assert "solution_tangents" not in vars(sheet) and "_interpolant" not in vars(sheet)


# --- singular locus ----------------------------------------------------------

def test_singular_locus_tangent_developable(td_sheet):
    p, sheet = td_sheet
    locus = singular_locus(p, sheet)
    assert locus.singular_fraction == 1.0
    assert np.all(locus.residuals < 1e-10)
    assert offsheet_check(p, sheet, seed=1).failures == ()
    assert offsheet_certificate(p, sheet).certified


def test_singular_locus_helicoid(helicoid_patch):
    p = pivoted(helicoid_patch)
    sheet = solve_striction(p, 1)
    locus = singular_locus(p, sheet)
    assert locus.singular_fraction == 0.0
    assert locus.residuals == pytest.approx(1.0, abs=1e-9)


def test_singular_locus_cone(cone_sheet):
    p, sheet = cone_sheet
    locus = singular_locus(p, sheet)
    assert locus.singular_fraction == 1.0
    assert offsheet_check(p, sheet, seed=1).failures == ()
    assert offsheet_certificate(p, sheet).certified


class _TurningRuling(VectorField):
    """X(t) = (cos phi, sin phi, 0), a unit ruling turning by the angle
    phi(t); `angle(t)` gives phi, phi' and phi''."""

    dim = 3

    def __init__(self, angle):
        self.angle = angle

    def eval(self, t, order=0):
        phi, d1, d2 = self.angle(t)
        c, s = math.cos(phi), math.sin(phi)
        if order == 0:
            return np.array([c, s, 0.0])
        if order == 1:
            return np.array([-s * d1, c * d1, 0.0])
        return np.array([-c * d1 ** 2 - s * d2, -s * d1 ** 2 + c * d2, 0.0])


def _offsheet_failures_one_by_one(p, sheet, checks, seed):
    stream = SplitMix64(seed)
    axis = p.grid.u_axis
    delta = 10.0 * float(axis[1] - axis[0])
    ts = stream.uniform(p.grid.t_samples[0], p.grid.t_samples[-1], checks)
    u_free = stream.uniform(-p.grid.u_extent, p.grid.u_extent, (checks, sheet.free_count))
    signs = stream.signs((checks, sheet.d))
    failures = []
    for t, free, sign in zip(ts, u_free, signs):
        u = np.concatenate([free, sheet.solved(t, free) + delta * sign])
        if numerical_rank(jacobian_sigma(p, t, u), p.tol) != p.m:
            failures.append((float(t), u.tolist()))
    return tuple(failures)


def test_stacked_offsheet_checks_equal_the_per_point_loop(product_sheet):
    # a 0.1 rank cutoff makes the off-sheet points irregular where the
    # ruling turns fast, so some checks fail and some pass
    fc = FramedCurve(3, 2, PolynomialField([[0.0], [0.0], [0.0, 1.0]]),
                     # phi = t + 0.8 sin t: a rate varying between 0.2 and 1.8
                     (_TurningRuling(lambda t: (t + 0.8 * math.sin(t), 1.0 + 0.8 * math.cos(t),
                                                -0.8 * math.sin(t))),), (0.0, TWO_PI))
    wobble = RuledPatch(fc, SampleGrid.uniform(fc.interval, 41),
                        TolerancePolicy(rank_rel_tol=0.1))
    for p, sheet in ((wobble, solve_striction(wobble, 1)), product_sheet):
        for seed in (1, 3):
            check = offsheet_check(p, sheet, seed=seed)
            expected = _offsheet_failures_one_by_one(p, sheet, 32, seed)
            assert check.failures == expected
            assert check.regular == 32 - len(expected)
    assert 0 < len(offsheet_check(wobble, solve_striction(wobble, 1), seed=3)
                   .failures) < 32


def test_offsheet_points_stay_in_the_segment_range(monkeypatch):
    # phi = max(t, 0)^3 keeps the ruling at rest up to t = 0: degree 0
    # there and 1 from the next sample on. The degree-1 segment's sheet is
    # solved on [0.025, 1] only, so its spot checks must draw t there and
    # not over the curve's whole interval
    fc = FramedCurve(3, 2, PolynomialField([[0.0], [0.0], [0.0, 1.0]]),
                     (_TurningRuling(lambda t: (max(t, 0.0) ** 3, 3.0 * max(t, 0.0) ** 2,
                                                6.0 * max(t, 0.0))),), (-1.0, 1.0))
    p = RuledPatch(fc, SampleGrid.uniform(fc.interval, 81))
    seg = [s for s in segment_analyses(p) if s.d == 1][0]
    lo, hi = seg.patch.grid.t_samples[[0, -1]]
    assert lo == pytest.approx(0.025) and hi == 1.0
    drawn = []

    def recording(values, u, tol):
        drawn.append(np.array(values.ts, dtype=float))
        return jacobian_regularity(values, u, tol)

    monkeypatch.setattr(offsheet_oracle, "jacobian_regularity", recording)
    check = offsheet_check(seg.pivoted, seg.sheet, seed=0)
    ts = np.concatenate(drawn)
    assert ts.size == check.total == 32
    assert lo <= ts.min() and ts.max() <= hi


@pytest.mark.parametrize("name, d", [("circular_cone", 1), ("tangent_developable_product", 1),
                                     ("two_rotation_r5", 2)])
def test_offsheet_points_are_the_seeds_three_blocks(name, d, monkeypatch):
    # (d, free) = (1, 0), (1, 1) and (2, 0): the seed's SplitMix64 stream draws
    # the 32 t, then the (32, free) free coordinates, then the (32, d)
    # signs of the perturbations off the sheet
    p = pivoted(small_patch(name), d)
    sheet = solve_striction(p, d)
    drawn = []

    def recording(values, u, tol):
        drawn.append((np.array(values.ts, dtype=float), np.array(u, dtype=float)))
        return jacobian_regularity(values, u, tol)

    monkeypatch.setattr(offsheet_oracle, "jacobian_regularity", recording)
    lo, hi = p.grid.t_samples[[0, -1]]
    extent, free = p.grid.u_extent, sheet.free_count
    for seed in range(21):
        drawn.clear()
        offsheet_check(p, sheet, seed=seed)
        (ts, u), = drawn
        stream = SplitMix64(seed)
        assert np.array_equal(ts, stream.uniform(lo, hi, 32))
        assert np.array_equal(u[:, :free], stream.uniform(-extent, extent, (32, free)))
        offset = u[:, free:] - sheet.solved(ts, u[:, :free])
        assert np.array_equal(np.sign(offset), stream.signs((32, d)))


def test_dense_random_box_sample_has_no_offsheet_singularities(td_sheet):
    # singular points exist only on the sheet (u = 0 for this patch)
    p, sheet = td_sheet
    rng = np.random.default_rng(5)
    lo, hi = p.fc.interval
    for _ in range(300):
        t = rng.uniform(lo, hi)
        u = rng.uniform(-2.0, 2.0, 1)
        on_sheet = abs(u[0] - float(sheet.solved(t)[0])) < 1e-6
        if not on_sheet:
            assert numerical_rank(np.vstack([p.fc.directrix.eval(t, 1)
                                             + u @ p.fc.frame_values(t, 1),
                                             p.fc.frame_values(t)]), p.tol) == p.m


# --- equivalent singularity condition ------------------------------------------

def test_equivalent_condition_agrees_everywhere(td_sheet, cone_sheet, helicoid_patch):
    for p, sheet in (td_sheet, cone_sheet):
        result = equivalent_condition_check(p, sheet, singular_locus(p, sheet))
        assert result.all_agree
        assert result.plain[result.checked].all()  # all sheet samples singular
    p = pivoted(helicoid_patch)
    sheet = solve_striction(p, 1)
    result = equivalent_condition_check(p, sheet, singular_locus(p, sheet))
    assert result.all_agree
    assert not result.plain[result.checked].any()  # nowhere singular


# --- array-backed stages against their per-sample definitions ---------------------

def _locus_entries(p, sheet):
    """(t, u_free, wedge residual, singular) of every sheet sample, t-major,
    one SVD wedge norm at a time, and the rounding slack of each residual
    (`frame_oracles.wedge_slack`)."""
    wedges = sheet_wedges(sheet)
    u_pts = p.grid.u_points(sheet.free_count)
    entries, slack = [], []
    for i, t in enumerate(p.grid.t_samples):
        for j, u_free in enumerate(u_pts):
            res = wedge_norm(wedges[i, j])
            entries.append((float(t), u_free.tolist(), res, res < p.tol.zero_abs_tol))
            slack.append(float(wedge_slack(wedges[i, j])))
    return entries, slack


def _equivalent_rows(p, sheet, entries):
    """(rows, skipped, all_agree) of the equivalent-condition check, one
    (t, u_free, plain, augmented, agree) row per sample at a parameter
    with a carrying frame derivative, one wedge norm at a time; the plain
    verdicts are those of the locus `entries`."""
    tol = p.tol
    wedges = sheet_wedges(sheet)
    xdot = p.values.frame(1)
    n_pos = wedges.shape[1]
    rows, skipped = [], []
    for i, t in enumerate(p.grid.t_samples):
        carriers = [j for j in range(p.m - 1)
                    if np.linalg.norm(p.profile.rho[i, j]) >= tol.zero_abs_tol]
        if not carriers:
            skipped.append(float(t))
            continue
        for k in range(n_pos):
            _, u_free, _, plain = entries[i * n_pos + k]
            if p.m + 1 > p.dim:
                augmented = [True] * len(carriers)
            else:
                augmented = [wedge_norm(np.vstack([xdot[i, j], wedges[i, k]]))
                             < tol.zero_abs_tol for j in carriers]
            rows.append((float(t), u_free, plain, all(augmented),
                         all(a == plain for a in augmented)))
    return rows, tuple(skipped), all(r[4] for r in rows)


def _write_csv_per_row(sheet, entries, path):
    """The striction CSV written one locus entry at a time."""
    m, d, dim = sheet.fc.m, sheet.d, sheet.fc.dim
    header = (["t"] + [f"u{j}" for j in range(1, m - d)]
              + [f"s{j}" for j in range(m - d, m)]
              + [f"b{i}" for i in range(1, dim + 1)] + ["wedge_residual", "singular"])
    u_pts = sheet.grid.u_points(sheet.free_count)
    points = np.stack([sheet.grid_points(u) for u in u_pts], axis=1).reshape(-1, dim)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, ((t, u_free, res, singular), b) in enumerate(zip(entries, points)):
            # the solved node of the row's grid parameter, at its free position
            s = sheet.solution_nodes[row // len(u_pts)] @ np.array([1.0, *u_free])
            writer.writerow([repr(t)] + [repr(float(v)) for v in u_free]
                            + [repr(float(v)) for v in s] + [repr(float(v)) for v in b]
                            + [repr(res), "true" if singular else "false"])


@pytest.fixture
def helicoid_sheet(helicoid_patch):
    p = pivoted(helicoid_patch)
    return p, solve_striction(p, 1)


@pytest.fixture
def two_rotation_sheet(two_rotation_patch):
    p = pivoted(two_rotation_patch, 2)
    return p, solve_striction(p, 2)


@pytest.mark.parametrize("sheet_fixture", ["td_sheet", "product_sheet", "cone_sheet",
                                           "helicoid_sheet", "two_rotation_sheet"])
def test_array_stages_equal_their_per_sample_definitions(sheet_fixture, request, tmp_path):
    p, sheet = request.getfixturevalue(sheet_fixture)
    locus = singular_locus(p, sheet)
    entries, slack = _locus_entries(p, sheet)
    n, n_pos = locus.residuals.shape
    assert (n, n_pos) == (p.grid.t_samples.size, p.grid.u_points(sheet.free_count).shape[0])
    assert list(zip(np.repeat(locus.t, n_pos).tolist(), np.tile(locus.u_free, (n, 1)).tolist(),
                    locus.singular.ravel().tolist())) == [(t, u, s) for t, u, _, s in entries]
    # the closed-form residuals are the SVD's wedge norms to within their slack
    assert (np.abs(locus.residuals.ravel() - [e[2] for e in entries]) <= slack).all()
    assert locus.singular_fraction == sum(e[3] for e in entries) / len(entries)

    # the check reads its plain verdicts from the locus; flipping them
    # makes every checked sample disagree
    flipped = replace(locus, singular=~locus.singular)
    for loc, ents in ((locus, entries), (flipped, [e[:3] + (not e[3],) for e in entries])):
        result = equivalent_condition_check(p, sheet, loc)
        rows, skipped, all_agree = _equivalent_rows(p, sheet, ents)
        checked = result.checked
        assert list(zip(np.repeat(locus.t[checked], n_pos).tolist(),
                        np.tile(locus.u_free, (int(checked.sum()), 1)).tolist(),
                        result.plain[checked].ravel().tolist(),
                        result.augmented[checked].ravel().tolist(),
                        result.agree[checked].ravel().tolist())) == rows
        assert result.skipped == skipped
        assert result.all_agree is all_agree
        assert all_agree is (loc is locus)

    write_striction_csv(sheet, locus, tmp_path / "stacked.csv")
    written = [e[:2] + (float(locus.residuals[i // n_pos, i % n_pos]),) + e[3:]
               for i, e in enumerate(entries)]
    _write_csv_per_row(sheet, written, tmp_path / "per_row.csv")
    stacked = (tmp_path / "stacked.csv").read_bytes()
    assert stacked == (tmp_path / "per_row.csv").read_bytes()
    assert stacked.count(b"\n") == 1 + n * n_pos


def test_analyze_factorizes_the_sheet_wedges_once_per_segment(tmp_path, monkeypatch,
                                                             pytestconfig):
    shapes = []
    original = striction.wedge_norms

    def counting(stack):
        shapes.append(stack.shape)
        return original(stack)

    monkeypatch.setattr(striction, "wedge_norms", counting)
    result = ingest(pytestconfig.rootpath / "scenes" / "circular_cone.json")
    report = analyze(result, tmp_path)
    m, dim = result.patch.m, result.patch.dim
    assert len(report["striction"]) == 1
    assert report["striction"][0]["equivalent_condition"]["all_agree"]
    # the sheet wedges [beta_dot, X_1..X_{m-1}] and the augmented ones
    # [Xdot_j, beta_dot, X_1..X_{m-1}] are read in closed form from the
    # grid's frame QR, so no stack reaches the SVD
    assert m + 1 <= dim and shapes == []


# --- directrix invariance --------------------------------------------------------

def test_invariance_tangent_developable(td_sheet):
    p, sheet = td_sheet
    result = directrix_invariance([(p, sheet)], [1.0])
    assert not result.skipped
    assert result.max_deviation < 1e-6


def test_invariance_cone_three_offsets(cone_sheet):
    p, sheet = cone_sheet
    result = directrix_invariance([(p, sheet)])
    assert result.offsets == ([0.5], [1.0], [-0.7])
    assert not result.skipped
    assert result.max_deviation < 1e-6


def test_invariance_apex_offset_is_not_skipped(cone_sheet):
    # the apex offset collapses the shifted directrix to a point, which has
    # no arclength parametrization; the same-grid re-solve needs none
    p, sheet = cone_sheet
    result = directrix_invariance([(p, sheet)], [-SQ2])
    assert not result.skipped and len(result.per_offset) == 1
    assert result.max_deviation <= 1e-14


def test_shifted_patch_shares_frame_values_and_profile(product_patch):
    p = pivoted(product_patch)
    c = np.array([0.5, -0.7])
    shifted = p.shift_directrix(c)
    assert shifted.grid is p.grid and shifted.profile is p.profile
    assert shifted.values.parameters is p.grid.parameters
    assert shifted.values.frame_basis() is p.values.frame_basis()
    for order in range(3):
        assert shifted.values.frame(order) is p.values.frame(order)
        want = p.values.directrix(order) + c @ p.values.frame(order)
        assert np.abs(shifted.values.directrix(order) - want).max() <= 1e-14


def test_invariance_skips_offset_whose_resolve_fails(monkeypatch, cone_sheet):
    p, sheet = cone_sheet
    fail_invariance_resolve(monkeypatch, 2)
    result = directrix_invariance([(p, sheet)])
    assert [c for c, _ in result.per_offset] == [[0.5], [-0.7]]
    assert result.skipped == (([1.0], "NumericError: injected re-solve failure"),)
    assert result.max_deviation <= 1e-14


def _invariance_patch(name):
    if name.startswith("explicit_scene"):
        from perfbench.scenegen import explicit_scene
        return pivoted(ingest(explicit_scene(int(name[-1])), {"t_samples": 200}).patch), 1
    d = 2 if name == "two_rotation_r5" else 1
    return pivoted(small_patch(name, 200), d), d


@pytest.mark.parametrize("name", ["circular_cone", "tangent_developable_helix",
                                  "two_rotation_r5", "explicit_scene0", "explicit_scene1"])
def test_solved_coordinates_invariant_under_reparametrization(name):
    # why the invariance stage may re-solve on the patch's own grid: the
    # shifted curve re-solved by arclength s must give, plus c_tail, the
    # coordinates of the unshifted patch solved exactly at (t(s), u + c_free)
    p, d = _invariance_patch(name)
    free = p.m - 1 - d
    for scale in INVARIANCE_SCALES:
        c = np.full(p.m - 1, scale)
        fc = arclength_framed_curve(p.shift_directrix(c).fc)
        grid = SampleGrid.uniform(fc.interval, 200, p.grid.u_extent, p.grid.u_samples_per_axis)
        by_arclength = solve_striction(RuledPatch(fc, grid, p.tol), d)
        ts = grid.parameters.inverse(fc.directrix.parameter_map).t.values
        exact = solve_striction(RuledPatch(p.fc, SampleGrid(ts), p.tol), d)
        for u_free in grid.u_points(free):
            got = by_arclength.solved(grid.t_samples, u_free) + c[free:]
            want = exact.solved(ts, u_free + c[:free])
            assert np.abs(got - want).max() <= 1e-13


def test_invariance_rejected_for_cylinder(cylinder_patch):
    with pytest.raises(ValidationError):
        solve_striction(cylinder_patch, 0)


def _oracle_distance(sheet, point, seed):
    """Per-point nearest-sheet-point search: bounded least squares from the
    seed with a finite-difference Jacobian."""
    lo, hi = sheet.fc.interval
    ext = sheet.grid.u_extent
    free = sheet.free_count
    bounds = ([lo] + [-4.0 * ext] * free, [hi] + [4.0 * ext] * free)

    def residual(theta):
        return sheet.beta(theta[0], theta[1:]) - point

    x0 = np.clip(seed, bounds[0], bounds[1])
    fit = least_squares(residual, x0, bounds=bounds, xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return float(np.linalg.norm(fit.fun))


def _off_sheet_points(sheet, n, rng):
    """Points near the sheet, and seeds near their foot parameters."""
    lo, hi = sheet.fc.interval
    feet = np.column_stack([rng.uniform(lo + 0.3, hi - 0.3, n),
                            rng.uniform(-1.0, 1.0, (n, sheet.free_count))])
    points = (sheet.beta(feet[:, 0], feet[:, 1:])
              + 0.05 * rng.standard_normal((n, sheet.fc.dim)))
    return points, feet + 0.02 * rng.standard_normal(feet.shape)


def _curved_sheet(patch, d):
    """A sheet over the patch's frame whose solved coordinates vary with t
    and depend on the free ones, so that every term of the sheet partials
    is nonzero (the solved sheets of the builtins have constant ones)."""
    ts = patch.grid.t_samples
    cols = patch.m - d
    k = np.arange(1, d * cols + 1).reshape(d, cols)
    nodes = 0.3 * np.sin(k * ts[:, None, None] + 0.5 * k)
    sheet = striction.StrictionSheet(d=d, grid=patch.grid, values=patch.values,
                                     solution_nodes=nodes, max_defining_residual=0.0)
    # the exact derivative of the chosen nodes, in place of the system's
    vars(sheet)["solution_tangents"] = 0.3 * k * np.cos(k * ts[:, None, None] + 0.5 * k)
    return sheet


@pytest.fixture
def fit_sheets(td_sheet, product_sheet, two_rotation_patch, product_patch):
    p5 = pivoted(two_rotation_patch, 2)
    return [td_sheet[1], product_sheet[1], solve_striction(p5, 2),
            _curved_sheet(td_sheet[0], 1), _curved_sheet(product_patch, 1),
            _curved_sheet(two_rotation_patch, 1)]


def test_batched_distances_match_per_point_oracle(fit_sheets):
    rng = np.random.default_rng(11)
    for sheet in fit_sheets:
        points, seeds = _off_sheet_points(sheet, 20, rng)
        dists = striction._distances_to_sheet(sheet, points, seeds)
        oracle = np.array([_oracle_distance(sheet, q, x) for q, x in zip(points, seeds)])
        matched = np.linalg.norm(points - sheet.beta(seeds[:, 0], seeds[:, 1:]), axis=1)
        assert dists.shape == (20,)
        assert np.all(dists >= oracle - 1e-12)
        assert np.all(dists <= matched)


def test_stacked_fit_jacobian_matches_central_differences(fit_sheets):
    # the Jacobian each Gauss-Newton step of least_squares takes, per point:
    # the sheet partials, against central differences of its residual
    rng = np.random.default_rng(12)
    for sheet in fit_sheets:
        points, seeds = _off_sheet_points(sheet, 7, rng)

        def residual(theta):
            return sheet.beta(theta[:, 0], theta[:, 1:]) - points

        jac = sheet.beta_partials(seeds[:, 0], seeds[:, 1:])
        h = 1e-6
        numeric = np.stack([
            (residual(seeds + h * e) - residual(seeds - h * e)) / (2.0 * h)
            for e in np.eye(seeds.shape[1])], axis=1)
        assert jac.shape == (7, seeds.shape[1], sheet.fc.dim)
        assert np.abs(jac - numeric).max() <= 1e-7 * np.abs(jac).max()


def _bent_sheet(p, sheet, amplitude=1e-3, omega=7.0):
    """`sheet` with amplitude sin(omega t) added to its solved coordinate,
    nodes and exact tangents: a sheet the re-solved sheets are not on,
    which meets them where the sine vanishes, at both ends of [0, 2 pi]
    among other t."""
    ts = p.grid.t_samples[:, None, None]
    bent = striction.StrictionSheet(
        d=sheet.d, grid=p.grid, values=p.values,
        solution_nodes=sheet.solution_nodes + amplitude * np.sin(omega * ts),
        max_defining_residual=0.0)
    vars(bent)["solution_tangents"] = (sheet.solution_tangents
                                       + amplitude * omega * np.cos(omega * ts))
    return bent


def test_invariance_fit_reaches_the_t_bound_on_a_bent_sheet():
    # the cone's re-solved sheets are its apex; the bent sheet passes through
    # the apex where sin 7t = 0, and the nearest such t of the last nodes is
    # the bound 2 pi, so the fit must walk the seeds onto the bound
    p = pivoted(ingest({"builtin_patch": "circular_cone"}).patch)
    bent = _bent_sheet(p, solve_striction(p, 1))
    result = directrix_invariance([(p, bent)])
    assert len(result.per_offset) == 3
    assert result.max_deviation <= 1e-9
    # the apex is 1e-3 away from the bent sheet at its own seed somewhere
    apex = solve_striction(p, 1).grid_points(())
    assert np.linalg.norm(bent.grid_points(()) - apex, axis=1).max() > 9e-4


def test_least_squares_leaves_a_nearest_point_in_place(fit_sheets):
    # a point of the sheet, seeded at its own parameters, is not moved
    for sheet in fit_sheets:
        lo, hi = sheet.fc.interval
        ts = np.linspace(lo, hi, 9)
        seeds = np.column_stack([ts, np.full((ts.size, sheet.free_count), 0.5)])
        points = sheet.beta(seeds[:, 0], seeds[:, 1:])
        box = np.array([lo] + [-8.0] * sheet.free_count), np.array([hi] + [8.0] * sheet.free_count)
        fit = striction.least_squares(sheet, points, seeds, *box)
        assert np.array_equal(fit.x, seeds)
        assert not fit.fun.any()
        assert fit.nfev == 1


def test_least_squares_stops_on_a_point_sheet(cone_sheet):
    # the cone's sheet is its apex: the Jacobian vanishes, and the
    # pseudo-inverse step leaves every seed where it is
    p, sheet = cone_sheet
    ts = p.grid.t_samples[::5]
    points = np.zeros((ts.size, 3)) + [1.0, 2.0, 3.0]
    lo, hi = sheet.fc.interval
    fit = striction.least_squares(sheet, points, ts[:, None], np.array([lo]), np.array([hi]))
    assert np.abs(sheet.beta_partials(ts)[:, 0]).max() <= 1e-12
    assert np.array_equal(fit.x[:, 0], ts) and fit.nfev == 1


@pytest.mark.parametrize("fixture, d", [("helicoid_patch", 1), ("two_rotation_patch", 2)])
def test_invariance_deviation_free_of_bound_step(request, fixture, d):
    # the matched seeds on the t bound are nearest points already: the fit
    # leaves them there, so no deviation comes from a step off the bound
    p = pivoted(request.getfixturevalue(fixture), d)
    result = directrix_invariance([(p, solve_striction(p, d))])
    assert len(result.per_offset) == 3
    assert result.max_deviation < 1e-14


def test_invariance_matched_seed_avoids_wrong_local_minimum():
    # seeded at the nearest sampled sheet point in ambient space, the
    # search ends in a local minimum 1.6e-3 away on this scene
    from perfbench.scenegen import explicit_scene
    p = ingest(explicit_scene(1), {"t_samples": 200}).patch
    sheet_patch = pivoted(p)
    result = directrix_invariance([(sheet_patch, solve_striction(sheet_patch, 1))], [0.5])
    assert not result.skipped
    assert result.max_deviation < 1e-6


def test_invariance_one_least_squares_per_run(monkeypatch, tmp_path, product_sheet):
    # one fit per pivot run, over the points of every offset and free sample
    # position
    calls = []
    fit = striction.least_squares

    def counting(sheet, points, *args, **kwargs):
        calls.append(points.shape[0])
        return fit(sheet, points, *args, **kwargs)

    monkeypatch.setattr(striction, "least_squares", counting)
    analyze(ingest({"builtin_patch": "circular_cone", "grid": {"t_samples": 40}}),
            tmp_path)
    assert calls == [len(INVARIANCE_SCALES) * 40]
    calls.clear()
    p, sheet = product_sheet
    directrix_invariance([(p, sheet)], [0.5, 1.0])
    assert calls == [2 * INVARIANCE_AXIS_SAMPLES ** sheet.free_count * p.grid.t_samples.size]


# --- CSV export -------------------------------------------------------------------

def test_striction_csv_layout(tmp_path, td_sheet):
    p, sheet = td_sheet
    locus = singular_locus(p, sheet)
    path = tmp_path / "striction.csv"
    write_striction_csv(sheet, locus, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "s1", "b1", "b2", "b3", "wedge_residual", "singular"]
    assert len(rows) == 1 + locus.residuals.size
    assert {r[-1] for r in rows[1:]} == {"true"}
    t0 = float(rows[1][0])
    beta = np.array([float(v) for v in rows[1][2:5]])
    assert np.abs(beta - sheet.beta(t0)).max() < 1e-12


def test_striction_csv_layout_with_free_coordinates(tmp_path, product_sheet):
    p, sheet = product_sheet
    locus = singular_locus(p, sheet)
    path = tmp_path / "striction.csv"
    write_striction_csv(sheet, locus, path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "u1", "s2", "b1", "b2", "b3", "b4",
                      "wedge_residual", "singular"]


# --- grid values shared by the sheet ---------------------------------------------

#: a cone whose directrix runs at speed 2 and whose frame is not unit length,
#: so ingest composes every field with an arclength map and orthonormalizes
SLOW_CONE_SCENE = {
    "ambient_dim": 3,
    "m": 2,
    "directrix": {"kind": "fourier", "coordinates": [
        {"cos": [2.0]}, {"sin": [2.0]}, {"constant": 1.0}]},
    "frame": [{"kind": "fourier", "coordinates": [
        {"cos": [2.0]}, {"sin": [2.0]}, {"constant": 1.0}]}],
    "interval": [0.0, TWO_PI],
    "grid": {"t_samples": 40},
}


@pytest.mark.parametrize("name", ["circular_cone", "tangent_developable_product"])
def test_grid_points_are_beta_at_the_grid(name):
    p = pivoted(small_patch(name, 30))
    sheet = solve_striction(p, 1)
    assert sheet.values is p.values
    ts = p.grid.t_samples
    rows = np.linspace(-1.0, 1.0, ts.size * sheet.free_count).reshape(ts.size, -1)
    for u_free in [*p.grid.u_points(sheet.free_count)[:3], rows]:
        points, beta = sheet.grid_points(u_free), sheet.beta(ts, u_free)
        # the interpolant is the nodes' own value on each interval's left end;
        # the last node is the end of the last interval
        assert np.array_equal(points[:-1], beta[:-1])
        assert np.abs(points[-1] - beta[-1]).max() <= 1e-15 * max(1.0, np.abs(beta).max())
    # a sheet built directly reads the grid values it is given
    direct = striction.StrictionSheet(d=1, grid=p.grid, values=p.values,
                                      solution_nodes=sheet.solution_nodes,
                                      max_defining_residual=0.0)
    assert np.array_equal(direct.grid_points(rows), sheet.grid_points(rows))
    assert np.array_equal(direct.grid_partials, sheet.grid_partials)


def test_sheet_exports_evaluate_no_field(tmp_path, monkeypatch):
    result = ingest(SLOW_CONE_SCENE)
    assert [n.split(" (")[0] for n in result.notes] == [
        "directrix reparametrized to unit speed", "frame orthonormalized"]
    patch = result.patch
    seg = segment_analyses(patch)[0]
    sheet, locus = seg.sheet, seg.locus
    assert seg.pivoted is patch
    patch.values.frame(0), patch.values.directrix(0)
    calls = Counter()
    for cls, name in ((FramedCurve, "frame_values"), (FramedCurve, "directrix_values"),
                      (ParameterMap, "t")):
        def counting(*args, _original=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cls, name, counting)
    write_striction_csv(sheet, locus, tmp_path / "striction.csv")
    write_mesh_obj(tmp_path / "mesh.obj", patch, sheet)
    assert calls == Counter()
    with open(tmp_path / "striction.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    apex = np.array([[float(v) for v in row[2:5]] for row in rows])
    assert np.abs(apex).max() < 1e-6
