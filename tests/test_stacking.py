"""Stacked grid stages against point-by-point reference loops, and the
number of times one analysis runs each stage.

The references below redo each grid stage one sample at a time with
plain per-matrix numpy calls, the way the stages were written before
they ran on stacks, so a mistake in the stacks' axis or broadcast
bookkeeping shows up as a mismatch.
"""

import importlib
import sys
from collections import Counter

import numpy as np
import pytest

from ambient_second_form import svd_span_verdicts
from conftest import small_patch
from ruledkit import (RuledPatch, SampleGrid, ingest, make_builtin_patch, selftest,
                      striction)
from ruledkit.analysis import analyze
from ruledkit.classify import SegmentAnalysis
from ruledkit.distribution import degree_profile, rho_at
from ruledkit.multilinear import numerical_rank
from ruledkit.parametric import BUILTIN_PATCHES
from ruledkit.ruledgeom import (jacobian_sigma, rank_one_check, second_form_scan,
                                tangent_space_stability)
from ruledkit.splitmix import SplitMix64
from ruledkit.striction import INVARIANCE_SCALES

#: stacked and per-sample arithmetic may sum in another order; float64
#: results of unit-scale inputs agree far inside this
FLOAT_TOL = 1e-12


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= FLOAT_TOL * np.maximum(1.0, np.abs(a))))


def _rank(mat, tol):
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] < tol.zero_abs_tol:
        return 0
    return int(np.sum(s > tol.rank_rel_tol * s[0]))


def _reference_rho(fc, t, tol):
    x, xdot = fc.frame_values(t), fc.frame_values(t, 1)
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    q = vt[s > tol.rank_rel_tol * s[0]]
    return np.array([v - q.T @ (q @ v) for v in xdot])


def _reference_first_normal_dim(p, t, u):
    """first_normal_dim at (t, u), or None where the patch is singular."""
    fc, tol = p.fc, p.tol
    jac = np.vstack([fc.directrix_values(t, 1) + u @ fc.frame_values(t, 1),
                     fc.frame_values(t)])
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s[0] < tol.zero_abs_tol or s[-1] <= tol.rank_rel_tol * s[0]:
        return None
    raw = np.vstack([fc.directrix_values(t, 2) + u @ fc.frame_values(t, 2),
                     fc.frame_values(t, 1)])
    return _rank(np.array([v - vt.T @ (vt @ v) for v in raw]), tol)


@pytest.mark.parametrize("name", sorted(BUILTIN_PATCHES))
def test_stacked_stages_equal_point_by_point(name):
    p = small_patch(name, 40)
    fc, tol, ts = p.fc, p.tol, p.grid.t_samples

    profile = degree_profile(fc, p.grid, tol)
    rhos = [_reference_rho(fc, t, tol) for t in ts]
    assert _close(profile.rho, rhos)
    assert profile.degrees.tolist() == [_rank(r, tol) for r in rhos]

    scan = second_form_scan(p)
    u_pts = p.grid.u_points(p.m - 1)
    expected = [[_reference_first_normal_dim(p, t, u) for u in u_pts] for t in ts]
    got = [[int(d) if r else None for d, r in zip(drow, rrow)]
           for drow, rrow in zip(scan.dims, scan.regular)]
    assert got == expected
    assert scan.skipped == sum(row.count(None) for row in expected)

    result = rank_one_check(p)
    if fc.m + 1 > fc.dim:
        table = [0.0] * ts.size
    else:
        table = [max(float(np.prod(np.linalg.svd(
                    np.vstack([fc.frame_values(t, 1)[j], fc.directrix_values(t, 1),
                               fc.frame_values(t)]), compute_uv=False)))
                     for j in range(fc.m - 1)) for t in ts]
    assert [t for t, _ in result.residual_table] == [float(t) for t in ts]
    assert _close([r for _, r in result.residual_table], table)
    planar = [(float(t), u.tolist()) for t, row in zip(ts, expected)
              for u, dim in zip(u_pts, row) if dim == 0]
    assert result.planar == planar


def _count_calls(monkeypatch, names):
    """Count calls of ruledkit functions, under every name that holds them."""
    counts = Counter()
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "ruledkit" or n.startswith("ruledkit."))]
    for modname, attr in names:
        original = getattr(importlib.import_module(f"ruledkit.{modname}"), attr)

        def wrapper(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return counts


def test_analyze_runs_each_stage_once(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, [
        ("ruledgeom", "second_form_scan"), ("distribution", "pivot_frame"),
        ("striction", "solve_striction"), ("striction", "singular_locus")])
    result = ingest({"builtin_patch": "circular_cone", "grid": {"t_samples": 40}})
    analyze(result, tmp_path / "out", invariance=False)
    assert counts == {"second_form_scan": 1, "pivot_frame": 1,
                      "solve_striction": 1, "singular_locus": 1}


@pytest.mark.parametrize("name", ["circular_cone", "tangent_developable_product"])
def test_sheet_arrays_equal_per_parameter(name):
    p = small_patch(name, 30)
    sheet = SegmentAnalysis(p, 0, 30, 1).sheet
    ts = p.grid.t_samples
    for u_free in p.grid.u_points(sheet.free_count)[:3]:
        assert _close(sheet.solved(ts, u_free), [sheet.solved(t, u_free) for t in ts])
        assert _close(sheet.beta(ts, u_free), [sheet.beta(t, u_free) for t in ts])
    # one free position per parameter
    u_rows = np.linspace(-1.0, 1.0, ts.size * sheet.free_count).reshape(ts.size, -1)
    assert _close(sheet.beta(ts, u_rows), [sheet.beta(t, u) for t, u in zip(ts, u_rows)])


@pytest.mark.parametrize("name", ["cylinder_helix", "helicoid_frame", "circular_cone",
                                  "tangent_developable_product", "two_rotation_r5"])
def test_stacked_stability_equals_pair_by_pair(name):
    p = small_patch(name, 9)
    rng = np.random.default_rng(5)
    per_t = []
    all_pairs = rng.uniform(-2.0, 2.0, (p.grid.t_samples.size, 6, 2, p.m - 1))
    for t, pairs in zip(p.grid.t_samples, all_pairs):
        expected = True
        for ua, ub in pairs:
            ja, jb = jacobian_sigma(p, t, ua), jacobian_sigma(p, t, ub)
            assert numerical_rank(ja, p.tol) == numerical_rank(jb, p.tol) == p.m
            _, worst = svd_span_verdicts(np.stack([ja, jb])[None], p.tol)
            if not worst[0] < p.tol.rank_rel_tol:
                expected = False
                break
        assert tangent_space_stability(p, t, pairs) == expected
        per_t.append(expected)
    # one t per pair: the pairs of the first n samples in one call
    pair_t = np.repeat(p.grid.t_samples, 6)
    for n in range(1, len(per_t) + 1):
        assert tangent_space_stability(p, pair_t[:6 * n],
                                       all_pairs[:n].reshape(-1, 2, p.m - 1)) == all(per_t[:n])


def _one_pair_loop(p, pairs_per_t, seed):
    """The pairs a plain loop keeps at each grid t, and how many candidates
    it rejects. In each of at most 50 rounds it draws, for every t still
    short of `pairs_per_t` pairs, `pairs_per_t` candidates one pair at a
    time, and keeps the regular ones while that t is short."""
    ext = p.grid.u_extent
    stream = SplitMix64(seed)
    kept, rejected = [[] for _ in p.grid.t_samples], 0
    for _ in range(50):
        short = [i for i, pairs in enumerate(kept) if len(pairs) < pairs_per_t]
        if not short:
            break
        for i in short:
            t = p.grid.t_samples[i]
            for _ in range(pairs_per_t):
                ua, ub = stream.uniform(-ext, ext, (2, p.m - 1))
                margins = [s[-1] / s[0] for s in (np.linalg.svd(jacobian_sigma(p, t, u),
                                                                 compute_uv=False)
                                                  for u in (ua, ub))]
                if min(margins) < 1.0 / selftest.PAIR_CONDITION_LIMIT:
                    rejected += 1
                elif len(kept[i]) < pairs_per_t:
                    kept[i].append((ua, ub))
    return [np.array(pairs).reshape(-1, 2, p.m - 1) for pairs in kept], rejected


def _sweep_pairs(monkeypatch, p, pairs_per_t, seed):
    """The (t per pair, pairs) that `_stability_sweep` hands to its one
    stability call, and the number of t it reports short of pairs."""
    seen = []

    def recording(p, t, pairs, jacobians):
        seen.append((np.asarray(t), np.asarray(pairs)))
        return True

    monkeypatch.setattr(selftest, "tangent_space_stability", recording)
    verdict, short = selftest._stability_sweep(p, pairs_per_t, seed)
    assert verdict
    assert len(seen) == 1
    return (*seen[0], short)


def _thin_box_patch(extent):
    """The tangent developable in a ruling box of half-width `extent`
    around its edge of regression, where the regularity margin is small."""
    fc = make_builtin_patch("tangent_developable_helix")
    return RuledPatch(fc, SampleGrid.uniform(fc.interval, 7, u_extent=extent))


def test_stability_sweep_draws_the_pairs_of_a_one_pair_loop(monkeypatch):
    # about half the candidate pairs are rejected as too close to the
    # edge, so the t need more than one round; a sweep that drew for a t
    # already full, or kept a t's pairs out of draw order, would end up
    # with other pairs
    p, pairs_per_t, seed = _thin_box_patch(0.01), 4, 11
    expected, rejected = _one_pair_loop(p, pairs_per_t, seed)
    assert rejected > 0
    pair_t, pairs, short = _sweep_pairs(monkeypatch, p, pairs_per_t, seed)
    assert np.array_equal(pair_t, np.repeat(p.grid.t_samples, pairs_per_t))
    assert np.array_equal(pairs, np.concatenate(expected))
    assert short == 0


@pytest.mark.parametrize("extent", [0.003, 0.001])
def test_stability_sweep_follows_the_one_pair_loop_when_t_run_out_of_attempts(
        monkeypatch, extent):
    # every t exhausts its attempts, with one pair or none (0.003) or with
    # none at all (0.001)
    p, pairs_per_t, seed = _thin_box_patch(extent), 4, 11
    expected, _ = _one_pair_loop(p, pairs_per_t, seed)
    assert all(len(e) < pairs_per_t for e in expected)
    pair_t, pairs, short = _sweep_pairs(monkeypatch, p, pairs_per_t, seed)
    assert np.array_equal(pair_t, np.repeat(p.grid.t_samples, [len(e) for e in expected]))
    assert np.array_equal(pairs, np.concatenate(expected))
    # the stability check of what was kept says True, even of no pairs;
    # the sweep counts every t short, so criterion 5 does not pass on it
    assert short == p.grid.t_samples.size


def test_system_stacks_equal_per_parameter_systems():
    for name in selftest.SYSTEM_PATCHES:
        d = selftest.CORPUS_DEGREES[name]
        pivoted = SegmentAnalysis(small_patch(name, 30), 0, 30, d).pivoted
        a, b = striction.striction_systems(pivoted, d)
        rho = pivoted.profile.rho[:, pivoted.m - 1 - d:]
        for i, t in enumerate(pivoted.grid.t_samples):
            system = striction.assemble_system(pivoted.fc, t, d, pivoted.tol)
            assert np.array_equal(a[i], system.A) and np.array_equal(b[i], system.b_affine)
            rho_t = rho_at(pivoted.fc, t, pivoted.tol).rho_vectors[pivoted.m - 1 - d:]
            assert np.array_equal(rho[i], rho_t)


def test_selftest_solves_each_sheet_once(monkeypatch):
    counts = _count_calls(monkeypatch, [("striction", "solve_striction"),
                                        ("striction", "_shifted_sheet"),
                                        ("distribution", "pivot_frame"),
                                        ("distribution", "degree_profile")])
    cholesky, invariance, factorized = np.linalg.cholesky, selftest.directrix_invariance, []

    def counting_cholesky(a):
        counts["cholesky"] += 1
        return cholesky(a)

    def counting_invariance(runs, *args, **kwargs):
        before = counts["cholesky"]
        result = invariance(runs, *args, **kwargs)
        factorized.append((len(runs), counts["cholesky"] - before))
        return result

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(selftest, "directrix_invariance", counting_invariance)
    results = selftest.run_selftest(t_samples=30)
    assert all(r.passed for r in results)
    # four degree-one corpus sheets; the directrix invariance check of 2
    # one-run patches factorizes each run's systems once and re-solves its
    # 3 offsets on the factors
    assert counts["solve_striction"] == 4
    assert factorized == [(1, 1), (1, 1)]
    assert counts["_shifted_sheet"] == 2 * len(INVARIANCE_SCALES)
    # one pivot per patch of criterion 3, shared with the sheets; the
    # profiles are the patches' own
    assert counts["pivot_frame"] == 5
    assert counts["degree_profile"] == 0


def test_selftest_checks_systems_and_stability_in_stacks(monkeypatch):
    counts = _count_calls(monkeypatch, [("striction", "assemble_system"),
                                        ("distribution", "rho_at"),
                                        ("ruledgeom", "tangent_space_stability"),
                                        ("ruledgeom", "_pair_jacobians"),
                                        ("selftest", "_regular_pairs"),
                                        ("oracles", "max_derivative_error")])
    results = selftest.run_selftest(t_samples=30)
    assert all(r.passed for r in results)
    # the systems and rho blocks are read from the pivoted patches' caches
    assert counts["assemble_system"] == counts["rho_at"] == 0
    # one stability call per patch, over the pairs of every t, with the
    # Jacobians of the sweep's candidate filter: one build per round of
    # candidates, and none in the stability call
    assert counts["tangent_space_stability"] == len(selftest.EQUIVALENCE_PATCHES)
    rounds = counts["_regular_pairs"]
    assert counts["_pair_jacobians"] == rounds >= len(selftest.EQUIVALENCE_PATCHES)
    # one derivative check per patch, of all its fields at both orders
    assert counts["max_derivative_error"] == len(selftest.CORPUS_DEGREES)


def test_analyze_builds_the_sheet_partials_once(tmp_path, monkeypatch):
    calls = []
    original = striction.StrictionSheet._partials

    def counting(sheet, values, u_free, *coefficients):
        calls.append(u_free.shape)
        return original(sheet, values, u_free, *coefficients)

    monkeypatch.setattr(striction.StrictionSheet, "_partials", counting)
    result = ingest({"builtin_patch": "circular_cone", "grid": {"t_samples": 40}})
    analyze(result, tmp_path / "out", invariance=False)
    # the grid partials that the locus, the equivalent-condition check and
    # the rank table share; the solve checks its defining property on the
    # system's residual
    assert len(calls) == 1
