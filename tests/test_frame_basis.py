"""The grid's one frame factorization (`GridValues.frame_basis`) and the
values read from it, against the SVD kernels it replaced (`frame_oracles`).

On every shipped scene, at its own grid and at 800 samples, and on the
seeded explicit scenes: rho equals the SVD projection off the ruling span
within 1e-14 |Xdot|, and the rank-one and locus residuals equal the SVD's
wedge norms within their rounding slack. No residual lies within that
slack of zero_abs_tol, so every rank-one and singular verdict is the
SVD's. During `analyze`, each grid's frame stack goes through one
complete QR.

The striction sheet's tangents, sheet wedges and augmented wedges read
the derivatives' coordinates in that QR (`GridValues.coordinates`) and
sigma_t at the sheet point. On the shipped and seeded scenes they equal
the ambient forms they replaced: the tangents from the dim x dim
projector within 1e-12 of their scale, the wedges from beta_dot within
twice their rounding slack, and with the same verdicts.
"""

import pathlib
import sys

import numpy as np
import pytest

from conftest import small_patch
from frame_oracles import (beta_dot_augmented_vanish, beta_dot_locus_residuals,
                           project_off_spans, projector_tangents, rank_one_wedges, sheet_wedges,
                           wedge_slack)
from perfbench.scenegen import explicit_scene
from ruledkit import RuledPatch, SampleGrid, analyze, ingest, make_builtin_patch
from ruledkit.classify import segment_analyses
from ruledkit.fields import AffineCombinationField
from ruledkit.multilinear import wedge_norms
from ruledkit.ruledgeom import rank_one_check
from ruledkit.striction import _augmented_vanish
from scene_families import FAMILIES

SCENE_DIR = pathlib.Path(__file__).parent.parent / "scenes"
SOURCES = ([(path.stem, str(path), overrides) for path in sorted(SCENE_DIR.glob("*.json"))
            for overrides in ({}, {"t_samples": 800})]
           + [(f"explicit_scene_{seed}", explicit_scene(seed), {}) for seed in range(8)])


@pytest.fixture(scope="module", params=SOURCES,
                ids=[f"{name}-{o.get('t_samples', 'own')}" for name, _, o in SOURCES])
def patch(request):
    _, source, overrides = request.param
    return ingest(source, overrides=overrides).patch


def test_rho_equals_the_svd_projection(patch):
    v = patch.values
    want = project_off_spans(v.frame(0), v.frame(1))
    scale = np.linalg.norm(v.frame(1), axis=(1, 2))[:, None, None]
    assert (np.abs(patch.profile.rho - want) <= 1e-14 * scale).all()


def svd_wedges(stacks, zero):
    """The SVD's wedge norms of `stacks` and their rounding slack; none of
    the norms lies within its slack of the cutoff `zero`, so a closed form
    within the slack of each gives the SVD's verdicts."""
    want, slack = wedge_norms(stacks), wedge_slack(stacks)
    assert (np.abs(want - zero) > slack).all()
    return want, slack


def test_rank_one_residuals_equal_the_svd_wedges(patch):
    assert patch.m + 1 <= patch.dim
    zero = patch.tol.zero_abs_tol
    want, slack = svd_wedges(rank_one_wedges(patch.values), zero)
    got = np.array([r for _, r in patch.rank_one.residual_table])
    # the largest wedge over the frame derivatives moves by at most the largest slack
    assert (np.abs(got - want.max(axis=1)) <= slack.max(axis=1)).all()
    np.testing.assert_array_equal(got < zero, want.max(axis=1) < zero)


@pytest.mark.parametrize("name", ["helicoid_frame", "tangent_developable_product",
                                  "two_rotation_r5"])
def test_rank_one_residuals_of_a_sheared_frame_equal_the_svd_wedges(name):
    # X_1 -> 2 X_1 + 0.5 X_2: a frame that is not orthonormal, of volume
    # |X_1 ^ ... ^ X_{m-1}| = 2, which the closed form reads as |det R|
    fc = make_builtin_patch(name)
    first = AffineCombinationField(fc.frame[0], list(fc.frame), [1.0] + [0.5] * (fc.m - 2))
    p = RuledPatch(fc.with_frame([first, *fc.frame[1:]]), SampleGrid.uniform(fc.interval, 50))
    np.testing.assert_allclose(p.values.frame_basis()[3], 2.0, rtol=1e-14)
    stacks = rank_one_wedges(p.values)
    want, slack = wedge_norms(stacks).max(axis=1), wedge_slack(stacks).max(axis=1)
    got = np.array([r for _, r in rank_one_check(p).residual_table])
    assert (np.abs(got - want) <= slack).all()
    assert bool((want > 0.1).any()) == (name != "tangent_developable_product")


def test_locus_residuals_equal_the_svd_wedges(patch):
    zero = patch.tol.zero_abs_tol
    for seg in segment_analyses(patch):
        if seg.d == 0 or seg.narrow:
            continue
        want, slack = svd_wedges(sheet_wedges(seg.sheet), zero)
        assert (np.abs(seg.locus.residuals - want) <= slack).all()
        np.testing.assert_array_equal(seg.locus.singular, want < zero)


def test_segment_patch_slices_its_parents_values_and_basis():
    p = small_patch("two_rotation_r5", 30)
    assert p.profile and p.scan  # the whole grid's stages run first, as in `analyze`
    sub = p.restrict(5, 20)
    for got, whole in [(sub.values.frame(1), p.values.frame(1)),
                       (sub.values.directrix(1), p.values.directrix(1)),
                       *zip(sub.values.frame_basis(), p.values.frame_basis())]:
        assert np.shares_memory(got, whole) and np.array_equal(got, whole[5:20])
    np.testing.assert_array_equal(sub.values.ts, p.grid.t_samples[5:20])


ANALYSES = ([(path.stem, {}) for path in sorted(SCENE_DIR.glob("*.json"))]
            + [("circular_cone", {"t_samples": 800}), ("two_rotation_r5", {"t_samples": 800})])


@pytest.mark.parametrize("stem,overrides", ANALYSES,
                         ids=[f"{stem}-{o.get('t_samples', 'own')}" for stem, o in ANALYSES])
def test_analyze_factorizes_each_grid_frame_once(monkeypatch, tmp_path, stem, overrides):
    result = ingest(str(SCENE_DIR / f"{stem}.json"), overrides=overrides)
    calls = []
    qr = np.linalg.qr

    def keyed(a, mode="reduced"):
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_name, frame.f_back.f_code.co_name, mode, a.shape))
        return qr(a, mode=mode)

    with monkeypatch.context() as ctx:
        ctx.setattr(np.linalg, "qr", keyed)
        analyze(result, tmp_path)
    p = result.patch
    # the grid's frame stack, once, shared by the profile, the scan, the
    # rank-one wedges, the sheet wedges, the off-sheet certificates and the
    # equivalent-condition check; no frame off the grid is factorized
    assert calls == [("frame_qr", "frame_basis", "complete",
                      (p.grid.t_samples.size, p.dim, p.m - 1))]


ORACLE_SOURCES = ([(path.stem, str(path)) for path in sorted(SCENE_DIR.glob("*.json"))]
                  + [(f"explicit_scene_{seed}", explicit_scene(seed)) for seed in range(4)]
                  + [(f"{name}_0", make(0)) for name, (make, _) in sorted(FAMILIES.items())])


@pytest.mark.parametrize("t_samples", [40, 200])
@pytest.mark.parametrize("name,source", ORACLE_SOURCES, ids=[name for name, _ in ORACLE_SOURCES])
def test_sheet_stages_equal_their_ambient_forms(name, source, t_samples):
    p = ingest(source, overrides={"t_samples": t_samples}).patch
    zero = p.tol.zero_abs_tol
    for seg in segment_analyses(p):
        if seg.d == 0 or seg.narrow:
            continue
        sheet = seg.sheet
        want = projector_tangents(sheet)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(sheet.solution_tangents - want).max() <= 1e-12 * scale
        want = beta_dot_locus_residuals(sheet)
        slack = wedge_slack(sheet_wedges(sheet))
        assert (np.abs(seg.locus.residuals - want) <= 2 * slack).all()
        np.testing.assert_array_equal(seg.locus.singular, want < zero)
        if p.m + 1 <= p.dim:
            np.testing.assert_array_equal(_augmented_vanish(sheet.values, sheet.grid_u, p.tol),
                                          beta_dot_augmented_vanish(sheet, p.tol))
