"""Closed-form verdicts of `analyze`'s rank and wedge tests against the SVD.

The degree profile (`distribution._degrees`), the sheet Jacobian ranks
(`multilinear.rank2_ranks`), the augmented wedges of the
equivalent-condition check (`striction._augmented_vanish`) and the
regularity test of the off-sheet oracle (`offsheet_oracle.jacobian_regularity`,
the scan's reduced Jacobians and rank rule) read closed forms and
send only the matrices next to a cutoff to the batched SVD. On
stacks swept across each cutoff and band edge, the verdicts must equal
those of the SVD exactly, only matrices inside the band may reach it, and
exactly zero blocks must be settled without it. `analyze` of a shipped
scene calls the SVD nowhere.
"""

import pathlib
import sys
import warnings

import numpy as np
import pytest

from offsheet_oracle import jacobian_regularity
from test_rank_bounds import orthonormal_columns, reached, svd_inputs
from ruledkit import TolerancePolicy, analyze, ingest
from ruledkit.distribution import _degrees, _svd_degrees
from ruledkit.fields import ParameterArray
from ruledkit.multilinear import (RANK_BOUND_MARGIN, _rank_margin, _ratio_margin,
                                  numerical_ranks, rank2_ranks, wedge_norms)
from ruledkit.parametric import GridValues
from ruledkit.striction import WEDGE_SLACK_PER_VECTOR, _augmented_vanish

TOL = TolerancePolicy()
EPS = np.finfo(float).eps
SCENE_DIR = pathlib.Path(__file__).parent.parent / "scenes"
#: relative half-width of the sweeps around each cutoff, three rounding margins
SWEEP = 3e-6
#: rank_rel_tol = 0.1 puts s1's own band test, s1 <= 10 rank_rel_tol s1, on a tie
POLICIES = [TOL, TolerancePolicy(rank_rel_tol=1e-4, zero_abs_tol=1e-6),
            TolerancePolicy(rank_rel_tol=0.1, zero_abs_tol=1e-10)]


def across(rng, value, size):
    """`size` values around `value` each: far on both sides, within the
    sweep, and within a few ulps."""
    return value * np.concatenate([10.0 ** rng.uniform(-1.0, 1.0, size),
                                   1.0 + rng.uniform(-SWEEP, SWEEP, size),
                                   1.0 + rng.integers(-4, 5, size) * EPS])


def with_spectra(rng, spectra, dim):
    """(S, k, dim) matrices with the singular values of each row of the
    (S, k) `spectra`."""
    size, k = spectra.shape
    return (orthonormal_columns(rng, k, k, size) * spectra[:, None, :]
            ) @ orthonormal_columns(rng, dim, k, size).swapaxes(1, 2)


def near(value, cutoff, width):
    return np.abs(value - cutoff) <= width * cutoff


# --- degree profile -----------------------------------------------------------

def degree_spectra(rng, k, tol):
    """(S, k) spectra whose s1 sweeps across zero_abs_tol and 0.1 of it,
    and whose s2 / s1 sweeps across rank_rel_tol and the band edges 0.1
    and 10 times it; exact zeros included."""
    rel, zero = tol.rank_rel_tol, tol.zero_abs_tol
    s1 = np.concatenate([across(rng, zero, 300), across(rng, 0.1 * zero, 300),
                         10.0 ** rng.uniform(-3.0, 3.0, 600) * zero, np.zeros(10)])
    if k == 1:
        return s1[:, None]
    ratio = np.concatenate([across(rng, rel, 300), across(rng, 0.1 * rel, 300),
                            across(rng, 10.0 * rel, 300), np.zeros(10)])
    ratio = np.minimum(ratio, 1.0)
    lead = np.concatenate([np.ones(ratio.size), s1])
    ratio = np.concatenate([ratio, rng.choice(ratio, s1.size)])
    return np.stack([lead, lead * ratio], axis=1)


@pytest.mark.parametrize("tol", POLICIES, ids=["default", "loose", "tie"])
@pytest.mark.parametrize("k,dim", [(1, 3), (2, 4), (2, 5)])
def test_degrees_near_the_cutoffs_equal_the_svd(monkeypatch, tol, k, dim):
    rng = np.random.default_rng(100 * k + dim)
    rho = with_spectra(rng, degree_spectra(rng, k, tol), dim)
    (degrees, borderline), inputs = svd_inputs(monkeypatch, _degrees, rho, tol)
    want_degrees, want_borderline = _svd_degrees(rho, tol)
    np.testing.assert_array_equal(degrees, want_degrees)
    np.testing.assert_array_equal(borderline, want_borderline)
    assert set(degrees.tolist()) == set(range(k + 1))
    assert borderline.any() and not borderline.all()

    # the band in singular values measured independently
    s = np.linalg.svd(rho, compute_uv=False)
    s1, rel, zero = s[:, 0], tol.rank_rel_tol, tol.zero_abs_tol
    ratio = s[:, -1] / np.where(s1 > 0.0, s1, 1.0)
    edges = [(rel, _rank_margin(tol)), (0.1 * rel, _ratio_margin(0.1 * rel)),
             (10.0 * rel, _ratio_margin(10.0 * rel))] if k == 2 else []
    ratio_clear, ratio_near = np.ones_like(s1, dtype=bool), np.zeros_like(s1, dtype=bool)
    for edge, margin in edges:
        ratio_clear &= ~near(ratio, edge, 2 * margin)
        ratio_near |= near(ratio, edge, margin / 2)
    lead_clear = s1 > (1 + 2 * RANK_BOUND_MARGIN) * zero
    tie = abs(10.0 * rel - 1.0) <= RANK_BOUND_MARGIN
    outside = ((s1 < (1 - 2 * RANK_BOUND_MARGIN) * 0.1 * zero)
               | ((s1 < (1 - 2 * RANK_BOUND_MARGIN) * zero)
                  & (s1 > (1 + 2 * RANK_BOUND_MARGIN) * 0.1 * zero))
               | (lead_clear & ~tie & ratio_clear))
    inside = (near(s1, zero, RANK_BOUND_MARGIN / 2) | near(s1, 0.1 * zero, RANK_BOUND_MARGIN / 2)
              | (lead_clear & (tie | ratio_near)))
    hit = reached(rho, inputs)
    assert hit.sum() == inputs.shape[0] > 0
    assert not (hit & outside).any()
    assert hit[inside].all() and inside.any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [1, 2])
def test_zero_rho_blocks_are_settled_without_the_svd(monkeypatch, k):
    rho = np.zeros((50, k, 4))
    if k == 2:
        rho[25:, 0, 0] = 1.0  # one nonzero row: degree 1, s2 = 0
    (degrees, borderline), inputs = svd_inputs(monkeypatch, _degrees, rho, TOL)
    assert inputs.shape[0] == 0
    np.testing.assert_array_equal(degrees, np.arange(50) >= 25 if k == 2 else 0)
    assert not borderline.any()


# --- sheet Jacobian ranks ---------------------------------------------------------

def rank_spectra(rng, k, tol):
    """(S, k) spectra across zero_abs_tol and, for two rows, s2 / s1 across
    rank_rel_tol; exact zeros included."""
    s1 = np.concatenate([across(rng, tol.zero_abs_tol, 500), np.zeros(10)])
    if k == 1:
        return s1[:, None]
    ratio = np.concatenate([across(rng, tol.rank_rel_tol, 500), np.zeros(10)])
    return np.concatenate([np.stack([np.ones_like(ratio), ratio], axis=1),
                           np.stack([s1, s1 * rng.uniform(0.0, 1.0, s1.size)], axis=1)])


@pytest.mark.parametrize("tol", POLICIES[:2], ids=["default", "loose"])
@pytest.mark.parametrize("k,dim", [(1, 3), (1, 5), (2, 3), (2, 4)])
def test_sheet_ranks_near_the_cutoffs_equal_the_svd(monkeypatch, tol, k, dim):
    rng = np.random.default_rng(10 * k + dim)
    spectra = rank_spectra(rng, k, tol)
    # (N, P, m-d, dim), as the sheet's grid partials
    partials = with_spectra(rng, spectra, dim).reshape(-1, 2, k, dim)
    got, inputs = svd_inputs(monkeypatch, rank2_ranks, partials, tol)
    np.testing.assert_array_equal(got, numerical_ranks(partials, tol))
    assert set(got.ravel().tolist()) == set(range(k + 1))

    s = np.linalg.svd(partials, compute_uv=False).reshape(-1, k)
    s1, delta = s[:, 0], _rank_margin(tol)
    ratio = s[:, -1] / np.where(s1 > 0.0, s1, 1.0)
    lead_clear = s1 > (1 + 2 * delta) * tol.zero_abs_tol
    outside = (s1 < (1 - 2 * delta) * tol.zero_abs_tol) | (
        lead_clear & (k == 1 or ~near(ratio, tol.rank_rel_tol, 2 * delta)))
    inside = near(s1, tol.zero_abs_tol, delta / 2) | (
        lead_clear & (k == 2) & near(ratio, tol.rank_rel_tol, delta / 2))
    hit = reached(partials.reshape(-1, k, dim), inputs)
    assert hit.sum() == inputs.shape[0] > 0
    assert not (hit & outside).any()
    assert hit[inside].all() and inside.any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_sheet_partials_are_settled_without_the_svd(monkeypatch):
    # beta_dot = 0, as at a cone's apex, with and without a free partial
    partials = np.zeros((20, 3, 2, 3))
    partials[10:, :, 1, 2] = 1.0
    got, inputs = svd_inputs(monkeypatch, rank2_ranks, partials, TOL)
    assert inputs.shape[0] == 0
    np.testing.assert_array_equal(got, numerical_ranks(partials, TOL))
    got, inputs = svd_inputs(monkeypatch, rank2_ranks, partials[:, :, :1], TOL)
    assert inputs.shape[0] == 0 and not got.any()


# --- augmented wedges ---------------------------------------------------------------

class HeldValues(GridValues):
    """`GridValues` over held frame values x0, frame derivatives x1 and
    directrix derivatives g1 at N parameters, of no curve: the orders that
    the off-sheet check and the augmented wedges read, with the frame QR
    and coordinates of `GridValues` itself."""

    def __init__(self, x0, x1, g1):
        super().__init__(None, ParameterArray(np.arange(float(len(x0)))))
        self._frame.update({0: x0, 1: x1})
        self._directrix[1] = g1


def augmented_stacks(rng, m, dim, tol, size=600):
    """Frames x0 (S, m-1, dim), derivatives x1 (S, m-1, dim) and sheet
    partials beta_dot (S, 1, dim) whose augmented wedges
    |Xdot_j ^ beta_dot ^ X_1 ^ ... ^ X_{m-1}| sweep across zero_abs_tol:
    each Xdot_j off the frame span is alpha_j b + w_j e, b = beta_dot's
    part off the span and e a unit vector orthogonal to both, so the wedge
    is |X_1 ^ ... ^ X_{m-1}| |b| |w_j|. Half the frames are orthonormal,
    the other half scaled and sheared (|X_1 ^ ... ^ X_{m-1}| != 1). Exact
    zeros (beta_dot = 0, Xdot_j along b) included."""
    k = m - 1
    basis = orthonormal_columns(rng, dim, dim, size).swapaxes(1, 2)  # rows orthonormal
    x0, b_dir, e = basis[:, :k], basis[:, k], basis[:, k + 1]
    shear = np.triu(rng.uniform(-0.3, 0.3, (size, k, k)), 1) + np.eye(k) * np.where(
        np.arange(size) % 2 == 0, 1.0, rng.uniform(0.5, 2.0, size))[:, None, None]
    volume = np.prod(np.diagonal(shear, axis1=1, axis2=2), axis=1)
    x0 = shear @ x0
    b_len = 10.0 ** rng.uniform(-1.0, 1.0, size)
    targets = np.stack([rng.permutation(np.concatenate(
        [across(rng, tol.zero_abs_tol, size // 3), np.zeros(size - 3 * (size // 3))]))
        for _ in range(k)], axis=1) / volume[:, None]  # (S, m-1)
    along = rng.normal(size=(size, k, k))  # components along the frame span
    x1 = (along @ x0 + rng.normal(size=(size, k, 1)) * b_dir[:, None]
          + (targets / b_len[:, None])[..., None] * e[:, None])
    beta_dot = rng.normal(size=(size, 1, k)) @ x0 + (b_len[:, None] * b_dir)[:, None]
    beta_dot[:20] = 0.0
    return x0, x1, beta_dot


def augmented_oracle(x0, x1, beta_dot):
    """(S, P, m-1) stacks [Xdot_j, beta_dot, X_1..X_{m-1}] in the order the
    check builds them."""
    size, npos, dim = beta_dot.shape
    k = x0.shape[1]
    stack = np.empty((size, npos, k, k + 2, dim))
    stack[:, :, :, 0] = x1[:, None]
    stack[:, :, :, 1] = beta_dot[:, :, None]
    stack[:, :, :, 2:] = x0[:, None, None]
    return stack


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m,dim", [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)])
def test_augmented_wedges_near_the_cutoff_equal_the_svd(monkeypatch, m, dim):
    rng = np.random.default_rng(10 * m + dim)
    x0, x1, beta_dot = augmented_stacks(rng, m, dim, TOL)
    # beta_dot as sigma_t at u = 0, the directrix derivative
    got, inputs = svd_inputs(monkeypatch, _augmented_vanish, HeldValues(x0, x1, beta_dot[:, 0]),
                             np.zeros((x0.shape[0], 1, m - 1)), TOL)
    stack = augmented_oracle(x0, x1, beta_dot)
    wedge = wedge_norms(stack)
    np.testing.assert_array_equal(got, wedge < TOL.zero_abs_tol)
    assert got.any() and not got.all()

    # the band in the SVD's own wedge norms, with the slack computed independently
    k = m + 1
    slack = WEDGE_SLACK_PER_VECTOR * k * EPS * np.sum(stack * stack, axis=(-2, -1)) ** (k / 2)
    gap = np.abs(wedge - TOL.zero_abs_tol)
    outside = gap > 2 * (RANK_BOUND_MARGIN * TOL.zero_abs_tol + slack)
    inside = gap < 0.5 * (RANK_BOUND_MARGIN * TOL.zero_abs_tol + slack)
    hit = reached(stack.reshape(-1, k, dim), inputs).reshape(wedge.shape)
    assert hit.sum() == inputs.shape[0] > 0
    assert not (hit & outside).any()
    assert hit[inside].all() and inside.any()
    # beta_dot = 0 and Xdot_j along beta_dot: settled, vanishing, no SVD
    assert got[:20].all() and not hit[:20].any()


# --- off-sheet regularity ---------------------------------------------------------

@pytest.mark.parametrize("m,dim", [(2, 3), (3, 4), (3, 5), (4, 5)])
def test_jacobian_regularity_equals_the_svd_rank_rule(m, dim):
    # ambient Jacobians [sigma_t, X_1..X_{m-1}] with an orthonormal frame,
    # sigma_t = g1 + u . Xdot at each point's own u, Xdot in the frame
    # span; sigma_t's part off the frame span sweeps the smallest
    # singular value over many decades, and the scale across zero_abs_tol
    rng = np.random.default_rng(m * dim)
    size = 4000
    basis = orthonormal_columns(rng, dim, dim, size).swapaxes(1, 2)
    off = 10.0 ** rng.uniform(-12.0, 1.0, size)
    scale = np.where(np.arange(size) % 2 == 0, 1.0, 10.0 ** rng.uniform(-10.0, -6.0, size))
    g1 = ((rng.normal(size=(size, 1, m - 1)) @ basis[:, :m - 1])[:, 0]
          + off[:, None] * basis[:, m - 1])
    g1 *= (10.0 ** rng.uniform(-1.0, 1.0, size) * scale)[:, None]
    x0 = basis[:, :m - 1] * scale[:, None, None]
    x1 = rng.normal(size=(size, m - 1, m - 1)) @ x0
    u = rng.uniform(-2.0, 2.0, (size, m - 1))
    jac = np.empty((size, m, dim))
    jac[:, 0] = g1 + (u[:, None] @ x1)[:, 0]
    jac[:, 1:] = x0
    want = numerical_ranks(jac, TOL) == m
    np.testing.assert_array_equal(jacobian_regularity(HeldValues(x0, x1, g1), u, TOL), want)
    assert want.any() and not want.all()


# --- no SVD for a verdict -------------------------------------------------------------

def _svd_callers(monkeypatch, run):
    """Names of the functions that called `np.linalg.svd` during `run()`,
    each with its own caller: (caller, caller's caller)."""
    seen = set()
    svd = np.linalg.svd

    def keyed(*args, **kw):
        frame = sys._getframe(1)
        seen.add((frame.f_code.co_name, frame.f_back.f_code.co_name))
        return svd(*args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", keyed)
        run()
    return seen


ANALYSES = ([(path.stem, {}) for path in sorted(SCENE_DIR.glob("*.json"))]
            + [("circular_cone", {"t_samples": 800}), ("two_rotation_r5", {"t_samples": 800})])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stem,overrides", ANALYSES,
                         ids=[f"{stem}-{o.get('t_samples', 'own')}" for stem, o in ANALYSES])
def test_analyze_runs_the_svd_for_written_values_only(monkeypatch, tmp_path, stem, overrides):
    result = ingest(str(SCENE_DIR / f"{stem}.json"), overrides=overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        callers = _svd_callers(monkeypatch, lambda: analyze(result, tmp_path))
    # rho and the written rank-one and locus wedges read the grid's frame QR
    # in closed form (`test_frame_basis`), and no verdict of a shipped scene
    # lies within the rounding margin of its cutoff that sends it to the SVD
    assert callers == set()
