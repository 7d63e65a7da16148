"""Closed-form rank verdicts of the second-form scan against the SVD.

`ruledgeom._regularity` (m >= 3) and `ruledgeom._normal_ranks` (a normal
space of dimension 2) read their verdicts from bounds and send only the
points next to a cutoff to the batched SVD. On stacks swept across
`rank_rel_tol` and `zero_abs_tol`, the verdicts must equal `rank_mask` of
the SVD (`ambient_second_form.svd_regularity`, `svd_normal_ranks`)
exactly, and only points inside the bounds' undecided band may reach the
SVD.
"""

import pathlib

import numpy as np
import pytest

from ambient_second_form import svd_normal_ranks, svd_regularity, svd_scan_verdicts
from ruledkit import TolerancePolicy, ingest
from ruledkit.ruledgeom import (_inverse_factors, _normal_ranks, _rank_margin, _regularity,
                                second_form_scan)
from test_second_form_reference import CASES

TOL = TolerancePolicy()
DELTA = _rank_margin(TOL)
REL, ZERO = TOL.rank_rel_tol, TOL.zero_abs_tol
SCENE_DIR = pathlib.Path(__file__).parent.parent / "scenes"
#: relative half-width of the sweeps around each cutoff, three rounding margins
SWEEP = 3e-6


def orthonormal_columns(rng, n, k, size):
    """(size, n, k) matrices with orthonormal columns."""
    return np.linalg.qr(rng.normal(size=(size, n, k)))[0]


def reduced_jacobians(rng, spectra):
    """Reduced Jacobians [[a, b], [R^T, 0]], b >= 0 and R upper triangular,
    with the singular values of each row of the (S, m) `spectra`; returns
    (jac, r)."""
    size, m = spectra.shape
    mat = (orthonormal_columns(rng, m, m, size) * spectra[:, None, :]
           ) @ orthonormal_columns(rng, m, m, size).swapaxes(1, 2)
    # rotate the columns so that rows 1..m-1 become [R^T, 0]
    jac = mat @ np.linalg.qr(mat[:, 1:].swapaxes(1, 2), mode="complete")[0]
    jac[:, 1:, -1] = 0.0
    jac[:, 1:, :-1] = np.tril(jac[:, 1:, :-1])
    jac[:, :, -1] *= np.where(jac[:, :1, -1] < 0.0, -1.0, 1.0)
    return jac, frame_factor(jac)


def frame_factor(jac):
    """The triangular factors R of a stack of reduced Jacobians, a view."""
    return jac[:, 1:, :-1].swapaxes(1, 2)


def regularity_spectra(rng, m):
    """Spectra whose condition number sweeps across 1 / rank_rel_tol and
    whose largest value sweeps across zero_abs_tol, down to ties."""
    kappa = np.concatenate([10.0 ** rng.uniform(7.0, 9.0, 3000),
                            1.0 / REL * (1.0 + rng.uniform(-SWEEP, SWEEP, 3000)),
                            1.0 / REL * (1.0 + rng.uniform(-1e-7, 1e-7, 3000))])
    ones = np.ones((kappa.size, m - 1))
    spread = np.concatenate([  # kappa_F within (m - 2) 1e-8 of kappa_2, and near sqrt(m - 1) kappa_2
        np.column_stack([ones[:, :1], 1e-4 * ones[:, 1:], 1.0 / kappa]),
        np.column_stack([ones, 1.0 / kappa])])
    scale = np.concatenate([10.0 ** rng.uniform(-9.0, -7.0, 2000),
                            ZERO * (1.0 + rng.uniform(-SWEEP, SWEEP, 2000)),
                            np.sqrt(m) * ZERO * (1.0 + rng.uniform(-SWEEP, SWEEP, 2000)),
                            ZERO * (1.0 + np.repeat(np.arange(-4, 5), 250) * np.finfo(float).eps)])
    flat = np.ones((scale.size, m)) * scale[:, None]
    flat[:6000:2, -1] *= 0.1
    return np.concatenate([spread, flat])


def normal_coordinates(rng, m):
    """(S, m, 3) second-form vectors whose rows lie in the plane orthogonal
    to a random unit vector: m x 2 normal-space coordinates W times an
    orthonormal basis of that plane, with s2 / s1 of W sweeping across
    rank_rel_tol and s1 across zero_abs_tol."""
    ratio = np.concatenate([10.0 ** rng.uniform(-9.0, -7.0, 3000),
                            REL * (1.0 + rng.uniform(-SWEEP, SWEEP, 3000)),
                            REL * (1.0 + rng.uniform(-1e-7, 1e-7, 3000)),
                            np.zeros(10)])
    s1 = np.concatenate([10.0 ** rng.uniform(-9.0, -7.0, 3000),
                         ZERO * (1.0 + rng.uniform(-SWEEP, SWEEP, 3000)),
                         ZERO * (1.0 + np.arange(-1000, 1000) * np.finfo(float).eps),
                         np.zeros(10)])
    spectra = np.concatenate([np.stack([np.ones_like(ratio), ratio], axis=1),
                              np.stack([s1, s1 * rng.uniform(0.0, 1.0, s1.size)], axis=1)])
    size = spectra.shape[0]
    w = (orthonormal_columns(rng, m, 2, size) * spectra[:, None, :]
         ) @ orthonormal_columns(rng, 2, 2, size).swapaxes(1, 2)
    plane = orthonormal_columns(rng, 3, 3, size)[:, :, 1:]
    return w @ plane.swapaxes(1, 2)


def svd_inputs(monkeypatch, verdict, *args):
    """`verdict(*args)` and the matrices it passed to the batched SVD."""
    seen = []
    svd = np.linalg.svd

    def recording(a, *rest, **kw):
        seen.append(np.array(a))
        return svd(a, *rest, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", recording)
        got = verdict(*args)
    return got, (np.concatenate(seen) if seen else np.empty((0,) + args[0].shape[1:]))


def reached(stack, inputs):
    """Mask of the matrices of `stack` among `inputs`."""
    keys = {a.tobytes() for a in inputs}
    return np.array([a.tobytes() in keys for a in stack])


@pytest.mark.parametrize("m", [3, 4])
def test_regularity_near_the_cutoffs_equals_the_svd(monkeypatch, m):
    rng = np.random.default_rng(m)
    jac, r = reduced_jacobians(rng, regularity_spectra(rng, m))
    got, inputs = svd_inputs(monkeypatch, _regularity, jac, _inverse_factors(r), TOL)
    np.testing.assert_array_equal(got, svd_regularity(jac, TOL))
    assert got.any() and not got.all()

    # the band in the bounds' own quantities, measured independently;
    # points within delta / 2 of its edges may fall either way
    norm = np.linalg.norm(jac, axis=(1, 2))
    kappa = norm * np.linalg.norm(np.linalg.inv(jac), axis=(1, 2))
    outside = (((kappa < (1 - 2 * DELTA) / REL) & (norm > (1 + 2 * DELTA) * np.sqrt(m) * ZERO))
               | (kappa > (1 + 2 * DELTA) * m / REL) | (norm < (1 - 2 * DELTA) * ZERO))
    inside = (((kappa > (1 - DELTA / 2) / REL) | (norm < (1 + DELTA / 2) * np.sqrt(m) * ZERO))
              & (kappa < (1 + DELTA / 2) * m / REL) & (norm > (1 - DELTA / 2) * ZERO))
    hit = reached(jac, inputs)
    assert hit.sum() == inputs.shape[0] > 0
    assert not (hit & outside).any()
    assert hit[inside].all() and inside.any()


def test_regularity_of_exactly_singular_jacobians(monkeypatch):
    rng = np.random.default_rng(0)
    jac = reduced_jacobians(rng, np.ones((40, 3)))[0]
    jac[:20, 0, -1] = 0.0  # b = 0: the last column vanishes, settled by the bound
    jac[20:, 2, 1] = 0.0   # R[1, 1] = 0: no R^-1, left to the SVD
    got, inputs = svd_inputs(monkeypatch, _regularity, jac,
                              _inverse_factors(frame_factor(jac)), TOL)
    np.testing.assert_array_equal(got, svd_regularity(jac, TOL))
    assert not got.any()
    np.testing.assert_array_equal(reached(jac, inputs), np.arange(40) >= 20)


@pytest.mark.parametrize("m", [2, 3])
def test_normal_ranks_near_the_cutoffs_equal_the_svd(monkeypatch, m):
    rng = np.random.default_rng(10 + m)
    vecs = normal_coordinates(rng, m)
    got, inputs = svd_inputs(monkeypatch, _normal_ranks, vecs, TOL)
    np.testing.assert_array_equal(got, svd_normal_ranks(vecs, TOL))
    assert set(got.tolist()) == {0, 1, 2}

    s = np.linalg.svd(vecs, compute_uv=False)
    s1, ratio = s[:, 0], s[:, 1] / np.where(s[:, 0] > 0.0, s[:, 0], 1.0)
    lead_clear = s1 > (1 + 2 * DELTA) * ZERO
    outside = ((s1 < (1 - 2 * DELTA) * ZERO)
               | (lead_clear & ((ratio > (1 + 2 * DELTA) * REL) | (ratio < (1 - 2 * DELTA) * REL))))
    inside = ((np.abs(s1 / ZERO - 1) < DELTA / 2)
              | (lead_clear & (np.abs(ratio / REL - 1) < DELTA / 2)))
    hit = reached(vecs, inputs)
    assert hit.sum() == inputs.shape[0] > 0
    assert not (hit & outside).any()
    assert hit[inside].all() and inside.any()


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_verdicts_equal_the_svd(case):
    p = CASES[case]()
    scan = second_form_scan(p)
    regular, dims = svd_scan_verdicts(p)
    np.testing.assert_array_equal(scan.regular, regular)
    np.testing.assert_array_equal(scan.dims, dims)


def _primed(stem, t_samples=800):
    """The scene's patch with the grid values the scan reads already
    evaluated, so that only the scan runs under the patched calls."""
    p = ingest(str(SCENE_DIR / f"{stem}.json"), overrides={"t_samples": t_samples}).patch
    for order in (0, 1, 2):
        p.values.frame(order)
    for order in (1, 2):
        p.values.directrix(order)
    return p


def _raising(name):
    def fail(*args, **kw):
        raise AssertionError(f"the scan called {name}")
    return fail


@pytest.mark.parametrize("stem", ["two_rotation_r5", "cylinder_helix_r4"])
def test_scan_settles_every_verdict_without_the_svd(monkeypatch, stem):
    p = _primed(stem)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", _raising("np.linalg.svd"))
        scan = second_form_scan(p)
    regular, dims = svd_scan_verdicts(p)
    np.testing.assert_array_equal(scan.regular, regular)
    np.testing.assert_array_equal(scan.dims, dims)


def test_cone_scan_keeps_its_closed_forms(monkeypatch):
    # m = 2 and a normal space of dimension 1: closed-form singular values
    # and the Frobenius rule, no SVD, no R^-1 and no minors
    p = _primed("circular_cone")
    with monkeypatch.context() as patch:
        for name in ("svd", "inv"):
            patch.setattr(np.linalg, name, _raising(f"np.linalg.{name}"))
        patch.setattr(np, "cross", _raising("np.cross"))
        scan = second_form_scan(p)
    regular, dims = svd_scan_verdicts(p)
    np.testing.assert_array_equal(scan.regular, regular)
    np.testing.assert_array_equal(scan.dims, dims)
