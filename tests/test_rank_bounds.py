"""Closed-form rank verdicts of the second-form scan against the SVD.

`ruledgeom._regularity` (m >= 3) and the per-point kernel's
`normal_ranks` (a normal space of dimension 2, kept in
`ambient_second_form`) read their verdicts from bounds and send only the
points next to a cutoff to the batched SVD. On stacks swept across
`rank_rel_tol` and `zero_abs_tol`, the verdicts must equal `rank_mask` of
the SVD (`ambient_second_form.svd_regularity`, `svd_normal_ranks`)
exactly, and only points inside the bounds' undecided band may reach the
SVD.

The scan decides its dimensions ruling by ruling (`ruledgeom._normal_dims`)
and sends the points it leaves undecided to the per-point kernel
(`ruledgeom._second_form_ranks`). On every shipped scene, selftest patch
and scene family it must equal that kernel over the whole grid
(`ambient_second_form.reference_scan`) and the SVD, and, but for a few
points next to the apex of the moment cones, reach neither; on stacks
swept across its own cutoffs (the rank of B = [g1 comp; Xdot comp] and
|e(u)| against both cutoffs) it must equal the kernel exactly and reach
it only inside the band.
"""

import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from ambient_second_form import (normal_ranks, reduced_pieces, reference_scan,
                                 second_form_vectors, svd_normal_ranks, svd_regularity,
                                 svd_scan_verdicts)
from ruledkit import TolerancePolicy, ingest, ruledgeom
from ruledkit.fields import ParameterArray
from ruledkit.multilinear import frame_qr
from ruledkit.parametric import GridValues
from ruledkit.ruledgeom import _inverse_factors, _rank_margin, _regularity, second_form_scan
from ruledkit.selftest import CORPUS_DEGREES, build_corpus
from scene_families import FAMILIES
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
    return got, (np.concatenate(seen) if seen else np.empty((0, 0, 0)))


def reached(stack, inputs):
    """Mask of the matrices of `stack` among `inputs`, -0.0 and 0.0 alike
    (a kernel may assemble its matrices afresh)."""
    keys = {(a + 0.0).tobytes() for a in inputs}
    return np.array([(a + 0.0).tobytes() in keys for a in stack])


@pytest.mark.parametrize("m", [3, 4])
def test_regularity_near_the_cutoffs_equals_the_svd(monkeypatch, m):
    rng = np.random.default_rng(m)
    jac, r = reduced_jacobians(rng, regularity_spectra(rng, m))
    got, inputs = svd_inputs(monkeypatch, _regularity, reduced_pieces(jac, _inverse_factors(r)),
                             TOL)
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
    got, inputs = svd_inputs(monkeypatch, _regularity, reduced_pieces(jac), TOL)
    np.testing.assert_array_equal(got, svd_regularity(jac, TOL))
    assert not got.any()
    np.testing.assert_array_equal(reached(jac, inputs), np.arange(40) >= 20)


@pytest.mark.parametrize("m", [2, 3])
def test_normal_ranks_near_the_cutoffs_equal_the_svd(monkeypatch, m):
    rng = np.random.default_rng(10 + m)
    vecs = normal_coordinates(rng, m)
    got, inputs = svd_inputs(monkeypatch, normal_ranks, vecs, TOL)
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
    """The scene's patch (at its own grid when `t_samples` is None) with the
    grid values the scan reads already evaluated, so that only the scan
    runs under the patched calls."""
    p = ingest(str(SCENE_DIR / f"{stem}.json"),
               overrides={} if t_samples is None else {"t_samples": t_samples}).patch
    for order in (0, 1, 2):
        p.values.frame(order)
    for order in (1, 2):
        p.values.directrix(order)
    return p


def _raising(name):
    def fail(*args, **kw):
        raise AssertionError(f"the scan called {name}")
    return fail


#: the patches whose scan must settle without the SVD: the shipped scenes at
#: their own grids and at 800 samples, the selftest corpus at 50 and 200,
#: and the scene families at seeds 0-2
SETTLED = {
    **{f"{path.stem}-{n}": (lambda path=path, n=n: _primed(path.stem, n))
       for path in sorted(SCENE_DIR.glob("*.json")) for n in (None, 800)},
    **{f"selftest-{name}-{n}": (lambda name=name, n=n: build_corpus(TOL, n)[name])
       for name in sorted(CORPUS_DEGREES) for n in (50, 200)},
    **{f"{name}-{seed}": (lambda make=make, seed=seed: ingest(make(seed)).patch)
       for name, (make, _) in sorted(FAMILIES.items()) for seed in range(3)},
}


def _near_apex(p, t_index, u):
    """|c| / (|B|_F (1 + |u|)) at grid points: how far sigma_t's part off
    the frame span is from cancelling to 0, as near a cone's apex."""
    _, _, g1, x1 = p.values.coordinates(1)
    c = g1[t_index, 0] + (u[:, None] @ x1[t_index])[:, 0]
    size = np.linalg.norm(np.concatenate([g1, x1], axis=1)[t_index], axis=(1, 2))
    return np.linalg.norm(c, axis=-1) / (size * (1.0 + np.linalg.norm(u, axis=-1)))


@pytest.mark.parametrize("case", sorted(SETTLED))
def test_scan_settles_every_verdict_without_the_svd(monkeypatch, case):
    p = SETTLED[case]()
    reached_kernel, svd_calls = [], []
    kernel, svd = ruledgeom._second_form_ranks, np.linalg.svd
    with monkeypatch.context() as patch:
        patch.setattr(ruledgeom, "_second_form_ranks",
                      lambda v, i, u, tol: reached_kernel.append((i, u)) or kernel(v, i, u, tol))
        patch.setattr(np.linalg, "svd", lambda *a, **kw: svd_calls.append(a) or svd(*a, **kw))
        scan = second_form_scan(p)
    for regular, dims in (reference_scan(p), svd_scan_verdicts(p)):
        np.testing.assert_array_equal(scan.regular, regular)
        np.testing.assert_array_equal(scan.dims, dims)
    if not case.startswith("moment_cone"):
        assert reached_kernel == [] and svd_calls == []
        return
    # the moment cones' rulings run through the apex, where the reference's
    # own rounding of c sets the verdict: a handful of points per grid, the
    # SVD only where the normal space is wider than a plane
    (i, u), = reached_kernel
    assert 0 < i.size <= 10
    assert np.all(_near_apex(p, i, u) < 1e-2)
    assert bool(svd_calls) == (p.dim - p.m + 1 > 3)


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


class HeldCurve(GridValues):
    """`GridValues` over held frame values and derivatives (orders 0-2) and
    directrix derivatives (orders 1-2) at N parameters, of no curve, with
    the frame QR and coordinates of `GridValues` itself."""

    def __init__(self, frame, directrix):
        super().__init__(None, ParameterArray(np.arange(float(len(frame[0])))))
        self._frame.update(frame)
        self._directrix.update(directrix)


def ruling_stacks(rng, m, dim, size):
    """A stand-in patch of `size` rulings, each at a 5 (m = 2) or 3 x 3
    (m = 3) grid of ruling positions in [-1, 1]^(m-1), whose second-form
    scan crosses the per-ruling cutoffs.

    In complement coordinates B = [g1 comp; Xdot comp] has a designed rank
    r and singular values from 0.5 to 2, the r-th scaled by 0 or by
    10^-13 .. 10^-4 (across the rank floor rank_rel_tol |B|_F); sigma_tt
    comp = g2 comp + u . (Xddot comp) lies in B's row space but for a part
    eps f off it, f a unit vector, with eps at zero_abs_tol (1 +- 3e-6), in
    10^-11 .. 10^-5 (across rank_rel_tol s_1), or 0, constant or affine in u.
    The parts along the frame are random.
    """
    k, w = m - 1, dim - m + 1
    x0 = orthonormal_columns(rng, dim, k, size).swapaxes(1, 2)
    _, q, comp, _ = frame_qr(x0)
    top = min(m, w)
    rank = rng.integers(1, top + 1, size)
    spectra = rng.uniform(0.5, 2.0, (size, top))
    last = np.where(rng.uniform(size=size) < 0.1, 0.0, 10.0 ** rng.uniform(-13.0, -4.0, size))
    spectra[np.arange(size), rank - 1] *= np.where(rank > 1, last, 1.0)
    spectra[np.arange(top) >= rank[:, None]] = 0.0
    left, right = orthonormal_columns(rng, m, m, size), orthonormal_columns(rng, w, w, size)
    b = (left[:, :, :top] * spectra[:, None]) @ right[:, :, :top].swapaxes(1, 2)
    eps = np.choose(rng.integers(0, 3, size), [ZERO * (1.0 + rng.uniform(-SWEEP, SWEEP, size)),
                                               10.0 ** rng.uniform(-11.0, -5.0, size),
                                               np.zeros(size)])
    f = right[np.arange(size), :, np.minimum(rank, w - 1)] * (rank < w)[:, None]
    in_span = np.arange(w) < rank[:, None]
    s = ((rng.normal(size=(size, m, w)) @ right) * in_span[:, None]) @ right.swapaxes(1, 2)
    s[:, 0] += eps[:, None] * f
    tilt = rng.uniform(-1.0, 1.0, (size, k)) * (rng.uniform(size=size) < 0.5)[:, None]
    s[:, 1:] += (tilt * eps[:, None])[..., None] * f[:, None]

    def ambient(in_comp):
        return rng.normal(size=in_comp.shape[:2] + (k,)) @ q.swapaxes(1, 2) + in_comp @ comp.swapaxes(1, 2)

    values = HeldCurve({0: x0, 1: ambient(b[:, 1:]), 2: ambient(s[:, 1:])},
                       {1: ambient(b[:, :1])[:, 0], 2: ambient(s[:, :1])[:, 0]})
    axis = np.linspace(-1.0, 1.0, 5 if k == 1 else 3)
    u = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
    grid = SimpleNamespace(t_samples=values.ts, u_points=lambda _: u)
    return SimpleNamespace(values=values, grid=grid, tol=TOL, m=m)


@pytest.mark.parametrize("m, dim", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)])
def test_ruling_dims_near_their_cutoffs_equal_the_kernel(monkeypatch, m, dim):
    rng = np.random.default_rng(10 * m + dim)
    p = ruling_stacks(rng, m, dim, 1500)
    u = p.grid.u_points(m - 1)
    seen = []
    kernel = ruledgeom._second_form_ranks
    with monkeypatch.context() as patch:
        patch.setattr(ruledgeom, "_second_form_ranks",
                      lambda v, i, u, tol: seen.append((i, u)) or kernel(v, i, u, tol))
        scan = second_form_scan(p)
    _, vecs, regular = second_form_vectors(p.values, slice(None), u, TOL)
    np.testing.assert_array_equal(scan.regular, regular)
    np.testing.assert_array_equal(scan.dims, np.where(regular, normal_ranks(vecs, TOL), -1))
    hit = np.zeros(regular.shape, dtype=bool)
    for i, points in seen:
        hit[i, (points[:, None] == u).all(axis=-1).argmax(axis=1)] = True
    assert not (hit & ~regular).any()

    # the band, measured independently: the kernel's singular values (the
    # Frobenius norm for a normal line) within a factor 1e4 of a cutoff, a
    # ruling whose B has a singular value ratio in 1e-14 .. 1e-3 (the rank
    # floor's reach), or sigma_t comp within 1e-4 of cancelling (the
    # kernel's own n rounds there); points within delta / 2 of a cutoff
    # must reach the kernel
    with np.errstate(divide="ignore", invalid="ignore"):
        if dim - m + 1 <= 2:
            near = np.abs(np.log(np.linalg.norm(vecs, axis=(-2, -1)) / ZERO))
        else:
            s = np.linalg.svd(vecs, compute_uv=False)
            lead = np.abs(np.log(s[..., 0] / ZERO))
            ratio = np.abs(np.log(s[..., 1:] / (REL * s[..., :1]))).min(axis=-1)
            near = np.where(s[..., 0] > ZERO, np.minimum(lead, ratio), lead)
    _, _, g1, x1 = p.values.coordinates(1)
    rows = np.concatenate([g1, x1], axis=1)
    spectra = np.linalg.svd(rows, compute_uv=False)
    ratios = spectra / spectra[:, :1]
    ill = ((ratios > 1e-14) & (ratios < 1e-3)).any(axis=1)[:, None]
    cancel = (np.linalg.norm(g1 + u @ x1, axis=-1)
              / (np.linalg.norm(rows, axis=(1, 2))[:, None] * (1.0 + np.linalg.norm(u, axis=-1))))
    outside = regular & (near > np.log(1e4)) & ~ill & ~(cancel < 1e-4)
    inside = regular & (near < np.log1p(DELTA / 2))
    assert not (hit & outside).any()
    assert hit[inside].all()
    assert outside.any()
    if dim > m:
        assert inside.any()
