"""The second-form scan in the patch's own coordinates against the
ambient kernel it replaced (`ambient_second_form`).

The per-point kernel (`ambient_second_form.second_form_vectors`) works
with an m x m reduced Jacobian and second-form vectors in coordinates of
the normal space, with closed forms for m = 2 and for a normal space of
dimension 1; the scan decides the same ranks ruling by ruling. On every patch below, its regularity and
first normal space dimensions must equal the ambient kernel's, its
singular values must match the ambient Jacobian's, and the Gauss-equation
curvatures of the Gram-Schmidt kernel must match. The flatness check's
closed-form curvatures must sum over their planes to the same value,
and for m = 2 equal it.
"""

import math
import pathlib

import numpy as np
import pytest

from ambient_second_form import (ambient_scan, gram_schmidt_plane_curvatures,
                                 reduced_singular_values, second_form_vectors)
from conftest import small_patch
from perfbench.scenegen import explicit_scene
from ruledkit import RuledPatch, SampleGrid, TolerancePolicy, ingest
from ruledkit.fields import FourierField
from ruledkit.parametric import FramedCurve
from ruledkit.ruledgeom import flatness_check, second_form_scan
from ruledkit.selftest import CORPUS_DEGREES, build_corpus
from test_ruledgeom import closed_form_curvatures, plane_patch

SCENES = sorted((pathlib.Path(__file__).parent.parent / "scenes").glob("*.json"))


def annulus_patch(t_samples=200):
    """The plane R^2 swept by radial segments (m = dim = 2): singular on
    the circle u = -1 of the grid, where the segments meet the origin."""
    circle = FourierField([(0.0, [1.0], [], 1.0), (0.0, [], [1.0], 1.0)])
    fc = FramedCurve(2, 2, circle, (circle,), (0.0, 2.0 * math.pi))
    return RuledPatch(fc, SampleGrid.uniform(fc.interval, t_samples))


CASES = {
    **{f"{path.stem}-{n}": (lambda path=path, n=n:
                            ingest(str(path), overrides={"t_samples": n}).patch)
       for path in SCENES for n in (40, 200, 800)},
    **{f"explicit_scene({seed})": (lambda seed=seed: ingest(explicit_scene(seed)).patch)
       for seed in range(8)},
    "rotating_cylinder": lambda: small_patch("rotating_cylinder", 200),
    "annulus": annulus_patch,
    "tangent_developable_product": lambda: small_patch("tangent_developable_product", 200),
    "plane": plane_patch,
    "tangent_developable_helix": lambda: small_patch("tangent_developable_helix", 200),
}


def assert_matches_ambient(p, raw_curvature_tol=None):
    """Scan, singular values and curvatures of `p` against the ambient kernel.

    Curvatures go through the inverse Gram matrix of the Jacobian, so
    round-off in either kernel grows with its squared condition number
    kappa^2 = (s1 / s_m)^2; on the reparametrized explicit scenes both
    kernels sit about 2e-13 from a long-double evaluation. The bound is
    1e-14 kappa^2 max(1, |K|), and `raw_curvature_tol`, when given, also
    bounds the plain difference.
    """
    scan = second_form_scan(p)
    jac_a, vecs_a, regular_a, dims_a = ambient_scan(p)
    np.testing.assert_array_equal(scan.regular, regular_a)
    np.testing.assert_array_equal(scan.dims, dims_a)

    jac, vecs, regular = second_form_vectors(p.values, slice(None),
                                             p.grid.u_points(p.m - 1), p.tol)
    assert jac.shape[-2:] == (p.m, p.m) and vecs.shape[-2:] == (p.m, p.dim - p.m + 1)
    np.testing.assert_array_equal(regular, regular_a)
    s_a = np.linalg.svd(jac_a, compute_uv=False)
    assert np.all(np.abs(reduced_singular_values(jac) - s_a) <= 1e-14 * s_a[..., :1])

    if not regular.any():
        return
    k_a = gram_schmidt_plane_curvatures(jac_a[regular], vecs_a[regular], p.tol)
    k = gram_schmidt_plane_curvatures(jac[regular], vecs[regular], p.tol)
    kappa2 = (s_a[regular][:, 0] / s_a[regular][:, -1]) ** 2
    assert np.all(np.abs(k - k_a) <= 1e-14 * kappa2[:, None] * np.maximum(1.0, np.abs(k_a)))
    if raw_curvature_tol is not None:
        assert np.abs(k - k_a).max() <= raw_curvature_tol
    # the sum over the coordinate planes of an orthonormal basis does not
    # depend on the basis
    closed = closed_form_curvatures(p)
    sums = k_a.sum(axis=-1)
    assert np.all(np.abs(closed.sum(axis=-1) - sums)
                  <= 1e-14 * k_a.shape[-1] * kappa2 * np.maximum(1.0, np.abs(sums)))
    if p.m == 2:
        assert abs(flatness_check(p).max_abs - np.abs(k_a).max()) <= 1e-14 * max(1.0, kappa2.max())


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_equals_the_ambient_kernel(case):
    assert_matches_ambient(CASES[case]())


@pytest.mark.parametrize("name", sorted(CORPUS_DEGREES))
def test_scan_equals_the_ambient_kernel_on_the_selftest_corpus(name):
    assert_matches_ambient(build_corpus(TolerancePolicy(), 50)[name], raw_curvature_tol=1e-14)


def test_edge_shapes_take_their_branches():
    # m = dim: no normal space; dim - m = 1 with m = 3; a plane: dims 0
    for p, dims in ((small_patch("rotating_cylinder", 200), {0}), (annulus_patch(), {0}),
                    (small_patch("tangent_developable_product", 200), {1}),
                    (plane_patch(), {0})):
        scan = second_form_scan(p)
        assert set(scan.dims[scan.regular].tolist()) == dims
    # the annulus is singular where the radial segments meet the origin
    p = annulus_patch()
    u = p.grid.u_points(1)[:, 0]
    assert np.array_equal(~second_form_scan(p).regular, np.broadcast_to(u == -1.0, (200, u.size)))
    # the tangent developable's edge u = 0 is on the grid: 200 singular points
    p = small_patch("tangent_developable_helix", 200)
    u = p.grid.u_points(1)[:, 0]
    scan = second_form_scan(p)
    assert scan.skipped == 200
    assert np.array_equal(~scan.regular, np.broadcast_to(u == 0.0, (200, u.size)))
