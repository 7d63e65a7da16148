import math

import numpy as np
import pytest

from conftest import small_patch
from ruledkit import RuledPatch, SampleGrid, ValidationError, classify_patch, ingest
from ruledkit.classify import (CONICAL, CYLINDRICAL, NON_RANK_ONE, TANGENT, Region,
                               RegionEvidence, converse_check, segment_analyses)
from ruledkit.fields import FourierField, PolynomialField, VectorField, shared_eval
from ruledkit.parametric import FramedCurve
from scene_families import CONE_EXPECTED, FAMILIES, cone_scene, osculating_scene, shift_directrix
from test_distribution import _BumpFrame

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("name,expected", [
    ("cylinder_helix", CYLINDRICAL),
    ("rotating_cylinder", CYLINDRICAL),
    ("helicoid_frame", NON_RANK_ONE),
    ("circular_cone", CONICAL),
    ("tangent_developable_helix", TANGENT),
    ("tangent_developable_product", TANGENT),
    ("two_rotation_r5", NON_RANK_ONE),
])
def test_corpus_classification(name, expected):
    report = classify_patch(small_patch(name, 41))
    assert report.kinds() == [expected]
    assert report.boundary_points == ()


@pytest.mark.parametrize("t_samples", [40, 100, 200, 800])
def test_elliptic_cone_is_conical(pytestconfig, t_samples):
    # the cone over the ellipse (2 cos t, sin t, 0) with apex (0, 0, 1) and a
    # directrix that is not unit speed, so its solved coordinate moves with
    # t; a sheet t-partial from a spline of the solved coordinates read it
    # tangent at 40 and 100 samples
    scene = pytestconfig.rootpath / "scenes" / "elliptic_cone_explicit.json"
    p = ingest(str(scene), overrides={"t_samples": t_samples}).patch
    report = classify_patch(p)
    assert report.kinds() == [CONICAL]
    assert np.abs(np.asarray(report.regions[0].evidence.apex) - [0.0, 0.0, 1.0]).max() < 1e-12


def test_cone_region_reports_apex():
    report = classify_patch(small_patch("circular_cone", 41))
    apex = report.regions[0].evidence.apex
    assert apex is not None
    assert np.abs(np.asarray(apex)).max() < 1e-6


def test_flags(cylinder_patch, helicoid_patch, tangent_dev_patch):
    assert classify_patch(cylinder_patch).is_cylinder
    assert classify_patch(cylinder_patch).is_rank_one
    helicoid = classify_patch(helicoid_patch)
    assert not helicoid.is_cylinder and not helicoid.is_rank_one
    td = classify_patch(tangent_dev_patch)
    assert td.is_rank_one and not td.is_cylinder


def test_region_evidence_consistency_enforced(tol):
    with pytest.raises(ValidationError):
        Region((0.0, 1.0), CYLINDRICAL, RegionEvidence(degree=1)).validate(2, tol)
    with pytest.raises(ValidationError):
        Region((0.0, 1.0), TANGENT, RegionEvidence(degree=2)).validate(2, tol)
    with pytest.raises(ValidationError):
        Region((0.0, 1.0), CONICAL,
               RegionEvidence(degree=1, max_rank_one_residual=0.0,
                              singular_fraction=1.0,
                              striction_rank_profile=(1,))).validate(2, tol)
    # a planar degree-1 region may be labeled cylindrical
    Region((0.0, 1.0), CYLINDRICAL,
           RegionEvidence(degree=1, planar=True)).validate(2, tol)


def test_conically_parametrized_plane_is_cylindrical_with_planar_note():
    # rulings through the origin inside the z=0 plane: degree 1, planar image
    directrix = FourierField([(0.0, [1.0], [], 1.0), (0.0, [], [1.0], 1.0),
                              (0.0, [], [], 1.0)])
    ruling = FourierField([(0.0, [1.0], [], 1.0), (0.0, [], [1.0], 1.0),
                           (0.0, [], [], 1.0)])
    fc = FramedCurve(3, 2, directrix, (ruling,), (0.0, TWO_PI))
    report = classify_patch(RuledPatch(fc, SampleGrid.uniform(fc.interval, 41)))
    region = report.regions[0]
    assert region.kind == CYLINDRICAL
    assert region.evidence.planar
    assert region.evidence.degree == 1


def test_spliced_patch_splits_into_two_regions():
    directrix = PolynomialField([[0.0], [0.0], [0.0, 1.0]])
    fc = FramedCurve(3, 2, directrix, (_BumpFrame(),), (-1.0, 1.0))
    patch = RuledPatch(fc, SampleGrid.uniform(fc.interval, 81))
    report = classify_patch(patch)
    assert report.kinds() == [CYLINDRICAL, NON_RANK_ONE]
    assert len(report.boundary_points) == 1
    # every sample is covered by a region or listed as a boundary point
    for t in patch.grid.t_samples:
        in_region = any(r.t_range[0] - 1e-12 <= t <= r.t_range[1] + 1e-12
                        for r in report.regions)
        assert in_region or any(abs(t - b) < 1e-12 for b in report.boundary_points)


class _ConeTangentSplice(VectorField):
    """Directrix of a developable that is conical for t<0 and a tangent
    developable for t>0.

    The ruling is X(t) = (cos t, sin t, 1)/sqrt(2); the intended striction
    curve is B(t) with B'(t) = c(t) X(t), c(t) = t^4 clamped to 0 for
    t <= 0 (antiderivatives in closed form), and the directrix rides at
    ruling offset 1: gamma = B + X. Both developability conditions hold
    by construction, and the sheet Jacobian rank is 0 where c = 0 and 1
    where c > 0.
    """

    dim = 3
    domain = None

    @staticmethod
    def _ruling(t, order):
        ph = t + order * math.pi / 2.0
        z = 1.0 if order == 0 else 0.0
        return np.array([math.cos(ph), math.sin(ph), z]) / math.sqrt(2.0)

    @staticmethod
    def _c(t, order):
        if t <= 0.0:
            return 0.0
        return t ** 4 if order == 0 else 4.0 * t ** 3

    def eval(self, t, order=0):
        if order == 0:
            if t <= 0.0:
                b = np.zeros(3)
            else:
                fc = (t ** 4 * math.sin(t) + 4 * t ** 3 * math.cos(t)
                      - 12 * t * t * math.sin(t) - 24 * t * math.cos(t)
                      + 24 * math.sin(t))
                fs = (-t ** 4 * math.cos(t) + 4 * t ** 3 * math.sin(t)
                      + 12 * t * t * math.cos(t) - 24 * t * math.sin(t)
                      - 24 * math.cos(t) + 24.0)
                b = np.array([fc, fs, t ** 5 / 5.0]) / math.sqrt(2.0)
            return b + self._ruling(t, 0)
        if order == 1:
            return self._c(t, 0) * self._ruling(t, 0) + self._ruling(t, 1)
        if order == 2:
            return (self._c(t, 1) * self._ruling(t, 0)
                    + self._c(t, 0) * self._ruling(t, 1) + self._ruling(t, 2))
        raise ValueError("orders 0..2 only")


def test_spliced_developable_splits_into_conical_and_tangent_regions():
    from ruledkit.fields import ComposedField, ParameterMap

    directrix = _ConeTangentSplice()
    ruling = FourierField([
        (0.0, [1.0 / math.sqrt(2.0)], [], 1.0),
        (0.0, [], [1.0 / math.sqrt(2.0)], 1.0),
        (1.0 / math.sqrt(2.0), [], [], 1.0),
    ])
    pmap = ParameterMap(directrix, (-2.0, 2.5))
    fc = FramedCurve(3, 2, ComposedField(directrix, pmap),
                     (ComposedField(ruling, pmap),), (0.0, pmap.length))
    patch = RuledPatch(fc, SampleGrid.uniform(fc.interval, 161))
    patch.fc.validate_on(patch.grid)

    report = classify_patch(patch)
    assert report.is_rank_one
    assert report.kinds() == [CONICAL, TANGENT]
    conical, tangent = report.regions
    assert conical.evidence.singular_fraction == 1.0
    assert conical.evidence.apex is not None
    assert np.abs(np.asarray(conical.evidence.apex)).max() < 1e-6
    assert tangent.evidence.striction_rank_profile == (1,)


def test_classification_is_deterministic(product_patch):
    a = classify_patch(product_patch).to_dict()
    b = classify_patch(product_patch).to_dict()
    assert a == b


def test_rank_runs_split_and_boundaries():
    from ruledkit.classify import _rank_runs
    ts = np.linspace(0.0, 9.0, 10)
    verdicts = [TANGENT] * 3 + [None] + [CONICAL] * 4 + [None, TANGENT]
    runs, boundaries = _rank_runs(verdicts, ts)
    assert runs == [(0, 3, TANGENT), (4, 8, CONICAL), (9, 10, TANGENT)]
    assert boundaries == [3.0, 8.0]


def test_rank_runs_adjacent_kinds_split_without_boundary():
    from ruledkit.classify import _rank_runs
    ts = np.linspace(0.0, 5.0, 6)
    verdicts = [TANGENT] * 3 + [CONICAL] * 3
    runs, boundaries = _rank_runs(verdicts, ts)
    assert runs == [(0, 3, TANGENT), (3, 6, CONICAL)]
    assert boundaries == []


def test_converse_check_requires_degree_one(cylinder_patch):
    with pytest.raises(ValidationError):
        converse_check(cylinder_patch)


@pytest.mark.parametrize("name,rank_one", [
    ("helicoid_frame", False),
    ("circular_cone", True),
    ("tangent_developable_helix", True),
    ("tangent_developable_product", True),
])
def test_converse_agreement(name, rank_one):
    result = converse_check(small_patch(name, 41))
    assert result.agree
    assert result.rank_one == rank_one
    assert (result.singular_coverage >= 0.99) == rank_one


def test_report_serialization_roundtrip(cone_patch):
    import json
    report = classify_patch(cone_patch)
    encoded = json.dumps(report.to_dict(), sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded["regions"][0]["kind"] == CONICAL
    assert decoded["is_rank_one"] is True


@pytest.mark.parametrize("ambient_dim", [3, 4])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("t_samples", [50, 200])
def test_seeded_cones_are_conical(seed, ambient_dim, t_samples):
    scene, apex = cone_scene(seed, ambient_dim)
    p = ingest(scene, overrides={"t_samples": t_samples}).patch
    report = classify_patch(p)
    assert set(p.profile.degrees.tolist()) == {CONE_EXPECTED["degree"]}
    assert report.kinds() == CONE_EXPECTED["kinds"]
    assert report.is_rank_one is CONE_EXPECTED["rank_one"]
    if ambient_dim == 3:
        assert np.abs(np.asarray(report.regions[0].evidence.apex) - apex).max() < 1e-6


@pytest.mark.parametrize("t_samples", [40, 100, 200])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scene_families_read_their_class(family, seed, t_samples):
    # the osculating developables' sheets are singular on their cuspidal
    # edge, a free grid position: each sample reads its generic rank
    make, expected = FAMILIES[family]
    p = ingest(make(seed), overrides={"t_samples": t_samples}).patch
    report = classify_patch(p)
    assert set(p.profile.degrees.tolist()) == {expected["degree"]}
    assert report.kinds() == expected["kinds"]
    assert report.is_rank_one is expected["rank_one"]
    assert report.boundary_points == ()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_verdicts_ignore_the_free_grid_and_the_directrix(family, seed):
    # a free axis of 4 or 6 samples misses the osculating developables'
    # cuspidal edge at u = 0 and one of 5 hits it; a directrix moved along
    # the frame sweeps the same submanifold
    make, expected = FAMILIES[family]
    scene = make(seed)
    shifted = shift_directrix(scene, [0.3, -0.25, 0.2][:scene["m"] - 1])
    assert shifted["directrix"] != scene["directrix"]
    for doc, overrides in [(scene, {"u_samples_per_axis": 4}), (scene, {"u_samples_per_axis": 5}),
                           (scene, {"u_samples_per_axis": 6}), (shifted, {})]:
        report = classify_patch(ingest(doc, overrides={"t_samples": 40, **overrides}).patch)
        assert report.kinds() == expected["kinds"]
        assert report.boundary_points == ()


class _RotatedPair(VectorField):
    """Field `index` of the pair (e1, e2) rotated through the angle
    theta = pi/2 (t - lo) / (hi - lo): (cos theta e1 - sin theta e2,
    sin theta e1 + cos theta e2), by the Leibniz rule."""

    def __init__(self, pair, index, interval):
        self.pair, self.index, self.domain = pair, index, interval
        self.dim = pair[0].dim
        self.rate = 0.5 * math.pi / (interval[1] - interval[0])

    @shared_eval
    def eval(self, params, order=0):
        theta = self.rate * (params.values - self.domain[0])
        out = 0.0
        for k in range(order + 1):
            angle = (theta + 0.5 * math.pi * k)[:, None]
            a, b = ((np.cos(angle), -np.sin(angle)) if self.index == 0
                    else (np.sin(angle), np.cos(angle)))
            out = out + math.comb(order, k) * self.rate ** k * (
                a * self.pair[0].eval(params, order - k) + b * self.pair[1].eval(params, order - k))
        return out


@pytest.mark.parametrize("t_samples", [41, 101, 201])
def test_rotated_osculating_developable_reads_tangent_over_its_runs(t_samples):
    # the rotation moves the degree from the second frame field at the
    # start to the first at the end, so no one permutation pivots the
    # frame; its two pivot runs are both tangent and merge
    p = ingest(osculating_scene(0, 3, 4), overrides={"t_samples": t_samples}).patch
    rotated = RuledPatch(p.fc.with_frame([_RotatedPair(p.fc.frame, j, p.fc.interval)
                                          for j in range(2)]), p.grid, p.tol)
    assert len(segment_analyses(rotated)) == 2
    for patch in (p, rotated):
        report = classify_patch(patch)
        assert report.kinds() == [TANGENT]
        assert report.boundary_points == ()
        assert report.regions[0].t_range == (0.0, p.fc.interval[1])
