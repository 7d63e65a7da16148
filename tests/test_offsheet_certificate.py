"""The off-sheet certificate (`striction.offsheet_certificate`) against its
oracle, the randomized spot check of `offsheet_oracle`.

The certificate reads only the grid values, and its band must never
contradict the spot check: it certifies every solved segment of the
shipped scenes, the explicit benchmark scenes, the scene families and the
selftest patches, where the spot check finds every point regular; at grid
t, points at either end of each band and at the spot check's distance are
regular; and on a patch whose off-sheet points the rank rule finds
irregular, it certifies nothing.
"""

import math
import pathlib

import numpy as np
import pytest

from offsheet_oracle import OFFSHEET_CHECKS, offsheet_check
from perfbench.scenegen import explicit_scene
from ruledkit import RuledPatch, SampleGrid, TolerancePolicy, solve_striction
from ruledkit.classify import segment_analyses
from ruledkit.fields import FourierField, PolynomialField
from ruledkit.parametric import FramedCurve
from ruledkit.scene import ingest
from ruledkit.selftest import CORPUS_DEGREES, build_corpus
from ruledkit.striction import OFFSHEET_SPACINGS, offsheet_certificate
from scene_families import FAMILIES
from test_striction import _TurningRuling

SCENE_DIR = pathlib.Path(__file__).parent.parent / "scenes"
CASES = ([(path.stem, lambda path=path: ingest(str(path)).patch)
          for path in sorted(SCENE_DIR.glob("*.json"))]
         + [(f"explicit_scene({seed})", lambda seed=seed: ingest(explicit_scene(seed)).patch)
            for seed in range(12)]
         + [(f"{name}-{seed}", lambda make=make, seed=seed: ingest(make(seed)).patch)
            for name, (make, _) in sorted(FAMILIES.items()) for seed in range(3)]
         + [(f"selftest-{name}-{n}", lambda name=name, n=n: build_corpus(TolerancePolicy(), n)[name])
            for n in (50, 200) for name in sorted(CORPUS_DEGREES)])


def solved_segments(p):
    return [seg for seg in segment_analyses(p) if seg.d >= 1 and not seg.narrow]


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _ in CASES])
def test_certificate_never_contradicts_the_spot_check(name, make):
    for seg in solved_segments(make()):
        p, sheet, cert = seg.pivoted, seg.sheet, seg.offsheet
        assert cert.certified
        axis = p.grid.u_axis
        spacing = float(axis[1] - axis[0]) if axis.size > 1 else p.grid.u_extent / 5.0
        assert cert.distance == pytest.approx(math.sqrt(seg.d) * OFFSHEET_SPACINGS * spacing)
        assert offsheet_check(p, sheet, seed=1).failures == ()
        # at grid t: just inside both ends of each band, and at the spot
        # check's own distance
        for seed in range(6):
            for reach in (cert.inner * (1.0 + 1e-9), None, cert.outer * (1.0 - 1e-9)):
                check = offsheet_check(p, sheet, seed=seed, on_grid=True, reach=reach)
                assert check.failures == () and check.total == OFFSHEET_CHECKS


def test_wobble_is_not_certified_where_the_spot_check_fails():
    # a 0.1 rank cutoff makes the off-sheet points irregular where the
    # ruling turns fast: the spot check finds irregular points, and the
    # band's outer end falls short of the spot check's distance
    fc = FramedCurve(3, 2, PolynomialField([[0.0], [0.0], [0.0, 1.0]]),
                     (_TurningRuling(lambda t: (t + 0.8 * math.sin(t), 1.0 + 0.8 * math.cos(t),
                                                -0.8 * math.sin(t))),), (0.0, 2.0 * math.pi))
    wobble = RuledPatch(fc, SampleGrid.uniform(fc.interval, 41),
                        TolerancePolicy(rank_rel_tol=0.1))
    sheet = solve_striction(wobble, 1)
    cert = offsheet_certificate(wobble, sheet)
    for seed in range(6):
        assert offsheet_check(wobble, sheet, seed=seed).failures
        assert offsheet_check(wobble, sheet, seed=seed, on_grid=True).failures
    assert not cert.certified and 0.0 < cert.margin < 1.0
    assert (cert.outer < cert.distance).any()
    # inside the band it certifies, the spot check finds every point regular
    for seed in range(6):
        check = offsheet_check(wobble, sheet, seed=seed, on_grid=True,
                               reach=np.sqrt(cert.inner * cert.outer))
        assert check.failures == ()


def test_no_band_under_a_cutoff_no_distance_clears():
    # a helicoid-like patch: under a rank cutoff of 0.5 the bound
    # rank_rel_tol (n0 + n1 rho) (m0 + m1 rho) never falls below
    # s_d(T) rho - e, so no grid parameter has a band and the margin is 0
    fc = FramedCurve(3, 2, PolynomialField([[0.0], [0.0], [0.0, 1.0]]),
                     (_TurningRuling(lambda t: (t, 1.0, 0.0)),), (0.0, 2.0 * math.pi))
    p = RuledPatch(fc, SampleGrid.uniform(fc.interval, 21))
    assert offsheet_certificate(p, solve_striction(p, 1)).certified
    loose = RuledPatch(fc, p.grid, TolerancePolicy(rank_rel_tol=0.5))
    cert = offsheet_certificate(loose, solve_striction(loose, 1))
    assert not cert.certified and cert.margin == 0.0
    assert np.isinf(cert.inner).all() and (cert.outer == 0.0).all()


def three_rotation_patch(t_samples=41):
    """Degree 3 in R^7: a line swept by three rulings rotating in orthogonal
    planes, the two-rotation family with one more ruling, at rates 1, 2, 3."""
    directrix = PolynomialField([[0.0, 1.0]] + [[0.0]] * 6)
    frame = []
    for k in range(3):
        coordinates = [(0.0, [], [], 1.0)] * 7
        coordinates[1 + 2 * k] = (0.0, [1.0], [0.0], k + 1.0)
        coordinates[2 + 2 * k] = (0.0, [0.0], [1.0], k + 1.0)
        frame.append(FourierField(coordinates))
    fc = FramedCurve(7, 4, directrix, tuple(frame), (0.0, 2.0 * math.pi))
    return RuledPatch(fc, SampleGrid.uniform(fc.interval, t_samples))


def test_certificate_of_a_degree_three_sheet():
    # s_d(T) of three rows goes through the SVD; the band must hold there too
    segs = solved_segments(three_rotation_patch())
    assert [seg.d for seg in segs] == [3]
    seg = segs[0]
    cert = seg.offsheet
    assert cert.certified
    assert cert.distance == pytest.approx(math.sqrt(3) * OFFSHEET_SPACINGS)
    for seed in range(6):
        for reach in (cert.inner * (1.0 + 1e-9), None, cert.outer * (1.0 - 1e-9)):
            check = offsheet_check(seg.pivoted, seg.sheet, seed=seed, on_grid=True, reach=reach)
            assert check.failures == ()
