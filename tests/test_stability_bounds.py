"""Closed-form verdicts of the stability sweep against the SVD.

`selftest._regular_pairs` keeps a candidate ruling pair when both of its
Jacobians have a condition number below `PAIR_CONDITION_LIMIT`, the rank
rule of `ruledgeom._regularity` at rank_rel_tol = 1 / limit, and
`ruledgeom.tangent_space_stability` compares the tangent spaces of a
pair; both read their verdicts from the reduced Jacobians and send only
the points next to a cutoff to the SVD. On stacks swept across the
cutoffs, the settled verdicts must equal the stacked SVD's
(`ambient_second_form.svd_pair_margins`, `svd_span_verdicts`), and only
points inside the bounds' undecided band may be left to it. On the
selftest corpus the sweep must hand the same pairs to the stability call
and return the same verdict as with the SVD oracles in place.
"""

import functools
import sys
from dataclasses import replace

import numpy as np
import pytest

from ambient_second_form import (reduced_pieces, svd_pair_margins, svd_regular_pairs,
                                 svd_span_verdicts, svd_tangent_space_stability)
from conftest import small_patch
from ruledkit import RuledPatch, SampleGrid, TolerancePolicy, selftest
from ruledkit.multilinear import _inverse_factors, rank_mask
from ruledkit.ruledgeom import (RANK_BOUND_MARGIN, SPAN_SLACK_PER_DIM, _pair_jacobians,
                                _regularity, _span_verdicts, jacobians_at,
                                tangent_space_stability)
from ruledkit.selftest import PAIR_CONDITION_LIMIT
from test_evaluations import field_classes
from test_rank_bounds import orthonormal_columns, reached, reduced_jacobians, svd_inputs

TOL = TolerancePolicy()
DELTA, LIMIT, SPAN = RANK_BOUND_MARGIN, PAIR_CONDITION_LIMIT, TOL.rank_rel_tol
#: the sweep's candidate filter: the rank rule at rank_rel_tol = 1 / PAIR_CONDITION_LIMIT
PAIR_TOL = replace(TOL, rank_rel_tol=1.0 / LIMIT)
EPS = np.finfo(float).eps
#: relative half-width of the sweeps around each cutoff, three rounding margins
SWEEP = 3e-6


def condition_spectra(rng, m):
    """Spectra with s1 = 1 whose condition number sweeps across the limit,
    down to ulp ties, and (m >= 3) whose Frobenius condition number
    sweeps across m times the limit."""
    kappa = np.concatenate([10.0 ** rng.uniform(2.0, 4.0, 2000),
                            LIMIT * (1.0 + rng.uniform(-SWEEP, SWEEP, 3000)),
                            LIMIT * (1.0 + np.repeat(np.arange(-8, 9), 60) * EPS)])
    spectra = [np.column_stack([np.ones((kappa.size, m - 1)), 1.0 / kappa])]
    if m >= 3:
        # s = (1, ..., 1, 1 / kappa) has kappa_F = sqrt((m - 1 + kappa^-2)(m - 1 + kappa^2))
        top = m * LIMIT * (1.0 + rng.uniform(-SWEEP, SWEEP, 3000))
        kappa = top / np.sqrt(m - 1.0)
        spectra.append(np.column_stack([np.ones((top.size, m - 1)), 1.0 / kappa]))
    return np.concatenate(spectra)


def frobenius_conditions(mat):
    """Frobenius condition numbers of square or wide matrices, from their
    singular values."""
    s = np.linalg.svd(mat, compute_uv=False)
    return np.sqrt(np.sum(s * s, axis=-1) * np.sum(1.0 / (s * s), axis=-1))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pair_conditions_near_the_limit_equal_the_svd(monkeypatch, m):
    rng = np.random.default_rng(20 + m)
    jac, r = reduced_jacobians(rng, condition_spectra(rng, m))
    kept, inputs = svd_inputs(monkeypatch, _regularity, reduced_pieces(jac, _inverse_factors(r)),
                              PAIR_TOL)
    undecided = reached(jac, inputs)
    expected = rank_mask(np.linalg.svd(jac, compute_uv=False), PAIR_TOL).all(axis=-1)
    assert kept.any() and not expected.all()

    # the band in the bounds' own quantities, measured independently;
    # points within delta / 2 of its edges may fall either way
    if m == 2:
        # the closed-form singular values settle every point with no SVD;
        # they part from LAPACK's only at ties with the limit
        kappa = 1.0 / svd_pair_margins(jac)
        tie = np.abs(kappa / LIMIT - 1.0) < 8 * EPS
        np.testing.assert_array_equal(kept[~tie], expected[~tie])
        assert not undecided.any() and tie.any()
        return
    np.testing.assert_array_equal(kept, expected)
    kappa = frobenius_conditions(jac)
    outside = (kappa < (1 - 2 * DELTA) * LIMIT) | (kappa > (1 + 2 * DELTA) * m * LIMIT)
    inside = (kappa > (1 - DELTA / 2) * LIMIT) & (kappa < (1 + DELTA / 2) * m * LIMIT)
    assert not (undecided & outside).any()
    assert undecided[inside].all() and inside.any()


def span_pairs(rng, m, width, size):
    """(jac, c, ambient, sin_theta) of `size` pairs of points at one
    parameter, in a space with a normal space of dimension width - 1, the
    pairs' reduced Jacobians as `ReducedJacobians`.

    Both points of a pair share the reduced Jacobian J = [[a, b], [R^T, 0]]
    of a random spectrum with s1 = 1 and a condition number from 1 to
    1e7; their complement coordinates c_a, c_b both have length b, at an
    angle theta whose sine sweeps across the bounds' edges. `ambient`
    holds the two m x (m - 1 + width) Jacobians [[a, c], [R^T, 0]].
    """
    kappa = 10.0 ** rng.uniform(0.0, 7.0, size)
    spectra = np.column_stack([np.ones((size, m - 1)), 1.0 / kappa])
    spectra[:, 1:-1] = rng.uniform(1.0 / kappa[:, None], 1.0, (size, m - 2))
    jac, r = reduced_jacobians(rng, spectra)
    slack = SPAN_SLACK_PER_DIM * m * EPS * frobenius_conditions(jac)
    # the bounds' edges, the SVD comparison's cutoffs, and (one in five)
    # anywhere from 1e-12 to 1e-6
    edges = np.stack(np.broadcast_arrays(
        (SPAN - slack) / (1 + DELTA), SPAN / (1 + DELTA), SPAN,
        np.sqrt(m) * (SPAN + slack) / (1 - DELTA), np.sqrt(m) * SPAN), axis=1)
    pick = edges[np.arange(size), rng.integers(0, edges.shape[1], size)]
    spread = (pick <= 0.0) | (rng.uniform(size=size) < 0.2)
    sin = np.where(spread, 10.0 ** rng.uniform(-12.0, -6.0, size),
                   pick * (1.0 + rng.uniform(-SWEEP, SWEEP, size)))
    sin[:10] = 0.0
    b = jac[:, 0, -1]
    plane = orthonormal_columns(rng, width, 2, size)
    c = b[:, None, None] * np.stack([plane[..., 0],
                                     np.sqrt(1.0 - sin * sin)[:, None] * plane[..., 0]
                                     + sin[:, None] * plane[..., 1]], axis=1)
    k = m - 1
    ambient = np.zeros((size, 2, m, k + width))
    ambient[:, :, 0, :k] = jac[:, None, 0, :k]
    ambient[:, :, 0, k:] = c
    ambient[:, :, 1:, :k] = jac[:, None, 1:, :k]
    pairs = np.repeat(jac[:, None], 2, axis=1)
    return reduced_pieces(pairs, _inverse_factors(r)[:, None]), c, ambient, sin


@pytest.mark.parametrize("m, width", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_span_verdicts_near_the_cutoff_equal_the_svd(m, width):
    rng = np.random.default_rng(10 * m + width)
    jac, c, ambient, sin = span_pairs(rng, m, width, 20000)
    regular, differ, undecided = _span_verdicts(jac, c, TOL)
    svd_regular, worst = svd_span_verdicts(ambient, TOL)
    np.testing.assert_array_equal(regular, svd_regular)
    assert regular.all()
    settled = ~undecided
    np.testing.assert_array_equal(differ[settled], ~(worst < SPAN)[settled])
    assert differ[settled].any() and not differ[settled].all()

    # the band in sin theta and kappa_F, measured independently; points
    # within delta / 2 of its edges, or within the minors' absolute
    # rounding of sin theta, a few eps, may fall either way
    slack = SPAN_SLACK_PER_DIM * m * EPS * frobenius_conditions(ambient[:, 0])
    rounding = 16 * EPS
    outside = ((sin * (1 + 2 * DELTA) + slack * (1 + DELTA) < SPAN - rounding)
               | (sin * (1 - 2 * DELTA) / np.sqrt(m) - slack * (1 + DELTA) > SPAN + rounding))
    inside = ((sin * (1 + DELTA / 2) + slack > SPAN + rounding)
              & (sin * (1 - DELTA / 2) / np.sqrt(m) - slack < SPAN - rounding))
    assert not (undecided & outside).any()
    assert undecided[inside].all() and inside.any()


@functools.cache
def corpus(t_samples):
    return selftest.build_corpus(TOL, t_samples)


def svd_filter(p, t, candidates):
    """`selftest._regular_pairs` with the SVD oracle's mask; the candidates'
    reduced Jacobians, which the oracle's stability check does not read,
    are the program's."""
    return svd_regular_pairs(p, t, candidates), _pair_jacobians(p, t, candidates)


def sweep(monkeypatch, p, seed, oracle):
    """The verdict of `_stability_sweep`, the number of t it left short
    and the (t, pairs, jacobians) it hands to its one stability call, with
    the SVD oracles in place or not."""
    seen = []

    def recording(p, t, pairs, jacobians):
        seen.append((np.array(t), np.array(pairs), jacobians))
        if oracle:
            return svd_tangent_space_stability(p, t, pairs)
        return tangent_space_stability(p, t, pairs, jacobians=jacobians)

    with monkeypatch.context() as patch:
        patch.setattr(selftest, "tangent_space_stability", recording)
        if oracle:
            patch.setattr(selftest, "_regular_pairs", svd_filter)
        verdict, short = selftest._stability_sweep(p, 10, seed)
    assert len(seen) == 1
    return verdict, short, seen[0]


@pytest.mark.parametrize("t_samples", [30, 50, 200])
@pytest.mark.parametrize("name", selftest.EQUIVALENCE_PATCHES)
def test_sweep_equals_the_svd_sweep(monkeypatch, name, t_samples):
    p = corpus(t_samples)[name]
    for seed in range(6):
        verdict, short, (pair_t, pairs, _) = sweep(monkeypatch, p, seed, oracle=False)
        svd_verdict, svd_short, (svd_t, svd_pairs, _) = sweep(monkeypatch, p, seed, oracle=True)
        assert verdict == svd_verdict
        assert short == svd_short == 0
        np.testing.assert_array_equal(pair_t, svd_t)
        np.testing.assert_array_equal(pairs, svd_pairs)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t_samples", [30, 50, 200])
def test_sweep_hands_on_the_filters_jacobians_of_the_kept_pairs(monkeypatch, t_samples):
    # the pieces the filter built for each kept candidate, carried across
    # rounds and reordered by t, are bit for bit those that the stability
    # check would build for the kept pairs itself
    rounds = []
    original = selftest._regular_pairs

    def counting(p, t, candidates):
        rounds[-1] += 1
        return original(p, t, candidates)

    monkeypatch.setattr(selftest, "_regular_pairs", counting)
    for name in selftest.EQUIVALENCE_PATCHES:
        p = corpus(t_samples)[name]
        for seed in range(6):
            rounds.append(0)
            _, _, (pair_t, pairs, (jac, c)) = sweep(monkeypatch, p, seed, oracle=False)
            want, want_c = _pair_jacobians(p, pair_t, pairs)
            for got, expected in zip((jac.a, jac.b, jac.r, jac.r_inv, jac.a_r, c),
                                     (want.a, want.b, want.r, want.r_inv, want.a_r, want_c)):
                assert same_bits(got, expected)
    # some patches need a second round of candidates
    assert max(rounds) >= 2


@pytest.mark.parametrize("tol", [TolerancePolicy(zero_abs_tol=2.0),
                                 TolerancePolicy(rank_rel_tol=0.01)], ids=["zero", "rank"])
@pytest.mark.parametrize("name", selftest.EQUIVALENCE_PATCHES)
def test_sweep_keeps_no_pair_the_stability_check_calls_singular(name, tol):
    # a zero_abs_tol above the Jacobians' scale, or a rank_rel_tol coarser
    # than the pair limit's, makes points singular by the rank rule; the
    # filter applies that rule too, so every pair it keeps is regular for
    # the stability check, which returns a verdict instead of raising
    # RegularityError
    p = selftest.build_corpus(tol, 40)[name]
    verdict, short = selftest._stability_sweep(p, 10, 0)
    assert verdict in (True, False)
    assert 0 <= short <= p.grid.t_samples.size



def test_span_cutoff_is_relative():
    # sin theta and the SVD residual are at most 1, so the stability check
    # compares them with rank_rel_tol; with the absolute zero_abs_tol at 1
    # or more every pair once read the same, and criterion 5 printed
    # stable=True beside wedge=False flat=False; most points are singular at
    # this tolerance, so the t left short of regular pairs fail the criterion
    results = selftest.run_selftest(TolerancePolicy(zero_abs_tol=2.0), t_samples=40)
    details = {r.name.split(": ")[-1]: r for r in results
               if r.criterion == 5 and r.name.startswith("characterizations agree")}
    assert details["two_rotation_r5"].passed
    assert details["two_rotation_r5"].detail == "wedge=False flat=False stable=False"
    assert not details["helicoid_frame"].passed
    assert details["helicoid_frame"].detail == ("wedge=False flat=False stable=False, "
                                                "24 of 40 t short of 10 regular pairs")
    # the sweeps that kept no pair at any t read stable=True and fail
    for name in ("cylinder_helix", "tangent_developable_helix", "tangent_developable_product"):
        assert not details[name].passed
        assert details[name].detail == ("wedge=True flat=True stable=True, "
                                        "40 of 40 t short of 10 regular pairs")
    assert sum(r.passed for r in results) == 19


@pytest.mark.parametrize("name", ["helicoid_frame", "two_rotation_r5"])
def test_span_verdicts_read_rank_rel_tol_only(name):
    # the same pairs get the same verdicts at zero_abs_tol 1e-8 and 2;
    # a rank_rel_tol near 1 is above every sin theta / sqrt(m): no pair differs
    p = small_patch(name, 9)
    rng = np.random.default_rng(3)
    pair_t = np.repeat(p.grid.t_samples, 6)
    pairs = rng.uniform(-2.0, 2.0, (pair_t.size, 2, p.m - 1))
    jacobians = _pair_jacobians(p, pair_t, pairs)
    _, differ, undecided = _span_verdicts(*jacobians, TOL)
    _, coarse_differ, coarse_undecided = _span_verdicts(*jacobians, replace(TOL, zero_abs_tol=2.0))
    np.testing.assert_array_equal(differ, coarse_differ)
    np.testing.assert_array_equal(undecided, coarse_undecided)
    assert differ.any() and not undecided.any()
    _, coarse_differ, _ = _span_verdicts(*jacobians, replace(TOL, rank_rel_tol=0.999))
    assert not coarse_differ.any()

def _counting_svd(monkeypatch):
    """Make `np.linalg.svd` record the number of matrices of each call."""
    sizes = []
    svd = np.linalg.svd

    def counting(a, *rest, **kw):
        sizes.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *rest, **kw)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return sizes


#: the corpus patches where no candidate or pair of the sweep is near a
#: cutoff: m = 2, and m = 3 in R^5
NO_BAND_PATCHES = ["cylinder_helix", "helicoid_frame", "circular_cone",
                   "tangent_developable_helix", "two_rotation_r5"]


@pytest.mark.parametrize("t_samples", [50, 200])
@pytest.mark.parametrize("name", NO_BAND_PATCHES)
def test_sweep_makes_no_svd_call(monkeypatch, name, t_samples):
    p = corpus(t_samples)[name]

    def fail(*args, **kw):
        raise AssertionError("the sweep called np.linalg.svd")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", fail)
        for seed in range(6):
            selftest._stability_sweep(p, 10, seed)


def _keyed_evaluations(patch):
    """Record every field `eval` and `np.linalg.qr` call as (what, caller)."""
    calls = []

    def keyed(what, original):
        def wrapper(*args, **kw):
            calls.append((what, sys._getframe(1).f_code.co_name))
            return original(*args, **kw)
        return wrapper

    patch.setattr(np.linalg, "qr", keyed("qr", np.linalg.qr))
    for cls in field_classes():
        patch.setattr(cls, "eval", keyed(f"{cls.__name__}.eval", cls.eval))
    return calls


@pytest.mark.parametrize("t_samples", [50, 200])
@pytest.mark.parametrize("name", selftest.EQUIVALENCE_PATCHES)
def test_sweep_reads_the_grid_values_and_frame_basis(monkeypatch, name, t_samples):
    # every t of the sweep is a grid sample, so the pairs' reduced
    # Jacobians are rows of the patch's values and frame QR; the SVD
    # near a cutoff, which only tangent_developable_product reaches,
    # reads those reduced Jacobians
    p = corpus(t_samples)[name]
    assert p.values and p.scan  # primed, as in the selftest
    with monkeypatch.context() as patch:
        calls = _keyed_evaluations(patch)
        for seed in range(6):
            selftest._stability_sweep(p, 10, seed)
    assert calls == []


@pytest.mark.parametrize("name", selftest.EQUIVALENCE_PATCHES)
def test_pair_jacobians_on_the_grid_equal_fresh_evaluations(monkeypatch, name):
    p = corpus(50)[name]
    ts = p.grid.t_samples
    # the same curve on a grid of midpoints, which evaluates these t afresh
    fresh = RuledPatch(p.fc, SampleGrid(0.5 * (ts[1:] + ts[:-1])), p.tol)
    rng = np.random.default_rng(7)
    t, pairs = rng.choice(ts, 60), rng.uniform(-2.0, 2.0, (60, 2, p.m - 1))
    assert p.values and p.scan
    with monkeypatch.context() as patch:
        calls = _keyed_evaluations(patch)
        on_grid = _pair_jacobians(p, t, pairs)
        assert calls == []
        evaluated = _pair_jacobians(fresh, t, pairs)
        assert calls
    # the same values and frame basis, multiplied out from arrays of
    # another memory layout: equal within a few rounding errors
    (jac, c), (fresh_jac, fresh_c) = on_grid, evaluated
    for got, want in zip((jac.a, jac.b, jac.r, jac.r_inv, jac.a_r, c),
                         (fresh_jac.a, fresh_jac.b, fresh_jac.r, fresh_jac.r_inv, fresh_jac.a_r,
                          fresh_c)):
        scale = np.abs(want[np.isfinite(want)]).max()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=8 * EPS * scale)


@pytest.mark.parametrize("t_samples", [50, 200])
def test_sweep_sends_only_band_points_to_the_svd(monkeypatch, t_samples):
    # m = 3 in R^4: kappa_2 <= kappa_F <= 3 kappa_2 leaves a band of
    # candidate points between the limit and three times it
    p = corpus(t_samples)["tangent_developable_product"]
    candidates = []
    original = selftest._regular_pairs

    def recording(p, t, pairs):
        candidates.append((t, pairs))
        return original(p, t, pairs)

    with monkeypatch.context() as patch:
        sizes = _counting_svd(patch)
        patch.setattr(selftest, "_regular_pairs", recording)
        for seed in range(6):
            selftest._stability_sweep(p, 10, seed)
    kappa = np.concatenate([frobenius_conditions(jacobians_at(p, np.repeat(t, 2),
                                                              pairs.reshape(-1, p.m - 1)))
                            for t, pairs in candidates])
    low, high = (1 - DELTA) * LIMIT, (1 + DELTA) * p.m * LIMIT
    # no candidate sits so near an edge of the band that rounding decides
    assert not (np.abs(np.log(kappa / low)) < 1e-9).any()
    assert not (np.abs(np.log(kappa / high)) < 1e-9).any()
    assert sum(sizes) == np.count_nonzero((kappa >= low) & (kappa <= high)) > 0


def test_band_pairs_go_through_the_svd_comparison(monkeypatch):
    # the helicoid's normal turns along each ruling, so ruling pairs a
    # short distance apart have sin theta near rank_rel_tol
    p = small_patch("helicoid_frame", 9)
    cases = [(t, np.array([[[ua], [ua + gap]]])) for t in p.grid.t_samples[::3]
             for ua in (-1.0, 0.0, 0.7) for gap in np.geomspace(1e-9, 1e-6, 60)]
    expected = [svd_tangent_space_stability(p, t, pair) for t, pair in cases]
    with monkeypatch.context() as patch:
        sizes = _counting_svd(patch)
        got = [tangent_space_stability(p, t, pair) for t, pair in cases]
    assert got == expected
    assert True in got and False in got
    # the calls that reach the SVD compare their one pair there
    assert 0 < len(sizes) < len(cases) and set(sizes) == {2}
