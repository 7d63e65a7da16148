import math
import re

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from ruledkit import DomainError, HelixCurve, RegularityError, ValidationError
from ruledkit.errors import ConfigError
from ruledkit.fields import (AffineCombinationField, CircleCurve, ComposedField,
                             ConstantField, CubicHermite, DerivativeField, EmbeddedField,
                             FourierField, GramSchmidtField, GramSchmidtFrame, LineCurve,
                             ParameterMap, PolynomialField, VectorField,
                             arclength_reparametrize, make_builtin_curve)
from ruledkit.oracles import central_difference, max_derivative_error
from ruledkit.parametric import BUILTIN_PATCHES, make_builtin_patch
from ruledkit.splitmix import SplitMix64

TWO_PI = 2.0 * math.pi


def test_polynomial_derivative_value():
    # f(t) = (0, 0, t^2); f'(3) = (0, 0, 6)
    f = PolynomialField([[0.0], [0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(f.eval(3.0, 1), [0.0, 0.0, 6.0], atol=1e-14)


def test_fourier_cos_critical_point():
    f = FourierField([(0.0, [1.0], [], 1.0)])
    assert f.eval(0.0, 1)[0] == pytest.approx(0.0, abs=1e-14)


def test_constant_field_derivatives_vanish():
    f = ConstantField([1.0, 2.0])
    assert np.array_equal(f.eval(5.0, 1), np.zeros(2))
    assert np.array_equal(f.eval(5.0, 2), np.zeros(2))


def test_helix_derivative_against_finite_differences():
    helix = HelixCurve(a=1.0 / math.sqrt(2.0), b=1.0 / math.sqrt(2.0))
    rng = np.random.default_rng(7)
    worst = 0.0
    for t in rng.uniform(0.0, TWO_PI, size=20):
        fd = central_difference(lambda s: helix.eval(s, 0), t, order=1)
        worst = max(worst, np.abs(helix.eval(t, 1) - fd).max())
    assert worst < 1e-7


@pytest.mark.parametrize("field", [
    PolynomialField([[1.0, -2.0, 0.5, 0.25], [0.0, 3.0], [2.0]]),
    FourierField([(0.5, [1.0, 0.25], [0.5], 1.0), (0.0, [], [1.0], 2.0)]),
    HelixCurve(0.3, 1.1),
    CircleCurve(2.0),
    LineCurve([1.0, 0.0, 0.0], [1.0, 1.0, 0.0]),
    DerivativeField(HelixCurve(), 1),
], ids=["poly", "fourier", "helix", "circle", "line", "helix-tangent"])
@pytest.mark.parametrize("order", [1, 2])
def test_analytic_derivatives_match_fd(field, order):
    assert max_derivative_error(field, (0.0, TWO_PI), order, n=50, seed=3) < 1e-7


def _per_shift_error(field, interval, order, n, seed, h):
    """`max_derivative_error` with one field evaluation per offset of the
    extrapolated central difference, f(t) twice at order 2."""
    ts = SplitMix64(seed).uniform(interval[0] + 2.0 * h, interval[1] - 2.0 * h, n)

    def f(s):
        return field.eval(s, 0)

    if order == 1:
        def diff(hh):
            return (f(ts + hh) - f(ts - hh)) / (2.0 * hh)
    else:
        def diff(hh):
            return (f(ts + hh) - 2.0 * f(ts) + f(ts - hh)) / (hh * hh)
    numeric = (4.0 * diff(0.5 * h) - diff(h)) / 3.0
    return float(np.abs(field.eval(ts, order) - numeric).max(initial=0.0))


@pytest.mark.parametrize("name", sorted(BUILTIN_PATCHES))
def test_derivative_error_equals_the_per_shift_formula(name):
    # one evaluation on all offset parameters gives the same bits
    fc = make_builtin_patch(name)
    for field in (fc.directrix, *fc.frame):
        for order, h in ((1, 1e-3), (2, 4e-3)):
            for seed in (0, 1, 3):
                assert (max_derivative_error(field, fc.interval, order, n=50, seed=seed)
                        == _per_shift_error(field, fc.interval, order, 50, seed, h))


def test_derivative_error_rejects_an_interval_shorter_than_four_steps():
    f = FourierField([(0.0, [2.0], [], 1.0), (0.0, [], [2.0], 1.0), (0.5, [], [0.3], 2.0)])
    g = arclength_reparametrize(f, (0.0, TWO_PI))
    with pytest.raises(ValidationError, match=re.escape("(0.0, 0.004)") + ".*h = 0.004"):
        max_derivative_error(g, (0.0, 0.004), order=2)
    # exactly 4h: every parameter sits at the midpoint
    assert max_derivative_error(g, (0.0, 0.004), order=1) < 1e-7


def test_derivative_field_shifts_order():
    helix = HelixCurve()
    tangent = DerivativeField(helix, 1)
    for t in (0.0, 1.3):
        assert np.array_equal(tangent.eval(t, 0), helix.eval(t, 1))
        assert np.array_equal(tangent.eval(t, 2), helix.eval(t, 3))


def test_embedded_field_pads():
    f = EmbeddedField(ConstantField([1.0, 2.0]), 4, offset=1)
    assert np.array_equal(f.eval(0.0, 0), [0.0, 1.0, 2.0, 0.0])


def test_affine_combination_field():
    base = PolynomialField([[0.0, 1.0], [0.0]])
    extra = ConstantField([0.0, 1.0])
    f = AffineCombinationField(base, [extra], [2.0])
    assert np.allclose(f.eval(3.0, 0), [3.0, 2.0])
    assert np.allclose(f.eval(3.0, 1), [1.0, 0.0])


def test_builtin_curve_registry():
    helix = make_builtin_curve("helix", {"a": 0.5, "b": 0.5})
    assert helix.dim == 3
    with pytest.raises(ConfigError):
        make_builtin_curve("klein_bottle")
    with pytest.raises(ConfigError):
        make_builtin_curve("helix", {"radius": 1.0})


# --- arclength reparametrization -------------------------------------------

def test_reparametrize_linear_curve():
    f = PolynomialField([[0.0, 2.0], [0.0], [0.0]])  # (2t, 0, 0)
    g = arclength_reparametrize(f, (0.0, 1.0))
    assert g.parameter_map.length == pytest.approx(2.0, abs=1e-12)
    for s in np.linspace(0.0, 2.0, 9):
        assert np.linalg.norm(g.eval(s, 1)) == pytest.approx(1.0, abs=1e-12)


def test_reparametrize_circle_radius_two_length():
    f = FourierField([(0.0, [2.0], [], 1.0), (0.0, [], [2.0], 1.0), (0.0, [], [], 1.0)])
    g = arclength_reparametrize(f, (0.0, TWO_PI))
    assert g.parameter_map.length == pytest.approx(4.0 * math.pi, abs=1e-9)


def test_reparametrize_unit_speed_curve_is_identity():
    helix = HelixCurve()
    g = arclength_reparametrize(helix, (0.0, TWO_PI))
    assert g.parameter_map.length == pytest.approx(TWO_PI, abs=1e-10)
    for s in np.linspace(0.0, TWO_PI, 33):
        assert np.abs(g.eval(s, 0) - helix.eval(s, 0)).max() < 1e-8


@pytest.mark.parametrize("order", [1, 2])
def test_reparametrized_field_fd_consistency(order):
    f = FourierField([(0.0, [2.0], [], 1.0), (0.0, [], [2.0], 1.0), (0.5, [], [0.3], 2.0)])
    g = arclength_reparametrize(f, (0.0, TWO_PI))
    err = max_derivative_error(g, (0.01, g.parameter_map.length - 0.01),
                               order, n=25, seed=5)
    assert err < 1e-7


def test_reparametrize_rejects_irregular_curve():
    f = PolynomialField([[0.0, 0.0, 1.0], [0.0], [0.0]])  # (t^2, 0, 0), stalls at 0
    with pytest.raises(RegularityError):
        arclength_reparametrize(f, (-1.0, 1.0))


def test_composed_field_domain_checked():
    g = arclength_reparametrize(HelixCurve(), (0.0, TWO_PI))
    with pytest.raises(DomainError):
        g.eval(g.parameter_map.length + 1.0, 0)
    # in an array, the first entry outside the domain is named
    ss = np.array([0.0, 1.0, g.parameter_map.length + 1.0, -3.0])
    with pytest.raises(DomainError, match=re.escape(f"t={float(ss[2])} ")):
        g.eval(ss, 0)


def test_composed_field_composes_companions():
    helix = HelixCurve()
    shifted = AffineCombinationField(helix, [DerivativeField(helix, 1)], [1.0])
    g = arclength_reparametrize(shifted, (0.0, TWO_PI))
    companion = ComposedField(DerivativeField(helix, 1), g.parameter_map)
    # companion keeps unit length; its parameter is the shifted curve's arclength
    for s in np.linspace(0.1, g.parameter_map.length - 0.1, 7):
        assert np.linalg.norm(companion.eval(s, 0)) == pytest.approx(1.0, abs=1e-12)


def test_polynomial_rejects_bad_coefficients():
    with pytest.raises(ValidationError):
        PolynomialField([])
    with pytest.raises(ValidationError):
        PolynomialField([[np.nan]])


def test_fourier_rejects_bad_coefficients():
    with pytest.raises(ValidationError):
        FourierField([(0.0, [np.inf], [], 1.0)])


# --- array evaluation ----------------------------------------------------------

def _frame_pair():
    helix = HelixCurve()
    return [DerivativeField(helix, 1), FourierField([(0.0, [0.6], [], 1.0),
                                                     (0.8, [], [0.6], 1.0),
                                                     (0.0, [0.3], [0.2], 2.0)])]


def _interpolation_data(n, seed):
    """Strictly increasing nodes with uneven spacing, and (n, 2, 3) values
    and slopes."""
    rng = np.random.default_rng([n, seed])
    x = np.cumsum(rng.uniform(0.2, 1.0, n)) - 1.5
    return x, rng.normal(size=(n, 2, 3)), rng.normal(size=(n, 2, 3))


def _interpolation_points(x):
    """The nodes, the midpoints and points beyond both ends."""
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]), [x[0] - 0.7, x[-1] + 0.4]])


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n", [2, 3, 4, 7])
@pytest.mark.parametrize("nu", [0, 1, 2])
def test_cubic_hermite_matches_the_reference_spline(n, nu):
    x, y, dydx = _interpolation_data(n, 0)
    ts = _interpolation_points(x)
    ours = CubicHermite(x, y, dydx)
    _assert_close(ours(ts, nu), CubicHermiteSpline(x, y, dydx, axis=0)(ts, nu))
    assert ours(ts[1], nu).shape == (2, 3)


def test_cubic_hermite_is_exact_at_every_node_but_the_last():
    x, y, dydx = _interpolation_data(9, 1)
    ours = CubicHermite(x, y, dydx)
    assert np.array_equal(ours(x[:-1]), y[:-1])
    assert np.array_equal(ours(x[:-1], 1), dydx[:-1])
    with pytest.raises(ValidationError):
        ours(x, 3)


def _array_cases():
    """(id, field, parameters inside its domain) for every field kind."""
    ts = np.linspace(0.0, TWO_PI, 13)
    helix = HelixCurve(0.4, 0.9)
    fourier = FourierField([(0.5, [1.0, 0.25], [0.5], 1.0), (0.0, [], [1.0], 2.0),
                            (-1.0, [], [], 1.0)])
    composed = arclength_reparametrize(
        FourierField([(0.0, [2.0], [], 1.0), (0.0, [], [2.0], 1.0), (0.5, [], [0.3], 2.0)]),
        (0.0, TWO_PI))
    length = composed.parameter_map.length
    bases = _frame_pair()
    return [
        ("constant", ConstantField([1.0, -2.0, 0.5]), ts),
        ("polynomial", PolynomialField([[1.0, -2.0, 0.5, 0.25], [0.0, 3.0], [2.0]]), ts),
        ("fourier", fourier, ts),
        ("helix", helix, ts),
        ("circle", CircleCurve(2.0), ts),
        ("line", LineCurve([1.0, 0.0, 0.0], [1.0, 1.0, 0.0]), ts),
        ("embedded", EmbeddedField(helix, 5, offset=1), ts),
        ("derivative", DerivativeField(helix, 1), ts),
        ("composed", composed, np.linspace(0.0, length, 13)),
        ("composed-companion", ComposedField(fourier, composed.parameter_map),
         np.linspace(0.0, length, 13)),
        ("affine", AffineCombinationField(helix, [DerivativeField(helix, 1)], [0.7]), ts),
        ("gram-schmidt", GramSchmidtField(GramSchmidtFrame(bases), 1), ts),
    ]


@pytest.mark.parametrize("case", _array_cases(), ids=lambda c: c[0])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_array_eval_equals_stacked_scalar_evals(case, order):
    _, field, ts = case
    stacked = field.eval(ts, order)
    per_t = np.array([field.eval(t, order) for t in ts])
    assert stacked.shape == (ts.size, field.dim)
    assert per_t.shape == (ts.size, field.dim)
    assert np.abs(stacked - per_t).max() <= 1e-14 * max(1.0, np.abs(per_t).max())


def test_array_eval_rejects_matrices_of_parameters():
    with pytest.raises(ValidationError):
        HelixCurve().eval(np.zeros((2, 2)), 0)


def test_parameter_map_inverts_arrays_entry_by_entry():
    pmap = ParameterMap(FourierField([(0.0, [2.0], [], 1.0), (0.0, [], [1.0], 1.0),
                                      (0.3, [0.2], [], 3.0)]), (0.0, TWO_PI))
    ss = np.concatenate([np.linspace(0.0, pmap.length, 23), [0.5 * pmap.length]])
    ts = pmap.t(ss)
    assert isinstance(pmap.t(1.0), float)
    assert np.array_equal(ts, [pmap.t(s) for s in ss])
    assert np.array_equal(pmap.dt(ts), [pmap.dt(t) for t in ts])
    assert np.array_equal(pmap.d2t(ts), [pmap.d2t(t) for t in ts])
    # round trip through the arclength, at the quadrature nodes and between them
    t_nodes = np.linspace(0.0, TWO_PI, 257)
    for t in (t_nodes, 0.5 * (t_nodes[1:] + t_nodes[:-1])):
        assert np.abs(pmap.t(pmap.s(t)) - t).max() < 1e-12
    with pytest.raises(DomainError, match=re.escape(f"s={pmap.length + 1.0}")):
        pmap.t(np.array([0.0, pmap.length + 1.0]))


class _ScalarOnlyField(VectorField):
    """A user field written for one scalar t at a time."""

    dim = 2

    def eval(self, t, order=0):
        return np.array([math.cos(t + order * math.pi / 2.0), float(order == 0) * t])


def test_scalar_only_subclass_evaluates_arrays():
    f = _ScalarOnlyField()
    ts = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(f.eval(ts, 1), np.array([f.eval(t, 1) for t in ts]))
    assert f.eval(0.5, 0).shape == (2,)


# --- the arclength table ---------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(21)


def _speed(curve, ts):
    return np.linalg.norm(curve.eval(ts, 1), axis=-1)


def _quad_speed(curve, a, b):
    """Integral of the speed over each [a_i, b_i], one 21-point rule each."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    ts = mid[:, None] + half[:, None] * _GL_NODES
    return half * (_speed(curve, ts.ravel()).reshape(ts.shape) * _GL_WEIGHTS).sum(axis=1)


def _map_cases():
    """(id, curve, interval) of curves with a varying speed, and a unit-speed one."""
    return [
        ("fourier", FourierField([(0.0, [2.0], [0.3], 1.0), (0.5, [0.2], [1.0], 1.0),
                                  (0.0, [0.25], [0.15], 3.0)]), (0.0, TWO_PI)),
        # speed at least |1 + t + 0.6 t^2| > 0
        ("polynomial", PolynomialField([[0.0, 1.0, 0.5, 0.2], [1.0, -0.3, 0.4],
                                        [0.0, 0.0, 0.0, 0.1]]), (-1.0, 2.0)),
        ("helix", HelixCurve(), (0.0, TWO_PI)),
    ]


@pytest.mark.parametrize("case", _map_cases(), ids=lambda c: c[0])
def test_parameter_map_length_is_the_quadrature_sum(case):
    _, curve, (t0, t1) = case
    pmap = ParameterMap(curve, (t0, t1))
    nodes = np.linspace(t0, t1, 257)
    cum = np.concatenate([[0.0], np.cumsum(_quad_speed(curve, nodes[:-1], nodes[1:]))])
    assert pmap.length == cum[-1]
    assert pmap.s_interval == (0.0, cum[-1])


@pytest.mark.parametrize("case", _map_cases(), ids=lambda c: c[0])
def test_parameter_map_table_equals_the_per_point_quadrature(case):
    # s(t) reads the antiderivative of the interpolated speed; the oracle
    # integrates the speed itself from the interval's start node to each t
    _, curve, (t0, t1) = case
    pmap = ParameterMap(curve, (t0, t1))
    nodes = np.linspace(t0, t1, 257)
    cum = np.concatenate([[0.0], np.cumsum(_quad_speed(curve, nodes[:-1], nodes[1:]))])
    rng = np.random.default_rng(11)
    for ts in (nodes, 0.5 * (nodes[1:] + nodes[:-1]), np.sort(rng.uniform(t0, t1, 1000))):
        idx = np.clip(np.searchsorted(nodes, ts, side="right") - 1, 0, 255)
        expected = cum[idx] + _quad_speed(curve, nodes[idx], ts)
        assert np.abs(pmap.s(ts) - expected).max() <= 4.0 * np.finfo(float).eps * pmap.length


def test_parameter_map_arclength_rejects_parameters_outside_the_interval():
    pmap = ParameterMap(HelixCurve(), (0.0, TWO_PI))
    pad = 1e-9 * TWO_PI
    # within the pad the unit-speed helix's table extends past its ends
    for t in (TWO_PI + 0.5 * pad, -0.5 * pad):
        assert pmap.s(t) == pytest.approx(t, abs=1e-12)
    ts = np.array([1.0, TWO_PI + 2.0 * pad, -1.0])
    with pytest.raises(DomainError, match=re.escape(f"t={float(ts[1])} ")):
        pmap.s(ts)
    with pytest.raises(DomainError, match=re.escape("t=-1.0 ")):
        pmap.s(-1.0)
    with pytest.raises(DomainError):
        pmap.s(np.nan)
