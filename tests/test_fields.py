import math
import re

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from ruledkit import DomainError, HelixCurve, RegularityError, ValidationError
from ruledkit.errors import ConfigError
from ruledkit.fields import (AffineCombinationField, CircleCurve, ComposedField,
                             ConstantField, DerivativeField, EmbeddedField, FourierField,
                             FrameCombinationField, LineCurve, ParameterMap,
                             PolynomialField, VectorField, arclength_reparametrize,
                             make_builtin_curve)
from ruledkit.oracles import central_difference, max_derivative_error

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


def _coefficient_nodes():
    nodes = np.linspace(0.0, TWO_PI, 9)
    angle = 0.3 * np.sin(nodes)
    values = np.empty((nodes.size, 2, 2))
    values[:, 0, 0] = values[:, 1, 1] = np.cos(angle)
    values[:, 0, 1] = -np.sin(angle)
    values[:, 1, 0] = np.sin(angle)
    return nodes, values


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
    nodes, values = _coefficient_nodes()
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
        ("frame-spline", FrameCombinationField(bases, CubicSpline(nodes, values, axis=0), 1,
                                               domain=(0.0, TWO_PI)), ts),
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
