"""Vector fields along a scalar parameter, with exact differentiation.

Four serializable kinds (polynomial, fourier, constant, builtin) carry
closed-form derivatives of any order. Derived fields (composition with
a monotone parameter map, linear combinations of frame fields with
interpolated coefficients) implement derivatives up to order 2, which
is all downstream geometry needs. Finite differences never appear here;
they are reserved for test oracles.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import ConfigError, DomainError, RegularityError, ValidationError
from .multilinear import as_vector

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(21)


class VectorField(ABC):
    """A map t -> R^dim with derivatives available through `eval`."""

    dim: int
    #: closed parameter interval, or None when defined for all t
    domain: tuple[float, float] | None = None

    @abstractmethod
    def eval(self, t: float, order: int = 0) -> np.ndarray:
        """order-th derivative at t (order 0 is the value)."""

    def __call__(self, t: float) -> np.ndarray:
        return self.eval(t, 0)

    def _check_domain(self, t: float):
        if self.domain is not None:
            lo, hi = self.domain
            pad = 1e-9 * max(1.0, abs(lo), abs(hi))
            if not (lo - pad <= t <= hi + pad):
                raise DomainError(f"t={t} outside field domain [{lo}, {hi}]")


def _check_order(order: int):
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValidationError(f"derivative order must be a nonnegative integer, got {order!r}")


class ConstantField(VectorField):
    """The same vector at every parameter."""

    def __init__(self, value):
        self.value = as_vector(value)
        self.dim = self.value.shape[0]

    def eval(self, t, order=0):
        _check_order(order)
        if order == 0:
            return self.value.copy()
        return np.zeros(self.dim)


class PolynomialField(VectorField):
    """Per-coordinate polynomials in t (coefficients in ascending order)."""

    def __init__(self, coefficients: Sequence[Sequence[float]]):
        self.coefficients = [np.asarray(c, dtype=float) for c in coefficients]
        if not self.coefficients:
            raise ValidationError("polynomial field needs at least one coordinate")
        for c in self.coefficients:
            if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
                raise ValidationError("polynomial coefficients must be finite 1-D lists")
        self.dim = len(self.coefficients)
        self._derived = {0: self.coefficients}

    def _coeffs(self, order: int) -> list[np.ndarray]:
        # derivative coefficient lists are memoized per order
        if order not in self._derived:
            prev = self._coeffs(order - 1)
            self._derived[order] = [
                npoly.polyder(c) if c.size > 1 else np.zeros(1) for c in prev]
        return self._derived[order]

    def eval(self, t, order=0):
        _check_order(order)
        coeffs = self._coeffs(order)
        out = np.empty(self.dim)
        for i, c in enumerate(coeffs):
            out[i] = npoly.polyval(t, c)
        return out


class FourierField(VectorField):
    """Per-coordinate trigonometric polynomials.

    Each coordinate is constant + sum_k (a_k cos(k w t) + b_k sin(k w t))
    with its own fundamental frequency w.
    """

    def __init__(self, coordinates: Sequence[tuple]):
        self.coordinates = []
        for coord in coordinates:
            const, cos_c, sin_c, omega = coord
            cos_c = np.asarray(cos_c, dtype=float)
            sin_c = np.asarray(sin_c, dtype=float)
            if not (np.isfinite(const) and np.isfinite(omega)
                    and np.all(np.isfinite(cos_c)) and np.all(np.isfinite(sin_c))):
                raise ValidationError("fourier coefficients must be finite")
            self.coordinates.append((float(const), cos_c, sin_c, float(omega)))
        if not self.coordinates:
            raise ValidationError("fourier field needs at least one coordinate")
        self.dim = len(self.coordinates)
        # flattened (coordinate index, amplitude, frequency, phase) terms
        idx, amp, freq, phase = [], [], [], []
        for i, (const, cos_c, sin_c, omega) in enumerate(self.coordinates):
            for k, a in enumerate(cos_c, start=1):
                idx.append(i)
                amp.append(a)
                freq.append(k * omega)
                phase.append(math.pi / 2.0)
            for k, b in enumerate(sin_c, start=1):
                idx.append(i)
                amp.append(b)
                freq.append(k * omega)
                phase.append(0.0)
        self._idx = np.asarray(idx, dtype=int)
        self._amp = np.asarray(amp)
        self._freq = np.asarray(freq)
        self._phase = np.asarray(phase)
        self._const = np.asarray([c[0] for c in self.coordinates])

    def eval(self, t, order=0):
        _check_order(order)
        out = self._const.copy() if order == 0 else np.zeros(self.dim)
        if self._idx.size:
            # sin(x + pi/2) = cos(x); each derivative advances the phase
            terms = (self._amp * self._freq ** order
                     * np.sin(self._freq * t + self._phase + order * math.pi / 2.0))
            out += np.bincount(self._idx, weights=terms, minlength=self.dim)
        return out


class HelixCurve(VectorField):
    """Unit-speed circular helix in R^3 with radius a and pitch slope b."""

    dim = 3

    def __init__(self, a: float = 1.0 / math.sqrt(2.0), b: float = 1.0 / math.sqrt(2.0)):
        if a <= 0:
            raise ConfigError("helix radius must be positive")
        self.a = float(a)
        self.b = float(b)
        self.c = math.hypot(a, b)

    def eval(self, t, order=0):
        _check_order(order)
        w = 1.0 / self.c
        phase = w * t + order * math.pi / 2.0
        amp = self.a * w ** order
        x = amp * math.cos(phase)
        y = amp * math.sin(phase)
        if order == 0:
            z = self.b * w * t
        elif order == 1:
            z = self.b * w
        else:
            z = 0.0
        return np.array([x, y, z])


class CircleCurve(VectorField):
    """Unit-speed circle of radius r in the z=0 plane of R^3."""

    dim = 3

    def __init__(self, r: float = 1.0):
        if r <= 0:
            raise ConfigError("circle radius must be positive")
        self.r = float(r)

    def eval(self, t, order=0):
        _check_order(order)
        w = 1.0 / self.r
        phase = w * t + order * math.pi / 2.0
        amp = self.r * w ** order
        return np.array([amp * math.cos(phase), amp * math.sin(phase), 0.0])


class LineCurve(VectorField):
    """Unit-speed straight line through `point` along `direction`."""

    def __init__(self, point=(0.0, 0.0, 0.0), direction=(0.0, 0.0, 1.0)):
        self.point = as_vector(point)
        d = as_vector(direction, self.point.shape[0])
        norm = np.linalg.norm(d)
        if norm == 0.0:
            raise ConfigError("line direction must be nonzero")
        self.direction = d / norm
        self.dim = self.point.shape[0]

    def eval(self, t, order=0):
        _check_order(order)
        if order == 0:
            return self.point + t * self.direction
        if order == 1:
            return self.direction.copy()
        return np.zeros(self.dim)


#: named closed-form curve families usable in scene files
BUILTIN_CURVES: dict[str, tuple[Callable[..., VectorField], str]] = {
    "helix": (HelixCurve, "unit-speed circular helix; params a (radius), b (pitch slope)"),
    "circle": (CircleCurve, "unit-speed circle of radius r in the z=0 plane"),
    "line": (LineCurve, "unit-speed line; params point, direction"),
}


def make_builtin_curve(name: str, params: dict | None = None) -> VectorField:
    if name not in BUILTIN_CURVES:
        raise ConfigError(f"unknown builtin curve family {name!r}; "
                          f"known: {sorted(BUILTIN_CURVES)}")
    factory, _ = BUILTIN_CURVES[name]
    try:
        return factory(**(params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for builtin curve {name!r}: {exc}") from exc


class EmbeddedField(VectorField):
    """A field placed into a larger ambient space, padded with zeros."""

    def __init__(self, base: VectorField, dim: int, offset: int = 0):
        if offset < 0 or offset + base.dim > dim:
            raise ValidationError("embedded field does not fit in the target dimension")
        self.base = base
        self.offset = offset
        self.dim = dim
        self.domain = base.domain

    def eval(self, t, order=0):
        out = np.zeros(self.dim)
        out[self.offset:self.offset + self.base.dim] = self.base.eval(t, order)
        return out


class DerivativeField(VectorField):
    """The order-`shift` derivative of another field, as a field."""

    def __init__(self, base: VectorField, shift: int = 1):
        if shift < 1:
            raise ValidationError("shift must be >= 1")
        self.base = base
        self.shift = shift
        self.dim = base.dim
        self.domain = base.domain

    def eval(self, t, order=0):
        _check_order(order)
        self._check_domain(t)
        return self.base.eval(t, order + self.shift)


class ParameterMap:
    """Monotone map s -> t(s) inverting the arclength of a regular curve.

    Built from cumulative Gauss-Legendre quadrature of the speed on a
    dense node set; evaluation uses a monotone cubic (PCHIP) initial
    guess polished by Newton iterations against the quadrature, so the
    inverse is accurate to near machine precision. dt/ds and d2t/ds2
    come from the exact inverse-function formulas.
    """

    def __init__(self, curve: VectorField, interval: tuple[float, float],
                 nodes: int = 257, min_speed: float = 1e-12):
        t0, t1 = float(interval[0]), float(interval[1])
        if not t1 > t0:
            raise ValidationError(f"empty interval [{t0}, {t1}]")
        self.curve = curve
        self.t_interval = (t0, t1)
        self._t_nodes = np.linspace(t0, t1, nodes)
        for t in self._t_nodes:
            if self._speed(t) <= min_speed:
                raise RegularityError(f"curve speed vanishes near t={t}")
        cum = np.zeros(nodes)
        for i in range(nodes - 1):
            cum[i + 1] = cum[i] + self._quad_speed(self._t_nodes[i], self._t_nodes[i + 1])
        self._s_nodes = cum
        self.length = float(cum[-1])
        self.s_interval = (0.0, self.length)
        self._guess = PchipInterpolator(cum, self._t_nodes)
        # grid sweeps re-invert the same arclength values for every
        # companion field; memoize the Newton result per exact s
        self._inverse_cache: dict[float, float] = {}

    def _speed(self, t: float) -> float:
        return float(np.linalg.norm(self.curve.eval(t, 1)))

    def _quad_speed(self, a: float, b: float) -> float:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = mid + half * _GL_NODES
        return half * float(sum(w * self._speed(t) for t, w in zip(ts, _GL_WEIGHTS)))

    def _arclength(self, t: float) -> float:
        idx = min(bisect_right(self._t_nodes, t) - 1, len(self._t_nodes) - 2)
        idx = max(idx, 0)
        return self._s_nodes[idx] + self._quad_speed(self._t_nodes[idx], t)

    def t(self, s: float) -> float:
        s = float(s)
        cached = self._inverse_cache.get(s)
        if cached is not None:
            return cached
        lo, hi = self.t_interval
        pad = 1e-9 * max(1.0, self.length)
        if not (-pad <= s <= self.length + pad):
            raise DomainError(f"s={s} outside [0, {self.length}]")
        t = float(np.clip(self._guess(np.clip(s, 0.0, self.length)), lo, hi))
        scale = max(1.0, abs(lo), abs(hi))
        for _ in range(12):
            step = (self._arclength(t) - s) / self._speed(t)
            t = float(np.clip(t - step, lo, hi))
            if abs(step) < 1e-14 * scale:
                break
        self._inverse_cache[s] = t
        return t

    def dt(self, t: float) -> float:
        return 1.0 / self._speed(t)

    def d2t(self, t: float) -> float:
        # d2t/ds2 = -v'(t)/v(t)^3 with v' = <f', f''>/v
        d1 = self.curve.eval(t, 1)
        d2 = self.curve.eval(t, 2)
        v = np.linalg.norm(d1)
        return -float(d1 @ d2) / v ** 4


class ComposedField(VectorField):
    """A field composed with a parameter map, with chain-rule derivatives.

    Supports derivative orders 0..2.
    """

    def __init__(self, base: VectorField, pmap: ParameterMap):
        self.base = base
        self.parameter_map = pmap
        self.dim = base.dim
        self.domain = pmap.s_interval

    def eval(self, s, order=0):
        _check_order(order)
        self._check_domain(s)
        pm = self.parameter_map
        t = pm.t(float(np.clip(s, *pm.s_interval)))
        if order == 0:
            return self.base.eval(t, 0)
        dt = pm.dt(t)
        if order == 1:
            return self.base.eval(t, 1) * dt
        if order == 2:
            return self.base.eval(t, 2) * dt ** 2 + self.base.eval(t, 1) * pm.d2t(t)
        raise ValidationError("composed fields support derivative orders 0..2 only")


def arclength_reparametrize(curve: VectorField, interval: tuple[float, float],
                            nodes: int = 257) -> ComposedField:
    """Reparametrize a regular curve by arclength.

    Returns the same image as a unit-speed field over [0, L]; the
    parameter map is exposed as `.parameter_map` so companion fields
    (e.g. a frame defined in the original parameter) can be composed
    with the identical map.
    """
    pmap = ParameterMap(curve, interval, nodes=nodes)
    return ComposedField(curve, pmap)


class AffineCombinationField(VectorField):
    """base(t) + sum_j weight_j * extra_j(t) with constant weights."""

    def __init__(self, base: VectorField, extras: Sequence[VectorField], weights):
        self.base = base
        self.extras = list(extras)
        self.weights = as_vector(weights)
        if self.weights.shape[0] != len(self.extras):
            raise ValidationError("one weight per extra field required")
        for f in self.extras:
            if f.dim != base.dim:
                raise ValidationError("extra field dimension mismatch")
        self.dim = base.dim
        self.domain = base.domain

    def eval(self, t, order=0):
        out = self.base.eval(t, order)
        for w, f in zip(self.weights, self.extras):
            if w != 0.0:
                out = out + w * f.eval(t, order)
        return out


class SplineCoefficients:
    """Coefficient curve c(t) in R^K interpolated by a cubic spline."""

    def __init__(self, t_nodes, values):
        self._spline = CubicSpline(np.asarray(t_nodes, dtype=float),
                                   np.asarray(values, dtype=float), axis=0)

    def value(self, t):
        return self._spline(t)

    def d1(self, t):
        return self._spline(t, nu=1)

    def d2(self, t):
        return self._spline(t, nu=2)


def connection_skew(bases: Sequence[VectorField], t: float, order: int = 1):
    """Connection matrix W[l, j] = <Xdot_j, X_l> of a frame at t.

    With order=2 also returns its t-derivative, as the pair (W, Wdot).
    """
    k = len(bases)
    vals = [b.eval(t, 0) for b in bases]
    d1 = [b.eval(t, 1) for b in bases]
    w = np.empty((k, k))
    for l in range(k):
        for j in range(k):
            w[l, j] = d1[j] @ vals[l]
    if order == 1:
        return w
    d2 = [b.eval(t, 2) for b in bases]
    wdot = np.empty((k, k))
    for l in range(k):
        for j in range(k):
            wdot[l, j] = d2[j] @ vals[l] + d1[j] @ d1[l]
    return w, wdot


class TransportCoefficients(SplineCoefficients):
    """Coefficients of a frame field transported to kill tangential drift.

    Values are spline-interpolated, but derivatives use the transport
    equation c' = -W(t) c with W[l,k] = <Xdot_k, X_l>, so the combined
    field's derivative has, by construction, no component along the
    frame span.
    """

    def __init__(self, bases: Sequence[VectorField], t_nodes, values):
        super().__init__(t_nodes, values)
        self._bases = list(bases)

    def d1(self, t):
        return -connection_skew(self._bases, t) @ self.value(t)

    def d2(self, t):
        w, wdot = connection_skew(self._bases, t, order=2)
        c = self.value(t)
        return -wdot @ c + w @ (w @ c)


class FrameCombinationField(VectorField):
    """One column of a coefficient-matrix combination of base fields.

    The coefficient curve yields (K, K_out) matrices; field `index`
    evaluates to sum_k c[k, index](t) * bases[k](t), with product-rule
    derivatives up to order 2.
    """

    def __init__(self, bases: Sequence[VectorField], coeffs, index: int,
                 domain: tuple[float, float] | None = None):
        self.bases = list(bases)
        self.coeffs = coeffs
        self.index = index
        self.dim = self.bases[0].dim
        self.domain = domain

    def eval(self, t, order=0):
        _check_order(order)
        self._check_domain(t)
        c0 = self.coeffs.value(t)[:, self.index]
        vals = np.array([b.eval(t, 0) for b in self.bases])
        if order == 0:
            return c0 @ vals
        c1 = self.coeffs.d1(t)[:, self.index]
        d1 = np.array([b.eval(t, 1) for b in self.bases])
        if order == 1:
            return c1 @ vals + c0 @ d1
        if order == 2:
            c2 = self.coeffs.d2(t)[:, self.index]
            d2 = np.array([b.eval(t, 2) for b in self.bases])
            return c2 @ vals + 2.0 * (c1 @ d1) + c0 @ d2
        raise ValidationError("combination fields support derivative orders 0..2 only")
