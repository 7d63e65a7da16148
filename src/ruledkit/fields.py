"""Vector fields along a scalar parameter, with exact differentiation.

Four serializable kinds (polynomial, fourier, constant, builtin) carry
closed-form derivatives of any order; `make_builtin` builds the builtin
curves (helix, circle, and line as a polynomial) and, from `parametric`'s
registry of the same shape, the builtin patches. Derived fields
(composition with a monotone parameter map, the exact Gram-Schmidt
orthonormalization of frame fields) implement derivatives up to order 2,
which is all downstream geometry needs. Finite differences never appear here; they
are reserved for test oracles. `CubicHermite` is not a field: it
interpolates the striction sheet's solved coordinates for the sheet's
two off-grid readers, `beta` and `beta_partials`.

Evaluation is array-based: `eval(t, order)` takes a scalar t, giving a
(dim,) vector, or a 1-D array of parameters, giving an (N, dim) stack.
Each kind computes on the array; a scalar is the N=1 case of the same
code. A Fourier field evaluates one sine row per distinct harmonic and
phase, shared by the coordinates that use it, on blocks of parameters
whose temporaries stay within a fixed budget (`FOURIER_BLOCK_ENTRIES`).
The parameter map behind arclength reparametrization builds its
quadrature table and inverts arclength values the same way, on arrays:
one evaluation of the speed at its interval ends and Gauss nodes
together, then Newton from a cubic Hermite guess, against the table's
antiderivative of the interpolated speed, evaluating the curve only at
its iterates.

Arclength is inverted once per parameter array and map. `eval` also
takes a `ParameterArray`, a 1-D array that keeps, per parameter map,
the inverse t(s) of its values and dt/ds, d2t/ds2 there. A
`ComposedField` reads its map's inversion from it, and the kinds built
on other fields (embedded, derivative, composed, affine-combination,
Gram-Schmidt) hand it on to those fields, so every
field and derivative order evaluated on one such array, maps nested
inside maps included, shares one `ParameterMap.t` call per map; the
fields of one Gram-Schmidt frame share one orthonormalization per order
the same way, and a composed field and its map share one evaluation of
the base's first and second derivatives at the inverted t. A plain
array is wrapped in a fresh `ParameterArray` for the one call. Leaf
kinds and user subclasses always receive a plain float or array.
"""

from __future__ import annotations

import functools
import math
import numbers
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, DomainError, RegularityError, ValidationError
from .multilinear import as_vector, gram_schmidt_rows

_GL_NODES, _GL_WEIGHTS = legendre.leggauss(21)
#: Legendre coefficients of the antiderivative, zero at -1, of the degree-20
#: polynomial through values at the 21 Gauss nodes: (22, 21), coefficients
#: from values
_GL_ANTIDERIVATIVE = legendre.legint(np.linalg.inv(legendre.legvander(_GL_NODES, 20)), lbnd=-1)

#: quadrature nodes of a `ParameterMap` over its interval
_MAP_NODES = 257
#: speed at or below which a `ParameterMap` rejects its curve as singular
_MIN_SPEED = 1e-12


def _check_order(order: int):
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValidationError(f"derivative order must be a nonnegative integer, got {order!r}")


def _parameters(t) -> tuple[np.ndarray, bool]:
    """A scalar or 1-D parameter argument as a 1-D float array, and
    whether it was a scalar."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:
        return ts[None], True
    if ts.ndim > 1:
        raise ValidationError(f"parameters must be a scalar or a 1-D array, got shape {ts.shape}")
    return ts, False


def _rows(vector: np.ndarray, n: int) -> np.ndarray:
    """An (n, dim) array whose rows are copies of `vector`."""
    out = np.empty((n, vector.shape[0]))
    out[:] = vector
    return out


def _first_outside(ts: np.ndarray, lo: float, hi: float, pad: float) -> float | None:
    """The first entry of ts outside [lo - pad, hi + pad] (NaN included), or None."""
    outside = np.flatnonzero(~((lo - pad <= ts) & (ts <= hi + pad)))
    return float(ts[outside[0]]) if outside.size else None


class ParameterArray:
    """A 1-D parameter array that the fields evaluated on it share, with
    the arclength inversions and frame orthonormalizations made on it.

    `inverse(pmap)` runs `pmap.t` on the values on first use and keeps
    the result for as long as this object lives; so does `cached` for
    any other result computed from the values. Results are keyed by the
    object that made them (a map, a frame and order), never by
    parameter values.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1:
            raise ValidationError(
                f"a parameter array must be 1-D, got shape {self.values.shape}")
        self._cache: dict = {}

    def cached(self, key, make: Callable[[], object]):
        """`make()` on the first call with `key`, the same result after."""
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = make()
        return out

    def inverse(self, pmap: "ParameterMap") -> "_Inverse":
        return self.cached(pmap, lambda: _Inverse(pmap, self.values))


def _shared_derivative(field: "VectorField", t, order: int) -> np.ndarray:
    """`field.eval(t, order)`; on a `ParameterArray`, made once per field
    and order and kept on the array, so the chain rule of a composed field
    and its map's dt/ds, d2t/ds2 read one evaluation of the curve at the
    inverted t. A kept result is shared: its readers only compute from it."""
    if isinstance(t, ParameterArray):
        return t.cached((field, order), lambda: field.eval(t, order))
    return field.eval(t, order)


class _Inverse:
    """t(s) of one parameter map at the arclength values s, as a
    `ParameterArray` of its own (so the maps nested in the composed base
    share their inversions too), and dt/ds, d2t/ds2 there as (N, 1)
    columns, each computed on first use."""

    def __init__(self, pmap: "ParameterMap", s: np.ndarray):
        self.pmap = pmap
        self.t = ParameterArray(pmap.t(np.clip(s, *pmap.s_interval)))

    @functools.cached_property
    def dt(self) -> np.ndarray:
        return self.pmap.dt(self.t)[:, None]

    @functools.cached_property
    def d2t(self) -> np.ndarray:
        return self.pmap.d2t(self.t)[:, None]


def _vectorized(fn, shared: bool):
    @functools.wraps(fn)
    def eval(self, t, order=0):
        _check_order(order)
        if isinstance(t, ParameterArray):
            params, ts, scalar = t, t.values, False
        else:
            ts, scalar = _parameters(t)
            params = ParameterArray(ts) if shared else None
        if self.domain is not None:
            lo, hi = self.domain
            bad = _first_outside(ts, lo, hi, 1e-9 * max(1.0, abs(lo), abs(hi)))
            if bad is not None:
                raise DomainError(f"t={bad} outside field domain [{lo}, {hi}]")
        out = fn(self, params if shared else ts, order)
        return out[0] if scalar else out
    eval.takes_arrays = True
    return eval


def array_eval(fn):
    """Make an `eval` written for a 1-D parameter array, returning an
    (N, dim) stack, also take a scalar t, returning a (dim,) vector, or
    a `ParameterArray`, whose values it receives.

    The order is checked and the field's domain enforced first; a domain
    error names the first offending t.
    """
    return _vectorized(fn, shared=False)


def shared_eval(fn):
    """`array_eval` for a kind built on other fields: its `eval` receives
    a `ParameterArray` (a plain argument is wrapped in a fresh one) and
    hands it on, so the fields it is built on share its inversions."""
    return _vectorized(fn, shared=True)


def _per_parameter(fn):
    """Adapt an `eval` written for one scalar t to the array contract by
    evaluating an array one entry at a time."""
    @functools.wraps(fn)
    def eval(self, t, order=0):
        if isinstance(t, ParameterArray):
            t = t.values
        if np.ndim(t) == 0:
            return fn(self, t, order)
        ts, _ = _parameters(t)
        return np.array([fn(self, x, order) for x in ts.tolist()]).reshape(ts.size, self.dim)
    eval.takes_arrays = True
    return eval


class VectorField(ABC):
    """A map t -> R^dim with derivatives available through `eval`.

    The package's field kinds compute on parameter arrays (`array_eval`).
    A subclass whose `eval` handles one scalar t is adapted on
    definition, so it can be evaluated on arrays too, one t at a time.
    """

    dim: int
    #: closed parameter interval, or None when defined for all t
    domain: tuple[float, float] | None = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fn = cls.__dict__.get("eval")
        if fn is not None and not getattr(fn, "takes_arrays", False):
            cls.eval = _per_parameter(fn)

    @abstractmethod
    def eval(self, t, order: int = 0) -> np.ndarray:
        """order-th derivative at t (order 0 is the value): (dim,) for a
        scalar t, (N, dim) for a 1-D array of N parameters."""

    def __call__(self, t) -> np.ndarray:
        return self.eval(t, 0)


class ConstantField(VectorField):
    """The same vector at every parameter."""

    def __init__(self, value):
        self.value = as_vector(value)
        self.dim = self.value.shape[0]

    @array_eval
    def eval(self, ts, order=0):
        if order == 0:
            return _rows(self.value, ts.size)
        return np.zeros((ts.size, self.dim))


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
        self._derived = {0: self._table(self.coefficients)}

    @staticmethod
    def _table(coefficients: list[np.ndarray]) -> np.ndarray:
        """(degree+1, dim) table, row j holding every coordinate's t^j
        coefficient; shorter coordinates are padded with zeros."""
        table = np.zeros((max(c.size for c in coefficients), len(coefficients)))
        for i, c in enumerate(coefficients):
            table[:c.size, i] = c
        return table

    def _coeffs(self, order: int) -> np.ndarray:
        # derivative coefficient tables are memoized per order
        if order not in self._derived:
            prev = self._coeffs(order - 1)
            self._derived[order] = (npoly.polyder(prev, axis=0) if prev.shape[0] > 1
                                    else np.zeros_like(prev))
        return self._derived[order]

    @array_eval
    def eval(self, ts, order=0):
        # Horner's rule on every coordinate at once
        table = self._coeffs(order)
        out = _rows(table[-1], ts.size)
        t_col = ts[:, None]
        for row in table[-2::-1]:
            out = out * t_col + row
        return out


#: terms x parameters per block of a Fourier evaluation; keeps its one
#: temporary, the terms and their sine rows, within 1 MB whatever the
#: number of parameters, and evaluates every field of the benchmark's
#: scenes, the 5633 points of an arclength map included, in one block
FOURIER_BLOCK_ENTRIES = 1 << 16


class FourierField(VectorField):
    """Per-coordinate trigonometric polynomials.

    Each coordinate is constant + sum_k (a_k cos(k w t) + b_k sin(k w t))
    with its own fundamental frequency w.

    `eval` computes one sine row per distinct (frequency, phase) pair
    (each cosine is a sine a quarter turn ahead), with the parameters
    along the row, so coordinates that share a frequency share its
    sines. Each term reads its row, scaled by its amplitude and the
    order-th power of its frequency, and each coordinate sums its terms
    with `np.add.reduceat`. The parameters go in blocks of at most
    `FOURIER_BLOCK_ENTRIES` // terms, so the temporaries stay bounded
    for any harmonics and any array.
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
        # flattened (amplitude, frequency) terms, grouped by coordinate;
        # each group starts with a zero term, so no group is empty and its
        # sum starts from zero. Each term reads the sine row of its
        # (frequency, phase) pair, one row per distinct pair. A frequency of
        # -0.0 shares the row of 0.0: t * -0.0 + phase equals t * 0.0 + phase
        # bit for bit, as every phase is +0.0 or pi/2
        amp, freq, term_rows, starts = [], [], [], []
        rows: dict[tuple[float, float], int] = {}

        def term(a: float, f: float, phase: float):
            amp.append(a)
            freq.append(f)
            term_rows.append(rows.setdefault((f, phase), len(rows)))

        for const, cos_c, sin_c, omega in self.coordinates:
            starts.append(len(amp))
            term(0.0, 0.0, 0.0)
            for k, a in enumerate(cos_c, start=1):
                term(a, k * omega, math.pi / 2.0)
            for k, b in enumerate(sin_c, start=1):
                term(b, k * omega, 0.0)
        self._starts = np.asarray(starts)
        self._freq = np.asarray(freq)[:, None]
        self._term_rows = np.asarray(term_rows)
        self._row_freq = np.asarray([f for f, _ in rows])[:, None]
        self._row_phase = np.asarray([phase for _, phase in rows])[:, None]
        self._const = np.asarray([c[0] for c in self.coordinates])[:, None]
        #: amplitude times frequency^order of each term, as a column,
        #: memoized per order
        self._scaled = {0: np.asarray(amp)[:, None]}

    @array_eval
    def eval(self, ts, order=0):
        if order not in self._scaled:
            self._scaled[order] = self._scaled[0] * self._freq ** order
        terms, rows = self._freq.shape[0], self._row_freq.shape[0]
        out = np.empty((ts.size, self.dim))
        step = max(1, FOURIER_BLOCK_ENTRIES // terms)
        # one buffer, allocated once per call, holds the terms and, after
        # them, the sine rows they read: the C allocator keeps up to twice
        # the largest block it has mapped and released, so it keeps this
        # memory between calls instead of returning it and faulting it in
        # again
        cells = np.empty((terms + rows) * min(step, ts.size))
        for lo in range(0, ts.size, step):
            block = ts[lo:lo + step]
            buf = cells[:(terms + rows) * block.size].reshape(terms + rows, block.size)
            # sin(x + pi/2) = cos(x); each derivative advances the phase
            arg = np.multiply(self._row_freq, block, out=buf[terms:])
            arg += self._row_phase
            if order:
                arg += order * math.pi / 2.0
            np.sin(arg, out=arg)
            # "clip" writes into `out` directly; the default mode buffers it
            values = np.take(arg, self._term_rows, axis=0, out=buf[:terms], mode="clip")
            values *= self._scaled[order]
            sums = np.add.reduceat(values, self._starts, axis=0, out=out[lo:lo + step].T)
            np.add(self._const if order == 0 else 0.0, sums, out=sums)
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

    @array_eval
    def eval(self, ts, order=0):
        w = 1.0 / self.c
        phase = w * ts + order * math.pi / 2.0
        amp = self.a * w ** order
        out = np.empty((ts.size, 3))
        out[:, 0] = amp * np.cos(phase)
        out[:, 1] = amp * np.sin(phase)
        if order == 0:
            out[:, 2] = self.b * w * ts
        else:
            out[:, 2] = self.b * w if order == 1 else 0.0
        return out


class CircleCurve(VectorField):
    """Unit-speed circle of radius r in the z=0 plane of R^3."""

    dim = 3

    def __init__(self, r: float = 1.0):
        if r <= 0:
            raise ConfigError("circle radius must be positive")
        self.r = float(r)

    @array_eval
    def eval(self, ts, order=0):
        w = 1.0 / self.r
        phase = w * ts + order * math.pi / 2.0
        amp = self.r * w ** order
        out = np.zeros((ts.size, 3))
        out[:, 0] = amp * np.cos(phase)
        out[:, 1] = amp * np.sin(phase)
        return out


def unit_line(point=(0.0, 0.0, 0.0), direction=(0.0, 0.0, 1.0)) -> PolynomialField:
    """Unit-speed line through `point` along `direction`, the polynomial p + t d / |d|."""
    point = as_vector(point)
    d = as_vector(direction, point.shape[0])
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ConfigError("line direction must be nonzero")
    return PolynomialField(np.stack([point, d / norm], axis=1))


#: named closed-form curve families usable in scene files, name -> (factory, description)
BUILTIN_CURVES: dict[str, tuple[Callable[..., VectorField], str]] = {
    "helix": (HelixCurve, "unit-speed circular helix; params a (radius), b (pitch slope)"),
    "circle": (CircleCurve, "unit-speed circle of radius r in the z=0 plane"),
    "line": (unit_line, "unit-speed line; params point, direction"),
}


def number_fault(value) -> str | None:
    """Why a builtin family's parameter value, or the first number it holds
    in a list, tuple or dict at any depth, is no usable number, or None:
    every family reads finite numbers, Python would take True for 1, and
    JSON's NaN and Infinity literals load as non-finite floats."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return next(filter(None, map(number_fault, value)), None)
    if isinstance(value, (bool, np.bool_)):
        return "a bool is not a number"
    if isinstance(value, numbers.Real) and not math.isfinite(value):
        return f"{value} is not a finite number"
    return None


def make_builtin(kind: str, registry: dict, name: str, params: dict | None = None):
    """The family `name` of `registry`, `BUILTIN_CURVES` or `parametric.BUILTIN_PATCHES`,
    built from `params`; `kind`, "curve" or "patch", names it in the errors."""
    if name not in registry:
        raise ConfigError(f"unknown builtin {kind} family {name!r}; known: {sorted(registry)}")
    fault = number_fault(params)
    if fault:
        raise ConfigError(f"bad parameters for builtin {kind} {name!r}: {fault}")
    try:
        return registry[name][0](**(params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for builtin {kind} {name!r}: {exc}") from exc


def make_builtin_curve(name: str, params: dict | None = None) -> VectorField:
    return make_builtin("curve", BUILTIN_CURVES, name, params)


class EmbeddedField(VectorField):
    """A field placed into a larger ambient space, padded with zeros."""

    def __init__(self, base: VectorField, dim: int, offset: int = 0):
        if offset < 0 or offset + base.dim > dim:
            raise ValidationError("embedded field does not fit in the target dimension")
        self.base = base
        self.offset = offset
        self.dim = dim
        self.domain = base.domain

    @shared_eval
    def eval(self, params, order=0):
        out = np.zeros((params.values.size, self.dim))
        out[:, self.offset:self.offset + self.base.dim] = self.base.eval(params, order)
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

    @shared_eval
    def eval(self, params, order=0):
        return self.base.eval(params, order + self.shift)


class ParameterMap:
    """Monotone map s -> t(s) inverting the arclength of a regular curve.

    Built from Gauss-Legendre quadrature of the speed, 21 nodes on each
    of 256 intervals. One evaluation of the curve's derivative gives the
    speed at the 257 interval ends and the 5376 Gauss nodes together (a
    Fourier curve evaluates it in bounded blocks, so the memory does not
    grow with harmonics x nodes). The ends' speeds reject a singular
    curve and give the slopes of the inverse's first guess; the
    quadrature's cumulative sums give the arclength at the ends. The
    same speeds give, per interval, the Legendre coefficients of the
    antiderivative of the degree-20 polynomial through them, so `s(t)`
    is the arclength at the interval's start plus that antiderivative,
    with no curve evaluation. `t` starts from the cubic Hermite through
    the interval ends (s_j, t_j) with the exact slopes 1/|f'(t_j)| and
    polishes it by Newton iterations against that table, run on the
    whole array of arclength values at once; it evaluates the curve
    only at its iterates, for the speed, and inverts to near machine
    precision. dt/ds and d2t/ds2 come from the exact inverse-function
    formulas. `s`, `t`, `dt` and `d2t` take a scalar or a 1-D array;
    `dt` and `d2t` also take a `ParameterArray` of t values, so maps
    nested in the curve share its inversions, and read the curve's
    derivatives kept on it (`_shared_derivative`).

    `t` is where arclength is inverted. The fields composed with a map
    do not call it themselves: each `ParameterArray` they are evaluated
    on calls it once per map (`ParameterArray.inverse`) and keeps t, dt
    and d2t for every field and derivative order evaluated on it.
    """

    def __init__(self, curve: VectorField, interval: tuple[float, float]):
        t0, t1 = float(interval[0]), float(interval[1])
        if not t1 > t0:
            raise ValidationError(f"empty interval [{t0}, {t1}]")
        self.curve = curve
        self.t_interval = (t0, t1)
        self._t_nodes = np.linspace(t0, t1, _MAP_NODES)
        mid = 0.5 * (self._t_nodes[:-1] + self._t_nodes[1:])
        half = 0.5 * (self._t_nodes[1:] - self._t_nodes[:-1])
        gauss = mid[:, None] + half[:, None] * _GL_NODES
        # the interval ends and the Gauss nodes in one evaluation
        speeds = self._speed(np.concatenate([self._t_nodes, gauss.ravel()]))
        speed = speeds[:_MAP_NODES]
        slow = np.flatnonzero(speed <= _MIN_SPEED)
        if slow.size:
            raise RegularityError(f"curve speed vanishes near t={self._t_nodes[slow[0]]}")
        # per interval, the integral of the speed by the 21-point rule, and
        # the Legendre coefficients in x of the antiderivative F(x), zero at
        # x = -1, of the degree-20 polynomial through the same 21 speeds,
        # for t = mid + half x; a row-wise sum, not a matrix product, so
        # that each length is its own interval's rule
        gauss_speeds = speeds[_MAP_NODES:].reshape(gauss.shape)
        lengths = half * (gauss_speeds * _GL_WEIGHTS).sum(axis=1)
        self._table = half[:, None] * (gauss_speeds @ _GL_ANTIDERIVATIVE.T)
        cum = np.zeros(_MAP_NODES)
        np.cumsum(lengths, out=cum[1:])
        self._s_nodes = cum
        self.length = float(cum[-1])
        self.s_interval = (0.0, self.length)
        self._guess = _hermite_coefficients(cum, self._t_nodes, 1.0 / speed)

    def _speed(self, t) -> np.ndarray:
        return np.linalg.norm(_shared_derivative(self.curve, t, 1), axis=-1)

    def _arclength(self, ts: np.ndarray) -> np.ndarray:
        """s at each entry of ts, from the table, one entry at a time."""
        idx = np.clip(np.searchsorted(self._t_nodes, ts, side="right") - 1, 0, _MAP_NODES - 2)
        lo = self._t_nodes[idx]
        x = (ts - lo) / (0.5 * (self._t_nodes[idx + 1] - lo)) - 1.0
        return self._s_nodes[idx] + legendre.legval(x, self._table[idx].T, tensor=False)

    def s(self, t):
        """Arclength from the start of the interval to t (scalar or 1-D array)."""
        ts, scalar = _parameters(t)
        lo, hi = self.t_interval
        bad = _first_outside(ts, lo, hi, 1e-9 * max(1.0, abs(lo), abs(hi)))
        if bad is not None:
            raise DomainError(f"t={bad} outside [{lo}, {hi}]")
        out = self._arclength(ts)
        return float(out[0]) if scalar else out

    def t(self, s):
        ss, scalar = _parameters(s)
        lo, hi = self.t_interval
        bad = _first_outside(ss, 0.0, self.length, 1e-9 * max(1.0, self.length))
        if bad is not None:
            raise DomainError(f"s={bad} outside [0, {self.length}]")
        y = np.clip(ss, 0.0, self.length)
        j = np.clip(np.searchsorted(self._s_nodes, y, side="right") - 1, 0, _MAP_NODES - 2)
        y = y - self._s_nodes[j]
        c = self._guess[j]
        t = np.clip(((c[:, 3] * y + c[:, 2]) * y + c[:, 1]) * y + c[:, 0], lo, hi)
        scale = max(1.0, abs(lo), abs(hi))
        # Newton on every entry until its own step is negligible
        active = np.arange(ss.size)
        for _ in range(12):
            ta = t[active]
            step = (self._arclength(ta) - ss[active]) / self._speed(ta)
            t[active] = np.clip(ta - step, lo, hi)
            active = active[~(np.abs(step) < 1e-14 * scale)]
            if not active.size:
                break
        return float(t[0]) if scalar else t

    def dt(self, t):
        return 1.0 / self._speed(t)

    def d2t(self, t):
        # d2t/ds2 = -v'(t)/v(t)^3 with v' = <f', f''>/v
        d1 = _shared_derivative(self.curve, t, 1)
        d2 = _shared_derivative(self.curve, t, 2)
        v2 = np.linalg.norm(d1, axis=-1) ** 2
        return -np.sum(d1 * d2, axis=-1) / (v2 * v2)


def _hermite_coefficients(x: np.ndarray, y: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Power coefficients in (x - x_j) of the cubic Hermite through
    (x_j, y_j) and (x_{j+1}, y_{j+1}) with the given end slopes, one row
    per interval: (n - 1, 4)."""
    h = np.diff(x)
    delta = np.diff(y) / h
    m0, m1 = slope[:-1], slope[1:]
    return np.stack([y[:-1], m0, (3.0 * delta - 2.0 * m0 - m1) / h,
                     (m0 + m1 - 2.0 * delta) / (h * h)], axis=1)


class ComposedField(VectorField):
    """A field composed with a parameter map, with chain-rule derivatives.

    Supports derivative orders 0..2. It reads t(s), dt/ds and d2t/ds2
    from the `ParameterArray` it is evaluated on, which inverts each map
    once, and evaluates its base on the inverted `ParameterArray`; the
    base's first and second derivatives there are kept on that array
    (`_shared_derivative`), so orders 1 and 2 and the map's dt/ds, d2t/ds2
    of a curve composed with its own map evaluate each one once.
    """

    def __init__(self, base: VectorField, pmap: ParameterMap):
        self.base = base
        self.parameter_map = pmap
        self.dim = base.dim
        self.domain = pmap.s_interval

    @shared_eval
    def eval(self, params, order=0):
        if order > 2:
            raise ValidationError("composed fields support derivative orders 0..2 only")
        inv = params.inverse(self.parameter_map)
        if order == 0:
            return self.base.eval(inv.t, 0)
        d1 = _shared_derivative(self.base, inv.t, 1)
        if order == 1:
            return d1 * inv.dt
        return _shared_derivative(self.base, inv.t, 2) * inv.dt ** 2 + d1 * inv.d2t


def arclength_reparametrize(curve: VectorField, interval: tuple[float, float]
                            ) -> ComposedField:
    """Reparametrize a regular curve by arclength.

    Returns the same image as a unit-speed field over [0, L]; the
    parameter map is exposed as `.parameter_map` so companion fields
    (e.g. a frame defined in the original parameter) can be composed
    with the identical map.
    """
    pmap = ParameterMap(curve, interval)
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

    @shared_eval
    def eval(self, params, order=0):
        out = self.base.eval(params, order)
        for w, f in zip(self.weights, self.extras):
            if w != 0.0:
                out = out + w * f.eval(params, order)
        return out


def as_parameter_array(t):
    """A 1-D parameter argument as one `ParameterArray`, so that the
    fields evaluated on it share its inversions; a scalar or a
    `ParameterArray` passes unchanged."""
    if isinstance(t, ParameterArray) or np.ndim(t) == 0:
        return t
    return ParameterArray(t)


def stack_fields(fields: Sequence[VectorField], t, order: int = 0) -> np.ndarray:
    """order-th derivatives of the fields at t, stacked as (k, dim) for a
    scalar t and (N, k, dim) for an array or `ParameterArray`; one `eval`
    per field, all on one `ParameterArray`."""
    t = as_parameter_array(t)
    vals = [f.eval(t, order) for f in fields]
    return np.stack(vals, axis=-2)


class CubicHermite:
    """The piecewise cubic Hermite interpolant of values y (n, ...) with
    slopes dydx (n, ...) at increasing nodes x (n,): called at t (a
    scalar or an array) with nu = 0, 1 or 2, it gives the value or the
    nu-th derivative, (...) per t, extrapolating with the end cubics.

    The power coefficients in t - x_i and their evaluation are those of
    the usual piecewise-polynomial form of a cubic Hermite spline (the
    `CubicHermiteSpline` of the tests' reference library), operation for
    operation, so the two agree to rounding. At every node but the last,
    the interval is the one the node starts, so value and slope are y_i
    and dydx_i exactly; the last node is the right end of the last cubic.
    """

    def __init__(self, x, y, dydx):
        self.x = np.asarray(x, dtype=float)
        y, dydx = np.asarray(y, dtype=float), np.asarray(dydx, dtype=float)
        h = np.diff(self.x).reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / h
        t = (dydx[:-1] + dydx[1:] - 2.0 * slope) / h
        # coefficients of s^0 .. s^3, s = t - x_i
        self._coeffs = (y[:-1], dydx[:-1], (slope - dydx[:-1]) / h - t, t / h)

    def __call__(self, t, nu: int = 0) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        flat = ts.reshape(-1)
        i = np.clip(np.searchsorted(self.x, flat, side="right") - 1, 0, self.x.size - 2)
        c0, c1, c2, c3 = (c[i] for c in self._coeffs)
        s = (flat - self.x[i]).reshape((-1,) + (1,) * (c0.ndim - 1))
        # the terms in PPoly's order, each of them (c * s^k) * k!/(k-nu)!
        if nu == 0:
            out = 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)
        elif nu == 1:
            out = 0.0 + c1 + c2 * s * 2.0 + c3 * (s * s) * 3.0
        elif nu == 2:
            out = 0.0 + c2 * 2.0 + c3 * s * 6.0
        else:
            raise ValidationError("cubic Hermite derivatives of orders 0..2 only")
        return out.reshape(ts.shape + out.shape[1:])


def _lower_sum(m: np.ndarray) -> np.ndarray:
    """U(M)^T of a stack of square matrices, U(M) = triu(M) + tril(M, -1)^T:
    the lower triangle of M + M^T with the diagonal of M taken once."""
    return np.tril(m.swapaxes(-1, -2)) + np.tril(m, -1)


class GramSchmidtFrame:
    """The Gram-Schmidt orthonormalization of K base fields, exact at
    every t, with derivatives up to order 2; its fields are
    `GramSchmidtField`s.

    In rows, the bases V = R^T E with E orthonormal and R upper
    triangular with positive diagonal (the QR of A = V^T), and C = R^-T.
    The row-by-row Gram-Schmidt of the stack
    (`multilinear.gram_schmidt_rows`) gives E, C and the lengths diag R.
    With A = QR, A' = Q'R + QR' and Q^T Q' skew, R' R^-1 = U(M) for
    M = Q^T A' R^-1, U(M) = triu(M) + tril(M, -1)^T, so that
    E' = C V' - U(M)^T E; once more, with N = E Z^T for
    Z^T = C V'' - 2 U(M)^T E', E'' = Z^T - U(N + E' E'^T)^T E.

    Each order is computed once per `ParameterArray` and kept on it, for
    all K fields; order o reads order o - 1 from there.
    """

    def __init__(self, bases: Sequence[VectorField]):
        self.bases = list(bases)

    def rows(self, params: ParameterArray, order: int, bases: np.ndarray | None = None) -> tuple:
        """(E, C, lengths, V) at order 0, (E', U(M)^T) at order 1 and
        (E'',) at order 2, on the parameters of `params`; from `bases`, the
        base fields' order-th derivatives stacked there, when the caller
        holds them."""
        return params.cached((self, order), lambda: self._rows(params, order, bases))

    def _rows(self, params: ParameterArray, order: int, v: np.ndarray | None) -> tuple:
        if v is None:
            v = stack_fields(self.bases, params, order)
        if order == 0:
            return gram_schmidt_rows(v) + (v,)
        e, c, _, _ = self.rows(params, 0)
        if order == 1:
            g = c @ v
            w = _lower_sum(e @ g.swapaxes(1, 2))
            return g - w @ e, w
        e1, w = self.rows(params, 1)
        z = c @ v - 2.0 * (w @ e1)
        return (z - _lower_sum(e @ z.swapaxes(1, 2) + e1 @ e1.swapaxes(1, 2)) @ e,)


class GramSchmidtField(VectorField):
    """Field `index` of a `GramSchmidtFrame`: row `index` of its
    orthonormalization, or of that row's derivative."""

    def __init__(self, frame: GramSchmidtFrame, index: int,
                 domain: tuple[float, float] | None = None):
        self.frame = frame
        self.index = index
        self.dim = frame.bases[0].dim
        self.domain = domain

    @shared_eval
    def eval(self, params, order=0):
        if order > 2:
            raise ValidationError("Gram-Schmidt fields support derivative orders 0..2 only")
        return self.frame.rows(params, order)[0][:, self.index]
