"""Framed curves: a unit-speed directrix with an orthonormal ruling frame.

Provides the curve/frame container and grid types, the stacked
evaluation of a framed curve over a grid with its one frame QR and the
derivatives' coordinates in it, frame orthonormalization, and the
registry of builtin patch families used by the scene loader, the
self-test corpus, and the docs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DegeneracyError, FrameError, ValidationError
from .fields import (BUILTIN_CURVES, ComposedField, ConstantField,
                     DerivativeField, EmbeddedField, FourierField,
                     GramSchmidtField, GramSchmidtFrame, HelixCurve, ParameterArray,
                     PolynomialField, VectorField, arclength_reparametrize,
                     number_fault, stack_fields)
from .multilinear import DEFAULT_TOLERANCES, TolerancePolicy, frame_qr

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class FramedCurve:
    """Directrix plus orthonormal ruling frame over a parameter interval.

    dim is the ambient dimension m+n; the patch dimension m equals
    len(frame) + 1. Unit speed and frame orthonormality are metric
    facts checked against a grid by `validate_on`, not at construction.
    """

    dim: int
    m: int
    directrix: VectorField
    frame: tuple[VectorField, ...]
    interval: tuple[float, float]

    def __post_init__(self):
        if not (2 <= self.m <= self.dim):
            raise ValidationError(f"need 2 <= m <= dim, got m={self.m}, dim={self.dim}")
        if len(self.frame) != self.m - 1:
            raise ValidationError(
                f"frame must have m-1={self.m - 1} fields, got {len(self.frame)}")
        if self.directrix.dim != self.dim:
            raise ValidationError("directrix dimension does not match ambient dimension")
        for f in self.frame:
            if f.dim != self.dim:
                raise ValidationError("frame field dimension does not match ambient dimension")
        lo, hi = self.interval
        if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
            raise ValidationError(f"bad interval [{lo}, {hi}]")

    @property
    def codim(self) -> int:
        return self.dim - self.m

    def frame_values(self, t, order: int = 0) -> np.ndarray:
        """Frame fields' order-th derivatives at t: (m-1, dim) for a scalar
        t, (N, m-1, dim) for an array."""
        return stack_fields(self.frame, t, order)

    def directrix_values(self, t, order: int = 0) -> np.ndarray:
        """Directrix derivative at t: (dim,) for a scalar t, (N, dim) for an array."""
        return self.directrix.eval(t, order)

    def grid_values(self, ts) -> "GridValues":
        """Stacked frame and directrix derivatives at the parameters `ts`,
        a 1-D array or a `ParameterArray` whose inversions they share."""
        return GridValues(self, ts if isinstance(ts, ParameterArray) else ParameterArray(ts))

    def with_frame(self, frame: Sequence[VectorField]) -> "FramedCurve":
        return FramedCurve(self.dim, self.m, self.directrix, tuple(frame), self.interval)

    def validate_on(self, grid: "SampleGrid", tol: TolerancePolicy = DEFAULT_TOLERANCES,
                    values: "GridValues | None" = None):
        """Check unit speed and frame orthonormality at every grid sample;
        raises at the first failing sample, the speed checked first. Reads
        `values`, this curve's values on the grid's parameters, when the
        caller holds them."""
        ts = grid.t_samples
        if values is None:
            values = self.grid_values(grid.parameters)
        speed_dev = np.abs(np.linalg.norm(values.directrix(1), axis=1) - 1.0)
        x = values.frame(0)
        finite = np.isfinite(x).all(axis=(1, 2))
        gram_dev = np.abs(x @ x.swapaxes(1, 2) - np.eye(self.m - 1)).max(axis=(1, 2))
        # NaN deviations fail too
        bad_speed = ~(speed_dev <= tol.derivative_check_tol)
        failing = np.flatnonzero(bad_speed | ~finite | ~(gram_dev <= tol.derivative_check_tol))
        if not failing.size:
            return
        i = int(failing[0])
        t = float(ts[i])
        if bad_speed[i]:
            raise ValidationError(
                f"directrix is not unit-speed at t={t}: |speed-1|={speed_dev[i]:.3e}")
        if not finite[i]:
            raise ValidationError(f"frame values are not finite at t={t}")
        raise FrameError(
            f"frame is not orthonormal at t={t}: max Gram deviation {gram_dev[i]:.3e}")


class GridValues:
    """Derivatives of a framed curve at every parameter of a grid, stacked.

    `frame(order)` is the (N, m-1, dim) array of frame derivatives and
    `directrix(order)` the (N, dim) array of directrix derivatives; each
    order is evaluated on first use, one array evaluation per field, and
    kept; so are `frame_basis()`, the frame's one complete QR per parameter
    (`multilinear.frame_qr`), and `coordinates(order)`, the derivatives in
    it, which every grid stage reads. The arrays are shared, also with the
    values that `restrict`, `with_directrix` and `with_frame` derive from
    them: callers must not mutate them.

    Every field and order is evaluated on one `ParameterArray`, so a
    framed curve composed with a parameter map inverts arclength once
    per parameter array and map, not once per field and order. Built
    from a grid's `SampleGrid.parameters`, the values share that
    inversion with every other evaluation on the grid.
    """

    def __init__(self, fc: FramedCurve, params: ParameterArray):
        self.fc = fc
        self.parameters = params
        self.ts = params.values
        self._frame: dict[int, np.ndarray] = {}
        self._directrix: dict[int, np.ndarray] = {}
        self._basis: tuple | None = None
        self._coordinates: dict[int, tuple] = {}

    def frame(self, order: int) -> np.ndarray:
        if order not in self._frame:
            self._frame[order] = self.fc.frame_values(self.parameters, order)
        return self._frame[order]

    def directrix(self, order: int) -> np.ndarray:
        if order not in self._directrix:
            self._directrix[order] = self.fc.directrix_values(self.parameters, order)
        return self._directrix[order]

    def frame_basis(self) -> tuple:
        if self._basis is None:
            self._basis = frame_qr(self.frame(0))
        return self._basis

    def coordinates(self, order: int) -> tuple:
        """(g q, X q, g comp, X comp): the directrix derivative g of `order`,
        (N, 1, .), and the frame derivatives X, (N, m-1, .), in the bases q
        and comp of the frame QR (`frame_basis`)."""
        if order not in self._coordinates:
            _, q, comp, _ = self.frame_basis()
            g, x = self.directrix(order)[:, None], self.frame(order)
            self._coordinates[order] = (g @ q, x @ q, g @ comp, x @ comp)
        return self._coordinates[order]

    def with_directrix(self, fc: FramedCurve) -> "GridValues":
        """The values of `fc`, this curve with its directrix shifted along
        its frame (`RuledPatch.shift_directrix`): the frame arrays and basis
        are shared, and each directrix order held here is summed from them
        term by term, as the shifted field's `eval` sums it."""
        out = GridValues(fc, self.parameters)
        out._frame, out._basis = self._frame, self.frame_basis()
        for order, g in self._directrix.items():
            for w, x in zip(fc.directrix.weights, self.frame(order).swapaxes(0, 1)):
                if w != 0.0:
                    g = g + w * x
            out._directrix[order] = g
        return out

    def with_frame(self, fc: FramedCurve, order: list[int] | None = None) -> "GridValues":
        """The values of `fc`, this curve with its frame fields in `order`, or
        with a frame of its own when `order` is None: the directrix arrays
        shared, the frame arrays permuted (evaluated afresh for a frame of
        its own), the basis factorized afresh."""
        out = GridValues(fc, self.parameters)
        if order is not None:
            out._frame = {k: x[:, order] for k, x in self._frame.items()}
        out._directrix = self._directrix
        return out

    def restrict(self, lo: int, hi: int) -> "GridValues":
        """The values at parameters lo..hi-1, sliced from these."""
        out = GridValues(self.fc, ParameterArray(self.ts[lo:hi]))
        out._frame = {order: x[lo:hi] for order, x in self._frame.items()}
        out._directrix = {order: g[lo:hi] for order, g in self._directrix.items()}
        out._basis = tuple(a[lo:hi] for a in self.frame_basis())
        out._coordinates = {k: tuple(a[lo:hi] for a in c) for k, c in self._coordinates.items()}
        return out


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Sampling lattice: parameter samples plus a truncated ruling box."""

    t_samples: np.ndarray
    u_extent: float = 2.0
    u_samples_per_axis: int = 5

    def __post_init__(self):
        ts = np.asarray(self.t_samples, dtype=float)
        object.__setattr__(self, "t_samples", ts)
        if ts.ndim != 1 or ts.size < 3:
            raise ValidationError("grid needs at least 3 parameter samples")
        if not np.all(np.diff(ts) > 0):
            raise ValidationError("t_samples must be strictly increasing")
        if not (self.u_extent > 0 and np.isfinite(self.u_extent)):
            raise ValidationError(f"u_extent must be finite and strictly positive, "
                                  f"got {self.u_extent}")
        if self.u_samples_per_axis < 1:
            raise ValidationError("u_samples_per_axis must be >= 1")

    @classmethod
    def uniform(cls, interval: tuple[float, float], t_samples: int = 200,
                u_extent: float = 2.0, u_samples_per_axis: int = 5) -> "SampleGrid":
        if not (isinstance(t_samples, numbers.Integral) and t_samples >= 3):
            raise ValidationError("grid needs at least 3 parameter samples")
        ts = np.linspace(interval[0], interval[1], t_samples)
        return cls(ts, u_extent, u_samples_per_axis)

    @cached_property
    def parameters(self) -> ParameterArray:
        """`t_samples` as the `ParameterArray` that every evaluation on
        this grid shares: each parameter map is inverted on it once."""
        return ParameterArray(self.t_samples)

    @property
    def u_axis(self) -> np.ndarray:
        if self.u_samples_per_axis == 1:
            return np.zeros(1)
        return np.linspace(-self.u_extent, self.u_extent, self.u_samples_per_axis)

    def u_points(self, axes: int) -> np.ndarray:
        """Cartesian product of the u axis over `axes` coordinates, (P, axes)."""
        if axes == 0:
            return np.zeros((1, 0))
        return np.array(list(product(self.u_axis, repeat=axes)))

    def restrict(self, lo_idx: int, hi_idx: int) -> "SampleGrid":
        """Sub-grid over t_samples[lo_idx:hi_idx] (end exclusive)."""
        return SampleGrid(self.t_samples[lo_idx:hi_idx], self.u_extent,
                          self.u_samples_per_axis)


def gram_schmidt_frame(fields: Sequence[VectorField], grid: SampleGrid,
                       tol: TolerancePolicy = DEFAULT_TOLERANCES,
                       values: np.ndarray | None = None) -> list[GramSchmidtField]:
    """Orthonormalize fields pointwise, returning smooth fields.

    The output is the (order-preserving) Gram-Schmidt orthonormalization
    of the fields at every t, with exact derivatives
    (`fields.GramSchmidtFrame`), so field k of the output lies in the
    span of inputs 1..k and the frame is orthonormal everywhere, not
    only on the grid. The fields must be independent at every grid
    sample; the output fields are defined over the grid's range, where
    that was checked. The orthonormalization on the grid's parameters is
    kept on them for every later evaluation there; `values`, the fields
    stacked on those parameters (N, k, dim), when the caller holds them.
    """
    k = len(fields)
    if k == 0:
        return []
    ts = grid.t_samples
    frame = GramSchmidtFrame(fields)
    _, _, lengths, v = frame.rows(grid.parameters, 0, values)
    scale = np.maximum(1.0, np.linalg.norm(v, axis=(1, 2)))
    dependent = np.flatnonzero(lengths.min(axis=1) < tol.zero_abs_tol * scale)
    if dependent.size:
        raise DegeneracyError(f"frame fields are dependent at t={ts[dependent[0]]}")
    return [GramSchmidtField(frame, j, domain=(float(ts[0]), float(ts[-1]))) for j in range(k)]


def arclength_framed_curve(fc: FramedCurve) -> FramedCurve:
    """The framed curve reparametrized by the arclength of its directrix.

    The directrix and every frame field are composed with one parameter
    map, so the new curve runs over (0, L); the map is the directrix's
    `parameter_map`.
    """
    directrix = arclength_reparametrize(fc.directrix, fc.interval)
    pmap = directrix.parameter_map
    return FramedCurve(fc.dim, fc.m, directrix,
                       tuple(ComposedField(f, pmap) for f in fc.frame), (0.0, pmap.length))


# ---------------------------------------------------------------------------
# Builtin patch families
# ---------------------------------------------------------------------------

def _unit_axis(dim: int, index: int) -> ConstantField:
    v = np.zeros(dim)
    v[index] = 1.0
    return ConstantField(v)


def cylinder_over(curve: VectorField, directions: int = 1,
                  interval: tuple[float, float] = (0.0, TWO_PI)) -> FramedCurve:
    """Cylinder: the curve swept along `directions` fresh constant axes."""
    if directions < 1:
        raise ConfigError("a cylinder needs at least one ruling direction")
    dim = curve.dim + directions
    directrix = EmbeddedField(curve, dim)
    frame = tuple(_unit_axis(dim, curve.dim + i) for i in range(directions))
    return FramedCurve(dim, directions + 1, directrix, frame, interval)


def helicoid_frame(interval: tuple[float, float] = (0.0, TWO_PI)) -> FramedCurve:
    """Right helicoid: vertical axis directrix, horizontally rotating ruling."""
    directrix = PolynomialField([[0.0], [0.0], [0.0, 1.0]])
    x = FourierField([(0.0, [1.0], [0.0], 1.0),
                      (0.0, [0.0], [1.0], 1.0),
                      (0.0, [], [], 1.0)])
    return FramedCurve(3, 2, directrix, (x,), interval)


def circular_cone(r: float = 1.0, h: float = 1.0,
                  interval: tuple[float, float] | None = None) -> FramedCurve:
    """Cone over a horizontal circle with apex at the origin.

    The directrix is the unit-speed circle of radius r at height h; the
    ruling points from the origin through the directrix, so the apex
    sits at ruling coordinate -sqrt(r^2 + h^2).
    """
    if r <= 0 or h <= 0:
        raise ConfigError("cone radius and height must be positive")
    s = math.hypot(r, h)
    w = 1.0 / r
    directrix = FourierField([(0.0, [r], [0.0], w),
                              (0.0, [0.0], [r], w),
                              (h, [], [], w)])
    x = FourierField([(0.0, [r / s], [0.0], w),
                      (0.0, [0.0], [r / s], w),
                      (h / s, [], [], w)])
    if interval is None:
        interval = (0.0, TWO_PI * r)
    return FramedCurve(3, 2, directrix, (x,), interval)


def tangent_developable(curve: VectorField,
                        interval: tuple[float, float] = (0.0, TWO_PI)) -> FramedCurve:
    """Tangent developable of a unit-speed curve: the ruling is the tangent."""
    return FramedCurve(curve.dim, 2, curve, (DerivativeField(curve, 1),), interval)


def product_with_constant_directions(fc: FramedCurve, directions: int = 1) -> FramedCurve:
    """Extend a patch with fresh constant ruling directions (ambient x R^k)."""
    if directions < 1:
        raise ConfigError("need at least one extra direction")
    dim = fc.dim + directions
    directrix = EmbeddedField(fc.directrix, dim)
    frame = [EmbeddedField(f, dim) for f in fc.frame]
    frame += [_unit_axis(dim, fc.dim + i) for i in range(directions)]
    return FramedCurve(dim, fc.m + directions, directrix, tuple(frame), fc.interval)


def rotating_cylinder(interval: tuple[float, float] = (0.0, TWO_PI)) -> FramedCurve:
    """Plane-ruled patch whose frame rotates inside a constant span.

    The ruling plane is {x=const}; the frame spins within it, so the
    patch is a cylinder (degree 0) despite the moving frame.
    """
    directrix = PolynomialField([[0.0, 1.0], [0.0], [0.0]])
    x1 = FourierField([(0.0, [], [], 1.0),
                       (0.0, [1.0], [0.0], 1.0),
                       (0.0, [0.0], [1.0], 1.0)])
    x2 = FourierField([(0.0, [], [], 1.0),
                       (0.0, [0.0], [-1.0], 1.0),
                       (0.0, [1.0], [0.0], 1.0)])
    return FramedCurve(3, 3, directrix, (x1, x2), interval)


def two_rotation_family(interval: tuple[float, float] = (0.0, TWO_PI)) -> FramedCurve:
    """Degree-2 family in R^5: two rulings rotating in orthogonal planes."""
    directrix = PolynomialField([[0.0, 1.0], [0.0], [0.0], [0.0], [0.0]])
    x1 = FourierField([(0.0, [], [], 1.0),
                       (0.0, [1.0], [0.0], 1.0),
                       (0.0, [0.0], [1.0], 1.0),
                       (0.0, [], [], 1.0),
                       (0.0, [], [], 1.0)])
    x2 = FourierField([(0.0, [], [], 1.0),
                       (0.0, [], [], 1.0),
                       (0.0, [], [], 1.0),
                       (0.0, [1.0], [0.0], 1.0),
                       (0.0, [0.0], [1.0], 1.0)])
    return FramedCurve(5, 3, directrix, (x1, x2), interval)


@dataclass(frozen=True)
class PatchFamily:
    name: str
    description: str
    factory: Callable[..., FramedCurve]


_PATCH_FAMILIES = [
    PatchFamily("cylinder_helix",
                "cylinder over a helix in R^4 (one constant ruling direction)",
                lambda a=1.0 / math.sqrt(2.0), b=1.0 / math.sqrt(2.0):
                cylinder_over(HelixCurve(a, b))),
    PatchFamily("rotating_cylinder",
                "degree-0 patch in R^3 whose frame rotates inside a constant plane",
                rotating_cylinder),
    PatchFamily("helicoid_frame",
                "right helicoid in R^3 (axis directrix, rotating ruling)",
                helicoid_frame),
    PatchFamily("circular_cone",
                "cone with apex at the origin; params r, h",
                circular_cone),
    PatchFamily("tangent_developable_helix",
                "tangent developable of the unit-speed helix; params a, b",
                lambda a=1.0 / math.sqrt(2.0), b=1.0 / math.sqrt(2.0), interval=(0.0, TWO_PI):
                tangent_developable(HelixCurve(a, b), interval)),
    PatchFamily("tangent_developable_product",
                "helix tangent developable times a constant direction (R^4, m=3)",
                lambda a=1.0 / math.sqrt(2.0), b=1.0 / math.sqrt(2.0):
                product_with_constant_directions(
                    tangent_developable(HelixCurve(a, b)), 1)),
    PatchFamily("two_rotation_r5",
                "degree-2 ruled patch in R^5 with two rotating rulings",
                two_rotation_family),
]

BUILTIN_PATCHES: dict[str, PatchFamily] = {p.name: p for p in _PATCH_FAMILIES}


def make_builtin_patch(name: str, params: dict | None = None) -> FramedCurve:
    if name not in BUILTIN_PATCHES:
        raise ConfigError(f"unknown builtin patch family {name!r}; "
                          f"known: {sorted(BUILTIN_PATCHES)}")
    fault = number_fault(params)
    if fault:
        raise ConfigError(f"bad parameters for builtin patch {name!r}: {fault}")
    try:
        return BUILTIN_PATCHES[name].factory(**(params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for builtin patch {name!r}: {exc}") from exc


def builtin_families() -> dict[str, str]:
    """Registry of builtin curve and patch families with short summaries."""
    out = {f"curve:{name}": desc for name, (_, desc) in BUILTIN_CURVES.items()}
    out.update({f"patch:{p.name}": p.description for p in _PATCH_FAMILIES})
    return out
