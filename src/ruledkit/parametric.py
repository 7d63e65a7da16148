"""Framed curves: a unit-speed directrix with an orthonormal ruling frame.

Provides the curve/frame container and grid types, the stacked
evaluation of a framed curve over a grid, frame orthonormalization and
parallel transport, and the registry of builtin patch families used by
the scene loader, the self-test corpus, and the docs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (ConfigError, DegeneracyError, FrameError, NumericError,
                     ValidationError)
from .fields import (BUILTIN_CURVES, ConstantField, DerivativeField,
                     EmbeddedField, FourierField, FrameCombinationField,
                     HelixCurve, PolynomialField, SplineCoefficients,
                     TransportCoefficients, VectorField, connection_skew)
from .multilinear import DEFAULT_TOLERANCES, TolerancePolicy, gram_matrix

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
        # memoized evaluations; grid sweeps revisit the same parameters
        # constantly. Cached arrays are shared: callers must not mutate.
        object.__setattr__(self, "_frame_cache", {})
        object.__setattr__(self, "_directrix_cache", {})

    @property
    def codim(self) -> int:
        return self.dim - self.m

    def frame_values(self, t: float, order: int = 0) -> np.ndarray:
        """(m-1, dim) matrix of frame fields' order-th derivatives at t."""
        key = (t, order)
        cached = self._frame_cache.get(key)
        if cached is None:
            cached = np.array([f.eval(t, order) for f in self.frame])
            self._frame_cache[key] = cached
        return cached

    def directrix_values(self, t: float, order: int = 0) -> np.ndarray:
        """Memoized directrix derivative at t."""
        key = (t, order)
        cached = self._directrix_cache.get(key)
        if cached is None:
            cached = self.directrix.eval(t, order)
            self._directrix_cache[key] = cached
        return cached

    def grid_values(self, ts: np.ndarray) -> "GridValues":
        """Stacked frame and directrix derivatives at the parameters `ts`."""
        return GridValues(self, np.asarray(ts, dtype=float))

    def with_frame(self, frame: Sequence[VectorField]) -> "FramedCurve":
        return FramedCurve(self.dim, self.m, self.directrix, tuple(frame), self.interval)

    def validate_on(self, grid: "SampleGrid", tol: TolerancePolicy = DEFAULT_TOLERANCES):
        """Check unit speed and frame orthonormality at every grid sample."""
        eye = np.eye(self.m - 1)
        for t in grid.t_samples:
            speed = np.linalg.norm(self.directrix.eval(t, 1))
            if abs(speed - 1.0) > tol.derivative_check_tol:
                raise ValidationError(
                    f"directrix is not unit-speed at t={t}: |speed-1|={abs(speed - 1.0):.3e}")
            g = gram_matrix(self.frame_values(t))
            dev = np.abs(g - eye).max()
            if dev > tol.derivative_check_tol:
                raise FrameError(
                    f"frame is not orthonormal at t={t}: max Gram deviation {dev:.3e}")


class GridValues:
    """Derivatives of a framed curve at every parameter of a grid, stacked.

    `frame(order)` is the (N, m-1, dim) array of frame derivatives and
    `directrix(order)` the (N, dim) array of directrix derivatives; each
    order is evaluated on first use and kept. The arrays are shared:
    callers must not mutate them.
    """

    def __init__(self, fc: FramedCurve, ts: np.ndarray):
        self.fc = fc
        self.ts = ts
        self._frame: dict[int, np.ndarray] = {}
        self._directrix: dict[int, np.ndarray] = {}

    def frame(self, order: int) -> np.ndarray:
        out = self._frame.get(order)
        if out is None:
            out = np.empty((self.ts.size, self.fc.m - 1, self.fc.dim))
            for i, t in enumerate(self.ts):
                out[i] = self.fc.frame_values(t, order)
            self._frame[order] = out
        return out

    def directrix(self, order: int) -> np.ndarray:
        out = self._directrix.get(order)
        if out is None:
            out = np.empty((self.ts.size, self.fc.dim))
            for i, t in enumerate(self.ts):
                out[i] = self.fc.directrix_values(t, order)
            self._directrix[order] = out
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
        if not (self.u_extent > 0):
            raise ValidationError("u_extent must be positive")
        if self.u_samples_per_axis < 1:
            raise ValidationError("u_samples_per_axis must be >= 1")

    @classmethod
    def uniform(cls, interval: tuple[float, float], t_samples: int = 200,
                u_extent: float = 2.0, u_samples_per_axis: int = 5) -> "SampleGrid":
        ts = np.linspace(interval[0], interval[1], t_samples)
        return cls(ts, u_extent, u_samples_per_axis)

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
                       interval: tuple[float, float] | None = None
                       ) -> list[FrameCombinationField]:
    """Orthonormalize fields pointwise, returning smooth combination fields.

    At each grid sample a QR factorization with positive diagonal gives
    the (order-preserving) orthonormalization; the triangular coefficient
    matrices are spline-interpolated between samples, so field k of the
    output stays in the span of inputs 1..k everywhere.
    """
    k = len(fields)
    if k == 0:
        return []
    ts = grid.t_samples
    coeff_nodes = np.empty((ts.size, k, k))
    for i, t in enumerate(ts):
        v = np.column_stack([f.eval(t, 0) for f in fields])
        q, r = np.linalg.qr(v)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        r = r * signs[:, None]
        scale = max(1.0, float(np.linalg.norm(v)))
        if np.abs(np.diag(r)).min() < tol.zero_abs_tol * scale:
            raise DegeneracyError(f"frame fields are dependent at t={t}")
        coeff_nodes[i] = solve_triangular(r, np.eye(k))
    coeffs = SplineCoefficients(ts, coeff_nodes)
    return [FrameCombinationField(list(fields), coeffs, j, domain=interval)
            for j in range(k)]


def _polar_orthonormalize(a: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(a)
    return u @ vt


def parallel_transport_frame(fc: FramedCurve, grid: SampleGrid,
                             max_step: float = 2e-3) -> list[FrameCombinationField]:
    """Rotate the frame within its own span so the derivative of each
    output field has no component along the span.

    Integrates c' = -W(t) c (W the frame's connection skew matrix) with
    a classical 4th-order stepper on a refinement of the grid, polar
    re-orthonormalizing at each node. Output field derivatives reuse the
    transport equation, so the tangential component vanishes identically
    rather than to integration accuracy.
    """
    k = fc.m - 1
    ts = grid.t_samples
    nodes = [float(ts[0])]
    for a, b in zip(ts[:-1], ts[1:]):
        sub = max(1, int(math.ceil((b - a) / max_step)))
        nodes.extend(np.linspace(a, b, sub + 1)[1:].tolist())
    nodes = np.asarray(nodes)

    def rhs(t, c):
        return -connection_skew(fc.frame, t) @ c

    values = np.empty((nodes.size, k, k))
    c = np.eye(k)
    values[0] = c
    try:
        for i in range(nodes.size - 1):
            t, h = nodes[i], nodes[i + 1] - nodes[i]
            k1 = rhs(t, c)
            k2 = rhs(t + 0.5 * h, c + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, c + 0.5 * h * k2)
            k4 = rhs(t + h, c + h * k3)
            c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            c = _polar_orthonormalize(c)
            values[i + 1] = c
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"parallel transport integration failed: {exc}") from exc
    coeffs = TransportCoefficients(fc.frame, nodes, values)
    return [FrameCombinationField(list(fc.frame), coeffs, j, domain=fc.interval)
            for j in range(k)]


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
    try:
        return BUILTIN_PATCHES[name].factory(**(params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for builtin patch {name!r}: {exc}") from exc


def builtin_families() -> dict[str, str]:
    """Registry of builtin curve and patch families with short summaries."""
    out = {f"curve:{name}": desc for name, (_, desc) in BUILTIN_CURVES.items()}
    out.update({f"patch:{p.name}": p.description for p in _PATCH_FAMILIES})
    return out
