"""Scene ingestion: JSON description -> validated ruled patch.

A scene names either a builtin patch family or an explicit
directrix/frame in one of the serializable field kinds. Ingestion
validates against the shipped JSON schema `schemas/scene.schema.json`
with the in-house checker of `schemacheck` (no jsonschema at run time),
reads each integral float the schema admits as an integer as its int,
fills defaults, enforces unit speed (reparametrizing when needed) and
frame orthonormality (orthonormalizing when needed), and emits a
canonical normalized scene that re-ingests to the byte-identical
document. The speed and orthonormality checks read the grid values that
the ingested patch is primed with, so the analysis evaluates them no
second time. Two checks bound the arithmetic before any stage runs: the
sines and cosines of the curve must resolve their derivatives' phase over
its interval (`check_phase_resolution`), and the swept derivatives over
the grid's ruling box must leave their squared norms finite
(`check_sweep_scale`, on the primed values' first and second
derivatives, which every stage reads).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .errors import ValidationError
from .fields import (CircleCurve, ConstantField, FourierField, HelixCurve,
                     PolynomialField, VectorField, make_builtin_curve)
from .multilinear import TolerancePolicy
from .parametric import (BUILTIN_PATCHES, FramedCurve, SampleGrid,
                         arclength_framed_curve, gram_schmidt_frame,
                         make_builtin_patch)
from .ruledgeom import RuledPatch
from .schemacheck import SchemaChecker

SCENE_SCHEMA_ID = "ruledkit.scene/v1"

DEFAULT_GRID = {"t_samples": 200, "u_extent": 2.0, "u_samples_per_axis": 5}

#: most grid points (t samples times ruling samples) a scene may ask for;
#: the analysis allocates stacked arrays over the whole grid
MAX_GRID_POINTS = 200_000


def check_grid_budget(t_samples: int, u_samples_per_axis: int, m: int):
    """Refuse, before it is built, a grid of more than MAX_GRID_POINTS points."""
    points = t_samples * u_samples_per_axis ** (m - 1)
    if points > MAX_GRID_POINTS:
        raise ValidationError(
            f"grid of {t_samples} t samples x {u_samples_per_axis}^{m - 1} ruling "
            f"samples has {points} points, more than the {MAX_GRID_POINTS} the "
            "analysis allows")


def _angular_frequency(field: VectorField) -> float:
    """The largest angular frequency of the sines and cosines that `field`
    evaluates, itself or through the fields it is built from; 0 for none."""
    if isinstance(field, FourierField):
        return max((max(len(cos_c), len(sin_c)) * abs(omega)
                    for _, cos_c, sin_c, omega in field.coordinates), default=0.0)
    if isinstance(field, HelixCurve):
        return 1.0 / field.c
    if isinstance(field, CircleCurve):
        return 1.0 / field.r
    parts = [getattr(field, "base", None), *getattr(field, "extras", ())]
    return max((_angular_frequency(f) for f in parts if f is not None), default=0.0)


def check_phase_resolution(fc: FramedCurve, tol: TolerancePolicy):
    """Refuse a curve whose sines and cosines cannot resolve the phase of
    their derivatives over its interval.

    A derivative of order k is the sine of the argument w t + phase plus
    k pi / 2, and that argument is rounded to |w t| 2^-53; beyond
    |w t| = derivative_check_tol 2^53 (9.0e8 at the default 1e-7) the
    rounding exceeds the tolerance the derivatives are checked to, and
    soon after the k pi / 2 is lost and every derivative reads the value.
    """
    limit = tol.derivative_check_tol * 2.0 ** 53
    reach = max(abs(fc.interval[0]), abs(fc.interval[1]))
    top = max(_angular_frequency(f) for f in (fc.directrix, *fc.frame))
    if top > 0.0 and reach > limit / top:
        raise ValidationError(
            f"sine argument |omega t| reaches {top:.6g} x {reach:.6g} on the interval, more "
            f"than derivative_check_tol x 2^53 = {limit:.6g}: its rounding would lose the "
            "derivatives' phase")


#: headroom below the largest float for the sums of squared norms of
#: sigma_t and sigma_tt, and the products of two such norms, that the
#: analysis takes
NORM_HEADROOM = 1024.0


def check_sweep_scale(values, u_extent: float):
    """Refuse a u_extent for which the squared norms of sigma_t = g' + u . Xdot
    or sigma_tt = g'' + u . Xddot can overflow over the grid's ruling box
    |u_j| <= u_extent: |g^(k)| + u_extent sum_j |X_j^(k)|, k = 1, 2, bounded
    from the largest entries, must stay at most
    sqrt(largest float / NORM_HEADROOM), about 4.2e152, at every grid t.
    Reads the values' first and second derivatives, which every stage of
    the analysis reads next."""
    limit = np.sqrt(np.finfo(float).max / NORM_HEADROOM)
    for order in (1, 2):
        g, x = values.directrix(order), values.frame(order)
        root = np.sqrt(g.shape[-1])
        fixed = root * np.abs(g).max(axis=1)
        swept = root * np.abs(x).max(axis=2).sum(axis=1)
        room = np.divide(limit - fixed, swept, out=np.full_like(swept, np.inf), where=swept > 0.0)
        if not (fixed.max() <= limit and u_extent <= room.min()):
            raise ValidationError(
                f"u_extent {u_extent:.6g} sweeps the order-{order} derivatives past "
                f"{limit:.6g}, where their squared norms overflow; at most "
                f"{max(float(room.min()), 0.0):.6g} is allowed")


def _load_schema(name: str) -> dict:
    with resources.files("ruledkit.schemas").joinpath(name).open("rb") as fh:
        return json.load(fh)


_SCENE_SCHEMA = _load_schema("scene.schema.json")
#: the shipped scene schema, compiled once
_SCENE_CHECKER = SchemaChecker(_SCENE_SCHEMA)


def _int_integers(value, schema: dict):
    """A schema-valid value with each entry the schema types `integer` an
    int (draft 2020-12 admits an integral float such as 40.0), down the
    schema's `properties`; other entries are shared, not copied."""
    if schema.get("type") == "integer":
        return int(value)
    properties = schema.get("properties")
    if properties is None or not isinstance(value, dict):
        return value
    return {k: _int_integers(v, properties[k]) if k in properties else v
            for k, v in value.items()}


def parse_field(spec: dict) -> VectorField:
    """Construct a field from its serialized form."""
    kind = spec.get("kind")
    if kind == "polynomial":
        return PolynomialField(spec["coefficients"])
    if kind == "fourier":
        coords = [(c.get("constant", 0.0), c.get("cos", []), c.get("sin", []),
                   c.get("omega", 1.0)) for c in spec["coordinates"]]
        return FourierField(coords)
    if kind == "constant":
        return ConstantField(spec["value"])
    if kind == "builtin":
        return make_builtin_curve(spec["name"], spec.get("params"))
    raise ValidationError(f"unknown field kind {kind!r}")


@dataclass(eq=False)
class IngestResult:
    patch: RuledPatch
    normalized: dict
    notes: list


def _read_scene(path) -> dict:
    """The JSON document of a scene file, not yet validated."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scene file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"scene parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return doc


def validate_scene(doc: dict):
    error = _SCENE_CHECKER.best_error(doc)
    if error is not None:
        where = "/".join(str(p) for p in error.path) or "<root>"
        raise ValidationError(f"scene validation error at {where}: {error.message}")
    if "builtin_patch" in doc and doc["builtin_patch"] not in BUILTIN_PATCHES:
        raise ValidationError(f"unknown builtin patch {doc['builtin_patch']!r}; "
                              f"known: {sorted(BUILTIN_PATCHES)}")


def _build_framed_curve(doc: dict) -> FramedCurve:
    if "builtin_patch" in doc:
        fc = make_builtin_patch(doc["builtin_patch"], doc.get("patch_params"))
        if "interval" in doc:
            fc = FramedCurve(fc.dim, fc.m, fc.directrix, fc.frame,
                             (float(doc["interval"][0]), float(doc["interval"][1])))
        return fc
    dim, m = doc["ambient_dim"], doc["m"]
    directrix = parse_field(doc["directrix"])
    frame = [parse_field(f) for f in doc["frame"]]
    if directrix.dim != dim:
        raise ValidationError(
            f"directrix has dimension {directrix.dim}, scene says {dim}")
    for i, f in enumerate(frame):
        if f.dim != dim:
            raise ValidationError(f"frame field {i} has dimension {f.dim}, scene says {dim}")
    if len(frame) != m - 1:
        raise ValidationError(f"frame must have m-1={m - 1} fields, got {len(frame)}")
    return FramedCurve(dim, m, directrix, tuple(frame),
                       (float(doc["interval"][0]), float(doc["interval"][1])))


def _normalized_doc(doc: dict, grid_cfg: dict, tol_cfg: dict,
                    reparametrized: bool, orthonormalized: bool) -> dict:
    out = {"schema": SCENE_SCHEMA_ID}
    if "builtin_patch" in doc:
        out["builtin_patch"] = doc["builtin_patch"]
        out["patch_params"] = doc.get("patch_params", {})
        if "interval" in doc:
            out["interval"] = list(doc["interval"])
    else:
        out["ambient_dim"] = doc["ambient_dim"]
        out["m"] = doc["m"]
        out["directrix"] = doc["directrix"]
        out["frame"] = doc["frame"]
        out["interval"] = list(doc["interval"])
    out["grid"] = grid_cfg
    out["tolerances"] = tol_cfg
    out["normalization"] = {"reparametrized": reparametrized,
                            "orthonormalized": orthonormalized}
    return out


def _with_overrides(doc, overrides: dict, sections: dict):
    """The scene document with each non-None override merged into the
    section that has its key; a document or section that is not an object
    is left as it is, to fail validation."""
    if not isinstance(doc, dict):
        return doc
    doc = dict(doc)
    for section, keys in sections.items():
        given = {k: v for k, v in overrides.items() if k in keys and v is not None}
        entries = doc.get(section, {})
        if given and isinstance(entries, dict):
            doc[section] = {**entries, **given}
    return doc


def ingest(source, overrides: dict | None = None) -> IngestResult:
    """Build a validated patch from a scene file path or an in-memory dict.

    `overrides` may replace grid/tolerance entries (CLI flags); they are
    merged into the document before it is validated, so they follow the
    schema's rules. The returned normalized document reflects the
    effective configuration, so re-ingesting it reproduces the patch and
    the document itself.
    """
    doc = source if isinstance(source, dict) else _read_scene(source)
    tol_cfg = asdict(TolerancePolicy())
    doc = _with_overrides(doc, overrides or {}, {"grid": DEFAULT_GRID, "tolerances": tol_cfg})
    validate_scene(doc)
    doc = _int_integers(doc, _SCENE_SCHEMA)

    grid_cfg = {**DEFAULT_GRID, **doc.get("grid", {})}
    tol_cfg.update(doc.get("tolerances", {}))
    tol = TolerancePolicy(**tol_cfg)

    fc = _build_framed_curve(doc)
    check_grid_budget(grid_cfg["t_samples"], grid_cfg["u_samples_per_axis"], fc.m)
    check_phase_resolution(fc, tol)
    notes: list[str] = []

    def make_grid(interval):
        return SampleGrid.uniform(interval, grid_cfg["t_samples"],
                                  grid_cfg["u_extent"], grid_cfg["u_samples_per_axis"])

    # the checks read the grid values that the patch is primed with
    grid = make_grid(fc.interval)
    values = fc.grid_values(grid.parameters)

    # a NaN deviation normalizes nothing: `validate_on` refuses it below
    speed_dev = float(np.abs(np.linalg.norm(values.directrix(1), axis=1) - 1.0).max())
    reparametrized = speed_dev > tol.derivative_check_tol
    if reparametrized:
        fc = arclength_framed_curve(fc)
        grid = make_grid(fc.interval)
        values = fc.grid_values(grid.parameters)
        notes.append(f"directrix reparametrized to unit speed "
                     f"(speed deviation was {speed_dev:.3e}; new length {fc.interval[1]!r})")

    x = values.frame(0)
    gram_dev = float(np.abs(x @ x.swapaxes(1, 2) - np.eye(fc.m - 1)).max())
    orthonormalized = gram_dev > tol.derivative_check_tol
    if orthonormalized:
        fc = fc.with_frame(gram_schmidt_frame(fc.frame, grid, tol, x))
        values = values.with_frame(fc)
        notes.append(f"frame orthonormalized (max Gram deviation was {gram_dev:.3e})")

    fc.validate_on(grid, tol, values)
    check_sweep_scale(values, grid_cfg["u_extent"])
    normalized = _normalized_doc(doc, grid_cfg, tol_cfg, reparametrized, orthonormalized)
    patch = RuledPatch(fc, grid, tol)
    vars(patch)["values"] = values
    return IngestResult(patch=patch, normalized=normalized, notes=notes)
