"""Scene ingestion: JSON description -> validated ruled patch.

A scene names either a builtin patch family or an explicit
directrix/frame in one of the serializable field kinds. Ingestion
validates against the shipped JSON schema, fills defaults, enforces unit
speed (reparametrizing when needed) and frame orthonormality
(orthonormalizing when needed), and emits a canonical normalized scene
that re-ingests to the byte-identical document.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from .errors import ValidationError
from .fields import (ConstantField, FourierField, PolynomialField,
                     VectorField, make_builtin_curve)
from .multilinear import TolerancePolicy
from .parametric import (BUILTIN_PATCHES, FramedCurve, SampleGrid,
                         arclength_framed_curve, gram_schmidt_frame,
                         make_builtin_patch)
from .ruledgeom import RuledPatch

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


def check_seed(seed):
    """Raise a validation error unless seed is a non-negative integer."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def _load_schema(name: str) -> dict:
    with resources.files("ruledkit.schemas").joinpath(name).open("rb") as fh:
        return json.load(fh)


_SCENE_SCHEMA = _load_schema("scene.schema.json")
#: built once: `jsonschema.validate` would re-check the schema itself on every call
_SCENE_VALIDATOR = jsonschema.validators.validator_for(_SCENE_SCHEMA)(_SCENE_SCHEMA)


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


def load_scene(path) -> dict:
    """Read and schema-validate a scene file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scene file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"scene parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    validate_scene(doc)
    return doc


def validate_scene(doc: dict):
    exc = jsonschema.exceptions.best_match(_SCENE_VALIDATOR.iter_errors(doc))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValidationError(f"scene validation error at {where}: {exc.message}") from exc
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


def ingest(source, overrides: dict | None = None) -> IngestResult:
    """Build a validated patch from a scene file path or an in-memory dict.

    `overrides` may replace grid/tolerance entries (CLI flags). The
    returned normalized document reflects the effective configuration,
    so re-ingesting it reproduces the patch and the document itself.
    """
    if isinstance(source, dict):
        doc = source
        validate_scene(doc)
    else:
        doc = load_scene(source)
    overrides = overrides or {}

    grid_cfg = dict(DEFAULT_GRID)
    grid_cfg.update(doc.get("grid", {}))
    grid_cfg.update({k: v for k, v in overrides.items()
                     if k in DEFAULT_GRID and v is not None})

    tol_defaults = TolerancePolicy()
    tol_cfg = {"rank_rel_tol": tol_defaults.rank_rel_tol,
               "zero_abs_tol": tol_defaults.zero_abs_tol,
               "derivative_check_tol": tol_defaults.derivative_check_tol}
    tol_cfg.update(doc.get("tolerances", {}))
    tol_cfg.update({k: v for k, v in overrides.items()
                    if k in tol_cfg and v is not None})
    tol = TolerancePolicy(**tol_cfg)

    fc = _build_framed_curve(doc)
    check_grid_budget(grid_cfg["t_samples"], grid_cfg["u_samples_per_axis"], fc.m)
    notes: list[str] = []

    def make_grid(interval):
        return SampleGrid.uniform(interval, grid_cfg["t_samples"],
                                  grid_cfg["u_extent"], grid_cfg["u_samples_per_axis"])

    grid = make_grid(fc.interval)

    speed_dev = float(np.abs(np.linalg.norm(fc.directrix.eval(grid.parameters, 1), axis=1)
                             - 1.0).max())
    reparametrized = speed_dev > tol.derivative_check_tol
    if reparametrized:
        fc = arclength_framed_curve(fc)
        grid = make_grid(fc.interval)
        notes.append(f"directrix reparametrized to unit speed "
                     f"(speed deviation was {speed_dev:.3e}; new length {fc.interval[1]!r})")

    x = fc.frame_values(grid.parameters)
    gram_dev = float(np.abs(x @ x.swapaxes(1, 2) - np.eye(fc.m - 1)).max())
    orthonormalized = gram_dev > tol.derivative_check_tol
    if orthonormalized:
        frame = gram_schmidt_frame(fc.frame, grid, tol)
        fc = fc.with_frame(frame)
        notes.append(f"frame orthonormalized (max Gram deviation was {gram_dev:.3e})")

    fc.validate_on(grid, tol)
    normalized = _normalized_doc(doc, grid_cfg, tol_cfg, reparametrized, orthonormalized)
    return IngestResult(patch=RuledPatch(fc, grid, tol), normalized=normalized,
                        notes=notes)
