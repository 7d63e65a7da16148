"""File outputs: canonical JSON and OBJ meshes for 3-D surface patches."""

from __future__ import annotations

import json

from .ruledgeom import RuledPatch
from .striction import StrictionSheet


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON encoding (sorted keys, repr floats)."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def write_json(path, obj):
    with open(path, "wb") as fh:
        fh.write(canonical_json_bytes(obj))


def write_mesh_obj(path, patch: RuledPatch, sheet: StrictionSheet | None = None):
    """Quad mesh of a surface patch in R^3, with the striction curve as a
    polyline object when a sheet is supplied. Requires dim=3 and m=2."""
    if patch.dim != 3 or patch.m != 2:
        raise ValueError("OBJ export is defined for ambient dimension 3 with m=2")
    ts = patch.grid.t_samples
    us = patch.grid.u_axis
    # sigma(t, u) = directrix(t) + u X(t) at every grid point, t-major
    v = patch.values
    points = v.directrix(0)[:, None, :] + us[:, None] * v.frame(0)
    lines = ["o patch"]
    for x, y, z in points.reshape(-1, 3).tolist():
        lines.append(f"v {x!r} {y!r} {z!r}")
    nu = us.size
    for i in range(ts.size - 1):
        for j in range(nu - 1):
            a = i * nu + j + 1
            b = a + nu
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    if sheet is not None:
        base = ts.size * nu
        lines.append("o striction")
        for x, y, z in sheet.grid_points(()).tolist():
            lines.append(f"v {x!r} {y!r} {z!r}")
        idx = " ".join(str(base + i + 1) for i in range(ts.size))
        lines.append(f"l {idx}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
