"""File outputs: canonical JSON and OBJ meshes for 3-D surface patches."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .ruledgeom import RuledPatch
from .striction import StrictionSheet

_CONSTANTS = {None: "null", True: "true", False: "false"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(items) -> list[str]:
    """JSON numbers of floats (subclasses included), as `json` writes them:
    float.__repr__, with NaN and Infinity for the non-finite values."""
    out = list(map(float.__repr__, items))
    if "n" in "".join(out):  # only nan, inf and -inf spell a letter n
        out = [_NONFINITE.get(text, text) for text in out]
    return out


def _encode(obj, indent: str) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` of a value nested at
    `indent`, for the types `json` encodes by default.

    A list of plain floats or plain ints, and a list of such lists, is
    joined in one pass; containers of anything else recurse item by item.
    A dict with a key that is not a str, and any type `json` cannot
    encode, go to `json.dumps` itself, re-indented (JSON strings hold no
    raw newline).
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _floats([obj])[0]
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {float}:
            items = _floats(obj)
        elif kinds == {int}:
            items = list(map(int.__repr__, obj))
        elif kinds <= {list, tuple} and all(row and set(map(type, row)) == {float}
                                            for row in obj):
            rows = inner + "  "
            items = ["[\n" + rows + (",\n" + rows).join(_floats(row)) + "\n" + inner + "]"
                     for row in obj]
        else:
            items = [_encode(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _encode(value, inner)
                 for key, value in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON encoding (sorted keys, repr floats): exactly the
    bytes of `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`."""
    return (_encode(obj, "") + "\n").encode()


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
