"""File outputs: canonical JSON, OBJ meshes for 3-D surface patches, and
the float texts of the grid writers (`float_texts`)."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
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


def float_texts(values) -> list[str]:
    """`_floats` of a float array's values in C order, formatting each
    distinct bit pattern once.

    The uint64 view is sorted (a stable argsort), the first of each run of
    equal bits is formatted and its text scattered back over the run.
    float.__repr__ depends only on the bits, so this is exact: -0.0 keeps
    its sign and every NaN payload reads NaN.
    """
    flat = np.ravel(np.asarray(values, dtype=float))
    bits = flat.view(np.uint64)
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    heads = np.empty(flat.size, dtype=bool)
    heads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    texts = np.array(_floats(flat[order[heads]].tolist()), dtype=object)
    out = np.empty(flat.size, dtype=object)
    out[order] = texts[np.cumsum(heads) - 1]
    return out.tolist()


def _float_rows(rows, indent: str) -> str | None:
    """The encoding at `indent` of a list of nonempty lists of plain
    floats, in one pass: every number formatted by one `_floats` call and
    placed by one `%` template; None for any other list of lists."""
    flat = [x for row in rows for x in row]
    if not all(rows) or set(map(type, flat)) != {float}:
        return None
    inner, cell = indent + "  ", indent + "    "
    templates = {n: "[\n" + cell + (",\n" + cell).join(["%s"] * n) + "\n" + inner + "]"
                 for n in set(map(len, rows))}
    body = (",\n" + inner).join([templates[len(row)] for row in rows])
    return "[\n" + inner + body % tuple(_floats(flat)) + "\n" + indent + "]"


def _encode(obj, indent: str) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` of a value nested at
    `indent`, for the types `json` encodes by default.

    A list of plain floats or plain ints is joined in one pass, and a
    list of lists of plain floats formatted in one (`_float_rows`);
    containers of anything else recurse item by item.
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
        if kinds <= {list, tuple}:
            rows = _float_rows(obj, indent)
            if rows is not None:
                return rows
        if kinds == {float}:
            items = _floats(obj)
        elif kinds == {int}:
            items = list(map(int.__repr__, obj))
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


def _vertex_lines(texts: list[str]) -> str:
    """OBJ vertex lines of the C-order texts of (k, 3) points."""
    return "\n".join(["v %s %s %s"] * (len(texts) // 3)) % tuple(texts)


def write_mesh_obj(path, patch: RuledPatch, sheet: StrictionSheet | None = None):
    """Quad mesh of a surface patch in R^3, with the striction curve as a
    polyline object when a sheet is supplied. Requires dim=3 and m=2.

    The vertex coordinates of the patch and those of the polyline are
    formatted by one `float_texts` call each, so each distinct value of a
    block once, and placed by one template.
    """
    if patch.dim != 3 or patch.m != 2:
        raise ValueError("OBJ export is defined for ambient dimension 3 with m=2")
    ts = patch.grid.t_samples
    us = patch.grid.u_axis
    # sigma(t, u) = directrix(t) + u X(t) at every grid point, t-major
    v = patch.values
    points = v.directrix(0)[:, None, :] + us[:, None] * v.frame(0)
    lines = ["o patch", _vertex_lines(float_texts(points))]
    nu = us.size
    # quad (a, a + nu, a + nu + 1, a + 1) from each 1-based vertex a off the
    # last t and the last u
    a = (np.arange(ts.size - 1)[:, None] * nu + np.arange(1, nu)).ravel()
    if a.size:
        faces = np.stack([a, a + nu, a + nu + 1, a + 1], axis=1)
        lines.append("\n".join(["f %d %d %d %d"] * a.size) % tuple(faces.ravel().tolist()))
    if sheet is not None:
        base = ts.size * nu
        lines += ["o striction", _vertex_lines(float_texts(sheet.grid_points(()))),
                  "l " + " ".join(str(base + i + 1) for i in range(ts.size))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
