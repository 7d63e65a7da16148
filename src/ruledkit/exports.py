"""File outputs: canonical JSON, OBJ meshes for 3-D surface patches, and
`float_texts`, the float formatting of every output file. Each file (the
JSON documents, the OBJ mesh and the striction CSVs) sends all of its
floats to `float_texts` in one call, so it formats each distinct float
once, and places the texts with one `%` template."""

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

    The uint64 view is sorted, the first of each run of equal bits is
    formatted and its text scattered back over the run. float.__repr__
    depends only on the bits, so this is exact: -0.0 keeps its sign and
    every NaN payload reads NaN. Equal bits give equal texts, so the order
    within a run does not matter and the sort need not be stable.
    """
    flat = np.ravel(np.asarray(values, dtype=float))
    bits = flat.view(np.uint64)
    order = np.argsort(bits)
    ordered = bits[order]
    heads = np.empty(flat.size, dtype=bool)
    heads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    texts = np.array(_floats(flat[order[heads]].tolist()), dtype=object)
    out = np.empty(flat.size, dtype=object)
    out[order] = texts[np.cumsum(heads) - 1]
    return out.tolist()


def _float_rows(rows, indent: str, floats: list) -> str | None:
    """The template at `indent` of a list of nonempty lists of plain
    floats, in one pass: a `%s` for each number, whose floats are
    appended to `floats`; None for any other list of lists."""
    flat = [x for row in rows for x in row]
    if not all(rows) or set(map(type, flat)) != {float}:
        return None
    floats += flat
    inner, cell = indent + "  ", indent + "    "
    templates = {n: "[\n" + cell + (",\n" + cell).join(["%s"] * n) + "\n" + inner + "]"
                 for n in set(map(len, rows))}
    return ("[\n" + inner + (",\n" + inner).join([templates[len(row)] for row in rows])
            + "\n" + indent + "]")


def _encode(obj, indent: str, floats: list) -> str:
    """The `%` template of `json.dumps(obj, sort_keys=True, indent=2)` for
    a value nested at `indent`, for the types `json` encodes by default.

    Each float (subclasses included) is a `%s`, and is appended to
    `floats` in document order; every literal `%` (of strings, keys and
    the `json.dumps` fallback) is doubled. A list of plain floats or plain
    ints is joined in one pass, and a list of lists of plain floats laid
    out in one (`_float_rows`); containers of anything else recurse item
    by item. A dict with a key that is not a str, and any type `json`
    cannot encode, go to `json.dumps` itself, re-indented (JSON strings
    hold no raw newline).
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj).replace("%", "%%")
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        floats.append(obj)
        return "%s"
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds <= {list, tuple}:
            rows = _float_rows(obj, indent, floats)
            if rows is not None:
                return rows
        if kinds == {float}:
            floats += obj
            items = ["%s"] * len(obj)
        elif kinds == {int}:
            items = list(map(int.__repr__, obj))
        else:
            items = [_encode(item, inner, floats) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(key).replace("%", "%%") + ": "
                 + _encode(value, inner, floats) for key, value in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    text = json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + indent)
    return text.replace("%", "%%")


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON encoding (sorted keys, repr floats): exactly the
    bytes of `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`.

    The document's template (`_encode`) is filled by one `%` with the
    texts of all its floats, formatted by one `float_texts` call, so each
    distinct float of the document once."""
    floats: list = []
    template = _encode(obj, "", floats)
    return (template % tuple(float_texts(floats)) + "\n").encode()


def write_json(path, obj):
    with open(path, "wb") as fh:
        fh.write(canonical_json_bytes(obj))


def _vertex_lines(texts: list[str]) -> str:
    """OBJ vertex lines of the C-order texts of (k, 3) points."""
    return "\n".join(["v %s %s %s"] * (len(texts) // 3)) % tuple(texts)


def write_mesh_obj(path, patch: RuledPatch, sheet: StrictionSheet | None = None):
    """Quad mesh of a surface patch in R^3, with the striction curve as a
    polyline object when a sheet is supplied. Requires dim=3 and m=2.

    The vertex coordinates of the patch and of the polyline are formatted
    by one `float_texts` call, so each distinct value of the file once,
    and each block is placed by one template.
    """
    if patch.dim != 3 or patch.m != 2:
        raise ValueError("OBJ export is defined for ambient dimension 3 with m=2")
    ts = patch.grid.t_samples
    us = patch.grid.u_axis
    nu = us.size
    # sigma(t, u) = directrix(t) + u X(t) at every grid point, t-major,
    # then the polyline's points
    v = patch.values
    points = (v.directrix(0)[:, None, :] + us[:, None] * v.frame(0)).reshape(-1, 3)
    if sheet is not None:
        points = np.concatenate([points, sheet.grid_points(())])
    texts = float_texts(points)
    base = ts.size * nu
    lines = ["o patch", _vertex_lines(texts[:3 * base])]
    # quad (a, a + nu, a + nu + 1, a + 1) from each 1-based vertex a off the
    # last t and the last u
    a = (np.arange(ts.size - 1)[:, None] * nu + np.arange(1, nu)).ravel()
    if a.size:
        faces = np.stack([a, a + nu, a + nu + 1, a + 1], axis=1)
        lines.append("\n".join(["f %d %d %d %d"] * a.size) % tuple(faces.ravel().tolist()))
    if sheet is not None:
        lines += ["o striction", _vertex_lines(texts[3 * base:]),
                  "l " + " ".join(str(base + i + 1) for i in range(ts.size))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
