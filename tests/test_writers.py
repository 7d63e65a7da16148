"""The grid writers against their per-value oracles.

`exports.float_texts` formats each distinct bit pattern of an array once
and must give exactly `exports._floats` of its values in C order. Every
output file sends all of its floats to it in one call. The OBJ and CSV
files must equal, byte for byte, those of the per-vertex f-string mesh
writer and the per-value `float.__repr__` CSV writer kept here as oracles.
The mesh is written on request only (`analyze(..., mesh=True)`), so the
writer checks ask for it; a default run differs only by its absence.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfbench.scenegen import explicit_scene
from ruledkit import RuledPatch, SampleGrid, analysis, exports, ingest, striction
from ruledkit.classify import segment_analyses
from ruledkit.exports import _floats, float_texts
from ruledkit.fields import PolynomialField
from ruledkit.parametric import FramedCurve
from ruledkit.scene import IngestResult
from scene_families import FAMILIES
from test_distribution import _BumpFrame

SCENE_DIR = pathlib.Path(__file__).parent.parent / "scenes"
SCENES = sorted(p.stem for p in SCENE_DIR.glob("*.json"))


def oracle_mesh_obj(path, patch, sheet=None):
    """The OBJ mesh formatted one vertex at a time by an f-string."""
    ts = patch.grid.t_samples
    us = patch.grid.u_axis
    v = patch.values
    points = v.directrix(0)[:, None, :] + us[:, None] * v.frame(0)
    lines = ["o patch"]
    for x, y, z in points.reshape(-1, 3).tolist():
        lines.append(f"v {x!r} {y!r} {z!r}")
    nu = us.size
    a = (np.arange(ts.size - 1)[:, None] * nu + np.arange(1, nu)).ravel()
    if a.size:
        faces = np.stack([a, a + nu, a + nu + 1, a + 1], axis=1)
        lines.append("\n".join(["f %d %d %d %d"] * a.size) % tuple(faces.ravel().tolist()))
    if sheet is not None:
        base = ts.size * nu
        lines.append("o striction")
        for x, y, z in sheet.grid_points(()).tolist():
            lines.append(f"v {x!r} {y!r} {z!r}")
        idx = " ".join(str(base + i + 1) for i in range(ts.size))
        lines.append(f"l {idx}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def oracle_striction_csv(sheet, locus, path):
    """The striction CSV with every number of every column formatted."""
    m, d, dim = sheet.fc.m, sheet.d, sheet.fc.dim
    header = (["t"]
              + [f"u{j}" for j in range(1, m - d)]
              + [f"s{j}" for j in range(m - d, m)]
              + [f"b{i}" for i in range(1, dim + 1)]
              + ["wedge_residual", "singular"])
    ts, u_pts = locus.t, locus.u_free
    n, n_pos = locus.residuals.shape
    solved = np.stack([sheet.grid_solved(u) for u in u_pts], axis=1).reshape(-1, d)
    points = np.stack([sheet.grid_points(u) for u in u_pts], axis=1).reshape(-1, dim)
    table = np.concatenate([np.repeat(ts, n_pos)[:, None], np.tile(u_pts, (n, 1)),
                            solved, points, locus.residuals.reshape(-1, 1)], axis=1)
    columns = [list(map(float.__repr__, column)) for column in table.T.tolist()]
    columns.append(np.where(locus.singular.ravel(), "true", "false").tolist())
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\r\n")


# --- the kernel ---------------------------------------------------------------

def _bits(x: float) -> int:
    return int(np.array(x).view(np.uint64))


SPECIAL_BITS = [_bits(x) for x in (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                                   2.2250738585072009e-308, 1.0, 0.1, 1e300)]
#: NaNs of either sign and any nonzero payload
nan_bits = st.tuples(st.sampled_from([0x7FF0000000000000, 0xFFF0000000000000]),
                     st.integers(1, 2 ** 52 - 1)).map(lambda pair: pair[0] | pair[1])
bit_patterns = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS), nan_bits)
#: arrays drawn from a small pool of bit patterns, so that values repeat
pooled = st.lists(bit_patterns, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=60))


@settings(max_examples=400, deadline=None)
@given(pooled, st.booleans())
@example([0, 1 << 63, 0, 1 << 63], True)  # 0.0 and -0.0 compare equal as floats
@example([0x7FF8000000000000, 0xFFF8000000000001, 0x7FF8000000000000], False)
def test_float_texts_equal_floats_of_the_values(bits, transposed):
    a = np.array(bits, dtype=np.uint64).view(np.float64)
    if transposed and a.size % 2 == 0:
        a = a.reshape(2, -1).T  # not C-contiguous
    assert float_texts(a) == _floats(a.ravel().tolist())


@pytest.mark.parametrize("a", [
    np.empty(0), np.empty((0, 3)), np.array([-0.0, 0.0, -0.0, 0.0]),
    np.array([np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]),
    np.arange(12.0).reshape(3, 4).T, np.arange(24.0).reshape(2, 3, 4)[:, ::2, 1:],
    np.full((4, 3), 0.1),
], ids=lambda a: f"{a.shape}")
def test_float_texts_edge_cases(a):
    assert float_texts(a) == _floats(a.ravel().tolist())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("size", [7, 300, 7000])
def test_float_texts_of_shuffled_repeated_blocks(seed, size):
    # the sort need not be stable: runs of equal bits come out of it in any
    # order, and each run's text is still its value's
    patterns = np.array([_bits(x) for x in (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                                            2.2250738585072009e-308, 1.5)]
                        + [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                           0xFFF00000DEADBEEF, 0x7FFFFFFFFFFFFFFF], dtype=np.uint64)
    rng = np.random.default_rng(seed)
    a = np.repeat(patterns, rng.integers(1, size, patterns.size)).view(np.float64)
    rng.shuffle(a)
    assert float_texts(a) == _floats(a.tolist())
    assert float_texts(a.reshape(-1, 1)[::-1]) == _floats(a[::-1].tolist())


# --- the writers --------------------------------------------------------------

def _analyze_against_oracles(monkeypatch, tmp_path, result, invariance=False):
    """Run `analyze` with the mesh requested and each grid writer checked,
    call by call, against its oracle on the same inputs; returns the names
    of the files checked, which must be every grid file the report lists."""
    checked = []
    write_csv, write_mesh = analysis.write_striction_csv, analysis.write_mesh_obj
    oracle_path = tmp_path / "oracle"

    def csv(sheet, locus, path):
        write_csv(sheet, locus, path)
        oracle_striction_csv(sheet, locus, oracle_path)
        assert pathlib.Path(path).read_bytes() == oracle_path.read_bytes()
        checked.append(pathlib.Path(path).name)

    def mesh(path, patch, sheet=None):
        write_mesh(path, patch, sheet)
        oracle_mesh_obj(oracle_path, patch, sheet)
        assert pathlib.Path(path).read_bytes() == oracle_path.read_bytes()
        checked.append(pathlib.Path(path).name)

    monkeypatch.setattr(analysis, "write_striction_csv", csv)
    monkeypatch.setattr(analysis, "write_mesh_obj", mesh)
    outputs = analysis.analyze(result, tmp_path / "out", invariance=invariance,
                               mesh=True)["outputs"]
    assert checked == outputs["striction_csv"] + [outputs["mesh"]] * (outputs["mesh"] is not None)
    return checked


@pytest.mark.parametrize("t_samples", [40, 200, 800])
@pytest.mark.parametrize("scene", SCENES)
def test_shipped_scene_writers_equal_the_oracles(monkeypatch, tmp_path, scene, t_samples):
    result = ingest(str(SCENE_DIR / f"{scene}.json"), {"t_samples": t_samples})
    checked = _analyze_against_oracles(monkeypatch, tmp_path, result)
    assert ("mesh.obj" in checked) == (result.patch.dim == 3)


@pytest.mark.parametrize("seed", range(4))
def test_explicit_scene_writers_equal_the_oracles(monkeypatch, tmp_path, seed):
    checked = _analyze_against_oracles(monkeypatch, tmp_path, ingest(explicit_scene(seed)))
    assert checked == ["striction.csv", "mesh.obj"]


@pytest.mark.parametrize("family", ["cone_r3", "cylinder_r3", "tangent_cubic_r3",
                                    "osculating_m3_r4"])
def test_family_scene_writers_equal_the_oracles(monkeypatch, tmp_path, family):
    make, _ = FAMILIES[family]
    assert _analyze_against_oracles(monkeypatch, tmp_path, ingest(make(0)))


#: floats that reach `_floats` per file at 800 samples with the mesh
#: requested, each file in one call; the R^5 scene is not a surface in R^3
#: and writes no mesh
DISTINCT_FLOATS = {
    # the cone's sheet is its apex and its mesh repeats a coordinate along
    # each ruling: of the mesh's 12000 vertex and 2400 polyline floats 7473
    # are distinct, of the CSV's 4800 floats 914 and of the report's 2427 843
    # (the off-sheet certificate's margin among them)
    "circular_cone": {"striction.csv": 914, "mesh.obj": 7473, "report.json": 843,
                      "normalized_scene.json": 4},
    "two_rotation_r5": {"striction.csv": 5596, "report.json": 815,
                        "normalized_scene.json": 3},
}


@pytest.mark.parametrize("scene", sorted(DISTINCT_FLOATS))
def test_writers_format_each_distinct_value_once(monkeypatch, tmp_path, scene):
    # `analyze` reaches each traced writer name through its module
    # attribute, once per file, and every float it formats reaches
    # `_floats` within one of those calls: one call per file, with no bit
    # pattern twice
    calls = []
    floats = exports._floats

    def counting(items):
        items = list(items)
        calls.append(items)
        return floats(items)

    monkeypatch.setattr(exports, "_floats", counting)
    per_file = {}

    def measured(writer, path_arg):
        def run(*args):
            start = len(calls)
            writer(*args)
            name = pathlib.Path(args[path_arg]).name
            assert name not in per_file
            per_file[name] = calls[start:]
        return run

    monkeypatch.setattr(analysis, "write_json", measured(exports.write_json, 0))
    monkeypatch.setattr(analysis, "write_mesh_obj", measured(exports.write_mesh_obj, 0))
    monkeypatch.setattr(analysis, "write_striction_csv",
                        measured(striction.write_striction_csv, 2))
    result = ingest(str(SCENE_DIR / f"{scene}.json"), {"t_samples": 800})
    analysis.analyze(result, tmp_path, invariance=False, mesh=True)
    assert sorted(per_file) == sorted(p.name for p in tmp_path.iterdir())
    assert {name: [len(items) for items in file_calls]
            for name, file_calls in per_file.items()} == \
        {name: [n] for name, n in DISTINCT_FLOATS[scene].items()}
    assert len(calls) == len(per_file)
    for items in calls:
        bits = np.array(items, dtype=float).view(np.uint64)
        assert np.unique(bits).size == bits.size


@pytest.mark.parametrize("name", ["circular_cone", "tangent_developable_helix"])
def test_mesh_writer_formats_the_polyline_without_the_csv_texts(tmp_path, name):
    # the polyline of a surface's sheet, formatted by the mesh writer itself
    result = ingest(str(SCENE_DIR / f"{name}.json"), {"t_samples": 40})
    sheet = segment_analyses(result.patch)[0].sheet
    exports.write_mesh_obj(tmp_path / "mesh.obj", result.patch, sheet)
    oracle_mesh_obj(tmp_path / "oracle.obj", result.patch, sheet)
    assert (tmp_path / "mesh.obj").read_bytes() == (tmp_path / "oracle.obj").read_bytes()


def test_multi_segment_surface_mesh_has_no_polyline(monkeypatch, tmp_path):
    # a frame that rotates only for t > 0: a cylindrical and a degree-1
    # segment, so the mesh is the patch alone
    fc = FramedCurve(3, 2, PolynomialField([[0.0], [0.0], [0.0, 1.0]]), (_BumpFrame(),),
                     (-1.0, 1.0))
    result = IngestResult(RuledPatch(fc, SampleGrid.uniform(fc.interval, 81)), {}, [])
    checked = _analyze_against_oracles(monkeypatch, tmp_path, result)
    assert len(segment_analyses(result.patch)) == 2
    assert "mesh.obj" in checked
    lines = (tmp_path / "out" / "mesh.obj").read_text().splitlines()
    assert "o striction" not in lines
    assert not any(line.startswith("l ") for line in lines)


# --- the default output set ---------------------------------------------------

NO_OBJ_FORM_NOTE = ("mesh.obj not written: the OBJ mesh is defined for surfaces in R^3 "
                    "(ambient_dim 3, m 2)")


@pytest.mark.parametrize("scene", SCENES)
def test_default_run_differs_from_the_mesh_run_only_by_the_mesh(tmp_path, scene):
    # on a scene that is not a surface in R^3 the requested mesh is one note
    path = str(SCENE_DIR / f"{scene}.json")
    default = analysis.analyze(ingest(path), tmp_path / "default")
    requested = analysis.analyze(ingest(path), tmp_path / "mesh", mesh=True)
    surface = scene not in ("cylinder_helix_r4", "two_rotation_r5")
    assert requested["outputs"]["mesh"] == ("mesh.obj" if surface else None)
    assert requested["notes"].count(NO_OBJ_FORM_NOTE) == (not surface)
    assert default["outputs"]["mesh"] is None
    names = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert names == sorted(["report.json", "normalized_scene.json",
                            *default["outputs"]["striction_csv"]])
    assert sorted(p.name for p in (tmp_path / "mesh").iterdir()) == \
        sorted(names + ["mesh.obj"] * surface)
    expected = dict(requested, outputs=dict(requested["outputs"], mesh=None),
                    notes=[n for n in requested["notes"] if n != NO_OBJ_FORM_NOTE])
    assert json.loads((tmp_path / "default" / "report.json").read_text()) == \
        json.loads(json.dumps(expected))
    for name in names:
        if name != "report.json":
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "mesh" / name).read_bytes()
