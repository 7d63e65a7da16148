import json
import math
import os
import tempfile
import warnings

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledkit import ConfigError, DegeneracyError, ValidationError, ingest
from ruledkit.analysis import analyze
from ruledkit.cli import main
from ruledkit.exports import canonical_json_bytes
from ruledkit.scene import _load_schema, validate_scene
from ruledkit.selftest import run_selftest, all_passed
from ruledkit.multilinear import TolerancePolicy
from conftest import fail_invariance_resolve
from scene_families import osculating_scene
from test_writers import NO_OBJ_FORM_NOTE

REPORT_SCHEMA = _load_schema("report.schema.json")

CONE_SCENE = {"builtin_patch": "circular_cone", "grid": {"t_samples": 32}}
HELICOID_SCENE = {"builtin_patch": "helicoid_frame", "grid": {"t_samples": 32}}
CYLINDER_SCENE = {"builtin_patch": "cylinder_helix", "grid": {"t_samples": 32}}

EXPLICIT_HELICOID = {
    "ambient_dim": 3,
    "m": 2,
    "directrix": {"kind": "polynomial", "coefficients": [[0.0], [0.0], [0.0, 1.0]]},
    "frame": [{"kind": "fourier", "coordinates": [
        {"constant": 0.0, "cos": [1.0], "sin": [], "omega": 1.0},
        {"constant": 0.0, "cos": [], "sin": [1.0], "omega": 1.0},
        {"constant": 0.0, "cos": [], "sin": [], "omega": 1.0},
    ]}],
    "interval": [0.0, 6.283185307179586],
    "grid": {"t_samples": 32},
}

NON_UNIT_SPEED = {
    "ambient_dim": 3,
    "m": 2,
    "directrix": {"kind": "polynomial", "coefficients": [[0.0, 2.0], [0.0], [0.0]]},
    "frame": [{"kind": "constant", "value": [0.0, 1.0, 0.0]}],
    "interval": [0.0, 1.0],
    "grid": {"t_samples": 16},
}

DEPENDENT_FRAME = {
    "ambient_dim": 3,
    "m": 3,
    "directrix": {"kind": "polynomial", "coefficients": [[0.0], [0.0], [0.0, 1.0]]},
    "frame": [
        {"kind": "constant", "value": [1.0, 0.0, 0.0]},
        {"kind": "polynomial", "coefficients": [[1.0], [0.0, 1.0], [0.0]]},
    ],
    "interval": [0.0, 1.0],
    "grid": {"t_samples": 9},
}


def write_scene(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_ingest_builtin_scene(tmp_path):
    result = ingest(write_scene(tmp_path, CONE_SCENE))
    assert result.patch.m == 2
    assert result.patch.grid.t_samples.size == 32
    assert result.notes == []
    assert result.normalized["normalization"] == {
        "reparametrized": False, "orthonormalized": False}


def test_ingest_explicit_scene(tmp_path):
    result = ingest(write_scene(tmp_path, EXPLICIT_HELICOID))
    assert result.patch.dim == 3
    result.patch.fc.validate_on(result.patch.grid)


def test_ingest_reparametrizes_non_unit_speed(tmp_path):
    result = ingest(write_scene(tmp_path, NON_UNIT_SPEED))
    assert any("reparametrized" in n for n in result.notes)
    assert result.normalized["normalization"]["reparametrized"] is True
    # the new interval is the curve length
    lo, hi = result.patch.fc.interval
    assert (lo, hi) == (0.0, pytest.approx(2.0, abs=1e-9))


def test_ingest_orthonormalizes_skewed_frame(tmp_path):
    doc = {
        "ambient_dim": 3,
        "m": 3,
        "directrix": {"kind": "polynomial", "coefficients": [[0.0], [0.0], [0.0, 1.0]]},
        "frame": [
            {"kind": "constant", "value": [1.0, 0.0, 0.0]},
            {"kind": "constant", "value": [1.0, 1.0, 0.0]},
        ],
        "interval": [0.0, 1.0],
        "grid": {"t_samples": 9},
    }
    result = ingest(write_scene(tmp_path, doc))
    assert any("orthonormalized" in n for n in result.notes)
    assert result.normalized["normalization"]["orthonormalized"] is True
    result.patch.fc.validate_on(result.patch.grid, result.patch.tol)


def test_ingest_reports_dependent_frame_parameter(tmp_path):
    with pytest.raises(DegeneracyError, match="t=0"):
        ingest(write_scene(tmp_path, DEPENDENT_FRAME))


def test_ingest_rejects_unknown_patch(tmp_path):
    with pytest.raises(ValidationError, match="unknown builtin patch"):
        ingest(write_scene(tmp_path, {"builtin_patch": "torus"}))


def test_ingest_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"builtin_patch": ')
    with pytest.raises(ValidationError, match="line"):
        ingest(str(path))


def test_ingest_rejects_schema_violations(tmp_path):
    # explicit form requires m, directrix, frame, interval together
    with pytest.raises(ValidationError):
        ingest(write_scene(tmp_path, {"ambient_dim": 3}))
    with pytest.raises(ValidationError):
        ingest(write_scene(tmp_path, {"builtin_patch": "circular_cone",
                                      "grid": {"t_samples": 1}}))


def test_shipped_schemas_pass_the_metaschema():
    for name in ("scene.schema.json", "report.schema.json"):
        schema = _load_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("doc", [
    {},
    {"ambient_dim": 3},
    {"builtin_patch": 5},
    {"builtin_patch": "circular_cone", "grid": {"t_samples": 1}},
    {"builtin_patch": "circular_cone", "grid": {"t_samples": 40, "u_extent": "wide"}},
    dict(EXPLICIT_HELICOID, frame=[{"coordinates": []}]),
    dict(EXPLICIT_HELICOID, interval=[0.0]),
])
def test_scene_validation_error_is_the_best_match(doc):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, _load_schema("scene.schema.json"))
    where = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
    with pytest.raises(ValidationError) as got:
        validate_scene(doc)
    assert str(got.value) == f"scene validation error at {where}: {want.value.message}"


def _integer_paths(schema, path=()):
    """The schema paths of every subschema that types its value `integer`."""
    if isinstance(schema, dict):
        if schema.get("type") == "integer":
            yield path
        for key, sub in schema.items():
            yield from _integer_paths(sub, path + (key,))
    elif isinstance(schema, list):
        for i, sub in enumerate(schema):
            yield from _integer_paths(sub, path + (i,))


def test_schema_integers_sit_on_properties_only():
    # ingest turns integral floats into ints down the schema's `properties`
    # (`scene._int_integers`), which reaches only integers on such a path
    paths = list(_integer_paths(_load_schema("scene.schema.json")))
    assert paths and all(p[::2] == ("properties",) * len(p[::2]) for p in paths)


@pytest.mark.parametrize("twin,key,value", [
    (dict(CONE_SCENE, grid={"t_samples": 40}), "grid", {"t_samples": 40.0}),
    (dict(CONE_SCENE, grid={"t_samples": 32, "u_samples_per_axis": 5}), "grid",
     {"t_samples": 32, "u_samples_per_axis": 5.0}),
    (EXPLICIT_HELICOID, "m", 2.0),
    (EXPLICIT_HELICOID, "ambient_dim", 3.0),
], ids=["t_samples", "u_samples_per_axis", "m", "ambient_dim"])
def test_integral_float_integers_analyze_as_their_integer_twin(tmp_path, twin, key, value):
    # draft 2020-12 admits 40.0 where the schema says integer
    outputs = []
    for name, doc in (("int", twin), ("float", dict(twin, **{key: value}))):
        validate_scene(doc)
        out = tmp_path / name
        result = CliRunner().invoke(main, ["analyze", write_scene(tmp_path, doc, f"{name}.json"),
                                           "-o", str(out), "--no-invariance"])
        assert result.exit_code == 0, result.output
        outputs.append([(out / f).read_bytes() for f in ("report.json", "normalized_scene.json")])
    assert outputs[0] == outputs[1]


def test_ingest_rejects_dimension_mismatch(tmp_path):
    doc = dict(EXPLICIT_HELICOID, ambient_dim=4)
    with pytest.raises(ValidationError, match="dimension"):
        ingest(write_scene(tmp_path, doc))


def test_normalization_idempotent(tmp_path):
    for doc in (CONE_SCENE, NON_UNIT_SPEED):
        first = ingest(write_scene(tmp_path, doc, "a.json"))
        emitted = tmp_path / "normalized.json"
        emitted.write_bytes(canonical_json_bytes(first.normalized))
        second = ingest(str(emitted))
        assert canonical_json_bytes(second.normalized) == emitted.read_bytes()


def test_cli_overrides_apply(tmp_path):
    result = ingest(write_scene(tmp_path, CONE_SCENE),
                    overrides={"t_samples": 48, "u_extent": 3.5,
                               "rank_rel_tol": 1e-6})
    assert result.patch.grid.t_samples.size == 48
    assert result.patch.grid.u_extent == 3.5
    assert result.patch.tol.rank_rel_tol == 1e-6
    assert result.normalized["grid"]["t_samples"] == 48


def test_overrides_follow_the_schema_as_the_scene_does(tmp_path):
    # an override is merged into the scene before validation: an integral
    # float analyzes as its integer twin, and a bool is no integer
    outputs = []
    for name, t_samples in (("int", 40), ("float", 40.0)):
        result = ingest({"builtin_patch": "circular_cone"}, {"t_samples": t_samples})
        analyze(result, tmp_path / name, invariance=False)
        outputs.append([(tmp_path / name / f).read_bytes()
                        for f in ("report.json", "normalized_scene.json")])
    assert outputs[0] == outputs[1]
    with pytest.raises(ValidationError,
                       match="at grid/t_samples: True is not of type 'integer'"):
        ingest({"builtin_patch": "circular_cone"}, {"t_samples": True})


class _GridBuilt(Exception):
    pass


@pytest.fixture
def grid_sentinel(monkeypatch):
    """Make building the sample grid raise _GridBuilt: a scene that gets
    that far has passed the work budget, and no grid array is allocated."""
    from ruledkit import scene

    def no_grid(*args, **kwargs):
        raise _GridBuilt

    monkeypatch.setattr(scene.SampleGrid, "uniform", no_grid)


def test_ingest_rejects_grid_over_the_work_budget(grid_sentinel):
    from ruledkit.scene import MAX_GRID_POINTS
    u, m = 5, 3
    at_cap = MAX_GRID_POINTS // u ** (m - 1)
    doc = {"builtin_patch": "two_rotation_r5", "grid": {"u_samples_per_axis": u}}
    with pytest.raises(ValidationError, match="points"):
        ingest(doc, overrides={"t_samples": at_cap + 1})
    with pytest.raises(ValidationError, match="points"):
        ingest(doc, overrides={"t_samples": 10 ** 12})
    with pytest.raises(_GridBuilt):
        ingest(doc, overrides={"t_samples": at_cap})


def test_work_budget_admits_shipped_scenes_and_benchmark_grids(pytestconfig, grid_sentinel):
    import pathlib
    scene_dir = pathlib.Path(pytestconfig.rootpath) / "scenes"
    for path in sorted(scene_dir.glob("*.json")):
        with pytest.raises(_GridBuilt):
            ingest(str(path))
    for name in ("circular_cone", "two_rotation_r5"):
        with pytest.raises(_GridBuilt):
            ingest({"builtin_patch": name}, overrides={"t_samples": 800})


def test_selftest_rejects_a_corpus_over_the_work_budget(grid_sentinel):
    from ruledkit.scene import MAX_GRID_POINTS
    at_cap = MAX_GRID_POINTS // 5 ** 2  # the m = 3 corpus patches, 5 ruling samples
    with pytest.raises(ValidationError, match="points"):
        run_selftest(t_samples=at_cap + 1)
    with pytest.raises(_GridBuilt):
        run_selftest(t_samples=at_cap)
    result = CliRunner().invoke(main, ["selftest", "--t-samples", str(at_cap + 1)])
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "points" in lines[0]


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
def test_negative_or_non_integer_seed_is_refused_before_any_stage(grid_sentinel, seed):
    # only the selftest takes a seed; analyze ignores its keyword
    with pytest.raises(ValidationError, match="seed"):
        run_selftest(seed=seed)


@pytest.mark.parametrize("args", [
    ["analyze", "{scene}", "-o", "{out}", "--seed", "-1"],
    ["selftest", "--seed", "-1"],
])
def test_cli_negative_seed_exits_2(tmp_path, args):
    # analyze has no --seed option any more: click refuses it as a usage error
    scene = write_scene(tmp_path, CONE_SCENE)
    args = [a.format(scene=scene, out=tmp_path / "out") for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    if args[0] == "analyze":
        last = result.stderr.splitlines()[-1]
        assert last.startswith("Error: No such option") and "--seed" in last
        assert not (tmp_path / "out").exists()
    else:
        assert result.stderr.splitlines() == [
            "error: seed must be a non-negative integer, got -1"]


LINE_RULED_SCENE = {
    "ambient_dim": 3,
    "m": 2,
    "directrix": {"kind": "builtin", "name": "line",
                  "params": {"point": [0.0, 0.0, 0.0], "direction": [1.0, 0.0, 0.0]}},
    "frame": [{"kind": "constant", "value": [0.0, 0.0, 1.0]}],
    "interval": [0.0, 1.0],
    "grid": {"t_samples": 9},
}


@pytest.mark.parametrize("doc,family", [
    (dict(CONE_SCENE, patch_params={"r": True}), "patch 'circular_cone'"),
    (dict(CONE_SCENE, patch_params={"interval": [0.0, True]}), "patch 'circular_cone'"),
    (dict(LINE_RULED_SCENE, directrix=dict(LINE_RULED_SCENE["directrix"], params={
        "point": [0.0, 0.0, False], "direction": [1.0, 0.0, 0.0]})), "curve 'line'"),
], ids=["patch", "patch-list", "curve-list"])
def test_bool_builtin_parameter_exits_2(tmp_path, doc, family):
    # a bool is no number: Python would take True for 1 and echo it back
    # in the normalized scene
    scene = write_scene(tmp_path, doc)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["analyze", scene, "-o", str(out), "--no-invariance"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"error: bad parameters for builtin {family}: a bool is not a number"]
    assert not out.exists()
    with pytest.raises(ConfigError):
        ingest(doc)


@pytest.mark.parametrize("doc,message", [
    (dict(LINE_RULED_SCENE, directrix={"kind": "builtin", "name": "helix",
                                       "params": {"b": math.nan}}),
     "bad parameters for builtin curve 'helix': nan is not a finite number"),
    (dict(CYLINDER_SCENE, builtin_patch="cylinder_helix", patch_params={"a": math.nan}),
     "bad parameters for builtin patch 'cylinder_helix': nan is not a finite number"),
    (dict(CONE_SCENE, patch_params={"interval": [0.0, math.inf]}),
     "bad parameters for builtin patch 'circular_cone': inf is not a finite number"),
    (dict(LINE_RULED_SCENE, directrix=dict(LINE_RULED_SCENE["directrix"], params={
        "point": [0.0, -math.inf, 0.0], "direction": [1.0, 0.0, 0.0]})),
     "bad parameters for builtin curve 'line': -inf is not a finite number"),
], ids=["curve", "patch", "patch-list", "curve-list"])
def test_non_finite_builtin_parameter_exits_2(tmp_path, doc, message):
    # JSON's NaN and Infinity literals load as floats; a NaN once reached the
    # families and analyzed to a report full of NaN, or failed in an SVD
    scene = write_scene(tmp_path, doc)
    assert "NaN" in open(scene).read() or "Infinity" in open(scene).read()
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["analyze", scene, "-o", str(out), "--no-invariance"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"error: {message}"]
    assert not out.exists()
    with pytest.raises(ConfigError):
        ingest(doc)


def test_nan_speed_fails_at_its_own_sample(tmp_path):
    # the derivative coefficients 2e308 and 3e308 overflow, so the speed is
    # NaN at t = 0 (inf times 0) and inf after it: the first bad sample is t = 0
    doc = dict(LINE_RULED_SCENE, directrix={
        "kind": "polynomial", "coefficients": [[0.0, 0.0, 1e308, 1e308], [0.0], [0.0]]})
    scene = write_scene(tmp_path, doc)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        result = CliRunner().invoke(main, ["analyze", scene, "-o", str(out)])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "error: directrix is not unit-speed at t=0.0: |speed-1|=nan"]
    assert not out.exists()


def test_scene_interval_override_for_builtin(tmp_path):
    doc = dict(CONE_SCENE, interval=[0.0, 3.0])
    result = ingest(write_scene(tmp_path, doc))
    assert result.patch.fc.interval == (0.0, 3.0)
    assert result.normalized["interval"] == [0.0, 3.0]


# --- full analysis runs ------------------------------------------------------

def test_analyze_cone_outputs(tmp_path):
    out = tmp_path / "out"
    result = ingest(CONE_SCENE)
    report = analyze(result, out, mesh=True)
    assert (out / "report.json").exists()
    assert (out / "striction.csv").exists()
    assert (out / "mesh.obj").exists()
    assert (out / "normalized_scene.json").exists()

    loaded = json.loads((out / "report.json").read_text())
    jsonschema.validate(loaded, _load_schema("report.schema.json"))
    assert loaded == json.loads(json.dumps(report))
    region = loaded["classification"]["regions"][0]
    assert region["kind"] == "conical"
    assert np.abs(np.asarray(region["evidence"]["apex"])).max() < 1e-6
    assert loaded["directrix_invariance"]["max_deviation"] < 1e-6

    obj = (out / "mesh.obj").read_text().splitlines()
    vertices = [line for line in obj if line.startswith("v ")]
    assert len(vertices) == 32 * 5 + 32  # patch grid plus striction polyline
    assert any(line.startswith("l ") for line in obj)
    # vertex lines are plain numbers, parseable by standard OBJ readers
    first = np.array([float(v) for v in vertices[0].split()[1:]])
    assert first.shape == (3,) and np.all(np.isfinite(first))


def test_analyze_skips_invariance_offsets_whose_resolve_fails(tmp_path, monkeypatch):
    # a numeric failure in one offset's re-solve skips that offset with a
    # note instead of aborting the analysis
    from perfbench.scenegen import explicit_scene
    fail_invariance_resolve(monkeypatch, 2)
    report = analyze(ingest(explicit_scene(0), {"t_samples": 40}), tmp_path)
    loaded = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(loaded, _load_schema("report.schema.json"))
    inv = report["directrix_invariance"]
    offsets = inv["offsets"]
    assert [c for c, _ in inv["per_offset"]] == [offsets[0], offsets[2]]
    assert inv["skipped"] == [[offsets[1], "NumericError: injected re-solve failure"]]
    assert inv["max_deviation"] <= 1e-14
    assert sum("directrix invariance skipped offsets" in n for n in report["notes"]) == 1


def test_orthonormalized_frame_is_orthonormal_between_grid_nodes():
    from perfbench.scenegen import explicit_scene
    patch = ingest(explicit_scene(0), {"t_samples": 40}).patch
    ts = patch.grid.t_samples
    x = patch.fc.frame_values(0.5 * (ts[1:] + ts[:-1]))
    gram = x @ x.swapaxes(1, 2)
    assert np.abs(gram - np.eye(patch.m - 1)).max() <= 1e-14


@pytest.mark.parametrize("order", [1, 2])
def test_orthonormalized_frame_derivatives_pass_the_oracle(order):
    from perfbench.scenegen import explicit_scene
    from ruledkit.oracles import max_derivative_error
    patch = ingest(explicit_scene(0), {"t_samples": 40}).patch
    for field in patch.fc.frame:
        assert (max_derivative_error([field], field.domain, [order])
                < patch.tol.derivative_check_tol)


def test_analyze_helicoid_striction_line(tmp_path):
    out = tmp_path / "out"
    report = analyze(ingest(HELICOID_SCENE), out, invariance=False)
    assert report["classification"]["regions"][0]["kind"] == "non_rank_one"
    assert (out / "striction.csv").exists()
    # the striction line exists (the axis) but carries no singular points
    assert report["striction"][0]["singular_fraction"] == 0.0
    with open(out / "striction.csv") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "t,s1,b1,b2,b3,wedge_residual,singular"
    assert all(r.endswith("false") for r in rows[1:])


def test_analyze_cylinder_no_striction(tmp_path):
    out = tmp_path / "out"
    report = analyze(ingest(CYLINDER_SCENE), out, invariance=False, mesh=True)
    assert report["classification"]["regions"][0]["kind"] == "cylindrical"
    assert not (out / "striction.csv").exists()
    assert not (out / "mesh.obj").exists()  # ambient dimension 4
    assert report["outputs"] == {"mesh": None, "striction_csv": []}


@pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3)])
def test_numpy_integer_seed_is_its_int(seed):
    assert run_selftest(seed=seed, t_samples=20) == run_selftest(seed=3, t_samples=20)


def test_report_deterministic(tmp_path):
    a = analyze(ingest(CONE_SCENE), tmp_path / "a")
    b = analyze(ingest(CONE_SCENE), tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


def test_analyze_writes_the_same_bytes_at_any_seed(pytestconfig, tmp_path):
    # analyze ignores its seed keyword: every output of the shipped scenes
    # and of the osculating developable (m = 3 in R^4, with a free sheet
    # coordinate) is the same at two seeds, and the report has no seed
    sources = [(path.stem, str(path))
               for path in sorted((pytestconfig.rootpath / "scenes").glob("*.json"))]
    for stem, source in sources + [("osculating_m3_r4", osculating_scene(0, 3, 4))]:
        outs = [tmp_path / f"{stem}-{seed}" for seed in (0, 7)]
        reports = [analyze(ingest(source), out, seed=seed)
                   for out, seed in zip(outs, (0, 7))]
        assert "seed" not in reports[0]
        assert reports[0] == reports[1]
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == sorted(f.name for f in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    scene = write_scene(tmp_path, CONE_SCENE)
    result = CliRunner().invoke(main, ["analyze", scene, "-o", str(tmp_path / "cli"),
                                       "--seed", "1"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output


# --- CLI ---------------------------------------------------------------------

def test_cli_analyze_end_to_end(tmp_path):
    scene = write_scene(tmp_path, CONE_SCENE)
    out = tmp_path / "out"
    runner = CliRunner()
    result = runner.invoke(main, ["analyze", scene, "-o", str(out),
                                  "--t-samples", "24", "--no-invariance"])
    assert result.exit_code == 0, result.output
    assert "conical" in result.output
    assert (out / "report.json").exists()


def test_cli_analyze_writes_the_mesh_on_request_only(tmp_path):
    scene = write_scene(tmp_path, CONE_SCENE)
    out = tmp_path / "out"
    runner = CliRunner()
    result = runner.invoke(main, ["analyze", scene, "-o", str(out), "--mesh"])
    assert result.exit_code == 0, result.output
    requested = (out / "report.json").read_bytes()
    assert json.loads(requested)["outputs"] == {"mesh": "mesh.obj",
                                                "striction_csv": ["striction.csv"]}
    obj = (out / "mesh.obj").read_bytes()
    assert obj.startswith(b"o patch\n") and b"\no striction\n" in obj
    # a default run writes no mesh and lists none; it deletes nothing, so
    # the mesh of the earlier run stays
    result = runner.invoke(main, ["analyze", scene, "-o", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["outputs"] == {"mesh": None, "striction_csv": ["striction.csv"]}
    assert (out / "mesh.obj").read_bytes() == obj
    assert json.loads(requested) == dict(report, outputs=dict(report["outputs"],
                                                              mesh="mesh.obj"))
    default = tmp_path / "default"
    assert runner.invoke(main, ["analyze", scene, "-o", str(default)]).exit_code == 0
    assert not (default / "mesh.obj").exists()


@pytest.mark.parametrize("name", ["cylinder_helix_r4", "two_rotation_r5"])
def test_cli_mesh_on_a_scene_with_no_obj_form_is_a_note(pytestconfig, tmp_path, name):
    scene = str(pytestconfig.rootpath / "scenes" / f"{name}.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["analyze", scene, "-o", str(out), "--mesh"])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines().count(f"note: {NO_OBJ_FORM_NOTE}") == 1
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["notes"].count(NO_OBJ_FORM_NOTE) == 1
    assert report["outputs"]["mesh"] is None
    assert sorted(f.name for f in out.iterdir()) == sorted(
        ["report.json", "normalized_scene.json", *report["outputs"]["striction_csv"]])


def test_cli_analyze_missing_scene_exits_2(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["analyze", str(tmp_path / "nope.json"),
                                  "-o", str(tmp_path / "out")])
    assert result.exit_code == 2


def test_cli_analyze_numeric_error_exits_3(tmp_path):
    scene = write_scene(tmp_path, DEPENDENT_FRAME)
    runner = CliRunner()
    result = runner.invoke(main, ["analyze", scene, "-o", str(tmp_path / "out")])
    assert result.exit_code == 3


def test_cli_analyze_unexpected_error_exits_3_without_traceback(tmp_path, monkeypatch):
    import ruledkit.analysis

    def failing_stage(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(ruledkit.analysis, "classify_patch", failing_stage)
    scene = write_scene(tmp_path, CONE_SCENE)
    result = CliRunner().invoke(main, ["analyze", scene, "-o", str(tmp_path / "out"),
                                       "--no-invariance"])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stderr.splitlines() == [
        "error: analyze failed: LinAlgError: SVD did not converge"]


@pytest.mark.parametrize("args", [
    ["analyze", "{scene}", "-o", "{out}", "--t-samples", "-5"],
    ["analyze", "{scene}", "-o", "{out}", "--u-extent", "inf", "--no-invariance"],
    ["selftest", "--t-samples", "-5"],
])
def test_cli_grid_overrides_follow_the_grid_rules(tmp_path, args):
    scene = write_scene(tmp_path, CONE_SCENE)
    args = [a.format(scene=scene, out=tmp_path / "out") for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("args,message", [
    (["analyze", "{scene}", "-o", "{out}", "--zero-tol", "inf"],
     "zero_abs_tol must be finite and strictly positive, got inf"),
    (["selftest", "--zero-tol", "inf"],
     "zero_abs_tol must be finite and strictly positive, got inf"),
    (["analyze", "{scene}", "-o", "{out}", "--u-extent", "nan"],
     "u_extent must be finite and strictly positive, got nan"),
], ids=["analyze-zero-tol", "selftest-zero-tol", "analyze-u-extent"])
def test_cli_non_finite_overrides_name_the_rule(tmp_path, args, message):
    scene = write_scene(tmp_path, CONE_SCENE)
    args = [a.format(scene=scene, out=tmp_path / "out") for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"error: {message}"]


# --- scene fuzzing -----------------------------------------------------------

COEFFICIENT = st.floats(-2.0, 2.0, allow_subnormal=False)
NONZERO = st.floats(0.25, 2.0) | st.floats(-2.0, -0.25)


def fourier_fields(dim, moving=False):
    coordinate = st.fixed_dictionaries({
        "constant": COEFFICIENT, "cos": st.lists(COEFFICIENT, max_size=2),
        "sin": st.lists(COEFFICIENT, max_size=2), "omega": st.floats(0.5, 2.0)})
    coords = st.lists(coordinate, min_size=dim, max_size=dim)
    if moving:  # a nonzero first cosine in one coordinate
        coords = st.tuples(coords, st.integers(0, dim - 1), NONZERO).map(
            lambda a: [dict(c, cos=[a[2]] + c["cos"][1:]) if i == a[1] else c
                       for i, c in enumerate(a[0])])
    return coords.map(lambda c: {"kind": "fourier", "coordinates": c})


def polynomial_fields(dim, moving=False):
    coeffs = st.lists(st.lists(COEFFICIENT, min_size=1, max_size=3), min_size=dim, max_size=dim)
    if moving:  # a nonzero linear term in one coordinate
        coeffs = st.tuples(coeffs, st.integers(0, dim - 1), NONZERO).map(
            lambda a: [c[:1] + [a[2]] + c[2:] if i == a[1] else c
                       for i, c in enumerate(a[0])])
    return coeffs.map(lambda c: {"kind": "polynomial", "coefficients": c})


def constant_fields(dim):
    return st.lists(COEFFICIENT, min_size=dim, max_size=dim).map(
        lambda v: {"kind": "constant", "value": v})


@st.composite
def explicit_scenes(draw):
    """Schema-valid explicit scenes with a directrix that is not constant."""
    dim, m = draw(st.integers(3, 4)), draw(st.integers(2, 3))
    directrix = draw(fourier_fields(dim, moving=True) | polynomial_fields(dim, moving=True))
    frame = [draw(fourier_fields(dim) | polynomial_fields(dim) | constant_fields(dim))
             for _ in range(m - 1)]
    lo = draw(st.floats(-1.0, 1.0))
    return {"ambient_dim": dim, "m": m, "directrix": directrix, "frame": frame,
            "interval": [lo, lo + draw(st.floats(0.5, 6.5))],
            "grid": {"t_samples": draw(st.integers(3, 30)),
                     "u_samples_per_axis": draw(st.integers(1, 3))}}


@settings(max_examples=100, deadline=None)
@given(explicit_scenes())
def test_cli_analyze_survives_schema_valid_scenes(doc):
    validate_scene(doc)
    with tempfile.TemporaryDirectory() as tmp:
        scene = os.path.join(tmp, "scene.json")
        with open(scene, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        result = CliRunner().invoke(main, ["analyze", scene, "-o", out])
        assert result.exit_code in (0, 2, 3), result.exception
        assert "Traceback" not in result.output
        if result.exit_code == 0:
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh)
            jsonschema.validate(report, REPORT_SCHEMA)
            bound = min(doc["m"] - 1, doc["ambient_dim"] - doc["m"] + 1)
            assert max(report["degree_profile"]["degree"]) <= bound


def test_package_exports_exactly_the_names_readme_lists(pytestconfig):
    import importlib
    import re
    import ruledkit
    from perfbench import tracer
    readme = (pytestconfig.rootpath / "README.md").read_text()
    section = readme.split("### Public names", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- "):]
    listed = re.findall(r"`(\w+)`", bullets)
    assert sorted(listed) == sorted(ruledkit.__all__)
    assert len(set(listed)) == len(listed)
    assert all(hasattr(ruledkit, name) for name in ruledkit.__all__)
    # what the benchmark reads from the package and binds in its modules
    assert ruledkit.ingest is ruledkit.scene.ingest
    assert ruledkit.rho_at is ruledkit.distribution.rho_at
    for modname, attr, _ in tracer.FUNCTIONS:
        assert hasattr(importlib.import_module(f"ruledkit.{modname}"), attr)


def test_version_constant_matches_pyproject(pytestconfig):
    import re
    import ruledkit
    text = (pytestconfig.rootpath / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.+)"$', text, re.M).group(1) == ruledkit.__version__


def test_report_generator_is_the_package_version(tmp_path):
    import ruledkit
    report = analyze(ingest(CYLINDER_SCENE), tmp_path / "out", invariance=False)
    assert report["generator"] == f"ruledkit {ruledkit.__version__}"


def test_cli_list_builtins():
    result = CliRunner().invoke(main, ["list-builtins"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "curve:circle                           unit-speed circle of radius r in the z=0 plane",
        "curve:helix                            unit-speed circular helix; "
        "params a (radius), b (pitch slope)",
        "curve:line                             unit-speed line; params point, direction",
        "patch:circular_cone                    cone with apex at the origin; params r, h",
        "patch:cylinder_helix                   cylinder over a helix in R^4 "
        "(one constant ruling direction)",
        "patch:helicoid_frame                   right helicoid in R^3 "
        "(axis directrix, rotating ruling)",
        "patch:rotating_cylinder                degree-0 patch in R^3 whose frame rotates "
        "inside a constant plane",
        "patch:tangent_developable_helix        tangent developable of the unit-speed helix; "
        "params a, b",
        "patch:tangent_developable_product      helix tangent developable times a constant "
        "direction (R^4, m=3)",
        "patch:two_rotation_r5                  degree-2 ruled patch in R^5 with two rotating "
        "rulings",
    ]


def test_cli_selftest_bad_tolerance_exits_4():
    result = CliRunner().invoke(
        main, ["selftest", "--t-samples", "24", "--rank-tol", "0.5"])
    assert result.exit_code == 4
    assert "FAIL" in result.output


def test_selftest_fails_loudly_with_bad_tolerance():
    results = run_selftest(tol=TolerancePolicy(rank_rel_tol=0.5), t_samples=24)
    assert not all_passed(results)
    assert sum(not r.passed for r in results) >= 3


def test_shipped_scenes_ingest(pytestconfig):
    import pathlib
    scene_dir = pathlib.Path(pytestconfig.rootpath) / "scenes"
    scenes = sorted(scene_dir.glob("*.json"))
    assert len(scenes) >= 5
    for scene in scenes:
        result = ingest(str(scene), overrides={"t_samples": 16})
        result.patch.fc.validate_on(result.patch.grid, result.patch.tol)


def test_degree_detection_breaks_with_bad_rank_tolerance():
    # unequal rotation rates: the slow direction falls below a 0.5 relative
    # cutoff, so the degree check fails loudly under that override
    from ruledkit import SampleGrid
    from ruledkit.distribution import degree_profile
    from ruledkit.fields import FourierField, PolynomialField
    from ruledkit.parametric import FramedCurve
    directrix = PolynomialField([[0.0, 1.0], [0.0], [0.0], [0.0], [0.0]])
    x1 = FourierField([(0.0, [], [], 1.0), (0.0, [1.0], [], 1.0),
                       (0.0, [], [1.0], 1.0), (0.0, [], [], 1.0), (0.0, [], [], 1.0)])
    x2 = FourierField([(0.0, [], [], 0.4), (0.0, [], [], 0.4), (0.0, [], [], 0.4),
                       (0.0, [1.0], [], 0.4), (0.0, [], [1.0], 0.4)])
    fc = FramedCurve(5, 3, directrix, (x1, x2), (0.0, 6.0))
    grid = SampleGrid.uniform(fc.interval, 16)
    assert degree_profile(fc, grid, TolerancePolicy()).constant_degree == 2
    assert degree_profile(fc, grid, TolerancePolicy(rank_rel_tol=0.5)).constant_degree == 1


# --- arithmetic bounds: the phase of the sines, the sweep of the rulings ------------

#: largest |omega t| at which a sine still resolves its derivatives' phase
PHASE_LIMIT = TolerancePolicy().derivative_check_tol * 2.0 ** 53


def _refused_by_cli(tmp_path, doc, match):
    """The CLI's `analyze` of `doc` under -W error::RuntimeWarning: exit 2,
    one `error:` line naming `match`, no traceback and no output files."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["analyze", write_scene(tmp_path, doc), "-o", str(out)])
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and match in lines[0]
    assert "Traceback" not in result.output and not out.exists()


def test_ingest_refuses_an_interval_past_the_phase_limit(tmp_path):
    # the cone's frame is a Fourier field of frequency 1: |omega t| = t
    with pytest.raises(ValidationError, match="phase"):
        ingest({"builtin_patch": "circular_cone", "interval": [0.0, 1.001 * PHASE_LIMIT]})
    with pytest.raises(ValidationError, match="phase"):
        ingest({"builtin_patch": "circular_cone", "interval": [-1.001 * PHASE_LIMIT, 0.0]})
    result = ingest({"builtin_patch": "circular_cone", "interval": [0.0, 0.999 * PHASE_LIMIT]})
    assert result.patch.fc.interval[1] == 0.999 * PHASE_LIMIT
    _refused_by_cli(tmp_path, {"builtin_patch": "circular_cone", "interval": [0, 1e300]}, "phase")


def test_ingest_refuses_a_u_extent_whose_sweep_overflows(tmp_path):
    from ruledkit.scene import check_sweep_scale
    cone = {"builtin_patch": "circular_cone"}
    values = ingest(cone).patch.values
    # the cone's derivatives have largest entries of 1 or less, so the
    # order-1 sweep |g'| + u |Xdot| (root 3 each) stays below
    # sqrt(max float / 1024) up to about 3.4e152
    with pytest.raises(ValidationError, match="u_extent"):
        check_sweep_scale(values, 4.2e152)
    check_sweep_scale(values, 1e152)
    with pytest.raises(ValidationError, match="u_extent"):
        ingest(cone, overrides={"u_extent": 1e155})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ingest(cone, overrides={"u_extent": 1e152})
    _refused_by_cli(tmp_path, {**cone, "grid": {"u_extent": 1e155}}, "u_extent")


def test_shipped_scenes_sit_far_below_the_arithmetic_bounds(pytestconfig):
    import pathlib
    from perfbench.scenegen import explicit_scene
    from ruledkit.parametric import FramedCurve
    from ruledkit.scene import _build_framed_curve, check_phase_resolution, check_sweep_scale
    from ruledkit.selftest import build_corpus
    from scene_families import FAMILIES
    scene_dir = pathlib.Path(pytestconfig.rootpath) / "scenes"
    docs = [json.loads(path.read_text()) for path in sorted(scene_dir.glob("*.json"))]
    docs += [make(seed) for make, _ in FAMILIES.values() for seed in range(3)]
    docs += [explicit_scene(seed) for seed in range(8)]
    docs += [{"builtin_patch": name} for name in ("circular_cone", "two_rotation_r5")]
    tol = TolerancePolicy()
    for doc in docs:
        fc = _build_framed_curve(doc)
        wide = FramedCurve(fc.dim, fc.m, fc.directrix, fc.frame,
                           (1e4 * fc.interval[0], 1e4 * fc.interval[1]))
        check_phase_resolution(wide, tol)
        p = ingest(doc).patch
        check_sweep_scale(p.values, 1e100 * p.grid.u_extent)
    for p in build_corpus(tol, 200).values():
        check_phase_resolution(FramedCurve(p.fc.dim, p.fc.m, p.fc.directrix, p.fc.frame,
                                           (1e4 * p.fc.interval[0], 1e4 * p.fc.interval[1])), tol)
        check_sweep_scale(p.values, 1e100 * p.grid.u_extent)
