"""The in-house scene checker (`ruledkit.schemacheck`) against jsonschema,
its oracle: the same verdict on every document, and on an invalid one the
same violations in the same order and the same best match (path,
keyword and message), on the shipped scenes, the hypothesis scenes of
`test_scene_cli` and seeded mutations of each, and on a report's
`outputs` under the report schema."""

import copy
import glob
import json
import os
import random

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.scenegen import explicit_scene
from ruledkit import analyze, ingest
from ruledkit.errors import ConfigError
from ruledkit.scene import _load_schema
from ruledkit.schemacheck import SchemaChecker
from test_scene_cli import EXPLICIT_HELICOID, explicit_scenes

SCHEMA = _load_schema("scene.schema.json")
ORACLE = jsonschema.Draft202012Validator(SCHEMA)
CHECKER = SchemaChecker(SCHEMA)

SCENE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")
SHIPPED = []
for _path in sorted(glob.glob(os.path.join(SCENE_DIR, "*.json"))):
    with open(_path) as _fh:
        SHIPPED.append(json.load(_fh))
SCENES = SHIPPED + [explicit_scene(i) for i in range(4)]


def assert_agrees(doc, checker=CHECKER, oracle=ORACLE):
    want = [(list(e.absolute_path), e.validator, e.message) for e in oracle.iter_errors(doc)]
    got = [(list(v.path), v.keyword, v.message) for v in checker.violations(doc)]
    assert got == want
    best, mine = jsonschema.exceptions.best_match(oracle.iter_errors(doc)), checker.best_error(doc)
    assert (best is None) == (mine is None)
    if best is not None:
        assert (list(mine.path), mine.keyword, mine.message) == \
            (list(best.absolute_path), best.validator, best.message)


def _nodes(doc, path=()):
    """Every (path, value) of the document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) \
        else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    if not path:
        return value
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _pick(rng, doc, keep):
    found = [(path, value) for path, value in _nodes(doc) if keep(value)]
    return rng.choice(found) if found else None


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def drop_required_key(rng, doc):
    branch = ["builtin_patch"] if "builtin_patch" in doc else \
        ["ambient_dim", "m", "directrix", "frame", "interval"]
    fields = [(path, value) for path, value in _nodes(doc)
              if isinstance(value, dict) and "kind" in value]
    if fields and rng.random() < 0.5:
        path, value = rng.choice(fields)
        out = copy.deepcopy(value)
        del out[rng.choice(sorted(out))]
        return _replaced(doc, path, out)
    out = copy.deepcopy(doc)
    out.pop(rng.choice(branch), None)
    return out


def wrong_type(rng, doc):
    path, value = _pick(rng, doc, lambda v: True)
    return _replaced(doc, path, rng.choice(["x", {}, [], None, 1.5]))


def bool_for_number(rng, doc):
    picked = _pick(rng, doc, _number)
    return doc if picked is None else _replaced(doc, picked[0], rng.choice([True, False]))


def integral_float(rng, doc):
    picked = _pick(rng, doc, lambda v: _number(v) and float(v).is_integer())
    return doc if picked is None else _replaced(doc, picked[0], float(picked[1]))


def extra_property(rng, doc):
    path, value = _pick(rng, doc, lambda v: isinstance(v, dict))
    return _replaced(doc, path, dict(value, extra=rng.choice([1, "x", [2]])))


def wrong_kind_payload(rng, doc):
    picked = _pick(rng, doc, lambda v: isinstance(v, dict) and "kind" in v)
    if picked is None:
        return dict(doc, directrix={"kind": rng.choice(["fourier", "constant"])})
    kinds = ["polynomial", "fourier", "constant", "builtin", "spline", 3]
    return _replaced(doc, picked[0], dict(picked[1], kind=rng.choice(kinds)))


def both_branches(rng, doc):
    if "builtin_patch" in doc:
        return dict(EXPLICIT_HELICOID, **doc)
    return dict(doc, builtin_patch=rng.choice(["circular_cone", "unknown"]))


MUTATIONS = [drop_required_key, wrong_type, bool_for_number, integral_float, extra_property,
             wrong_kind_payload, both_branches]


@pytest.mark.parametrize("index", range(len(SCENES)))
def test_checker_agrees_on_scenes_and_their_mutations(index):
    doc = SCENES[index]
    assert_agrees(doc)
    assert CHECKER.best_error(doc) is None
    rng = random.Random(index)
    for mutate in MUTATIONS:
        for _ in range(6):
            assert_agrees(mutate(rng, doc))


@settings(max_examples=60, deadline=None)
@given(explicit_scenes(), st.sampled_from(MUTATIONS), st.integers(0, 2 ** 32 - 1))
def test_checker_agrees_on_drawn_scenes_and_their_mutations(doc, mutate, seed):
    assert_agrees(doc)
    assert_agrees(mutate(random.Random(seed), doc))


@pytest.mark.parametrize("doc", [
    [], "scene", None, 3, {"builtin_patch": True}, {"m": 2.5}, {"m": True},
    {"builtin_patch": "circular_cone", "grid": {"t_samples": 40.0}},
    {"builtin_patch": "circular_cone", "tolerances": {"rank_rel_tol": 1}},
    {"builtin_patch": "circular_cone", "interval": [0, 1, 2]},
    dict(EXPLICIT_HELICOID, directrix={"kind": "fourier", "coordinates": [{}, {"cos": [True]}]}),
    dict(EXPLICIT_HELICOID, frame=[]),
])
def test_checker_agrees_on_edge_documents(doc):
    assert_agrees(doc)


BRANCHES = {"oneOf": [
    {"type": "object", "properties": {"a": {"type": "integer", "minimum": 0}},
     "required": ["a"]},
    {"type": "object", "properties": {"b": {"type": "array", "items": {"enum": [1, 0, [True]]}}},
     "required": ["b"]},
    {"type": ["string", "null"], "const": None},
]}


@pytest.mark.parametrize("doc", [
    {"a": "x"}, {"a": -1}, {"b": [True]}, {"b": [1, [1]]}, {"b": [[True], 2.0, False]},
    {"a": 1, "b": [1]}, {"a": -1, "b": [3]}, {}, None, "", [], True, {"a": 1.0, "b": "x"},
])
def test_checker_agrees_on_the_branch_rules_the_scene_schema_leaves_unused(doc):
    # the scene schema's oneOf branches only require keys, so its errors never
    # send best_match into a branch; and it compares no bool against a number
    checker, oracle = SchemaChecker(BRANCHES), jsonschema.Draft202012Validator(BRANCHES)
    want = jsonschema.exceptions.best_match(oracle.iter_errors(doc))
    got = checker.best_error(doc)
    assert [v.message for v in checker.violations(doc)] == \
        [e.message for e in oracle.iter_errors(doc)]
    assert (got is None) == (want is None)
    if want is not None:
        assert (list(got.path), got.keyword, got.message) == \
            (list(want.absolute_path), want.validator, want.message)


REPORT_SCHEMA = _load_schema("report.schema.json")


@pytest.fixture(scope="module")
def cone_report(tmp_path_factory):
    scene = {"builtin_patch": "circular_cone", "grid": {"t_samples": 24}}
    return json.loads(json.dumps(analyze(ingest(scene), tmp_path_factory.mktemp("cone"),
                                         invariance=False)))


@pytest.mark.parametrize("outputs, message", [
    ({"mesh": None, "striction_csv": ["striction.csv"]}, None),
    ({"mesh": "mesh.obj", "striction_csv": []}, None),
    ({"striction_csv": ["striction.csv"]}, "'mesh' is a required property"),
    ({"mesh": 3, "striction_csv": []}, "3 is not of type 'string', 'null'"),
    ({"mesh": None}, "'striction_csv' is a required property"),
    ({"mesh": None, "striction_csv": [1]}, "1 is not of type 'string'"),
    ({"mesh": None, "striction_csv": [], "obj": "mesh.obj"},
     "Additional properties are not allowed ('obj' was unexpected)"),
])
def test_checker_agrees_on_report_outputs(cone_report, outputs, message):
    doc = dict(cone_report, outputs=outputs)
    checker = SchemaChecker(REPORT_SCHEMA)
    assert_agrees(doc, checker, jsonschema.Draft202012Validator(REPORT_SCHEMA))
    best = checker.best_error(doc)
    assert (best.message if best else None) == message


@pytest.mark.parametrize("schema", [
    {"type": "object", "patternProperties": {"x": {}}},
    {"properties": {"a": {"maxLength": 3}}},
    {"then": {"required": ["a"]}},
    {"$ref": "#/definitions/a"},
    {"additionalProperties": {"type": "string"}},
    {"type": "decimal"},
    {"items": True},
])
def test_checker_refuses_keywords_it_does_not_interpret(schema):
    with pytest.raises(ConfigError):
        SchemaChecker(schema)


def test_checker_skips_annotations_only():
    SchemaChecker({"$schema": "s", "$id": "i", "title": "t", "description": "d"})
    with pytest.raises(ConfigError, match="default"):
        SchemaChecker({"properties": {"a": {"default": 1}}})
