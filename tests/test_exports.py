"""`exports.canonical_json_bytes` against its oracle, the stdlib encoder.

The encoder must give exactly the bytes of
`json.dumps(obj, sort_keys=True, indent=2) + "\\n"` for every value the
stdlib encodes, and raise where it raises.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledkit import analyze, ingest
from ruledkit.exports import canonical_json_bytes

SCENE_DIR = pathlib.Path(__file__).parent.parent / "scenes"


def oracle(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


class ShortFloat(float):
    """A float subclass with its own repr, which JSON ignores."""

    def __repr__(self):
        return "short"


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
texts = st.text(st.characters(), max_size=8)
scalars = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
                    floats, floats.map(np.float64), floats.map(ShortFloat), texts)
rows = st.one_of(st.lists(floats, max_size=6), st.lists(st.integers(-2 ** 70, 2 ** 70),
                                                        max_size=6))
values = st.recursive(
    st.one_of(scalars, rows, st.lists(st.lists(floats, max_size=4), max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(values)
def test_encoder_equals_the_stdlib_encoder(obj):
    assert canonical_json_bytes(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2250738585072014e-308],
    [[float("nan"), 1.0], [0.5, -float("inf")]],
    [True, 1], [1, 1.0], [1.0, 1], [False, 0, None],
    [np.float64(0.1), 0.1], [np.float64("nan")], [ShortFloat(2.5), ShortFloat("inf")],
    [2 ** 200, -(2 ** 64)], [[1, 2], [3]], [[1.0], [2]], [[1.0], []], [[]], [(), {}],
    [], {}, (), "", {"": []},
    {"café": "☃\U0001f600", "\x00\x1f\x7f": "\n\t\"\\/", "b": {"a": [{}]}},
    {"z": 1, "a": [1.5, (2.5, 3.5)], "m": ((1.0, 2.0), (3.0, 4.0))},
    {1: "int key", 2: [1.0]}, {1.5: 0, -0.5: [[1.0, 2.0]]}, {"a": {False: 1, True: 2}},
    {None: [0.5]},
], ids=repr)
def test_encoder_edge_cases(obj):
    assert canonical_json_bytes(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [object(), [np.int64(1)], {"a": {1, 2}}, {1: 1, "a": 2},
                                 {"a": {False: 1, None: 2}}])
def test_encoder_raises_where_the_stdlib_raises(obj):
    with pytest.raises(TypeError):
        oracle(obj)
    with pytest.raises(TypeError):
        canonical_json_bytes(obj)


@pytest.mark.parametrize("scene", sorted(p.stem for p in SCENE_DIR.glob("*.json")))
def test_shipped_scene_outputs_equal_the_stdlib_encoding(tmp_path, scene):
    result = ingest(str(SCENE_DIR / f"{scene}.json"))
    report = analyze(result, tmp_path)
    assert canonical_json_bytes(report) == oracle(report)
    assert canonical_json_bytes(result.normalized) == oracle(result.normalized)
    for name in ("report.json", "normalized_scene.json"):
        written = (tmp_path / name).read_bytes()
        assert written == oracle(json.loads(written))
