"""Tests of the benchmark's own parts: scene generator, tracer, oracle, contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from scipy.optimize import least_squares

import ruledkit
import ruledkit.selftest  # loaded up front, as instrumented() would load it
from perfbench import run, scenegen, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]


def _scene_schema():
    with open(ROOT / "src" / "ruledkit" / "schemas" / "scene.schema.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", range(25))
def test_explicit_scenes_are_schema_valid(seed):
    scene = scenegen.explicit_scene(seed)
    jsonschema.validate(scene, _scene_schema())
    ruledkit.scene.validate_scene(scene)


def test_explicit_scenes_are_deterministic_by_seed():
    assert json.dumps(scenegen.explicit_scene(7)) == json.dumps(scenegen.explicit_scene(7))
    assert scenegen.explicit_scene(7) != scenegen.explicit_scene(8)


def test_explicit_scene_needs_reparametrization_and_orthonormalization():
    result = ruledkit.ingest(scenegen.explicit_scene(3))
    assert result.normalized["normalization"] == {"reparametrized": True,
                                                  "orthonormalized": True}


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        (0, None, "op", "a", 0.0, 10.0),
        (1, 0, "op", "b", 1.0, 3.0),
        (2, 0, "op", "c", 2.0, 4.0),   # overlaps b: the overlap counts once
        (3, 0, "op", "d", 9.0, 12.0),  # runs past a: only [9, 10] is covered
        (4, 1, "op", "e", 1.5, 2.5),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    agg = tracer.aggregate(spans)
    assert agg["a"] == {"calls": 1, "total_s": pytest.approx(10.0),
                        "self_s": pytest.approx(6.0)}


def test_live_spans_nest_and_account_for_all_time():
    t = tracer.Tracer()
    t.op = "x"
    with t.span("outer"):
        with t.span("inner"):
            sum(range(10000))
    (outer, inner) = t.spans
    assert inner[1] == outer[0] and outer[1] is None
    assert outer[2] == inner[2] == "x"
    selfs = tracer.self_times(t.spans)
    assert selfs[0] + (inner[5] - inner[4]) == pytest.approx(outer[5] - outer[4])


def test_times_are_normalized_by_the_kernel_times_around_them():
    ref = run.REF_SECONDS
    got = run.normalized([3.0, 6.0], [ref, 3 * ref, 3 * ref])
    assert got == pytest.approx([1.5, 2.0])
    assert run.reference_kernel() > 0


def _bindings():
    """Every name bound in a ruledkit module or on a ruledkit class."""
    out = {}
    for mod in tracer.ruledkit_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("ruledkit"):
                for attr, member in vars(value).items():
                    out[(value.__module__, value.__qualname__, attr)] = member
    return out


def _assert_same(before, after):
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed


def test_instrumentation_rebinds_then_restores_every_name():
    original_rho = ruledkit.distribution.rho_at
    before = _bindings()
    with tracer.instrumented(tracer.Tracer()):
        assert ruledkit.distribution.rho_at is not original_rho
        assert ruledkit.striction.rho_at is ruledkit.distribution.rho_at
        assert ruledkit.rho_at is ruledkit.distribution.rho_at
        assert ruledkit.striction.least_squares is not least_squares
        assert vars(ruledkit.fields.FourierField)["eval"] is not \
            before[("ruledkit.fields", "FourierField", "eval")]
    _assert_same(before, _bindings())

    with pytest.raises(RuntimeError):
        with tracer.instrumented(tracer.Tracer()):
            raise RuntimeError("boom")
    _assert_same(before, _bindings())


@pytest.fixture(scope="module")
def cone_ops(tmp_path_factory):
    """The same small cone operation, run untraced and traced."""
    out = tmp_path_factory.mktemp("cone")
    schema = workloads.report_schema(ROOT)
    expected = workloads.expected_table()["circular_cone"]

    def op(name):
        return workloads.AnalyzeOp(name, ROOT / "scenes" / "circular_cone.json",
                                   {"t_samples": 60}, 3, True, expected, 60,
                                   schema, out / name)
    plain, traced = op("plain"), op("traced")
    plain.run()
    t = tracer.Tracer()
    with tracer.instrumented(t):
        traced.run()
    return plain, traced, t


def test_report_bytes_identical_with_tracing_on_and_off(cone_ops):
    plain, traced, t = cone_ops
    assert plain.output() == traced.output()
    agg = tracer.aggregate(t.spans)
    assert agg["analysis.analyze"]["calls"] == 1
    assert agg["striction.least_squares"]["calls"] > 0
    assert t.counts["fields.eval.calls"] > 0


def test_oracle_accepts_the_right_report_and_flags_wrong_ones(cone_ops):
    plain = cone_ops[0]
    assert plain.check() == []
    report = json.loads(plain.output())
    schema, expected = plain.schema, plain.expected

    wrong = json.loads(json.dumps(report))
    wrong["classification"]["regions"][0]["kind"] = "tangent"
    assert any("kinds" in p for p in workloads.check_report(wrong, schema, expected, True))

    wrong = json.loads(json.dumps(report))
    del wrong["rank_one"]
    assert any("schema" in p for p in workloads.check_report(wrong, schema, expected, True))

    wrong = json.loads(json.dumps(report))
    wrong["directrix_invariance"] = None
    assert workloads.check_report(wrong, schema, expected, True)


def test_printed_metrics_are_those_benchmark_json_lists():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)

    class Op:
        name, samples = "op", 10

    tally = run.Tally()
    tally.add(Op, [])
    e2e = run.end_to_end([Op], {"op": [1.0, 2.0]}, 0.5, tally)
    assert e2e["norm_wall_s"] == (1.5, "s")
    layers = run.layer_metrics({}, {}, 1, 1.0, 1.0, 0)
    for printed, listed in ((e2e, bench["end_to_end"]), (layers, bench["per_layer"])):
        assert {name: unit for name, (_, unit) in printed.items()} == \
            {m["name"]: m["unit"] for m in listed}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
