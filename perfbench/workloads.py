"""The benchmark's workloads, and the correctness oracle of each operation.

An operation is one closed-loop request: `ingest` + `analyze` of one
scene, or one `run_selftest`. Every call into ruledkit goes through a
module attribute at call time, so the tracer's rebinding sees it.

Why these four workloads:

- corpus: the everyday path, the seven shipped scenes at their own grids
  with the invariance check on. The invariance stage (ParameterMap
  quadrature and a least-squares fit per sheet sample) is most of it.
- refine: the cone and the R^5 scene at 800 samples, invariance off. It
  stresses the per-sample loops (rho, SVDs, second-form scan, striction
  solve) and never builds a ParameterMap or calls least_squares, so a
  change to invariance should not move it and batching should move it most.
- explicit: seeded user-made scenes that ingest must reparametrize and
  orthonormalize, so every field evaluation goes through nested composed
  fields and parameter maps; invariance is off, because on these fields
  it takes half a minute per scene, too long to repeat within a run.
- selftest: the acceptance corpus, which runs the developability and
  derivative checks that `analyze` never reaches and repeats the
  second-form scan and rank-one check many times. It runs on a quarter
  of the default grid, so a run repeats it often enough for a median.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import jsonschema

import ruledkit
import ruledkit.selftest

from .scenegen import EXPECTED as EXPLICIT_EXPECTED
from .scenegen import explicit_scene

HERE = Path(__file__).resolve().parent
REFINE_SCENES = ("circular_cone", "two_rotation_r5")
REFINE_T_SAMPLES = 800
#: t-samples per patch of the selftest corpus
SELFTEST_T_SAMPLES = 50
#: generated scenes per explicit pass; their times differ from scene to
#: scene, and a pass over several keeps that from setting a run's figure
EXPLICIT_SCENES = 4

WORKLOADS = ("corpus", "refine", "explicit", "selftest")


def expected_table() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)["scenes"]


def report_schema(root: Path) -> dict:
    with open(root / "src" / "ruledkit" / "schemas" / "report.schema.json") as fh:
        return json.load(fh)


def check_report(report: dict, schema: dict, expected: dict,
                 invariance: bool) -> list[str]:
    """Problems with one analysis report; an empty list means correct."""
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return [f"report does not match report.schema.json: {exc.message}"]
    problems = []
    got = {
        "degree": report["degree_profile"]["constant_degree"],
        "kinds": [r["kind"] for r in report["classification"]["regions"]],
        "rank_one": report["rank_one"]["verdict"],
    }
    for key, want in expected.items():
        if got[key] != want:
            problems.append(f"{key} is {got[key]!r}, expected {want!r}")
    inv = report["directrix_invariance"]
    if invariance and expected["degree"] >= 1:
        if inv is None:
            problems.append("invariance section missing")
        elif inv["skipped"]:
            problems.append(f"invariance skipped offsets: {inv['skipped']}")
    if not invariance and inv is not None:
        problems.append("invariance ran although it was turned off")
    return problems


@dataclass
class AnalyzeOp:
    """`ingest` + `analyze` of one scene, checked against its expected verdicts."""

    name: str
    source: Path | dict
    overrides: dict
    seed: int
    invariance: bool
    expected: dict
    samples: int
    schema: dict
    out_dir: Path

    def run(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        result = ruledkit.scene.ingest(self.source, self.overrides)
        ruledkit.analysis.analyze(result, str(self.out_dir), seed=self.seed,
                                  invariance=self.invariance)

    def output(self) -> bytes:
        return (self.out_dir / "report.json").read_bytes()

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.iterdir())

    def check(self) -> list[str]:
        report = json.loads(self.output())
        return check_report(report, self.schema, self.expected, self.invariance)


class SelftestOp:
    """`run_selftest` on SELFTEST_T_SAMPLES per patch; every check must pass."""

    name = "selftest"
    samples = len(ruledkit.selftest.CORPUS_DEGREES) * SELFTEST_T_SAMPLES

    def __init__(self, seed):
        self.seed = seed
        self.results = []

    def run(self):
        self.results = ruledkit.selftest.run_selftest(seed=self.seed,
                                                      t_samples=SELFTEST_T_SAMPLES)

    def output(self) -> bytes:
        return ruledkit.selftest.format_results(self.results).encode()

    def output_bytes(self) -> int:
        return 0

    def check(self) -> list[str]:
        if not self.results:
            return ["selftest returned no results"]
        return [r.line() for r in self.results if not r.passed]


def build(workload: str, root: Path, seed: int, out_root: Path) -> list:
    """The operations of one pass of `workload`, in the order they run."""
    default_t = ruledkit.scene.DEFAULT_GRID["t_samples"]
    if workload == "selftest":
        return [SelftestOp(seed)]
    schema = report_schema(root)
    table = expected_table()

    def scene_op(stem, overrides, invariance):
        path = root / "scenes" / f"{stem}.json"
        with open(path) as fh:
            grid = json.load(fh).get("grid", {})
        samples = overrides.get("t_samples") or grid.get("t_samples", default_t)
        return AnalyzeOp(stem, path, overrides, seed, invariance, table[stem],
                         samples, schema, out_root / stem)

    if workload == "corpus":
        return [scene_op(stem, {}, True) for stem in sorted(table)]
    if workload == "refine":
        return [scene_op(stem, {"t_samples": REFINE_T_SAMPLES}, False)
                for stem in REFINE_SCENES]
    if workload == "explicit":
        scene_seeds = [seed * EXPLICIT_SCENES + i for i in range(EXPLICIT_SCENES)]
        return [AnalyzeOp(f"explicit_{s}", explicit_scene(s), {}, seed, False,
                          EXPLICIT_EXPECTED, default_t, schema, out_root / f"explicit_{s}")
                for s in scene_seeds]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
