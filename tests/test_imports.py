"""No scipy or jsonschema on the program's path: a fresh interpreter that
imports ruledkit, analyzes every shipped scene and runs the selftest
loads no `scipy` and no `jsonschema` module. Both stay test
dependencies: scipy as the oracle of the interpolants and the
nearest-point fit, jsonschema as the oracle of the scene checker."""

import os
import pathlib
import subprocess
import sys

import ruledkit

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import glob, os, sys
import ruledkit
from ruledkit import analyze, ingest
from ruledkit.selftest import run_selftest


def loaded(stage):
    for package in ("scipy", "jsonschema"):
        names = sorted(n for n in sys.modules if n == package or n.startswith(package + "."))
        if names:
            sys.exit(f"{package} modules loaded after {stage}: {names[:5]}")


loaded("import ruledkit")
scenes = sorted(glob.glob("scenes/*.json"))
assert len(scenes) == 8, scenes
for path in scenes:
    analyze(ingest(path), os.path.join(sys.argv[1], os.path.basename(path)[:-5]))
    loaded(f"analyze of {path}")
run_selftest(t_samples=20)
loaded("run_selftest")
"""


def test_no_scipy_module_after_import_analyze_and_selftest(tmp_path):
    src = str(pathlib.Path(ruledkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
