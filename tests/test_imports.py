"""Nothing but the program's own dependencies on its path: a fresh
interpreter that imports ruledkit, analyzes every shipped scene (through
the library and through the CLI) and runs the selftest loads no `scipy`,
no `jsonschema`, no `numpy.random` and no `secrets` or `hashlib` module.
scipy and jsonschema stay test dependencies: scipy as the oracle of the
interpolants and the nearest-point fit, jsonschema as the oracle of the
scene checker. The selftest's seeded draws come from `ruledkit.splitmix`, so
numpy's generator, and the OpenSSL it loads through `secrets` and
`hashlib`, stay off the path."""

import os
import pathlib
import subprocess
import sys

import ruledkit

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import glob, os, sys


def loaded(stage):
    for package in ("scipy", "jsonschema", "numpy.random", "secrets", "hashlib"):
        names = sorted(n for n in sys.modules if n == package or n.startswith(package + "."))
        if names:
            sys.exit(f"{package} modules loaded after {stage}: {names[:5]}")


import ruledkit
loaded("import ruledkit")
from ruledkit import analyze, ingest
from ruledkit.cli import main
from ruledkit.selftest import run_selftest
scenes = sorted(glob.glob("scenes/*.json"))
assert len(scenes) == 8, scenes
for path in scenes:
    out = os.path.join(sys.argv[1], os.path.basename(path)[:-5])
    analyze(ingest(path), out)
    loaded(f"analyze of {path}")
    main(["analyze", path, "-o", out + "-cli"], standalone_mode=False)
    loaded(f"CLI analyze of {path}")
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
