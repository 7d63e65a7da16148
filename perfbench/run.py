"""Run one ruledkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run it from anywhere; it works on the checkout it sits in. The load is
one closed-loop client in this process: each operation starts when the
previous one has finished. BLAS is pinned to one thread.

With `--trace 0` the operations of the workload repeat, round robin,
until the next one would end after `--seconds` (every operation runs at
least once).

On a shared 2-vCPU Xeon VM the speed of the host drifts by a quarter and
more from one minute to the next, and the same operation's time drifts
with it (CPU time too, so it is not preemption). So the timings are
host-normalized: a fixed reference kernel (`reference_kernel`, small
SVDs and interpreter arithmetic, the mix of ruledkit's per-sample loops)
is timed before every operation and after the last, each operation's
time is divided by the mean of the two kernel times around it, and the
ratio is multiplied by REF_SECONDS, about the kernel's median time on
the reference host. A normalized second is the time the work would take
on a host that runs the kernel in REF_SECONDS; the kernel uses no
ruledkit code, so a change to the program moves the normalized times as
it moves the raw ones.

`norm_wall_s` is one pass, the sum over operations of each one's median
normalized time; `norm_samples_per_s` is the t-samples of a pass over
it. `setup_s` is the median normalized time of several fresh-process
imports of `ruledkit`. The raw seconds of the pass, the kernel's median
raw time and the runs of each operation are printed on the `raw` line.

With `--trace 1` one untraced pass runs, then one traced pass with every
traced name rebound (see `tracer.py`). The per-layer metrics are counts
and seconds of the traced pass; `trace.overhead_s` is its wall time minus
the untraced one. The spans and per-operation counters are written to
`.bench_build/trace/<workload>-<seed>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the `machine` line before
it describes the host. An operation fails when it raises, when its
output fails its oracle (see `workloads.py`), or, in a traced run, when
its output differs from the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
#: about the median seconds of `reference_kernel` on the reference host, a 2-vCPU
#: Intel Xeon VM with Python 3.11.7, numpy 2.4.6 and OpenBLAS on one thread
REF_SECONDS = 0.15
REF_ROUNDS = 12000
REQUIRED = ("pyproject.toml", "src/ruledkit/__init__.py", "scenes")

FIELD_CLASSES = (
    "ConstantField", "PolynomialField", "FourierField", "HelixCurve",
    "CircleCurve", "LineCurve", "EmbeddedField", "DerivativeField",
    "ComposedField", "AffineCombinationField", "FrameCombinationField",
)


def install_metadata() -> Path:
    """Write the package metadata an install would write, so the program's
    `importlib.metadata.version("ruledkit")` resolves from a plain
    checkout. Returns the directory to put on the import path."""
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    site = BUILD / "site"
    info = site / f"{project['name']}-{project['version']}.dist-info"
    info.mkdir(parents=True, exist_ok=True)
    (info / "METADATA").write_text(
        f"Metadata-Version: 2.1\nName: {project['name']}\n"
        f"Version: {project['version']}\n")
    return site


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in sorted(THREAD_ENV)},
    }


def reference_kernel() -> float:
    """Seconds of one run of a fixed kernel that uses no ruledkit code:
    small SVDs and interpreter arithmetic, as in the per-sample loops."""
    import numpy as np

    a = np.arange(18.0).reshape(6, 3) % 7.0 + np.eye(6, 3)
    start = time.perf_counter()
    for i in range(REF_ROUNDS):
        np.linalg.svd(a + i * 1e-6, compute_uv=False)
        sum(k * k for k in range(40))
    return time.perf_counter() - start


def normalized(durations: list[float], refs: list[float]) -> list[float]:
    """Each duration over the mean of the kernel times just before and just
    after it (`refs` has one more entry), in normalized seconds."""
    return [REF_SECONDS * d * 2.0 / (refs[k] + refs[k + 1])
            for k, d in enumerate(durations)]


def measure_setup(env: dict) -> float:
    """Median normalized time of a fresh interpreter importing ruledkit."""
    times, refs = [], [reference_kernel()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ruledkit"], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
        refs.append(reference_kernel())
    return statistics.median(normalized(times, refs))


def run_op(op) -> tuple[float, list[str]]:
    """Run one operation; returns its seconds and, if it raised, the error."""
    start = time.perf_counter()
    try:
        op.run()
    except Exception:  # the benchmark keeps going and counts the failure
        return time.perf_counter() - start, [traceback.format_exc()]
    return time.perf_counter() - start, []


def check_op(op) -> list[str]:
    try:
        return op.check()
    except Exception:  # an unreadable output is a wrong output
        return [traceback.format_exc()]


class Tally:
    """Attempted and failed operations, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, op, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{op.name}: " + "; ".join(problems))


def closed_loop(ops, seconds: float, tally: Tally):
    """Round-robin the operations until the next would end past `seconds`,
    with the reference kernel before each operation and after the last.
    Returns each operation's raw and normalized times, and the kernel times."""
    raw = {op.name: [] for op in ops}
    norm = {op.name: [] for op in ops}
    refs = [reference_kernel()]
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if i >= len(ops) and \
                time.perf_counter() - start + raw[op.name][-1] + refs[-1] > seconds:
            return raw, norm, refs
        elapsed, problems = run_op(op)
        refs.append(reference_kernel())
        raw[op.name].append(elapsed)
        norm[op.name] += normalized([elapsed], refs[-2:])
        tally.add(op, problems or check_op(op))
        i += 1


def pass_time(ops, times: dict[str, list[float]]) -> float:
    """One pass: the sum over operations of each one's median time."""
    return sum(statistics.median(times[op.name]) for op in ops)


def end_to_end(ops, norm, setup_s: float, tally: Tally) -> dict:
    wall = pass_time(ops, norm)
    samples = sum(op.samples for op in ops)
    return {
        "norm_wall_s": (wall, "s"),
        "norm_samples_per_s": (samples / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_ratio": ((tally.attempted - len(tally.failures)) / tally.attempted, "ratio"),
    }


def layer_metrics(agg: dict, counts: dict, samples: int, traced_wall: float,
                  untraced_wall: float, export_bytes: int) -> dict:
    """Per-layer numbers of one traced pass."""
    def calls(name):
        return (agg.get(name, {}).get("calls", 0), "count")

    def self_s(*names):
        return (sum(agg.get(n, {}).get("self_s", 0.0) for n in names), "s")

    def count(name):
        return (counts.get(name, 0), "count")

    rho_calls = calls("distribution.rho_at")[0]
    fv_calls = counts.get("parametric.frame_values.calls", 0)
    fv_hits = counts.get("parametric.frame_values.hits", 0)
    inv_total = agg.get("striction.directrix_invariance", {}).get("total_s", 0.0)
    out = {
        "distribution.rho_at.calls": calls("distribution.rho_at"),
        "distribution.rho_at.per_sample": (rho_calls / samples, "calls/sample"),
        "distribution.rho_at.self_s": self_s("distribution.rho_at"),
        "distribution.pivot_frame.calls": calls("distribution.pivot_frame"),
        "distribution.pivot_frame.self_s": self_s("distribution.pivot_frame"),
        "ruledgeom.second_form_scan.calls": calls("ruledgeom.second_form_scan"),
        "ruledgeom.second_form_scan.self_s": self_s("ruledgeom.second_form_scan"),
        "ruledgeom.rank_one_check.calls": calls("ruledgeom.rank_one_check"),
        "ruledgeom.rank_one_check.self_s": self_s("ruledgeom.rank_one_check"),
        "ruledgeom.first_normal_bounds_check.self_s":
            self_s("ruledgeom.first_normal_bounds_check"),
        "ruledgeom.jacobian_sigma.calls": count("ruledgeom.jacobian_sigma.calls"),
        "ruledgeom.flatness_check.self_s": self_s("ruledgeom.flatness_check"),
        "ruledgeom.tangent_space_stability.self_s":
            self_s("ruledgeom.tangent_space_stability"),
        "oracles.max_derivative_error.self_s": self_s("oracles.max_derivative_error"),
        "selftest.run_selftest.self_s": self_s("selftest.run_selftest"),
        "striction.solve_striction.calls": calls("striction.solve_striction"),
        "striction.solve_striction.self_s": self_s("striction.solve_striction"),
        "striction.solve_striction.fallbacks": count("striction.solve_striction.fallbacks"),
        "striction.assemble_system.calls": count("striction.assemble_system.calls"),
        "striction.singular_locus.self_s": self_s("striction.singular_locus"),
        "striction.equivalent_condition_check.self_s":
            self_s("striction.equivalent_condition_check"),
        "striction.striction_jacobian_rank.calls":
            count("striction.striction_jacobian_rank.calls"),
        "striction.directrix_invariance.self_s": self_s("striction.directrix_invariance"),
        "striction.directrix_invariance.total_s": (inv_total, "s"),
        "striction.directrix_invariance.share": (inv_total / traced_wall, "ratio"),
        "striction.least_squares.calls": calls("striction.least_squares"),
        "striction.least_squares.nfev": count("striction.least_squares.nfev"),
        "fields.ParameterMap.init.calls": calls("fields.ParameterMap.init"),
        "fields.ParameterMap.init.self_s": self_s("fields.ParameterMap.init"),
        "fields.ParameterMap.t.calls": count("fields.ParameterMap.t.calls"),
        "fields.eval.calls": count("fields.eval.calls"),
    }
    for cls in FIELD_CLASSES:
        out[f"fields.{cls}.eval.calls"] = count(f"fields.{cls}.eval.calls")
    out.update({
        "parametric.frame_values.calls": (fv_calls, "count"),
        "parametric.frame_values.hit_ratio": (fv_hits / fv_calls if fv_calls else 0.0,
                                              "ratio"),
        "scene.ingest.self_s": self_s("scene.ingest"),
        "classify.classify_patch.self_s": self_s("classify.classify_patch"),
        "analysis.analyze.self_s": self_s("analysis.analyze"),
        "multilinear.wedge_norm.calls": count("multilinear.wedge_norm.calls"),
        "multilinear.numerical_rank.calls": count("multilinear.numerical_rank.calls"),
        "exports.self_s": self_s("exports.write_json", "exports.write_mesh_obj",
                                 "striction.write_striction_csv"),
        "exports.bytes": (export_bytes, "bytes"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return out


def traced_run(ops, tally: Tally, trace_path: Path, machine: dict) -> dict:
    from perfbench.tracer import Tracer, aggregate, instrumented

    untraced = {}
    for op in ops:
        elapsed, problems = run_op(op)
        untraced[op.name] = (elapsed, op.output() if not problems else None)
        tally.add(op, problems or check_op(op))

    tracer = Tracer()
    per_op = []
    with instrumented(tracer):
        for op in ops:
            tracer.op = op.name
            before = dict(tracer.counts)
            with tracer.span(f"op:{op.name}"):
                elapsed, problems = run_op(op)
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()
                      if v != before.get(k, 0)}
            per_op.append({"op": op.name, "samples": op.samples,
                           "untraced_s": untraced[op.name][0],
                           "traced_s": elapsed, "counts": counts,
                           "bytes": op.output_bytes() if not problems else 0})
            if not problems:
                problems = check_op(op)
            if not problems and op.output() != untraced[op.name][1]:
                problems = ["output differs with tracing on"]
            tally.add(op, problems)

    agg = aggregate(tracer.spans)
    for row in per_op:
        row["spans"] = aggregate([s for s in tracer.spans if s[2] == row["op"]])
        rho = row["spans"].get("distribution.rho_at", {}).get("calls", 0)
        print(f"op {row['op']}: untraced {row['untraced_s']:.3f} s, traced "
              f"{row['traced_s']:.3f} s, {rho / row['samples']:.1f} rho_at per sample, "
              + ", ".join(f"{name} {v['calls']}" for name, v in sorted(row["spans"].items())
                          if not name.startswith("op:")))
    metrics = layer_metrics(
        agg, tracer.counts, samples=sum(op.samples for op in ops),
        traced_wall=sum(r["traced_s"] for r in per_op),
        untraced_wall=sum(u[0] for u in untraced.values()),
        export_bytes=sum(r["bytes"] for r in per_op))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"machine": machine, "ops": per_op, "aggregate": agg,
                   "counts": dict(tracer.counts), "spans": tracer.spans}, fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a ruledkit checkout; missing {missing}",
              file=sys.stderr)
        return 2

    # before numpy is first imported, so BLAS starts with one thread
    os.environ.update(THREAD_ENV)
    site = install_metadata()
    paths = [str(site), str(ROOT / "src")]
    sys.path[:0] = paths + [str(ROOT)]
    seed = args.seed % 2 ** 31

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    machine = machine_info()
    ops = workloads.build(args.workload, ROOT, seed, BUILD / "out" / args.workload)
    tally = Tally()
    if args.trace:
        metrics = traced_run(ops, tally, BUILD / "trace" / f"{args.workload}-{seed}.json",
                             machine)
    else:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        setup_s = measure_setup(env)
        raw, norm, refs = closed_loop(ops, args.seconds, tally)
        metrics = end_to_end(ops, norm, setup_s, tally)
        print("raw " + json.dumps({"wall_s": pass_time(ops, raw),
                                   "ref_s": statistics.median(refs),
                                   "runs": {name: len(t) for name, t in raw.items()}}))

    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("machine " + json.dumps(machine))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
