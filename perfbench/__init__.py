"""Benchmark for ruledkit: workloads, correctness oracles and an outside-in tracer.

Run it from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are per-layer
numbers from a traced pass, whose spans are written under `.bench_build/`.
"""
