"""Command-line interface.

Subcommands: `analyze <scene> -o <dir> [--mesh]` runs the full pipeline
on a scene file, `selftest` runs the builtin verification corpus,
`list-builtins` prints the available curve and patch families.

Exit codes: 0 success, 2 validation error, 3 numeric/degeneracy error
(and, for `analyze`, any failure the pipeline did not anticipate), 4
self-test failure.
"""

from __future__ import annotations

import sys

import click

from .analysis import analyze as run_analysis
from .errors import NumericError, RuledKitError
from .multilinear import TolerancePolicy
from .parametric import builtin_families
from .scene import ingest
from .selftest import all_passed, format_results, run_selftest


@click.group()
def main():
    """Analyze ruled patches: degree, striction, singularities, classification."""


def _fail(exc: RuledKitError):
    click.echo(f"error: {exc}", err=True)
    sys.exit(exc.exit_code)


@main.command()
@click.argument("scene", type=click.Path())
@click.option("-o", "--out-dir", required=True, type=click.Path(),
              help="Directory for report.json, striction CSVs, normalized scene.")
@click.option("--t-samples", type=int, default=None, help="Override grid t sample count.")
@click.option("--u-extent", type=float, default=None, help="Override ruling truncation radius.")
@click.option("--rank-tol", type=float, default=None, help="Override rank_rel_tol.")
@click.option("--zero-tol", type=float, default=None, help="Override zero_abs_tol.")
@click.option("--no-invariance", is_flag=True, default=False,
              help="Skip the shifted-directrix invariance check.")
@click.option("--mesh", is_flag=True, default=False,
              help="Also write mesh.obj, the OBJ mesh of a surface in R^3 for 3-D viewers.")
def analyze(scene, out_dir, t_samples, u_extent, rank_tol, zero_tol, no_invariance, mesh):
    """Ingest SCENE, run the analysis pipeline, write outputs to OUT-DIR."""
    overrides = {"t_samples": t_samples, "u_extent": u_extent,
                 "rank_rel_tol": rank_tol, "zero_abs_tol": zero_tol}
    stage = "ingest"
    try:
        result = ingest(scene, overrides)
        stage = "analyze"
        report = run_analysis(result, out_dir, invariance=not no_invariance, mesh=mesh)
    except RuledKitError as exc:
        _fail(exc)
    except Exception as exc:  # e.g. a LinAlgError: one line and exit 3, no traceback
        click.echo(f"error: {stage} failed: {type(exc).__name__}: {exc}", err=True)
        sys.exit(NumericError.exit_code)
    for note in report["notes"]:
        click.echo(f"note: {note}")
    kinds = [r["kind"] for r in report["classification"]["regions"]]
    click.echo(f"degree: {report['degree_profile']['constant_degree']}")
    click.echo(f"regions: {kinds}")
    click.echo(f"rank-one: {report['rank_one']['verdict']}")
    click.echo(f"report written to {out_dir}/report.json")


@main.command()
@click.option("--t-samples", type=int, default=200, show_default=True)
@click.option("--rank-tol", type=float, default=None, help="Override rank_rel_tol.")
@click.option("--zero-tol", type=float, default=None, help="Override zero_abs_tol.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Non-negative seed of the stability sweep's ruling pairs and the "
                   "derivative oracle's sample points.")
def selftest(t_samples, rank_tol, zero_tol, seed):
    """Run the builtin acceptance corpus and print one line per check."""
    defaults = TolerancePolicy()
    try:
        tol = TolerancePolicy(
            rank_rel_tol=rank_tol if rank_tol is not None else defaults.rank_rel_tol,
            zero_abs_tol=zero_tol if zero_tol is not None else defaults.zero_abs_tol,
        )
        results = run_selftest(tol=tol, seed=seed, t_samples=t_samples)
    except RuledKitError as exc:
        _fail(exc)
    click.echo(format_results(results))
    if not all_passed(results):
        sys.exit(4)


@main.command(name="list-builtins")
def list_builtins():
    """Print the builtin curve and patch families."""
    for name, desc in sorted(builtin_families().items()):
        click.echo(f"{name:38s} {desc}")


if __name__ == "__main__":
    main()
