#!/usr/bin/env python3
"""Run the standard scenario suite end to end and print the method comparison.

For every suite scenario and paired seed this generates an unguided run, a
guided run, and a guided run without recurrence (m=1), evaluates all of them,
and prints a mean/median table per method, mirroring how the headline
comparison is reported.  Each scenario's generation time is printed as it
finishes.

Example:
    python scripts/run_standard_suite.py --out runs/suite --grid-n 4 --runs 10
"""

import dataclasses
import time
from pathlib import Path

import click

from contact_flow.harness import (
    ConfigError,
    evaluate_run_dirs,
    format_summary_table,
    generate_run,
    summarize_reports,
)
from contact_flow.scenarios import standard_suite


def _suite_at(ctx, param, n):
    """The standard suite at latent resolution `n`; a usage error naming --grid-n when there is none."""
    try:
        return standard_suite(n=n)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


@click.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--grid-n", "suite", type=int, default=16, show_default=True, callback=_suite_at,
              help="Latent resolution, a multiple of 4 (4 for a quick desk-scale pass).")
@click.option("--runs", type=click.IntRange(min=1), default=None,
              help="Paired seeds per scenario (default: the scenario's own count).")
def main(out_dir, suite, runs):
    out = Path(out_dir)
    try:
        evaluate_run_dirs([], out / "evaluation")  # makes the directory before the first run
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from None
    run_dirs = []
    for scenario in suite:
        n_runs = runs if runs is not None else scenario.runs
        cfg = scenario.guidance_config()
        cfg_m1 = dataclasses.replace(cfg, recurrence=1)
        t0 = time.perf_counter()
        for i in range(n_runs):
            sc = scenario.for_run(i)
            for tag, mode, run_cfg in (
                ("unguided", "unguided", cfg),
                ("guided", "guided", cfg),
                ("guided_m1", "guided", cfg_m1),
            ):
                d = out / scenario.name / f"run_{i:03d}_{tag}"
                generate_run(sc, d, mode=mode, cfg=run_cfg)
                run_dirs.append(d)
        elapsed = time.perf_counter() - t0
        click.echo(f"{scenario.name}: {n_runs} paired seeds done in {elapsed:.2f} s")
    reports, skipped = evaluate_run_dirs(run_dirs, out / "evaluation")
    for run_dir, reason in skipped:
        click.echo(f"skipped {run_dir}: {reason}", err=True)
    click.echo(format_summary_table(summarize_reports(reports)))
    click.echo(f"\nmetrics: {out / 'evaluation' / 'metrics.csv'}")


if __name__ == "__main__":
    main()
