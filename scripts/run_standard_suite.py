#!/usr/bin/env python3
"""Run the standard scenario suite end to end and print the method comparison.

For every suite scenario and paired seed this generates an unguided run, a
guided run, and a guided run without recurrence (m=1), evaluates all of them,
and prints a mean/median table per method, mirroring how the headline
comparison is reported.

Example:
    python scripts/run_standard_suite.py --out runs/suite --grid-n 4 --runs 10
"""

import dataclasses
from pathlib import Path

import click

from contact_flow.harness import (
    evaluate_run_dirs,
    format_summary_table,
    generate_run,
    summarize_reports,
)
from contact_flow.scenarios import derive_run_seeds, standard_suite


@click.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--grid-n", type=int, default=16, show_default=True,
              help="Latent resolution (4 for a quick desk-scale pass).")
@click.option("--runs", type=int, default=None,
              help="Paired seeds per scenario (default: the scenario's own count).")
def main(out_dir, grid_n, runs):
    out = Path(out_dir)
    run_dirs = []
    for scenario in standard_suite(n=grid_n):
        n_runs = runs if runs is not None else scenario.runs
        cfg = scenario.guidance_config()
        cfg_m1 = dataclasses.replace(cfg, recurrence=1)
        for i in range(n_runs):
            sc = dataclasses.replace(scenario, seeds=derive_run_seeds(scenario, i))
            for tag, mode, run_cfg in (
                ("unguided", "unguided", cfg),
                ("guided", "guided", cfg),
                ("guided_m1", "guided", cfg_m1),
            ):
                d = out / scenario.name / f"run_{i:03d}_{tag}"
                generate_run(sc, d, mode=mode, cfg=run_cfg)
                run_dirs.append(d)
        click.echo(f"{scenario.name}: {n_runs} paired seeds done")
    reports, skipped = evaluate_run_dirs(run_dirs, out / "evaluation")
    for run_dir, reason in skipped:
        click.echo(f"skipped {run_dir}: {reason}", err=True)
    click.echo(format_summary_table(summarize_reports(reports)))
    click.echo(f"\nmetrics: {out / 'evaluation' / 'metrics.csv'}")


if __name__ == "__main__":
    main()
