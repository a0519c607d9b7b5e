"""CLI entry point and run orchestration: scenario -> reference run -> guided
run -> evaluation -> reports.

Every run writes a self-contained directory with a JSON manifest recording the
resolved scenario, all seeds, configs, artifact hashes, and timings — enough
to bit-reproduce the run.  Exit codes: 0 success, 2 generation abort,
3 evaluation failure, 4 config error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import __version__
from .contact import ContactSet, farthest_point_sample
from .evaluation import (
    EvalConfig,
    METRICS_SCHEMA_VERSION,
    MetricsReport,
    evaluate_run,
    write_metrics_csv,
)
from .guidance import (
    GenerationAborted,
    GuidanceConfig,
    GuidedTrajectory,
    guided_sample,
    make_reference,
    unguided_sample,
)
from .scenarios import Scenario, build_scenario, derive_run_seeds, standard_suite, suite_scenario
from .voxelcore import (
    PointCloud,
    binarize,
    extract_surface,
    grid_to_bytes,
    load_grid,
    save_grid,
    save_ply,
)

EXIT_OK = 0
EXIT_GENERATION_ABORT = 2
EXIT_EVALUATION_FAILURE = 3
EXIT_CONFIG_ERROR = 4

WORKERS_ENV = "CONTACT_FLOW_WORKERS"

MANIFEST_NAME = "manifest.json"

METHOD_UNGUIDED = "unguided"
METHOD_GUIDED = "guided"
METHOD_GUIDED_NO_RECURRENCE = "guided_no_recurrence"


def worker_count() -> int:
    """Sweep pool size from CONTACT_FLOW_WORKERS, 1 when unset."""
    value = os.environ.get(WORKERS_ENV) or "1"
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {value!r}")
    return int(value)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str:
    return _sha256(path.read_bytes())


def method_label(mode: str, cfg: GuidanceConfig) -> str:
    if mode == "unguided":
        return METHOD_UNGUIDED
    return METHOD_GUIDED if cfg.recurrence > 1 else METHOD_GUIDED_NO_RECURRENCE


def _write_json(path: Path, payload: dict) -> None:
    """Write `payload` to a temporary file beside `path`, then rename it over
    `path`, so readers never see a half-written file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def generate_run(
    scenario: Scenario,
    out_dir,
    mode: str = "guided",
    cfg: GuidanceConfig | None = None,
    run_seed: int | None = None,
    reference_seed: int | None = None,
    external_contacts: ContactSet | None = None,
) -> dict:
    """Build the scenario, run the sampler, and write all artifacts + manifest.

    Returns the manifest dict.  On a non-finite abort the partial manifest
    (with a failure record) is still written before GenerationAborted
    propagates to the caller.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if mode not in ("guided", "unguided"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = cfg if cfg is not None else scenario.guidance_config()
    built = build_scenario(scenario)
    contacts = external_contacts if external_contacts is not None else built.contacts
    if scenario.fps_count is not None and scenario.fps_count < len(contacts):
        cloud = farthest_point_sample(
            PointCloud(contacts.points), scenario.fps_count, seed=scenario.seeds.contacts
        )
        contacts = ContactSet(cloud.points, provenance=contacts.provenance)
    run_seed = run_seed if run_seed is not None else scenario.seeds.guided
    reference_seed = reference_seed if reference_seed is not None else scenario.seeds.reference

    manifest: dict = {
        "tool": "contact-flow",
        "version": __version__,
        "metrics_schema": METRICS_SCHEMA_VERSION,
        "mode": mode,
        "method": method_label(mode, cfg),
        "scenario": built.scenario.to_dict(),
        "guidance": cfg.to_dict(),
        "decoder": built.decoder.to_dict(),
        "model": built.model.describe(),
        "seeds": {"run": run_seed, "reference": reference_seed,
                  "contacts": built.scenario.seeds.contacts},
        "external_contacts": external_contacts is not None,
        "library_hashes": [_sha256(grid_to_bytes(g)) for g in built.library_grids],
        "artifacts": {},
        "timings": {},
        "failure": None,
        "metrics": None,
    }

    def add_artifact(name: str, filename: str):
        manifest["artifacts"][name] = {
            "path": filename,
            "sha256": _file_sha256(out / filename),
        }

    contacts.save(out / "contacts.json")
    add_artifact("contacts", "contacts.json")

    t0 = time.perf_counter()
    trajectory: GuidedTrajectory | None = None
    try:
        if mode == "unguided":
            occupancy = unguided_sample(built.model, built.decoder, cfg, run_seed)
        else:
            t_ref = time.perf_counter()
            reference = make_reference(built.model, built.decoder, cfg, reference_seed)
            manifest["timings"]["reference_s"] = time.perf_counter() - t_ref
            save_grid(reference.occupancy, out / "reference.grid")
            add_artifact("reference", "reference.grid")
            occupancy, trajectory = guided_sample(
                built.model, built.decoder, contacts, reference, cfg, run_seed
            )
    except GenerationAborted as abort:
        manifest["failure"] = {"step": abort.step, "inner": abort.inner, "reason": abort.reason}
        manifest["timings"]["generate_s"] = time.perf_counter() - t0
        if abort.trajectory is not None:
            abort.trajectory.dump_jsonl(out / "trajectory.jsonl")
            add_artifact("trajectory", "trajectory.jsonl")
        _write_json(out / MANIFEST_NAME, manifest)
        raise
    manifest["timings"]["generate_s"] = time.perf_counter() - t0

    save_grid(occupancy, out / "occupancy.grid")
    add_artifact("occupancy", "occupancy.grid")
    binary = binarize(occupancy, cfg.threshold)
    save_grid(binary, out / "shape.grid")
    add_artifact("shape", "shape.grid")
    if not binary.is_empty():
        save_ply(extract_surface(binary), out / "surface.ply")
        add_artifact("surface", "surface.ply")
    if trajectory is not None:
        trajectory.dump_jsonl(out / "trajectory.jsonl")
        add_artifact("trajectory", "trajectory.jsonl")
        manifest["final_J"] = trajectory.final_J
    _write_json(out / MANIFEST_NAME, manifest)
    return manifest


def load_manifest(run_dir) -> dict:
    with open(Path(run_dir) / MANIFEST_NAME) as f:
        return json.load(f)


def verify_manifest(run_dir) -> list[str]:
    """Names of artifacts that are missing or whose hash differs; empty = intact."""
    run = Path(run_dir)
    manifest = load_manifest(run)
    bad = []
    for name, entry in manifest["artifacts"].items():
        path = run / entry["path"]
        if not path.exists() or _file_sha256(path) != entry["sha256"]:
            bad.append(name)
    return bad


def rerun_manifest(manifest: dict, out_dir) -> dict:
    """Re-execute a run from its manifest snapshot (determinism check)."""
    scenario = Scenario.from_dict(manifest["scenario"])
    cfg = GuidanceConfig.from_dict(manifest["guidance"])
    return generate_run(
        scenario,
        out_dir,
        mode=manifest["mode"],
        cfg=cfg,
        run_seed=manifest["seeds"]["run"],
        reference_seed=manifest["seeds"]["reference"],
    )


def evaluate_run_dir(run_dir, eval_cfg: EvalConfig = EvalConfig()) -> MetricsReport:
    """Evaluate one run directory against the ground truth its manifest encodes."""
    run = Path(run_dir)
    manifest = load_manifest(run)
    if manifest.get("failure"):
        raise ValueError(f"run {run} recorded a generation failure; nothing to evaluate")
    scenario = Scenario.from_dict(manifest["scenario"])
    built = build_scenario(scenario)
    occupancy = load_grid(run / manifest["artifacts"]["occupancy"]["path"])
    contacts = ContactSet.load(run / manifest["artifacts"]["contacts"]["path"])
    report = evaluate_run(
        occupancy,
        built.ground_truth,
        contacts,
        eval_cfg,
        scenario=scenario.name,
        method=manifest["method"],
        seed=manifest["seeds"]["run"],
        final_J=manifest.get("final_J", math.nan),
    )
    manifest["metrics"] = report.to_json_dict()
    _write_json(run / MANIFEST_NAME, manifest)
    return report


def summarize_reports(reports: list[MetricsReport]) -> dict:
    """Mean/median per metric per method, shaped like the comparison table."""
    by_method: dict[str, list[MetricsReport]] = {}
    for rep in reports:
        by_method.setdefault(rep.method, []).append(rep)
    summary = {}
    for method, reps in sorted(by_method.items()):
        ok = [r for r in reps if not r.failed]
        row: dict = {"runs": len(reps), "failed": len(reps) - len(ok)}
        if ok:
            for key, values in [
                ("chamfer", [r.chamfer for r in ok]),
                ("f_0.01", [r.f_scores.get(0.01, math.nan) for r in ok]),
                ("f_0.02", [r.f_scores.get(0.02, math.nan) for r in ok]),
                ("f_0.05", [r.f_scores.get(0.05, math.nan) for r in ok]),
                ("contact_residual", [r.contact_residual_median for r in ok]),
            ]:
                row[key] = {
                    "mean": float(np.mean(values)),
                    "median": float(np.median(values)),
                }
        summary[method] = row
    return summary


def format_summary_table(summary: dict) -> str:
    metrics = ["chamfer", "f_0.01", "f_0.02", "f_0.05", "contact_residual"]
    header = f"{'method':<24}{'runs':>6}" + "".join(
        f"{m + ' mean':>18}{m + ' med':>18}" for m in metrics
    )
    lines = [header, "-" * len(header)]
    for method, row in summary.items():
        cells = [f"{method:<24}{row['runs']:>6}"]
        for m in metrics:
            if m in row:
                cells.append(f"{row[m]['mean']:>18.5f}{row[m]['median']:>18.5f}")
            else:
                cells.append(f"{'-':>18}{'-':>18}")
        lines.append("".join(cells))
    return "\n".join(lines)


def evaluate_run_dirs(run_dirs, out_dir=None, eval_cfg: EvalConfig = EvalConfig()):
    """Evaluate many run dirs; returns (reports, skipped).  Writes metrics.csv,
    summary.txt, and summary.json under out_dir when given."""
    reports: list[MetricsReport] = []
    skipped: list[tuple[str, str]] = []
    for run_dir in run_dirs:
        try:
            reports.append(evaluate_run_dir(run_dir, eval_cfg))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            skipped.append((str(run_dir), str(exc)))
    if out_dir is not None and reports:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out / "metrics.csv", reports)
        summary = summarize_reports(reports)
        _write_json(out / "summary.json", summary)
        (out / "summary.txt").write_text(format_summary_table(summary) + "\n")
    return reports, skipped


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_task(args: dict):
    """One guided run of one sweep cell (module-level for process pools)."""
    scenario = Scenario.from_dict(args["scenario"])
    scenario = dataclasses.replace(scenario, seeds=derive_run_seeds(scenario, args["run_index"]))
    cfg = GuidanceConfig.from_dict(args["cfg"])
    try:
        generate_run(scenario, args["out_dir"], mode="guided", cfg=cfg)
    except GenerationAborted as abort:
        return {"run_index": args["run_index"], "aborted": True, "reason": abort.reason,
                "step": abort.step}
    report = evaluate_run_dir(args["out_dir"])
    return {"run_index": args["run_index"], "aborted": False, "report": report.to_json_dict(),
            "chamfer": report.chamfer, "final_J": report.final_J,
            "contact_residual": report.contact_residual_median, "failed": report.failed}


def sweep(
    scenario: Scenario,
    out_dir,
    runs: int,
    lambda_grid: list[tuple[float, float, float]] | None = None,
    recurrence_grid: list[int] | None = None,
    schedule_grid: list[str] | None = None,
    radius_grid: list[int] | None = None,
    base_cfg: GuidanceConfig | None = None,
) -> list[dict]:
    """Cross-product ablation over guidance knobs; one summary row per cell.

    Cells that abort are recorded and the sweep continues.  Runs are
    parallelized across seeds with a process pool (CONTACT_FLOW_WORKERS).
    """
    workers = worker_count()
    base = base_cfg if base_cfg is not None else scenario.guidance_config()
    lambdas = lambda_grid or [base.lambda_stage]
    recurrences = recurrence_grid or [base.recurrence]
    schedules = schedule_grid or [base.schedule]
    radii = radius_grid or [base.radius]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    cell_index = 0
    for lam in lambdas:
        for m in recurrences:
            for sched in schedules:
                for radius in radii:
                    cfg = dataclasses.replace(
                        base,
                        lambda_stage=tuple(lam),
                        recurrence=m,
                        schedule=sched,
                        radius=radius,
                    )
                    cell_dir = out / f"cell_{cell_index:03d}"
                    tasks = [
                        {
                            "scenario": scenario.to_dict(),
                            "cfg": cfg.to_dict(),
                            "run_index": i,
                            "out_dir": str(cell_dir / f"run_{i:03d}"),
                        }
                        for i in range(runs)
                    ]
                    if workers > 1:
                        with ProcessPoolExecutor(max_workers=workers) as pool:
                            results = list(pool.map(_sweep_task, tasks))
                    else:
                        results = [_sweep_task(t) for t in tasks]
                    ok = [r for r in results if not r["aborted"] and not r.get("failed")]
                    aborted = [r for r in results if r["aborted"]]
                    row = {
                        "cell": cell_index,
                        "lambda_stage": list(lam),
                        "recurrence": m,
                        "schedule": sched,
                        "radius": radius,
                        "runs": runs,
                        "aborts": len(aborted),
                        "generation_failures": len(results) - len(ok) - len(aborted),
                    }
                    if ok:
                        row["chamfer_median"] = float(np.median([r["chamfer"] for r in ok]))
                        row["chamfer_mean"] = float(np.mean([r["chamfer"] for r in ok]))
                        row["final_J_median"] = float(np.median([r["final_J"] for r in ok]))
                        row["contact_residual_median"] = float(
                            np.median([r["contact_residual"] for r in ok])
                        )
                    rows.append(row)
                    cell_index += 1
    _write_json(out / "sweep.json", {"scenario": scenario.to_dict(), "cells": rows})
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _resolve_scenario(spec: str, grid_n: int | None) -> Scenario:
    if spec.startswith("suite:"):
        scenario = suite_scenario(spec.split(":", 1)[1], n=grid_n or 16)
    else:
        scenario = Scenario.load(spec)
        if grid_n is not None:
            scenario = dataclasses.replace(scenario, n=grid_n)
    return scenario


def _cfg_from_flags(scenario, lam, recurrence, schedule, radius, timesteps):
    overrides = {}
    if timesteps is not None:
        overrides["timesteps"] = timesteps
        overrides["stage_bounds"] = (timesteps // 3, (2 * timesteps) // 3)
    if lam is not None:
        overrides["lambda_stage"] = tuple(lam)
    if recurrence is not None:
        overrides["recurrence"] = recurrence
    if schedule is not None:
        overrides["schedule"] = schedule
    if radius is not None:
        overrides["radius"] = radius
    return scenario.guidance_config(**overrides)


@click.group()
def main():
    """Contact-guided voxel shape generation and evaluation."""


@main.command()
@click.option("--scenario", "scenario_spec", required=True,
              help="Scenario YAML path, or suite:NAME for a standard-suite scenario.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Run directory.")
@click.option("--seed", type=int, default=None, help="Run seed (defaults to the scenario's).")
@click.option("--reference-seed", type=int, default=None, help="Reference-run seed override.")
@click.option("--unguided", is_flag=True, help="Skip guidance; plain flow sampling.")
@click.option("--lambda", "lam", nargs=3, type=float, default=None,
              help="Stage guidance weights (early middle late).")
@click.option("--recurrence", type=int, default=None, help="Inner guided updates per timestep.")
@click.option("--schedule", type=click.Choice(["staged", "covg"]), default=None)
@click.option("--radius", type=int, default=None, help="Drag neighborhood radius (voxels).")
@click.option("--timesteps", type=int, default=None, help="Number of flow timesteps.")
@click.option("--grid-n", type=int, default=None, help="Latent resolution override.")
@click.option("--contacts", "contacts_path", type=click.Path(exists=True), default=None,
              help="External contact-point JSON instead of sampled contacts.")
def generate(scenario_spec, out_dir, seed, reference_seed, unguided, lam, recurrence,
             schedule, radius, timesteps, grid_n, contacts_path):
    """Generate one shape (guided by default) and write its run directory."""
    try:
        scenario = _resolve_scenario(scenario_spec, grid_n)
        cfg = _cfg_from_flags(scenario, lam or None, recurrence, schedule, radius, timesteps)
        external = ContactSet.load(contacts_path) if contacts_path else None
    except (ValueError, OSError, KeyError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    try:
        generate_run(
            scenario,
            out_dir,
            mode="unguided" if unguided else "guided",
            cfg=cfg,
            run_seed=seed,
            reference_seed=reference_seed,
            external_contacts=external,
        )
    except GenerationAborted as abort:
        click.echo(f"generation aborted: {abort}", err=True)
        sys.exit(EXIT_GENERATION_ABORT)
    click.echo(f"run written to {out_dir}")


@main.command()
@click.argument("run_dirs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Directory for metrics.csv and the summary table.")
def evaluate(run_dirs, out_dir):
    """Evaluate run directories and print a mean/median summary per method."""
    reports, skipped = evaluate_run_dirs(run_dirs, out_dir)
    for run_dir, reason in skipped:
        click.echo(f"skipped {run_dir}: {reason}", err=True)
    if not reports:
        click.echo("no evaluable runs", err=True)
        sys.exit(EXIT_EVALUATION_FAILURE)
    click.echo(format_summary_table(summarize_reports(reports)))


@main.command(name="sweep")
@click.option("--scenario", "scenario_spec", required=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--runs", type=int, default=10, show_default=True, help="Seeds per cell.")
@click.option("--lambda", "lambdas", nargs=3, type=float, multiple=True,
              help="Stage weights; repeat for multiple cells.")
@click.option("--recurrence", "recurrences", type=int, multiple=True)
@click.option("--schedule", "schedules", type=click.Choice(["staged", "covg"]), multiple=True)
@click.option("--radius", "radii", type=int, multiple=True)
@click.option("--timesteps", type=int, default=None)
@click.option("--grid-n", type=int, default=None)
def sweep_command(scenario_spec, out_dir, runs, lambdas, recurrences, schedules, radii,
                  timesteps, grid_n):
    """Cross-product ablation sweep over guidance knobs."""
    try:
        scenario = _resolve_scenario(scenario_spec, grid_n)
        base = _cfg_from_flags(scenario, None, None, None, None, timesteps)
        worker_count()  # a bad CONTACT_FLOW_WORKERS fails here, before any run
    except (ValueError, OSError, KeyError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    rows = sweep(
        scenario,
        out_dir,
        runs,
        lambda_grid=list(lambdas) or None,
        recurrence_grid=list(recurrences) or None,
        schedule_grid=list(schedules) or None,
        radius_grid=list(radii) or None,
        base_cfg=base,
    )
    for row in rows:
        click.echo(json.dumps(row))


if __name__ == "__main__":
    main()
