"""CLI entry point and run orchestration: scenario -> reference run -> guided
run -> evaluation -> reports.

Every run writes a self-contained directory with a JSON manifest recording the
resolved scenario, all seeds, configs, artifact hashes, and timings — enough
to bit-reproduce the run.  Exit codes: 0 success, 2 generation abort,
3 evaluation failure, 4 config or usage error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__
from .contact import ContactSet, farthest_point_sample
from .evaluation import (
    F_SCORE_COLUMNS,
    METRICS_SCHEMA_VERSION,
    MetricsReport,
    evaluate_run,
    write_metrics_csv,
)
from .guidance import (
    GenerationAborted,
    GuidanceConfig,
    _check_radius,
    guided_sample,
    make_reference,
    unguided_sample,
)
from .scenarios import Scenario, build_scenario, suite_scenario
from .voxelcore import (
    _convert,
    _expect,
    _grid_parts,
    _read,
    _read_fields,
    _require,
    _unique_keys,
    binarize,
    grid_from_bytes,
    grid_to_bytes,
    nonzero_indices,
    surface_mask,
    voxel_ply,
    voxelize_primitive,
)

EXIT_OK = 0
EXIT_GENERATION_ABORT = 2
EXIT_EVALUATION_FAILURE = 3
EXIT_CONFIG_ERROR = 4

# thread settings a BLAS or OpenMP runtime reads; reductions split across
# threads can round differently, so they are part of a run's environment
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

MANIFEST_NAME = "manifest.json"
# the file each artifact is written to, inside its run directory
ARTIFACT_FILES = {"contacts": "contacts.json", "reference": "reference.grid", "occupancy": "occupancy.grid",
                  "shape": "shape.grid", "surface": "surface.ply", "trajectory": "trajectory.jsonl"}

METHOD_UNGUIDED = "unguided"
METHOD_GUIDED = "guided"
METHOD_GUIDED_NO_RECURRENCE = "guided_no_recurrence"


class ConfigError(ValueError):
    """An invalid scenario or configuration, found before anything is written."""


@contextlib.contextmanager
def _config_errors():
    """Re-raise a ValueError or OSError from the block as a ConfigError."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def _environment() -> dict:
    """The software environment a run's bit-reproducibility depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
    }


def _seeds_block(seeds) -> dict:
    """A manifest's `seeds` block: the scenario's seeds again, under the names a run gives them."""
    return {"run": seeds.guided, "reference": seeds.reference, "contacts": seeds.contacts}


def method_label(mode: str, cfg: GuidanceConfig) -> str:
    if mode == "unguided":
        return METHOD_UNGUIDED
    return METHOD_GUIDED if cfg.recurrence > 1 else METHOD_GUIDED_NO_RECURRENCE


def _write_atomic(path: Path, write) -> None:
    """Call `write(tmp)` on a temporary file beside `path`, then rename it over
    `path`, so readers never see a half-written file; if `write` fails, the
    temporary file is removed and `path` is left as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_parts(path: Path, parts) -> None:
    """Write the bytes-like `parts` to `path`, one after another."""
    with open(path, "wb") as f:
        for part in parts:
            f.write(part)


def _write_json(path: Path, payload: dict) -> None:
    """`payload` as indented, key-sorted JSON, written atomically."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, lambda tmp: tmp.write_text(text))


def generate_run(
    scenario: Scenario,
    out_dir,
    mode: str = "guided",
    cfg: GuidanceConfig | None = None,
    external_contacts: ContactSet | None = None,
) -> dict:
    """Build the scenario, run the sampler on its seeds, and write all artifacts + manifest.

    Returns the manifest dict.  An invalid configuration, a scenario that fails to build,
    an empty reference shape or a run directory that cannot be made raises
    ConfigError before anything is written.  On a non-finite abort, in the
    reference run too, the manifest (with a failure record) and the artifacts
    made so far are still written before GenerationAborted propagates.
    """
    aborted = None
    timings: dict = {}
    with _config_errors():
        cfg = cfg if cfg is not None else scenario.guidance_config()
        seeds = scenario.seeds
        if mode not in ("guided", "unguided"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "guided":
            _check_radius(cfg.radius, scenario.resolution)
        built = build_scenario(scenario)
        t0 = time.perf_counter()
        if mode == "guided":
            try:
                reference = make_reference(built.model, built.decoder, cfg, seeds.reference)
            except GenerationAborted as abort:
                aborted = abort  # recorded below, with the run's manifest
            timings["reference_s"] = time.perf_counter() - t0
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    contacts = external_contacts if external_contacts is not None else built.contacts
    if scenario.fps_count is not None and scenario.fps_count < len(contacts):
        points = farthest_point_sample(contacts.points, scenario.fps_count, seed=seeds.contacts)
        contacts = ContactSet(points, provenance=contacts.provenance)

    manifest: dict = {
        "tool": "contact-flow",
        "version": __version__,
        "metrics_schema": METRICS_SCHEMA_VERSION,
        "mode": mode,
        "method": method_label(mode, cfg),
        "scenario": scenario.to_dict(),
        "guidance": cfg.to_dict(),
        "decoder": built.decoder.to_dict(),
        "model": built.model.describe(),
        "seeds": _seeds_block(seeds),
        # as given, before farthest point sampling, so a rerun can pass them back
        "external_contacts": None if external_contacts is None else external_contacts.to_dict(),
        "library_hashes": [hashlib.sha256(grid_to_bytes(g)).hexdigest() for g in built.library_grids],
        "environment": _environment(),
        "artifacts": {},
        "timings": timings,
        "failure": None,
        "metrics": None,
    }

    def add_artifact(name: str, *parts) -> None:
        """Record the sha256 of one artifact's bytes, the bytes-like `parts` in
        order, and write them atomically: the file is never read back."""
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        filename = ARTIFACT_FILES[name]
        _write_atomic(out / filename, lambda tmp: _write_parts(tmp, parts))
        manifest["artifacts"][name] = {"path": filename, "sha256": digest.hexdigest()}

    add_artifact("contacts", json.dumps(contacts.to_dict(), indent=2).encode())
    occupancy = trajectory = None
    try:
        if mode == "unguided":
            occupancy = unguided_sample(built.model, built.decoder, cfg, seeds.guided)
        elif aborted is None:
            add_artifact("reference", *_grid_parts(reference.occupancy))
            occupancy, trajectory = guided_sample(
                built.model, built.decoder, contacts, reference, cfg, seeds.guided
            )
    except GenerationAborted as abort:
        aborted, trajectory = abort, abort.trajectory
    timings["generate_s"] = time.perf_counter() - t0

    # the one place a run ends: what its outcome has is recorded, then the manifest written
    if aborted is not None:
        manifest["failure"] = {"step": aborted.step, "inner": aborted.inner, "reason": aborted.reason}
    if occupancy is not None:
        add_artifact("occupancy", *_grid_parts(occupancy))
        binary = binarize(occupancy)
        add_artifact("shape", *_grid_parts(binary))
        if not binary.is_empty():
            add_artifact("surface", voxel_ply(nonzero_indices(surface_mask(binary)), binary.resolution))
    if trajectory is not None:
        add_artifact("trajectory", trajectory.to_jsonl().encode())
        # an inner step applies guidance when its weight lambda is not 0
        manifest["guidance_applied_steps"] = sum(rec.lam != 0.0 for rec in trajectory.records)
        if aborted is None:
            manifest["final_J"] = trajectory.final_J
    _write_json(out / MANIFEST_NAME, manifest)
    if aborted is not None:
        raise aborted
    return manifest


def load_manifest(run_dir) -> dict:
    with open(Path(run_dir) / MANIFEST_NAME) as f:
        return _expect(json.load(f, object_pairs_hook=_unique_keys), dict, "run manifest")


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """What evaluate, verify_manifest and rerun_manifest read of a run's manifest.json."""

    scenario: Scenario
    guidance: GuidanceConfig
    mode: str
    seeds: dict
    method: str
    artifacts: dict
    external_contacts: ContactSet | None = None
    failure: dict | None = None
    final_J: float = math.nan

    FIELDS = {"scenario": Scenario.from_dict, "guidance": GuidanceConfig, "mode": str, "seeds": dict,
              "external_contacts": ContactSet.from_dict, "method": str, "artifacts": dict, "failure": dict,
              "final_J": float}
    # blocks written for people and for scripts/compare_runs.py; `_artifact`
    # checks an `artifacts` entry when the artifact is read
    UNREAD = frozenset({"tool", "version", "metrics_schema", "decoder", "model", "library_hashes",
                        "environment", "timings", "metrics", "guidance_applied_steps"})

    def __post_init__(self):
        _read_fields(self)
        # scenario.seeds is the one place a run's seeds are read from; the
        # `seeds` block must repeat them exactly, so compare JSON, where true is not 1
        s, expected = self.scenario.seeds, _seeds_block(self.scenario.seeds)
        if json.dumps(self.seeds, sort_keys=True) != json.dumps(expected, sort_keys=True):
            raise ValueError(f"manifest seeds {self.seeds} disagree with scenario seeds "
                             f"{dataclasses.asdict(s)}, which the block records as {expected}")
        if self.mode not in ("guided", "unguided"):
            raise ValueError(f"manifest mode {self.mode!r} is neither 'guided' nor 'unguided'")
        # evaluate reports a run under its method, so it must be the one mode and guidance give
        label = method_label(self.mode, self.guidance)
        if self.method != label:
            raise ValueError(f"manifest method {self.method!r} is not {label!r}, which its mode and guidance give")

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        # a manifest writes a field that is not set, such as `failure`, as null
        given = {key: value for key, value in _expect(d, dict, "manifest").items() if value is not None}
        return _read(cls, given, "", "manifest", own=cls.UNREAD)


def _artifact(run: Path, artifacts: dict, name: str) -> bytes:
    """The bytes of artifact `name` in run directory `run`, read once; a ValueError naming it when it
    is not an artifact a run writes, its manifest entry is malformed or names another file than the
    one ARTIFACT_FILES gives, or the bytes' sha256 is not the one recorded (OSError: the file is
    unreadable).  A caller parses the bytes it was given, so what it reads is what was checked."""
    what = f"manifest artifact {name!r}"
    if name not in ARTIFACT_FILES:
        raise ValueError(f"{what} is not an artifact a run writes")
    entry = _expect(_require(artifacts, name, "manifest artifacts"), dict, what)
    filename = _expect(_require(entry, "path", what), str, f"{what} path")
    if filename != ARTIFACT_FILES[name]:
        raise ValueError(f"{what} path {filename!r} is not the run's own {ARTIFACT_FILES[name]!r}")
    sha256 = _expect(_require(entry, "sha256", what), str, f"{what} sha256")
    blob = (run / filename).read_bytes()
    if hashlib.sha256(blob).hexdigest() != sha256:
        raise ValueError(f"artifact {name!r} does not match the sha256 its manifest records")
    return blob


def verify_manifest(run_dir) -> list[str]:
    """Names of artifacts that are missing, malformed in the manifest, or whose
    hash differs; empty = intact.  A ValueError when RunManifest refuses the manifest."""
    run = Path(run_dir)
    artifacts = RunManifest.from_dict(load_manifest(run)).artifacts

    def intact(name: str) -> bool:
        try:
            _artifact(run, artifacts, name)
        except (OSError, ValueError):
            return False
        return True

    return [name for name in artifacts if not intact(name)]


def rerun_manifest(manifest: dict, out_dir) -> dict:
    """Re-execute a run from its manifest snapshot (determinism check)."""
    record = RunManifest.from_dict(manifest)
    return generate_run(record.scenario, out_dir, mode=record.mode, cfg=record.guidance,
                        external_contacts=record.external_contacts)


def evaluate_run_dir(run_dir) -> MetricsReport:
    """Evaluate a run directory's shape.grid against its scenario's true primitive, voxelized;
    a ValueError naming `shape` or `contacts` when its bytes are not the ones its manifest records."""
    run = Path(run_dir)
    manifest = load_manifest(run)
    record = RunManifest.from_dict(manifest)
    if record.failure:
        raise ValueError(f"run {run} recorded a generation failure; nothing to evaluate")
    scenario = record.scenario
    shape = grid_from_bytes(_artifact(run, record.artifacts, "shape"))
    contacts = ContactSet.from_json(_artifact(run, record.artifacts, "contacts"))
    report = evaluate_run(shape, voxelize_primitive(scenario.library[scenario.true_index], scenario.resolution),
                          contacts,
                          scenario=scenario.name, method=record.method, seed=scenario.seeds.guided,
                          final_J=record.final_J)
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
                *((name, [r.f_scores.get(tau, math.nan) for r in ok])
                  for tau, name in F_SCORE_COLUMNS.items()),
                ("contact_residual", [r.contact_residual_median for r in ok]),
            ]:
                row[key] = {
                    "mean": float(np.mean(values)),
                    "median": float(np.median(values)),
                }
        summary[method] = row
    return summary


def format_summary_table(summary: dict) -> str:
    metrics = ["chamfer", *F_SCORE_COLUMNS.values(), "contact_residual"]
    labels = [f"{m} {stat}" for m in metrics for stat in ("mean", "med")]
    width = max(map(len, labels)) + 2  # each metric cell: the longest label and two spaces
    header = f"{'method':<24}{'runs':>6}" + "".join(f"{label:>{width}}" for label in labels)
    lines = [header, "-" * len(header)]
    for method, row in summary.items():
        cells = [f"{method:<24}{row['runs']:>6}"]
        for m in metrics:
            if m in row:
                cells.append(f"{row[m]['mean']:>{width}.5f}{row[m]['median']:>{width}.5f}")
            else:
                cells.append(f"{'-':>{width}}{'-':>{width}}")
        lines.append("".join(cells))
    return "\n".join(lines)


def evaluate_run_dirs(run_dirs, out_dir=None):
    """Evaluate many run dirs; returns (reports, skipped).  Writes metrics.csv,
    summary.txt and summary.json to out_dir, made first (else ConfigError)."""
    if out_dir is not None:
        with _config_errors():
            Path(out_dir).mkdir(parents=True, exist_ok=True)
    reports: list[MetricsReport] = []
    skipped: list[tuple[str, str]] = []
    for run_dir in run_dirs:
        try:
            reports.append(evaluate_run_dir(run_dir))
        except (OSError, ValueError) as exc:
            skipped.append((str(run_dir), str(exc)))
    if out_dir is not None and reports:
        out = Path(out_dir)
        _write_atomic(out / "metrics.csv", lambda p: write_metrics_csv(p, reports))
        summary = summarize_reports(reports)
        _write_json(out / "summary.json", summary)
        table = format_summary_table(summary) + "\n"
        _write_atomic(out / "summary.txt", lambda p: p.write_text(table))
    return reports, skipped


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep(
    scenario: Scenario,
    out_dir,
    runs: int,
    lambda_grid: list[tuple[float, float, float]] | None = None,
    recurrence_grid: list[int] | None = None,
    radius_grid: list[int] | None = None,
    base_cfg: GuidanceConfig | None = None,
) -> list[dict]:
    """Cross-product ablation over guidance knobs; one summary row per cell.

    An empty grid keeps the base value.  Bad input raises ConfigError before
    the first run, with nothing written; a run whose reference shape is empty
    ends the sweep with a ConfigError.  Cells that abort are recorded and the
    sweep continues.  Cells run one after another, in this process.
    """
    with _config_errors():
        base = base_cfg if base_cfg is not None else scenario.guidance_config()
        if (runs := _convert(runs, int, "runs")) < 1:  # np.int64(1) is written as 1
            raise ValueError(f"runs per cell must be >= 1, got {runs}")
        cells = []
        for lam, m, radius in itertools.product(
            lambda_grid or [base.lambda_stage], recurrence_grid or [base.recurrence], radius_grid or [base.radius]
        ):
            cfg = dataclasses.replace(base, lambda_stage=lam, recurrence=m, radius=radius)
            _check_radius(cfg.radius, scenario.resolution)
            cells.append(cfg)
        build_scenario(scenario)  # paired runs differ in seeds only
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    rows = []
    for cell_index, cfg in enumerate(cells):
        ok, aborts = [], 0
        for i in range(runs):
            run_dir = out / f"cell_{cell_index:03d}" / f"run_{i:03d}"
            try:
                generate_run(scenario.for_run(i), run_dir, mode="guided", cfg=cfg)
            except GenerationAborted:
                aborts += 1
                continue
            report = evaluate_run_dir(run_dir)
            if not report.failed:
                ok.append(report)
        row = {
            "cell": cell_index,
            "lambda_stage": list(cfg.lambda_stage),
            "recurrence": cfg.recurrence,
            "radius": cfg.radius,
            "runs": runs,
            "aborts": aborts,
            "generation_failures": runs - len(ok) - aborts,
        }
        if ok:
            row["chamfer_median"] = float(np.median([r.chamfer for r in ok]))
            row["chamfer_mean"] = float(np.mean([r.chamfer for r in ok]))
            row["final_J_median"] = float(np.median([r.final_J for r in ok]))
            row["contact_residual_median"] = float(np.median([r.contact_residual_median for r in ok]))
        rows.append(row)
    _write_json(out / "sweep.json", {"scenario": scenario.to_dict(), "cells": rows})
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _resolve_scenario(spec: str, grid_n: int | None) -> Scenario:
    if spec.startswith("suite:"):
        scenario = suite_scenario(spec.split(":", 1)[1], n=16 if grid_n is None else grid_n)
    else:
        scenario = Scenario.load(spec)
        if grid_n is not None:
            scenario = dataclasses.replace(scenario, n=grid_n)
    return scenario


def _cfg_from_flags(scenario, lam, recurrence, radius, timesteps):
    """The scenario's guidance config with each flag that was given in place."""
    flags = {"lambda_stage": lam, "recurrence": recurrence, "radius": radius, "timesteps": timesteps}
    return scenario.guidance_config(**{k: v for k, v in flags.items() if v is not None})


class _Cli(click.Group):
    """The one place an error becomes an exit code: a usage error (an unknown
    option, say) or a ConfigError exits 4, a ConfigError after one `config
    error:` line, and a GenerationAborted exits 2."""

    def make_context(self, *args, **kwargs):
        return self._exit_on_error(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return self._exit_on_error(super().invoke, ctx)

    @staticmethod
    def _exit_on_error(call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CONFIG_ERROR
            raise
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG_ERROR)
        except GenerationAborted as abort:
            click.echo(f"generation aborted: {abort}", err=True)
            sys.exit(EXIT_GENERATION_ABORT)


@click.group(cls=_Cli)
def main():
    """Contact-guided voxel shape generation and evaluation."""


@main.command()
@click.option("--scenario", "scenario_spec", required=True,
              help="Scenario YAML path, or suite:NAME for a standard-suite scenario.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Run directory.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Run seed, in place of the scenario's seeds.guided.")
@click.option("--reference-seed", "ref_seed", type=click.IntRange(min=0), default=None,
              help="Reference-run seed, in place of the scenario's seeds.reference.")
@click.option("--unguided", is_flag=True, help="Skip guidance; plain flow sampling.")
@click.option("--lambda", "lam", nargs=3, type=float, default=None,
              help="Stage guidance weights (early middle late).")
@click.option("--recurrence", type=int, default=None, help="Inner guided updates per timestep.")
@click.option("--radius", type=int, default=None, help="Drag neighborhood radius (voxels).")
@click.option("--timesteps", type=int, default=None, help="Number of flow timesteps.")
@click.option("--grid-n", type=int, default=None, help="Latent resolution override.")
@click.option("--contacts", "contacts_path", type=click.Path(exists=True), default=None,
              help="External contact-point JSON instead of sampled contacts.")
def generate(scenario_spec, out_dir, seed, ref_seed, unguided, lam, recurrence,
             radius, timesteps, grid_n, contacts_path):
    """Generate one shape (guided by default) and write its run directory."""
    with _config_errors():
        scenario = _resolve_scenario(scenario_spec, grid_n)
        given = {"guided": seed, "reference": ref_seed}
        seeds = dataclasses.replace(scenario.seeds, **{k: v for k, v in given.items() if v is not None})
        scenario = dataclasses.replace(scenario, seeds=seeds)
        cfg = _cfg_from_flags(scenario, lam or None, recurrence, radius, timesteps)
        external = ContactSet.load(contacts_path) if contacts_path else None
    generate_run(scenario, out_dir, mode="unguided" if unguided else "guided", cfg=cfg,
                 external_contacts=external)
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
@click.option("--radius", "radii", type=int, multiple=True)
@click.option("--timesteps", type=int, default=None)
@click.option("--grid-n", type=int, default=None)
def sweep_command(scenario_spec, out_dir, runs, lambdas, recurrences, radii, timesteps, grid_n):
    """Cross-product ablation sweep over guidance knobs."""
    with _config_errors():
        scenario = _resolve_scenario(scenario_spec, grid_n)
        base = _cfg_from_flags(scenario, None, None, None, timesteps)
    rows = sweep(scenario, out_dir, runs, lambdas, recurrences, radii, base_cfg=base)
    for row in rows:
        click.echo(json.dumps(row))


if __name__ == "__main__":
    main()
