import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from contact_flow.evaluation import read_metrics_csv
from contact_flow.guidance import GenerationAborted
from contact_flow.harness import (
    EXIT_CONFIG_ERROR,
    EXIT_EVALUATION_FAILURE,
    EXIT_GENERATION_ABORT,
    _write_json,
    evaluate_run_dir,
    evaluate_run_dirs,
    generate_run,
    load_manifest,
    main,
    method_label,
    rerun_manifest,
    summarize_reports,
    sweep,
    verify_manifest,
)
from contact_flow.scenarios import suite_scenario


@pytest.fixture(scope="module")
def scenario():
    return suite_scenario("depth_boxes", n=4)


def artifact_hashes(manifest):
    return {name: entry["sha256"] for name, entry in manifest["artifacts"].items()}


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_twice_is_bit_identical(tmp_path, scenario):
    m1 = generate_run(scenario, tmp_path / "a", mode="guided")
    m2 = generate_run(scenario, tmp_path / "b", mode="guided")
    assert artifact_hashes(m1) == artifact_hashes(m2)


def test_zero_lambda_guided_equals_unguided_output(tmp_path, scenario):
    cfg = scenario.guidance_config(lambda_stage=(0.0, 0.0, 0.0))
    g = generate_run(scenario, tmp_path / "zero", mode="guided", cfg=cfg, run_seed=7)
    u = generate_run(scenario, tmp_path / "plain", mode="unguided", run_seed=7)
    for name in ("occupancy", "shape", "surface"):
        assert g["artifacts"][name]["sha256"] == u["artifacts"][name]["sha256"]


def test_manifest_records_everything_needed(tmp_path, scenario):
    manifest = generate_run(scenario, tmp_path / "run", mode="guided")
    assert manifest["mode"] == "guided"
    assert manifest["method"] == "guided"
    assert manifest["scenario"]["name"] == scenario.name
    assert manifest["seeds"]["run"] == scenario.seeds.guided
    assert manifest["seeds"]["reference"] == scenario.seeds.reference
    assert len(manifest["library_hashes"]) == len(scenario.library)
    for name in ("occupancy", "shape", "surface", "contacts", "reference", "trajectory"):
        assert name in manifest["artifacts"]
    assert manifest["timings"]["generate_s"] > 0
    assert verify_manifest(tmp_path / "run") == []


def test_verify_manifest_detects_tampering(tmp_path, scenario):
    generate_run(scenario, tmp_path / "run", mode="guided")
    (tmp_path / "run" / "occupancy.grid").write_bytes(b"corrupted")
    assert "occupancy" in verify_manifest(tmp_path / "run")


def test_rerun_manifest_reproduces_hashes_exactly(tmp_path, scenario):
    manifest = generate_run(scenario, tmp_path / "orig", mode="guided")
    again = rerun_manifest(manifest, tmp_path / "again")
    assert artifact_hashes(manifest) == artifact_hashes(again)


def test_generation_abort_writes_partial_manifest(tmp_path, scenario):
    cfg = scenario.guidance_config(schedule="covg")
    with pytest.raises(GenerationAborted):
        generate_run(scenario, tmp_path / "hot", mode="guided", cfg=cfg)
    manifest = load_manifest(tmp_path / "hot")
    assert manifest["failure"] is not None
    assert manifest["failure"]["step"] == 0
    assert "trajectory" in manifest["artifacts"]


def test_method_labels(scenario):
    cfg = scenario.guidance_config()
    assert method_label("unguided", cfg) == "unguided"
    assert method_label("guided", cfg) == "guided"
    m1 = dataclasses.replace(cfg, recurrence=1)
    assert method_label("guided", m1) == "guided_no_recurrence"


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_run_dir_writes_metrics_into_manifest(tmp_path, scenario):
    generate_run(scenario, tmp_path / "run", mode="guided")
    report = evaluate_run_dir(tmp_path / "run")
    manifest = load_manifest(tmp_path / "run")
    assert manifest["metrics"]["chamfer"] == report.chamfer
    assert manifest["metrics"]["schema"] == "v1"
    # evaluating again is idempotent
    report2 = evaluate_run_dir(tmp_path / "run")
    assert report2.chamfer == report.chamfer


def test_evaluate_many_and_median_aggregation_oracle(tmp_path, scenario):
    dirs = []
    for i in range(4):
        out = tmp_path / f"run{i}"
        generate_run(scenario, out, mode="guided" if i % 2 else "unguided",
                     run_seed=scenario.seeds.guided + i)
        dirs.append(out)
    reports, skipped = evaluate_run_dirs(dirs, tmp_path / "agg")
    assert not skipped
    assert (tmp_path / "agg" / "metrics.csv").exists()
    assert (tmp_path / "agg" / "summary.txt").exists()
    summary = summarize_reports(reports)
    rows = read_metrics_csv(tmp_path / "agg" / "metrics.csv")
    for method in ("guided", "unguided"):
        csv_vals = [float(r["chamfer"]) for r in rows if r["method"] == method]
        assert summary[method]["chamfer"]["median"] == pytest.approx(
            float(np.median(csv_vals)), rel=1e-12
        )


def test_evaluate_skips_corrupt_runs(tmp_path, scenario):
    good = tmp_path / "good"
    generate_run(scenario, good, mode="unguided")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json")
    reports, skipped = evaluate_run_dirs([good, bad])
    assert len(reports) == 1
    assert len(skipped) == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_single_cell_sweep_equals_generate_plus_evaluate(tmp_path, scenario):
    rows = sweep(scenario, tmp_path / "sweep", runs=2)
    assert len(rows) == 1
    # reproduce by hand with the same derived seeds
    from contact_flow.scenarios import derive_run_seeds

    chamfers = []
    for i in range(2):
        sc_i = dataclasses.replace(scenario, seeds=derive_run_seeds(scenario, i))
        out = tmp_path / f"manual{i}"
        generate_run(sc_i, out, mode="guided")
        chamfers.append(evaluate_run_dir(out).chamfer)
    assert rows[0]["chamfer_median"] == pytest.approx(float(np.median(chamfers)), rel=1e-12)
    assert rows[0]["aborts"] == 0


def test_recurrence_sweep_reproduces_ablation_direction(tmp_path, scenario):
    rows = sweep(scenario, tmp_path / "sweep", runs=6, recurrence_grid=[1, 3])
    by_m = {r["recurrence"]: r for r in rows}
    assert by_m[3]["final_J_median"] <= by_m[1]["final_J_median"]


def test_sweep_with_worker_pool_matches_serial(tmp_path, scenario, monkeypatch):
    serial = sweep(scenario, tmp_path / "serial", runs=2)
    monkeypatch.setenv("CONTACT_FLOW_WORKERS", "2")
    parallel = sweep(scenario, tmp_path / "parallel", runs=2)
    assert serial[0]["chamfer_median"] == parallel[0]["chamfer_median"]
    assert serial[0]["final_J_median"] == parallel[0]["final_J_median"]


def test_covg_cells_record_aborts_and_sweep_continues(tmp_path, scenario):
    rows = sweep(
        scenario, tmp_path / "sweep", runs=2, schedule_grid=["covg", "staged"]
    )
    covg = next(r for r in rows if r["schedule"] == "covg")
    staged = next(r for r in rows if r["schedule"] == "staged")
    assert covg["aborts"] == 2
    assert staged["aborts"] == 0
    assert "chamfer_median" in staged


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_generate_on_suite_scenario(tmp_path):
    runner = CliRunner()
    out = tmp_path / "run"
    result = runner.invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(out), "--seed", "7"],
    )
    assert result.exit_code == 0, result.output
    manifest = load_manifest(out)
    for entry in manifest["artifacts"].values():
        assert (out / entry["path"]).exists()


def test_cli_zero_lambda_equals_unguided(tmp_path):
    runner = CliRunner()
    a, b = tmp_path / "a", tmp_path / "b"
    r1 = runner.invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(a), "--seed", "3", "--lambda", "0", "0", "0"],
    )
    r2 = runner.invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(b), "--seed", "3", "--unguided"],
    )
    assert r1.exit_code == 0 and r2.exit_code == 0
    ma, mb = load_manifest(a), load_manifest(b)
    assert ma["artifacts"]["occupancy"]["sha256"] == mb["artifacts"]["occupancy"]["sha256"]


def test_cli_config_error_exit_code(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["generate", "--scenario", "suite:no_such", "--out", str(tmp_path / "x")]
    )
    assert result.exit_code == EXIT_CONFIG_ERROR


def test_cli_generation_abort_exit_code(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(tmp_path / "x"), "--schedule", "covg"],
    )
    assert result.exit_code == EXIT_GENERATION_ABORT


def test_cli_evaluate_and_failure_exit(tmp_path, scenario):
    runner = CliRunner()
    out = tmp_path / "run"
    generate_run(scenario, out, mode="unguided")
    ok = runner.invoke(main, ["evaluate", str(out), "--out", str(tmp_path / "agg")])
    assert ok.exit_code == 0, ok.output
    assert "unguided" in ok.output
    empty = tmp_path / "empty"
    empty.mkdir()
    bad = runner.invoke(main, ["evaluate", str(empty)])
    assert bad.exit_code == EXIT_EVALUATION_FAILURE


def test_cli_external_contacts(tmp_path, scenario):
    from contact_flow.harness import generate_run as _gen
    from contact_flow.scenarios import build_scenario

    built = build_scenario(scenario)
    contacts_file = tmp_path / "contacts.json"
    built.contacts.save(contacts_file)
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(tmp_path / "run"), "--contacts", str(contacts_file)],
    )
    assert result.exit_code == 0, result.output
    manifest = load_manifest(tmp_path / "run")
    assert manifest["external_contacts"] is True


def test_cli_sweep_single_cell(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["sweep", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(tmp_path / "sw"), "--runs", "2", "--recurrence", "1"],
    )
    assert result.exit_code == 0, result.output
    data = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert len(data["cells"]) == 1
    assert data["cells"][0]["recurrence"] == 1


def test_rerun_manifest_accepts_legacy_aggregation_key(tmp_path, scenario):
    manifest = generate_run(scenario, tmp_path / "orig", mode="guided")
    legacy = json.loads(json.dumps(manifest))
    legacy["guidance"]["aggregation"] = "sum"
    again = rerun_manifest(legacy, tmp_path / "again")
    assert artifact_hashes(again) == artifact_hashes(manifest)


def test_failed_manifest_write_keeps_previous_file(tmp_path, scenario):
    run = tmp_path / "run"
    generate_run(scenario, run, mode="unguided")
    path = run / "manifest.json"
    before = path.read_bytes()
    listing = sorted(p.name for p in run.iterdir())
    # keys are written in sorted order, so the payload fails after part of it is out
    payload = {**load_manifest(run), "zz_unserializable": object()}
    with pytest.raises(TypeError):
        _write_json(path, payload)
    assert path.read_bytes() == before
    assert sorted(p.name for p in run.iterdir()) == listing


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_sweep_bad_worker_count_is_config_error(tmp_path, value):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["sweep", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(tmp_path / "sw"), "--runs", "1"],
        env={"CONTACT_FLOW_WORKERS": value},
    )
    assert result.exit_code == EXIT_CONFIG_ERROR
    assert "config error" in result.output
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_sweep_rejects_bad_worker_count(tmp_path, scenario, monkeypatch, value):
    monkeypatch.setenv("CONTACT_FLOW_WORKERS", value)
    with pytest.raises(ValueError, match="CONTACT_FLOW_WORKERS"):
        sweep(scenario, tmp_path / "sw", runs=1)
