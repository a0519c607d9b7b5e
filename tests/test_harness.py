import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from contact_flow import harness, scenarios
from contact_flow.evaluation import (
    F_SCORE_COLUMNS,
    F_SCORE_THRESHOLDS,
    MetricsReport,
    evaluate_run,
    read_metrics_csv,
)
from contact_flow.guidance import GenerationAborted, GuidanceConfig
from contact_flow.harness import (
    EXIT_CONFIG_ERROR,
    EXIT_EVALUATION_FAILURE,
    EXIT_GENERATION_ABORT,
    ConfigError,
    _cfg_from_flags,
    _write_atomic,
    _write_json,
    evaluate_run_dir,
    evaluate_run_dirs,
    format_summary_table,
    generate_run,
    load_manifest,
    main,
    method_label,
    rerun_manifest,
    summarize_reports,
    sweep,
    verify_manifest,
)
from contact_flow.scenarios import (
    Scenario,
    ScenarioSeeds,
    VisibilitySpec,
    build_scenario,
    suite_scenario,
)
from contact_flow.voxelcore import Box, OccupancyGrid, grid_to_bytes, load_grid, voxelize_primitive


@pytest.fixture(scope="module")
def scenario():
    return suite_scenario("depth_boxes", n=4)


def with_seeds(scenario, **seeds):
    return dataclasses.replace(scenario, seeds=dataclasses.replace(scenario.seeds, **seeds))


def write_scenario(scenario, path):
    """A scenario file of a Scenario or its document, as Scenario.load reads it."""
    d = scenario if isinstance(scenario, dict) else scenario.to_dict()
    path.write_text(yaml.safe_dump(d, sort_keys=False))


def artifact_hashes(manifest):
    return {name: entry["sha256"] for name, entry in manifest["artifacts"].items()}


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_twice_is_bit_identical(tmp_path, scenario):
    m1 = generate_run(scenario, tmp_path / "a", mode="guided")
    m2 = generate_run(scenario, tmp_path / "b", mode="guided")
    assert artifact_hashes(m1) == artifact_hashes(m2)


def test_zero_lambda_guided_equals_unguided_output(tmp_path, scenario):
    cfg = scenario.guidance_config(lambda_stage=(0.0, 0.0, 0.0))
    seven = with_seeds(scenario, guided=7)
    g = generate_run(seven, tmp_path / "zero", mode="guided", cfg=cfg)
    u = generate_run(seven, tmp_path / "plain", mode="unguided")
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


@pytest.mark.parametrize("mode", ["guided", "unguided"])
def test_manifest_library_hashes_hash_each_voxelized_primitive(tmp_path, scenario, mode):
    N = scenario.resolution
    want = [hashlib.sha256(grid_to_bytes(voxelize_primitive(p, N))).hexdigest() for p in scenario.library]
    scenarios._seed_independent.cache_clear()
    miss = generate_run(scenario, tmp_path / "miss", mode=mode)
    hit = generate_run(scenario.for_run(1), tmp_path / "hit", mode=mode)
    assert scenarios._seed_independent.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert miss["library_hashes"] == hit["library_hashes"] == want


def test_verify_manifest_detects_tampering(tmp_path, scenario):
    manifest = generate_run(scenario, tmp_path / "run", mode="guided")
    (tmp_path / "run" / "occupancy.grid").write_bytes(b"corrupted")
    assert "occupancy" in verify_manifest(tmp_path / "run")
    # a malformed entry is listed too, not a TypeError
    manifest["artifacts"].update(shape=None, surface={"path": "surface.ply"})
    _write_json(tmp_path / "run" / "manifest.json", manifest)
    assert verify_manifest(tmp_path / "run") == ["occupancy", "shape", "surface"]


def test_rerun_manifest_reproduces_hashes_exactly(tmp_path, scenario):
    manifest = generate_run(scenario, tmp_path / "orig", mode="guided")
    again = rerun_manifest(manifest, tmp_path / "again")
    assert artifact_hashes(manifest) == artifact_hashes(again)


def test_generation_abort_writes_partial_manifest(tmp_path, scenario):
    cfg = scenario.guidance_config(lambda_stage=(1e300,) * 3)
    with pytest.raises(GenerationAborted):
        generate_run(scenario, tmp_path / "hot", mode="guided", cfg=cfg)
    manifest = load_manifest(tmp_path / "hot")
    assert (manifest["failure"]["step"], manifest["failure"]["inner"]) == (1, 1)
    assert "underflowed" in manifest["failure"]["reason"]
    assert "trajectory" in manifest["artifacts"] and "occupancy" not in manifest["artifacts"]
    assert verify_manifest(tmp_path / "hot") == []
    # the four records up to the abort, then a NaN final_J, each line strict
    # JSON: a non-finite number (the overflowed g_norm too) is null
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    lines = (tmp_path / "hot" / "trajectory.jsonl").read_text().splitlines()
    records = [json.loads(line, parse_constant=reject) for line in lines]
    assert len(records) == 5 and records[-1] == {"final_J": None}
    assert records[-2]["g_norm"] is None


@pytest.mark.parametrize("changes, applied", [({}, 33), ({"beta": 1.0e300}, 0)], ids=["default-beta", "beta-1e300"])
def test_guided_manifest_counts_the_inner_steps_that_applied_guidance(tmp_path, changes, applied):
    # 12 timesteps of 3 inner steps; at the default beta only the first
    # timestep's three, where grad_xt is 0, apply none, and at 1e300 the
    # attenuation suppresses every one
    sc = dataclasses.replace(suite_scenario("depth_boxes", n=4), **changes)
    run = tmp_path / "guided"
    manifest = generate_run(sc, run, mode="guided")
    lines = (run / "trajectory.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    assert len(records) == 36
    assert manifest["guidance_applied_steps"] == applied == sum(r["lambda"] != 0 for r in records)
    assert load_manifest(run)["guidance_applied_steps"] == applied
    # a manifest field, in no hashed artifact, and only a guided run has one
    assert all("guidance_applied_steps" not in (run / a["path"]).read_text(errors="replace")
               for a in manifest["artifacts"].values())
    assert "guidance_applied_steps" not in generate_run(sc, tmp_path / "unguided", mode="unguided")


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


# the names of the files opened while a test records them; an audit hook cannot
# be removed, so one is added for the process, and records only when asked
_OPENS = {"hooked": False, "names": None}


def _record_open(event, args):
    if event == "open" and _OPENS["names"] is not None and isinstance(args[0], (str, bytes, os.PathLike)):
        _OPENS["names"].append(Path(os.fsdecode(args[0])).name)


@pytest.fixture
def opened_files():
    """A list that gains the name of each file the process opens until the test ends."""
    if not _OPENS["hooked"]:
        sys.addaudithook(_record_open)
        _OPENS["hooked"] = True
    _OPENS["names"] = names = []
    yield names
    _OPENS["names"] = None


@pytest.mark.parametrize("mode", ["guided", "unguided"])
def test_each_recorded_sha256_is_that_of_the_file_on_disk(tmp_path, scenario, mode):
    run = tmp_path / "run"
    manifest = generate_run(scenario, run, mode=mode)
    written = {"contacts", "occupancy", "shape", "surface"} | ({"reference", "trajectory"} if mode == "guided" else set())
    assert set(manifest["artifacts"]) == written
    for name, entry in manifest["artifacts"].items():
        assert entry["sha256"] == hashlib.sha256((run / entry["path"]).read_bytes()).hexdigest(), name


@pytest.mark.parametrize("mode", ["guided", "unguided"])
def test_evaluate_opens_the_shape_and_the_contacts_once_each(tmp_path, scenario, mode, opened_files):
    # it parses the bytes whose sha256 it checked: a second read could see a file swapped in between
    run = tmp_path / "run"
    generate_run(scenario, run, mode=mode)
    opened_files.clear()
    evaluate_run_dir(run)
    assert opened_files.count("shape.grid") == opened_files.count("contacts.json") == 1
    assert {"occupancy.grid", "surface.ply", "reference.grid", "trajectory.jsonl"}.isdisjoint(opened_files)


def test_evaluate_run_dir_reads_only_the_true_shape(tmp_path, scenario, monkeypatch):
    run = tmp_path / "run"
    generate_run(scenario, run, mode="guided")
    expected = json.dumps(evaluate_run_dir(run).to_json_dict(), sort_keys=True)

    def rebuild(*args, **kwargs):
        raise AssertionError("evaluation rebuilt the scenario")

    monkeypatch.setattr(harness, "build_scenario", rebuild)
    assert json.dumps(evaluate_run_dir(run).to_json_dict(), sort_keys=True) == expected


def test_evaluate_run_dir_scores_the_shape_the_run_wrote(tmp_path, scenario, monkeypatch):
    # a voxel just below the threshold, which the float32 occupancy.grid rounds up to it
    below = 0.5 - 2.0**-30
    assert np.float32(below) == 0.5
    sample = harness.unguided_sample

    def with_a_voxel_below_the_threshold(*args):
        data = sample(*args).data.copy()
        assert data[0, 0, 0] < below
        data[0, 0, 0] = below
        return OccupancyGrid(data)

    monkeypatch.setattr(harness, "unguided_sample", with_a_voxel_below_the_threshold)
    run = tmp_path / "run"
    generate_run(scenario, run, mode="unguided")
    built = build_scenario(scenario)
    occupancy = with_a_voxel_below_the_threshold(
        built.model, built.decoder, scenario.guidance_config(), scenario.seeds.guided
    )
    assert not built.ground_truth.data[0, 0, 0]

    def score(output):
        report = evaluate_run(output, built.ground_truth, built.contacts, scenario=scenario.name,
                              method="unguided", seed=scenario.seeds.guided)
        return json.dumps(report.to_json_dict(), sort_keys=True)

    want = score(occupancy)
    assert json.dumps(evaluate_run_dir(run).to_json_dict(), sort_keys=True) == want
    # scoring the float32 occupancy the run wrote would count the voxel
    assert score(load_grid(run / "occupancy.grid")) != want


def test_evaluate_many_and_median_aggregation_oracle(tmp_path, scenario):
    dirs = []
    for i in range(4):
        out = tmp_path / f"run{i}"
        generate_run(with_seeds(scenario, guided=scenario.seeds.guided + i), out,
                     mode="guided" if i % 2 else "unguided")
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


def test_summary_table_separates_every_label_and_aligns_its_lines():
    ok = MetricsReport(
        chamfer=0.5, f_scores={tau: 0.25 for tau in F_SCORE_THRESHOLDS}, contact_residual_median=0.125,
        method="guided",
    )
    # a method whose runs all failed has no metric values
    table = format_summary_table(summarize_reports([ok, dataclasses.replace(ok, method="unguided", failed=True)]))
    header = table.splitlines()[0]
    metrics = ["chamfer", *F_SCORE_COLUMNS.values(), "contact_residual"]
    for label in ["runs", *(f"{m} {stat}" for m in metrics for stat in ("mean", "med"))]:
        assert f" {label}" in header, label
    assert len({len(line) for line in table.splitlines()}) == 1, table


@pytest.mark.parametrize("artifact", ["contacts", "shape"])
def test_evaluate_skips_an_artifact_whose_bytes_its_manifest_does_not_record(tmp_path, scenario, artifact):
    run, other = tmp_path / "run", tmp_path / "other"
    generate_run(scenario, run, mode="unguided")
    if artifact == "contacts":
        # what a second run interrupted in the same directory leaves behind
        generate_run(scenario.for_run(1), other, mode="unguided")
        assert (other / "contacts.json").read_bytes() != (run / "contacts.json").read_bytes()
        shutil.copy(other / "contacts.json", run / "contacts.json")
    else:
        grid = bytearray((run / "shape.grid").read_bytes())
        grid[-1] ^= 1  # one voxel flipped: still a grid load_grid reads
        (run / "shape.grid").write_bytes(bytes(grid))
    manifest = (run / "manifest.json").read_text()
    result = CliRunner().invoke(main, ["evaluate", str(run)])
    assert result.exit_code == EXIT_EVALUATION_FAILURE, result.output
    assert result.output.splitlines() == [
        f"skipped {run}: artifact '{artifact}' does not match the sha256 its manifest records",
        "no evaluable runs",
    ]
    assert (run / "manifest.json").read_text() == manifest  # no metrics written
    assert verify_manifest(run) == [artifact]


def test_evaluate_skips_an_artifact_path_that_is_not_the_runs_own_file(tmp_path, scenario):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_run(scenario, a, mode="unguided")
    shape_b = generate_run(scenario.for_run(1), b, mode="unguided")["artifacts"]["shape"]
    manifest = load_manifest(a)
    # run b's shape, under its own hash: the file is intact, but it is not run a's
    manifest["artifacts"]["shape"] = {"path": "../b/shape.grid", "sha256": shape_b["sha256"]}
    _write_json(a / "manifest.json", manifest)
    assert verify_manifest(a) == ["shape"]
    result = CliRunner().invoke(main, ["evaluate", str(a)])
    assert result.exit_code == EXIT_EVALUATION_FAILURE, result.output
    assert result.output.splitlines() == [
        f"skipped {a}: manifest artifact 'shape' path '../b/shape.grid' is not the run's own 'shape.grid'",
        "no evaluable runs",
    ]


def test_verify_manifest_reports_an_artifact_a_run_does_not_write(tmp_path, scenario):
    run = tmp_path / "run"
    manifest = generate_run(scenario, run, mode="unguided")
    manifest["artifacts"]["extra"] = dict(manifest["artifacts"]["shape"])
    _write_json(run / "manifest.json", manifest)
    assert verify_manifest(run) == ["extra"]
    with pytest.raises(ValueError, match="manifest artifact 'extra' is not an artifact a run writes"):
        harness._artifact(run, manifest["artifacts"], "extra")


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param({"method": "guided"}, "manifest method 'guided' is not 'unguided', which its mode and "
                     "guidance give", id="unguided-run-labelled-guided"),
        pytest.param({"mode": "foo"}, "manifest mode 'foo' is neither 'guided' nor 'unguided'", id="unknown-mode"),
    ],
)
def test_a_manifest_whose_mode_or_method_is_not_a_runs_is_refused(tmp_path, scenario, edit, message):
    generate_run(scenario, tmp_path / "a" / "run", mode="unguided")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    run = tmp_path / "b" / "run"
    _write_json(run / "manifest.json", {**load_manifest(run), **edit})
    result = CliRunner().invoke(main, ["evaluate", str(run)])
    assert result.exit_code == EXIT_EVALUATION_FAILURE, result.output
    assert result.output.splitlines() == [f"skipped {run}: {message}", "no evaluable runs"]
    result = CliRunner().invoke(load_script("compare_runs").main, [str(tmp_path / "a"), str(tmp_path / "b")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert result.output.splitlines() == [f"run: B manifest refused: {message}", "1 runs in A: 1 difference(s)"]


def test_a_guided_manifest_gives_its_method_by_recurrence(tmp_path, scenario):
    run = tmp_path / "run"
    manifest = generate_run(scenario, run, mode="guided", cfg=scenario.guidance_config(recurrence=1))
    assert manifest["method"] == "guided_no_recurrence"
    _write_json(run / "manifest.json", {**manifest, "method": "guided"})
    with pytest.raises(ValueError, match="manifest method 'guided' is not 'guided_no_recurrence'"):
        evaluate_run_dir(run)


def test_evaluate_skips_corrupt_runs(tmp_path, scenario):
    good = tmp_path / "good"
    generate_run(scenario, good, mode="unguided")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json")
    reports, skipped = evaluate_run_dirs([good, bad])
    assert len(reports) == 1
    assert len(skipped) == 1


@pytest.mark.parametrize(
    "edit, field",
    [
        pytest.param(lambda m: m["artifacts"].update(shape=None), "'shape'", id="null-shape"),
        pytest.param(lambda m: m["artifacts"].pop("contacts"), "'contacts'", id="no-contacts"),
        pytest.param(lambda m: m["artifacts"]["shape"].update(path=None), "path", id="null-path"),
        pytest.param(lambda m: m.update(artifacts=None), "artifacts", id="null-artifacts"),
        pytest.param(lambda m: m.update(seeds=None), "seeds", id="null-seeds"),
        pytest.param(lambda m: m["seeds"].pop("run"), "'run'", id="no-run-seed"),
        pytest.param(lambda m: m["scenario"]["seeds"].update(guided="7"), "seeds guided must be an integer",
                     id="string-guided-seed"),
        pytest.param(lambda m: m.pop("scenario"), "'scenario'", id="no-scenario"),
        pytest.param(lambda m: m.update(method=None), "method", id="null-method"),
        pytest.param(lambda m: m.update(final_J="x"), "final_J must be a number", id="string-final-J"),
    ],
)
def test_evaluate_skips_a_manifest_with_a_bad_field_naming_it(tmp_path, scenario, edit, field):
    run = tmp_path / "run"
    manifest = generate_run(scenario, run, mode="unguided")
    edit(manifest)
    (run / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=field):
        evaluate_run_dir(run)
    reports, skipped = evaluate_run_dirs([run])
    assert reports == [] and len(skipped) == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_single_cell_sweep_equals_generate_plus_evaluate(tmp_path, scenario):
    rows = sweep(scenario, tmp_path / "sweep", runs=2)
    assert len(rows) == 1
    # reproduce by hand with the same paired-run scenarios
    chamfers = []
    for i in range(2):
        out = tmp_path / f"manual{i}"
        generate_run(scenario.for_run(i), out, mode="guided")
        chamfers.append(evaluate_run_dir(out).chamfer)
    assert rows[0]["chamfer_median"] == pytest.approx(float(np.median(chamfers)), rel=1e-12)
    assert rows[0]["aborts"] == 0


def test_recurrence_sweep_reproduces_ablation_direction(tmp_path, scenario):
    rows = sweep(scenario, tmp_path / "sweep", runs=6, recurrence_grid=[1, 3])
    by_m = {r["recurrence"]: r for r in rows}
    assert by_m[3]["final_J_median"] <= by_m[1]["final_J_median"]


def test_sweep_run_directories_equal_generate_run_of_each_cell(tmp_path, scenario):
    rows = sweep(scenario, tmp_path / "sweep", runs=2, recurrence_grid=[1, 3])
    assert [row["recurrence"] for row in rows] == [1, 3]
    assert len(list((tmp_path / "sweep").rglob("manifest.json"))) == 4
    for c, m in enumerate([1, 3]):
        cfg = scenario.guidance_config(recurrence=m)
        for i in range(2):
            alone = tmp_path / f"alone_{c}_{i}"
            generate_run(scenario.for_run(i), alone, mode="guided", cfg=cfg)
            swept = load_manifest(tmp_path / "sweep" / f"cell_{c:03d}" / f"run_{i:03d}")
            hashes = artifact_hashes(swept)
            assert hashes == artifact_hashes(load_manifest(alone)) and "occupancy" in hashes


def test_aborting_cells_are_recorded_and_sweep_continues(tmp_path, scenario):
    rows = sweep(
        scenario, tmp_path / "sweep", runs=2, lambda_grid=[(1e300,) * 3, (0.2, 1.0, 0.5)]
    )
    hot, staged = rows
    assert "schedule" not in hot
    assert (hot["lambda_stage"], hot["aborts"]) == ([1e300] * 3, 2)
    assert "chamfer_median" not in hot
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
         "--out", str(out), "--seed", "7", "--reference-seed", "9"],
    )
    assert result.exit_code == 0, result.output
    manifest = load_manifest(out)
    for entry in manifest["artifacts"].values():
        assert (out / entry["path"]).exists()
    # the flags replace the scenario's seeds, so both seed blocks hold them
    assert manifest["seeds"] == {"run": 7, "reference": 9, "contacts": manifest["scenario"]["seeds"]["contacts"]}
    assert manifest["scenario"]["seeds"]["guided"] == 7 and manifest["scenario"]["seeds"]["reference"] == 9


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
    out = tmp_path / "x"
    result = runner.invoke(main, ["generate", "--scenario", "suite:no_such", "--out", str(out)])
    assert result.exit_code == EXIT_CONFIG_ERROR
    # usage errors: click's own exit code, 2, would read as a generation abort
    for args in (
        ["generate", "--scenario", "suite:depth_boxes", "--out", str(out), "--schedule", "staged"],
        ["sweep", "--scenario", "suite:depth_boxes", "--out", str(out), "--recurrence", "x"],
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4", "--out", str(out), "--seed", "-1"],
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4", "--out", str(out),
         "--reference-seed", "-5"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_CONFIG_ERROR, result.output
        assert not out.exists()
    # a suite scenario at resolution 0, as a scenario file at 0 is
    for command, extra in (("generate", ["--unguided"]), ("sweep", ["--runs", "1"])):
        result = runner.invoke(
            main, [command, "--scenario", "suite:depth_boxes", "--grid-n", "0", "--out", str(out), *extra]
        )
        assert result.exit_code == EXIT_CONFIG_ERROR, result.output
        assert "config error: latent resolution n must be >= 1" in result.output
        assert not out.exists()
    # a scenario file with a negative seed or run count
    d = suite_scenario("depth_boxes", n=4).to_dict()
    for changes, message in (
        ({"seeds": {**d["seeds"], "guided": -1}}, "seeds guided must be >= 0"),
        ({"seeds": {**d["seeds"], "contacts": -1}}, "seeds contacts must be >= 0"),
        ({"runs": -3}, "runs must be >= 1"),
    ):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({**d, **changes}))
        result = runner.invoke(main, ["generate", "--scenario", str(path), "--out", str(out)])
        assert result.exit_code == EXIT_CONFIG_ERROR, result.output
        assert f"config error: {message}" in result.output
        assert not out.exists()
    # a file that is not YAML: an unclosed mapping, and a tab-indented one
    for text in ("grid: {n: 4\n", "grid:\n\tn: 4\n"):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        for command, extra in (("generate", []), ("sweep", ["--runs", "1"])):
            result = runner.invoke(main, [command, "--scenario", str(path), "--out", str(out), *extra])
            assert result.exit_code == EXIT_CONFIG_ERROR, result.output
            assert f"config error: {path} is not valid YAML" in result.output
            assert not out.exists()
    # a scenario file that gives gamma twice
    path = tmp_path / "scenario.yaml"
    path.write_text(EXAMPLE_SCENARIO.read_text() + "gamma: 50.0\n")
    for command, extra in (("generate", []), ("sweep", ["--runs", "1"])):
        result = runner.invoke(main, [command, "--scenario", str(path), "--out", str(out), *extra])
        assert result.exit_code == EXIT_CONFIG_ERROR, result.output
        assert "config error: repeated key 'gamma'" in result.output
        assert not out.exists()


@pytest.mark.parametrize("field", ["guided", "reference"])
def test_rerun_manifest_rejects_a_negative_seed_before_writing(tmp_path, scenario, field):
    manifest = generate_run(scenario, tmp_path / "orig", mode="unguided")
    manifest["scenario"]["seeds"][field] = -1
    with pytest.raises(ValueError, match=f"seeds {field} must be >= 0"):
        rerun_manifest(manifest, tmp_path / "again")
    assert not (tmp_path / "again").exists()


UNBUILDABLE = {
    # the two boxes differ on the visible half, so they cannot be ambiguous
    "ambiguity": Scenario(
        name="not_ambiguous",
        n=4,
        library=(
            Box((0.125, 0.25, 0.25), (0.5, 0.75, 0.75)),
            Box((0.125, 0.25, 0.25), (0.9375, 0.75, 0.75)),
        ),
        true_index=1,
        visibility=VisibilitySpec(),
        seeds=ScenarioSeeds(1, 2, 3),
        ambiguous=True,
    ),
    "contact_count": dataclasses.replace(
        suite_scenario("depth_boxes", n=4), contact_count=100_000
    ),
    # no voxel center of the 16^3 grid lies inside this box
    "empty_primitive": Scenario(
        name="too_small",
        n=4,
        library=(Box((0.5, 0.5, 0.5), (0.51, 0.51, 0.51)),),
        true_index=0,
        visibility=VisibilitySpec(),
        seeds=ScenarioSeeds(1, 2, 3),
    ),
    # a noise scale, likelihood sharpness or logistic gain that is not finite,
    # as documents: a Scenario refuses them when it is built
    **{
        f"{field}_{value}": {**suite_scenario("depth_boxes", n=4).to_dict(), field: float(value)}
        for field in ("sigma", "gamma", "beta")
        for value in ("nan", "inf")
    },
    # a noise scale whose square overflows, and a logistic gain so small that
    # the encoded means' squared norms overflow
    "sigma_1e300": dataclasses.replace(suite_scenario("depth_boxes", n=4), sigma=1e300),
    "beta_1e-300": dataclasses.replace(suite_scenario("depth_boxes", n=4), beta=1e-300),
}


def test_a_noise_scale_whose_square_underflows_still_builds():
    build_scenario(dataclasses.replace(suite_scenario("depth_boxes", n=4), sigma=1e-300))


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("failure", sorted(UNBUILDABLE))
def test_cli_scenario_that_fails_to_build_is_config_error(tmp_path, failure, command):
    path = tmp_path / "scenario.yaml"
    write_scenario(UNBUILDABLE[failure], path)
    out = tmp_path / "out"
    extra = ["--runs", "1"] if command == "sweep" else []
    result = CliRunner().invoke(
        main, [command, "--scenario", str(path), "--out", str(out), *extra]
    )
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert "config error:" in result.output
    assert not out.exists()


def test_cli_scenario_file_with_a_box_hi_below_lo_is_config_error(tmp_path):
    d = suite_scenario("depth_boxes", n=4).to_dict()
    box = d["library"][0]
    box["hi"][0] = box["lo"][0] - 0.0625
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(d))
    # refused where the file is read, naming the field, not when it is built
    with pytest.raises(ValueError, match="hi="):
        Scenario.load(path)
    out = tmp_path / "out"
    for command, extra in (("generate", []), ("sweep", ["--runs", "1"])):
        result = CliRunner().invoke(main, [command, "--scenario", str(path), "--out", str(out), *extra])
        assert result.exit_code == EXIT_CONFIG_ERROR, result.output
        assert "config error: degenerate primitive: box has zero/negative extent" in result.output
        assert not out.exists()


@pytest.mark.parametrize(
    "command, extra", [("generate", []), ("sweep", ["--runs", "1"]), ("evaluate", [])]
)
def test_cli_out_naming_a_file_is_config_error(tmp_path, scenario, command, extra):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    if command == "evaluate":
        run = tmp_path / "run"
        generate_run(scenario, run, mode="unguided")
        args = [command, str(run), "--out", str(out)]
    else:
        args = [command, "--scenario", "suite:depth_boxes", "--grid-n", "4", "--out", str(out), *extra]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert "config error:" in result.output and "File exists" in result.output
    assert out.read_text() == "not a directory\n"
    if command == "evaluate":
        # nothing is evaluated, so the run's manifest is as generate wrote it
        assert load_manifest(run)["metrics"] is None
    else:
        assert sorted(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("offset", [0.01, 0.99], ids=["empty", "full"])
def test_empty_or_full_visibility_is_config_error(tmp_path, offset):
    # no voxel center of the 16^3 grid lies below 0.01, and every one below 0.99
    sc = dataclasses.replace(suite_scenario("depth_boxes", n=4), visibility=VisibilitySpec(offset=offset))
    message = "visibility mask must be non-empty and not cover the full volume"
    with pytest.raises(ValueError, match=message):
        build_scenario(sc)
    path = tmp_path / "scenario.yaml"
    write_scenario(sc, path)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["generate", "--scenario", str(path), "--out", str(out)])
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert f"config error: {message}" in result.output
    assert not out.exists()


# one box whose unguided reference binarizes to nothing at n=4
EMPTY_REFERENCE = Scenario(
    name="empty_reference",
    n=4,
    library=(Box((0.5, 0.5, 0.5), (0.625, 0.625, 0.625)),),
    true_index=0,
    visibility=VisibilitySpec(),
    seeds=ScenarioSeeds(1, 2, 3),
    contact_count=3,
)


def test_cli_empty_reference_is_config_error_and_unguided_still_runs(tmp_path):
    path = tmp_path / "scenario.yaml"
    write_scenario(EMPTY_REFERENCE, path)
    guided, unguided = tmp_path / "guided", tmp_path / "unguided"
    given = ["--scenario", str(path)]
    result = CliRunner().invoke(main, ["generate", *given, "--out", str(guided)])
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert "config error: reference shape is empty" in result.output
    assert not guided.exists()
    result = CliRunner().invoke(main, ["generate", *given, "--out", str(unguided), "--unguided"])
    assert result.exit_code == 0, result.output
    assert verify_manifest(unguided) == []
    # a sweep meets it at its first run's reference, so the sweep ends there
    result = CliRunner().invoke(main, ["sweep", *given, "--out", str(tmp_path / "sweep"), "--runs", "1"])
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert "config error: reference shape is empty" in result.output
    assert not (tmp_path / "sweep" / "sweep.json").exists()


def test_reference_abort_writes_partial_manifest(tmp_path, scenario, monkeypatch):
    def abort(*args):
        raise GenerationAborted(3, 0, "state became non-finite")

    monkeypatch.setattr(harness, "make_reference", abort)
    with pytest.raises(GenerationAborted):
        generate_run(scenario, tmp_path / "run", mode="guided")
    manifest = load_manifest(tmp_path / "run")
    assert manifest["failure"] == {"step": 3, "inner": 0, "reason": "state became non-finite"}
    assert list(manifest["artifacts"]) == ["contacts"]
    # the reference ran, so its time is recorded, as part of the run's
    assert 0.0 <= manifest["timings"]["reference_s"] <= manifest["timings"]["generate_s"]
    assert verify_manifest(tmp_path / "run") == []


def test_overflowing_gradient_norm_is_recorded_as_null_without_a_warning(tmp_path, scenario):
    # the tests turn a RuntimeWarning into an error, so a leaked overflow fails here
    huge_gain = dataclasses.replace(scenario, beta=1e300)
    generate_run(huge_gain, tmp_path / "run", mode="guided")
    lines = (tmp_path / "run" / "trajectory.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["grad_x0_norm"] is None


def test_cli_generation_abort_exit_code(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(tmp_path / "x"), "--lambda", "1e300", "1e300", "1e300"],
    )
    assert result.exit_code == EXIT_GENERATION_ABORT
    assert "generation aborted at step 1 (inner 1)" in result.output


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
    built = build_scenario(scenario)
    contacts_file = tmp_path / "contacts.json"
    contacts_file.write_text(json.dumps(built.contacts.to_dict(), indent=2))
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(tmp_path / "run"), "--contacts", str(contacts_file)],
    )
    assert result.exit_code == 0, result.output
    manifest = load_manifest(tmp_path / "run")
    assert manifest["external_contacts"] == built.contacts.to_dict()


EXAMPLE_SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "example.yaml"


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_cli_scenario_with_empty_weights_is_config_error(tmp_path, command):
    text = EXAMPLE_SCENARIO.read_text()
    assert "\nweights: [0.5, 0.5]\n" in text
    path = tmp_path / "scenario.yaml"
    path.write_text(text.replace("\nweights: [0.5, 0.5]\n", "\nweights:\n"))
    out = tmp_path / "out"
    extra = ["--runs", "1"] if command == "sweep" else []
    result = CliRunner().invoke(
        main, [command, "--scenario", str(path), "--grid-n", "4", "--out", str(out), *extra]
    )
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert "config error: weights must be a list" in result.output
    assert not out.exists()


# a number field and a box's corner left empty in the example scenario
EMPTY_FIELDS = {
    "gamma": ("\ngamma: 1.0\n", "\ngamma:\n", "gamma must be a number"),
    "box_lo": ("\n    lo: [0.125, 0.3125, 0.3125]\n", "\n    lo:\n", "box lo must be a list of numbers"),
}


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("field", sorted(EMPTY_FIELDS))
def test_cli_scenario_with_an_empty_number_or_list_field_is_config_error(tmp_path, field, command):
    text = EXAMPLE_SCENARIO.read_text()
    filled, empty, message = EMPTY_FIELDS[field]
    assert filled in text
    path = tmp_path / "scenario.yaml"
    path.write_text(text.replace(filled, empty, 1))
    out = tmp_path / "out"
    extra = ["--runs", "1"] if command == "sweep" else []
    result = CliRunner().invoke(
        main, [command, "--scenario", str(path), "--grid-n", "4", "--out", str(out), *extra]
    )
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert f"config error: {message}" in result.output
    assert not out.exists()


def test_cli_scenario_with_a_box_corner_missing_is_config_error_naming_entry_and_field(tmp_path):
    text = EXAMPLE_SCENARIO.read_text()
    corner = "\n    hi: [0.75, 0.6875, 0.6875]\n"
    assert corner in text
    path = tmp_path / "scenario.yaml"
    path.write_text(text.replace(corner, "\n", 1))
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["generate", "--scenario", str(path), "--grid-n", "4", "--out", str(out)]
    )
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert "config error: library 0 box is missing required field 'hi'" in result.output
    assert not out.exists()


def test_cli_contact_file_that_is_not_a_mapping_is_config_error(tmp_path):
    contacts_file = tmp_path / "contacts.json"
    contacts_file.write_text("[[0.9, 0.5, 0.5]]")
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(out), "--contacts", str(contacts_file)],
    )
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert "config error: contact set must be a dict" in result.output
    assert not out.exists()


def test_cli_evaluate_skips_a_manifest_that_is_not_a_mapping(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text("[]")
    result = CliRunner().invoke(main, ["evaluate", str(run)])
    assert result.exit_code == EXIT_EVALUATION_FAILURE
    assert f"skipped {run}: run manifest must be a dict" in result.output


def test_rerun_manifest_reproduces_a_run_with_external_contacts(tmp_path, scenario):
    # ten external contacts, thinned to six by farthest point sampling
    sampled = dataclasses.replace(scenario, fps_count=6)
    other = build_scenario(scenario, run_index=1).contacts
    manifest = generate_run(sampled, tmp_path / "orig", mode="guided", external_contacts=other)
    again = rerun_manifest(manifest, tmp_path / "again")
    assert artifact_hashes(again) == artifact_hashes(manifest)
    assert again["external_contacts"] == manifest["external_contacts"]


def test_rerun_manifest_without_external_contact_points_is_an_error(tmp_path, scenario):
    manifest = generate_run(scenario, tmp_path / "orig", mode="unguided")
    assert manifest["external_contacts"] is None
    # older manifests recorded only that the contacts were external
    legacy = dict(manifest, external_contacts=True)
    with pytest.raises(ValueError, match="^manifest external_contacts: contact set must be a dict, got bool$"):
        rerun_manifest(legacy, tmp_path / "again")
    # only null means the scenario's sampled contacts; any other value must
    # be a contact set
    for malformed in ({}, [], 0, ""):
        with pytest.raises(ValueError, match="contact set"):
            rerun_manifest(dict(manifest, external_contacts=malformed), tmp_path / "again")
    assert not (tmp_path / "again").exists()


def test_cli_non_finite_contact_is_config_error(tmp_path):
    contacts_file = tmp_path / "contacts.json"
    contacts_file.write_text(json.dumps({"points": [[0.5, float("nan"), 0.5]]}))
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(out), "--contacts", str(contacts_file)],
    )
    assert result.exit_code == EXIT_CONFIG_ERROR
    assert "config error: points must be a list of numbers" in result.output
    assert not out.exists()


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


@pytest.mark.parametrize(
    "key, once_legal", [("aggregation", "sum"), ("threshold", 0.5), ("t_min", 0.001), ("schedule", "staged")]
)
def test_rerun_manifest_refuses_each_retired_guidance_key_naming_it(tmp_path, scenario, key, once_legal):
    # older manifests carried these fixed conventions in their guidance block
    manifest = generate_run(scenario, tmp_path / "orig", mode="guided")
    legacy = json.loads(json.dumps(manifest))
    legacy["guidance"][key] = once_legal
    with pytest.raises(ValueError, match=f"^manifest guidance has unknown field '{key}'$"):
        rerun_manifest(legacy, tmp_path / "again")
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize(
    "key, bad, message",
    [("radius", None, "radius must be an integer"), ("recurrence", 3.7, "recurrence must be an integer")],
)
def test_rerun_manifest_with_a_wrong_typed_guidance_field_is_a_value_error(
    tmp_path, scenario, key, bad, message
):
    guidance = {**scenario.guidance_config().to_dict(), key: bad}
    manifest = {"scenario": scenario.to_dict(), "guidance": guidance}
    with pytest.raises(ValueError, match=message):
        rerun_manifest(manifest, tmp_path / "again")
    assert not (tmp_path / "again").exists()


def test_rerun_manifest_with_a_missing_guidance_field_is_a_value_error(tmp_path, scenario):
    guidance = scenario.guidance_config().to_dict()
    del guidance["radius"]
    manifest = {"scenario": scenario.to_dict(), "guidance": guidance}
    with pytest.raises(ValueError, match="guidance is missing required field 'radius'"):
        rerun_manifest(manifest, tmp_path / "again")
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize(
    "path, what",
    [pytest.param(path, what, id=path) for path, what in [
        ("scenario", "manifest"), ("guidance", "manifest"), ("mode", "manifest"), ("seeds", "manifest"),
        ("scenario.seeds.guided", "scenario seeds"), ("scenario.seeds.reference", "scenario seeds"),
    ]],
)
def test_rerun_manifest_names_a_missing_field(tmp_path, scenario, path, what):
    manifest = generate_run(scenario, tmp_path / "orig", mode="unguided")
    *blocks, key = path.split(".")
    broken = json.loads(json.dumps(manifest))
    block = broken
    for name in blocks:
        block = block[name]
    del block[key]
    with pytest.raises(ValueError, match=f"{what} is missing required field '{key}'"):
        rerun_manifest(broken, tmp_path / "again")
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("field", ["guided", "reference"])
@pytest.mark.parametrize("bad", [None, "7", 7.5, True])
def test_rerun_manifest_rejects_a_seed_that_is_not_an_integer(tmp_path, scenario, field, bad):
    # a null seed is an error, not a fall back to some other seed: another run
    manifest = generate_run(with_seeds(scenario, guided=123), tmp_path / "orig", mode="unguided")
    broken = json.loads(json.dumps(manifest))
    broken["scenario"]["seeds"][field] = bad
    with pytest.raises(ValueError, match=f"seeds {field} must be an integer"):
        rerun_manifest(broken, tmp_path / "again")
    assert not (tmp_path / "again").exists()


def test_a_manifest_whose_seeds_block_disagrees_with_its_scenario_is_refused(tmp_path, scenario):
    # an older --seed run recorded its run seed in the seeds block only
    run = tmp_path / "orig"
    manifest = generate_run(with_seeds(scenario, guided=123), run, mode="unguided")
    manifest["seeds"]["run"] = 7
    _write_json(run / "manifest.json", manifest)
    message = (f"manifest seeds {{'contacts': {scenario.seeds.contacts}, 'reference': {scenario.seeds.reference}, "
               f"'run': 7}} disagree with scenario seeds {{'reference': {scenario.seeds.reference}, "
               f"'guided': 123, 'contacts': {scenario.seeds.contacts}}}, which the block records as "
               f"{{'run': 123, 'reference': {scenario.seeds.reference}, 'contacts': {scenario.seeds.contacts}}}")
    for read in (lambda: rerun_manifest(load_manifest(run), tmp_path / "again"), lambda: evaluate_run_dir(run),
                 lambda: verify_manifest(run)):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == message
    assert not (tmp_path / "again").exists()


def test_manifest_json_is_one_indented_key_sorted_document(tmp_path):
    path = tmp_path / "m.json"
    payload = {"b": [1, 2.5, None], "a": {"z": "x", "y": math.inf}}
    _write_json(path, payload)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert json.loads(path.read_text()) == payload


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


def test_cli_generate_radius_that_does_not_fit_is_config_error(tmp_path):
    out = tmp_path / "run"
    result = CliRunner().invoke(
        main,
        ["generate", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--radius", "40", "--out", str(out)],
    )
    assert result.exit_code == EXIT_CONFIG_ERROR
    assert "config error" in result.output
    assert not out.exists()


def test_generate_run_rejects_radius_before_writing(tmp_path, scenario):
    cfg = scenario.guidance_config(radius=40)
    with pytest.raises(ValueError, match="radius"):
        generate_run(scenario, tmp_path / "run", mode="guided", cfg=cfg)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flags", [["--radius", "-1"], ["--radius", "40"], ["--radius", "1", "--radius", "40"]]
)
def test_cli_sweep_invalid_grid_value_is_config_error(tmp_path, flags):
    result = CliRunner().invoke(
        main,
        ["sweep", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(tmp_path / "sw"), "--runs", "1", *flags],
    )
    assert result.exit_code == EXIT_CONFIG_ERROR
    assert "config error" in result.output
    assert not (tmp_path / "sw").exists()


def test_sweep_checks_every_cell_before_the_first_runs(tmp_path, scenario):
    with pytest.raises(ValueError, match="radius"):
        sweep(scenario, tmp_path / "sw", runs=1, radius_grid=[1, 40])
    assert not (tmp_path / "sw").exists()


def _without_timings(manifest: dict) -> str:
    return json.dumps({k: v for k, v in manifest.items() if k not in ("timings", "environment")}, sort_keys=True)


@pytest.mark.parametrize(
    "scenario_given, cfg_given, runs",
    [
        ({"n": np.int64(4)}, {}, 1),
        ({"contact_count": np.int64(10)}, {}, 1),
        ({"true_index": np.int64(1)}, {}, 1),
        ({"gamma": np.float32(1.0)}, {}, 1),
        ({}, {"radius": np.int64(2)}, 1),
        # np.float32(0.5) is 0.5 exactly, so it is the plain 0.5
        ({}, {"lambda_stage": (np.float32(0.5), 1.0, 0.5)}, 1),
        ({}, {}, np.int64(1)),
    ],
    ids=["n", "contact_count", "true_index", "gamma", "radius", "lambda_stage", "runs"],
)
def test_numpy_scalars_of_a_python_run_are_read_as_plain_numbers(
    tmp_path, scenario, scenario_given, cfg_given, runs
):
    # a document reads its fields when it is made, so a run from numpy scalars
    # is its plain twin, manifest and sweep.json included
    plain_cfg = scenario.guidance_config(radius=2, lambda_stage=(0.5, 1.0, 0.5))
    api = dataclasses.replace(scenario, **scenario_given)
    api_cfg = dataclasses.replace(plain_cfg, **cfg_given)
    assert (scenario.true_index, scenario.gamma, scenario.guidance_config().radius) == (1, 1.0, 2)
    want = generate_run(scenario, tmp_path / "plain", cfg=plain_cfg)
    got = generate_run(api, tmp_path / "api", cfg=api_cfg)
    assert _without_timings(got) == _without_timings(load_manifest(tmp_path / "api")) == _without_timings(want)
    sweep(scenario, tmp_path / "plain_sweep", runs=1, base_cfg=plain_cfg)
    sweep(api, tmp_path / "api_sweep", runs=runs, base_cfg=api_cfg)
    sweep_json = [(tmp_path / side / "sweep.json").read_bytes() for side in ("plain_sweep", "api_sweep")]
    assert sweep_json[0] == sweep_json[1]


@pytest.mark.parametrize(
    "scenario_given, cfg_given, message",
    [
        ({"n": 4.5}, {}, "grid n must be an integer, got 4.5"),
        ({"fps_count": 2.5}, {}, "fps_count must be an integer, got 2.5"),
        ({"true_index": 1.0}, {}, "true_index must be an integer, got 1.0"),
        ({"contact_count": 3.5}, {}, "contact_count must be an integer, got 3.5"),
        ({}, {"timesteps": 12.0}, "timesteps must be an integer, got 12.0"),
        ({}, {"recurrence": 2.5}, "recurrence must be an integer, got 2.5"),
        ({}, {"radius": 2.0}, "radius must be an integer, got 2.0"),
    ],
)
def test_a_python_run_with_a_value_of_the_wrong_kind_is_a_config_error_naming_it(
    tmp_path, scenario, scenario_given, cfg_given, message
):
    # a document reads its fields when it is made, so the value is refused
    # there, by dataclasses.replace or guidance_config, before any run starts
    def run():
        api = dataclasses.replace(scenario, **scenario_given)
        cfg = api.guidance_config(**cfg_given)
        generate_run(api, tmp_path / "run", cfg=cfg)
        sweep(api, tmp_path / "sweep", runs=1, base_cfg=cfg)

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("runs", [1.5, True, "1", None])
def test_sweep_refuses_a_run_count_that_is_not_an_integer(tmp_path, scenario, runs):
    message = f"runs must be an integer, got {runs!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        sweep(scenario, tmp_path / "sw", runs=runs)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("timesteps", range(3, 16))
def test_the_config_the_scenario_and_the_cli_derive_the_same_stage_bounds(scenario, timesteps):
    from_flags = _cfg_from_flags(scenario, None, None, None, timesteps)
    assert scenario.guidance_config(timesteps=timesteps) == from_flags
    assert GuidanceConfig(timesteps=timesteps).stage_bounds == from_flags.stage_bounds
    assert from_flags.stage_bounds == (timesteps // 3, 2 * timesteps // 3)


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_cli_sweep_without_runs_is_config_error(tmp_path, runs):
    result = CliRunner().invoke(
        main,
        ["sweep", "--scenario", "suite:depth_boxes", "--grid-n", "4",
         "--out", str(tmp_path / "sw"), "--runs", runs],
    )
    assert result.exit_code == EXIT_CONFIG_ERROR
    assert "config error" in result.output
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("runs", [0, -1])
def test_sweep_rejects_a_run_count_below_one(tmp_path, scenario, runs):
    with pytest.raises(ValueError, match="runs"):
        sweep(scenario, tmp_path / "sw", runs=runs)
    assert not (tmp_path / "sw").exists()


def test_manifest_records_the_software_environment(tmp_path, scenario, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    generate_run(scenario, tmp_path / "run", mode="unguided")
    env = load_manifest(tmp_path / "run")["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "thread_vars"}
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "OMP_NUM_THREADS" not in env["thread_vars"]
    assert verify_manifest(tmp_path / "run") == []


def test_standard_suite_script_writes_one_row_per_run(tmp_path):
    script = load_script("run_standard_suite")
    out = tmp_path / "suite"
    result = CliRunner().invoke(script.main, ["--out", str(out), "--grid-n", "4", "--runs", "1"])
    assert result.exit_code == 0, result.output
    rows = read_metrics_csv(out / "evaluation" / "metrics.csv")
    # four scenarios, each unguided, guided and guided without recurrence
    assert len(rows) == 12
    assert {r["method"] for r in rows} == {"unguided", "guided", "guided_no_recurrence"}


@pytest.mark.parametrize("artifact", ["surface.ply", "occupancy.grid"])
def test_an_artifact_writer_that_fails_partway_leaves_no_file(tmp_path, scenario, monkeypatch, artifact):
    real = harness._write_parts

    def fail_partway(path, parts):
        real(path, parts)
        if path.name.startswith(f".{artifact}."):  # the temporary file beside it
            with open(path, "r+b") as f:
                f.truncate(10)
            raise OSError("disk full")

    monkeypatch.setattr(harness, "_write_parts", fail_partway)
    run = tmp_path / "run"
    with pytest.raises(OSError, match="disk full"):
        generate_run(scenario, run, mode="unguided")
    # the contacts were written before the failure; nothing else is there
    assert sorted(p.name for p in run.iterdir()) == (
        ["contacts.json", "occupancy.grid", "shape.grid"] if artifact == "surface.ply" else ["contacts.json"]
    )


def test_write_atomic_keeps_the_previous_file_when_the_writer_fails(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"previous")

    def fail_partway(tmp):
        tmp.write_bytes(b"half")
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        _write_atomic(path, fail_partway)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_run_standard_suite_rejects_a_run_count_below_one(tmp_path, runs):
    args = ["--out", str(tmp_path / "suite"), "--grid-n", "4", "--runs", runs]
    result = CliRunner().invoke(load_script("run_standard_suite").main, args)
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize("grid_n", ["3", "0"])
def test_run_standard_suite_rejects_a_grid_size_without_a_suite(tmp_path, grid_n):
    args = ["--out", str(tmp_path / "suite"), "--grid-n", grid_n, "--runs", "1"]
    result = CliRunner().invoke(load_script("run_standard_suite").main, args)
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--grid-n'" in result.output
    assert not (tmp_path / "suite").exists()


def test_run_standard_suite_checks_its_evaluation_directory_before_the_first_run(tmp_path):
    out = tmp_path / "suite"
    out.mkdir()
    (out / "evaluation").write_text("not a directory\n")
    args = ["--out", str(out), "--grid-n", "4", "--runs", "1"]
    result = CliRunner().invoke(load_script("run_standard_suite").main, args)
    assert result.exit_code != 0 and isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"Error: [Errno 17] File exists: '{out / 'evaluation'}'"]
    assert list(out.iterdir()) == [out / "evaluation"]


def test_compare_runs_finds_a_sweep_row_that_differs(tmp_path, scenario):
    sweep(scenario, tmp_path / "a", runs=1, recurrence_grid=[1, 3])
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    trees = [str(tmp_path / "a"), str(tmp_path / "b")]
    compare = load_script("compare_runs")
    result = CliRunner().invoke(compare.main, trees)
    assert result.exit_code == 0 and "2 runs in A: 0 difference(s)" in result.output, result.output
    path = tmp_path / "b" / "sweep.json"
    doc = json.loads(path.read_text())
    doc["cells"][1]["chamfer_median"] += 1e-9
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(compare.main, trees)
    assert result.exit_code == 1
    assert result.output.splitlines() == ["sweep.json: row 1 differs", "2 runs in A: 1 difference(s)"]


def test_compare_runs_finds_no_difference_between_two_suite_runs_and_an_edited_artifact(tmp_path):
    suite, compare = load_script("run_standard_suite"), load_script("compare_runs")
    for tree in ("a", "b"):
        args = ["--out", str(tmp_path / tree), "--grid-n", "4", "--runs", "1"]
        result = CliRunner().invoke(suite.main, args)
        assert result.exit_code == 0, result.output
    trees = [str(tmp_path / "a"), str(tmp_path / "b")]
    result = CliRunner().invoke(compare.main, trees)
    assert result.exit_code == 0, result.output
    assert "12 runs in A: 0 difference(s)" in result.output
    ply = tmp_path / "b" / "depth_boxes" / "run_000_guided" / "surface.ply"
    ply.write_text(ply.read_text().replace("0.", "1.", 1))
    result = CliRunner().invoke(compare.main, trees)
    assert result.exit_code == 1
    assert "run_000_guided: B artifact 'surface'" in result.output
    # a differing field inside a manifest block is named by its dotted path
    manifest_path = tmp_path / "b" / "depth_boxes" / "run_000_unguided" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["guidance"]["radius"] += 1
    manifest_path.write_text(json.dumps(manifest))
    result = CliRunner().invoke(compare.main, trees)
    assert "run_000_unguided: manifest 'guidance.radius' differs" in result.output
    assert "manifest 'guidance' differs" not in result.output


def test_compare_runs_reports_a_manifest_the_record_refuses_as_one_line(tmp_path, scenario):
    generate_run(scenario, tmp_path / "a" / "run", mode="unguided")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    path = tmp_path / "b" / "run" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["guidance"]["radius"] = "x"
    path.write_text(json.dumps(manifest))
    result = CliRunner().invoke(load_script("compare_runs").main, [str(tmp_path / "a"), str(tmp_path / "b")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert result.output.splitlines() == [
        "run: B manifest refused: guidance radius must be an integer, got 'x'",
        "1 runs in A: 1 difference(s)",
    ]


def test_expected_drift_passes_recorded_outputs_and_flags_a_changed_record(monkeypatch):
    # the script sets BLAS thread variables and extends sys.path on import;
    # both are restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    drift = load_script("expected_drift")
    monkeypatch.setitem(drift.workloads.POOL, 16, 1)  # run index 0 of each scenario
    result = CliRunner().invoke(drift.main, ["guided_n16"])
    assert result.exit_code == 0, result.output
    assert "guided_n16 guided3/final_J: worst relative deviation" in result.output
    assert "guided_n16 guided3/chamfer: worst relative deviation 0 " in result.output
    expected = drift.workloads.load_expected()
    expected["n16/depth_boxes/0"]["guided3"]["final_J"] *= 1.01
    monkeypatch.setattr(drift.workloads, "load_expected", lambda: expected)
    result = CliRunner().invoke(drift.main, ["guided_n16"])
    assert result.exit_code == 1
    assert "guided3/final_J: worst relative deviation 0.0099" in result.output
    assert "1 keys over 1e-06" in result.output
    assert "n16/depth_boxes/0/guided3/final_J: got" in result.output


def test_bench_pairs_reads_unit_and_kernel_p50_from_the_wall_clock_line():
    bench = load_script("bench_pairs")
    result = '{"correct": true, "attempted": 32, "failed": 0, "metrics": {}}'
    lines = [
        'env {"cpu_count": 2}',
        "workload cli_unguided_n16 n=16 seed=5 trace=0 attempted=32",
        "  run_ref.p50                                        2.26263 ref",
        "  wall clock: run_s.p50 0.0520936 s, run_s.p66 0.0556191 s, runs_per_s 19.0816 1/s, "
        "reference kernel p50 0.023154 s over 60 calls",
        result,
    ]
    report, env = bench.parse_report("\n".join(lines))
    assert report == {**json.loads(result), "run_s.p50": 0.0520936, "run_s.tail": 0.0556191,
                      "ref_kernel_p50_s": 0.023154}
    assert env == {"cpu_count": 2}
    # the wall-clock figures are summarized per side like the metrics
    faster = "\n".join(lines).replace("0.0520936", "0.05").replace("0.023154", "0.024")
    runs = {"parent": [report, report], "change": [report, bench.parse_report(faster)[0]]}
    wall = bench.summarize_wall_clock(runs)
    assert wall["run_s.p50"]["parent"] == {"median": 0.0520936, "q1": 0.0520936, "q3": 0.0520936}
    assert wall["run_s.p50"]["change"]["median"] == pytest.approx((0.0520936 + 0.05) / 2)
    assert (wall["run_s.p50"]["change_wins"], wall["run_s.p50"]["ties"]) == (1, 1)
    assert (wall["ref_kernel_p50_s"]["change_wins"], wall["ref_kernel_p50_s"]["ties"]) == (0, 1)
    assert wall["ref_kernel_p50_s"]["change_runs"] == [0.023154, 0.024]
    assert "change wins 0/2 (lower is better)" in bench.format_row("ref_kernel_p50_s", wall["ref_kernel_p50_s"])
    report, _ = bench.parse_report("\n".join(lines[:3] + lines[4:]))
    assert all(math.isnan(report[key]) for key in bench.WALL_CLOCK_KEYS)
    assert bench.parse_report("\n".join(lines[:4])) is None
    assert bench.parse_report("") is None


@pytest.mark.parametrize(
    "metric, unit, kernel, note",
    [
        ("run_ref.p50", 0.1, 0.0222, True),
        ("run_ref.p50", 0.09, 0.02, False),
        # seconds, not divided by the kernel: no kernel move is judged
        ("setup_s", 0.1, 0.0222, None),
    ],
)
def test_bench_pairs_sets_the_median_changes_side_by_side_and_names_a_kernel_move(
    tmp_path, monkeypatch, metric, unit, kernel, note
):
    bench = load_script("bench_pairs")
    repo = Path(__file__).resolve().parents[1]
    parent = tmp_path / "parent"
    parent.mkdir()
    git = ["git", "-C", str(parent), "-c", "user.name=t", "-c", "user.email=t@example.com",
           "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "parent"], check=True)
    commit = subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout

    def fake_run(checkout, workload, seed, seconds):
        # the parent's unit takes 0.1 s and its kernel 0.02 s; the change's, `unit` and `kernel`
        u, k = (0.1, 0.02) if checkout == parent else (unit, kernel)
        setup = 6e-4 if checkout == parent else 2e-4
        metrics = {"run_ref.p50": {"value": u / k}, "run_ref.tail": {"value": 1.5 * u / k},
                   "setup_s": {"value": setup}}
        result = {"correct": True, "attempted": 8, "failed": 0, "metrics": metrics}
        return {**result, "run_s.p50": u, "run_s.tail": 1.5 * u, "ref_kernel_p50_s": k}, {}

    monkeypatch.setattr(bench, "_run", fake_run)
    out = tmp_path / "record.json"
    result = CliRunner().invoke(bench.main, ["--parent", str(parent), "--change", str(repo),
                                             "--claim", f"guided_n16:{metric}", "--out", str(out)])
    assert result.exit_code == 0, result.output
    moved = f"{kernel / 0.02 - 1:+.2%}"
    assert (f"median change: run_ref.p50 {0.02 / kernel * unit / 0.1 - 1:+.2%}, "
            f"run_s.p50 {unit / 0.1 - 1:+.2%}, reference kernel {moved}") in result.output
    assert "median change: run_ref.tail" in result.output
    record = json.loads(out.read_text())
    assert record["parent"] == commit.strip()
    assert record["workloads"]["guided_n16"]["run_s.tail"]["change"]["median"] == pytest.approx(1.5 * unit)
    assert record["claimed"]["met"] and record["claimed"]["kernel_moved_more"] is note
    assert (f"note: on guided_n16 the reference kernel's median moved {moved}" in result.output) == bool(note)


@pytest.mark.parametrize(
    "claim", ["guided_n16:run_ref.p5", "guided_n16:decoder.decode.calls", "guided:run_ref.p50", "guided_n16"]
)
def test_bench_pairs_rejects_a_claim_outside_the_benchmark_before_any_run(tmp_path, monkeypatch, claim):
    bench = load_script("bench_pairs")
    monkeypatch.setattr(bench, "_run", lambda *a: pytest.fail("a benchmark run started"))
    repo = Path(__file__).resolve().parents[1]
    out = tmp_path / "record.json"
    result = CliRunner().invoke(
        bench.main, ["--parent", str(repo), "--change", str(repo), "--claim", claim, "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert "--claim" in result.output
    assert not out.exists()


def test_bench_pairs_refuses_a_parent_that_is_not_a_git_work_tree_before_any_run(tmp_path, monkeypatch):
    bench = load_script("bench_pairs")
    monkeypatch.setattr(bench, "_run", lambda *a: pytest.fail("a benchmark run started"))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # no enclosing work tree is found
    repo = Path(__file__).resolve().parents[1]
    parent = tmp_path / "parent"
    parent.mkdir()
    out = tmp_path / "record.json"
    result = CliRunner().invoke(bench.main, ["--parent", str(parent), "--change", str(repo), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--parent" in result.output and "is not a git work tree with a commit" in result.output
    assert not out.exists()
