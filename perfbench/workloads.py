"""Workloads: inputs made from the seed, the timed unit, and the output check.

Every workload runs the four standard-suite scenarios.  Its inputs are run
indices handed to ``scenarios.build_scenario``: the first ``core`` indices of
every scenario are the workload's fixed seeds, which every run includes and on
which the quality metrics are taken; ``window`` more indices per scenario are
chosen by the seed.  All indices lie below ``POOL[n]``, the run indices whose
outputs ``expected.json`` records.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path

from contact_flow import evaluation, guidance, harness, scenarios, voxelcore

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# Recorded run indices per scenario, by latent resolution n.
POOL = {4: 64, 16: 16}

GUIDED3 = "guided3"
GUIDED1 = "guided1"
UNGUIDED = "unguided"

# Recorded outputs must match to this relative tolerance.  Reassociated
# arithmetic (a matrix-form decoder, say) moves final_J by about 1e-9.
REL_TOL = 1e-6


@dataclasses.dataclass
class Outcome:
    """What one unit produced, gathered outside the timed span."""

    checks: dict  # method -> {"final_J": float | None, "chamfer": float}
    occupancy: voxelcore.OccupancyGrid  # the output the quality metrics describe
    trajectories: list
    bytes_written: int = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n: int
    core: int
    window: int
    why: str
    # reference-kernel calls after each measured unit (see reference.py)
    ref_calls: int = 1

    def run_indices(self, seed: int) -> list[int]:
        span = POOL[self.n] - self.core
        if self.window > span:
            raise ValueError(f"{self.name}: window {self.window} exceeds {span} recorded indices")
        chosen = [self.core + (seed * 7 + j) % span for j in range(self.window)]
        return list(range(self.core)) + chosen

    def prepare(self, scenario, run_index: int):
        return scenarios.build_scenario(scenario, run_index=run_index)

    def timed(self, built, scratch: Path):
        raise NotImplementedError

    def finish(self, built, raw) -> Outcome:
        raise NotImplementedError


class GuidedN16(Workload):
    """make_reference + guided_sample; evaluated after the timed span."""

    def timed(self, built, scratch):
        cfg = built.scenario.guidance_config()
        seeds = built.scenario.seeds
        ref = guidance.make_reference(built.model, built.decoder, cfg, seeds.reference)
        return guidance.guided_sample(
            built.model, built.decoder, built.contacts, ref, cfg, seeds.guided
        )

    def finish(self, built, raw):
        occ, traj = raw
        report = evaluation.evaluate_run(occ, built.ground_truth, built.contacts)
        return Outcome({GUIDED3: {"final_J": traj.final_J, "chamfer": report.chamfer}}, occ, [traj])


class SuiteN4(Workload):
    """The acceptance-fixture unit: build, reference, guided m=3 and m=1,
    unguided, and three evaluations, all inside the timed span."""

    def timed(self, built, scratch):
        b = scenarios.build_scenario(built.scenario)
        cfg3 = b.scenario.guidance_config()
        cfg1 = dataclasses.replace(cfg3, recurrence=1)
        seeds = b.scenario.seeds
        ref = guidance.make_reference(b.model, b.decoder, cfg3, seeds.reference)
        occ3, traj3 = guidance.guided_sample(b.model, b.decoder, b.contacts, ref, cfg3, seeds.guided)
        occ1, traj1 = guidance.guided_sample(b.model, b.decoder, b.contacts, ref, cfg1, seeds.guided)
        occ_u = guidance.unguided_sample(b.model, b.decoder, cfg3, seeds.guided)
        reports = [evaluation.evaluate_run(o, b.ground_truth, b.contacts) for o in (occ3, occ1, occ_u)]
        return (occ3, traj3, traj1, reports)

    def finish(self, built, raw):
        occ3, traj3, traj1, (rep3, rep1, rep_u) = raw
        checks = {
            GUIDED3: {"final_J": traj3.final_J, "chamfer": rep3.chamfer},
            GUIDED1: {"final_J": traj1.final_J, "chamfer": rep1.chamfer},
            UNGUIDED: {"final_J": None, "chamfer": rep_u.chamfer},
        }
        return Outcome(checks, occ3, [traj3, traj1])


class CliUnguidedN16(Workload):
    """harness.generate_run(mode="unguided") + harness.evaluate_run_dir into a
    fresh directory, deleted after every unit."""

    def timed(self, built, scratch):
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        try:
            harness.generate_run(built.scenario, run_dir, mode="unguided")
            report = harness.evaluate_run_dir(run_dir)
        except BaseException:
            shutil.rmtree(run_dir, ignore_errors=True)
            raise
        return run_dir, report

    def finish(self, built, raw):
        run_dir, report = raw
        try:
            size = sum(p.stat().st_size for p in run_dir.iterdir())
            occ = voxelcore.load_grid(run_dir / "occupancy.grid")
        finally:
            shutil.rmtree(run_dir)
        return Outcome({UNGUIDED: {"final_J": None, "chamfer": report.chamfer}}, occ, [], size)


WORKLOADS = {
    w.name: w
    for w in (
        GuidedN16(
            "guided_n16", n=16, core=1, window=5, ref_calls=3,
            why="paper's per-run cost at n=16, m=3: decoder and contact kernels dominate",
        ),
        SuiteN4(
            "suite_n4", n=4, core=4, window=12,
            why="acceptance-fixture mix at n=4: per-call overhead, responsibilities and set-up weigh most",
        ),
        CliUnguidedN16(
            "cli_unguided_n16", n=16, core=2, window=6, ref_calls=2,
            why="harness write/read path at n=16 without guidance: file I/O, rebuilds, surfaces, KD-trees",
        ),
    )
}


def smallest(workload: Workload) -> Workload:
    """The workload at n=4 on one fixed and one seeded index per scenario."""
    return dataclasses.replace(workload, n=4, core=1, window=1)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def expected_key(n: int, scenario: str, run_index: int) -> str:
    return f"n{n}/{scenario}/{run_index}"


def mismatches(expected: dict, key: str, checks: dict) -> list[str]:
    """Differences between a unit's outputs and the recorded ones."""
    recorded = expected.get(key)
    if recorded is None:
        return [f"{key}: no recorded outputs"]
    bad = []
    for method, got in checks.items():
        want = recorded.get(method)
        if want is None:
            bad.append(f"{key}/{method}: no recorded outputs")
            continue
        for field, value in got.items():
            if value is None:
                continue
            if not math.isclose(value, want[field], rel_tol=REL_TOL, abs_tol=1e-12):
                bad.append(f"{key}/{method}/{field}: got {value!r}, recorded {want[field]!r}")
    return bad
