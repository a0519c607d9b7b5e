"""contact-flow benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload guided_n16 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
an outside-in traced run.  ``--smoke`` runs every workload at its smallest
size in both modes and checks that every metric in BENCHMARK.json is emitted.
The exit code is 0 only if every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

# BLAS runs on one thread, like the reference kernel the unit times are
# divided by; a caller's own setting wins and is recorded with the result.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The package comes from this checkout's src/ and nowhere else.
if not (SRC / "contact_flow" / "__init__.py").is_file():
    sys.exit(f"benchmark: {SRC / 'contact_flow'} not found; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from contact_flow import (  # noqa: E402
    contact, decoder, evaluation, guidance, scenarios, toyflow, voxelcore,
)

import tracer as tracing  # noqa: E402
from reference import ReferenceKernel, unit_in_refs  # noqa: E402
from workloads import WORKLOADS, expected_key, load_expected, mismatches, smallest  # noqa: E402

# Set-up builds per scenario at least; setup_s is the median over them.
SETUP_BUILDS = 6

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Per-layer metrics: span name -> which of self_s and calls to report.
SPAN_METRICS = {
    "decoder.decode": ("self_s", "calls"),
    "decoder.decode_vjp": ("self_s", "calls"),
    "contact.nearest_occupied": ("self_s", "calls"),
    "toyflow.velocity": ("self_s", "calls"),
    "toyflow.velocity_vjp": ("self_s", "calls"),
    "toyflow.responsibilities": ("self_s", "calls"),
    "toyflow.condition": ("self_s",),
    "guidance.drag_loss": ("self_s", "calls"),
    "guidance.guided_sample": ("self_s",),
    "guidance.unguided_sample": ("self_s",),
    "voxelcore.LatentGrid": ("calls",),
    "scenarios.build_scenario": ("self_s", "calls"),
    "decoder.encode": ("self_s",),
    "voxelcore.voxelize_primitive": ("self_s",),
    "evaluation.evaluate_run": ("self_s",),
    "evaluation.chamfer": ("self_s",),
    "evaluation.f_score": ("self_s",),
    "evaluation.contact_residuals": ("self_s",),
    "evaluation.cKDTree": ("calls",),
    "voxelcore.extract_surface": ("self_s",),
    "harness.generate_run": ("self_s",),
    "harness.evaluate_run_dir": ("self_s",),
    "voxelcore.save_grid": ("self_s",),
    "voxelcore.load_grid": ("self_s",),
    "voxelcore.save_ply": ("self_s",),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "platform": platform.platform(),
    }


def fd_oracle(seed: int) -> float:
    """Worst relative error of energy_gradient against central differences
    at a tiny size (n=2, 2 channels, 2 components), as in acceptance criterion 1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(3):
        n, channels, k = 2, 2, 2
        dim = n**3 * channels
        params = decoder.DecoderParams.default(channels, beta=2.0)
        model = toyflow.MixtureFlowModel(
            n=n, channels=channels, means=rng.standard_normal((k, dim)),
            weights=[0.5, 0.5], sigma=float(rng.uniform(0.2, 0.6)),
        )
        ref_occ = voxelcore.OccupancyGrid(rng.random((4 * n,) * 3))
        ref = guidance.ReferenceShape(ref_occ, voxelcore.binarize(ref_occ, 0.5), seed=0, timesteps=6)
        contacts = contact.ContactSet(rng.random((3, 3)))
        cfg = guidance.GuidanceConfig(timesteps=6, stage_bounds=(2, 4), radius=1)
        t = float(rng.uniform(0.1, 1.0))
        x_flat = rng.standard_normal(dim)

        def energy(xf):
            xg = voxelcore.LatentGrid(xf.reshape(model.latent_shape()))
            s = decoder.decode(toyflow.predict_x0(model, xg, t), params)
            return guidance.drag_loss(s, contacts, ref, cfg)[0]

        x = voxelcore.LatentGrid(x_flat.reshape(model.latent_shape()))
        _, g_xt, _ = guidance.energy_gradient(model, x, t, contacts, ref, params, cfg)
        h = 1e-5
        fd = np.empty(dim)
        for i in range(dim):
            step = np.zeros(dim)
            step[i] = h
            fd[i] = (energy(x_flat + step) - energy(x_flat - step)) / (2 * h)
        worst = max(worst, float(np.linalg.norm(g_xt.reshape(-1) - fd) / np.linalg.norm(fd)))
    return worst


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile, at least the median, with at least ten samples
    above it (nearest rank).  Below 21 samples that is the median itself."""
    s = sorted(values)
    k = len(s)
    for p in range(99, 50, -1):
        rank = math.ceil(p * k / 100)
        if k - rank >= 10:
            return p, s[rank - 1]
    return 50, statistics.median(s)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool, scratch: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.scratch = scratch  # directory for the units' run directories
        self.expected = load_expected()
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_times: dict = {}  # scenario name -> build times
        self.unit_times: list[float] = []  # measured, untraced
        self.unit_refs: list[float] = []  # the same units, in reference-kernel times
        self.ref_times: list[float] = []  # every reference-kernel call
        self.traced_times: list[tuple] = []  # trace mode: (untraced, traced) time of one input
        self.quality: dict = {}  # core input -> (chamfer, contact residuals)
        self.trajectories: list = []
        self.bytes_written: list[int] = []
        self.tracer = None

    def execute(self) -> None:
        self.attempted += 1
        self.fd_worst = fd_oracle(self.seed)
        if not self.fd_worst < 1e-5:
            self.failures.append(f"fd_oracle: worst relative error {self.fd_worst:.2e}")
        if self.traced:
            self.tracer = tracing.Tracer()
            self.tracer.enable()
        inputs = {}  # scenario name -> [(run index, built scenario)]
        for sc in scenarios.standard_suite(self.w.n):
            indices = self.w.run_indices(self.seed)
            built = {}
            for b in range(max(len(indices), SETUP_BUILDS)):
                i = indices[b % len(indices)]
                t0 = time.perf_counter()
                built[i] = self.w.prepare(sc, i)
                self.setup_times.setdefault(sc.name, []).append(time.perf_counter() - t0)
            inputs[sc.name] = [(i, built[i]) for i in indices]
        if self.traced:
            self.tracer.disable()
        names = list(inputs)
        per_scenario = len(inputs[names[0]])

        first_i, first_built = inputs[names[0]][0]
        self.unit(tracing.WARMUP_UNIT, first_i, first_built, self.traced, measured=False)
        reference = ReferenceKernel()
        before = reference.times(self.w.ref_calls)

        # complete the fixed seeds before the clock may stop the loop
        min_units = len(names) * (1 if self.traced else self.w.core)
        start = time.perf_counter()
        k = 0
        while k < min_units or time.perf_counter() - start < self.seconds:
            name = names[k % len(names)]
            i, built = inputs[name][(k // len(names)) % per_scenario]
            uid = f"u{k}/{name}/{i}"
            dt = self.unit(uid, i, built, False, measured=True)
            after = reference.times(self.w.ref_calls)
            self.ref_times += after
            if dt is not None:
                self.unit_times.append(dt)
                self.unit_refs.append(unit_in_refs(dt, before, after))
            before = after
            if self.traced:
                dt_traced = self.unit(uid, i, built, True, measured=True)
                if dt is not None and dt_traced is not None:
                    self.traced_times.append((dt, dt_traced))
            k += 1

    def unit(self, uid, i, built, traced, measured) -> float | None:
        """Run, time and check one unit; return its time, or None if it failed."""
        self.attempted += 1
        try:
            elapsed, raw = self.timed(uid, built, traced)
            outcome = self.w.finish(built, raw)
        except Exception as exc:  # an aborted or erroring unit counts as failed
            self.failures.append(f"{uid}: {type(exc).__name__}: {exc}")
            return None
        key = expected_key(self.w.n, built.scenario.name, i)
        bad = mismatches(self.expected, key, outcome.checks)
        if bad:
            self.failures.append(f"{uid}: " + "; ".join(bad))
            return None
        if measured and traced:
            self.trajectories.extend(outcome.trajectories)
            self.bytes_written.append(outcome.bytes_written)
        if measured and not traced and i < self.w.core and key not in self.quality:
            # the first method listed is the output the quality metrics describe
            chamfer = next(iter(outcome.checks.values()))["chamfer"]
            residuals = evaluation.contact_residuals(
                voxelcore.binarize(outcome.occupancy), built.contacts
            )
            self.quality[key] = (chamfer, residuals)
        return elapsed

    def timed(self, uid, built, traced):
        if not traced:
            t0 = time.perf_counter()
            raw = self.w.timed(built, self.scratch)
            return time.perf_counter() - t0, raw
        self.tracer.unit = uid
        self.tracer.enable()
        try:
            t0 = time.perf_counter()
            with self.tracer.span("bench.unit"):
                raw = self.w.timed(built, self.scratch)
            return time.perf_counter() - t0, raw
        finally:
            self.tracer.disable()

    def end_to_end(self) -> dict:
        refs = self.unit_refs or [math.nan]  # empty only if every unit failed
        pct, tail_value = tail(refs)
        self.tail_note = f"p{pct} of {len(self.unit_refs)} units"
        times = self.unit_times or [math.nan]
        self.seconds_note = (
            f"run_s.p50 {statistics.median(times):.6g} s, run_s.p{pct} {tail(times)[1]:.6g} s, "
            f"runs_per_s {len(self.unit_times) / sum(times):.6g} 1/s, "
            f"reference kernel p50 {statistics.median(self.ref_times or [math.nan]):.6g} s "
            f"over {len(self.ref_times)} calls"
        )
        per_scenario_median = [statistics.median(v) for v in self.setup_times.values()]
        chamfers = [c for c, _ in self.quality.values()] or [math.nan]
        residuals = [r for _, r in self.quality.values()] or [[math.nan]]
        return {
            "setup_s": (statistics.fmean(per_scenario_median), "s"),
            "run_ref.p50": (statistics.median(refs), "ref"),
            "run_ref.tail": (tail_value, "ref"),
            "runs_per_kref": (1000.0 * len(self.unit_refs) / sum(refs), "1/kref"),
            "ok_ratio": (1.0 - len(self.failures) / self.attempted, "ratio"),
            "chamfer.p50": (statistics.median(chamfers), "unitcube"),
            "contact_residual.mean": (float(np.mean(np.concatenate(residuals))), "unitcube"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        s = self.tracer.summary("guidance.guided_sample", ("decoder.", "contact."))
        units = max(s["units"], 1)
        metrics = {}
        for name, kinds in SPAN_METRICS.items():
            calls_all = s["calls_all"].get(name, 0)
            if "self_s" in kinds:
                value = s["self_all"].get(name, 0.0) / calls_all if calls_all else 0.0
                metrics[f"{name}.self_s"] = (value, "s")
            if "calls" in kinds:
                metrics[f"{name}.calls"] = (s["calls_measured"].get(name, 0) / units, "count")
        nearest_calls = s["calls_measured"].get("contact.nearest_occupied", 0)
        records = [r for traj in self.trajectories for r in traj.records]
        metrics.update(
            {
                "contact.nearest_occupied.distinct_ratio": (
                    s["distinct_queries"] / nearest_calls if nearest_calls else 0.0, "ratio"),
                "guidance.inner_steps": (len(records) / units, "count"),
                "guidance.applied_ratio": (
                    sum(r.lam != 0.0 for r in records) / len(records) if records else 0.0, "ratio"),
                "guidance.guided_sample.decoder_contact_share": (s["root_share"], "ratio"),
                "harness.bytes_written": (
                    statistics.fmean(self.bytes_written) if self.bytes_written else 0.0, "B"),
                "trace.overhead_ratio": (
                    sum(b for _, b in self.traced_times) / sum(a for a, _ in self.traced_times)
                    if self.traced_times else 0.0, "ratio"),
            }
        )
        return metrics


def run_workload(workload, seed: int, seconds: float, traced: bool, env: dict) -> tuple[dict, bool]:
    """Run one workload; print a readable report; return (result line, correct)."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR))
    run = Run(workload, seed, seconds, traced, scratch)
    try:
        run.execute()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = run.per_layer() if traced else run.end_to_end()
    failed = len(run.failures)
    correct = failed == 0
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name} n={workload.n} seed={seed} trace={int(traced)} "
          f"attempted={run.attempted} (the gradient oracle, a warm-up unit, measured units)")
    print(f"  fd_oracle worst relative error {run.fd_worst:.2e}")
    print(f"  failed_ratio {failed}/{run.attempted}")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        note = f"  ({run.tail_note})" if name == "run_ref.tail" else ""
        print(f"  {name:50s} {value:.6g} {unit}{note}")
    if not traced:
        print(f"  wall clock: {run.seconds_note}")
    if traced:
        wrapped = {span for _, _, span in tracing.WRAPPED}
        absent = sorted(run.tracer.absent)
        called = {span[0] for span in run.tracer.spans}
        print(f"  absent names: {', '.join(absent) if absent else 'none'}")
        print(f"  spans with no calls: {', '.join(sorted(wrapped - called)) or 'none'}")
        extra = {"absent": absent, "spans": len(run.tracer.spans)}
        run.tracer.write(OUT_DIR / f"{workload.name}.spans.csv.gz")
    else:
        extra = {"tail": run.tail_note, "wall_clock": run.seconds_note, "unit_times": run.unit_times,
                 "unit_refs": run.unit_refs, "ref_times": run.ref_times,
                 "setup_times": run.setup_times}
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload.name, n=workload.n, seed=seed, trace=int(traced),
                  env=env, failures=run.failures, fd_oracle_worst=run.fd_worst, **extra)
    (OUT_DIR / f"{workload.name}.trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return result, correct


def smoke(env: dict) -> bool:
    """Every workload at its smallest size, both modes: every BENCHMARK.json
    metric must be emitted, with its declared unit."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    ok = True
    for name, workload in WORKLOADS.items():
        for traced, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, correct = run_workload(smallest(workload), 0, 0.0, traced, env)
            emitted = result["metrics"]
            missing = [m["name"] for m in declared if m["name"] not in emitted]
            wrong_unit = [m["name"] for m in declared
                          if m["name"] in emitted and emitted[m["name"]]["unit"] != m["unit"]]
            undeclared = sorted(set(emitted) - {m["name"] for m in declared})
            good = correct and not missing and not wrong_unit and not undeclared
            print(f"SMOKE {name} trace={int(traced)} {'ok' if good else 'FAIL'} "
                  f"missing={missing} wrong_unit={wrong_unit} undeclared={undeclared}")
            ok &= good
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check every workload at its smallest size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # one process, no pool: the harness reads its worker count from here
    workers = os.environ.pop("CONTACT_FLOW_WORKERS", None)
    env = dict(environment(), contact_flow_workers_removed=workers)
    if args.smoke:
        return 0 if smoke(env) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, correct = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), env)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
