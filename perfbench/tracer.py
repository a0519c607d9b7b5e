"""Outside-in span tracer for the contact_flow package.

The tracer replaces module-level names that the package's modules look up at
call time (for example ``guidance.decode``) with wrappers that record one span
per call: name, start, end, parent span and unit id.  Nothing under ``src/`` is
edited.  Spans stay in memory and are written once, at the end of a run.

A name that a later version of the package deletes or fuses is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  The attributes are the names guidance,
# evaluation, scenarios and harness import from the other modules, the public
# entry points the benchmark itself calls, and toyflow's responsibility kernel,
# which velocity and velocity_vjp both call.  A layer reached through several
# modules gets one span name.
WRAPPED = (
    ("guidance", "make_reference", "guidance.make_reference"),
    ("guidance", "guided_sample", "guidance.guided_sample"),
    ("guidance", "unguided_sample", "guidance.unguided_sample"),
    ("guidance", "drag_loss", "guidance.drag_loss"),
    ("guidance", "decode", "decoder.decode"),
    ("guidance", "decode_vjp", "decoder.decode_vjp"),
    ("guidance", "nearest_occupied", "contact.nearest_occupied"),
    ("guidance", "_velocity_batch", "toyflow.velocity"),
    ("guidance", "velocity_vjp", "toyflow.velocity_vjp"),
    ("guidance", "sample_base", "toyflow.sample_base"),
    ("guidance", "LatentGrid", "voxelcore.LatentGrid"),
    ("guidance", "binarize", "voxelcore.binarize"),
    ("toyflow", "_log_responsibilities", "toyflow.responsibilities"),
    ("scenarios", "build_scenario", "scenarios.build_scenario"),
    ("scenarios", "voxelize_primitive", "voxelcore.voxelize_primitive"),
    ("scenarios", "encode", "decoder.encode"),
    ("scenarios", "decode", "decoder.decode"),
    ("scenarios", "condition", "toyflow.condition"),
    ("scenarios", "sample_contacts", "contact.sample_contacts"),
    ("scenarios", "binarize", "voxelcore.binarize"),
    ("evaluation", "evaluate_run", "evaluation.evaluate_run"),
    ("evaluation", "chamfer", "evaluation.chamfer"),
    ("evaluation", "f_score", "evaluation.f_score"),
    ("evaluation", "contact_residuals", "evaluation.contact_residuals"),
    ("evaluation", "cKDTree", "evaluation.cKDTree"),
    ("evaluation", "nearest_occupied", "contact.nearest_occupied"),
    ("evaluation", "extract_surface", "voxelcore.extract_surface"),
    ("evaluation", "binarize", "voxelcore.binarize"),
    ("harness", "generate_run", "harness.generate_run"),
    ("harness", "evaluate_run_dir", "harness.evaluate_run_dir"),
    ("harness", "build_scenario", "scenarios.build_scenario"),
    ("harness", "make_reference", "guidance.make_reference"),
    ("harness", "guided_sample", "guidance.guided_sample"),
    ("harness", "unguided_sample", "guidance.unguided_sample"),
    ("harness", "evaluate_run", "evaluation.evaluate_run"),
    ("harness", "extract_surface", "voxelcore.extract_surface"),
    ("harness", "binarize", "voxelcore.binarize"),
    ("harness", "save_grid", "voxelcore.save_grid"),
    ("harness", "load_grid", "voxelcore.load_grid"),
    ("harness", "save_ply", "voxelcore.save_ply"),
)

NEAREST = "contact.nearest_occupied"

# Spans under these unit ids are not measured units.
SETUP_UNIT = "setup"
WARMUP_UNIT = "warmup"


class Tracer:
    """Records spans around the wrapped names while enabled."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, unit id)
        self.unit = SETUP_UNIT
        self.queries: set = set()  # distinct (unit, grid id, point) nearest-occupied queries
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        self.absent: list[str] = []
        for module_name, attr, span in WRAPPED:
            try:
                module = importlib.import_module(f"contact_flow.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
            else:
                self._patches.append((module, attr, original, self._wrap(original, span)))

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, name, index, parent, start, end) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.unit)

    def _wrap(self, fn, name):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index, parent = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start, clock())
                if name == NEAREST and len(args) == 2:
                    grid, point = args
                    key = np.asarray(point, dtype=np.float64).tobytes()
                    self.queries.add((self.unit, id(grid), key))

        return wrapper

    def enable(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, index, parent, start, time.perf_counter())

    def write(self, path) -> None:
        """Write all spans as gzipped CSV, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(("index", "name", "start_s", "end_s", "parent", "unit"))
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                writer.writerow((i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, unit))

    def summary(self, root: str, prefixes: tuple[str, ...]) -> dict:
        """Aggregate the spans of everything but the warm-up unit.

        Returns measured unit count, calls per name in measured units, calls
        and self time per name including set-up, distinct nearest-occupied
        queries in measured units, and the share of measured `root` spans'
        wall time that is self time of descendants named with `prefixes`.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls_measured = defaultdict(int)
        calls_all = defaultdict(int)
        self_all = defaultdict(float)
        units = set()
        owner: list[int] = []  # index of the enclosing `root` span, or -1
        root_time = inside_root = 0.0
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            owner.append(i if name == root else (owner[parent] if parent >= 0 else -1))
            if unit == WARMUP_UNIT:
                continue
            own = end - start - child_time[i]
            calls_all[name] += 1
            self_all[name] += own
            if unit == SETUP_UNIT:
                continue
            calls_measured[name] += 1
            units.add(unit)
            if name == root:
                root_time += end - start
            elif owner[i] >= 0 and name.startswith(prefixes):
                inside_root += own
        distinct = sum(1 for unit, _, _ in self.queries if unit not in (SETUP_UNIT, WARMUP_UNIT))
        return {
            "units": len(units),
            "calls_measured": calls_measured,
            "calls_all": calls_all,
            "self_all": self_all,
            "distinct_queries": distinct,
            "root_share": inside_root / root_time if root_time > 0 else 0.0,
        }
