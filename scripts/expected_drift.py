#!/usr/bin/env python3
"""Run every recorded key of perfbench/expected.json and report how far the
library's outputs have moved from the recorded ones.

Each workload of perfbench/workloads.py runs its unit on every recorded run
index of every standard-suite scenario, as perfbench/record.py does, and each
final_J and chamfer is compared with expected.json at the benchmark's relative
tolerance.  One line per workload and method gives the worst relative
deviation, the key it occurs at and the number of keys over the tolerance; the
exit code is 1 on any mismatch, 0 otherwise.  BLAS runs on one thread, as in
the benchmark, unless the caller sets the thread variables.

Example:
    python scripts/expected_drift.py                 # all 320 keys, about 30 s
    python scripts/expected_drift.py guided_n16      # one workload's keys
"""

import dataclasses
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import click  # noqa: E402
from contact_flow import scenarios  # noqa: E402

import workloads  # noqa: E402


def _deviation(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


@click.command()
@click.argument("names", nargs=-1, type=click.Choice(sorted(workloads.WORKLOADS)))
def main(names):
    expected = workloads.load_expected()
    mismatched: list[str] = []
    scratch = Path(tempfile.mkdtemp(prefix="expected-drift-"))
    try:
        for name in names or workloads.WORKLOADS:
            workload = workloads.WORKLOADS[name]
            w = dataclasses.replace(workload, core=workloads.POOL[workload.n], window=0)
            worst: dict[str, tuple[float, str]] = {}
            over: dict[str, set[str]] = {}
            for sc in scenarios.standard_suite(w.n):
                for i in w.run_indices(0):
                    key = workloads.expected_key(w.n, sc.name, i)
                    built = w.prepare(sc, i)
                    checks = w.finish(built, w.timed(built, scratch)).checks
                    mismatched += workloads.mismatches(expected, key, checks)
                    for method, got in checks.items():
                        want = expected.get(key, {}).get(method, {})
                        for field, value in got.items():
                            if value is None or field not in want:
                                continue
                            dev = _deviation(value, want[field])
                            label = f"{method}/{field}"
                            if dev > worst.get(label, (-1.0, ""))[0]:
                                worst[label] = (dev, key)
                            # the benchmark's own test, on this one value
                            if workloads.mismatches(expected, key, {method: {field: value}}):
                                over.setdefault(label, set()).add(key)
            for label, (dev, key) in sorted(worst.items()):
                print(
                    f"{name} {label}: worst relative deviation {dev:.3g} at {key}; "
                    f"{len(over.get(label, ()))} keys over {workloads.REL_TOL:g}"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in mismatched:
        print(line)
    sys.exit(1 if mismatched else 0)


if __name__ == "__main__":
    main()
