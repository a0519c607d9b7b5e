"""Record the outputs the benchmark's output check compares against.

    python3 perfbench/record.py

Runs every workload's unit on every recorded run index (``POOL``) of every
standard-suite scenario and writes final_J and chamfer per method to
expected.json.  Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile

from run import OUT_DIR  # importing run puts this checkout's src/ on the path
from contact_flow import scenarios
from workloads import EXPECTED_PATH, POOL, WORKLOADS, expected_key


def main() -> int:
    expected: dict = {}
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=OUT_DIR)
    try:
        for workload in WORKLOADS.values():
            w = dataclasses.replace(workload, core=POOL[workload.n], window=0)
            for sc in scenarios.standard_suite(w.n):
                for i in w.run_indices(0):
                    built = w.prepare(sc, i)
                    outcome = w.finish(built, w.timed(built, scratch))
                    expected.setdefault(expected_key(w.n, sc.name, i), {}).update(outcome.checks)
                print(f"{w.name} {sc.name}: {POOL[w.n]} runs recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
