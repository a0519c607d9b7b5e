#!/usr/bin/env python3
"""Time cold and memo-hit scenario builds of the standard suite in one process.

For each suite scenario at n=16, after one untimed build, this prints the
median over 30 builds of:

* cold_ms: the wall time of `build_scenario` with the one-geometry memo
  cleared first (`scenarios._seed_independent.cache_clear()`), the build
  every `contact-flow generate` process makes;
* faults: the minor page faults of such a cold build (`resource.getrusage`,
  ru_minflt), which count the fresh pages its temporaries touch;
* hit_us: the wall time of a build that hits the memo.

The result is one JSON object, {scenario: {"cold_ms", "hit_us", "faults"}}.
BLAS runs on one thread unless the caller sets the thread variables.  With
--src, contact_flow is imported from that directory (another checkout's src/),
so two trees can be timed by the same script in alternating processes.

Example:
    python scripts/cold_build.py
    python scripts/cold_build.py --src ../parent/src
"""

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
GRID_N = 16  # latent resolution of the suite
BUILDS = 30  # builds per median


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(scenarios, scenario) -> dict:
    """Median cold-build ms, memo-hit µs and cold-build minor faults of `scenario`."""
    scenarios.build_scenario(scenario)
    cold, faults, hit = [], [], []
    for _ in range(BUILDS):
        scenarios._seed_independent.cache_clear()
        f0, t0 = _minor_faults(), time.perf_counter()
        scenarios.build_scenario(scenario)
        cold.append(time.perf_counter() - t0)
        faults.append(_minor_faults() - f0)
    for _ in range(BUILDS):
        t0 = time.perf_counter()
        scenarios.build_scenario(scenario)
        hit.append(time.perf_counter() - t0)
    return {"cold_ms": 1e3 * statistics.median(cold), "hit_us": 1e6 * statistics.median(hit),
            "faults": statistics.median(faults)}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory contact_flow is imported from (default: this checkout's src/)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from contact_flow import scenarios

    result = {sc.name: measure(scenarios, sc) for sc in scenarios.standard_suite(n=GRID_N)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
