#!/usr/bin/env python3
"""Time whole `contact-flow generate` processes of two source trees in alternating rounds.

Each of 6 rounds runs `contact-flow generate --scenario suite:depth_boxes` at
n=16, unguided and then guided, once with contact_flow imported from --parent
(another checkout's src/) and once from this checkout's src/, one process at a
time; the parent runs first in even rounds and the change first in odd ones.
A process is the console script's own call, `contact_flow.harness.main()`, in
a fresh interpreter, so its wall time counts the interpreter, every import,
the scenario build, the sampling and the artifact writes.  Per process this records
the wall time (from the spawn to the exit, seen from here) and the peak RSS
(`os.wait4`'s ru_maxrss), and checks that both trees wrote the same artifact
sha256s in the same round and mode.

Per mode, the medians of both sides and the change's median relative to the
parent's are printed as JSON; with --out they are written under the key
"generate_process" of that file, keeping its other keys.  The exit code is 1
if a process fails or the artifacts differ, 0 otherwise.  BLAS runs on one
thread unless the caller sets the thread variables.

Example:
    python scripts/generate_process.py --parent ../parent/src --out BENCH_label.json
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import click

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MODES = {"unguided": ["--unguided"], "guided": []}
ROUNDS = 6  # alternating rounds, each side first in half of them
COMMAND = ["-c", "from contact_flow.harness import main; main()", "generate",
           "--scenario", "suite:depth_boxes", "--grid-n", "16"]


def _generate(src: Path, mode: str, out: Path) -> tuple[float, float, dict]:
    """(wall s, peak RSS MB, manifest artifacts) of one generate process importing from `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    cmd = [sys.executable, *COMMAND, "--out", str(out), *MODES[mode]]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise click.ClickException(f"{' '.join(cmd)} exited with {proc.returncode}")
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    return wall, usage.ru_maxrss / 1024, artifacts


@click.command()
@click.option("--parent", type=click.Path(exists=True, file_okay=False, path_type=Path), required=True,
              help="src/ directory of the parent tree.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="JSON file to write the record into, under the key generate_process.")
def main(parent, out):
    srcs = {"parent": parent.resolve(), "change": ROOT / "src"}
    wall = {mode: {side: [] for side in SIDES} for mode in MODES}
    rss = {mode: {side: [] for side in SIDES} for mode in MODES}
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(ROUNDS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for mode in MODES:
                artifacts = {}
                for side in order:
                    w, r, artifacts[side] = _generate(srcs[side], mode, Path(tmp) / f"{i}-{mode}-{side}")
                    wall[mode][side].append(w)
                    rss[mode][side].append(r)
                if artifacts["parent"] != artifacts["change"]:
                    mismatches.append(f"round {i} {mode}")
    record = {"command": "python -c 'from contact_flow.harness import main; main()' " + " ".join(COMMAND[2:])
              + " --out DIR [--unguided]",
              "rounds": ROUNDS, "first_in_round": [SIDES[i % 2] for i in range(ROUNDS)],
              "artifacts_identical": not mismatches}
    for mode in MODES:
        med = {side: statistics.median(wall[mode][side]) for side in SIDES}
        record[mode] = {
            "wall_s": wall[mode],
            "peak_rss_mb": rss[mode],
            "median_wall_s": med,
            "median_peak_rss_mb": {side: statistics.median(rss[mode][side]) for side in SIDES},
            "change_over_parent": med["change"] / med["parent"],
        }
    click.echo(json.dumps(record, indent=1))
    if out is not None:
        existing = json.loads(out.read_text()) if out.exists() else {}
        out.write_text(json.dumps({**existing, "generate_process": record}, indent=1) + "\n")
    for line in mismatches:
        click.echo(f"artifacts differ: {line}", err=True)
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
