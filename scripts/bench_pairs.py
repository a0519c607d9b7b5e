#!/usr/bin/env python3
"""Run alternating perfbench pairs between two checkouts and test a speed claim.

Pair i of 10 runs `perfbench/run.py --workload W --seed 1001+i --seconds S
--trace 0` once in each checkout, for every workload W of the change's
BENCHMARK.json and its run_seconds S, each side with its own perfbench/ and
src/, one process at a time; the parent runs first in even pairs and the
change first in odd ones, and the workloads are interleaved pair by pair.
Each pair's end-to-end metrics are printed as they arrive, then per workload
and metric the medians and quartiles (numpy percentile, linear) of both sides,
the parent's IQR and the pairs the change wins.  Each run's wall-clock unit
p50 and tail seconds (run_s.pNN, at the percentile run_ref.tail takes) and its
reference-kernel p50 seconds, the divisor of its unit times, are recorded and
printed next to its metrics, and summarized the same way under each
workload's table.  A last line per run_ref figure puts the median changes of
run_ref, of the unit's wall clock and of the kernel side by side, so a reader
can tell whether a change of run_ref came from the unit or from the kernel.
With --claim WORKLOAD:METRIC (a BENCHMARK.json workload and end-to-end metric)
the rule is tested: the change must be better in at least 9 of the 10 pairs
and its median must beat the parent's by more than the parent's IQR.  For a
claimed metric divided by the reference kernel (run_ref.p50, run_ref.tail,
runs_per_kref) a note is printed when the claimed workload's kernel moved more
than its unit: that change is the kernel's, not the unit's.  Another claimed
metric, such as setup_s in seconds, gets no note.  The exit code is 1 if the
claim does not hold or a run's output check failed, 0 otherwise.

The record is written to --out as JSON; the keys it does not write of an
existing file are kept, so other evidence can sit next to it.  Its `parent` is
the commit checked out at --parent, so a --parent that is not a git work tree
with a commit is a usage error (exit 2), found before the first run.

Example:
    python scripts/bench_pairs.py --parent ../parent --change . \\
        --claim guided_n16:run_ref.p50 --out BENCH_label.json
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import click
import numpy as np

SIDES = ("parent", "change")
PAIRS = 10
WINS_NEEDED = 9
SEED0 = 1001
# the wall-clock line of a run's report: the unit p50 and tail seconds, and the
# p50 seconds of the reference kernel that the unit times are divided by
WALL_CLOCK = re.compile(
    r"wall clock: run_s\.p50 (\S+) s, run_s\.p\d+ (\S+) s, .*reference kernel p50 (\S+) s"
)
# what a run records from its wall-clock line, in the order of the pattern's groups
WALL_CLOCK_KEYS = ("run_s.p50", "run_s.tail", "ref_kernel_p50_s")
# each run_ref figure and the unit wall-clock figure it is made from
UNIT_FIGURE = {"run_ref.p50": "run_s.p50", "run_ref.tail": "run_s.tail"}
# each end-to-end metric divided by the reference kernel, and the run_ref
# figure whose median moves tell a kernel move from a unit move
KERNEL_DIVIDED = {"run_ref.p50": "run_ref.p50", "run_ref.tail": "run_ref.tail", "runs_per_kref": "run_ref.p50"}


def parse_report(stdout: str) -> tuple[dict, dict] | None:
    """(result, environment) of a benchmark process's output: the result line
    with the WALL_CLOCK_KEYS figures of its wall-clock line added (NaN without
    one), and its `env` line; None if the output ends without a result line."""
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    match = next((m for line in lines if (m := WALL_CLOCK.search(line))), None)
    wall = {key: float(match[i + 1]) if match else math.nan for i, key in enumerate(WALL_CLOCK_KEYS)}
    return {**json.loads(lines[-1]), **wall}, env


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark process; returns parse_report of its output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    report = parse_report(proc.stdout)
    if report is None:
        raise click.ClickException(f"{checkout}: {' '.join(cmd[1:])} printed no result\n{proc.stderr}")
    return report


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(values: dict, better: str) -> dict:
    """One figure's quartiles on both sides, the change's wins and ties, and every run."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
    return {
        "better": better,
        **{side: _quartiles(values[side]) for side in SIDES},
        "change_wins": sum(g > 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "parent_runs": values["parent"],
        "change_runs": values["change"],
    }


def summarize(runs: dict, better: dict) -> dict:
    """Per end-to-end metric, its `compare` over the pairs."""
    return {
        name: compare({side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES},
                      better[name])
        for name in runs["parent"][0]["metrics"]
    }


def summarize_wall_clock(runs: dict) -> dict:
    """Per WALL_CLOCK_KEYS figure (seconds, lower is better), its `compare` over
    the pairs: whether a change of run_ref came from the unit or the kernel."""
    return {key: compare({side: [r[key] for r in runs[side]] for side in SIDES}, "lower")
            for key in WALL_CLOCK_KEYS}


def median_moves(block: dict) -> dict:
    """Per run_ref figure of a workload's summary, the relative change of the
    median (change / parent - 1) of run_ref, of the unit's wall clock it is
    made from and of the reference kernel it is divided by."""

    def move(m: dict) -> float:
        return m["change"]["median"] / m["parent"]["median"] - 1.0

    return {ref: {"run_ref": move(block["metrics"][ref]), "unit": move(block[unit]),
                  "kernel": move(block["ref_kernel_p50_s"])}
            for ref, unit in UNIT_FIGURE.items()}


def format_row(name: str, m: dict) -> str:
    return (f"  {name:24s} parent {m['parent']['median']:.6g} [{m['parent']['q1']:.6g}, "
            f"{m['parent']['q3']:.6g}]  change {m['change']['median']:.6g} "
            f"[{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]  "
            f"parent IQR {m['parent']['q3'] - m['parent']['q1']:.4g}  "
            f"change wins {m['change_wins']}/{len(m['parent_runs'])} ({m['better']} is better)")


def claim_holds(metric: dict) -> dict:
    """The claim rule on one summarized metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    difference = sign * (metric["parent"]["median"] - metric["change"]["median"])
    iqr = metric["parent"]["q3"] - metric["parent"]["q1"]
    return {
        "rule": f"change better in >= {WINS_NEEDED} of {PAIRS} pairs and "
                "median difference > parent q3 - q1",
        "median_difference": difference,
        "parent_iqr": iqr,
        "change_wins": metric["change_wins"],
        "met": metric["change_wins"] >= WINS_NEEDED and difference > iqr,
    }


@click.command()
@click.option("--parent", "parent_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--change", "change_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--claim", default=None, help="WORKLOAD:METRIC whose gain the pairs must show.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def main(parent_dir, change_dir, claim, out_path):
    checkouts = {"parent": Path(parent_dir).resolve(), "change": Path(change_dir).resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if claim is not None:
        w, _, name = claim.partition(":")
        if w not in workloads or name not in better:
            raise click.BadParameter(
                f"{claim!r} is not WORKLOAD:METRIC with WORKLOAD one of {workloads} "
                f"and METRIC one of {list(better)}", param_hint="--claim")
    rev = subprocess.run(["git", "-C", str(checkouts["parent"]), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        raise click.BadParameter(f"{parent_dir} is not a git work tree with a commit: {rev.stderr.strip()}",
                                 param_hint="--parent")
    seeds = [SEED0 + i for i in range(PAIRS)]
    first = ["parent" if i % 2 == 0 else "change" for i in range(PAIRS)]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    envs = {}
    for i, seed in enumerate(seeds):
        for w in workloads:
            order = SIDES if first[i] == "parent" else SIDES[::-1]
            for side in order:
                result, envs[side] = _run(checkouts[side], w, seed, seconds)
                runs[w][side].append(result)
            line = " ".join(
                f"{name}={runs[w]['parent'][-1]['metrics'][name]['value']:.6g}/"
                f"{runs[w]['change'][-1]['metrics'][name]['value']:.6g}"
                for name in runs[w]["parent"][-1]["metrics"]
            )
            wall = " ".join(
                f"{key}=" + "/".join(f"{runs[w][side][-1][key]:.4g}" for side in SIDES)
                for key in WALL_CLOCK_KEYS
            )
            print(f"pair {i} {w} seed={seed} first={first[i]} (parent/change) {line} {wall}",
                  flush=True)
    record = {
        "parent": rev.stdout.strip(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "protocol": (
            f"{PAIRS} pairs per workload, seeds {seeds[0]}..{seeds[-1]}, one seed per pair; "
            "parent and change alternate which runs first (parent first in even pairs, see "
            "first_in_pair); pairs of the workloads interleaved; one benchmark process at a time; "
            "each side runs its own perfbench/ and src/. Values are medians and quartiles "
            "(numpy percentile, linear) over each side's runs; change_wins counts the pairs "
            "where the change is better."
        ),
        "workloads": {},
        "environment": envs.get("change", {}),
    }
    correct = True
    for w in workloads:
        block = {
            "pairs": PAIRS,
            "seeds": seeds,
            "first_in_pair": first,
            "correct": {side: all(r["correct"] for r in runs[w][side]) for side in SIDES},
            "attempted": {side: [r["attempted"] for r in runs[w][side]] for side in SIDES},
            "failed": {side: sum(r["failed"] for r in runs[w][side]) for side in SIDES},
            **summarize_wall_clock(runs[w]),
            "metrics": summarize(runs[w], better),
        }
        block["median_change"] = median_moves(block)
        record["workloads"][w] = block
        correct &= all(block["correct"].values())
        print(f"{w}: correct parent={block['correct']['parent']} change={block['correct']['change']}")
        for name, m in block["metrics"].items():
            print(format_row(name, m))
        print("  wall clock, seconds:")
        for key in WALL_CLOCK_KEYS:
            print(format_row(key, block[key]))
        for ref, unit in UNIT_FIGURE.items():
            m = block["median_change"][ref]
            print(f"  median change: {ref} {m['run_ref']:+.2%}, {unit} {m['unit']:+.2%}, "
                  f"reference kernel {m['kernel']:+.2%}")
    held = True
    if claim is not None:
        w, name = claim.split(":")
        record["claimed"] = {"workload": w, "metric": name, "better": better[name],
                             **claim_holds(record["workloads"][w]["metrics"][name])}
        held = record["claimed"]["met"]
        c = record["claimed"]
        print(f"claim {claim}: median difference {c['median_difference']:.4g}, parent IQR "
              f"{c['parent_iqr']:.4g}, change wins {c['change_wins']}/{PAIRS}: "
              f"{'holds' if held else 'does not hold'}")
        c["kernel_moved_more"] = None  # a metric not divided by the kernel
        if name in KERNEL_DIVIDED:
            m = record["workloads"][w]["median_change"][KERNEL_DIVIDED[name]]
            c["kernel_moved_more"] = abs(m["kernel"]) > abs(m["unit"])
            if c["kernel_moved_more"]:
                print(f"note: on {w} the reference kernel's median moved {m['kernel']:+.2%} and the "
                      f"unit's wall clock {m['unit']:+.2%}; the {name} change is the kernel's, not a gain")
    out = Path(out_path)
    kept = json.loads(out.read_text()) if out.exists() else {}
    out.write_text(json.dumps({**kept, **record}, indent=1) + "\n")
    sys.exit(0 if correct and held else 1)


if __name__ == "__main__":
    main()
