#!/usr/bin/env python3
"""Compare two output trees of run_standard_suite.py or `contact-flow sweep`
and list every difference.

Every run directory (a directory holding manifest.json) must be present in
both trees with the same manifest, apart from its `timings` and `environment`
blocks: the same artifact sha256s, `library_hashes`, seeds, `final_J` and
metrics.  Each manifest must be one `harness.RunManifest` reads, each artifact
file must still match the hash its manifest records, and every metrics.csv,
summary.json and sweep.json must hold the same rows (a sweep.json's rows are
its cells, then the rest of the document).  One line is printed per
difference, naming a differing manifest field by its dotted path
(`guidance.radius`) and a refused manifest by its side and the reason; the
exit code is 1 if there is any, 0 otherwise.

Example:
    python scripts/compare_runs.py runs/parent runs/change
"""

import json
import sys
from pathlib import Path

import click

from contact_flow.evaluation import read_metrics_csv
from contact_flow.harness import MANIFEST_NAME, load_manifest, verify_manifest

# manifest blocks that differ between identical runs
IGNORED_KEYS = ("timings", "environment")


def _canonical(value) -> str:
    # JSON text compares NaN equal to itself, unlike the float
    return json.dumps(value, sort_keys=True)


def _differing_fields(a, b, name: str) -> list[str]:
    """Dotted names of the fields where manifest values `a` and `b` differ,
    descending into the dicts both hold; a missing field reads as None."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [field for key in sorted(a.keys() | b.keys())
                for field in _differing_fields(a.get(key), b.get(key), f"{name}.{key}")]
    return [name] if _canonical(a) != _canonical(b) else []


def _files(root: Path, name: str) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob(name)}


def _one_side(rel: Path, in_a: set[Path]) -> str:
    return f"{rel}: only in {'A' if rel in in_a else 'B'}"


def _sweep_rows(path: Path) -> list:
    doc = json.loads(path.read_text())
    return [*doc.pop("cells"), doc]


def compare_trees(a: Path, b: Path) -> list[str]:
    """Every difference between the run trees `a` and `b`, one line each."""
    diffs = []
    manifests_a, manifests_b = _files(a, MANIFEST_NAME), _files(b, MANIFEST_NAME)
    diffs += [_one_side(rel, manifests_a) for rel in sorted(manifests_a ^ manifests_b)]
    for rel in sorted(manifests_a & manifests_b):
        run = rel.parent
        refused = []
        for side, root in (("A", a), ("B", b)):
            try:
                diffs += [
                    f"{run}: {side} artifact {name!r} does not match its recorded sha256"
                    for name in verify_manifest(root / run)
                ]
            except ValueError as exc:
                refused.append(f"{run}: {side} manifest refused: {exc}")
        if refused:  # its fields are not compared
            diffs += refused
            continue
        ma, mb = load_manifest(a / run), load_manifest(b / run)
        for key in sorted((ma.keys() | mb.keys()) - set(IGNORED_KEYS)):
            diffs += [f"{run}: manifest {field!r} differs"
                      for field in _differing_fields(ma.get(key), mb.get(key), key)]
    for name, read in (
        ("metrics.csv", read_metrics_csv),
        ("summary.json", lambda path: [json.loads(path.read_text())]),
        ("sweep.json", _sweep_rows),
    ):
        files_a, files_b = _files(a, name), _files(b, name)
        diffs += [_one_side(rel, files_a) for rel in sorted(files_a ^ files_b)]
        for rel in sorted(files_a & files_b):
            rows_a, rows_b = read(a / rel), read(b / rel)
            if len(rows_a) != len(rows_b):
                diffs.append(f"{rel}: {len(rows_a)} rows in A, {len(rows_b)} in B")
            diffs += [
                f"{rel}: row {i} differs"
                for i, (ra, rb) in enumerate(zip(rows_a, rows_b))
                if _canonical(ra) != _canonical(rb)
            ]
    return diffs


@click.command()
@click.argument("tree_a", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.argument("tree_b", type=click.Path(exists=True, file_okay=False, path_type=Path))
def main(tree_a, tree_b):
    diffs = compare_trees(tree_a, tree_b)
    for line in diffs:
        click.echo(line)
    runs = len(_files(tree_a, MANIFEST_NAME))
    click.echo(f"{runs} runs in A: {len(diffs)} difference(s)")
    sys.exit(1 if diffs else 0)


if __name__ == "__main__":
    main()
