"""Geometry metrics: Chamfer distance, F-score at distance thresholds,
the unit-cube transform, and contact-residual statistics.

Chamfer convention used throughout: mean of un-squared Euclidean
nearest-neighbor distances, averaged over both directions and halved.
Absolute values are therefore comparable across runs of this package but not
against evaluations that use squared or summed variants.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .contact import ContactSet, _nearest_occupied
from .voxelcore import (
    BinaryGrid,
    OccupancyGrid,
    _finite_or_none,
    binarize,
    index_to_point,
    nonzero_indices,
    surface_mask,
)

METRICS_SCHEMA_VERSION = "v1"
F_SCORE_THRESHOLDS = (0.01, 0.02, 0.05)

# the metrics.csv column and summary name of the F-score at each threshold
F_SCORE_COLUMNS = {tau: f"f_{tau:g}" for tau in F_SCORE_THRESHOLDS}

METRICS_CSV_COLUMNS = (
    "scenario",
    "method",
    "seed",
    "chamfer",
    *F_SCORE_COLUMNS.values(),
    "contact_residual_median",
    "final_J",
    "failed",
)


@dataclass(frozen=True)
class MetricsReport:
    chamfer: float
    f_scores: dict[float, float]
    contact_residual_median: float
    scenario: str = ""
    method: str = ""
    seed: int = -1
    final_J: float = math.nan
    failed: bool = False

    def to_row(self) -> dict:
        row = {
            "scenario": self.scenario,
            "method": self.method,
            "seed": self.seed,
            "chamfer": self.chamfer,
            "contact_residual_median": self.contact_residual_median,
            "final_J": self.final_J,
            "failed": int(self.failed),
        }
        for tau, column in F_SCORE_COLUMNS.items():
            row[column] = self.f_scores.get(tau, math.nan)
        return row

    def to_json_dict(self) -> dict:
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "scenario": self.scenario,
            "method": self.method,
            "seed": self.seed,
            "chamfer": _finite_or_none(self.chamfer),
            "f_scores": {f"{tau:g}": _finite_or_none(v) for tau, v in sorted(self.f_scores.items())},
            "contact_residual_median": _finite_or_none(self.contact_residual_median),
            "final_J": _finite_or_none(self.final_J),
            "failed": self.failed,
        }


def _nearest_distances(a: np.ndarray, b: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Distance from each point of `a` to its nearest point of `b`.

    `shared` flags the points of `a` that are also points of `b`.  Their
    distance is exactly 0.0, the value a KD-tree query returns for them, so
    only the rest are queried against a KD-tree of `b`.  An exact query
    returns the same minimum whatever the tree's shape, so the tree is built
    the cheap way: sliding-midpoint splits, no bounding-box shrinking.
    """
    d = np.zeros(len(a))
    rest = ~shared
    if rest.any():
        d[rest], _ = cKDTree(b, balanced_tree=False, compact_nodes=False).query(a[rest])
    return d


def _chamfer(d_ab: np.ndarray, d_ba: np.ndarray) -> float:
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def _f_score(d_pg: np.ndarray, d_gp: np.ndarray, tau: float) -> float:
    """Harmonic mean of precision/recall of point proximity at threshold tau."""
    precision = float(np.mean(d_pg <= tau))
    recall = float(np.mean(d_gp <= tau))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def unit_cube_transform(points: np.ndarray) -> tuple[float, np.ndarray]:
    """Scale and offset mapping the bounding box of (M, 3) `points` to be centered
    in [0,1]^3 with its longest axis spanning length 1.  Returns (scale, offset)
    such that p' = p * scale + offset."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise ValueError("cannot normalize a cloud with zero extent on all axes")
    scale = 1.0 / extent
    center = (lo + hi) / 2.0
    offset = 0.5 - center * scale
    return scale, offset


def contact_residuals(output: BinaryGrid, contacts: ContactSet) -> np.ndarray:
    """Distance from each contact point to the nearest occupied voxel center of
    the output, found by the exact box search that places the drag windows."""
    if output.is_empty():
        raise ValueError("output grid has no occupied voxels")
    nearest = index_to_point(_nearest_occupied(output, contacts.points), output.resolution)
    return np.sqrt(np.sum((nearest - contacts.points) ** 2, axis=1))


def evaluate_run(
    output: OccupancyGrid | BinaryGrid,
    gt: BinaryGrid,
    contacts: ContactSet,
    scenario: str = "",
    method: str = "",
    seed: int = -1,
    final_J: float = math.nan,
) -> MetricsReport:
    """Surface metrics of a generated occupancy, or its binary shape, against ground truth.

    Both surface clouds are mapped by the ground-truth cloud's unit-cube
    transform, so prediction scale errors stay visible.  The distances equal
    a KD-tree query of each whole cloud against the other, bit for bit.  An
    empty prediction yields a failure-flagged report with sentinel metrics.
    The two grids must share one resolution.
    """
    if output.resolution != gt.resolution:
        raise ValueError(
            f"output resolution {output.resolution} differs from ground truth {gt.resolution}"
        )
    pred_binary = binarize(output)
    if pred_binary.is_empty():
        return MetricsReport(
            chamfer=math.inf,
            f_scores={tau: 0.0 for tau in F_SCORE_THRESHOLDS},
            contact_residual_median=math.inf,
            scenario=scenario,
            method=method,
            seed=seed,
            final_J=final_J,
            failed=True,
        )
    if gt.is_empty():
        raise ValueError("cannot evaluate against an empty ground truth")
    # a voxel on both surfaces has one mapped center, shared by both clouds
    pred_surface, gt_surface = surface_mask(pred_binary), surface_mask(gt)
    pred_points = index_to_point(nonzero_indices(pred_surface), gt.resolution)
    gt_points = index_to_point(nonzero_indices(gt_surface), gt.resolution)
    scale, offset = unit_cube_transform(gt_points)
    pred_points = pred_points * scale + offset
    gt_points = gt_points * scale + offset
    d_pg = _nearest_distances(pred_points, gt_points, shared=gt_surface[pred_surface])
    d_gp = _nearest_distances(gt_points, pred_points, shared=pred_surface[gt_surface])
    return MetricsReport(
        chamfer=_chamfer(d_pg, d_gp),
        f_scores={tau: _f_score(d_pg, d_gp, tau) for tau in F_SCORE_THRESHOLDS},
        contact_residual_median=float(np.median(contact_residuals(pred_binary, contacts))),
        scenario=scenario,
        method=method,
        seed=seed,
        final_J=final_J,
        failed=False,
    )


def write_metrics_csv(path, reports) -> None:
    """One row per run; schema documented in the README (version v1)."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=METRICS_CSV_COLUMNS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.to_row())


def read_metrics_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))
