"""Contact-point generation, subsampling, and voxel-space search primitives."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .voxelcore import (
    BinaryGrid,
    _expect,
    _freeze,
    _read,
    _unique_keys,
    _write,
    index_to_point,
    nonzero_indices,
    point_to_index,
)

PROVENANCE_SAMPLED = "sampled-from-ground-truth"
PROVENANCE_EXTERNAL = "external file"


@dataclass(frozen=True)
class ContactSet:
    """Sparse contact points in unit-cube coordinates."""

    points: np.ndarray
    provenance: str = PROVENANCE_SAMPLED

    FIELDS = {"points": (tuple,), "provenance": str}

    def __post_init__(self):
        try:
            pts = np.asarray(self.points, dtype=np.float64)
        except ValueError:  # rows of unequal length
            raise ValueError("contact points must be [x, y, z] rows") from None
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"contact points must have shape (M, 3), got {pts.shape}")
        if pts.shape[0] == 0:
            raise ValueError("contact set must be non-empty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("contact points must be finite")
        if pts.min() < 0.0 or pts.max() > 1.0:
            raise ValueError("contact points must lie inside the unit cube")
        object.__setattr__(self, "points", _freeze(pts))

    def __len__(self) -> int:
        return self.points.shape[0]

    def to_dict(self) -> dict:
        return _write(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ContactSet":
        # a file that does not say where its contacts came from holds external ones
        d = {"provenance": PROVENANCE_EXTERNAL, **_expect(d, dict, "contact set")}
        return _read(cls, d, "", "contact set")

    @classmethod
    def from_json(cls, text: str | bytes) -> "ContactSet":
        """The contact set of a contacts file's text or bytes."""
        return cls.from_dict(json.loads(text, object_pairs_hook=_unique_keys))

    @classmethod
    def load(cls, path) -> "ContactSet":
        with open(path, "rb") as f:
            return cls.from_json(f.read())


def sample_contacts(candidates: np.ndarray, resolution: int, count: int, seed: int) -> ContactSet:
    """`count` of the (K, 3) voxel indices `candidates` (a ground truth's hidden surface), drawn
    uniformly without replacement, as the voxel centers of a grid of `resolution`."""
    if count > candidates.shape[0]:
        raise ValueError(
            f"contacts cannot complement vision: requested {count} contacts "
            f"but the hidden surface has only {candidates.shape[0]} voxels"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = rng.choice(candidates.shape[0], size=count, replace=False)
    return ContactSet(index_to_point(candidates[chosen], resolution), provenance=PROVENANCE_SAMPLED)


def farthest_point_sample(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Greedy farthest point sampling of k rows of (M, 3) `points`.

    The start point is chosen by the seed; each following pick maximizes the
    minimum distance to the already-selected set, ties broken by lowest index.
    """
    m = len(points)
    if k > m:
        raise ValueError(f"cannot select {k} points from a cloud of {m}")
    if k < 1:
        raise ValueError("k must be positive")
    pts = np.asarray(points, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    selected = [int(rng.integers(m))]
    min_d2 = np.sum((pts - pts[selected[0]]) ** 2, axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(min_d2))  # argmax returns the lowest index on ties
        selected.append(nxt)
        min_d2 = np.minimum(min_d2, np.sum((pts - pts[nxt]) ** 2, axis=1))
    return pts[selected]


def _nearest_occupied(ref: BinaryGrid, points: np.ndarray) -> np.ndarray:
    """(M, 3) indices of the occupied voxels closest to each of the (M, 3)
    finite `points`; a tie goes to the lexicographically lowest index.

    Each point is searched in a cube of voxels around its own voxel a. The
    cube's half-width doubles until it holds an occupied voxel, whose squared
    distance d bounds the answer. A point lies in a's cell (one outside the
    unit cube is no nearer any voxel than its clamp into that cell), so a
    voxel more than R = ceil(sqrt(d)·N) + 1 voxels from a along some axis is
    at least (R + 0.5)/N > sqrt(d) away: the cube of half-width R holds the
    minimum and all of its ties. Its occupied voxels are listed in
    lexicographic order, so `argmin` picks the same voxel a scan of the whole
    grid would.
    """
    if ref.is_empty():
        raise ValueError("reference grid has no occupied voxels")
    N = ref.resolution

    def occupied_near(a, half_width):
        lo = np.maximum(a - half_width, 0)
        hi = np.minimum(a + half_width + 1, N)
        return lo + nonzero_indices(ref.data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]])

    best = np.empty((len(points), 3), dtype=np.int64)
    for m, (p, a) in enumerate(zip(points, point_to_index(points, N))):
        half_width = 1
        while not (idx := occupied_near(a, half_width)).size:
            half_width *= 2
        d = np.min(np.sum((index_to_point(idx, N) - p) ** 2, axis=1))
        idx = occupied_near(a, int(np.ceil(np.sqrt(d) * N)) + 1)
        # argmin returns the lowest index on ties
        best[m] = idx[np.argmin(np.sum((index_to_point(idx, N) - p) ** 2, axis=1))]
    return best
