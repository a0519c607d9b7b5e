"""Grid containers, coordinate conventions, procedural voxelization, surface extraction.

Conventions used everywhere in this package:

* The occupancy volume is the axis-aligned unit cube [0,1]^3.
* Grids are indexed ``data[i, j, k]`` with axis 0 = x, axis 1 = y, axis 2 = z
  (x-major; row-major / C order when serialized).
* Voxel ``(i, j, k)`` of an N-grid has its center at
  ``((i+0.5)/N, (j+0.5)/N, (k+0.5)/N)`` (voxel-center convention; quantization
  error is at most half a voxel pitch per axis).
* All containers are immutable after construction and safe to share across
  threads; the operations below are pure functions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

GRID_MAGIC = b"CFLOWGRD"
GRID_FORMAT_VERSION = 1
_KIND_OCCUPANCY = 0
_KIND_BINARY = 1


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatentGrid:
    """Dense latent tensor of shape (n, n, n, C) the flow evolves on.

    Pairs with an OccupancyGrid of lateral resolution N = 4n.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[0] != arr.shape[2]:
            raise ValueError(f"latent grid must have shape (n, n, n, C), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("latent grid contains non-finite entries")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class OccupancyGrid:
    """Continuous occupancy values in [0,1] on an N^3 grid over the unit cube."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValueError(f"occupancy grid must be cubic (N, N, N), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("occupancy grid contains non-finite entries")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("occupancy values must lie in [0, 1]")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def resolution(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class BinaryGrid:
    """Boolean occupancy on an N^3 grid, usually from thresholding an OccupancyGrid."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype != np.bool_:
            arr = arr.astype(bool)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValueError(f"binary grid must be cubic (N, N, N), got {arr.shape}")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def resolution(self) -> int:
        return self.data.shape[0]

    @property
    def count(self) -> int:
        return int(self.data.sum())

    def is_empty(self) -> bool:
        return not bool(self.data.any())


@dataclass(frozen=True)
class PointCloud:
    """Points in unit-cube coordinates (pipeline-produced clouds stay in [0,1]^3;
    `normalize_to_unit_cube` also accepts clouds outside the cube)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"point cloud must have shape (M, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", _freeze(pts))

    def __len__(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# index <-> coordinate mapping
# ---------------------------------------------------------------------------


def index_to_point(index, resolution: int) -> np.ndarray:
    """Center of voxel `index` in unit-cube coordinates."""
    idx = np.asarray(index, dtype=np.float64)
    return (idx + 0.5) / resolution


def point_to_index(point, resolution: int) -> np.ndarray:
    """Voxel containing `point`; points on the upper cube face map to the last voxel."""
    p = np.asarray(point, dtype=np.float64)
    idx = np.floor(p * resolution).astype(np.int64)
    return np.clip(idx, 0, resolution - 1)


def voxel_centers(resolution: int) -> np.ndarray:
    """All N^3 voxel centers, shape (N^3, 3), in C (x-major) order."""
    axis = (np.arange(resolution) + 0.5) / resolution
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


# ---------------------------------------------------------------------------
# procedural primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; contains points with lo <= p < hi per axis."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def validate(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("box lo/hi must be 3-vectors")
        if np.any(hi <= lo):
            raise ValueError(f"degenerate primitive: box has zero/negative extent (lo={self.lo}, hi={self.hi})")
        if lo.min() < 0.0 or hi.max() > 1.0:
            raise ValueError("box parameters must lie inside the unit cube")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts < hi), axis=1)


@dataclass(frozen=True)
class Cylinder:
    """Circular cylinder along a coordinate axis.

    `center` gives the cross-section center on the two other axes in ascending
    axis order; span is half-open [lo, hi) along `axis`.
    """

    axis: int
    center: tuple[float, float]
    radius: float
    lo: float
    hi: float

    def validate(self):
        if self.axis not in (0, 1, 2):
            raise ValueError("cylinder axis must be 0, 1 or 2")
        if self.radius <= 0.0:
            raise ValueError("degenerate primitive: cylinder radius must be positive")
        if self.hi <= self.lo:
            raise ValueError("degenerate primitive: cylinder span has zero/negative extent")
        c = np.asarray(self.center, dtype=np.float64)
        if (
            self.lo < 0.0
            or self.hi > 1.0
            or np.any(c - self.radius < 0.0)
            or np.any(c + self.radius > 1.0)
        ):
            raise ValueError("cylinder parameters must lie inside the unit cube")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        cross = [a for a in (0, 1, 2) if a != self.axis]
        d2 = (pts[:, cross[0]] - self.center[0]) ** 2 + (pts[:, cross[1]] - self.center[1]) ** 2
        along = pts[:, self.axis]
        return (d2 <= self.radius**2) & (along >= self.lo) & (along < self.hi)


@dataclass(frozen=True)
class LBracket:
    """Union of two boxes sharing a corner/face, the classic L profile."""

    first: Box
    second: Box

    def validate(self):
        self.first.validate()
        self.second.validate()

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.first.contains(pts) | self.second.contains(pts)


@dataclass(frozen=True)
class UnionOfBoxes:
    boxes: tuple[Box, ...]

    def validate(self):
        if not self.boxes:
            raise ValueError("degenerate primitive: union of zero boxes")
        for b in self.boxes:
            b.validate()

    def contains(self, pts: np.ndarray) -> np.ndarray:
        mask = np.zeros(pts.shape[0], dtype=bool)
        for b in self.boxes:
            mask |= b.contains(pts)
        return mask


@dataclass(frozen=True)
class SphereCappedBox:
    """Box with a hemispherical cap sitting on its high face along `cap_axis`."""

    box: Box
    cap_axis: int
    cap_radius: float

    def validate(self):
        self.box.validate()
        if self.cap_axis not in (0, 1, 2):
            raise ValueError("cap axis must be 0, 1 or 2")
        if self.cap_radius <= 0.0:
            raise ValueError("degenerate primitive: cap radius must be positive")
        center = self._cap_center()
        lo = center - self.cap_radius
        hi = center + self.cap_radius
        if lo.min() < 0.0 or hi.max() > 1.0:
            raise ValueError("sphere cap must lie inside the unit cube")

    def _cap_center(self) -> np.ndarray:
        lo = np.asarray(self.box.lo)
        hi = np.asarray(self.box.hi)
        center = (lo + hi) / 2.0
        center[self.cap_axis] = hi[self.cap_axis]
        return center

    def contains(self, pts: np.ndarray) -> np.ndarray:
        center = self._cap_center()
        in_ball = np.sum((pts - center) ** 2, axis=1) <= self.cap_radius**2
        above = pts[:, self.cap_axis] >= center[self.cap_axis]
        return self.box.contains(pts) | (in_ball & above)


Primitive = Box | Cylinder | LBracket | UnionOfBoxes | SphereCappedBox


def primitive_from_dict(spec: dict) -> Primitive:
    """Parse a primitive description (scenario-file form) into a Primitive."""
    kind = spec.get("kind")
    if kind == "box":
        return Box(lo=tuple(spec["lo"]), hi=tuple(spec["hi"]))
    if kind == "cylinder":
        return Cylinder(
            axis=int(spec["axis"]),
            center=tuple(spec["center"]),
            radius=float(spec["radius"]),
            lo=float(spec["lo"]),
            hi=float(spec["hi"]),
        )
    if kind == "l_bracket":
        return LBracket(
            first=Box(tuple(spec["first"]["lo"]), tuple(spec["first"]["hi"])),
            second=Box(tuple(spec["second"]["lo"]), tuple(spec["second"]["hi"])),
        )
    if kind == "union_of_boxes":
        return UnionOfBoxes(
            boxes=tuple(Box(tuple(b["lo"]), tuple(b["hi"])) for b in spec["boxes"])
        )
    if kind == "sphere_capped_box":
        return SphereCappedBox(
            box=Box(tuple(spec["box"]["lo"]), tuple(spec["box"]["hi"])),
            cap_axis=int(spec["cap_axis"]),
            cap_radius=float(spec["cap_radius"]),
        )
    raise ValueError(f"unknown primitive kind: {kind!r}")


def primitive_to_dict(prim: Primitive) -> dict:
    if isinstance(prim, Box):
        return {"kind": "box", "lo": list(prim.lo), "hi": list(prim.hi)}
    if isinstance(prim, Cylinder):
        return {
            "kind": "cylinder",
            "axis": prim.axis,
            "center": list(prim.center),
            "radius": prim.radius,
            "lo": prim.lo,
            "hi": prim.hi,
        }
    if isinstance(prim, LBracket):
        return {
            "kind": "l_bracket",
            "first": {"lo": list(prim.first.lo), "hi": list(prim.first.hi)},
            "second": {"lo": list(prim.second.lo), "hi": list(prim.second.hi)},
        }
    if isinstance(prim, UnionOfBoxes):
        return {
            "kind": "union_of_boxes",
            "boxes": [{"lo": list(b.lo), "hi": list(b.hi)} for b in prim.boxes],
        }
    if isinstance(prim, SphereCappedBox):
        return {
            "kind": "sphere_capped_box",
            "box": {"lo": list(prim.box.lo), "hi": list(prim.box.hi)},
            "cap_axis": prim.cap_axis,
            "cap_radius": prim.cap_radius,
        }
    raise TypeError(f"not a primitive: {prim!r}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def voxelize_primitive(spec: Primitive, resolution: int) -> BinaryGrid:
    """Voxelize a solid: a voxel is occupied iff its center lies inside it."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    spec.validate()
    centers = voxel_centers(resolution)
    mask = spec.contains(centers).reshape((resolution,) * 3)
    if not mask.any():
        raise ValueError("primitive voxelizes to an empty grid at this resolution")
    return BinaryGrid(mask)


def extract_surface(grid: BinaryGrid) -> PointCloud:
    """Centers of occupied voxels with at least one unoccupied 6-neighbor.

    The outside of the grid counts as unoccupied, so occupied voxels touching
    the grid boundary are surface voxels.
    """
    if grid.is_empty():
        raise ValueError("cannot extract surface of an empty grid")
    return PointCloud(index_to_point(np.argwhere(surface_mask(grid)), grid.resolution))


def surface_mask(grid: BinaryGrid) -> np.ndarray:
    """Boolean mask of the surface voxels of `grid` (same rule as extract_surface)."""
    occ = grid.data
    padded = np.pad(occ, 1, mode="constant", constant_values=False)
    interior = (
        padded[2:, 1:-1, 1:-1]
        & padded[:-2, 1:-1, 1:-1]
        & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, :-2, 1:-1]
        & padded[1:-1, 1:-1, 2:]
        & padded[1:-1, 1:-1, :-2]
    )
    return occ & ~interior


def binarize(s: OccupancyGrid, threshold: float = 0.5) -> BinaryGrid:
    """Threshold continuous occupancy: occupied iff s >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return BinaryGrid(s.data >= threshold)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------
#
# Grid container (little-endian):
#   bytes  0..7   magic  b"CFLOWGRD"
#   bytes  8..11  uint32 format version (currently 1)
#   bytes 12..15  uint32 payload kind: 0 = occupancy float32, 1 = binary packed bits
#   bytes 16..19  int32  N (lateral resolution)
#   bytes 20..    payload, row-major (x-major):
#                   occupancy: N^3 float32
#                   binary:    ceil(N^3 / 8) bytes, np.packbits order


def grid_to_bytes(grid: OccupancyGrid | BinaryGrid) -> bytes:
    if isinstance(grid, OccupancyGrid):
        kind = _KIND_OCCUPANCY
        payload = grid.data.astype("<f4").tobytes(order="C")
    elif isinstance(grid, BinaryGrid):
        kind = _KIND_BINARY
        payload = np.packbits(grid.data.reshape(-1)).tobytes()
    else:
        raise TypeError(f"not a grid: {grid!r}")
    header = GRID_MAGIC + struct.pack("<II", GRID_FORMAT_VERSION, kind)
    return header + struct.pack("<i", grid.resolution) + payload


def grid_from_bytes(blob: bytes) -> OccupancyGrid | BinaryGrid:
    if len(blob) < 20 or blob[:8] != GRID_MAGIC:
        raise ValueError("not a contact-flow grid container")
    version, kind = struct.unpack("<II", blob[8:16])
    if version != GRID_FORMAT_VERSION:
        raise ValueError(f"unsupported grid container version {version}")
    (n,) = struct.unpack("<i", blob[16:20])
    payload = blob[20:]
    if kind == _KIND_OCCUPANCY:
        data = np.frombuffer(payload, dtype="<f4", count=n**3).reshape((n,) * 3)
        return OccupancyGrid(data.astype(np.float64))
    if kind == _KIND_BINARY:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n**3)
        return BinaryGrid(bits.astype(bool).reshape((n,) * 3))
    raise ValueError(f"unknown grid payload kind {kind}")


def save_grid(grid: OccupancyGrid | BinaryGrid, path) -> None:
    with open(path, "wb") as f:
        f.write(grid_to_bytes(grid))


def load_grid(path) -> OccupancyGrid | BinaryGrid:
    with open(path, "rb") as f:
        return grid_from_bytes(f.read())


def save_ply(cloud: PointCloud, path) -> None:
    """ASCII PLY with x, y, z vertex properties."""
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    lines.extend(f"{p[0]:.8f} {p[1]:.8f} {p[2]:.8f}" for p in cloud.points)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_ply(path) -> PointCloud:
    with open(path) as f:
        lines = f.read().splitlines()
    try:
        end = lines.index("end_header")
    except ValueError as exc:
        raise ValueError("not an ASCII PLY file") from exc
    count = 0
    for line in lines[:end]:
        if line.startswith("element vertex"):
            count = int(line.split()[-1])
    pts = np.array(
        [[float(v) for v in line.split()[:3]] for line in lines[end + 1 : end + 1 + count]],
        dtype=np.float64,
    ).reshape(count, 3)
    return PointCloud(pts)
