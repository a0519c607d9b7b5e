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

import dataclasses
import functools
import math
import numbers
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


def _store_tuples(obj, *names) -> None:
    """Store the list or array fields `names` of frozen dataclass `obj` as tuples (an
    array's entries as Python numbers), so equal values compare and hash equal."""
    for name in names:
        if isinstance(v := getattr(obj, name), (list, np.ndarray)):
            object.__setattr__(obj, name, tuple(v.tolist() if isinstance(v, np.ndarray) else v))


def _expect(value, kind: type, what: str):
    """`value` of a parsed input file; ValueError naming `what` when it is not a `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _require(d: dict, key: str, what: str):
    """d[key] of a parsed input mapping `what`; ValueError naming `what` and `key` when it is missing."""
    if key not in d:
        raise ValueError(f"{what} is missing required field {key!r}")
    return d[key]


def _is_number(value) -> bool:
    """A finite real number of a parsed input file; a bool, a string, NaN and inf are not one."""
    # a plain int or float skips the slower abstract-class check
    real = type(value) in (int, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value)


# each kind of number or list field: its name and the values it takes
_FIELD_KINDS = {
    int: ("an integer", lambda v: _is_number(v) and isinstance(v, numbers.Integral)),
    float: ("a number", _is_number),
    tuple: ("a list of numbers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}


def _convert(value, to, what: str):
    """to(value) for a number or list field of a parsed input file (`to` one of
    int, float, tuple); ValueError naming `what` when the value is not one, such
    as the None of a YAML field left empty, a bool, a string, or 10.5 for an int."""
    name, accepts = _FIELD_KINDS[to]
    try:
        if accepts(value):
            return to(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{what} must be {name}, got {value!r}") from None


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
        lo, hi = arr.min(), arr.max()  # a NaN is the min and the max
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("occupancy grid contains non-finite entries")
        if lo < 0.0 or hi > 1.0:
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

    def is_empty(self) -> bool:
        return not bool(self.data.any())


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


def nonzero_indices(mask: np.ndarray) -> np.ndarray:
    """(M, 3) int64 indices of the True voxels of a 3-D mask, in lexicographic
    order: the values of np.argwhere, from one flat scan of the mask."""
    return np.stack(np.unravel_index(np.flatnonzero(mask), mask.shape), axis=1)


def axis_centers(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Voxel-center coordinates along x, y, z, shaped to broadcast to the N^3 grid."""
    c = index_to_point(np.arange(resolution), resolution)
    return c[:, None, None], c[None, :, None], c[None, None, :]


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------
#
# Each input document class (the primitives below, the scenario, contact and
# guidance documents, and the run manifest) declares FIELDS = {field: reader},
# in file order.  A reader is int, float or tuple (a number or list field, see
# _convert), str or bool, dict (a mapping kept as it is, for its caller to
# read), a document class (a nested mapping), a reading function such as
# Scenario.from_dict (a nested mapping it reads itself; its ValueError is
# prefixed with the field), or (reader,) (a list of them).  A file may leave
# out a field whose dataclass has a default, unless the class declares its own
# OPTIONAL set of such fields, and may hold no other key.


@functools.cache
def _optional(cls) -> frozenset:
    """The fields a `cls` document may leave out."""
    defaults = frozenset(f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING)
    return getattr(cls, "OPTIONAL", defaults)


def _reject_unknown(d: dict, known, what: str) -> None:
    """ValueError naming `what` and the key when parsed mapping `d` holds a key outside `known`."""
    for key in d:
        if key not in known:
            raise ValueError(f"{what} has unknown field {key!r}")


def _unique_keys(pairs) -> dict:
    """The mapping of a parsed document's (key, value) `pairs`; ValueError naming
    the key when one repeats, which JSON and YAML readers would keep the last of."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ValueError(f"repeated key {key!r}")
        d[key] = value
    return d


def _finite_or_none(v):
    """`v`, or None (JSON null) when it is a non-finite float."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _read(reader, value, what: str, entry: str, own=(), **given):
    """A field of a parsed input document, read by `reader`; ValueError naming
    `what` when it has the wrong type, or `entry`, `what` and the key when a
    document lacks a field or holds a key neither a field nor read by its caller
    (the keys `own`, read into the fields `given`)."""
    if reader in _FIELD_KINDS:
        return _convert(value, reader, what)
    if reader in (str, bool, dict):
        return _expect(value, reader, what)
    if type(reader) is tuple:
        # each entry is named in the singular: "union_of_boxes box hi"
        return tuple(_read(reader[0], v, what.removesuffix("es"), entry) for v in _expect(value, list, what))
    if not hasattr(reader, "FIELDS"):
        try:
            return reader(value)
        except ValueError as exc:
            raise ValueError(f"{entry} {what}: {exc}") from None
    _expect(value, dict, what or entry)
    where = f"{entry} {what}".rstrip()
    _reject_unknown(value, reader.FIELDS.keys() | own, where)
    for f, r in reader.FIELDS.items():
        if f in value:
            given[f] = _read(r, value[f], f"{what} {f}".lstrip(), entry)
        elif f not in _optional(reader):
            raise ValueError(f"{where} is missing required field {f!r}")
    return reader(**given)


def _write(value, reader=None):
    """The parsed-file form of a document, or of a field read by `reader`; a
    document's fields that are None are left out."""
    reader = reader or type(value)
    if reader in (int, float, str, bool):
        return value
    if reader is tuple:
        return value.tolist() if isinstance(value, np.ndarray) else list(value)
    if type(reader) is tuple:
        return [_write(v, reader[0]) for v in value]
    return {f: _write(v, r) for f, r in reader.FIELDS.items() if (v := getattr(value, f)) is not None}


# ---------------------------------------------------------------------------
# procedural primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; contains points with lo <= p < hi per axis."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    FIELDS = {"lo": tuple, "hi": tuple}

    def __post_init__(self):
        _store_tuples(self, "lo", "hi")
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("box lo/hi must be 3-vectors")
        if np.any(hi <= lo):
            raise ValueError(f"degenerate primitive: box has zero/negative extent (lo={self.lo}, hi={self.hi})")
        if lo.min() < 0.0 or hi.max() > 1.0:
            raise ValueError("box lo and hi must lie inside the unit cube")

    def contains(self, x, y, z) -> np.ndarray:
        (x0, y0, z0), (x1, y1, z1) = self.lo, self.hi
        return (x >= x0) & (x < x1) & (y >= y0) & (y < y1) & (z >= z0) & (z < z1)


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

    FIELDS = {"axis": int, "center": tuple, "radius": float, "lo": float, "hi": float}

    def __post_init__(self):
        _store_tuples(self, "center")
        if self.axis not in (0, 1, 2):
            raise ValueError("cylinder axis must be 0, 1 or 2")
        c = np.asarray(self.center, dtype=np.float64)
        if c.shape != (2,):
            raise ValueError("cylinder center must be a 2-vector")
        if self.radius <= 0.0:
            raise ValueError("degenerate primitive: cylinder radius must be positive")
        if self.hi <= self.lo:
            raise ValueError("degenerate primitive: cylinder span from lo to hi has zero/negative extent")
        if (
            self.lo < 0.0
            or self.hi > 1.0
            or np.any(c - self.radius < 0.0)
            or np.any(c + self.radius > 1.0)
        ):
            raise ValueError("cylinder center, radius, lo and hi must lie inside the unit cube")

    def contains(self, x, y, z) -> np.ndarray:
        coords = (x, y, z)
        u, v = (coords[a] for a in (0, 1, 2) if a != self.axis)
        d2 = (u - self.center[0]) ** 2 + (v - self.center[1]) ** 2
        along = coords[self.axis]
        return (d2 <= self.radius**2) & (along >= self.lo) & (along < self.hi)


@dataclass(frozen=True)
class LBracket:
    """Union of two boxes sharing a corner/face, the classic L profile."""

    first: Box
    second: Box

    FIELDS = {"first": Box, "second": Box}

    def contains(self, x, y, z) -> np.ndarray:
        return self.first.contains(x, y, z) | self.second.contains(x, y, z)


@dataclass(frozen=True)
class UnionOfBoxes:
    boxes: tuple[Box, ...]

    FIELDS = {"boxes": (Box,)}

    def __post_init__(self):
        _store_tuples(self, "boxes")
        if not self.boxes:
            raise ValueError("degenerate primitive: union of zero boxes")

    def contains(self, x, y, z) -> np.ndarray:
        return np.logical_or.reduce([b.contains(x, y, z) for b in self.boxes])


@dataclass(frozen=True)
class SphereCappedBox:
    """Box with a hemispherical cap sitting on its high face along `cap_axis`."""

    box: Box
    cap_axis: int
    cap_radius: float

    FIELDS = {"box": Box, "cap_axis": int, "cap_radius": float}

    def __post_init__(self):
        if self.cap_axis not in (0, 1, 2):
            raise ValueError("cap_axis must be 0, 1 or 2")
        if self.cap_radius <= 0.0:
            raise ValueError("degenerate primitive: cap_radius must be positive")
        center = self._cap_center()
        lo = center - self.cap_radius
        hi = center + self.cap_radius
        if lo.min() < 0.0 or hi.max() > 1.0:
            raise ValueError(f"sphere cap of cap_radius {self.cap_radius} must lie inside the unit cube")

    def _cap_center(self) -> np.ndarray:
        lo = np.asarray(self.box.lo)
        hi = np.asarray(self.box.hi)
        center = (lo + hi) / 2.0
        center[self.cap_axis] = hi[self.cap_axis]
        return center

    def contains(self, x, y, z) -> np.ndarray:
        center = self._cap_center()
        d2 = (x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2
        above = (x, y, z)[self.cap_axis] >= center[self.cap_axis]
        return self.box.contains(x, y, z) | ((d2 <= self.cap_radius**2) & above)


# A primitive's contains(x, y, z) takes coordinate arrays that broadcast
# together, such as the per-axis voxel centers of axis_centers, and returns
# the mask of points inside it.
Primitive = Box | Cylinder | LBracket | UnionOfBoxes | SphereCappedBox

# the file-form kind of each primitive class
_KINDS = {Box: "box", Cylinder: "cylinder", LBracket: "l_bracket",
          UnionOfBoxes: "union_of_boxes", SphereCappedBox: "sphere_capped_box"}
_PRIMITIVES = {kind: cls for cls, kind in _KINDS.items()}


def primitive_from_dict(spec: dict, entry: str = "library entry") -> Primitive:
    """Parse a primitive description (scenario-file form) into a Primitive;
    `entry` names it in the error for a missing field, such as "library 0"."""
    kind = _require(_expect(spec, dict, entry), "kind", entry)
    if not isinstance(kind, str) or kind not in _PRIMITIVES:
        raise ValueError(f"unknown primitive kind: {kind!r}")
    return _read(_PRIMITIVES[kind], spec, kind, entry, own=("kind",))


def primitive_to_dict(prim: Primitive) -> dict:
    if type(prim) not in _KINDS:
        raise TypeError(f"not a primitive: {prim!r}")
    return {"kind": _KINDS[type(prim)], **_write(prim)}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def voxelize_primitive(spec: Primitive, resolution: int) -> BinaryGrid:
    """Voxelize a solid: a voxel is occupied iff its center lies inside it."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    mask = np.broadcast_to(spec.contains(*axis_centers(resolution)), (resolution,) * 3)
    if not mask.any():
        raise ValueError("primitive voxelizes to an empty grid at this resolution")
    return BinaryGrid(mask)


def surface_mask(grid: BinaryGrid) -> np.ndarray:
    """Boolean mask of the surface voxels of `grid`: its occupied voxels with at
    least one unoccupied 6-neighbor, the outside of the grid counting as
    unoccupied, so occupied voxels touching the grid boundary are surface voxels."""
    occ = grid.data
    # interior: occupied with all six neighbours occupied.  Each neighbour is a
    # shift of the flat C-order grid; a shift that wraps past the end of a row
    # or plane lands on a border voxel, and no border voxel is interior.
    interior = occ.copy()
    flat, inner = occ.reshape(-1), interior.reshape(-1)
    n = grid.resolution
    for step in (n * n, n, 1):
        inner[step:] &= flat[:-step]
        inner[:-step] &= flat[step:]
    interior[[0, -1]] = interior[:, [0, -1]] = interior[:, :, [0, -1]] = False
    interior ^= occ  # occ & ~interior, as interior lies inside occ
    return interior


# the occupancy at and above which a voxel is occupied, everywhere in the package
OCCUPANCY_THRESHOLD = 0.5


def binarize(s: OccupancyGrid | BinaryGrid, threshold: float = OCCUPANCY_THRESHOLD) -> BinaryGrid:
    """Threshold continuous occupancy: occupied iff s >= threshold; a BinaryGrid is returned as it is."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if isinstance(s, BinaryGrid):
        return s
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
#   bytes 20..    payload, row-major (x-major), exactly:
#                   occupancy: N^3 float32 (4 N^3 bytes)
#                   binary:    ceil(N^3 / 8) bytes, np.packbits order
# A loader rejects N < 1 and a payload of any other length.


def _grid_parts(grid: OccupancyGrid | BinaryGrid) -> tuple[bytes, np.ndarray]:
    """The container's 20-byte header and its payload as a contiguous array."""
    if isinstance(grid, OccupancyGrid):
        kind = _KIND_OCCUPANCY
        payload = grid.data.astype("<f4", order="C")
    elif isinstance(grid, BinaryGrid):
        kind = _KIND_BINARY
        payload = np.packbits(grid.data.reshape(-1))
    else:
        raise TypeError(f"not a grid: {grid!r}")
    header = GRID_MAGIC + struct.pack("<IIi", GRID_FORMAT_VERSION, kind, grid.resolution)
    return header, payload


def grid_to_bytes(grid: OccupancyGrid | BinaryGrid) -> bytes:
    return b"".join(_grid_parts(grid))


def grid_from_bytes(blob: bytes) -> OccupancyGrid | BinaryGrid:
    if len(blob) < 20 or blob[:8] != GRID_MAGIC:
        raise ValueError("not a contact-flow grid container")
    version, kind, n = struct.unpack("<IIi", blob[8:20])
    if version != GRID_FORMAT_VERSION:
        raise ValueError(f"unsupported grid container version {version}")
    if n < 1:
        raise ValueError(f"grid resolution must be >= 1, got {n}")
    if kind == _KIND_OCCUPANCY:
        expected = 4 * n**3
    elif kind == _KIND_BINARY:
        expected = -(-(n**3) // 8)
    else:
        raise ValueError(f"unknown grid payload kind {kind}")
    if len(blob) - 20 != expected:
        raise ValueError(f"grid payload is {len(blob) - 20} bytes, expected {expected} for N={n}")
    # the payload is read where it lies in the blob, not copied out of it
    if kind == _KIND_OCCUPANCY:
        data = np.frombuffer(blob, dtype="<f4", offset=20).reshape((n,) * 3)
        return OccupancyGrid(data.astype(np.float64))
    # unpacked bits are 0 or 1, so they are read as bool where they lie
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=20), count=n**3)
    return BinaryGrid(bits.view(bool).reshape((n,) * 3))


def load_grid(path) -> OccupancyGrid | BinaryGrid:
    with open(path, "rb") as f:
        return grid_from_bytes(f.read())


def voxel_ply(indices: np.ndarray, resolution: int) -> bytes:
    """ASCII PLY of the centers of the (M, 3) voxel `indices` of an N-grid, in
    their order, one "%.8f %.8f %.8f" vertex line each."""
    header = (
        "ply\n"
        "format ascii 1.0\n"
        f"element vertex {len(indices)}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
    )
    # a voxel center lies in (0, 1), so "%.8f " spells each of the N center
    # coordinates in 11 bytes: each is formatted once, its row of the table is
    # gathered per point and axis, and the last axis's space becomes a newline
    text = "".join("%.8f " % c for c in index_to_point(np.arange(resolution), resolution).tolist())
    table = np.frombuffer(text.encode(), dtype=np.uint8).reshape(resolution, -1)
    cells = table[indices]
    cells[:, 2, -1] = ord("\n")
    return header.encode() + cells.tobytes()
