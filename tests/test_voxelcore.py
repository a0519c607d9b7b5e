import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contact_flow.voxelcore import (
    BinaryGrid,
    Box,
    Cylinder,
    LBracket,
    OccupancyGrid,
    SphereCappedBox,
    UnionOfBoxes,
    _grid_parts,
    binarize,
    grid_from_bytes,
    grid_to_bytes,
    index_to_point,
    load_grid,
    nonzero_indices,
    point_to_index,
    primitive_from_dict,
    primitive_to_dict,
    surface_mask,
    voxel_ply,
    voxelize_primitive,
)
from contact_flow.scenarios import VisibilitySpec


def voxel_centers(resolution: int) -> np.ndarray:
    """Oracle: all N^3 voxel centers, shape (N^3, 3), in C (x-major) order."""
    axis = (np.arange(resolution) + 0.5) / resolution
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def inside(prim, pts: np.ndarray) -> np.ndarray:
    """Oracle: point-in-solid test of each row of an (M, 3) point array."""
    if isinstance(prim, Box):
        return np.all((pts >= np.asarray(prim.lo)) & (pts < np.asarray(prim.hi)), axis=1)
    if isinstance(prim, Cylinder):
        cross = [a for a in (0, 1, 2) if a != prim.axis]
        d2 = (pts[:, cross[0]] - prim.center[0]) ** 2 + (pts[:, cross[1]] - prim.center[1]) ** 2
        along = pts[:, prim.axis]
        return (d2 <= prim.radius**2) & (along >= prim.lo) & (along < prim.hi)
    if isinstance(prim, LBracket):
        return inside(prim.first, pts) | inside(prim.second, pts)
    if isinstance(prim, UnionOfBoxes):
        return np.any([inside(b, pts) for b in prim.boxes], axis=0)
    center = (np.asarray(prim.box.lo) + np.asarray(prim.box.hi)) / 2.0
    center[prim.cap_axis] = prim.box.hi[prim.cap_axis]
    in_ball = np.sum((pts - center) ** 2, axis=1) <= prim.cap_radius**2
    above = pts[:, prim.cap_axis] >= center[prim.cap_axis]
    return inside(prim.box, pts) | (in_ball & above)


def _capped(cap_axis):
    hi = [0.75, 0.75, 0.75]
    hi[cap_axis] = 0.5
    return SphereCappedBox(Box((0.25, 0.25, 0.25), tuple(hi)), cap_axis=cap_axis, cap_radius=0.2)


# At N = 16 the faces at 11/32 and 21/32 fall on voxel centers, and so does the
# rim of cylinder_y (axis at 17/32, radius 5/16); the faces and cap planes at
# 0.5 fall on the center of N = 1 and N = 3.
PRIMITIVES = [
    pytest.param(Box((0.34375, 0.25, 0.125), (0.65625, 0.75, 0.90625)), id="box"),
    pytest.param(Cylinder(0, (0.5, 0.46875), 0.3, 0.15625, 0.84375), id="cylinder_x"),
    pytest.param(Cylinder(1, (0.53125, 0.53125), 0.3125, 0.125, 0.5), id="cylinder_y"),
    pytest.param(Cylinder(2, (0.5, 0.5), 0.3, 0.25, 0.75), id="cylinder_z"),
    pytest.param(
        LBracket(
            Box((0.25, 0.25, 0.25), (0.75, 0.53125, 0.75)),
            Box((0.25, 0.25, 0.25), (0.46875, 0.875, 0.53125)),
        ),
        id="l_bracket",
    ),
    pytest.param(
        UnionOfBoxes(
            (
                Box((0.125, 0.3125, 0.3125), (0.75, 0.6875, 0.6875)),
                Box((0.75, 0.1875, 0.1875), (0.9375, 0.8125, 0.8125)),
                Box((0.5, 0.5, 0.0), (0.6, 1.0, 0.2)),
            )
        ),
        id="union_of_boxes",
    ),
    pytest.param(_capped(0), id="sphere_capped_box_x"),
    pytest.param(_capped(1), id="sphere_capped_box_y"),
    pytest.param(_capped(2), id="sphere_capped_box_z"),
]


# ---------------------------------------------------------------------------
# voxelize_primitive
# ---------------------------------------------------------------------------


def test_full_cube_box_fills_grid():
    grid = voxelize_primitive(Box(lo=(0, 0, 0), hi=(1, 1, 1)), 4)
    assert grid.data.sum() == 64


def test_half_space_box_fills_lower_slabs():
    grid = voxelize_primitive(Box(lo=(0, 0, 0), hi=(0.5, 1, 1)), 4)
    assert grid.data.sum() == 32
    assert grid.data[:2].all()
    assert not grid.data[2:].any()


def test_l_bracket_count_matches_inclusion_exclusion_and_brute_force():
    b1 = Box(lo=(0.125, 0.125, 0.125), hi=(0.625, 0.375, 0.875))
    b2 = Box(lo=(0.125, 0.125, 0.125), hi=(0.375, 0.875, 0.375))
    bracket = LBracket(b1, b2)
    N = 64
    grid = voxelize_primitive(bracket, N)
    c1 = voxelize_primitive(b1, N).data.sum()
    c2 = voxelize_primitive(b2, N).data.sum()
    overlap = int((voxelize_primitive(b1, N).data & voxelize_primitive(b2, N).data).sum())
    assert grid.data.sum() == c1 + c2 - overlap

    # independent per-voxel point-in-solid check
    ax = (np.arange(N) + 0.5) / N
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    in1 = (
        (X >= 0.125) & (X < 0.625) & (Y >= 0.125) & (Y < 0.375) & (Z >= 0.125) & (Z < 0.875)
    )
    in2 = (
        (X >= 0.125) & (X < 0.375) & (Y >= 0.125) & (Y < 0.875) & (Z >= 0.125) & (Z < 0.375)
    )
    assert np.array_equal(grid.data, in1 | in2)


_BOX_FIELDS = {"lo": [0.2, 0.2, 0.2], "hi": [0.8, 0.8, 0.8]}
_FLAT_BOX = {"lo": [0.2, 0.2, 0.2], "hi": [0.2, 0.8, 0.8]}
_BOX = {"kind": "box", **_BOX_FIELDS}
_CYLINDER = {"kind": "cylinder", "axis": 0, "center": [0.5, 0.5], "radius": 0.2, "lo": 0.1, "hi": 0.9}

# invalid primitives in scenario-file form, each with the field its error names
DEGENERATE = [
    ({"kind": "box", **_FLAT_BOX}, "hi"),
    ({**_BOX, "lo": [0.5, 0.2, 0.2], "hi": [0.4, 0.8, 0.8]}, "hi"),
    ({**_CYLINDER, "radius": 0.0}, "radius"),
    ({**_CYLINDER, "axis": 1, "lo": 0.7, "hi": 0.7}, "hi"),
    ({"kind": "union_of_boxes", "boxes": []}, "boxes"),
    ({"kind": "sphere_capped_box", "box": _BOX_FIELDS, "cap_axis": 2, "cap_radius": 0.0}, "cap_radius"),
    # a cylinder center that is not a 2-vector
    *(({**_CYLINDER, "center": c}, "center") for c in [[], [0.5], [0.5, 0.5, 0.5]]),
    ({**_BOX, "lo": [0.2, 0.2]}, "lo"),
    ({**_CYLINDER, "axis": 3}, "axis"),
    ({"kind": "sphere_capped_box", "box": _BOX_FIELDS, "cap_axis": -1, "cap_radius": 0.1}, "cap_axis"),
    ({"kind": "l_bracket", "first": _BOX_FIELDS, "second": _FLAT_BOX}, "hi"),
    ({"kind": "union_of_boxes", "boxes": [_BOX_FIELDS, _FLAT_BOX]}, "hi"),
]
OUT_OF_CUBE = [
    ({**_BOX, "lo": [-0.1, 0.0, 0.0], "hi": [0.5, 0.5, 0.5]}, "lo"),
    ({**_BOX, "hi": [0.8, 1.5, 0.8]}, "hi"),
    ({**_CYLINDER, "center": [0.1, 0.5]}, "center"),
    ({**_CYLINDER, "radius": 0.6}, "radius"),
    ({**_CYLINDER, "hi": 1.2}, "hi"),
    ({"kind": "sphere_capped_box", "box": _BOX_FIELDS, "cap_axis": 0, "cap_radius": 0.3}, "cap_radius"),
]


def construct(spec: dict):
    """The primitive of file-form `spec`, built by calling the primitive classes."""
    cls = {"box": Box, "cylinder": Cylinder, "l_bracket": LBracket,
           "union_of_boxes": UnionOfBoxes, "sphere_capped_box": SphereCappedBox}[spec["kind"]]
    args = {key: value for key, value in spec.items() if key != "kind"}
    for key in ("first", "second", "box"):
        if key in args:
            args[key] = Box(**args[key])
    if "boxes" in args:
        args["boxes"] = tuple(Box(**box) for box in args["boxes"])
    return cls(**args)


@pytest.mark.parametrize("bad", DEGENERATE + OUT_OF_CUBE)
def test_degenerate_primitives_rejected(bad):
    # refused where the file is read, naming the field, and by the constructor
    spec, field = bad
    with pytest.raises(ValueError) as info:
        primitive_from_dict(spec)
    assert field in str(info.value)
    with pytest.raises(ValueError) as info:
        construct(spec)
    assert field in str(info.value)


def test_out_of_cube_parameters_rejected():
    for spec, _ in OUT_OF_CUBE:
        with pytest.raises(ValueError, match="must lie inside the unit cube"):
            primitive_from_dict(spec)


@pytest.mark.parametrize("N", [1, 3, 16, 64])
@pytest.mark.parametrize("prim", PRIMITIVES)
def test_primitive_voxelization_matches_direct_check(prim, N):
    expected = inside(prim, voxel_centers(N)).reshape((N, N, N))
    if not expected.any():
        with pytest.raises(ValueError, match="empty"):
            voxelize_primitive(prim, N)
    else:
        assert np.array_equal(voxelize_primitive(prim, N).data, expected)


@pytest.mark.parametrize("N", [1, 3, 16, 64])
@pytest.mark.parametrize("offset", [0.5, 0.34375])
@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_visibility_slab_matches_direct_check(axis, side, offset, N):
    coord = voxel_centers(N)[:, axis]
    expected = (coord < offset if side == "below" else coord > offset).reshape((N, N, N))
    spec = VisibilitySpec(axis=axis, offset=offset, visible_side=side)
    if not expected.any() or expected.all():
        # N = 1's one voxel center 0.5 lies on neither side of 0.5, and above 0.34375
        with pytest.raises(ValueError, match="^visibility mask must be non-empty and not cover the full volume$"):
            spec.slab(N)
        return
    mask = np.zeros((N, N, N), dtype=bool)
    mask[spec.slab(N)] = True
    assert np.array_equal(mask, expected)


def test_sphere_capped_box_contains_cap_points():
    prim = SphereCappedBox(Box((0.25, 0.25, 0.125), (0.75, 0.75, 0.5)), cap_axis=2, cap_radius=0.2)
    grid = voxelize_primitive(prim, 32)
    # a voxel center just above the top face inside the cap ball
    above = point_to_index((0.5, 0.5, 0.55), 32)
    assert grid.data[tuple(above)]
    # a corner above the face but outside the ball
    outside = point_to_index((0.72, 0.72, 0.6), 32)
    assert not grid.data[tuple(outside)]


def test_primitive_dict_roundtrip():
    prims = [
        Box((0.1, 0.2, 0.3), (0.5, 0.6, 0.7)),
        Cylinder(axis=1, center=(0.4, 0.6), radius=0.2, lo=0.1, hi=0.9),
        LBracket(Box((0.1, 0.1, 0.1), (0.5, 0.3, 0.3)), Box((0.1, 0.1, 0.1), (0.3, 0.5, 0.3))),
        UnionOfBoxes((Box((0.1, 0.1, 0.1), (0.4, 0.4, 0.4)),)),
        SphereCappedBox(Box((0.3, 0.3, 0.3), (0.7, 0.7, 0.6)), cap_axis=2, cap_radius=0.15),
    ]
    for p in prims:
        assert primitive_from_dict(primitive_to_dict(p)) == p


def test_primitive_to_dict_writes_the_scenario_file_form():
    box = {"lo": [0.1, 0.2, 0.3], "hi": [0.5, 0.6, 0.7]}
    forms = [
        (Box((0.1, 0.2, 0.3), (0.5, 0.6, 0.7)), {"kind": "box", **box}),
        (Cylinder(axis=1, center=(0.4, 0.6), radius=0.2, lo=0.1, hi=0.9),
         {"kind": "cylinder", "axis": 1, "center": [0.4, 0.6], "radius": 0.2, "lo": 0.1, "hi": 0.9}),
        (LBracket(Box((0.1, 0.2, 0.3), (0.5, 0.6, 0.7)), Box((0.1, 0.2, 0.3), (0.5, 0.6, 0.7))),
         {"kind": "l_bracket", "first": box, "second": box}),
        (UnionOfBoxes((Box((0.1, 0.2, 0.3), (0.5, 0.6, 0.7)),) * 2),
         {"kind": "union_of_boxes", "boxes": [box, box]}),
        (SphereCappedBox(Box((0.1, 0.2, 0.3), (0.5, 0.6, 0.7)), cap_axis=2, cap_radius=0.15),
         {"kind": "sphere_capped_box", "box": box, "cap_axis": 2, "cap_radius": 0.15}),
    ]
    for prim, form in forms:
        # equal as JSON text, so key order counts too
        assert json.dumps(primitive_to_dict(prim)) == json.dumps(form)
        assert primitive_from_dict(form) == prim
    with pytest.raises(TypeError, match="not a primitive"):
        primitive_to_dict(object())
    with pytest.raises(ValueError, match="unknown primitive kind"):
        primitive_from_dict({"kind": ["box"]})


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "box", "lo": None, "hi": [1, 1, 1]}, "box lo must be a list of numbers"),
        ({"kind": "cylinder", "axis": None, "center": [0.5, 0.5], "radius": 0.2, "lo": 0, "hi": 1},
         "cylinder axis must be an integer"),
        ({"kind": "cylinder", "axis": 0, "center": 0.5, "radius": 0.2, "lo": 0, "hi": 1},
         "cylinder center must be a list of numbers"),
        ({"kind": "cylinder", "axis": 0, "center": [0.5, 0.5], "radius": None, "lo": 0, "hi": 1},
         "cylinder radius must be a number"),
        ({"kind": "l_bracket", "first": None, "second": {"lo": [0, 0, 0], "hi": [1, 1, 1]}},
         "l_bracket first must be a dict"),
        ({"kind": "union_of_boxes", "boxes": [{"lo": [0, 0, 0], "hi": None}]},
         "union_of_boxes box hi must be a list of numbers"),
        ({"kind": "union_of_boxes", "boxes": None}, "union_of_boxes boxes must be a list"),
        ({"kind": "sphere_capped_box", "box": {"lo": [0, 0, 0], "hi": [1, 1, 1]},
          "cap_axis": 2, "cap_radius": [0.1]}, "sphere_capped_box cap_radius must be a number"),
        ({"kind": "cylinder", "axis": 1.5, "center": [0.5, 0.5], "radius": 0.2, "lo": 0, "hi": 1},
         "cylinder axis must be an integer"),
        ({"kind": "box", "lo": [0, 0, 0], "hi": [1, True, 1]}, "box hi must be a list of numbers"),
        ({"kind": "sphere_capped_box", "box": {"lo": [0, 0, 0], "hi": [1, 1, 1]},
          "cap_axis": "2", "cap_radius": 0.1}, "sphere_capped_box cap_axis must be an integer"),
        ({"kind": "l_bracket", "first": {"lo": [0, 0, 0], "hi": [1, 1, 1]},
          "second": {"lo": [0, 0, False], "hi": [1, 1, 1]}}, "l_bracket second lo must be a list of numbers"),
        ({"kind": "cylinder", "axis": 0, "center": [0.5, 0.5], "radius": float("nan"), "lo": 0, "hi": 1},
         "cylinder radius must be a number"),
        ({"kind": "cylinder", "axis": 0, "center": [0.5, 0.5], "radius": 0.2, "lo": float("nan"), "hi": 1},
         "cylinder lo must be a number"),
        ({"kind": "cylinder", "axis": 0, "center": [0.5, 0.5], "radius": 0.2, "lo": 0, "hi": float("inf")},
         "cylinder hi must be a number"),
        ({"kind": "cylinder", "axis": 0, "center": [0.5, 0.5], "radius": float("-inf"), "lo": 0, "hi": 1},
         "cylinder radius must be a number"),
    ],
)
def test_primitive_from_dict_rejects_wrong_typed_fields_as_value_errors(spec, message):
    with pytest.raises(ValueError, match=message):
        primitive_from_dict(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"lo": [0, 0, 0], "hi": [1, 1, 1]}, "library 3 is missing required field 'kind'"),
        ({"kind": "box", "lo": [0, 0, 0]}, "library 3 box is missing required field 'hi'"),
        ({"kind": "cylinder", "axis": 0, "center": [0.5, 0.5], "lo": 0, "hi": 1},
         "library 3 cylinder is missing required field 'radius'"),
        ({"kind": "l_bracket", "first": {"lo": [0, 0, 0], "hi": [1, 1, 1]}},
         "library 3 l_bracket is missing required field 'second'"),
        ({"kind": "l_bracket", "first": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "second": {"hi": [1, 1, 1]}},
         "library 3 l_bracket second is missing required field 'lo'"),
        ({"kind": "union_of_boxes", "boxes": [{"lo": [0, 0, 0]}]},
         "library 3 union_of_boxes box is missing required field 'hi'"),
    ],
)
def test_primitive_from_dict_names_the_entry_and_a_missing_field(spec, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        primitive_from_dict(spec, "library 3")


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


def surface_centers(grid: BinaryGrid) -> np.ndarray:
    """(M, 3) centers of the surface voxels of `grid` in lexicographic order,
    the cloud a run's surface.ply and evaluate_run take from surface_mask."""
    return index_to_point(nonzero_indices(surface_mask(grid)), grid.resolution)


def test_surface_of_single_voxel_is_its_center():
    data = np.zeros((4, 4, 4), dtype=bool)
    data[1, 2, 3] = True
    cloud = surface_centers(BinaryGrid(data))
    assert len(cloud) == 1
    np.testing.assert_allclose(cloud[0], [(1 + 0.5) / 4, (2 + 0.5) / 4, (3 + 0.5) / 4])


def test_surface_of_full_small_cube_is_shell():
    grid = voxelize_primitive(Box(lo=(0, 0, 0), hi=(1, 1, 1)), 4)
    cloud = surface_centers(grid)
    assert len(cloud) == 4**3 - 2**3


def test_surface_of_empty_grid_is_empty():
    assert surface_centers(BinaryGrid(np.zeros((4, 4, 4), dtype=bool))).shape == (0, 3)


def brute_force_surface(data):
    """Indices of the occupied voxels with a neighbour outside the grid or empty."""
    N = len(data)
    expected = set()
    for i in range(N):
        for j in range(N):
            for k in range(N):
                if not data[i, j, k]:
                    continue
                exposed = False
                for di, dj, dk in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]:
                    a, b, c = i + di, j + dj, k + dk
                    if not (0 <= a < N and 0 <= b < N and 0 <= c < N) or not data[a, b, c]:
                        exposed = True
                        break
                if exposed:
                    expected.add((i, j, k))
    return expected


@given(st.integers(0, 2**32 - 1))
def test_surface_matches_brute_force_neighbor_scan(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.random((8, 8, 8)) < 0.4
    if not data.any():
        data[0, 0, 0] = True
    cloud = surface_centers(BinaryGrid(data))
    got = {tuple(point_to_index(p, 8)) for p in cloud}
    assert got == brute_force_surface(data)


@pytest.mark.parametrize("N", [1, 2, 3, 5])
@pytest.mark.parametrize("density", [0.6, 1.0])
def test_surface_mask_matches_brute_force_on_small_and_full_grids(N, density):
    # full grids occupy every border voxel, where a shifted neighbour wraps
    # past the end of a row or plane
    data = np.random.Generator(np.random.PCG64(N)).random((N, N, N)) < density
    mask = surface_mask(BinaryGrid(data))
    assert mask.dtype == np.bool_ and mask.shape == data.shape
    assert set(map(tuple, np.argwhere(mask))) == brute_force_surface(data)


def test_box_surface_points_lie_on_face_slabs():
    box = Box(lo=(0.125, 0.25, 0.25), hi=(0.875, 0.75, 0.75))
    N = 16
    cloud = surface_centers(voxelize_primitive(box, N))
    half_pitch = 0.5 / N
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    on_face = np.zeros(len(cloud), dtype=bool)
    for axis in range(3):
        on_face |= np.abs(cloud[:, axis] - lo[axis]) <= half_pitch
        on_face |= np.abs(cloud[:, axis] - hi[axis]) <= half_pitch
    assert on_face.all()


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------


def test_binarize_returns_a_binary_grid_as_it_is():
    grid = BinaryGrid(np.random.Generator(np.random.PCG64(6)).random((4, 4, 4)) < 0.5)
    assert binarize(grid) is grid


def test_binarize_all_zeros_empty():
    assert binarize(OccupancyGrid(np.zeros((4, 4, 4)))).data.sum() == 0


def test_binarize_all_ones_full():
    assert binarize(OccupancyGrid(np.ones((4, 4, 4)))).data.sum() == 64


def test_binarize_checkerboard_keeps_high_cells():
    idx = np.indices((4, 4, 4)).sum(axis=0)
    s = np.where(idx % 2 == 0, 0.6, 0.4)
    grid = binarize(OccupancyGrid(s), 0.5)
    assert np.array_equal(grid.data, s == 0.6)


def test_binarize_requires_open_interval_threshold():
    s = OccupancyGrid(np.full((4, 4, 4), 0.5))
    with pytest.raises(ValueError):
        binarize(s, 0.0)
    with pytest.raises(ValueError):
        binarize(s, 1.0)


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
)
def test_binarize_monotone_in_threshold(seed, tau_a, tau_b):
    rng = np.random.Generator(np.random.PCG64(seed))
    s = OccupancyGrid(rng.random((6, 6, 6)))
    lo, hi = sorted((tau_a, tau_b))
    low_set = binarize(s, lo).data
    high_set = binarize(s, hi).data
    assert not (high_set & ~low_set).any()


# ---------------------------------------------------------------------------
# index <-> coordinate mapping
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 64),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_coord_of_index_of_point_within_half_pitch(resolution, point):
    p = np.asarray(point)
    q = index_to_point(point_to_index(p, resolution), resolution)
    assert np.all(np.abs(q - p) <= 0.5 / resolution + 1e-12)


def test_index_point_bijection_on_voxel_centers():
    N = 8
    centers = voxel_centers(N)
    idx = point_to_index(centers, N)
    expected = np.argwhere(np.ones((N, N, N), dtype=bool))
    assert np.array_equal(idx, expected)


@pytest.mark.parametrize("N", [1, 3, 16, 64])
@pytest.mark.parametrize("fill", ["random", "empty", "full"])
def test_nonzero_indices_equals_argwhere(N, fill):
    rng = np.random.Generator(np.random.PCG64(N))
    mask = {
        "random": rng.random((N, N, N)) < 0.3,
        "empty": np.zeros((N, N, N), dtype=bool),
        "full": np.ones((N, N, N), dtype=bool),
    }[fill]
    got = nonzero_indices(mask)
    want = np.argwhere(mask)
    assert got.dtype == np.int64
    assert got.shape == want.shape == (int(mask.sum()), 3)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# containers and file formats
# ---------------------------------------------------------------------------


def test_grids_are_immutable():
    grid = voxelize_primitive(Box((0, 0, 0), (1, 1, 1)), 4)
    with pytest.raises(ValueError):
        grid.data[0, 0, 0] = False


def test_occupancy_grid_rejects_out_of_range():
    with pytest.raises(ValueError):
        OccupancyGrid(np.full((4, 4, 4), 1.5))
    with pytest.raises(ValueError):
        OccupancyGrid(np.full((4, 4, 4), np.nan))


@pytest.mark.parametrize(
    "value, message",
    [
        (np.nan, "occupancy grid contains non-finite entries"),
        (np.inf, "occupancy grid contains non-finite entries"),
        (-np.inf, "occupancy grid contains non-finite entries"),
        (-0.1, r"occupancy values must lie in \[0, 1\]"),
        (1.1, r"occupancy values must lie in \[0, 1\]"),
    ],
)
def test_occupancy_grid_names_a_bad_voxel_value(value, message):
    # one bad voxel among valid ones, alone and beside an out-of-range one:
    # a non-finite value is reported first
    data = np.full((4, 4, 4), 0.5)
    data[1, 2, 3] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        OccupancyGrid(data)
    data[0, 0, 0] = 2.0
    first = message if not np.isfinite(value) else r"occupancy values must lie in \[0, 1\]"
    with pytest.raises(ValueError, match=f"^{first}$"):
        OccupancyGrid(data)


def test_occupancy_container_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(3))
    s = OccupancyGrid(rng.random((8, 8, 8)).astype(np.float32).astype(np.float64))
    (tmp_path / "s.grid").write_bytes(grid_to_bytes(s))
    loaded = load_grid(tmp_path / "s.grid")
    assert isinstance(loaded, OccupancyGrid)
    np.testing.assert_array_equal(loaded.data, s.data)


def test_binary_container_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(4))
    g = BinaryGrid(rng.random((12, 12, 12)) < 0.5)
    (tmp_path / "g.grid").write_bytes(grid_to_bytes(g))
    loaded = load_grid(tmp_path / "g.grid")
    assert isinstance(loaded, BinaryGrid)
    assert np.array_equal(loaded.data, g.data)


def test_grid_container_header_layout():
    g = BinaryGrid(np.ones((4, 4, 4), dtype=bool))
    blob = grid_to_bytes(g)
    assert blob[:8] == b"CFLOWGRD"
    assert int.from_bytes(blob[8:12], "little") == 1  # version
    assert int.from_bytes(blob[12:16], "little") == 1  # binary payload kind
    assert int.from_bytes(blob[16:20], "little", signed=True) == 4


def test_grid_container_rejects_garbage():
    with pytest.raises(ValueError):
        grid_from_bytes(b"not a grid at all, sorry")


def load_ply(blob: bytes) -> np.ndarray:
    """Reader of voxel_ply's ASCII PLY bytes, for the round-trip tests."""
    lines = blob.decode().splitlines()
    end = lines.index("end_header")
    count = next(int(line.split()[-1]) for line in lines[:end] if line.startswith("element vertex"))
    pts = np.array([[float(v) for v in line.split()] for line in lines[end + 1 :]], dtype=np.float64)
    assert len(pts) == count
    return pts.reshape(count, 3)


@pytest.mark.parametrize("kind", ["occupancy", "binary"])
@pytest.mark.parametrize("N", [1, 5, 64])
def test_grid_parts_are_the_bytes_of_grid_to_bytes(kind, N):
    data = np.random.Generator(np.random.PCG64(N)).random((N, N, N))
    grid = OccupancyGrid(data) if kind == "occupancy" else binarize(OccupancyGrid(data))
    header, payload = _grid_parts(grid)
    blob = header + payload.tobytes()
    assert blob == grid_to_bytes(grid)
    # the payload as the container defines it: float32 in C order, or packed bits
    payload = data.astype("<f4").tobytes() if kind == "occupancy" else np.packbits(grid.data).tobytes()
    assert blob[20:] == payload


def _container(version: int, kind: int, n: int, payload: bytes = b"") -> bytes:
    return b"CFLOWGRD" + version.to_bytes(4, "little") + kind.to_bytes(4, "little") + (
        n.to_bytes(4, "little", signed=True) + payload
    )


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"CFLOWGR", "not a contact-flow grid container"),
        (b"NOTAGRID" + bytes(12), "not a contact-flow grid container"),
        (_container(2, 0, 1, bytes(4)), "unsupported grid container version 2"),
        (_container(1, 0, 0), "grid resolution must be >= 1, got 0"),
        (_container(1, 7, 1, bytes(4)), "unknown grid payload kind 7"),
        (_container(1, 0, 2, bytes(31)), "grid payload is 31 bytes, expected 32 for N=2"),
        (_container(1, 1, 3, bytes(5)), "grid payload is 5 bytes, expected 4 for N=3"),
        (_container(1, 1, 3), "grid payload is 0 bytes, expected 4 for N=3"),
    ],
)
def test_grid_loader_error_messages(blob, message):
    with pytest.raises(ValueError) as info:
        grid_from_bytes(blob)
    assert str(info.value) == message


def test_ply_roundtrip():
    idx = np.array([[0, 1, 2], [3, 3, 3], [2, 0, 1]])
    blob = voxel_ply(idx, 4)
    assert blob.startswith(b"ply\nformat ascii 1.0")
    np.testing.assert_allclose(load_ply(blob), index_to_point(idx, 4), atol=1e-7)


def ply_oracle(cloud: np.ndarray) -> bytes:
    """The per-point f-string PLY writer of an (M, 3) float cloud."""
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    lines.extend(f"{p[0]:.8f} {p[1]:.8f} {p[2]:.8f}" for p in cloud)
    return ("\n".join(lines) + "\n").encode()


def assert_ply_bytes_match_oracle(idx, N):
    assert voxel_ply(idx, N) == ply_oracle(index_to_point(idx, N))


@pytest.mark.parametrize("N", [4, 16, 64])
def test_voxel_ply_matches_fstring_writer_on_voxel_centers(N):
    rng = np.random.Generator(np.random.PCG64(N))
    occupied = rng.random((N, N, N)) < 0.3
    assert_ply_bytes_match_oracle(nonzero_indices(surface_mask(BinaryGrid(occupied))), N)
    assert_ply_bytes_match_oracle(np.argwhere(occupied), N)
    # any order, repeats included: every point is its indices' centers
    assert_ply_bytes_match_oracle(rng.integers(0, N, (500, 3)), N)


def test_voxel_ply_matches_fstring_writer_on_an_empty_cloud():
    idx = np.empty((0, 3), dtype=np.int64)
    assert_ply_bytes_match_oracle(idx, 16)
    assert len(load_ply(voxel_ply(idx, 16))) == 0


@pytest.mark.parametrize("kind", ["occupancy", "binary"])
def test_grid_loader_rejects_a_truncated_payload(kind):
    data = np.random.Generator(np.random.PCG64(5)).random((16, 16, 16))
    grid = OccupancyGrid(data) if kind == "occupancy" else binarize(OccupancyGrid(data))
    blob = grid_to_bytes(grid)
    for cut in (1, (len(blob) - 20) // 2):
        with pytest.raises(ValueError, match="payload"):
            grid_from_bytes(blob[:-cut])


@pytest.mark.parametrize("kind", ["occupancy", "binary"])
def test_grid_loader_rejects_trailing_bytes(kind):
    grid = OccupancyGrid(np.full((5, 5, 5), 0.75))
    blob = grid_to_bytes(grid if kind == "occupancy" else binarize(grid))
    grid_from_bytes(blob)
    with pytest.raises(ValueError, match="payload"):
        grid_from_bytes(blob + b"\x00")


@pytest.mark.parametrize("n", [0, -1])
def test_grid_loader_rejects_a_resolution_below_one(n):
    blob = grid_to_bytes(BinaryGrid(np.ones((1, 1, 1), dtype=bool)))
    with pytest.raises(ValueError, match="resolution"):
        grid_from_bytes(blob[:16] + int(n).to_bytes(4, "little", signed=True))


@pytest.mark.parametrize("N, length", [(1, 1), (3, 4), (4, 8), (5, 16)])
def test_binary_payload_is_ceil_of_n_cubed_over_eight_bytes(N, length):
    blob = grid_to_bytes(BinaryGrid(np.ones((N, N, N), dtype=bool)))
    assert len(blob) - 20 == length
    assert grid_from_bytes(blob).data.sum() == N**3
