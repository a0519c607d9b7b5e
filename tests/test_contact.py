import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from contact_flow.contact import (
    ContactSet,
    _nearest_occupied,
    farthest_point_sample,
    sample_contacts,
)
from contact_flow.voxelcore import (
    BinaryGrid,
    Box,
    index_to_point,
    point_to_index,
    surface_mask,
    voxelize_primitive,
)


def half_mask(N, visible_below=0.5):
    ax = (np.arange(N) + 0.5) / N
    return BinaryGrid(np.broadcast_to((ax < visible_below)[:, None, None], (N, N, N)).copy())


def hidden_surface(grid: BinaryGrid, vis: BinaryGrid) -> np.ndarray:
    """Surface voxels of `grid` where `vis` is False, in lexicographic order."""
    return np.argwhere(surface_mask(grid) & ~vis.data)


def fps_oracle(points: np.ndarray, k: int, start: int) -> list[int]:
    """Independent quadratic-scan farthest point sampling."""
    chosen = [start]
    while len(chosen) < k:
        best_idx, best_d = -1, -1.0
        for i in range(len(points)):
            d = min(np.sum((points[i] - points[j]) ** 2) for j in chosen)
            if d > best_d:
                best_d, best_idx = d, i
        chosen.append(best_idx)
    return chosen


# ---------------------------------------------------------------------------
# sample_contacts
# ---------------------------------------------------------------------------


def test_no_visibility_samples_from_full_surface():
    grid = voxelize_primitive(Box((0.25, 0.25, 0.25), (0.75, 0.75, 0.75)), 8)
    none_visible = BinaryGrid(np.zeros((8, 8, 8), dtype=bool))
    surface_points = {
        tuple(p) for p in index_to_point(np.argwhere(surface_mask(grid)), 8)
    }
    contacts = sample_contacts(hidden_surface(grid, none_visible), 8, 5, seed=0)
    assert all(tuple(p) in surface_points for p in contacts.points)


def test_exhaustive_draw_returns_every_hidden_surface_voxel():
    grid = voxelize_primitive(Box((0.25, 0.25, 0.25), (0.75, 0.75, 0.75)), 8)
    vis = half_mask(8)
    hidden = hidden_surface(grid, vis)
    contacts = sample_contacts(hidden, 8, hidden.shape[0], seed=3)
    got = {tuple(p) for p in contacts.points}
    want = {tuple(p) for p in index_to_point(hidden, 8)}
    assert got == want


def test_contacts_confined_to_hidden_half():
    grid = voxelize_primitive(Box((0.125, 0.25, 0.25), (0.875, 0.75, 0.75)), 16)
    vis = half_mask(16)
    contacts = sample_contacts(hidden_surface(grid, vis), 16, 10, seed=7)
    assert (contacts.points[:, 0] > 0.5).all()
    # and they are surface voxel centers of the ground truth
    surf = surface_mask(grid)
    for p in contacts.points:
        assert surf[tuple(point_to_index(p, 16))]


def test_empty_hidden_surface_raises():
    grid = voxelize_primitive(Box((0.1, 0.1, 0.1), (0.4, 0.4, 0.4)), 8)
    all_visible = BinaryGrid(np.ones((8, 8, 8), dtype=bool))
    hidden = hidden_surface(grid, all_visible)
    message = "contacts cannot complement vision: requested 3 contacts but the hidden surface has only 0 voxels"
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_contacts(hidden, 8, 3, seed=0)


def test_oversampling_hidden_surface_raises():
    grid = voxelize_primitive(Box((0.25, 0.25, 0.25), (0.75, 0.75, 0.75)), 8)
    vis = half_mask(8)
    hidden = hidden_surface(grid, vis)
    available = hidden.shape[0]
    message = (f"contacts cannot complement vision: requested {available + 1} contacts "
               f"but the hidden surface has only {available} voxels")
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_contacts(hidden, 8, available + 1, seed=0)


def test_the_full_surface_sampler_oracle_draws_every_hidden_surface_voxel_of_a_full_cube():
    # every voxel of a full 3^3 cube but its center is on the surface; with the
    # x = 0 slab visible, the 17 of the other two slabs are hidden
    cube = BinaryGrid(np.ones((3, 3, 3), dtype=bool))
    x0_visible = BinaryGrid(np.broadcast_to((np.arange(3) == 0)[:, None, None], (3, 3, 3)).copy())
    for vis, want in ((BinaryGrid(np.zeros((3, 3, 3), dtype=bool)), 26), (x0_visible, 17)):
        points = oracles.sample_contacts(cube, vis.data, want, seed=5)
        got = {tuple(i) for i in np.rint(points * 3 - 0.5).astype(int)}
        assert len(got) == want and (1, 1, 1) not in got
        assert all(not vis.data[i] for i in got)
    with pytest.raises(ValueError):
        oracles.sample_contacts(cube, x0_visible.data, 18, seed=5)


def test_sample_contacts_deterministic():
    grid = voxelize_primitive(Box((0.25, 0.25, 0.25), (0.75, 0.75, 0.75)), 16)
    vis = half_mask(16)
    hidden = hidden_surface(grid, vis)
    a = sample_contacts(hidden, 16, 6, seed=11)
    b = sample_contacts(hidden, 16, 6, seed=11)
    assert np.array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# farthest_point_sample
# ---------------------------------------------------------------------------


def _seed_with_start(m, want_start):
    for seed in range(1000):
        if int(np.random.Generator(np.random.PCG64(seed)).integers(m)) == want_start:
            return seed
    raise AssertionError("no seed found")


def test_fps_collinear_extremes():
    pts = np.array([[0.0, 0, 0], [0.25, 0, 0], [0.5, 0, 0], [0.75, 0, 0]])
    seed = _seed_with_start(4, 0)
    out = farthest_point_sample(pts, 2, seed=seed)
    got = {tuple(p) for p in out}
    assert got == {(0.0, 0.0, 0.0), (0.75, 0.0, 0.0)}


def test_fps_all_points_when_k_equals_size():
    rng = np.random.Generator(np.random.PCG64(1))
    pts = rng.random((9, 3))
    out = farthest_point_sample(pts, 9, seed=5)
    got = {tuple(p) for p in out}
    assert got == {tuple(p) for p in pts}


def test_fps_rejects_oversized_k():
    pts = np.zeros((3, 3)) + 0.5
    with pytest.raises(ValueError):
        farthest_point_sample(pts, 4, seed=0)


@given(st.integers(0, 2**31 - 1))
def test_fps_matches_quadratic_oracle(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = rng.random((64, 3))
    out = farthest_point_sample(pts, 8, seed=seed)
    start = int(np.where((pts == out[0]).all(axis=1))[0][0])
    want = fps_oracle(pts, 8, start)
    np.testing.assert_array_equal(out, pts[want])


def test_fps_each_pick_maximizes_min_distance_stepwise():
    rng = np.random.Generator(np.random.PCG64(17))
    pts = rng.random((40, 3))
    out = farthest_point_sample(pts, 6, seed=3)
    idx = [int(np.where((pts == p).all(axis=1))[0][0]) for p in out]
    for step in range(1, 6):
        chosen = idx[:step]
        picked = idx[step]
        d_picked = min(np.sum((pts[picked] - pts[j]) ** 2) for j in chosen)
        for other in range(len(pts)):
            d_other = min(np.sum((pts[other] - pts[j]) ** 2) for j in chosen)
            assert d_picked >= d_other - 1e-15


# ---------------------------------------------------------------------------
# nearest occupied voxel: the box search and its full-scan reference
# ---------------------------------------------------------------------------


def nearest_occupied(grid: BinaryGrid, point) -> tuple[int, int, int]:
    """The box search's answer for one point."""
    return tuple(int(v) for v in _nearest_occupied(grid, np.asarray(point, dtype=np.float64)[None])[0])


def full_scan(grid: BinaryGrid, point) -> tuple[int, int, int]:
    return tuple(int(v) for v in oracles.nearest_occupied(grid, np.asarray(point, dtype=np.float64)[None])[0])


def test_nearest_occupied_exact_center_hit():
    data = np.zeros((8, 8, 8), dtype=bool)
    data[2, 3, 4] = True
    data[6, 6, 6] = True
    grid = BinaryGrid(data)
    p = index_to_point(np.array([2, 3, 4]), 8)
    assert nearest_occupied(grid, p) == full_scan(grid, p) == (2, 3, 4)


def test_nearest_occupied_single_voxel_always_wins():
    data = np.zeros((8, 8, 8), dtype=bool)
    data[5, 1, 7] = True
    grid = BinaryGrid(data)
    for p in [(0, 0, 0), (1, 1, 1), (0.9, 0.2, 0.4)]:
        assert nearest_occupied(grid, p) == full_scan(grid, p) == (5, 1, 7)


def test_nearest_occupied_empty_grid_raises():
    with pytest.raises(ValueError):
        nearest_occupied(BinaryGrid(np.zeros((4, 4, 4), dtype=bool)), (0.5, 0.5, 0.5))


@pytest.mark.parametrize("p", [(np.nan, 0.5, 0.5), (0.5, np.inf, 0.5), (0.5, 0.5, -np.inf)])
def test_nearest_occupied_rejects_non_finite_point(p):
    # the search takes finite points only: ContactSet, through which every
    # contact enters, rejects any other
    with pytest.raises(ValueError, match="finite"):
        ContactSet(np.array([p]))


def test_nearest_occupied_tie_breaks_lexicographically():
    data = np.zeros((4, 4, 4), dtype=bool)
    data[0, 1, 1] = True
    data[2, 1, 1] = True  # both at distance 1 voxel from the midpoint
    grid = BinaryGrid(data)
    p = index_to_point(np.array([1, 1, 1]), 4)
    assert nearest_occupied(grid, p) == full_scan(grid, p) == (0, 1, 1)


@given(st.integers(0, 2**31 - 1))
def test_nearest_occupied_matches_exhaustive_scan(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.random((6, 6, 6)) < 0.3
    if not data.any():
        data[3, 3, 3] = True
    grid = BinaryGrid(data)
    p = rng.random(3)
    best, best_d = None, np.inf
    for idx in np.argwhere(data):  # lexicographic; strict < keeps the first of a tie
        d = float(np.sum(((idx + 0.5) / 6 - p) ** 2))
        if d < best_d:
            best, best_d = tuple(int(v) for v in idx), d
    assert nearest_occupied(grid, p) == full_scan(grid, p) == best


def assert_matches_full_scan(grid: BinaryGrid, points: np.ndarray) -> None:
    np.testing.assert_array_equal(_nearest_occupied(grid, points), oracles.nearest_occupied(grid, points))


@given(
    st.sampled_from([2, 3, 5, 16, 17, 64]),
    st.sampled_from([0.0, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.95]),
    st.integers(0, 2**31 - 1),
)
def test_nearest_occupied_matches_full_scan_on_random_grids(N, density, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.random((N, N, N)) < density
    data[tuple(rng.integers(0, N, 3))] = True  # density 0.0 leaves this one voxel
    grid = BinaryGrid(data)
    points = np.concatenate(
        [
            index_to_point(rng.integers(0, N, (4, 3)), N),  # voxel centres
            rng.random((4, 3)),  # off-centre
            rng.integers(0, N + 1, (4, 3)) / N,  # on cell faces, 0.0 and 1.0 included
            rng.uniform(-0.5, 1.5, (4, 3)),  # partly outside the unit cube
        ]
    )
    assert_matches_full_scan(grid, points)


def test_nearest_occupied_box_ties_match_full_scan():
    # at N = 8 every distance below is exact: the six voxels two steps from
    # (4, 4, 4) along an axis tie for its centre, and two voxels face to face
    # tie for every point of their shared face
    data = np.zeros((8, 8, 8), dtype=bool)
    for axis in range(3):
        for step in (-2, 2):
            idx = [4, 4, 4]
            idx[axis] += step
            data[tuple(idx)] = True
    data[0, 0, 0] = data[0, 0, 1] = True
    grid = BinaryGrid(data)
    points = np.array([index_to_point([4, 4, 4], 8), [0.0625, 0.0625, 0.125], [0.0, 0.0, 0.125]])
    assert_matches_full_scan(grid, points)
    assert [nearest_occupied(grid, p) for p in points] == [(2, 4, 4), (0, 0, 0), (0, 0, 0)]


@pytest.mark.parametrize("N", [2, 5, 17, 64])
def test_nearest_occupied_far_corner_voxel_grows_box_to_whole_grid(N):
    data = np.zeros((N, N, N), dtype=bool)
    data[-1, -1, -1] = True
    grid = BinaryGrid(data)
    points = np.array([[0.0, 0.0, 0.0], index_to_point([0, 0, 0], N), [0.3, 0.0, 0.1]])
    assert_matches_full_scan(grid, points)
    assert nearest_occupied(grid, (0.0, 0.0, 0.0)) == (N - 1, N - 1, N - 1)


# ---------------------------------------------------------------------------
# ContactSet plumbing
# ---------------------------------------------------------------------------


def test_contact_set_json_roundtrip(tmp_path):
    cs = ContactSet(np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]]), provenance="external file")
    (tmp_path / "c.json").write_text(json.dumps(cs.to_dict(), indent=2))
    raw = json.loads((tmp_path / "c.json").read_text())
    assert raw["provenance"] == "external file"
    loaded = ContactSet.load(tmp_path / "c.json")
    np.testing.assert_array_equal(loaded.points, cs.points)


def test_contact_set_rejects_out_of_cube_points():
    with pytest.raises(ValueError):
        ContactSet(np.array([[1.2, 0.5, 0.5]]))


def test_contact_set_rejects_empty():
    with pytest.raises(ValueError):
        ContactSet(np.zeros((0, 3)))


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({}, id="missing"),
        pytest.param({"points": None}, id="null"),
        pytest.param({"points": [[0.5, {}, 0.5]]}, id="dict-coordinate"),
        pytest.param({"points": [[0.5, 10**400, 0.5]]}, id="huge-integer"),
        pytest.param({"points": [[0.5, "0.5", 0.5]]}, id="string-coordinate"),
        pytest.param({"points": [[True, 0.5, 0.5]]}, id="bool-coordinate"),
        pytest.param({"points": [[0.5, 0.5, 0.5], [0.5]]}, id="ragged"),
    ],
)
def test_contact_set_from_dict_rejects_bad_points_naming_the_field(doc):
    with pytest.raises(ValueError, match="points"):
        ContactSet.from_dict(doc)


def test_contact_set_from_dict_reads_integer_coordinates():
    loaded = ContactSet.from_dict({"points": [[0, 1, 0], [0.5, 0.25, 1]]})
    assert loaded.points.dtype == np.float64
    np.testing.assert_array_equal(loaded.points, [[0.0, 1.0, 0.0], [0.5, 0.25, 1.0]])
