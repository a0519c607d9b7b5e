import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

import oracles
from contact_flow.contact import ContactSet
from contact_flow.evaluation import (
    F_SCORE_THRESHOLDS,
    METRICS_CSV_COLUMNS,
    _chamfer,
    _f_score,
    _nearest_distances,
    contact_residuals,
    evaluate_run,
    read_metrics_csv,
    unit_cube_transform,
    write_metrics_csv,
)
from contact_flow.voxelcore import (
    BinaryGrid,
    Box,
    OccupancyGrid,
    binarize,
    index_to_point,
    surface_mask,
    voxelize_primitive,
)

# one contact, for the tests that do not read the contact residual
CENTER = ContactSet(np.full((1, 3), 0.5))


def distances(a, b):
    """evaluate_run's nearest distances between clouds a and b, both ways,
    with the points the clouds share flagged as evaluate_run flags them."""
    same = (a[:, None, :] == b[None, :, :]).all(axis=2)
    return _nearest_distances(a, b, same.any(axis=1)), _nearest_distances(b, a, same.any(axis=0))


def chamfer(a, b):
    return _chamfer(*distances(a, b))


def f_score(pred, gt, tau):
    return _f_score(*distances(pred, gt), tau)


def test_distance_reference_matches_hand_computed_distances():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    b = np.array([[0.3, 0.0, 0.0], [0.0, 0.0, 0.4], [1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(oracles.nearest_distances(a, b), [0.3, 0.0])
    np.testing.assert_array_equal(oracles.nearest_distances(b, a), [0.3, 0.4, 0.0])
    assert oracles.chamfer(a, b) == pytest.approx(0.5 * (0.15 + 0.7 / 3), rel=1e-15)
    # precision 1/2 and recall 1/3 at tau = 0.25, 1 and 2/3 at 0.35, both 1 at 0.4
    assert oracles.f_score(a, b, 0.25) == pytest.approx(0.4, rel=1e-15)
    assert oracles.f_score(a, b, 0.35) == pytest.approx(0.8, rel=1e-15)
    assert oracles.f_score(a, b, 0.4) == 1.0
    assert oracles.f_score(a, b + 1.0, 0.05) == 0.0
    # blocks of rows give what one pass over all pairs gives
    rng = np.random.Generator(np.random.PCG64(3))
    a, b = rng.random((700, 3)), rng.random((90, 3))
    full = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min(axis=1)
    np.testing.assert_array_equal(oracles.nearest_distances(a, b), full)


# ---------------------------------------------------------------------------
# chamfer
# ---------------------------------------------------------------------------


def test_chamfer_identical_clouds_is_zero():
    pts = np.random.default_rng(0).random((50, 3))
    assert chamfer(pts, pts) == 0.0


def test_chamfer_single_pair_is_their_distance():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.3, 0.0, 0.0]])
    assert chamfer(a, b) == pytest.approx(0.3, rel=1e-12)


def test_chamfer_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.random((200, 3))
    b = rng.random((200, 3))
    assert chamfer(a, b) == oracles.chamfer(a, b)


@given(st.integers(0, 2**31 - 1))
def test_chamfer_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((20, 3))
    b = rng.random((30, 3))
    assert chamfer(a, b) == pytest.approx(chamfer(b, a), rel=1e-14)


def test_chamfer_union_bound():
    rng = np.random.default_rng(2)
    a = rng.random((40, 3))
    b = rng.random((25, 3))
    assert chamfer(a, np.vstack([a, b])) <= chamfer(a, b) + 1e-12


def test_chamfer_rejects_empty():
    # an empty cloud never reaches the distances: evaluate_run reports an empty
    # prediction as a failed run and rejects an empty ground truth
    with pytest.raises(ValueError, match="empty ground truth"):
        evaluate_run(OccupancyGrid(np.full((4, 4, 4), 0.9)), BinaryGrid(np.zeros((4, 4, 4), bool)), CENTER)


# ---------------------------------------------------------------------------
# f_score
# ---------------------------------------------------------------------------


def test_f_score_identical_clouds_is_one():
    pts = np.random.default_rng(3).random((30, 3))
    for tau in (0.01, 0.02, 0.05):
        assert f_score(pts, pts, tau) == 1.0


def test_f_score_distant_clouds_is_zero():
    a = np.zeros((5, 3)) + 0.1
    b = np.zeros((5, 3)) + 0.9
    assert f_score(a, b, 0.05) == 0.0


def test_f_score_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    a = rng.random((150, 3))
    b = rng.random((120, 3))
    assert f_score(a, b, 0.02) == oracles.f_score(a, b, 0.02)


@given(st.integers(0, 2**31 - 1), st.floats(0.005, 0.05), st.floats(0.005, 0.05))
def test_f_score_monotone_in_threshold(seed, tau_a, tau_b):
    rng = np.random.default_rng(seed)
    a = rng.random((15, 3))
    b = rng.random((15, 3))
    lo, hi = sorted((tau_a, tau_b))
    assert f_score(a, b, lo) <= f_score(a, b, hi) + 1e-12


# ---------------------------------------------------------------------------
# unit_cube_transform
# ---------------------------------------------------------------------------


def normalize_to_unit_cube(points: np.ndarray) -> np.ndarray:
    """The cloud mapped by its own unit-cube transform, as evaluate_run maps the clouds."""
    scale, offset = unit_cube_transform(points)
    return points * scale + offset


def test_normalize_is_idempotent():
    rng = np.random.default_rng(5)
    pts = rng.random((40, 3))
    once = normalize_to_unit_cube(pts)
    twice = normalize_to_unit_cube(once)
    np.testing.assert_allclose(once, twice, atol=1e-12)


def test_normalize_similarity_invariance():
    rng = np.random.default_rng(6)
    pts = rng.random((25, 3))
    plain = normalize_to_unit_cube(pts)
    moved = normalize_to_unit_cube(pts * 5.0 + np.array([3.0, -2.0, 7.0]))
    np.testing.assert_allclose(plain, moved, atol=1e-12)


def test_normalize_longest_edge_maps_to_unit():
    corners = np.array(
        [[0, 0, 0], [4, 0, 0], [0, 2, 0], [0, 0, 1], [4, 2, 1]], dtype=float
    )
    out = normalize_to_unit_cube(corners)
    extent = out.max(axis=0) - out.min(axis=0)
    assert extent[0] == pytest.approx(1.0, abs=1e-12)
    assert extent[1] == pytest.approx(0.5, abs=1e-12)
    center = (out.max(axis=0) + out.min(axis=0)) / 2
    np.testing.assert_allclose(center, 0.5, atol=1e-12)


def test_normalize_rejects_degenerate_cloud():
    with pytest.raises(ValueError):
        normalize_to_unit_cube(np.full((4, 3), 0.25))


# ---------------------------------------------------------------------------
# evaluate_run
# ---------------------------------------------------------------------------


def box_grid(N=32):
    return voxelize_primitive(Box((0.1875, 0.25, 0.25), (0.8125, 0.75, 0.75)), N)


def test_perfect_output_scores_perfectly():
    gt = box_grid()
    output = OccupancyGrid(gt.data.astype(float))
    contacts = ContactSet(np.array([[0.8, 0.5, 0.5]]))
    report = evaluate_run(output, gt, contacts)
    assert report.chamfer == 0.0
    assert all(v == 1.0 for v in report.f_scores.values())
    assert not report.failed


def test_one_voxel_dilation_bounds():
    N = 64
    gt = voxelize_primitive(Box((0.1875, 0.25, 0.25), (0.8125, 0.75, 0.75)), N)
    struct = ndimage.generate_binary_structure(3, 1)  # 6-connectivity
    dilated = ndimage.binary_dilation(gt.data, structure=struct)
    output = OccupancyGrid(dilated.astype(float))
    report = evaluate_run(output, gt, CENTER)
    # surfaces move by at most one voxel pitch; gt normalization scales by
    # 1/extent with extent 0.625 here, hence the 2/N bound
    assert report.chamfer <= 2.0 / N
    assert report.f_scores[0.05] == 1.0
    # brute-force check of the raw (unnormalized) dilation distance bound
    ps = oracles.surface_points(BinaryGrid(dilated))
    gs = oracles.surface_points(gt)
    assert oracles.nearest_distances(ps, gs).max() <= 1.0 / N + 1e-12


def test_empty_output_yields_failure_sentinels():
    gt = box_grid()
    output = OccupancyGrid(np.zeros(gt.data.shape))
    contacts = ContactSet(np.array([[0.5, 0.5, 0.5]]))
    report = evaluate_run(output, gt, contacts)
    assert report.failed
    assert math.isinf(report.chamfer)
    assert all(v == 0.0 for v in report.f_scores.values())
    assert math.isinf(report.contact_residual_median)


def test_contact_residual_equals_nearest_occupied_distance():
    gt = box_grid(16)
    output = OccupancyGrid(gt.data.astype(float))
    contacts = ContactSet(np.array([[0.9, 0.9, 0.9], [0.5, 0.5, 0.5]]))
    residuals = contact_residuals(gt, contacts)
    nearest = oracles.nearest_occupied(gt, contacts.points)
    for pc, ps, res in zip(contacts.points, nearest, residuals):
        dist = np.linalg.norm(index_to_point(ps, 16) - pc)
        assert res == pytest.approx(dist, abs=1e-15)
    report = evaluate_run(output, gt, contacts)
    assert report.contact_residual_median == pytest.approx(np.median(residuals), abs=1e-15)


def test_metrics_csv_roundtrip(tmp_path):
    gt = box_grid(16)
    output = OccupancyGrid(gt.data.astype(float))
    contacts = ContactSet(np.array([[0.9, 0.5, 0.5]]))
    rep = evaluate_run(output, gt, contacts, scenario="s", method="guided", seed=7)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [rep])
    rows = read_metrics_csv(path)
    assert len(rows) == 1
    assert set(rows[0]) == set(METRICS_CSV_COLUMNS)
    assert float(rows[0]["chamfer"]) == rep.chamfer
    assert rows[0]["method"] == "guided"
    assert int(rows[0]["seed"]) == 7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluate_run_metrics_equal_public_metrics_bitwise(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    gt = BinaryGrid(rng.random((16, 16, 16)) < 0.3)
    output = OccupancyGrid(rng.random((16, 16, 16)))
    rep = evaluate_run(output, gt, CENTER)
    gt_surface = oracles.surface_points(gt)
    scale, offset = unit_cube_transform(gt_surface)
    pred = oracles.surface_points(binarize(output, 0.5)) * scale + offset
    truth = gt_surface * scale + offset
    assert rep.chamfer == oracles.chamfer(pred, truth)
    assert rep.f_scores == {tau: oracles.f_score(pred, truth, tau) for tau in F_SCORE_THRESHOLDS}


@given(st.sampled_from([4, 16, 64]), st.integers(0, 2**31 - 1), st.floats(0.25, 4.0))
def test_nearest_distances_equal_brute_force_and_a_default_tree_bitwise(N, seed, scale):
    # voxel centers of a random sub-box of the lattice, under one scale and
    # offset, like evaluate_run's surfaces: many candidates tie for nearest
    rng = np.random.Generator(np.random.PCG64(seed))
    span = int(rng.integers(2, N + 1))
    lo = rng.integers(0, N - span + 1, size=3)
    idx_a = np.unique(lo + rng.integers(0, span, size=(int(rng.integers(1, 150)), 3)), axis=0)
    idx_b = np.unique(lo + rng.integers(0, span, size=(int(rng.integers(1, 300)), 3)), axis=0)
    offset = rng.uniform(-1.0, 1.0, size=3)
    a = index_to_point(idx_a, N) * scale + offset
    b = index_to_point(idx_b, N) * scale + offset
    shared = (idx_a[:, None, :] == idx_b[None, :, :]).all(axis=2).any(axis=1)
    got = _nearest_distances(a, b, shared)
    assert np.array_equal(got, oracles.nearest_distances(a, b))
    assert np.array_equal(got, cKDTree(b).query(a)[0])


@pytest.mark.parametrize("N, density, seed", [(4, 0.1, 0), (8, 0.02, 1), (16, 0.005, 2), (16, 0.4, 3)])
def test_contact_residuals_match_brute_force_over_every_occupied_voxel(N, density, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.random((N, N, N)) < density
    data[tuple(rng.integers(N, size=3))] = True
    grid = BinaryGrid(data)
    contacts = ContactSet(rng.random((25, 3)))
    centers = index_to_point(np.argwhere(data), N)
    brute = [np.sqrt(np.sum((centers - pc) ** 2, axis=1)).min() for pc in contacts.points]
    np.testing.assert_allclose(contact_residuals(grid, contacts), brute, rtol=0, atol=1e-15)


def test_contact_residuals_reject_an_empty_output():
    with pytest.raises(ValueError, match="no occupied voxels"):
        contact_residuals(BinaryGrid(np.zeros((4, 4, 4), bool)), ContactSet(np.full((1, 3), 0.5)))


def whole_volume_residuals(output, contacts):
    """The contact residuals of a KD-tree over every occupied voxel center."""
    centers = index_to_point(np.argwhere(output.data), output.resolution)
    return cKDTree(centers).query(contacts.points)[0]


def solid_and_shell(N):
    """A thick box with a cavity, so it has interior voxels and an inner surface."""
    g = np.zeros((N, N, N), dtype=bool)
    lo, hi = N // 8, N - N // 8
    g[lo:hi, lo:hi, lo:hi] = True
    c = N // 2
    g[c - 1 : c + 1, c - 1 : c + 1, c - 1 : c + 1] = False
    return g


@pytest.mark.parametrize("N", [8, 12, 16, 20, 64])
def test_contact_residuals_equal_a_tree_over_every_occupied_voxel(N):
    rng = np.random.Generator(np.random.PCG64(N))
    grid = BinaryGrid(solid_and_shell(N))
    occupied = np.argwhere(grid.data)
    interior = np.argwhere(grid.data & ~surface_mask(grid))

    def picks(idx, k):
        return idx[rng.integers(len(idx), size=k)]

    points = np.concatenate(
        [
            index_to_point(picks(occupied, 20), N),  # voxel centers
            index_to_point(picks(interior, 20) + rng.uniform(-0.5, 0.5, (20, 3)), N),  # inside
            picks(interior, 20) / N,  # cell corners
            (picks(interior, 20) + [0.0, 0.5, 0.5]) / N,  # cell faces
            (picks(interior, 20) + [0.5, 0.0, 0.0]) / N,  # cell edges
            rng.random((40, 3)),  # anywhere, mostly outside the shape
            [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [1.0, 0.5, 0.0]],
        ]
    )
    contacts = ContactSet(np.clip(points, 0.0, 1.0))
    got = contact_residuals(grid, contacts)
    assert np.array_equal(got, whole_volume_residuals(grid, contacts))


@pytest.mark.parametrize("N, density, seed", [(12, 0.7, 0), (16, 0.9, 1), (20, 0.5, 2)])
def test_contact_residuals_equal_a_tree_over_every_occupied_voxel_on_random_grids(N, density, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = BinaryGrid(rng.random((N, N, N)) < density)
    lattice = rng.integers(0, 2 * N + 1, size=(200, 3)) / (2 * N)  # centers, faces, corners
    contacts = ContactSet(np.concatenate([lattice, rng.random((100, 3))]))
    assert np.array_equal(contact_residuals(grid, contacts), whole_volume_residuals(grid, contacts))


@pytest.mark.parametrize("case", ["identical", "mostly_overlapping", "one_voxel_shift", "disjoint"])
def test_evaluate_run_equals_public_chamfer_and_f_score(case):
    N = 32
    gt = box_grid(N)
    rng = np.random.Generator(np.random.PCG64(7))
    pred = {
        "identical": gt,
        "mostly_overlapping": BinaryGrid(gt.data & (rng.random(gt.data.shape) < 0.97)),
        "one_voxel_shift": BinaryGrid(np.roll(gt.data, 1, axis=0)),
        "disjoint": voxelize_primitive(Box((0.0, 0.0, 0.0), (0.125, 0.125, 0.9)), N),
    }[case]
    rep = evaluate_run(OccupancyGrid(pred.data.astype(float)), gt, CENTER)
    gt_surface = oracles.surface_points(gt)
    scale, offset = unit_cube_transform(gt_surface)
    a = oracles.surface_points(pred) * scale + offset
    b = gt_surface * scale + offset
    assert rep.chamfer == oracles.chamfer(a, b)
    assert rep.f_scores == {tau: oracles.f_score(a, b, tau) for tau in F_SCORE_THRESHOLDS}


def test_evaluate_run_rejects_grids_of_different_resolutions():
    gt = box_grid(16)
    with pytest.raises(ValueError, match="resolution"):
        evaluate_run(OccupancyGrid(np.ones((8, 8, 8))), gt, CENTER)
