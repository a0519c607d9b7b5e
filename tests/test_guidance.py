import dataclasses
import json
import math

import numpy as np
import pytest

import contact_flow.guidance as guidance_module
import oracles
from contact_flow.contact import ContactSet, _nearest_occupied
from contact_flow.decoder import DecoderParams, decode, encode
from contact_flow.guidance import (
    GenerationAborted,
    GuidanceConfig,
    ReferenceShape,
    attenuation,
    drag_loss,
    energy_gradient,
    guided_sample,
    make_reference,
    unguided_sample,
)
from contact_flow.toyflow import MixtureFlowModel, _predict, _predict_x0_vjp, _velocity_batch, predict_x0, sample_base
from contact_flow.voxelcore import (
    BinaryGrid,
    Box,
    LatentGrid,
    OccupancyGrid,
    _read,
    binarize,
    index_to_point,
    point_to_index,
    voxelize_primitive,
)


def read_guidance(d):
    """A manifest's guidance block, read by GuidanceConfig's table."""
    return _read(GuidanceConfig, d, "", "guidance")


def small_cfg(**kw):
    kw.setdefault("timesteps", 6)
    kw.setdefault("stage_bounds", (2, 4))
    kw.setdefault("radius", 1)
    return GuidanceConfig(**kw)


def make_reference_shape(N=8, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    occ = OccupancyGrid(rng.random((N, N, N)))
    return ReferenceShape(occupancy=occ, binary=binarize(occ, 0.5), seed=seed, timesteps=6)


def drag_loss_oracle(s_hat, contacts, ref, radius):
    """Independent triple-loop implementation of the neighborhood drag loss."""
    N = s_hat.shape[0]
    total = 0.0
    grad = np.zeros_like(s_hat)
    for pc in contacts.points:
        a = point_to_index(pc, N)
        b = oracles.nearest_occupied(ref.binary, pc[None])[0]
        for dx in range(-radius, radius + 1):
            for dy in range(-radius, radius + 1):
                for dz in range(-radius, radius + 1):
                    ia = a + np.array([dx, dy, dz])
                    ib = b + np.array([dx, dy, dz])
                    if (ia < 0).any() or (ia >= N).any() or (ib < 0).any() or (ib >= N).any():
                        continue
                    diff = s_hat[tuple(ia)] - ref.occupancy.data[tuple(ib)]
                    total += diff**2
                    grad[tuple(ia)] += 2 * diff
    return total, grad


def toy_setup(seed=0, k=2, n=2, channels=2, sigma=0.35):
    """Mixture over two encoded blocky shapes plus decoder and reference.

    Shape boundaries are aligned to the 4^3 pooling blocks so the encoded
    latents decode back to solidly saturated occupancies.
    """
    params = DecoderParams.default(channels, beta=2.0)
    N = 4 * n
    g1 = voxelize_primitive(Box((0, 0, 0), (0.5, 1, 1)), N)
    g2 = voxelize_primitive(Box((0, 0, 0), (1, 1, 1)), N)
    lats = [encode(g, params) for g in (g1, g2)][:k]
    means = np.stack([lat.data.reshape(-1) for lat in lats])
    model = MixtureFlowModel(n=n, channels=channels, means=means, weights=np.full(k, 1.0 / k), sigma=sigma)
    cfg = small_cfg()
    ref = make_reference(model, params, cfg, seed=seed + 1000)
    contacts = ContactSet(np.array([[0.8, 0.5, 0.5], [0.3, 0.2, 0.6]]))
    return model, params, cfg, ref, contacts


# ---------------------------------------------------------------------------
# drag_loss
# ---------------------------------------------------------------------------


def test_identical_neighborhoods_give_zero_loss():
    ref = make_reference_shape()
    contacts = ContactSet(index_to_point(np.argwhere(ref.binary.data)[:3], 8))
    # prediction equals the reference: every window matches itself
    J, grad = drag_loss(ref.occupancy, contacts, ref, small_cfg(radius=2))
    assert J == 0.0
    assert np.count_nonzero(grad) == 0


def test_radius_zero_single_contact_formula():
    ref = make_reference_shape(seed=5)
    rng = np.random.Generator(np.random.PCG64(6))
    s = OccupancyGrid(rng.random((8, 8, 8)))
    pc = np.array([0.4, 0.6, 0.2])
    contacts = ContactSet(pc[None])
    cfg = small_cfg(radius=0)
    J, grad = drag_loss(s, contacts, ref, cfg)
    a = tuple(point_to_index(pc, 8))
    b = tuple(oracles.nearest_occupied(ref.binary, pc[None])[0])
    expected = (s.data[a] - ref.occupancy.data[b]) ** 2
    assert J == pytest.approx(expected, abs=1e-15)
    assert np.count_nonzero(grad) == 1
    assert grad[a] == pytest.approx(2 * (s.data[a] - ref.occupancy.data[b]), abs=1e-15)


def test_drag_loss_matches_triple_loop_oracle():
    ref = make_reference_shape(seed=9)
    rng = np.random.Generator(np.random.PCG64(10))
    s = OccupancyGrid(rng.random((8, 8, 8)))
    contacts = ContactSet(rng.random((4, 3)))
    cfg = small_cfg(radius=2)
    J, grad = drag_loss(s, contacts, ref, cfg)
    J_want, grad_want = drag_loss_oracle(s.data, contacts, ref, 2)
    assert J == pytest.approx(J_want, rel=1e-12)
    np.testing.assert_allclose(grad, grad_want, rtol=0, atol=1e-12)


def test_drag_loss_near_boundary_skips_out_of_range_offsets():
    ref = make_reference_shape(seed=12)
    rng = np.random.Generator(np.random.PCG64(13))
    s = OccupancyGrid(rng.random((8, 8, 8)))
    contacts = ContactSet(np.array([[0.01, 0.01, 0.99], [0.99, 0.5, 0.02]]))
    cfg = small_cfg(radius=3)
    J, grad = drag_loss(s, contacts, ref, cfg)
    J_want, grad_want = drag_loss_oracle(s.data, contacts, ref, 3)
    assert J == pytest.approx(J_want, rel=1e-12)
    np.testing.assert_allclose(grad, grad_want, rtol=0, atol=1e-12)


def test_drag_loss_rejects_oversized_neighborhood():
    ref = make_reference_shape()
    s = OccupancyGrid(np.full((8, 8, 8), 0.5))
    contacts = ContactSet(np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(ValueError):
        drag_loss(s, contacts, ref, small_cfg(radius=4))


def test_empty_reference_rejected_at_construction():
    occ = OccupancyGrid(np.zeros((8, 8, 8)))
    with pytest.raises(ValueError):
        ReferenceShape(occupancy=occ, binary=binarize(occ, 0.5), seed=0, timesteps=6)


# ---------------------------------------------------------------------------
# energy_gradient
# ---------------------------------------------------------------------------


def test_energy_gradient_jacobian_becomes_identity_at_small_time():
    model, params, cfg, ref, contacts = toy_setup()
    x = sample_base(model, 3)
    J, g_xt, g_x0 = energy_gradient(model, x, 1e-3, contacts, ref, params, cfg)
    rel = np.linalg.norm(g_xt - g_x0) / np.linalg.norm(g_x0)
    assert rel < 1e-2


def test_zero_drag_gradient_gives_zero_chain_gradients():
    model, params, cfg, ref, _ = toy_setup(seed=2)
    # put a contact exactly at an occupied reference voxel and make the
    # prediction equal the reference: windows coincide, so J and grads vanish
    occupied = np.argwhere(ref.binary.data)
    pc = index_to_point(occupied[0], ref.binary.resolution)
    contacts = ContactSet(pc[None])
    J0, grad0 = drag_loss(ref.occupancy, contacts, ref, cfg)
    assert J0 == 0.0
    assert np.count_nonzero(grad0) == 0
    # chain through decoder/flow with a zero cotangent stays zero
    x = sample_base(model, 4)
    g_x0 = oracles.decode_vjp(predict_x0(model, x, 0.5).data, grad0, params)
    _, r, mubar = _velocity_batch(model, x.data.reshape(1, -1), 0.5)
    g_xt = _predict_x0_vjp(model, r[0], mubar[0], 0.5, g_x0.reshape(-1))
    assert np.count_nonzero(g_x0) == 0
    assert np.count_nonzero(g_xt) == 0


def composite_energy(model, params, cfg, ref, contacts, x_flat, t):
    xg = LatentGrid(x_flat.reshape(model.latent_shape()))
    x0 = predict_x0(model, xg, t)
    s = decode(x0, params)
    J, _ = drag_loss(s, contacts, ref, cfg)
    return J


def test_energy_gradient_matches_end_to_end_finite_differences():
    model, params, cfg, ref, contacts = toy_setup(seed=8)
    rng = np.random.Generator(np.random.PCG64(40))
    t = 0.45
    x_flat = sample_base(model, 7).data.reshape(-1) * 0.8
    x = LatentGrid(x_flat.reshape(model.latent_shape()))
    J, g_xt, _ = energy_gradient(model, x, t, contacts, ref, params, cfg)
    h = 1e-5
    fd = np.zeros_like(x_flat)
    for i in range(x_flat.size):
        xp, xm = x_flat.copy(), x_flat.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (
            composite_energy(model, params, cfg, ref, contacts, xp, t)
            - composite_energy(model, params, cfg, ref, contacts, xm, t)
        ) / (2 * h)
    rel = np.linalg.norm(g_xt.reshape(-1) - fd) / np.linalg.norm(fd)
    assert rel < 1e-5


# ---------------------------------------------------------------------------
# attenuation
# ---------------------------------------------------------------------------


def norm(g):
    return float(np.linalg.norm(g))


def test_attenuation_equal_gradients_is_one():
    g = np.random.default_rng(0).standard_normal((5, 5))
    assert attenuation(norm(g), norm(g)) == pytest.approx(1.0, rel=1e-15)


def test_attenuation_double_norm_halves():
    g = np.random.default_rng(1).standard_normal((7,))
    lam = attenuation(norm(g), norm(2 * g))
    assert lam == pytest.approx(0.5, rel=1e-15)
    assert np.linalg.norm(lam * 2 * g) == pytest.approx(np.linalg.norm(g), rel=1e-12)


def test_attenuation_norm_identity_generic():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((4, 4, 4, 2))
        b = rng.standard_normal((4, 4, 4, 2))
        lam = attenuation(norm(a), norm(b))
        assert np.linalg.norm(lam * b) == pytest.approx(np.linalg.norm(a), rel=1e-12)


def test_attenuation_suppresses_on_vanishing_denominator():
    a = norm(np.ones((3, 3)))
    assert attenuation(a, norm(np.zeros((3, 3)))) == 0.0
    assert attenuation(a, norm(np.full((3, 3), 1e-14))) == 0.0


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_zero_guidance_matches_unguided_bitwise():
    model, params, cfg, ref, contacts = toy_setup(seed=21)
    zero_cfg = dataclasses.replace(cfg, lambda_stage=(0.0, 0.0, 0.0))
    for seed in (0, 1, 2):
        guided, traj = guided_sample(model, params, contacts, ref, zero_cfg, seed)
        unguided = unguided_sample(model, params, cfg, seed)
        assert np.array_equal(guided.data, unguided.data)
        assert len(traj.records) == zero_cfg.timesteps * zero_cfg.recurrence


def test_single_recurrence_zero_lambda_is_plain_euler():
    model, params, cfg, ref, contacts = toy_setup(seed=22)
    m1_cfg = dataclasses.replace(cfg, lambda_stage=(0.0, 0.0, 0.0), recurrence=1)
    guided, _ = guided_sample(model, params, contacts, ref, m1_cfg, seed=9)
    unguided = unguided_sample(model, params, cfg, seed=9)
    assert np.array_equal(guided.data, unguided.data)


def test_guided_trajectory_record_count_and_schema():
    model, params, cfg, ref, contacts = toy_setup(seed=23)
    _, traj = guided_sample(model, params, contacts, ref, cfg, seed=1)
    assert len(traj.records) == cfg.timesteps * cfg.recurrence
    for rec in traj.records:
        assert math.isfinite(rec.J)
        assert rec.t > rec.t_next
    assert math.isfinite(traj.final_J)


def test_attenuation_identity_holds_on_trajectory_records():
    model, params, cfg, ref, contacts = toy_setup(seed=24)
    _, traj = guided_sample(model, params, contacts, ref, cfg, seed=2)
    for rec in traj.records:
        if not rec.suppressed:
            assert rec.lam_att * rec.grad_xt_norm == pytest.approx(
                rec.grad_x0_norm, rel=1e-9
            )


def test_guidance_descends_energy_for_small_lambda():
    model, params, cfg, ref, contacts = toy_setup(seed=25)
    t, t_next = 0.5, 0.4
    x_flat = sample_base(model, 11).data.reshape(-1)
    x = LatentGrid(x_flat.reshape(model.latent_shape()))
    J0, g_xt, _ = energy_gradient(model, x, t, contacts, ref, params, cfg)
    lam = 1.0
    for _ in range(40):  # halve until the first-order term dominates
        x_new = x_flat + lam * g_xt.reshape(-1) * (t_next - t)
        J1 = composite_energy(model, params, cfg, ref, contacts, x_new, t)
        if J1 <= J0:
            break
        lam *= 0.5
    assert J1 <= J0


def test_recurrence_reduces_final_energy_on_average():
    model, params, cfg, ref, contacts = toy_setup(seed=26)
    finals = {m: [] for m in (1, 3)}
    for m in (1, 3):
        mcfg = dataclasses.replace(cfg, recurrence=m)
        for seed in range(8):
            _, traj = guided_sample(model, params, contacts, ref, mcfg, seed)
            finals[m].append(traj.final_J)
    assert np.median(finals[3]) <= np.median(finals[1])


def test_unguided_single_component_converges_to_its_shape():
    params = DecoderParams.default(2, beta=2.0)
    grid = voxelize_primitive(Box((0, 0, 0), (0.5, 1, 1)), 8)
    lat = encode(grid, params)
    model = MixtureFlowModel(n=2, channels=2, means=lat.data.reshape(1, -1), weights=[1.0], sigma=0.01)
    cfg = small_cfg(timesteps=50, stage_bounds=(16, 32))
    target = binarize(decode(lat, params), 0.5)
    for seed in range(3):
        occ = unguided_sample(model, params, cfg, seed)
        got = binarize(occ, 0.5)
        inter = (got.data & target.data).sum()
        union = (got.data | target.data).sum()
        assert inter / union >= 0.95


def test_unguided_determinism():
    model, params, cfg, _, _ = toy_setup(seed=27)
    a = unguided_sample(model, params, cfg, seed=42)
    b = unguided_sample(model, params, cfg, seed=42)
    assert np.array_equal(a.data, b.data)


def test_unguided_two_components_both_modes_appear():
    model, params, cfg, _, _ = toy_setup(seed=28, sigma=0.05)
    landings = []
    for seed in range(40):
        occ = unguided_sample(model, params, cfg, seed)
        count = binarize(occ, 0.5).data.sum()
        landings.append(count)
    landings = np.array(landings)
    # the two library boxes differ in occupied volume; both sizes must occur
    assert len(np.unique(landings // 20)) >= 2


def test_huge_lambda_aborts_with_step_info():
    model, params, cfg, ref, contacts = toy_setup(seed=30)
    hot = dataclasses.replace(cfg, lambda_stage=(1e300, 1e300, 1e300))
    with pytest.raises(GenerationAborted) as err:
        guided_sample(model, params, contacts, ref, hot, seed=0)
    # step 0 (t = 1) has grad_xt = 0, so its weight is 0; the first weighted
    # update sends the state so far out that the next flow pass underflows
    assert (err.value.step, err.value.inner) == (1, 1)
    assert "all mixture components underflowed" in err.value.reason
    records = err.value.trajectory.records
    assert [(r.step, r.inner) for r in records] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert all(r.suppressed and r.lam == 0.0 for r in records[:3])
    assert records[3].lam > 1e300 and not records[3].suppressed


def test_trajectory_jsonl_text():
    model, params, cfg, ref, contacts = toy_setup(seed=31)
    _, traj = guided_sample(model, params, contacts, ref, cfg, seed=3)
    text = traj.to_jsonl()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == len(traj.records) + 1
    first = json.loads(lines[0])
    # the trajectory.jsonl record format: these keys, in this order
    assert list(first) == [
        "step", "inner", "t", "t_next", "J", "grad_x0_norm", "grad_xt_norm",
        "lambda_schedule", "lambda_att", "lambda", "g_norm", "suppressed",
    ]
    rec = traj.records[0]
    assert first["lambda_schedule"] == rec.lam_schedule and first["lambda_att"] == rec.lam_att
    assert first["lambda"] == rec.lam and first["suppressed"] is rec.suppressed
    assert "final_J" in json.loads(lines[-1])


def test_config_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(timesteps=2)
    with pytest.raises(ValueError):
        GuidanceConfig(stage_bounds=(8, 4))
    for bad in ((4,), (), (2, 4, 8)):
        with pytest.raises(ValueError, match="stage_bounds"):
            GuidanceConfig(stage_bounds=bad)
    with pytest.raises(ValueError):
        GuidanceConfig(lambda_stage=(-0.1, 1.0, 0.5))
    for bad in (math.inf, math.nan):  # not a number, as a file's inf or nan is not
        with pytest.raises(ValueError, match="lambda_stage must be a list of numbers"):
            GuidanceConfig(lambda_stage=(0.2, bad, 0.5))
    with pytest.raises(ValueError):
        GuidanceConfig(recurrence=0)
    cfg = GuidanceConfig()
    assert cfg.timesteps == 12
    assert cfg.stage_bounds == (4, 8)
    assert cfg.lambda_stage == (0.2, 1.0, 0.5)
    assert cfg.recurrence == 3
    assert cfg.radius == 10


@pytest.mark.parametrize("timesteps, bounds", [(9, (4, 8)), (6, (2, 4)), (3, (0, 3)), (12, (0, 0)), (12, (12, 12))])
def test_explicit_stage_bounds_are_kept_as_given(timesteps, bounds):
    cfg = GuidanceConfig(timesteps=timesteps, stage_bounds=bounds)
    assert cfg.stage_bounds == bounds
    assert read_guidance(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "timesteps, bounds", [(12, (8, 4)), (12, (-1, 4)), (12, (4, 13)), (9, (4, 10)), (12, (4,)), (12, (2, 4, 8))]
)
def test_explicit_stage_bounds_that_do_not_partition_the_steps_are_refused(timesteps, bounds):
    with pytest.raises(ValueError, match="stage_bounds"):
        GuidanceConfig(timesteps=timesteps, stage_bounds=bounds)


def test_lambda_schedule_stages():
    cfg = GuidanceConfig()
    assert [cfg.lambda_schedule(i) for i in (0, 3)] == [0.2, 0.2]
    assert [cfg.lambda_schedule(i) for i in (4, 7)] == [1.0, 1.0]
    assert [cfg.lambda_schedule(i) for i in (8, 11)] == [0.5, 0.5]


def test_config_dict_roundtrip():
    cfg = GuidanceConfig(timesteps=9, stage_bounds=(3, 6), lambda_stage=(0.1, 0.9, 0.3),
                         recurrence=2, radius=4)
    assert read_guidance(cfg.to_dict()) == cfg


def test_decoder_channel_mismatch_is_an_error_not_an_abort():
    model, _, cfg, ref, contacts = toy_setup(seed=33)
    wrong = DecoderParams.default(model.channels + 1, beta=2.0)
    with pytest.raises(ValueError, match="channels"):
        guided_sample(model, wrong, contacts, ref, cfg, seed=0)


@pytest.mark.parametrize(
    "key, once_legal", [("aggregation", "sum"), ("threshold", 0.5), ("t_min", 0.001), ("schedule", "staged")]
)
def test_guidance_block_refuses_each_retired_key_naming_it(key, once_legal):
    # older guidance blocks carried these fixed conventions; they are not read
    d = GuidanceConfig().to_dict()
    assert key not in d
    with pytest.raises(ValueError, match=f"^guidance has unknown field '{key}'$"):
        read_guidance({**d, key: once_legal})


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("radius", None, "radius must be an integer"),
        ("radius", True, "radius must be an integer"),
        ("recurrence", 3.7, "recurrence must be an integer"),
        ("timesteps", "12", "timesteps must be an integer"),
        ("stage_bounds", None, "stage_bounds must be a list"),
        ("stage_bounds", [4, 8.5], "stage_bounds must be an integer"),
        ("lambda_stage", [0.2, None, 0.5], "lambda_stage must be a list of numbers"),
        ("lambda_stage", [0.2, True, 0.5], "lambda_stage must be a list of numbers"),
    ],
)
def test_guidance_block_rejects_wrong_typed_fields_as_value_errors(key, bad, message):
    d = GuidanceConfig().to_dict()
    assert read_guidance(d) == GuidanceConfig()
    with pytest.raises(ValueError, match=message):
        read_guidance({**d, key: bad})
    with pytest.raises(ValueError, match="guidance must be a dict"):
        read_guidance([d])


@pytest.mark.parametrize("key", sorted(GuidanceConfig().to_dict()))
def test_guidance_block_names_a_missing_field_in_a_value_error(key):
    d = GuidanceConfig().to_dict()
    del d[key]
    with pytest.raises(ValueError, match=f"^guidance is missing required field '{key}'$"):
        read_guidance(d)


def test_guided_sample_looks_up_each_drag_target_once(monkeypatch):
    model, params, cfg, ref, contacts = toy_setup(seed=35)
    calls = []

    def counting(grid, points):
        calls.append(np.array(points))
        return _nearest_occupied(grid, points)

    monkeypatch.setattr(guidance_module, "_nearest_occupied", counting)
    _, traj = guided_sample(model, params, contacts, ref, cfg, seed=4)
    assert len(traj.records) == cfg.timesteps * cfg.recurrence
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], contacts.points)


# ---------------------------------------------------------------------------
# windowed inner step
# ---------------------------------------------------------------------------


def full_grid_energy_gradient(model, params, cfg, ref, contacts, x, t):
    """The inner step's chain on the whole grid: decode -> drag_loss, then
    back through the references, the decoder adjoint as a trilinear einsum
    and the one-step prediction's through the dense velocity Jacobian."""
    x0 = predict_x0(model, x, t)
    J, g_s = drag_loss(decode(x0, params), contacts, ref, cfg)
    g_x0 = oracles.decode_vjp(x0.data, g_s, params).reshape(-1)
    g_xt = oracles.predict_x0_vjp(model, x.data.reshape(-1), t, g_x0)
    return J, g_xt.reshape(model.latent_shape()), g_x0.reshape(model.latent_shape())


# one contact in a corner (windows clipped at the grid edge), two a voxel
# apart (overlapping windows), one in the middle
WINDOW_CONTACTS = ContactSet(
    np.array([[0.01, 0.02, 0.99], [0.5, 0.5, 0.5], [0.56, 0.5, 0.44], [0.3, 0.7, 0.6]])
)
# a window clipped on y only and one clipped on z only, full along x
CLIPPED_YZ_CONTACTS = ContactSet(np.array([[0.5, 0.03, 0.5], [0.5, 0.5, 0.98]]))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("radius", [0, 1, 3])
def test_windowed_energy_gradient_equals_full_grid_chain(n, radius):
    model, params, _, ref, _ = toy_setup(seed=n + radius, n=n)
    cfg = small_cfg(radius=radius)
    x = LatentGrid(sample_base(model, 11 + n).data * 0.8)
    corner, middle, beside, _ = guidance_module._drag_windows(ref, WINDOW_CONTACTS, radius)
    if radius > 0:
        assert corner.target.shape != (2 * radius + 1,) * 3
        assert all(a.start < b.stop and b.start < a.stop for a, b in zip(middle.fine, beside.fine))
    for t in (0.9, 0.45, 0.05):
        J, g_xt, g_x0 = energy_gradient(model, x, t, WINDOW_CONTACTS, ref, params, cfg)
        J_ref, g_xt_ref, g_x0_ref = full_grid_energy_gradient(
            model, params, cfg, ref, WINDOW_CONTACTS, x, t
        )
        assert J == pytest.approx(J_ref, rel=1e-10)
        assert np.linalg.norm(g_x0_ref) > 0.0
        assert np.linalg.norm(g_xt - g_xt_ref) <= 1e-10 * np.linalg.norm(g_xt_ref)
        assert np.linalg.norm(g_x0 - g_x0_ref) <= 1e-10 * np.linalg.norm(g_x0_ref)


@pytest.mark.parametrize(
    "n, radius, contacts",
    [
        pytest.param(2, 0, WINDOW_CONTACTS, id="2-0"),
        pytest.param(3, 2, WINDOW_CONTACTS, id="3-2"),
        pytest.param(4, 3, WINDOW_CONTACTS, id="4-3"),
        pytest.param(16, 10, WINDOW_CONTACTS, id="16-10"),
        pytest.param(4, 3, CLIPPED_YZ_CONTACTS, id="4-3-clipped-yz"),
        pytest.param(16, 10, CLIPPED_YZ_CONTACTS, id="16-10-clipped-yz"),
    ],
)
def test_window_decodes_the_same_values_as_the_full_grid(n, radius, contacts):
    from contact_flow.decoder import _interp, _logistic, _logits

    model, params, _, ref, _ = toy_setup(seed=n, n=n)
    x0 = LatentGrid(sample_base(model, 5).data)
    full = decode(x0, params).data
    coarse = _logits(x0.data, params)
    windows = guidance_module._drag_windows(ref, contacts, radius)
    for win in windows:
        s = _logistic(_interp(coarse[win.coarse], *win.blocks), params.beta)
        np.testing.assert_allclose(s, full[win.fine], rtol=0, atol=1e-14)


def test_energy_gradient_is_finite_with_windows_where_the_logistic_overflows():
    # one component whose decoded logit is -200 everywhere: beta * u = -800
    # overflows exp in every window, which the pytest filter would report
    params = DecoderParams.default(2, beta=4.0)
    mean = LatentGrid(np.broadcast_to(-200.0 * params.w, (2, 2, 2, 2)).copy())
    model = MixtureFlowModel(n=2, channels=2, means=mean.data.reshape(1, -1), weights=[1.0], sigma=0.3)
    ref = make_reference_shape()
    cfg = small_cfg(radius=2)
    t = 0.5
    x = LatentGrid((1.0 - t) * mean.data)  # the marginal mean: x0_hat is the mean
    J, g_xt, g_x0 = energy_gradient(model, x, t, WINDOW_CONTACTS, ref, params, cfg)
    assert math.isfinite(J) and J > 0.0
    assert np.count_nonzero(g_x0) == 0
    assert np.count_nonzero(g_xt) == 0


def window_chain_oracle(coarse, windows, dec):
    """The drag-window chain as it was: out-of-place clip, mismatch and
    logistic adjoint, the channel mix as a broadcast, and every interpolation
    operand a view of A (A[rows, cols] or its transpose), none a copy."""
    from contact_flow.decoder import _clip_occupancy, _interp, _interp_matrix, _logistic

    n = coarse.shape[0]
    A = _interp_matrix(n, 4 * n)
    d_coarse = np.zeros_like(coarse)
    J = 0.0
    for win in windows:
        bx, by, bz = (A[rows, cols] for rows, cols in zip(win.fine, win.coarse))
        s = _logistic(_interp(coarse[win.coarse], bx, by, bz.T), dec.beta)
        diff = _clip_occupancy(s) - win.target
        J += float(np.sum(diff**2))
        d_fine = 2.0 * diff * s * (1.0 - s) * dec.beta
        d_coarse[win.coarse] += _interp(d_fine, bx.T, by.T, bz)
    return J, (d_coarse[..., None] * dec.w).reshape(-1)


@pytest.mark.parametrize(
    "n, radius, contacts",
    [
        pytest.param(2, 1, WINDOW_CONTACTS, id="2-1"),
        pytest.param(4, 3, WINDOW_CONTACTS, id="4-3"),
        pytest.param(16, 10, WINDOW_CONTACTS, id="16-10"),
        pytest.param(4, 3, CLIPPED_YZ_CONTACTS, id="4-3-clipped-yz"),
        pytest.param(16, 10, CLIPPED_YZ_CONTACTS, id="16-10-clipped-yz"),
    ],
)
def test_window_chain_is_bit_identical_to_the_out_of_place_one(n, radius, contacts):
    from contact_flow.decoder import _logits

    model, params, _, ref, _ = toy_setup(seed=n, n=n)
    windows = guidance_module._drag_windows(ref, contacts, radius)
    x = sample_base(model, 6).data.reshape(1, -1) * 0.8
    for t in (0.9, 0.3):
        _, r, mubar, x0 = _predict(model, x, t)
        J, _, g_x0 = guidance_module._energy_gradient(model, t, r, mubar, x0, windows, params)
        J_want, g_x0_want = window_chain_oracle(_logits(x0.reshape(model.latent_shape()), params), windows, params)
        assert J == J_want
        assert g_x0.tobytes() == g_x0_want.tobytes()


def test_all_components_underflow_aborts_both_samplers(monkeypatch):
    model, params, cfg, ref, contacts = toy_setup(seed=36)
    monkeypatch.setattr(
        guidance_module, "sample_base", lambda m, seed: LatentGrid(np.full(m.latent_shape(), 1e200))
    )
    # a batch of three states whose middle row underflows every component
    batch = np.random.Generator(np.random.PCG64(0)).standard_normal((3, model.means.shape[1]))
    batch[1] = 1e200
    for run in (
        lambda: unguided_sample(model, params, cfg, seed=0),
        lambda: guided_sample(model, params, contacts, ref, cfg, seed=0),
        lambda: guidance_module._integrate(model, batch, cfg.timesteps),
    ):
        with pytest.raises(GenerationAborted) as err:
            run()
        assert err.value.step == 0 and err.value.inner == 0
        assert "underflowed" in err.value.reason


@pytest.mark.parametrize("n, radius", [(4, 3), (16, 10)])
def test_clipped_yz_windows_are_clipped_on_y_or_z(n, radius):
    _, _, _, ref, _ = toy_setup(seed=n, n=n)
    windows = guidance_module._drag_windows(ref, CLIPPED_YZ_CONTACTS, radius)
    full = 2 * radius + 1
    (_, y_clipped, _), (_, _, z_clipped) = (win.target.shape for win in windows)
    assert [win.target.shape[0] for win in windows] == [full, full]
    assert y_clipped < full and z_clipped < full


# ---------------------------------------------------------------------------
# an inner iteration that did not move the state is reused
# ---------------------------------------------------------------------------


def out_of_place_predict(model, x, t):
    """_predict's (v, r, mubar, x0) and its checks, every full-length array
    made by an out-of-place expression."""
    from contact_flow.toyflow import _check_finite, _log_responsibilities

    s2 = (1.0 - t) ** 2 * model.sigma**2 + t**2
    c1 = (t - (1.0 - t) * model.sigma**2) / s2
    c2 = t / s2
    r = np.exp(_log_responsibilities(model, x, t))
    mubar = r @ model.means
    v = c1 * x - c2 * mubar
    return v, r, mubar, _check_finite(x - v * t, "one-step prediction became non-finite")


def out_of_place_predict_x0_vjp(model, r, mubar, t, u):
    """_predict_x0_vjp as one out-of-place expression."""
    s2 = (1.0 - t) ** 2 * model.sigma**2 + t**2
    c1 = (t - (1.0 - t) * model.sigma**2) / s2
    c2 = t / s2
    cov_u = (r * (model.means @ u)) @ model.means - mubar * (mubar @ u)
    return (1.0 - t * c1) * u + (t * c2 * (1.0 - t) / s2) * cov_u


def every_iteration_guided_sample(model, dec, contacts, ref, cfg, seed):
    """The staged guided loop with no reuse: every inner iteration runs the
    flow pass and the window chain, the chain out of place (window_chain_oracle),
    and so are the flow pass, the prediction VJP and the updates (x = x + ...).
    Returns (occupancy, records, final_J), or (step, inner, reason) where a
    non-finite check fails."""
    from contact_flow.decoder import _logits
    from contact_flow.toyflow import _check_finite, time_grid

    windows = guidance_module._drag_windows(ref, contacts, cfg.radius)
    x = sample_base(model, seed).data.reshape(1, -1)
    ts, t_nexts = time_grid(cfg.timesteps)
    records = []
    try:
        for step, (t, t_next) in enumerate(zip(ts, t_nexts)):
            lam_sched = cfg.lambda_schedule(step)
            for inner in range(cfg.recurrence):
                v, r, mubar, x0 = out_of_place_predict(model, x, t)
                J, g_x0 = window_chain_oracle(_logits(x0.reshape(model.latent_shape()), dec), windows, dec)
                g_xt = out_of_place_predict_x0_vjp(model, r[0], mubar[0], t, g_x0)
                with np.errstate(over="ignore"):
                    g_x0_norm, g_xt_norm = float(np.linalg.norm(g_x0)), float(np.linalg.norm(g_xt))
                lam_att = attenuation(g_x0_norm, g_xt_norm)
                lam = lam_sched * lam_att
                g_norm = 0.0
                if lam != 0.0:
                    with np.errstate(invalid="ignore", over="ignore"):
                        g = lam * g_xt
                        x = x + g * (t_next - t)
                        g_norm = float(np.linalg.norm(g))
                records.append(
                    guidance_module.StepRecord(
                        step, inner, float(t), float(t_next), J, g_x0_norm, g_xt_norm,
                        float(lam_sched), lam_att, float(lam), g_norm, lam_att == 0.0,
                    )
                )
                _check_finite(x, "latent state became non-finite after guided update")
            x = _check_finite(x + v * (t_next - t), "latent state became non-finite after Euler step")
        *_, x0 = out_of_place_predict(model, x, t_nexts[-1])
    except FloatingPointError as exc:
        return step, inner, str(exc)
    occupancy = decode(LatentGrid(x0.reshape(model.latent_shape())), dec)
    return occupancy, records, drag_loss(occupancy, contacts, ref, cfg)[0]


def out_of_place_unguided_sample(model, dec, cfg, seed):
    """unguided_sample's Euler loop with x = x + v (t_next - t) and the flow
    pass out of place."""
    from contact_flow.toyflow import time_grid

    x = sample_base(model, seed).data.reshape(1, -1)
    ts, t_nexts = time_grid(cfg.timesteps)
    for t, t_next in zip(ts, t_nexts):
        v, *_ = out_of_place_predict(model, x, t)
        x = x + v * (t_next - t)
    *_, x0 = out_of_place_predict(model, x, t_nexts[-1])
    return decode(LatentGrid(x0.reshape(model.latent_shape())), dec)


@pytest.fixture(scope="module")
def depth_boxes_n4():
    from contact_flow.scenarios import build_scenario, suite_scenario

    built = build_scenario(suite_scenario("depth_boxes", n=4), run_index=1)
    cfg = built.scenario.guidance_config()
    ref = make_reference(built.model, built.decoder, cfg, built.scenario.seeds.reference)
    return built, cfg, ref


@pytest.mark.parametrize("lambda_stage", [None, (0.0, 1.0, 0.5)])
def test_reusing_unmoved_iterations_matches_the_every_iteration_loop_bit_for_bit(
    depth_boxes_n4, lambda_stage
):
    built, cfg, ref = depth_boxes_n4
    if lambda_stage is not None:
        cfg = dataclasses.replace(cfg, lambda_stage=lambda_stage)
    args = (built.model, built.decoder, built.contacts, ref, cfg, built.scenario.seeds.guided)
    occupancy, traj = guided_sample(*args)
    occupancy_want, records_want, final_J_want = every_iteration_guided_sample(*args)
    assert occupancy.data.tobytes() == occupancy_want.data.tobytes()
    assert traj.records == tuple(records_want)
    assert traj.final_J == final_J_want


@pytest.mark.parametrize(
    "replace, calls",
    [
        ({}, 34),  # 12 x 3: step 0 (t = 1) has grad_xt = 0, so lambda = 0
        ({"lambda_stage": (0.0, 1.0, 0.5)}, 28),  # the 4 unweighted steps make one call each
        ({"recurrence": 1}, 12),
    ],
)
def test_an_iteration_with_zero_lambda_is_computed_once(depth_boxes_n4, monkeypatch, replace, calls):
    built, cfg, ref = depth_boxes_n4
    cfg = dataclasses.replace(cfg, **replace)
    assert (cfg.timesteps, cfg.recurrence) == (12, replace.get("recurrence", 3))
    counted = []
    energy_gradient_ = guidance_module._energy_gradient

    def counting(*args):
        counted.append(args[1])
        return energy_gradient_(*args)

    monkeypatch.setattr(guidance_module, "_energy_gradient", counting)
    _, traj = guided_sample(
        built.model, built.decoder, built.contacts, ref, cfg, built.scenario.seeds.guided
    )
    assert len(counted) == calls
    assert len(traj.records) == cfg.timesteps * cfg.recurrence
    assert counted[0] == 1.0 and traj.records[0].grad_xt_norm == 0.0


# ---------------------------------------------------------------------------
# a sampler owns its state and finishes each full-length array in place
# ---------------------------------------------------------------------------


def test_unguided_sample_is_bit_identical_to_the_out_of_place_loop(depth_boxes_n4):
    built, cfg, _ = depth_boxes_n4
    args = (built.model, built.decoder, cfg, built.scenario.seeds.reference)
    assert unguided_sample(*args).data.tobytes() == out_of_place_unguided_sample(*args).data.tobytes()


def test_a_huge_stage_weight_aborts_where_the_out_of_place_loop_does(depth_boxes_n4):
    built, cfg, ref = depth_boxes_n4
    hot = dataclasses.replace(cfg, lambda_stage=(1e300, 1e300, 1e300))
    args = (built.model, built.decoder, built.contacts, ref, hot, built.scenario.seeds.guided)
    with pytest.raises(GenerationAborted) as err:
        guided_sample(*args)
    assert (err.value.step, err.value.inner, err.value.reason) == every_iteration_guided_sample(*args)
    assert err.value.step > 0


def test_samplers_leave_the_model_and_the_base_draw_unchanged(depth_boxes_n4, monkeypatch):
    built, cfg, ref = depth_boxes_n4
    model = built.model
    arrays = ("means", "weights", "mean_sq_norms", "log_weights")
    before = {name: getattr(model, name).tobytes() for name in arrays}
    base = sample_base(model, built.scenario.seeds.guided)
    base_bytes = base.data.tobytes()
    monkeypatch.setattr(guidance_module, "sample_base", lambda m, seed: base)
    unguided_sample(model, built.decoder, cfg, seed=0)
    guided_sample(model, built.decoder, built.contacts, ref, cfg, seed=0)
    # a caller's writable batch is integrated as a copy
    batch = np.stack([base.data.reshape(-1), 0.5 * base.data.reshape(-1)])
    batch_bytes = batch.tobytes()
    guidance_module._integrate(model, batch, cfg.timesteps)
    assert batch.tobytes() == batch_bytes
    assert base.data.tobytes() == base_bytes and not base.data.flags.writeable
    for name in arrays:
        assert getattr(model, name).tobytes() == before[name]
        assert not getattr(model, name).flags.writeable
