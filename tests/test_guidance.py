import dataclasses
import json
import math

import numpy as np
import pytest

from contact_flow.contact import ContactSet, nearest_occupied
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
from contact_flow.toyflow import MixtureFlowModel, predict_x0, sample_base, velocity
from contact_flow.voxelcore import (
    BinaryGrid,
    Box,
    LatentGrid,
    OccupancyGrid,
    binarize,
    index_to_point,
    point_to_index,
    voxelize_primitive,
)


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
        b = np.array(nearest_occupied(ref.binary, pc))
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
    model = MixtureFlowModel.from_latents(lats, np.full(k, 1.0 / k), sigma)
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
    b = nearest_occupied(ref.binary, pc)
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
    from contact_flow.decoder import decode_vjp
    from contact_flow.toyflow import velocity_vjp

    g_x0 = decode_vjp(predict_x0(model, x, 0.5), grad0, params)
    g_xt = g_x0 - 0.5 * velocity_vjp(model, x, 0.5, g_x0.reshape(-1))
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


def test_attenuation_equal_gradients_is_one():
    g = np.random.default_rng(0).standard_normal((5, 5))
    assert attenuation(g, g) == pytest.approx(1.0, rel=1e-15)


def test_attenuation_double_norm_halves():
    g = np.random.default_rng(1).standard_normal((7,))
    lam = attenuation(g, 2 * g)
    assert lam == pytest.approx(0.5, rel=1e-15)
    assert np.linalg.norm(lam * 2 * g) == pytest.approx(np.linalg.norm(g), rel=1e-12)


def test_attenuation_norm_identity_generic():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal((4, 4, 4, 2))
        b = rng.standard_normal((4, 4, 4, 2))
        lam = attenuation(a, b)
        assert np.linalg.norm(lam * b) == pytest.approx(np.linalg.norm(a), rel=1e-12)


def test_attenuation_suppresses_on_vanishing_denominator():
    a = np.ones((3, 3))
    assert attenuation(a, np.zeros((3, 3))) == 0.0
    assert attenuation(a, np.full((3, 3), 1e-14)) == 0.0


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
        assert len(traj) == zero_cfg.timesteps * zero_cfg.recurrence


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
    model = MixtureFlowModel.from_latents([lat], [1.0], sigma=0.01)
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
        count = binarize(occ, 0.5).count
        landings.append(count)
    landings = np.array(landings)
    # the two library boxes differ in occupied volume; both sizes must occur
    assert len(np.unique(landings // 20)) >= 2


def test_covg_schedule_aborts_with_recorded_trajectory():
    model, params, cfg, ref, contacts = toy_setup(seed=29)
    covg = dataclasses.replace(cfg, schedule="covg")
    with pytest.raises(GenerationAborted) as err:
        guided_sample(model, params, contacts, ref, covg, seed=0)
    assert err.value.step == 0
    assert err.value.trajectory is not None
    assert len(err.value.trajectory.records) >= 1


def test_huge_lambda_aborts_with_step_info():
    model, params, cfg, ref, contacts = toy_setup(seed=30)
    hot = dataclasses.replace(cfg, lambda_stage=(1e300, 1e300, 1e300))
    with pytest.raises(GenerationAborted) as err:
        guided_sample(model, params, contacts, ref, hot, seed=0)
    assert err.value.step >= 0
    assert "non-finite" in err.value.reason or "underflowed" in err.value.reason


def test_trajectory_jsonl_dump(tmp_path):
    model, params, cfg, ref, contacts = toy_setup(seed=31)
    _, traj = guided_sample(model, params, contacts, ref, cfg, seed=3)
    path = tmp_path / "trajectory.jsonl"
    traj.dump_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(traj.records) + 1
    first = json.loads(lines[0])
    for key in ("step", "inner", "t", "t_next", "J", "grad_x0_norm", "grad_xt_norm",
                "lambda_schedule", "lambda_att", "lambda", "g_norm", "suppressed"):
        assert key in first
    assert "final_J" in json.loads(lines[-1])


def test_trajectory_state_recording_is_optional():
    model, params, cfg, ref, contacts = toy_setup(seed=32)
    _, lean = guided_sample(model, params, contacts, ref, cfg, seed=4)
    assert all(r.x_t is None and r.v_t is None and r.x0_hat is None for r in lean.records)
    _, full = guided_sample(model, params, contacts, ref, cfg, seed=4, record_states=True)
    for rec in full.records:
        assert rec.x_t.shape == model.latent_shape()
        assert rec.v_t.shape == (model.dim,)
        assert rec.x0_hat.shape == model.latent_shape()
        # recorded one-step prediction is consistent with the recorded state
        np.testing.assert_allclose(
            rec.x0_hat.reshape(-1), rec.x_t.reshape(-1) - rec.t * rec.v_t, atol=1e-12
        )


def test_config_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(timesteps=2)
    with pytest.raises(ValueError):
        GuidanceConfig(stage_bounds=(8, 4))
    with pytest.raises(ValueError):
        GuidanceConfig(lambda_stage=(-0.1, 1.0, 0.5))
    with pytest.raises(ValueError):
        GuidanceConfig(recurrence=0)
    with pytest.raises(ValueError):
        GuidanceConfig(schedule="linear")
    cfg = GuidanceConfig()
    assert cfg.timesteps == 12
    assert cfg.stage_bounds == (4, 8)
    assert cfg.lambda_stage == (0.2, 1.0, 0.5)
    assert cfg.recurrence == 3
    assert cfg.radius == 10


def test_lambda_schedule_stages():
    cfg = GuidanceConfig()
    assert [cfg.lambda_schedule(i, 0.5) for i in (0, 3)] == [0.2, 0.2]
    assert [cfg.lambda_schedule(i, 0.5) for i in (4, 7)] == [1.0, 1.0]
    assert [cfg.lambda_schedule(i, 0.5) for i in (8, 11)] == [0.5, 0.5]
    covg = GuidanceConfig(schedule="covg")
    assert covg.lambda_schedule(0, 1.0) == math.inf
    assert covg.lambda_schedule(1, 0.5) == pytest.approx(1.0)
    assert covg.lambda_schedule(1, 0.8) == pytest.approx(4.0)


def test_config_dict_roundtrip():
    cfg = GuidanceConfig(timesteps=9, stage_bounds=(3, 6), lambda_stage=(0.1, 0.9, 0.3),
                         recurrence=2, radius=4, schedule="covg")
    assert GuidanceConfig.from_dict(cfg.to_dict()) == cfg


def test_decoder_channel_mismatch_is_an_error_not_an_abort():
    model, _, cfg, ref, contacts = toy_setup(seed=33)
    wrong = DecoderParams.default(model.channels + 1, beta=2.0)
    with pytest.raises(ValueError, match="channels"):
        guided_sample(model, wrong, contacts, ref, cfg, seed=0)


def test_config_from_dict_tolerates_legacy_sum_aggregation_only():
    d = GuidanceConfig().to_dict()
    assert "aggregation" not in d
    assert GuidanceConfig.from_dict({**d, "aggregation": "sum"}) == GuidanceConfig()
    with pytest.raises(ValueError, match="aggregation"):
        GuidanceConfig.from_dict({**d, "aggregation": "mean"})
