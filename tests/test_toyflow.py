import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from contact_flow.decoder import DecoderParams, decode
from contact_flow.guidance import _integrate
from contact_flow.toyflow import (
    MixtureFlowModel,
    T_MIN_DEFAULT,
    condition,
    predict_x0,
    sample_base,
    time_grid,
    _log_responsibilities,
    _logsumexp,
    _predict_x0_vjp,
    _velocity_batch,
)
from contact_flow.voxelcore import BinaryGrid, LatentGrid, OccupancyGrid


def make_model(seed=0, k=2, n=2, channels=2, sigma=0.3, weights=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = n**3 * channels
    means = rng.standard_normal((k, dim)) * 2.0
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, float)
    return MixtureFlowModel(n=n, channels=channels, means=means, weights=w, sigma=sigma)


def latent(model, flat):
    return LatentGrid(np.asarray(flat, float).reshape(model.latent_shape()))


def velocity(model, x, t):
    """The flow pass's velocity of one flat state."""
    v, _, _ = _velocity_batch(model, np.asarray(x, float).reshape(1, -1), t)
    return v[0]


def predict_x0_vjp(model, x, t, u):
    """The guided step's transpose-Jacobian product of the one-step
    prediction, at the responsibilities and posterior mean of the flow pass."""
    _, r, mubar = _velocity_batch(model, x.reshape(1, -1), t)
    return _predict_x0_vjp(model, r[0], mubar[0], t, u)


def posterior_mean_oracle(model, x_flat, t):
    """E[x0 | x_t] computed from scratch: per-component Gaussian posteriors
    weighted by responsibilities under the marginal at time t."""
    s2 = (1 - t) ** 2 * model.sigma**2 + t**2
    m = (1 - t) * model.means
    log_r = np.log(model.weights) - np.sum((x_flat - m) ** 2, axis=1) / (2 * s2)
    log_r -= log_r.max()
    r = np.exp(log_r)
    r /= r.sum()
    shrink = (1 - t) * model.sigma**2 / s2
    per_component = model.means + shrink * (x_flat - m)
    return r @ per_component


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------


def test_single_component_tiny_noise_velocity_is_drift_to_mean():
    model = make_model(k=1, sigma=1e-8)
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.standard_normal(model.means.shape[1])
    for t in (0.25, 0.5, 1.0):
        v = velocity(model, x, t)
        np.testing.assert_allclose(v, (x - model.means[0]) / t, rtol=1e-9, atol=1e-12)


def test_velocity_matches_monte_carlo_conditional_expectation():
    # scalar model, state at the marginal mean, 1e5 path samples in a ball
    mu, sigma, t = 1.2, 0.4, 0.6
    model = MixtureFlowModel(n=1, channels=1, means=[[mu]], weights=[1.0], sigma=sigma)
    x_star = (1 - t) * mu
    rng = np.random.Generator(np.random.PCG64(99))
    x0 = rng.normal(mu, sigma, 100_000)
    x1 = rng.standard_normal(100_000)
    xt = (1 - t) * x0 + t * x1
    s_t = math.sqrt((1 - t) ** 2 * sigma**2 + t**2)
    ball = np.abs(xt - x_star) < 0.05 * s_t
    assert ball.sum() > 500
    mc = np.mean(x1[ball] - x0[ball])
    se = np.std(x1[ball] - x0[ball], ddof=1) / math.sqrt(ball.sum())
    v = velocity(model, [x_star], t)[0]
    assert abs(v - mc) < 3 * se


def test_velocity_saturates_to_single_component_deep_in_basin():
    model = make_model(seed=3, k=2, sigma=0.1)
    single = MixtureFlowModel(
        n=model.n, channels=model.channels, means=model.means[:1], weights=[1.0], sigma=0.1
    )
    t = 0.3
    # far into component 0's basin
    x = (1 - t) * model.means[0] + 0.01 * np.ones(model.means.shape[1])
    v_mix = velocity(model, x, t)
    v_one = velocity(single, x, t)
    rel = np.linalg.norm(v_mix - v_one) / np.linalg.norm(v_one)
    assert rel < 1e-6


def test_velocity_rejects_time_outside_domain():
    # the flow pass trusts its callers' knots; the public entry points check t
    model = make_model()
    x = latent(model, np.zeros(model.means.shape[1]))
    for t in (0.0, 1.5):
        with pytest.raises(ValueError, match="time"):
            predict_x0(model, x, t)


# ---------------------------------------------------------------------------
# predict_x0
# ---------------------------------------------------------------------------


def test_predict_x0_tiny_noise_returns_mean_for_any_state():
    model = make_model(k=1, sigma=1e-8)
    rng = np.random.Generator(np.random.PCG64(4))
    for t in (0.2, 0.9):
        x = rng.standard_normal(model.means.shape[1]) * 3
        x0 = predict_x0(model, latent(model, x), t).data.reshape(-1)
        np.testing.assert_allclose(x0, model.means[0], rtol=0, atol=1e-16 * 10 / t + 1e-12)


def test_predict_x0_approaches_identity_at_small_time():
    sigma = 0.5
    model = make_model(k=2, sigma=sigma)
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.standard_normal(model.means.shape[1])
    x0 = predict_x0(model, latent(model, x), 1e-3).data.reshape(-1)
    assert np.abs(x0 - x).max() < sigma * 1e-2


def test_predict_x0_equals_independent_posterior_mean():
    rng = np.random.Generator(np.random.PCG64(6))
    model = make_model(seed=7, k=3, sigma=0.4, weights=[0.2, 0.5, 0.3])
    for _ in range(20):
        t = float(rng.uniform(0.05, 1.0))
        x = rng.standard_normal(model.means.shape[1]) * 1.5
        got = predict_x0(model, latent(model, x), t).data.reshape(-1)
        want = posterior_mean_oracle(model, x, t)
        assert np.abs(got - want).max() < 1e-10


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
@settings(max_examples=30)
def test_posterior_mean_identity_property(seed, t):
    rng = np.random.Generator(np.random.PCG64(seed))
    model = make_model(seed=int(seed % 97), k=2, sigma=0.3)
    x = rng.standard_normal(model.means.shape[1])
    got = predict_x0(model, latent(model, x), t).data.reshape(-1)
    want = posterior_mean_oracle(model, x, t)
    assert np.abs(got - want).max() < 1e-10


# ---------------------------------------------------------------------------
# the one-step prediction's transpose-Jacobian product
# ---------------------------------------------------------------------------


def test_vjp_single_component_is_scalar_multiple_of_cotangent():
    # one component has Cov_r(mu) = 0: the product is (1 - t c1) u
    model = make_model(k=1, sigma=0.3)
    rng = np.random.Generator(np.random.PCG64(8))
    x = rng.standard_normal(model.means.shape[1])
    u = rng.standard_normal(model.means.shape[1])
    t = 0.4
    s2 = (1 - t) ** 2 * model.sigma**2 + t**2
    c1 = (t - (1 - t) * model.sigma**2) / s2
    got = predict_x0_vjp(model, x, t, u)
    np.testing.assert_allclose(got, (1 - t * c1) * u, rtol=1e-12, atol=1e-14)


def test_vjp_matches_finite_differences_three_components():
    rng = np.random.Generator(np.random.PCG64(9))
    model = make_model(seed=10, k=3, n=2, channels=2, sigma=0.5)
    x = rng.standard_normal(model.means.shape[1]) * 0.7
    u = rng.standard_normal(model.means.shape[1])
    t = 0.55
    got = predict_x0_vjp(model, x, t, u)
    h = 1e-5
    fd = np.zeros(model.means.shape[1])
    for i in range(model.means.shape[1]):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        x0p = xp - t * velocity(model, xp, t)
        x0m = xm - t * velocity(model, xm, t)
        fd[i] = np.dot(u, (x0p - x0m) / (2 * h))
    rel = np.linalg.norm(got - fd) / np.linalg.norm(fd)
    assert rel < 1e-5


def test_vjp_zero_cotangent():
    model = make_model()
    out = predict_x0_vjp(model, np.zeros(model.means.shape[1]), 0.7, np.zeros(model.means.shape[1]))
    assert np.count_nonzero(out) == 0


# ---------------------------------------------------------------------------
# sample_base
# ---------------------------------------------------------------------------


def test_sample_base_deterministic_per_seed():
    model = make_model()
    a = sample_base(model, 123).data
    b = sample_base(model, 123).data
    assert np.array_equal(a, b)


def test_sample_base_changes_with_seed():
    model = make_model()
    assert not np.array_equal(sample_base(model, 1).data, sample_base(model, 2).data)


def test_sample_base_mean_within_clt_bound():
    model = make_model(n=2, channels=1)
    draws = np.stack([sample_base(model, s).data.reshape(-1) for s in range(10_000)])
    assert np.abs(draws.mean(axis=0)).max() < 4 / math.sqrt(10_000)


# ---------------------------------------------------------------------------
# condition
# ---------------------------------------------------------------------------


def _visibility(N):
    mask = np.zeros((N, N, N), dtype=bool)
    mask[: N // 2] = True
    return BinaryGrid(mask)


def _mean(model, k):
    return LatentGrid(model.means[k].reshape(model.latent_shape()))


def _decoded(model, params):
    return tuple(decode(_mean(model, k), params) for k in range(len(model.weights)))


def _energies(decoded, mask, observation):
    """Each decoded shape's squared mismatch with `observation` where `mask` is True."""
    v = mask.data
    return np.array([np.sum((s.data[v] - observation.data[v]) ** 2) for s in decoded])


def make_shape_model(n=4, sigma=0.2):
    """Two components identical on the visible (low-x) half, distinct hidden.

    The depth difference starts at fine index 3n (coordinate 0.75), beyond the
    decoder's interpolation bleed of the visible half, so the decoded shapes
    agree exactly on the visible region.
    """
    params = DecoderParams.default(2)
    N = 4 * n
    shallow = np.zeros((N, N, N), dtype=bool)
    shallow[2 : 3 * n, n : 3 * n, n : 3 * n] = True
    deep = shallow.copy()
    deep[3 * n : N - 1, n : 3 * n, n : 3 * n] = True
    from contact_flow.decoder import encode

    lat_a = encode(BinaryGrid(shallow), params)
    lat_b = encode(BinaryGrid(deep), params)
    means = np.stack([lat_a.data.reshape(-1), lat_b.data.reshape(-1)])
    model = MixtureFlowModel(n=n, channels=2, means=means, weights=[0.25, 0.75], sigma=sigma)
    return model, params, BinaryGrid(shallow), BinaryGrid(deep)


def test_condition_gamma_zero_is_identity():
    model, params, shallow, _ = make_shape_model()
    N = 4 * model.n
    obs = OccupancyGrid(shallow.data.astype(float))
    out = condition(model.weights, _energies(_decoded(model, params), _visibility(N), obs), 0.0)
    np.testing.assert_array_equal(out, model.weights)


def test_condition_concentrates_on_matching_components():
    # third component mismatches on the visible half and gets suppressed
    model, params, shallow, deep = make_shape_model()
    from contact_flow.decoder import encode

    N = 4 * model.n
    other = np.zeros((N, N, N), dtype=bool)
    other[2 : N - 2, 1 : N // 3, 1 : N // 3] = True  # visibly different cross-section
    lat_other = encode(BinaryGrid(other), params)
    big = MixtureFlowModel(
        n=model.n,
        channels=model.channels,
        means=np.vstack([model.means, lat_other.data.reshape(1, -1)]),
        weights=[0.25, 0.5, 0.25],
        sigma=model.sigma,
    )
    obs = decode(_mean(big, 1), params)  # observe the deep shape's rendering
    out = condition(big.weights, _energies(_decoded(big, params), _visibility(N), obs), 100.0)
    assert out[2] < 1e-6
    # the ambiguous pair splits mass proportionally to the prior (0.25 : 0.5)
    ratio = out[0] / out[1]
    assert ratio == pytest.approx(0.5, rel=1e-9)


def test_condition_split_matches_closed_form_reweighting():
    model, params, shallow, deep = make_shape_model()
    N = 4 * model.n
    obs = decode(_mean(model, 0), params)
    gamma = 0.02  # the deep mask's energy of about 51 then moves the weights partway
    decoded = _decoded(model, params)
    # on the visible half the two shapes agree; a mask that reaches into the
    # deep shape's extra depth tells them apart
    deep_mask = np.zeros((N, N, N), dtype=bool)
    deep_mask[: N - 2] = True
    for vis in (_visibility(N), BinaryGrid(deep_mask)):
        # independent reweighting computation
        energies = []
        for k in range(len(model.weights)):
            s_k = decode(_mean(model, k), params).data
            energies.append(np.sum((s_k[vis.data] - obs.data[vis.data]) ** 2))
        raw = model.weights * np.exp(-gamma * np.asarray(energies))
        # the kernel on the energies, and the mask-based reference
        for out in (condition(model.weights, _energies(decoded, vis, obs), gamma),
                    oracles.condition(model, vis.data, obs, gamma, decoded).weights):
            np.testing.assert_allclose(out, raw / raw.sum(), rtol=1e-12)
    assert energies[0] == 0.0 < energies[1]
    assert 0.4 < out[0] < 0.6  # from the prior's 0.25, toward the observed shape


def test_condition_underflow_raises():
    model, params, *_ = make_shape_model()
    N = 4 * model.n
    obs = OccupancyGrid(np.zeros((N, N, N)))
    gamma = sys.float_info.max  # times any energy above 1, -inf
    with pytest.raises(ValueError, match="condition inconsistent with library"):
        condition(model.weights, _energies(_decoded(model, params), _visibility(N), obs), gamma)


def test_condition_checks_gamma_and_one_energy_per_component():
    model, *_ = make_shape_model()
    for gamma in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sharpness gamma must be non-negative and finite"):
            condition(model.weights, np.zeros(len(model.weights)), gamma)
    for energies in (np.zeros(len(model.weights) + 1), np.zeros((len(model.weights), 1)), 0.0):
        with pytest.raises(ValueError, match="condition needs one energy per component"):
            condition(model.weights, energies, 1.0)


@pytest.mark.parametrize("weights", [[0.5, 0.6], [-0.25, 1.25], [0.5, math.nan], [[0.5, 0.5]]])
def test_condition_refuses_prior_weights_that_are_not_a_simplex_vector(weights):
    # conditioning normalizes its result, so a bad prior is refused before it
    with pytest.raises(ValueError, match="^weights must be a probability simplex vector$"):
        condition(weights, np.zeros(np.shape(weights)), 1.0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_time_grid_spans_one_to_t_min():
    ts, t_nexts = time_grid(12)
    assert ts[0] == 1.0
    assert t_nexts[-1] == T_MIN_DEFAULT == 1e-3
    assert len(ts) == 12
    steps = ts - t_nexts
    np.testing.assert_allclose(steps, steps[0], rtol=1e-9)


def test_unguided_runs_land_on_components_with_weight_frequencies():
    model = make_model(seed=20, k=2, n=2, channels=2, sigma=0.05, weights=[0.3, 0.7])
    x = np.random.Generator(np.random.PCG64(5)).standard_normal((400, model.means.shape[1]))
    finals = _integrate(model, x, steps=100)
    d = np.linalg.norm(finals[:, None, :] - model.means[None], axis=2)
    nearest = np.argmin(d, axis=1)
    freqs = np.bincount(nearest, minlength=2) / 400
    assert np.abs(freqs - model.weights).max() < 0.08
    assert d[np.arange(400), nearest].max() < 3 * model.sigma * math.sqrt(model.means.shape[1])


def test_responsibilities_sum_to_one():
    model = make_model(seed=30, k=3)
    x = sample_base(model, 0).data.reshape(1, -1)
    r = np.exp(_log_responsibilities(model, x, 0.8))[0]
    assert r.shape == (3,)
    assert r.sum() == pytest.approx(1.0, abs=1e-12)
    assert_close_rel(r, oracles.responsibilities(model, x[0], 0.8))


def test_logsumexp_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp

    from contact_flow.toyflow import _logsumexp

    rng = np.random.Generator(np.random.PCG64(17))
    for scale in (1e-3, 1.0, 1e3):
        a = rng.standard_normal((2000, 3)) * scale
        a[:50, 1] = a[:50, 0]  # tied maxima or tied others
        a[50:100, 2] = -np.inf  # a component with zero weight
        assert np.array_equal(_logsumexp(a), logsumexp(a, axis=1, keepdims=True))
        assert np.array_equal(_logsumexp(a[0]), logsumexp(a[0], keepdims=True))


# ---------------------------------------------------------------------------
# flow kernel against the formulas it replaced
# ---------------------------------------------------------------------------


def log_responsibilities_oracle(model, x_flat, t):
    """The responsibility kernel before the squared mean norms were cached:
    the scaled means (1-t) mu_k and their squares rebuilt at every call."""
    s2 = (1.0 - t) ** 2 * model.sigma**2 + t**2
    m = (1.0 - t) * model.means
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        quad = np.sum(x_flat**2, axis=1)[:, None] - 2.0 * x_flat @ m.T + np.sum(m**2, axis=1)[None, :]
        logits = np.log(model.weights)[None, :] - quad / (2.0 * s2)
        norm = _logsumexp(logits)
    if not np.all(np.isfinite(norm)):
        raise FloatingPointError("all mixture components underflowed")
    return logits - norm


def predict_x0_vjp_oracle(model, r, t, u):
    """g_xt = u - t * J_v^T u with the velocity VJP as it was: the posterior mean
    recomputed and the covariance product formed through a (K, dim) temporary."""
    s2 = (1.0 - t) ** 2 * model.sigma**2 + t**2
    c1 = (t - (1.0 - t) * model.sigma**2) / s2
    c2 = t / s2
    mubar = r @ model.means
    mu_dot_u = model.means @ u
    cov_u = r @ (model.means * mu_dot_u[:, None]) - mubar * (mubar @ u)
    return u - t * (c1 * u - c2 * (1.0 - t) / s2 * cov_u)


def assert_close_rel(got, want, rel=1e-12):
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def kernel_model(k, tied):
    model = make_model(seed=40 + k, k=k, n=4, channels=2, sigma=0.3)
    if tied:
        means = model.means.copy()
        means[1] = means[0]
        model = MixtureFlowModel(
            n=model.n, channels=model.channels, means=means, weights=model.weights, sigma=model.sigma
        )
    return model


@pytest.mark.parametrize("k, tied", [(1, False), (2, False), (5, False), (2, True), (5, True)])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_flow_kernel_matches_the_formulas_it_replaced(k, tied, scale):
    model = kernel_model(k, tied)
    rng = np.random.Generator(np.random.PCG64(k))
    # states near the means, and far outside the support
    x = (rng.standard_normal((3, model.means.shape[1])) + model.means[rng.integers(k, size=3)]) * scale
    u = rng.standard_normal(model.means.shape[1])
    for t in (1.0, 0.7, 0.3, T_MIN_DEFAULT):
        r_want = np.exp(log_responsibilities_oracle(model, x, t))
        assert_close_rel(np.exp(_log_responsibilities(model, x, t)), r_want)
        v, r, mubar = _velocity_batch(model, x, t)
        assert_close_rel(r, r_want)
        mubar_want = r_want @ model.means
        assert_close_rel(mubar, mubar_want)
        s2 = (1.0 - t) ** 2 * model.sigma**2 + t**2
        v_want = ((t - (1.0 - t) * model.sigma**2) * x - t * mubar_want) / s2
        assert_close_rel(v, v_want)
        for row in range(3):
            want = predict_x0_vjp_oracle(model, r_want[row], t, u)
            got = _predict_x0_vjp(model, r[row], mubar[row], t, u)
            if t == 1.0:
                assert np.count_nonzero(want) == np.count_nonzero(got) == 0
            else:
                assert_close_rel(got, want)
    if tied:
        assert r[0, 0] == r[0, 1]


@pytest.mark.parametrize("k, tied", [(1, False), (3, False), (3, True)])
def test_vjp_equals_the_dense_jacobian_reference(k, tied):
    model = kernel_model(k, tied)
    rng = np.random.Generator(np.random.PCG64(60 + k))
    for t in (0.9, 0.5, 0.1, T_MIN_DEFAULT):
        # near the midpoint of two components' marginal means, where their
        # responsibilities mix
        s_t = math.sqrt((1.0 - t) ** 2 * model.sigma**2 + t**2)
        x = (1.0 - t) * model.means[: min(k, 2)].mean(axis=0) + 1e-3 * s_t * rng.standard_normal(model.means.shape[1])
        u = rng.standard_normal(model.means.shape[1])
        assert_close_rel(predict_x0_vjp(model, x, t, u), oracles.predict_x0_vjp(model, x, t, u))


# the references' own checks (tests/oracles.py)


def test_velocity_reference_gives_the_posterior_mean():
    rng = np.random.Generator(np.random.PCG64(61))
    model = make_model(seed=7, k=3, sigma=0.4, weights=[0.2, 0.5, 0.3])
    for t in (0.95, 0.6, 0.2):
        x = rng.standard_normal(model.means.shape[1]) * 1.5
        got = x - t * oracles.velocity(model, x, t)
        assert np.abs(got - posterior_mean_oracle(model, x, t)).max() < 1e-10


def test_dense_jacobian_reference_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(62))
    model = make_model(seed=10, k=3, n=2, channels=2, sigma=0.5)
    for t in (0.8, 0.55, 0.3):
        # between the components, where the covariance term is not negligible
        x = (1.0 - t) * model.means.mean(axis=0) + 0.1 * rng.standard_normal(model.means.shape[1])
        h = 1e-5
        fd = np.empty((model.means.shape[1], model.means.shape[1]))
        for i in range(model.means.shape[1]):
            e = np.zeros(model.means.shape[1])
            e[i] = h
            fd[:, i] = (oracles.velocity(model, x + e, t) - oracles.velocity(model, x - e, t)) / (2 * h)
        J = oracles.velocity_jacobian(model, x, t)
        assert np.linalg.norm(J - fd) <= 1e-6 * np.linalg.norm(fd)
        np.testing.assert_allclose(J, J.T, rtol=0, atol=1e-12)


def test_mean_norms_follow_the_means_through_replace():
    model = make_model(seed=50, k=3)
    np.testing.assert_array_equal(model.mean_sq_norms, np.sum(model.means**2, axis=1))
    reweighted = replace(model, weights=[0.2, 0.3, 0.5])
    np.testing.assert_array_equal(reweighted.mean_sq_norms, model.mean_sq_norms)
    with pytest.raises(ValueError):
        model.mean_sq_norms[0] = 1.0


def test_all_components_underflow_raises_floating_point_error():
    model = make_model(seed=51, k=3)
    x = np.full((1, model.means.shape[1]), 1e200)
    with pytest.raises(FloatingPointError, match="underflowed"):
        _log_responsibilities(model, x, 0.5)
    with pytest.raises(FloatingPointError, match="underflowed"):
        _velocity_batch(model, x, 0.5)
