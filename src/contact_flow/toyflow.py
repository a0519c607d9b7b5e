"""Analytic conditional flow-matching model over latent grids.

The target distribution is a Gaussian mixture whose means are encoded library
shapes: x0 ~ sum_k w_k N(mu_k, sigma^2 I), and the base distribution is
x1 ~ N(0, I).  Along the affine path

    x_t = (1-t) x0 + t x1,        t: 1 -> 0,

every quantity the guidance needs is available in closed form.  With
m_k(t) = (1-t) mu_k and s_t^2 = (1-t)^2 sigma^2 + t^2, the marginal of x_t is
sum_k w_k N(m_k(t), s_t^2 I), and writing r_k(x, t) for the component
responsibilities under that marginal:

    E[x0 | x_t = x, k] = a_t x + (t^2 / s_t^2) mu_k,   a_t = (1-t) sigma^2 / s_t^2
    v_t^(k)(x) = (x - E[x0 | x, k]) / t
               = ((t - (1-t) sigma^2) x - t mu_k) / s_t^2
    v_t(x)     = sum_k r_k v_t^(k)(x)
               = (c1 x - c2 mubar(x)),  c1 = (t - (1-t) sigma^2)/s_t^2,
                                        c2 = t/s_t^2, mubar = sum_k r_k mu_k

so x_t - t * v_t(x_t) equals E[x0 | x_t] exactly.  The velocity Jacobian is
c1 I - c2 * ((1-t)/s_t^2) * Cov_r(mu), with Cov_r the responsibility-weighted
covariance of the means, which gives an exact (symmetric) transpose-Jacobian
product in O(K * dim).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .decoder import DecoderParams, decode
from .voxelcore import BinaryGrid, LatentGrid, OccupancyGrid, _freeze

T_MIN_DEFAULT = 1e-3


@dataclass(frozen=True)
class MixtureFlowModel:
    """Gaussian-mixture flow target: means are flattened latents, shape (K, dim)."""

    n: int
    channels: int
    means: np.ndarray
    weights: np.ndarray
    sigma: float
    component_ids: tuple[str, ...] = ()

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        dim = self.n**3 * self.channels
        if means.ndim != 2 or means.shape[1] != dim:
            raise ValueError(f"means must have shape (K, {dim}), got {means.shape}")
        if not np.all(np.isfinite(means)):
            raise ValueError("mixture means contain non-finite entries")
        if weights.shape != (means.shape[0],):
            raise ValueError("weights must have one entry per component")
        if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0, atol=1e-12):
            raise ValueError("weights must be a probability simplex vector")
        if self.sigma <= 0.0:
            raise ValueError("component noise scale sigma must be positive")
        if not self.component_ids:
            object.__setattr__(
                self, "component_ids", tuple(f"component_{k}" for k in range(means.shape[0]))
            )
        elif len(self.component_ids) != means.shape[0]:
            raise ValueError("component_ids must match the number of components")
        object.__setattr__(self, "means", _freeze(means))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.n**3 * self.channels

    def latent_shape(self) -> tuple[int, int, int, int]:
        return (self.n, self.n, self.n, self.channels)

    def mean_latent(self, k: int) -> LatentGrid:
        return LatentGrid(self.means[k].reshape(self.latent_shape()))

    @classmethod
    def from_latents(cls, latents, weights, sigma, component_ids=()) -> "MixtureFlowModel":
        if not latents:
            raise ValueError("mixture needs at least one component")
        n = latents[0].n
        c = latents[0].channels
        means = np.stack([lat.data.reshape(-1) for lat in latents])
        return cls(
            n=n,
            channels=c,
            means=means,
            weights=np.asarray(weights, dtype=np.float64),
            sigma=float(sigma),
            component_ids=tuple(component_ids),
        )

    def describe(self) -> dict:
        return {
            "n": self.n,
            "channels": self.channels,
            "components": list(self.component_ids),
            "weights": self.weights.tolist(),
            "sigma": self.sigma,
        }


@dataclass(frozen=True)
class VisibilityCondition:
    """Observed occupancy on a visible sub-volume, with likelihood sharpness gamma.

    Volumetric analog of conditioning generation on a partially occluded view:
    the mask marks where the object is observed, its complement is hidden.
    """

    mask: BinaryGrid
    observation: OccupancyGrid
    gamma: float

    def __post_init__(self):
        if self.mask.is_empty() or bool(self.mask.data.all()):
            raise ValueError("visibility mask must be non-empty and not cover the full volume")
        if self.mask.resolution != self.observation.resolution:
            raise ValueError("mask and observation resolutions differ")
        if self.gamma < 0.0:
            raise ValueError("sharpness gamma must be non-negative")


def _check_time(t: float):
    if not 0.0 < t <= 1.0:
        raise ValueError(f"time must lie in (0, 1], got {t}")


def _path_coeffs(model: MixtureFlowModel, t: float):
    s2 = (1.0 - t) ** 2 * model.sigma**2 + t**2
    c1 = (t - (1.0 - t) * model.sigma**2) / s2
    c2 = t / s2
    return s2, c1, c2


def _log_responsibilities(model: MixtureFlowModel, x_flat: np.ndarray, t: float) -> np.ndarray:
    """Log posterior over components given batched states x_flat of shape (B, dim)."""
    s2, _, _ = _path_coeffs(model, t)
    m = (1.0 - t) * model.means
    # states far outside the support may overflow the quadratic; the resulting
    # all-underflow is reported below instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (
            np.sum(x_flat**2, axis=1)[:, None]
            - 2.0 * x_flat @ m.T
            + np.sum(m**2, axis=1)[None, :]
        )
        logits = np.log(model.weights)[None, :] - quad / (2.0 * s2)
    norm = logsumexp(logits, axis=1, keepdims=True)
    if not np.all(np.isfinite(norm)):
        raise FloatingPointError("all mixture components underflowed in responsibility computation")
    return logits - norm


def responsibilities(model: MixtureFlowModel, x_t: LatentGrid, t: float) -> np.ndarray:
    """Posterior probability of each component given the intermediate state."""
    _check_time(t)
    logr = _log_responsibilities(model, x_t.data.reshape(1, -1), t)
    return np.exp(logr[0])


def _velocity_batch(model: MixtureFlowModel, x_flat: np.ndarray, t: float):
    """Velocities of batched states (B, dim) and the responsibilities (B, K) they mix."""
    _, c1, c2 = _path_coeffs(model, t)
    r = np.exp(_log_responsibilities(model, x_flat, t))
    mubar = r @ model.means
    return c1 * x_flat - c2 * mubar, r


def velocity(model: MixtureFlowModel, x_t: LatentGrid, t: float) -> LatentGrid:
    """Exact marginal velocity field of the mixture flow at (x_t, t)."""
    _check_time(t)
    v, _ = _velocity_batch(model, x_t.data.reshape(1, -1), t)
    return LatentGrid(v.reshape(model.latent_shape()))


def predict_x0(model: MixtureFlowModel, x_t: LatentGrid, t: float) -> LatentGrid:
    """One-step prediction x_t - t*v_t(x_t); equals the posterior mean E[x0 | x_t]."""
    _check_time(t)
    v, _ = _velocity_batch(model, x_t.data.reshape(1, -1), t)
    x0 = x_t.data.reshape(1, -1) - t * v
    return LatentGrid(x0.reshape(model.latent_shape()))


def _velocity_vjp(model: MixtureFlowModel, r: np.ndarray, t: float, cot: np.ndarray) -> np.ndarray:
    """Transpose-Jacobian product of the velocity at a state with responsibilities r (K,);
    flat cotangent in, flat gradient out."""
    s2, c1, c2 = _path_coeffs(model, t)
    mubar = r @ model.means
    mu_dot_u = model.means @ cot
    cov_u = r @ (model.means * mu_dot_u[:, None]) - mubar * (mubar @ cot)
    return c1 * cot - c2 * (1.0 - t) / s2 * cov_u


def velocity_vjp(model: MixtureFlowModel, x_t: LatentGrid, t: float, cotangent: np.ndarray) -> np.ndarray:
    """Exact transpose-Jacobian product of `velocity` at (x_t, t).

    J_v = c1 I - (c2 (1-t) / s_t^2) Cov_r(mu); the covariance term carries the
    responsibility (softmax) gradients.  Returns latent-shaped gradient.
    """
    _check_time(t)
    cot = np.asarray(cotangent, dtype=np.float64).reshape(-1)
    if cot.shape[0] != model.dim:
        raise ValueError("cotangent shape does not match the latent dimension")
    r = np.exp(_log_responsibilities(model, x_t.data.reshape(1, -1), t))[0]
    return _velocity_vjp(model, r, t, cot).reshape(model.latent_shape())


def sample_base(model: MixtureFlowModel, seed: int) -> LatentGrid:
    """Standard-normal latent draw, deterministic per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return LatentGrid(rng.standard_normal(model.latent_shape()))


def condition(
    model: MixtureFlowModel, cond: VisibilityCondition, params: DecoderParams
) -> MixtureFlowModel:
    """Reweight components by how well their decoded shape matches the observation.

    w_k' propto w_k * exp(-gamma * sum_visible (decode(mu_k) - o)^2), computed
    with log-sum-exp stabilization.
    """
    if cond.mask.resolution != 4 * model.n:
        raise ValueError("condition resolution does not match the model's paired grid")
    v = cond.mask.data
    obs = cond.observation.data
    energies = np.empty(model.k)
    for k in range(model.k):
        s_k = decode(model.mean_latent(k), params).data
        energies[k] = np.sum((s_k[v] - obs[v]) ** 2)
    logits = np.log(model.weights) - cond.gamma * energies
    if np.all(np.isneginf(logits)):
        raise ValueError("condition inconsistent with library: all component masses underflow")
    logw = logits - logsumexp(logits)
    return replace(model, weights=np.exp(logw))


def integrate_flow_batch(
    model: MixtureFlowModel,
    count: int,
    steps: int,
    seed: int,
    t_min: float = T_MIN_DEFAULT,
) -> np.ndarray:
    """Integrate `count` independent unguided trajectories at once; returns (count, dim)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((count, model.dim))
    for t, t_next in zip(*time_grid(steps, t_min)):
        v, _ = _velocity_batch(model, x, t)
        x = x + v * (t_next - t)
    return x


def time_grid(steps: int, t_min: float = T_MIN_DEFAULT):
    """Uniform knots 1 = t_0 > ... > t_T = t_min; returns (t, t_next) arrays of length T."""
    if steps < 1:
        raise ValueError("need at least one step")
    if not 0.0 < t_min < 1.0:
        raise ValueError("t_min must lie in (0, 1)")
    knots = 1.0 - np.arange(steps + 1) * (1.0 - t_min) / steps
    knots[-1] = t_min
    return knots[:-1], knots[1:]
