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
product in O(K * dim):

    Cov_r(mu) u = (r * (mu . u)) @ mu - mubar (mubar . u),

where the posterior mean mubar comes from the velocity pass.  The responsibility
quadratic |x - (1-t) mu_k|^2 = |x|^2 - 2(1-t) x.mu_k + (1-t)^2 |mu_k|^2 uses the
squared norms |mu_k|^2 kept from construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .voxelcore import LatentGrid, _freeze

T_MIN_DEFAULT = 1e-3


def _check_simplex(weights: np.ndarray) -> None:
    """ValueError unless the float64 array `weights` is a probability simplex vector."""
    if weights.ndim != 1 or np.any(weights < 0) or not np.isclose(weights.sum(), 1.0, atol=1e-12):
        raise ValueError("weights must be a probability simplex vector")


@dataclass(frozen=True)
class MixtureFlowModel:
    """Gaussian-mixture flow target: means are flattened latents, shape (K, dim)."""

    n: int
    channels: int
    means: np.ndarray
    weights: np.ndarray
    sigma: float
    component_ids: tuple[str, ...] = ()
    # |mu_k|^2 and log w_k per component, set from the means and weights at construction
    mean_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)

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
        _check_simplex(weights)
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("component noise scale sigma must be positive and finite")
        # an overflow is rejected here, not met in the flow; a weight of 0 has log -inf
        with np.errstate(over="ignore", divide="ignore"):
            sigma_sq, mean_sq_norms = np.square(self.sigma), np.sum(means**2, axis=1)
            log_weights = np.log(weights)
        if np.isinf(sigma_sq) or np.isinf(mean_sq_norms).any():
            raise ValueError(f"sigma ({self.sigma}) and each mixture mean must have a finite square")
        if not self.component_ids:
            object.__setattr__(
                self, "component_ids", tuple(f"component_{k}" for k in range(means.shape[0]))
            )
        elif len(self.component_ids) != means.shape[0]:
            raise ValueError("component_ids must match the number of components")
        object.__setattr__(self, "means", _freeze(means))
        object.__setattr__(self, "weights", _freeze(weights))
        object.__setattr__(self, "mean_sq_norms", _freeze(mean_sq_norms))
        object.__setattr__(self, "log_weights", _freeze(log_weights))

    def latent_shape(self) -> tuple[int, int, int, int]:
        return (self.n, self.n, self.n, self.channels)

    def describe(self) -> dict:
        return {
            "n": self.n,
            "channels": self.channels,
            "components": list(self.component_ids),
            "weights": self.weights.tolist(),
            "sigma": self.sigma,
        }


def _check_time(t: float):
    if not 0.0 < t <= 1.0:
        raise ValueError(f"time must lie in (0, 1], got {t}")


def _check_finite(x: np.ndarray, reason: str) -> np.ndarray:
    """x itself; FloatingPointError(reason) when any entry is not finite."""
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(reason)
    return x


def _path_coeffs(model: MixtureFlowModel, t: float):
    s2 = (1.0 - t) ** 2 * model.sigma**2 + t**2
    c1 = (t - (1.0 - t) * model.sigma**2) / s2
    c2 = t / s2
    return s2, c1, c2


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, kept as a length-1 axis.

    The maxima are shifted out and the rest summed through log1p: the
    arithmetic of scipy.special.logsumexp, so the result matches it bit for bit.
    """
    a_max = np.max(a, axis=-1, keepdims=True)
    is_max = a == a_max
    count = np.sum(is_max, axis=-1, keepdims=True)
    rest = np.sum(np.where(is_max, 0.0, np.exp(a - a_max)), axis=-1, keepdims=True)
    return np.log1p(rest / count) + np.log(count) + a_max


def _log_responsibilities(model: MixtureFlowModel, x_flat: np.ndarray, t: float) -> np.ndarray:
    """Log posterior over components given batched states x_flat of shape (B, dim)."""
    s2, _, _ = _path_coeffs(model, t)
    a = 1.0 - t
    # states far outside the support may overflow the quadratic; the resulting
    # all-underflow is reported below instead of warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        quad = (
            np.sum(x_flat**2, axis=1)[:, None]
            - (2.0 * a) * (x_flat @ model.means.T)
            + (a * a) * model.mean_sq_norms
        )
        logits = model.log_weights[None, :] - quad / (2.0 * s2)
        norm = _logsumexp(logits)
    _check_finite(norm, "all mixture components underflowed in responsibility computation")
    return logits - norm


def _velocity_batch(model: MixtureFlowModel, x_flat: np.ndarray, t: float):
    """Velocities of batched states (B, dim), the responsibilities (B, K) they mix
    and the posterior means mubar = r @ means (B, dim)."""
    _, c1, c2 = _path_coeffs(model, t)
    r = np.exp(_log_responsibilities(model, x_flat, t))
    mubar = r @ model.means
    v = c1 * x_flat
    return np.subtract(v, c2 * mubar, out=v), r, mubar


def _predict(model: MixtureFlowModel, x_flat: np.ndarray, t: float):
    """`_velocity_batch`'s (v, r, mubar) at states x_flat (B, dim) and their one-step
    predictions x - v t; FloatingPointError when a prediction is not finite."""
    v, r, mubar = _velocity_batch(model, x_flat, t)
    x0 = v * t
    return v, r, mubar, _check_finite(np.subtract(x_flat, x0, out=x0), "one-step prediction became non-finite")


def predict_x0(model: MixtureFlowModel, x_t: LatentGrid, t: float) -> LatentGrid:
    """One-step prediction x_t - t*v_t(x_t); equals the posterior mean E[x0 | x_t]."""
    _check_time(t)
    *_, x0 = _predict(model, x_t.data.reshape(1, -1), t)
    return LatentGrid(x0.reshape(model.latent_shape()))


def _predict_x0_vjp(
    model: MixtureFlowModel, r: np.ndarray, mubar: np.ndarray, t: float, u: np.ndarray
) -> np.ndarray:
    """Transpose-Jacobian product of the one-step prediction x - t v(x) at a state
    with responsibilities r (K,) and posterior mean mubar (dim,):
    (1 - t c1) u + t c2 (1-t)/s_t^2 Cov_r(mu) u."""
    s2, c1, c2 = _path_coeffs(model, t)
    cov_u = (r * (model.means @ u)) @ model.means
    cov_u -= mubar * (mubar @ u)
    cov_u *= t * c2 * (1.0 - t) / s2
    cov_u += (1.0 - t * c1) * u
    return cov_u


def sample_base(model: MixtureFlowModel, seed: int) -> LatentGrid:
    """Standard-normal latent draw, deterministic per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return LatentGrid(rng.standard_normal(model.latent_shape()))


def condition(weights, energies: np.ndarray, gamma: float) -> np.ndarray:
    """Prior component `weights` (a probability simplex vector) reweighted by the
    components' energies, each one's mismatch with the observation:
    w_k' propto w_k * exp(-gamma * energies[k]), computed with log-sum-exp stabilization."""
    weights = np.asarray(weights, dtype=np.float64)
    _check_simplex(weights)
    if not 0.0 <= gamma < np.inf:
        raise ValueError("sharpness gamma must be non-negative and finite")
    if np.shape(energies) != weights.shape:
        raise ValueError("condition needs one energy per component")
    # a prior weight of 0 has log -inf, and gamma * energy may overflow: both a
    # mass of 0, checked below
    with np.errstate(over="ignore", divide="ignore"):
        logits = np.log(weights) - gamma * energies
    if np.all(np.isneginf(logits)):
        raise ValueError("condition inconsistent with library: all component masses underflow")
    return np.exp(logits - _logsumexp(logits))


def time_grid(steps: int):
    """Uniform knots 1 = t_0 > ... > t_T = T_MIN_DEFAULT; returns (t, t_next)
    arrays of length T."""
    if steps < 1:
        raise ValueError("need at least one step")
    knots = 1.0 - np.arange(steps + 1) * (1.0 - T_MIN_DEFAULT) / steps
    knots[-1] = T_MIN_DEFAULT
    return knots[:-1], knots[1:]
