"""Reference implementations of the package's kernels, written from the equations.

Each reference restates a quantity from its definition: the decoder from the
README (channel contraction, trilinear upsampling at voxel centers, logistic),
the flow from the formulas in `toyflow`'s module docstring, the metrics from
`evaluation`'s.  None calls a kernel of the package: the decoder adjoint is a
trilinear einsum, the velocity Jacobian a dense matrix, and nearest neighbours
a full scan.  Each reference has a finite-difference or hand-computed test of
its own next to the tests of the kernel it checks.
"""

import dataclasses

import numpy as np
from scipy.special import logsumexp


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


def trilinear_weights(n: int, N: int) -> np.ndarray:
    """(N, n) weight of coarse cell i at fine voxel a along one axis.

    Fine voxel a has center (a + 0.5) / N, at u = (a + 0.5) n / N - 0.5 in
    coarse cell-index space, clamped to [0, n - 1], the hull of the coarse
    cell centers.  Linear interpolation gives cell i the hat function
    max(0, 1 - |u - i|).
    """
    u = np.clip((np.arange(N) + 0.5) * n / N - 0.5, 0.0, n - 1.0)
    return np.maximum(0.0, 1.0 - np.abs(u[:, None] - np.arange(n)[None, :]))


def upsample(coarse: np.ndarray, N: int) -> np.ndarray:
    """out[a, b, c] = sum_ijk W[a, i] W[b, j] W[c, k] coarse[i, j, k]."""
    W = trilinear_weights(coarse.shape[0], N)
    return np.einsum("ai,bj,ck,ijk->abc", W, W, W, coarse, optimize=True)


def decode(x: np.ndarray, params) -> np.ndarray:
    """Unclipped occupancy sigma(beta * upsample(<x, w>_channels)) of a latent array (n, n, n, C)."""
    logits = np.einsum("ijkc,c->ijk", x, params.w)
    return sigmoid(params.beta * upsample(logits, 4 * x.shape[0]))


def decode_vjp(x: np.ndarray, cotangent: np.ndarray, params) -> np.ndarray:
    """Transpose-Jacobian product of `decode` at x: the cotangent times the
    logistic's derivative beta s (1 - s), contracted back through the
    trilinear weights, and spread along w."""
    n = x.shape[0]
    W = trilinear_weights(n, 4 * n)
    s = decode(x, params)
    d_fine = cotangent * params.beta * s * (1.0 - s)
    d_coarse = np.einsum("ai,bj,ck,abc->ijk", W, W, W, d_fine, optimize=True)
    return d_coarse[..., None] * params.w


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def marginal_variance(model, t: float) -> float:
    """s_t^2 = (1-t)^2 sigma^2 + t^2."""
    return (1.0 - t) ** 2 * model.sigma**2 + t**2


def responsibilities(model, x: np.ndarray, t: float) -> np.ndarray:
    """r_k(x, t) of one flat state: the posterior over components under the
    marginal sum_k w_k N((1-t) mu_k, s_t^2 I)."""
    log_p = np.log(model.weights) - np.sum((x - (1.0 - t) * model.means) ** 2, axis=1) / (
        2.0 * marginal_variance(model, t)
    )
    p = np.exp(log_p - log_p.max())
    return p / p.sum()


def velocity(model, x: np.ndarray, t: float) -> np.ndarray:
    """v_t(x) = sum_k r_k v_t^(k)(x), with v_t^(k)(x) = ((t - (1-t) sigma^2) x - t mu_k) / s_t^2."""
    per_component = ((t - (1.0 - t) * model.sigma**2) * x[None, :] - t * model.means) / marginal_variance(
        model, t
    )
    return responsibilities(model, x, t) @ per_component


def velocity_jacobian(model, x: np.ndarray, t: float) -> np.ndarray:
    """Dense J_v = c1 I - c2 (1-t) / s_t^2 Cov_r(mu), with
    Cov_r(mu) = sum_k r_k mu_k mu_k^T - mubar mubar^T and mubar = sum_k r_k mu_k."""
    s2 = marginal_variance(model, t)
    c1 = (t - (1.0 - t) * model.sigma**2) / s2
    c2 = t / s2
    r = responsibilities(model, x, t)
    mubar = r @ model.means
    cov = model.means.T @ (r[:, None] * model.means) - np.outer(mubar, mubar)
    return c1 * np.eye(model.means.shape[1]) - c2 * (1.0 - t) / s2 * cov


def predict_x0_vjp(model, x: np.ndarray, t: float, u: np.ndarray) -> np.ndarray:
    """(I - t J_v)^T u: the transpose-Jacobian product of the one-step prediction x - t v_t(x)."""
    return u - t * (velocity_jacobian(model, x, t).T @ u)


def visibility_mask(spec, N: int) -> np.ndarray:
    """The N^3 boolean mask of the voxels a VisibilitySpec sees: those whose
    center (i + 0.5) / N along `spec.axis` lies strictly on its visible side of
    `spec.offset`."""
    coord = (np.indices((N, N, N))[spec.axis] + 0.5) / N
    return coord < spec.offset if spec.visible_side == "below" else coord > spec.offset


def condition(model, visible, observation, gamma: float, decoded):
    """The model conditioned on `observation` where the N^3 mask `visible` is
    True: w_k' propto w_k exp(-gamma sum_visible (decoded[k] - o)^2), with
    decoded[k] the OccupancyGrid of mu_k, each energy a sum over the gathered
    visible voxels, the weights normalized with scipy's logsumexp."""
    obs = observation.data[visible]
    energies = np.array([np.sum((s.data[visible] - obs) ** 2) for s in decoded])
    with np.errstate(over="ignore", divide="ignore"):  # a weight of 0 stays 0
        logits = np.log(model.weights) - gamma * energies
    return dataclasses.replace(model, weights=np.exp(logits - logsumexp(logits, keepdims=True)))


# ---------------------------------------------------------------------------
# surfaces and contacts
# ---------------------------------------------------------------------------


def surface(grid) -> np.ndarray:
    """The N^3 mask of the surface voxels of `grid`: occupied, with a face
    neighbour empty or outside the grid."""
    occ = np.pad(grid.data, 1)
    inner = occ[1:-1, 1:-1, 1:-1].copy()
    for axis in range(3):
        for shift in (1, -1):
            inner &= np.roll(occ, shift, axis=axis)[1:-1, 1:-1, 1:-1]
    return grid.data & ~inner


def surface_points(grid) -> np.ndarray:
    """(M, 3) centers (i + 0.5) / N of the surface voxels of `grid`, in argwhere's order."""
    return (np.argwhere(surface(grid)) + 0.5) / grid.resolution


def sample_contacts(gt, visible, count: int, seed: int) -> np.ndarray:
    """The (count, 3) contact points a scenario build draws: the centers
    (i + 0.5) / N of `count` surface voxels of `gt` where the N^3 mask
    `visible` is False, drawn without replacement by PCG64(seed) from their
    argwhere list."""
    idx = np.argwhere(surface(gt) & ~visible)
    rng = np.random.Generator(np.random.PCG64(seed))
    return (idx[rng.choice(len(idx), size=count, replace=False)] + 0.5) / gt.resolution


# ---------------------------------------------------------------------------
# nearest neighbours and metrics
# ---------------------------------------------------------------------------


def nearest_occupied(grid, points: np.ndarray) -> np.ndarray:
    """Per point, the index of the occupied voxel whose center (i + 0.5) / N is
    nearest, from its distance to every occupied voxel; a tie goes to the
    lexicographically lowest index (argwhere's order, argmin's first)."""
    idx = np.argwhere(grid.data)
    centers = (idx + 0.5) / grid.resolution
    return idx[[int(np.argmin(np.sum((centers - p) ** 2, axis=1))) for p in np.asarray(points)]]


def nearest_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point of `a` to its nearest point of `b`, over all
    pairs, as sqrt((dx^2 + dy^2) + dz^2); `a` is taken in blocks of rows."""

    def block(rows):
        diff = rows[:, None, :] - b[None, :, :]
        dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
        return np.sqrt((dx * dx + dy * dy) + dz * dz).min(axis=1)

    return np.concatenate([block(a[i : i + 256]) for i in range(0, len(a), 256)])


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """0.5 * (mean_a min_b |a-b| + mean_b min_a |a-b|)."""
    return 0.5 * (float(nearest_distances(a, b).mean()) + float(nearest_distances(b, a).mean()))


def f_score(pred: np.ndarray, gt: np.ndarray, tau: float) -> float:
    """Harmonic mean of the share of `pred` within tau of `gt` and the share of `gt` within tau of `pred`."""
    precision = float((nearest_distances(pred, gt) <= tau).mean())
    recall = float((nearest_distances(gt, pred) <= tau).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
