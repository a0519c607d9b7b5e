"""Differentiable latent -> occupancy decoder and its matching encoder.

The decoder is an analytic stand-in for a learned upsampling network: the
latent channels are contracted against a unit-norm mixing vector ``w`` to a
scalar logit grid (n^3), trilinearly upsampled to the fine grid (N = 4n) at
voxel-center-aligned sample points, and squashed with a logistic of gain
``beta``.  Being linear-then-sigmoid it admits exact transpose-Jacobian
products, which the guidance stack relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .voxelcore import BinaryGrid, LatentGrid, OccupancyGrid, _freeze

UPSAMPLE_FACTOR = 4
ENCODE_CLAMP = 1e-3


@dataclass(frozen=True)
class DecoderParams:
    """Channel-mixing vector (unit norm) and logistic gain of the decoder."""

    w: np.ndarray
    beta: float = 4.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("channel mixing vector must be 1-D")
        norm = float(np.linalg.norm(w))
        if not np.isclose(norm, 1.0, rtol=0, atol=1e-9):
            raise ValueError(f"channel mixing vector must have unit norm, got {norm}")
        if not 0.0 < self.beta < np.inf:
            raise ValueError("logistic gain beta must be positive and finite")
        object.__setattr__(self, "w", _freeze(w))

    @property
    def channels(self) -> int:
        return self.w.shape[0]

    @classmethod
    def default(cls, channels: int, beta: float = 4.0) -> "DecoderParams":
        w = np.full(channels, 1.0 / np.sqrt(channels))
        return cls(w=w, beta=beta)

    def to_dict(self) -> dict:
        return {"w": self.w.tolist(), "beta": self.beta}


@lru_cache(maxsize=32)
def _interp_matrix(n: int, N: int) -> np.ndarray:
    """Read-only (N, n) matrix of per-axis trilinear weights for upsampling n -> N.

    Fine voxel a has center (a+0.5)/N; in coarse cell-index space that is
    u = (a+0.5)*n/N - 0.5.  Samples are clamped to the hull of the coarse
    cell centers (edge extension in the half-cell margin), so row a weights
    the two coarse cells around u, or the single cell when n == 1.
    """
    a = np.arange(N)
    u = np.clip((a + 0.5) * n / N - 0.5, 0.0, n - 1.0)
    i0 = np.minimum(np.floor(u).astype(np.int64), max(n - 2, 0))
    w1 = u - i0
    A = np.zeros((N, n))
    A[a, i0] = 1.0 - w1
    A[a, np.minimum(i0 + 1, n - 1)] += w1
    return _freeze(A)


@lru_cache(maxsize=32)
def _upsample_operands(n: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_interp`'s matrices for upsampling n -> N: A, A and a read-only contiguous A.T."""
    A = _interp_matrix(n, N)
    return A, A, _freeze(np.ascontiguousarray(A.T))


def _interp(grid: np.ndarray, ax: np.ndarray, ay: np.ndarray, az_t: np.ndarray) -> np.ndarray:
    """out[a,b,c] = sum_ijk ax[a,i] ay[b,j] az[c,k] grid[i,j,k], one BLAS matmul per axis.

    The decoder's only upsampling kernel, for the full grid (A on every axis), a
    drag window (its blocks of A) and their adjoints (the same transposed).  The
    last matrix comes as az_t = az.T: a contiguous copy in the forward passes (which
    BLAS multiplies faster), a view in the adjoints (a copy moves their last bit).
    A contiguous `grid` is read in place; each matmul makes a fresh array."""
    i, j, k = grid.shape
    first = np.matmul(ax, grid.reshape(i, j * k)).reshape(ax.shape[0], j, k)
    return np.matmul(np.matmul(ay, first), az_t)


def _logits(x: np.ndarray, params: DecoderParams) -> np.ndarray:
    """Coarse logit grid <x, w>_channels of a latent array (n, n, n, C)."""
    return np.tensordot(x, params.w, axes=([3], [0]))


def _logistic(u: np.ndarray, beta: float) -> np.ndarray:
    """Unclipped decoder output sigma(beta * u) of upsampled logits u, written over u.

    Finished in place: the same IEEE operations as 1 / (1 + exp(-(beta * u))),
    without four full-size temporaries.  exp overflows (to an output of
    exactly 0) for beta * u < -709.78; callers enter
    np.errstate(over="ignore") once around their decoder passes.
    """
    np.multiply(u, -beta, out=u)
    np.exp(u, out=u)
    u += 1.0
    return np.divide(1.0, u, out=u)


def _logistic_vjp(s: np.ndarray, cotangent: np.ndarray, beta: float) -> np.ndarray:
    """Cotangent of the upsampled logits, cotangent * s * (1 - s) * beta, given the
    output s = _logistic(u, beta), written over cotangent.  Overwrites s with 1 - s."""
    cotangent *= s
    cotangent *= np.subtract(1.0, s, out=s)
    cotangent *= beta
    return cotangent


# the logistic saturates to exactly 0/1 in float64 for |logit| > ~37
_OCCUPANCY_BOUNDS = (np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))
_clip = np._core.umath.clip  # np.clip's ufunc, without np.clip's Python dispatch


def _clip_occupancy(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return _clip(s, *_OCCUPANCY_BOUNDS, out=out)


def _spread_channels(coarse: np.ndarray, params: DecoderParams) -> np.ndarray:
    """Latent array coarse[..., None] * w: each entry one product, as the broadcast gives it."""
    return np.einsum("ijk,c->ijkc", coarse, params.w)


def _decode_array(x: np.ndarray, params: DecoderParams) -> np.ndarray:
    """decode's occupancy array of a latent array (n, n, n, C) with params' channels,
    a fresh (N, N, N) array of values strictly inside (0, 1), by their clip."""
    n = x.shape[0]
    with np.errstate(over="ignore"):
        # trilinear upsampling n -> N = 4n: A applied along each axis
        u = _interp(_logits(x, params), *_upsample_operands(n, UPSAMPLE_FACTOR * n))
        s = _logistic(u, params.beta)
    return _clip_occupancy(s, out=s)


def decode(x: LatentGrid, params: DecoderParams) -> OccupancyGrid:
    """sigma(beta * upsample(<x, w>_channels)); values strictly inside (0, 1)."""
    if x.channels != params.channels:
        raise ValueError(f"latent has {x.channels} channels, decoder expects {params.channels}")
    return OccupancyGrid(_decode_array(x.data, params))


def encode(s: BinaryGrid, params: DecoderParams) -> LatentGrid:
    """Latent whose decode approximates `s`: block-average, logit, spread over channels.

    Pool occupancy over 4^3 blocks, clamp to [eps, 1-eps] so logits stay
    finite, divide by beta, and place the scalar grid along `w`.
    """
    if s.is_empty():
        raise ValueError("cannot encode an empty grid")
    N = s.resolution
    if N % UPSAMPLE_FACTOR != 0:
        raise ValueError(f"grid resolution {N} is not a multiple of {UPSAMPLE_FACTOR}")
    n = N // UPSAMPLE_FACTOR
    # occupied voxels per block, summed one block axis at a time over contiguous
    # slices; a count of at most 64 fits uint8, and count / 64 is the block mean
    c = s.data.view(np.uint8).reshape(n, 4, n, 4, n, 4)
    c = c[..., 0] + c[..., 1] + c[..., 2] + c[..., 3]
    c = c[:, :, :, 0] + c[:, :, :, 1] + c[:, :, :, 2] + c[:, :, :, 3]
    p = (c[:, 0] + c[:, 1] + c[:, 2] + c[:, 3]) / 64
    p = np.clip(p, ENCODE_CLAMP, 1.0 - ENCODE_CLAMP)
    L = np.log(p / (1.0 - p)) / params.beta
    return LatentGrid(_spread_channels(L, params))
