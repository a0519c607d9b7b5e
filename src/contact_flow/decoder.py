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
        if self.beta <= 0.0:
            raise ValueError("logistic gain beta must be positive")
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

    @classmethod
    def from_dict(cls, d: dict) -> "DecoderParams":
        return cls(w=np.asarray(d["w"], dtype=np.float64), beta=float(d["beta"]))


@lru_cache(maxsize=32)
def _axis_interp(n: int, N: int):
    """Per-axis trilinear corner indices and weights for upsampling n -> N.

    Fine voxel a has center (a+0.5)/N; in coarse cell-index space that is
    u = (a+0.5)*n/N - 0.5.  Samples are clamped to the hull of the coarse
    cell centers (edge extension in the half-cell margin).
    """
    a = np.arange(N, dtype=np.float64)
    u = (a + 0.5) * n / N - 0.5
    u = np.clip(u, 0.0, n - 1.0)
    if n == 1:
        i0 = np.zeros(N, dtype=np.int64)
        i1 = np.zeros(N, dtype=np.int64)
        w1 = np.zeros(N)
    else:
        i0 = np.minimum(np.floor(u).astype(np.int64), n - 2)
        i1 = i0 + 1
        w1 = u - i0
    w0 = 1.0 - w1
    return i0, i1, w0, w1


def _upsample(coarse: np.ndarray, N: int) -> np.ndarray:
    """Trilinear upsampling of an (n,n,n) grid to (N,N,N), axis by axis."""
    n = coarse.shape[0]
    i0, i1, w0, w1 = _axis_interp(n, N)
    out = coarse[i0] * w0[:, None, None] + coarse[i1] * w1[:, None, None]
    out = out[:, i0] * w0[None, :, None] + out[:, i1] * w1[None, :, None]
    out = out[:, :, i0] * w0[None, None, :] + out[:, :, i1] * w1[None, None, :]
    return out


def _upsample_transpose(fine: np.ndarray, n: int) -> np.ndarray:
    """Exact adjoint of `_upsample`: scatter-add fine values back to the coarse grid."""
    N = fine.shape[0]
    i0, i1, w0, w1 = _axis_interp(n, N)

    def adjoint_axis(arr, axis):
        moved = np.moveaxis(arr, axis, 0)
        out = np.zeros((n,) + moved.shape[1:])
        np.add.at(out, i0, moved * w0.reshape((-1,) + (1,) * (moved.ndim - 1)))
        np.add.at(out, i1, moved * w1.reshape((-1,) + (1,) * (moved.ndim - 1)))
        return np.moveaxis(out, 0, axis)

    out = adjoint_axis(fine, 2)
    out = adjoint_axis(out, 1)
    out = adjoint_axis(out, 0)
    return out


def _sigmoid(x: np.ndarray, params: DecoderParams) -> np.ndarray:
    """Unclipped decoder output sigma(beta * upsample(<x, w>)) of a latent array (n, n, n, C)."""
    coarse = np.tensordot(x, params.w, axes=([3], [0]))
    logits = params.beta * _upsample(coarse, UPSAMPLE_FACTOR * x.shape[0])
    return 1.0 / (1.0 + np.exp(-logits))


def _clip_occupancy(s: np.ndarray) -> np.ndarray:
    # the logistic saturates to exactly 0/1 in float64 for |logit| > ~37
    return np.clip(s, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))


def _sigmoid_vjp(s: np.ndarray, cotangent: np.ndarray, params: DecoderParams) -> np.ndarray:
    """Transpose-Jacobian product of the decoder, given its unclipped output `s`."""
    d_fine = cotangent * s * (1.0 - s) * params.beta
    d_coarse = _upsample_transpose(d_fine, s.shape[0] // UPSAMPLE_FACTOR)
    return d_coarse[..., None] * params.w


def _check_channels(x: LatentGrid, params: DecoderParams) -> None:
    if x.channels != params.channels:
        raise ValueError(f"latent has {x.channels} channels, decoder expects {params.channels}")


def decode(x: LatentGrid, params: DecoderParams) -> OccupancyGrid:
    """sigma(beta * upsample(<x, w>_channels)); values strictly inside (0, 1)."""
    _check_channels(x, params)
    return OccupancyGrid(_clip_occupancy(_sigmoid(x.data, params)))


def decode_vjp(x: LatentGrid, cotangent: np.ndarray, params: DecoderParams) -> np.ndarray:
    """Exact transpose-Jacobian product of `decode` at x, applied to an N^3 cotangent.

    Returns a gradient of latent shape (n, n, n, C).
    """
    cot = np.asarray(cotangent, dtype=np.float64)
    N = UPSAMPLE_FACTOR * x.n
    if cot.shape != (N, N, N):
        raise ValueError(f"cotangent must have shape {(N, N, N)}, got {cot.shape}")
    if not np.all(np.isfinite(cot)):
        raise ValueError("cotangent contains non-finite entries")
    _check_channels(x, params)
    return _sigmoid_vjp(_sigmoid(x.data, params), cot, params)


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
    blocks = s.data.astype(np.float64).reshape(n, 4, n, 4, n, 4)
    p = blocks.mean(axis=(1, 3, 5))
    p = np.clip(p, ENCODE_CLAMP, 1.0 - ENCODE_CLAMP)
    L = np.log(p / (1.0 - p)) / params.beta
    return LatentGrid(L[..., None] * params.w)
