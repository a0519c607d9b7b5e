"""Drag-based contact energy and the recurrent guided flow sampler.

The guidance energy J compares the decoded one-step prediction against a
reference occupancy produced by an unguided run: around each contact point the
generated occupancy is encouraged to replicate the reference's local geometry
around the nearest occupied reference voxel.  Its gradient is chained through
the decoder and the flow model's one-step-prediction Jacobian, rescaled so the
applied guidance norm matches the loss-space gradient norm (attenuation), and
applied `m` times per timestep before advancing time (recurrence).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .contact import ContactSet, _nearest_occupied
from .decoder import (
    UPSAMPLE_FACTOR,
    DecoderParams,
    _clip_occupancy,
    _interp,
    _interp_matrix,
    _logistic,
    _logistic_vjp,
    _logits,
    _spread_channels,
    decode,
)
from .toyflow import (
    MixtureFlowModel,
    _check_finite,
    _check_time,
    _predict,
    _predict_x0_vjp,
    _velocity_batch,
    sample_base,
    time_grid,
)
from .voxelcore import (
    BinaryGrid,
    LatentGrid,
    OccupancyGrid,
    _finite_or_none,
    _write,
    binarize,
    point_to_index,
)

ATTENUATION_GUARD = 1e-12


class GenerationAborted(RuntimeError):
    """Raised when the latent state becomes non-finite during sampling."""

    def __init__(self, step: int, inner: int, reason: str, trajectory: "GuidedTrajectory | None" = None):
        super().__init__(f"generation aborted at step {step} (inner {inner}): {reason}")
        self.step = step
        self.inner = inner
        self.reason = reason
        self.trajectory = trajectory


@dataclass(frozen=True)
class GuidanceConfig:
    """Schedule stages, guidance weights, recurrence, and drag-neighborhood size."""

    timesteps: int = 12
    # the steps where the middle and late stages start; when not given,
    # (timesteps // 3, 2 * timesteps // 3), so (4, 8) at the default 12
    stage_bounds: tuple[int, int] | None = None
    lambda_stage: tuple[float, float, float] = (0.2, 1.0, 0.5)
    recurrence: int = 3
    radius: int = 10

    FIELDS = {
        "timesteps": int, "stage_bounds": (int,), "lambda_stage": tuple, "recurrence": int, "radius": int,
    }
    OPTIONAL = frozenset()  # a manifest's guidance block names every field

    def __post_init__(self):
        if self.timesteps < 3:
            raise ValueError("need at least 3 timesteps")
        if self.stage_bounds is None:
            object.__setattr__(self, "stage_bounds", (self.timesteps // 3, 2 * self.timesteps // 3))
        if len(self.stage_bounds) != 2:
            raise ValueError(f"stage_bounds must be two step indices, got {self.stage_bounds}")
        b0, b1 = self.stage_bounds
        if not 0 <= b0 <= b1 <= self.timesteps:
            raise ValueError("stage_bounds must partition [0, timesteps)")
        # finite, so a suppressed step's weight lam_sched * 0.0 is 0.0
        if len(self.lambda_stage) != 3 or not all(0 <= l < math.inf for l in self.lambda_stage):
            raise ValueError("lambda_stage must be three finite non-negative values")
        if self.recurrence < 1:
            raise ValueError("recurrence must be >= 1")
        if self.radius < 0:
            raise ValueError("neighborhood radius must be >= 0")

    def lambda_schedule(self, step: int) -> float:
        """Stage weight of the step with index `step`."""
        b0, b1 = self.stage_bounds
        if step < b0:
            return self.lambda_stage[0]
        if step < b1:
            return self.lambda_stage[1]
        return self.lambda_stage[2]

    def to_dict(self) -> dict:
        return _write(self)


@dataclass(frozen=True)
class ReferenceShape:
    """Occupancy from an unguided run of the same conditioned model."""

    occupancy: OccupancyGrid
    binary: BinaryGrid
    seed: int
    timesteps: int

    def __post_init__(self):
        if self.binary.is_empty():
            raise ValueError("reference shape is empty; reference generation failed")


@dataclass(frozen=True)
class StepRecord:
    """Observability record for one inner (recurrent) guidance iteration."""

    step: int
    inner: int
    t: float
    t_next: float
    J: float
    grad_x0_norm: float
    grad_xt_norm: float
    lam_schedule: float
    lam_att: float
    lam: float
    g_norm: float
    suppressed: bool

    def to_json_dict(self) -> dict:
        """The fields in order, the weights lam* spelled lambda*, a non-finite number None."""
        return {re.sub("^lam", "lambda", f.name): _finite_or_none(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class GuidedTrajectory:
    """All inner-step records of a guided run plus the final energy value."""

    records: tuple[StepRecord, ...]
    final_J: float

    def to_jsonl(self) -> str:
        """One JSON line per record, then one holding final_J; a non-finite number is null."""
        lines = [rec.to_json_dict() for rec in self.records] + [{"final_J": _finite_or_none(self.final_J)}]
        return "".join(json.dumps(line, allow_nan=False) + "\n" for line in lines)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def drag_loss(
    s0_hat: OccupancyGrid, contacts: ContactSet, ref: ReferenceShape, cfg: GuidanceConfig
) -> tuple[float, np.ndarray]:
    """Sum over contacts of squared occupancy mismatch between the neighborhood
    of the contact point and the reference neighborhood of its nearest occupied voxel.

    Offsets whose target falls outside the grid on either side are skipped.
    Returns the loss and its exact gradient w.r.t. the occupancy values.
    """
    if ref.binary.resolution != s0_hat.resolution:
        raise ValueError("reference and prediction resolutions differ")
    loss, grad = 0.0, np.zeros_like(s0_hat.data)
    for win in _drag_windows(ref, contacts, cfg.radius):
        J, d_fine = _window_loss(s0_hat.data[win.fine].copy(), win)
        loss += J
        grad[win.fine] += d_fine
    return loss, grad


def _check_radius(radius: int, N: int) -> None:
    if 2 * radius + 1 > N:
        raise ValueError(f"neighborhood radius {radius} does not fit a grid of resolution {N}")


class _Window(NamedTuple):
    """One contact's drag window: where it sits in the decoder output, what it
    is compared with, and the part of the decoder that produces it."""

    fine: tuple[slice, slice, slice]  # the window around the contact's voxel
    target: np.ndarray  # reference values around its nearest occupied voxel
    coarse: tuple[slice, slice, slice]  # the coarse cells the window's voxels read
    # per axis, A[fine rows, coarse cells], as `_interp` takes them: the forward
    # with the last one transposed into a contiguous copy, the adjoint with the
    # first two transposed (views) and the last one as it is
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray]
    blocks_t: tuple[np.ndarray, np.ndarray, np.ndarray]


def _drag_windows(ref: ReferenceShape, contacts: ContactSet, r: int) -> list[_Window]:
    """Per contact, the window slices around its voxel, the reference values in
    the same-shaped window around its nearest occupied reference voxel, and the
    blocks of the interpolation matrix that decode the window.

    They depend only on (reference, contacts, radius), so a guided run builds
    them once.
    """
    N = ref.binary.resolution
    _check_radius(r, N)
    A = _interp_matrix(N // UPSAMPLE_FACTOR, N)
    windows = []
    for pc, b in zip(contacts.points, _nearest_occupied(ref.binary, contacts.points)):
        a = point_to_index(pc, N)
        lo = np.maximum(-r, np.maximum(-a, -b))
        hi = np.minimum(r, np.minimum(N - 1 - a, N - 1 - b))
        sl_a = tuple(slice(a[i] + lo[i], a[i] + hi[i] + 1) for i in range(3))
        sl_b = tuple(slice(b[i] + lo[i], b[i] + hi[i] + 1) for i in range(3))
        coarse, blocks = [], []
        for rows in sl_a:
            cells = np.flatnonzero(A[rows].any(axis=0))
            cols = slice(cells[0], cells[-1] + 1)
            coarse.append(cols)
            blocks.append(A[rows, cols])
        target = np.ascontiguousarray(ref.occupancy.data[sl_b])  # read every inner step
        bx, by, bz = blocks
        windows.append(
            _Window(sl_a, target, tuple(coarse), (bx, by, np.ascontiguousarray(bz.T)), (bx.T, by.T, bz))
        )
    return windows


def _window_loss(s: np.ndarray, win: _Window) -> tuple[float, np.ndarray]:
    """One window's drag loss sum (s - target)^2 and its gradient 2 (s - target)
    at the window's occupancy `s`, a fresh array the gradient overwrites."""
    s -= win.target
    J = float(np.add.reduce(s * s, axis=None))
    s *= 2.0
    return J, s


def _check_inputs(model: MixtureFlowModel, dec: DecoderParams, ref: ReferenceShape) -> None:
    """Checks the guidance kernels rely on, made once where the inputs enter;
    `_drag_windows` checks the radius."""
    if dec.channels != model.channels:
        raise ValueError(f"latent has {model.channels} channels, decoder expects {dec.channels}")
    if ref.binary.resolution != UPSAMPLE_FACTOR * model.n:
        raise ValueError("reference resolution does not match the model's paired grid")


def energy_gradient(
    model: MixtureFlowModel,
    x_t: LatentGrid,
    t: float,
    contacts: ContactSet,
    ref: ReferenceShape,
    dec: DecoderParams,
    cfg: GuidanceConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Chain the drag-loss gradient through decoder and flow.

    Returns (J, grad wrt x_t, grad wrt x0_hat), using
    grad_xt = grad_x0 - t * J_v^T grad_x0, the transpose of
    d x0_hat / d x_t = I - t dv/dx applied to grad_x0 (`_predict_x0_vjp`).
    """
    _check_time(t)
    _check_inputs(model, dec, ref)
    windows = _drag_windows(ref, contacts, cfg.radius)
    if x_t.data.shape != model.latent_shape():
        raise ValueError(f"latent must have shape {model.latent_shape()}, got {x_t.data.shape}")
    _, r, mubar, x0 = _predict(model, x_t.data.reshape(1, -1), t)
    J, g_xt, g_x0 = _energy_gradient(model, t, r, mubar, x0, windows, dec)
    return J, g_xt.reshape(model.latent_shape()), g_x0.reshape(model.latent_shape())


def _energy_gradient(model, t, r, mubar, x0, windows, dec):
    """Flat (J, grad wrt x_t, grad wrt x0) at one-step prediction x0 (1, dim) of
    a state with responsibilities r (1, K) and posterior mean mubar (1, dim).

    The drag loss is zero outside the windows, so the decoder, the loss and the
    decoder's adjoint run on each window alone; overlapping windows add up.
    """
    coarse = _logits(x0.reshape(model.latent_shape()), dec)
    d_coarse = np.zeros_like(coarse)
    J = 0.0
    # exp overflows to an occupancy of 0 (then tiny) far outside the shape
    with np.errstate(over="ignore"):
        for win in windows:
            u = _interp(np.ascontiguousarray(coarse[win.coarse]), *win.blocks)
            s = _logistic(u, dec.beta)
            J_win, d_s = _window_loss(_clip_occupancy(s), win)
            J += J_win
            d_fine = _logistic_vjp(s, d_s, dec.beta)
            d_coarse[win.coarse] += _interp(d_fine, *win.blocks_t)
    g_x0 = _spread_channels(d_coarse, dec).reshape(-1)
    return J, _predict_x0_vjp(model, r[0], mubar[0], t, g_x0), g_x0


def attenuation(grad_x0_norm: float, grad_xt_norm: float) -> float:
    """Norm ratio ||grad_x0|| / ||grad_xt|| from the two norms; 0 (guidance
    suppressed) when the denominator vanishes."""
    if grad_xt_norm < ATTENUATION_GUARD:
        return 0.0
    return grad_x0_norm / grad_xt_norm


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------
#
# The samplers work on flat float64 states of length n^3 * C, the rows of a
# (B, dim) array (one row in `guided_sample`); containers are built only for
# their inputs and outputs.  Every non-finite check raises FloatingPointError,
# which each sampler turns into one GenerationAborted at its current step.


def _integrate(model: MixtureFlowModel, x: np.ndarray, steps: int) -> np.ndarray:
    """Euler-integrate states x (B, dim) over time_grid(steps); returns their
    one-step predictions at the last knot, or aborts at the step a state turns non-finite."""
    ts, t_nexts = time_grid(steps)
    try:
        for step, (t, t_next) in enumerate(zip(ts, t_nexts)):
            v, _, _ = _velocity_batch(model, x, t)
            x = _check_finite(x + v * (t_next - t), "latent state became non-finite")
        *_, x0 = _predict(model, x, t_nexts[-1])
        return x0
    except FloatingPointError as exc:
        raise GenerationAborted(step, 0, str(exc)) from exc


def unguided_sample(
    model: MixtureFlowModel, dec: DecoderParams, cfg: GuidanceConfig, seed: int
) -> OccupancyGrid:
    """Plain Euler flow sampling; also the source of reference shapes."""
    x0 = _integrate(model, sample_base(model, seed).data.reshape(1, -1), cfg.timesteps)
    return decode(LatentGrid(x0.reshape(model.latent_shape())), dec)


def make_reference(
    model: MixtureFlowModel, dec: DecoderParams, cfg: GuidanceConfig, seed: int
) -> ReferenceShape:
    """Run the unguided sampler once and freeze the result as the drag reference."""
    occ = unguided_sample(model, dec, cfg, seed)
    return ReferenceShape(
        occupancy=occ,
        binary=binarize(occ),
        seed=seed,
        timesteps=cfg.timesteps,
    )


def guided_sample(
    model: MixtureFlowModel,
    dec: DecoderParams,
    contacts: ContactSet,
    ref: ReferenceShape,
    cfg: GuidanceConfig,
    seed: int,
) -> tuple[OccupancyGrid, GuidedTrajectory]:
    """Recurrent guided sampling.

    Per timestep, `recurrence` inner iterations each compute the velocity and
    the energy gradient at the current state and nudge x_t by
    lambda * grad_xt * (t_next - t); the timestep then advances with the last
    computed velocity.  An iteration whose lambda is 0 leaves x_t where it was,
    so the next one reuses its flow pass, gradients and weights (at t = 1,
    grad_xt is exactly 0).  A non-finite state aborts with the offending step
    and the trajectory recorded so far.
    """
    _check_inputs(model, dec, ref)
    windows = _drag_windows(ref, contacts, cfg.radius)
    x = sample_base(model, seed).data.reshape(1, -1)
    ts, t_nexts = time_grid(cfg.timesteps)
    records: list[StepRecord] = []
    try:
        for step, (t, t_next) in enumerate(zip(ts, t_nexts)):
            lam_sched = cfg.lambda_schedule(step)
            for inner in range(cfg.recurrence):
                if inner == 0 or lam != 0.0:  # else x did not move: the values below hold
                    v, r, mubar, x0 = _predict(model, x, t)
                    J, g_xt, g_x0 = _energy_gradient(model, t, r, mubar, x0, windows, dec)
                    with np.errstate(over="ignore"):  # an overflowing norm is inf, recorded as null
                        g_x0_norm, g_xt_norm = float(np.linalg.norm(g_x0)), float(np.linalg.norm(g_xt))
                    lam_att = attenuation(g_x0_norm, g_xt_norm)
                    suppressed = lam_att == 0.0
                    lam = lam_sched * lam_att
                g_norm = 0.0
                if lam != 0.0:
                    # a huge finite lam can overflow g; the non-finite checks below abort the run
                    with np.errstate(invalid="ignore", over="ignore"):
                        g = lam * g_xt
                        x = x + g * (t_next - t)
                        g_norm = float(np.linalg.norm(g))
                records.append(
                    StepRecord(
                        step=step,
                        inner=inner,
                        t=float(t),
                        t_next=float(t_next),
                        J=J,
                        grad_x0_norm=g_x0_norm,
                        grad_xt_norm=g_xt_norm,
                        lam_schedule=float(lam_sched),
                        lam_att=lam_att,
                        lam=float(lam),
                        g_norm=g_norm,
                        suppressed=suppressed,
                    )
                )
                _check_finite(x, "latent state became non-finite after guided update")
            x = x + v * (t_next - t)
            _check_finite(x, "latent state became non-finite after Euler step")
        *_, x0 = _predict(model, x, t_nexts[-1])
    except FloatingPointError as exc:
        trajectory = GuidedTrajectory(tuple(records), final_J=math.nan)
        raise GenerationAborted(step, inner, str(exc), trajectory) from exc
    occupancy = decode(LatentGrid(x0.reshape(model.latent_shape())), dec)
    final_J = sum(_window_loss(occupancy.data[win.fine].copy(), win)[0] for win in windows)
    return occupancy, GuidedTrajectory(tuple(records), final_J=final_J)
