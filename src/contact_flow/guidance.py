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
from dataclasses import dataclass, field

import numpy as np

from .contact import ContactSet, nearest_occupied
from .decoder import DecoderParams, _clip_occupancy, _sigmoid, _sigmoid_vjp, decode
from .toyflow import (
    MixtureFlowModel,
    T_MIN_DEFAULT,
    _check_time,
    _velocity_batch,
    _velocity_vjp,
    sample_base,
    time_grid,
)
from .voxelcore import BinaryGrid, LatentGrid, OccupancyGrid, binarize, point_to_index

ATTENUATION_GUARD = 1e-12

SCHEDULE_STAGED = "staged"
SCHEDULE_COVG = "covg"


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
    stage_bounds: tuple[int, int] = (4, 8)
    lambda_stage: tuple[float, float, float] = (0.2, 1.0, 0.5)
    recurrence: int = 3
    radius: int = 10
    threshold: float = 0.5
    t_min: float = T_MIN_DEFAULT
    schedule: str = SCHEDULE_STAGED

    def __post_init__(self):
        if self.timesteps < 3:
            raise ValueError("need at least 3 timesteps")
        b0, b1 = self.stage_bounds
        if not 0 <= b0 <= b1 <= self.timesteps:
            raise ValueError("stage bounds must partition [0, timesteps)")
        if len(self.lambda_stage) != 3 or any(l < 0 for l in self.lambda_stage):
            raise ValueError("lambda_stage must be three non-negative values")
        if self.recurrence < 1:
            raise ValueError("recurrence must be >= 1")
        if self.radius < 0:
            raise ValueError("neighborhood radius must be >= 0")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("binarization threshold must lie in (0, 1)")
        if not 0.0 < self.t_min < 1.0:
            raise ValueError("t_min must lie in (0, 1)")
        if self.schedule not in (SCHEDULE_STAGED, SCHEDULE_COVG):
            raise ValueError(f"unknown schedule {self.schedule!r}")

    def lambda_schedule(self, step: int, t: float) -> float:
        """Stage weight for a given step index (staged) or time (cov-G variant).

        The cov-G coefficient t/(1-t) is the complete guidance weight (no
        attenuation is composed with it) and diverges at t=1 by construction;
        the resulting non-finite state is reported as an abort, not masked.
        """
        if self.schedule == SCHEDULE_COVG:
            return math.inf if t >= 1.0 else t / (1.0 - t)
        b0, b1 = self.stage_bounds
        if step < b0:
            return self.lambda_stage[0]
        if step < b1:
            return self.lambda_stage[1]
        return self.lambda_stage[2]

    def to_dict(self) -> dict:
        return {
            "timesteps": self.timesteps,
            "stage_bounds": list(self.stage_bounds),
            "lambda_stage": list(self.lambda_stage),
            "recurrence": self.recurrence,
            "radius": self.radius,
            "threshold": self.threshold,
            "t_min": self.t_min,
            "schedule": self.schedule,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GuidanceConfig":
        # manifests written before contacts were always summed carry this key
        if d.get("aggregation", "sum") != "sum":
            raise ValueError("only sum-over-contacts aggregation is supported")
        return cls(
            timesteps=int(d["timesteps"]),
            stage_bounds=tuple(d["stage_bounds"]),
            lambda_stage=tuple(d["lambda_stage"]),
            recurrence=int(d["recurrence"]),
            radius=int(d["radius"]),
            threshold=float(d["threshold"]),
            t_min=float(d["t_min"]),
            schedule=d["schedule"],
        )


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
    x_t: np.ndarray | None = field(default=None, repr=False, compare=False)
    v_t: np.ndarray | None = field(default=None, repr=False, compare=False)
    x0_hat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "inner": self.inner,
            "t": self.t,
            "t_next": self.t_next,
            "J": self.J,
            "grad_x0_norm": self.grad_x0_norm,
            "grad_xt_norm": self.grad_xt_norm,
            "lambda_schedule": self.lam_schedule,
            "lambda_att": self.lam_att,
            "lambda": self.lam,
            "g_norm": self.g_norm,
            "suppressed": self.suppressed,
        }


@dataclass(frozen=True)
class GuidedTrajectory:
    """All inner-step records of a guided run plus the final energy value."""

    records: tuple[StepRecord, ...]
    final_J: float

    def __len__(self) -> int:
        return len(self.records)

    def dump_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for rec in self.records:
                f.write(json.dumps(rec.to_json_dict()) + "\n")
            f.write(json.dumps({"final_J": self.final_J}) + "\n")


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
    N = s0_hat.resolution
    if ref.binary.resolution != N:
        raise ValueError("reference and prediction resolutions differ")
    if 2 * cfg.radius + 1 > N:
        raise ValueError(f"neighborhood radius {cfg.radius} does not fit a grid of resolution {N}")
    return _drag_loss(s0_hat.data, contacts, ref, cfg.radius)


def _drag_loss(s: np.ndarray, contacts: ContactSet, ref: ReferenceShape, r: int):
    N = s.shape[0]
    s_ref = ref.occupancy.data
    loss = 0.0
    grad = np.zeros_like(s)
    for pc in contacts.points:
        a = point_to_index(pc, N)
        b = np.asarray(nearest_occupied(ref.binary, pc), dtype=np.int64)
        lo = np.maximum(-r, np.maximum(-a, -b))
        hi = np.minimum(r, np.minimum(N - 1 - a, N - 1 - b))
        sl_a = tuple(slice(a[i] + lo[i], a[i] + hi[i] + 1) for i in range(3))
        sl_b = tuple(slice(b[i] + lo[i], b[i] + hi[i] + 1) for i in range(3))
        diff = s[sl_a] - s_ref[sl_b]
        loss += float(np.sum(diff**2))
        grad[sl_a] += 2.0 * diff
    return loss, grad


def _check_inputs(
    model: MixtureFlowModel, dec: DecoderParams, ref: ReferenceShape, cfg: GuidanceConfig
) -> None:
    """Checks the guidance kernels rely on, made once where the inputs enter."""
    if dec.channels != model.channels:
        raise ValueError(f"latent has {model.channels} channels, decoder expects {dec.channels}")
    N = 4 * model.n
    if ref.binary.resolution != N:
        raise ValueError("reference resolution does not match the model's paired grid")
    if 2 * cfg.radius + 1 > N:
        raise ValueError(f"neighborhood radius {cfg.radius} does not fit resolution {N}")


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
    grad_xt = grad_x0 - t * velocity_vjp(x_t, t, grad_x0), the transpose of
    d x0_hat / d x_t = I - t dv/dx applied to grad_x0.
    """
    _check_time(t)
    _check_inputs(model, dec, ref, cfg)
    if x_t.data.shape != model.latent_shape():
        raise ValueError(f"latent must have shape {model.latent_shape()}, got {x_t.data.shape}")
    _, r, x0 = _predict(model, x_t.data.reshape(-1), t)
    J, g_xt, g_x0 = _energy_gradient(model, t, r, x0, contacts, ref, dec, cfg.radius)
    return J, g_xt.reshape(model.latent_shape()), g_x0.reshape(model.latent_shape())


def _energy_gradient(model, t, r, x0, contacts, ref, dec, radius):
    """Flat (J, grad wrt x_t, grad wrt x0) at one-step prediction x0 of a state
    with responsibilities r; the backward pass reuses the forward sigmoid."""
    s = _sigmoid(x0.reshape(model.latent_shape()), dec)
    J, g_s = _drag_loss(_clip_occupancy(s), contacts, ref, radius)
    g_x0 = _sigmoid_vjp(s, g_s, dec).reshape(-1)
    g_xt = g_x0 - t * _velocity_vjp(model, r, t, g_x0)
    return J, g_xt, g_x0


def attenuation(grad_x0: np.ndarray, grad_xt: np.ndarray) -> float:
    """Norm ratio ||grad_x0|| / ||grad_xt||; 0 (guidance suppressed) when the
    denominator vanishes."""
    denom = float(np.linalg.norm(grad_xt))
    if denom < ATTENUATION_GUARD:
        return 0.0
    return float(np.linalg.norm(grad_x0)) / denom


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------
#
# The samplers work on flat float64 states of length model.dim; containers are
# built only for their inputs and outputs.


def _velocity_flat(model: MixtureFlowModel, x: np.ndarray, t: float):
    # single shared entry point so guided and unguided paths are bit-identical
    v, r = _velocity_batch(model, x[None, :], t)
    return v[0], r[0]


def _predict(model: MixtureFlowModel, x: np.ndarray, t: float):
    """Velocity, responsibilities and one-step prediction x - t v at state x;
    FloatingPointError when the prediction is not finite."""
    v, r = _velocity_flat(model, x, t)
    x0 = x - v * t
    if not np.all(np.isfinite(x0)):
        raise FloatingPointError("one-step prediction became non-finite")
    return v, r, x0


def unguided_sample(
    model: MixtureFlowModel, dec: DecoderParams, cfg: GuidanceConfig, seed: int
) -> OccupancyGrid:
    """Plain Euler flow sampling; also the source of reference shapes."""
    x = sample_base(model, seed).data.reshape(-1)
    ts, t_nexts = time_grid(cfg.timesteps, cfg.t_min)
    for step, (t, t_next) in enumerate(zip(ts, t_nexts)):
        try:
            v, _ = _velocity_flat(model, x, t)
        except FloatingPointError as exc:
            raise GenerationAborted(step, 0, str(exc)) from exc
        x = x + v * (t_next - t)
        if not np.all(np.isfinite(x)):
            raise GenerationAborted(step, 0, "latent state became non-finite")
    try:
        _, _, x0 = _predict(model, x, t_nexts[-1])
    except FloatingPointError as exc:
        raise GenerationAborted(cfg.timesteps - 1, 0, str(exc)) from exc
    return decode(LatentGrid(x0.reshape(model.latent_shape())), dec)


def make_reference(
    model: MixtureFlowModel, dec: DecoderParams, cfg: GuidanceConfig, seed: int
) -> ReferenceShape:
    """Run the unguided sampler once and freeze the result as the drag reference."""
    occ = unguided_sample(model, dec, cfg, seed)
    return ReferenceShape(
        occupancy=occ,
        binary=binarize(occ, cfg.threshold),
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
    record_states: bool = False,
) -> tuple[OccupancyGrid, GuidedTrajectory]:
    """Recurrent guided sampling.

    Per timestep, `recurrence` inner iterations each recompute the velocity and
    the energy gradient at the current state and nudge x_t by
    lambda * grad_xt * (t_next - t); the timestep then advances with the last
    computed velocity.  A non-finite state aborts with the offending step and
    the trajectory recorded so far.
    """
    _check_inputs(model, dec, ref, cfg)
    shape = model.latent_shape()
    x = sample_base(model, seed).data.reshape(-1)
    ts, t_nexts = time_grid(cfg.timesteps, cfg.t_min)
    records: list[StepRecord] = []

    def abort(step, inner, reason):
        raise GenerationAborted(
            step, inner, reason, GuidedTrajectory(tuple(records), final_J=math.nan)
        )

    for step, (t, t_next) in enumerate(zip(ts, t_nexts)):
        lam_sched = cfg.lambda_schedule(step, t)
        for inner in range(cfg.recurrence):
            try:
                v, r, x0 = _predict(model, x, t)
            except FloatingPointError as exc:
                abort(step, inner, str(exc))
            J, g_xt, g_x0 = _energy_gradient(model, t, r, x0, contacts, ref, dec, cfg.radius)
            if cfg.schedule == SCHEDULE_COVG:
                # principled raw coefficient, deliberately without attenuation
                lam_att = 1.0
                suppressed = False
                lam = lam_sched
            else:
                lam_att = attenuation(g_x0, g_xt)
                suppressed = lam_att == 0.0
                lam = lam_sched * lam_att if not suppressed else 0.0
            x_t = x
            if lam != 0.0:
                # lam may be inf (cov-G at t=1); the non-finite state is caught below
                with np.errstate(invalid="ignore", over="ignore"):
                    g = lam * g_xt
                    x = x + g * (t_next - t)
                    g_norm = float(np.linalg.norm(g))
            else:
                g_norm = 0.0
            records.append(
                StepRecord(
                    step=step,
                    inner=inner,
                    t=float(t),
                    t_next=float(t_next),
                    J=J,
                    grad_x0_norm=float(np.linalg.norm(g_x0)),
                    grad_xt_norm=float(np.linalg.norm(g_xt)),
                    lam_schedule=float(lam_sched),
                    lam_att=lam_att,
                    lam=float(lam),
                    g_norm=g_norm,
                    suppressed=suppressed,
                    x_t=x_t.reshape(shape) if record_states else None,
                    v_t=v if record_states else None,
                    x0_hat=x0.reshape(shape) if record_states else None,
                )
            )
            if not np.all(np.isfinite(x)):
                abort(step, inner, "latent state became non-finite after guided update")
        x = x + v * (t_next - t)
        if not np.all(np.isfinite(x)):
            abort(step, cfg.recurrence - 1, "latent state became non-finite after Euler step")

    try:
        _, _, x0 = _predict(model, x, t_nexts[-1])
    except FloatingPointError as exc:
        abort(cfg.timesteps - 1, cfg.recurrence - 1, str(exc))
    occupancy = decode(LatentGrid(x0.reshape(shape)), dec)
    final_J, _ = drag_loss(occupancy, contacts, ref, cfg)
    return occupancy, GuidedTrajectory(tuple(records), final_J=final_J)
