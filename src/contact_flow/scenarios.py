"""Procedural experiment definitions: shape libraries, half-volume visibility,
ambiguity constructions, and ground-truth bookkeeping.

A scenario is the full recipe for one experiment: a small library of
primitive shapes (encoded as mixture components), which one is the true
shape, a half-space visibility mask, conditioning/noise parameters, and the
seeds for reference, guided, and contact sampling runs.  "Ambiguous"
scenarios are validated at build time: at least two decoded library shapes
must be indistinguishable on the visible region while differing substantially
in the hidden region, so contacts carry real information.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import yaml

from .contact import ContactSet, sample_contacts
from .decoder import DecoderParams, decode, encode
from .guidance import GuidanceConfig
from .toyflow import MixtureFlowModel, VisibilityCondition, condition
from .voxelcore import (
    BinaryGrid,
    Box,
    Cylinder,
    LBracket,
    Primitive,
    UnionOfBoxes,
    binarize,
    primitive_from_dict,
    primitive_to_dict,
    voxel_centers,
    voxelize_primitive,
)

SUITE_RUNS_PER_SCENARIO = 50
SUITE_NAMES = ("single_cylinder", "depth_boxes", "bracket_orientation", "aspect_flare")

# Fraction of the union volume by which ambiguous components must differ in
# the hidden region (the visible region must match exactly after binarization).
HIDDEN_DIFF_FRACTION = 0.1


@dataclass(frozen=True)
class VisibilitySpec:
    """Half-space visibility: the volume on `visible_side` of the plane
    coordinate[axis] = offset is observed, the rest is hidden."""

    axis: int = 0
    offset: float = 0.5
    visible_side: str = "below"

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError("visibility axis must be 0, 1 or 2")
        if not 0.0 < self.offset < 1.0:
            raise ValueError("visibility offset must lie strictly inside the cube")
        if self.visible_side not in ("below", "above"):
            raise ValueError("visible_side must be 'below' or 'above'")

    def mask(self, resolution: int) -> BinaryGrid:
        coords = voxel_centers(resolution)[:, self.axis].reshape((resolution,) * 3)
        visible = coords < self.offset if self.visible_side == "below" else coords > self.offset
        return BinaryGrid(visible)

    def to_dict(self) -> dict:
        return {"axis": self.axis, "offset": self.offset, "visible_side": self.visible_side}

    @classmethod
    def from_dict(cls, d: dict) -> "VisibilitySpec":
        return cls(
            axis=int(d.get("axis", 0)),
            offset=float(d.get("offset", 0.5)),
            visible_side=d.get("visible_side", "below"),
        )


@dataclass(frozen=True)
class ScenarioSeeds:
    reference: int
    guided: int
    contacts: int

    def to_dict(self) -> dict:
        return {"reference": self.reference, "guided": self.guided, "contacts": self.contacts}

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSeeds":
        return cls(int(d["reference"]), int(d["guided"]), int(d["contacts"]))


@dataclass(frozen=True)
class Scenario:
    name: str
    n: int
    library: tuple[Primitive, ...]
    true_index: int
    visibility: VisibilitySpec
    seeds: ScenarioSeeds
    weights: tuple[float, ...] | None = None
    gamma: float = 1.0
    sigma: float = 0.05
    beta: float = 4.0
    contact_count: int = 10
    fps_count: int | None = None
    ambiguous: bool = False
    runs: int = SUITE_RUNS_PER_SCENARIO

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("latent resolution n must be >= 1")
        if not self.library:
            raise ValueError("scenario library must be non-empty")
        if not 0 <= self.true_index < len(self.library):
            raise ValueError("true shape index outside the library")
        if self.weights is not None and len(self.weights) != len(self.library):
            raise ValueError("weights must match the library size")
        if self.contact_count < 1:
            raise ValueError("contact count must be positive")

    @property
    def resolution(self) -> int:
        return 4 * self.n

    def prior_weights(self) -> np.ndarray:
        if self.weights is None:
            k = len(self.library)
            return np.full(k, 1.0 / k)
        return np.asarray(self.weights, dtype=np.float64)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "grid": {"n": self.n},
            "library": [primitive_to_dict(p) for p in self.library],
            "true_index": self.true_index,
            "visibility": self.visibility.to_dict(),
            "seeds": self.seeds.to_dict(),
            "gamma": self.gamma,
            "sigma": self.sigma,
            "beta": self.beta,
            "contact_count": self.contact_count,
            "ambiguous": self.ambiguous,
            "runs": self.runs,
        }
        if self.weights is not None:
            d["weights"] = list(self.weights)
        if self.fps_count is not None:
            d["fps_count"] = self.fps_count
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(
            name=d["name"],
            n=int(d["grid"]["n"]),
            library=tuple(primitive_from_dict(p) for p in d["library"]),
            true_index=int(d["true_index"]),
            visibility=VisibilitySpec.from_dict(d.get("visibility", {})),
            seeds=ScenarioSeeds.from_dict(d["seeds"]),
            weights=tuple(d["weights"]) if "weights" in d else None,
            gamma=float(d.get("gamma", 1.0)),
            sigma=float(d.get("sigma", 0.05)),
            beta=float(d.get("beta", 4.0)),
            contact_count=int(d.get("contact_count", 10)),
            fps_count=int(d["fps_count"]) if "fps_count" in d else None,
            ambiguous=bool(d.get("ambiguous", False)),
            runs=int(d.get("runs", SUITE_RUNS_PER_SCENARIO)),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            yaml.safe_dump(self.to_dict(), f, sort_keys=False)

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as f:
            return cls.from_dict(yaml.safe_load(f))

    def guidance_config(self, **overrides) -> GuidanceConfig:
        """Default guidance config with the drag radius scaled to this grid size."""
        overrides.setdefault("radius", scaled_radius(self.resolution))
        return GuidanceConfig(**overrides)


def scaled_radius(resolution: int, base_radius: int = 10, base_resolution: int = 64) -> int:
    """Drag-neighborhood radius proportional to grid resolution (10 at 64^3)."""
    r = max(1, round(base_radius * resolution / base_resolution))
    return min(r, (resolution - 1) // 2)


def derive_run_seeds(scenario: Scenario, run_index: int) -> ScenarioSeeds:
    """Per-run seeds for paired comparisons; reference and guided streams stay disjoint."""
    if run_index < 0:
        raise ValueError("run index must be >= 0")
    s = scenario.seeds
    return ScenarioSeeds(
        reference=s.reference + run_index,
        guided=s.guided + run_index,
        contacts=s.contacts + run_index,
    )


@dataclass(frozen=True)
class BuiltScenario:
    """A scenario resolved into grids, an encoded+conditioned model, and contacts."""

    scenario: Scenario
    decoder: DecoderParams
    library_grids: tuple[BinaryGrid, ...]
    ground_truth: BinaryGrid
    visibility: BinaryGrid
    model: MixtureFlowModel
    contacts: ContactSet

    @property
    def ambiguous_pairs(self) -> tuple[tuple[int, int], ...]:
        return ambiguous_pairs(self)


def _decoded_binaries(model: MixtureFlowModel, params: DecoderParams, threshold: float = 0.5):
    return [binarize(decode(model.mean_latent(k), params), threshold) for k in range(model.k)]


def ambiguous_pairs(built: BuiltScenario) -> tuple[tuple[int, int], ...]:
    """Component pairs that binarize identically on the visible region while
    differing on >= HIDDEN_DIFF_FRACTION of their union in the hidden region."""
    bins = _decoded_binaries(built.model, built.decoder)
    visible = built.visibility.data
    pairs = []
    for i in range(len(bins)):
        for j in range(i + 1, len(bins)):
            a, b = bins[i].data, bins[j].data
            sym = a ^ b
            union = int((a | b).sum())
            if union == 0:
                continue
            vis_diff = int((sym & visible).sum())
            hid_diff = int((sym & ~visible).sum())
            if vis_diff < 1 and hid_diff >= HIDDEN_DIFF_FRACTION * union:
                pairs.append((i, j))
    return tuple(pairs)


def build_scenario(spec, run_index: int | None = None) -> BuiltScenario:
    """Resolve a scenario (object or YAML path) into grids, model, and contacts.

    With `run_index`, the scenario's seeds are shifted for that paired run.
    Raises if an `ambiguous` scenario fails its ambiguity validation.
    """
    scenario = spec if isinstance(spec, Scenario) else Scenario.load(spec)
    if run_index is not None:
        scenario = replace(scenario, seeds=derive_run_seeds(scenario, run_index))
    N = scenario.resolution
    params = DecoderParams.default(channels=8, beta=scenario.beta)
    grids = tuple(voxelize_primitive(p, N) for p in scenario.library)
    latents = [encode(g, params) for g in grids]
    ids = tuple(f"{scenario.name}/shape_{k}" for k in range(len(grids)))
    prior = MixtureFlowModel.from_latents(
        latents, scenario.prior_weights(), scenario.sigma, component_ids=ids
    )
    gt = grids[scenario.true_index]
    visibility = scenario.visibility.mask(N)
    observation = decode(latents[scenario.true_index], params)
    cond = VisibilityCondition(mask=visibility, observation=observation, gamma=scenario.gamma)
    model = condition(prior, cond, params)
    contacts = sample_contacts(gt, visibility, scenario.contact_count, scenario.seeds.contacts)
    built = BuiltScenario(
        scenario=scenario,
        decoder=params,
        library_grids=grids,
        ground_truth=gt,
        visibility=visibility,
        model=model,
        contacts=contacts,
    )
    if scenario.ambiguous and not ambiguous_pairs(built):
        raise ValueError(
            f"scenario {scenario.name!r} demands ambiguity but no component pair "
            "matches on the visible region while differing in the hidden region"
        )
    return built


# ---------------------------------------------------------------------------
# the standard suite
# ---------------------------------------------------------------------------
#
# All geometry is expressed in sixteenths of the cube so shapes voxelize
# identically at every supported resolution (N a multiple of 16).  The visible
# half is x < 0.5; component differences are confined to x >= 0.75, which lies
# outside the decoder's interpolation bleed of the visible region even at n=4.

_CROSS_LO = (0.3125, 0.3125)
_CROSS_HI = (0.6875, 0.6875)


def _box(x0, x1, ylo=0.3125, yhi=0.6875, zlo=0.3125, zhi=0.6875) -> Box:
    return Box(lo=(x0, ylo, zlo), hi=(x1, yhi, zhi))


def _suite_seeds(index: int) -> ScenarioSeeds:
    base = 1000 * (index + 1)
    return ScenarioSeeds(reference=500_000 + base, guided=base, contacts=900_000 + base)


def standard_suite(n: int = 16) -> list[Scenario]:
    """The versioned acceptance suite: one sanity scenario and three ambiguity
    constructions, each meant to be run with `runs` paired seeds."""
    if n % 4 != 0:
        raise ValueError("suite geometry requires n to be a multiple of 4")
    scenarios = [
        Scenario(
            name="single_cylinder",
            n=n,
            library=(
                Cylinder(axis=0, center=(0.5, 0.5), radius=0.25, lo=0.125, hi=0.875),
            ),
            true_index=0,
            visibility=VisibilitySpec(),
            seeds=_suite_seeds(0),
            ambiguous=False,
        ),
        Scenario(
            name="depth_boxes",
            n=n,
            library=(
                _box(0.125, 0.75),
                _box(0.125, 0.9375),
            ),
            true_index=1,
            visibility=VisibilitySpec(),
            seeds=_suite_seeds(1),
            ambiguous=True,
        ),
        Scenario(
            name="bracket_orientation",
            n=n,
            library=(
                LBracket(_box(0.125, 0.75), Box((0.75, 0.3125, 0.5), (0.9375, 0.6875, 0.875))),
                LBracket(_box(0.125, 0.75), Box((0.75, 0.3125, 0.125), (0.9375, 0.6875, 0.5))),
                LBracket(_box(0.125, 0.75), Box((0.75, 0.5, 0.3125), (0.9375, 0.875, 0.6875))),
            ),
            true_index=0,
            visibility=VisibilitySpec(),
            seeds=_suite_seeds(2),
            ambiguous=True,
        ),
        Scenario(
            name="aspect_flare",
            n=n,
            library=(
                _box(0.125, 0.9375),
                UnionOfBoxes(
                    boxes=(
                        _box(0.125, 0.75),
                        Box((0.75, 0.1875, 0.1875), (0.9375, 0.8125, 0.8125)),
                    )
                ),
            ),
            true_index=1,
            visibility=VisibilitySpec(),
            seeds=_suite_seeds(3),
            ambiguous=True,
        ),
    ]
    return scenarios


def suite_scenario(name: str, n: int = 16) -> Scenario:
    for sc in standard_suite(n):
        if sc.name == name:
            return sc
    raise ValueError(f"unknown suite scenario {name!r}; choose from {SUITE_NAMES}")
