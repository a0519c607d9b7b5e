"""Procedural experiment definitions: shape libraries, half-volume visibility,
ambiguity constructions, and ground-truth bookkeeping.

A scenario is the full recipe for one experiment: a small library of
primitive shapes (encoded as mixture components), which one is the true
shape, a half-space visibility, conditioning/noise parameters, and the
seeds for reference, guided, and contact sampling runs.  "Ambiguous"
scenarios are validated at build time: at least two decoded library shapes
must be indistinguishable on the visible region while differing substantially
in the hidden region, so contacts carry real information.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .contact import ContactSet, sample_contacts
from .decoder import UPSAMPLE_FACTOR, DecoderParams, _decode_array, encode
from .guidance import GuidanceConfig
from .toyflow import MixtureFlowModel, condition
from .voxelcore import (
    BinaryGrid,
    Box,
    Cylinder,
    OCCUPANCY_THRESHOLD,
    LBracket,
    Primitive,
    UnionOfBoxes,
    _convert,
    _expect,
    _freeze,
    _read,
    _reject_unknown,
    _require,
    _store_tuples,
    _unique_keys,
    _write,
    index_to_point,
    nonzero_indices,
    primitive_from_dict,
    primitive_to_dict,
    surface_mask,
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

    FIELDS = {"axis": int, "offset": float, "visible_side": str}

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError("visibility axis must be 0, 1 or 2")
        if not 0.0 < self.offset < 1.0:
            raise ValueError("visibility offset must lie strictly inside the cube")
        if self.visible_side not in ("below", "above"):
            raise ValueError("visible_side must be 'below' or 'above'")

    def slab(self, resolution: int) -> tuple[slice, ...]:
        """The visible voxels of an N^3 grid as the index `grid[slab]`: the whole
        planes along `axis` whose voxel centers lie strictly on `visible_side`
        of the offset.  Raises ValueError when they are none or all of the grid."""
        c = index_to_point(np.arange(resolution), resolution)
        planes = np.flatnonzero(c < self.offset if self.visible_side == "below" else c > self.offset)
        if len(planes) in (0, resolution):
            raise ValueError("visibility mask must be non-empty and not cover the full volume")
        return (slice(None),) * self.axis + (slice(int(planes[0]), int(planes[-1]) + 1),)


@dataclass(frozen=True)
class ScenarioSeeds:
    reference: int
    guided: int
    contacts: int

    FIELDS = {"reference": int, "guided": int, "contacts": int}

    def __post_init__(self):
        for name in self.FIELDS:
            seed = _convert(getattr(self, name), int, f"seeds {name}")  # a bool or 1.5 is refused
            if seed < 0:
                raise ValueError(f"seeds {name} must be >= 0, got {seed}")
            object.__setattr__(self, name, seed)


class _YamlLoader(yaml.SafeLoader):
    """yaml.SafeLoader, with a mapping that repeats a key a ValueError naming it."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep=deep)
        _unique_keys((self.construct_object(key), None) for key, _ in node.value)
        return mapping


@dataclass(frozen=True)
class Scenario:
    name: str
    n: int
    library: tuple[Primitive, ...]
    true_index: int
    seeds: ScenarioSeeds
    visibility: VisibilitySpec = VisibilitySpec()
    weights: tuple[float, ...] | None = None
    gamma: float = 1.0
    sigma: float = 0.05
    beta: float = 4.0
    contact_count: int = 10
    fps_count: int | None = None
    ambiguous: bool = False
    runs: int = SUITE_RUNS_PER_SCENARIO

    # in file order, after the name, grid and library that to_dict and
    # from_dict write and read themselves
    FIELDS = {
        "true_index": int, "visibility": VisibilitySpec, "seeds": ScenarioSeeds,
        "gamma": float, "sigma": float, "beta": float, "contact_count": int,
        "ambiguous": bool, "runs": int, "weights": tuple, "fps_count": int,
    }

    def __post_init__(self):
        _store_tuples(self, "library", "weights")  # hashable, so its geometry keys a memo
        if self.n < 1:
            raise ValueError("latent resolution n must be >= 1")
        if not self.library:
            raise ValueError("scenario library must be non-empty")
        if not 0 <= self.true_index < len(self.library):
            raise ValueError(f"true_index {self.true_index} outside the library of {len(self.library)} shapes")
        if self.weights is not None and len(self.weights) != len(self.library):
            raise ValueError("weights must match the library size")
        if self.contact_count < 1:
            raise ValueError("contact_count must be positive")
        if self.fps_count is not None and self.fps_count < 1:
            raise ValueError(f"fps_count must be >= 1, got {self.fps_count}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")

    @property
    def resolution(self) -> int:
        return UPSAMPLE_FACTOR * self.n

    def to_dict(self) -> dict:
        library = [primitive_to_dict(p) for p in self.library]
        return {"name": self.name, "grid": {"n": self.n}, "library": library, **_write(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        _expect(d, dict, "scenario")
        grid = _expect(_require(d, "grid", "scenario"), dict, "grid")
        entries = _expect(_require(d, "library", "scenario"), list, "library")
        name = _expect(_require(d, "name", "scenario"), str, "name")
        _reject_unknown(grid, ("n",), "grid")
        n = _convert(_require(grid, "n", "grid"), int, "grid n")
        library = tuple(primitive_from_dict(p, f"library {i}") for i, p in enumerate(entries))
        return _read(cls, d, "", "scenario", ("name", "grid", "library"), name=name, n=n, library=library)

    @classmethod
    def load(cls, path) -> "Scenario":
        try:
            with open(path) as f:
                return cls.from_dict(yaml.load(f, _YamlLoader))
        except yaml.YAMLError as exc:
            raise ValueError(f"{path} is not valid YAML: {exc}") from None

    def for_run(self, run_index: int) -> "Scenario":
        """This scenario for paired run `run_index`, an integer >= 0: each of its seeds shifted by the index."""
        run_index = _convert(run_index, int, "run_index")
        if run_index < 0:
            raise ValueError(f"run_index must be >= 0, got {run_index}")
        shifted = {f: getattr(self.seeds, f) + run_index for f in ScenarioSeeds.FIELDS}
        return replace(self, seeds=ScenarioSeeds(**shifted))

    def guidance_config(self, **overrides) -> GuidanceConfig:
        """Default guidance config with the drag radius scaled to this grid size."""
        overrides.setdefault("radius", scaled_radius(self.resolution))
        return GuidanceConfig(**overrides)


def scaled_radius(resolution: int) -> int:
    """Drag-neighborhood radius proportional to grid resolution (10 at 64^3)."""
    r = max(1, round(10 * resolution / 64))
    return min(r, (resolution - 1) // 2)


@dataclass(frozen=True)
class BuiltScenario:
    """A scenario resolved into grids, an encoded+conditioned model, and contacts."""

    scenario: Scenario
    decoder: DecoderParams
    library_grids: tuple[BinaryGrid, ...]
    ground_truth: BinaryGrid
    model: MixtureFlowModel
    contacts: ContactSet


def ambiguous_pairs(shapes, slab) -> tuple[tuple[int, int], ...]:
    """Pairs of binary component shapes identical on the visible voxels
    `grid[slab]` (`VisibilitySpec.slab`) that differ on >= HIDDEN_DIFF_FRACTION
    of their union, every differing voxel then lying in the hidden region."""
    pairs = []
    for (i, a), (j, b) in itertools.combinations(enumerate(s.data for s in shapes), 2):
        sym = a ^ b
        union = int((a | b).sum())
        if union and not sym[slab].any() and int(sym.sum()) >= HIDDEN_DIFF_FRACTION * union:
            pairs.append((i, j))
    return tuple(pairs)


@functools.lru_cache(maxsize=1)
def _seed_independent(name, n, library, true_index, visibility, weights, gamma, sigma, beta, ambiguous):
    """Decoder, library grids, conditioned model, the true shape's
    hidden-surface voxel indices (the contact candidates) and whether a
    demanded ambiguity is missing, from the scenario fields of the same names.
    Those fields are its memo key, so a scenario's seeds, contact count,
    fps_count and run count share one entry.  The geometry built last is kept:
    the suite fixture, run_standard_suite.py and a sweep build one scenario's
    runs back to back.  Every array is read-only, so paired runs share them."""
    n, beta = int(n), float(beta)  # an equal key of another type, such as np.int64, shares the entry
    N = UPSAMPLE_FACTOR * n
    params = DecoderParams.default(channels=8, beta=beta)
    grids = tuple(voxelize_primitive(p, N) for p in library)
    latents = [encode(g, params).data for g in grids]
    k = len(grids)
    slab = visibility.slab(N)
    # each library latent is decoded once, the true shape's first (its visible
    # slab is the observation), and reduced at once to its visible mismatch
    # energy and, for the ambiguity check alone, its binary shape.  The decodes
    # are the decoder's bare arrays: encode's clamp bounds the logits and the
    # upsampling weights are convex, so every value lies in (0, 1)
    energies, shapes, observed = np.empty(k), [None] * k, None
    for i in sorted(range(k), key=lambda i: i != true_index):
        s = _decode_array(latents[i], params)
        if observed is None:
            observed = s[slab]
        energies[i] = np.sum((s[slab] - observed) ** 2)
        if ambiguous:
            shapes[i] = BinaryGrid(s >= OCCUPANCY_THRESHOLD)
        del s  # freed before the next decode (the observation keeps the true shape's)
    model = MixtureFlowModel(
        n=n, channels=params.channels, means=np.stack([lat.reshape(-1) for lat in latents]),
        weights=condition(np.full(k, 1.0 / k) if weights is None else weights, energies, gamma),
        sigma=float(sigma), component_ids=tuple(f"{name}/shape_{i}" for i in range(k)),
    )
    surface = surface_mask(grids[true_index])
    surface[slab] = False
    hidden = _freeze(nonzero_indices(surface))  # in lexicographic order
    if hidden.shape[0] == 0:
        raise ValueError("contacts cannot complement vision: hidden surface is empty")
    unmet = ambiguous and not ambiguous_pairs(shapes, slab)
    return params, grids, model, hidden, unmet


def build_scenario(scenario: Scenario, run_index: int | None = None) -> BuiltScenario:
    """Resolve a scenario into grids, model, and contacts; each library latent is
    decoded once, for the observation, the conditioning and the ambiguity check.

    Only the contacts depend on the seeds, so the rest is kept for the geometry
    built last (the ten scenario fields `_seed_independent` takes) and shared
    by every scenario that has it.
    With `run_index`, the scenario is built for that paired run (`Scenario.for_run`).
    Raises ValueError if a primitive, the visible or the hidden half, or the true shape's hidden surface is
    empty at this resolution, the contacts outnumber that surface, or an `ambiguous` scenario is not ambiguous.
    """
    if run_index is not None:
        scenario = scenario.for_run(run_index)
    params, grids, model, hidden, unmet = _seed_independent(
        scenario.name, scenario.n, scenario.library, scenario.true_index, scenario.visibility,
        scenario.weights, scenario.gamma, scenario.sigma, scenario.beta, scenario.ambiguous,
    )
    gt = grids[scenario.true_index]
    contacts = sample_contacts(hidden, gt.resolution, scenario.contact_count, scenario.seeds.contacts)
    if unmet:
        raise ValueError(
            f"scenario {scenario.name!r} demands ambiguity but no component pair "
            "matches on the visible region while differing in the hidden region"
        )
    return BuiltScenario(scenario=scenario, decoder=params, library_grids=grids, ground_truth=gt,
                         model=model, contacts=contacts)


# ---------------------------------------------------------------------------
# the standard suite
# ---------------------------------------------------------------------------
#
# All geometry is expressed in sixteenths of the cube so shapes voxelize
# identically at every supported resolution (N a multiple of 16).  The visible
# half is x < 0.5; component differences are confined to x >= 0.75, which lies
# outside the decoder's interpolation bleed of the visible region even at n=4.

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
            seeds=_suite_seeds(0),
        ),
        Scenario(
            name="depth_boxes",
            n=n,
            library=(
                _box(0.125, 0.75),
                _box(0.125, 0.9375),
            ),
            true_index=1,
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
