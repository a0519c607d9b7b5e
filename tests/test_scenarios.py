import dataclasses
import inspect
import json
import re

import numpy as np
import pytest
import yaml

import oracles

from contact_flow import decoder, scenarios
from contact_flow.decoder import decode
from contact_flow.scenarios import (
    HIDDEN_DIFF_FRACTION,
    Scenario,
    ScenarioSeeds,
    SUITE_NAMES,
    SUITE_RUNS_PER_SCENARIO,
    VisibilitySpec,
    ambiguous_pairs,
    build_scenario,
    scaled_radius,
    standard_suite,
    suite_scenario,
)
from contact_flow.voxelcore import Box, LatentGrid, binarize, point_to_index, surface_mask


def _decoded(built):
    model = built.model
    return tuple(
        decode(LatentGrid(mu.reshape(model.latent_shape())), built.decoder) for mu in model.means
    )


def _shapes(built):
    """The binary shape of each decoded library latent."""
    return tuple(binarize(s) for s in _decoded(built))


def _visible(built):
    """The N^3 mask of the voxels the built scenario sees, made from its VisibilitySpec."""
    return oracles.visibility_mask(built.scenario.visibility, built.scenario.resolution)


# visibilities besides the suite's x < 0.5 (None): every axis, both sides, and
# off-centre offsets; 0.53125 is a voxel center at N = 16, whose plane neither
# side sees, and 0.8125 reaches past x = 0.75, where the library shapes differ
VISIBILITIES = [
    None,
    VisibilitySpec(offset=0.8125),
    VisibilitySpec(offset=0.3, visible_side="above"),
    VisibilitySpec(axis=1, visible_side="above"),
    VisibilitySpec(axis=1, offset=0.625),
    VisibilitySpec(axis=2, offset=0.3),
    VisibilitySpec(axis=2, offset=0.53125, visible_side="above"),
]
VISIBILITY_IDS = ["suite", "x<0.8125", "x>0.3", "y>0.5", "y<0.625", "z<0.3", "z>0.53125"]


def _seen_through(sc, visibility):
    """`sc` with `visibility` (None keeps the suite's), not demanding ambiguity
    and with uneven prior weights, so the energies the visible voxels give move them."""
    if visibility is None:
        return sc
    k = len(sc.library)
    weights = tuple(np.arange(1, k + 1) / np.arange(1, k + 1).sum())
    return dataclasses.replace(sc, visibility=visibility, ambiguous=False, gamma=0.01, weights=weights)


def test_suite_is_deterministic_and_byte_identical():
    a = [yaml.safe_dump(s.to_dict(), sort_keys=True) for s in standard_suite(n=4)]
    b = [yaml.safe_dump(s.to_dict(), sort_keys=True) for s in standard_suite(n=4)]
    assert a == b


def test_suite_matches_documented_manifest():
    suite = standard_suite(n=16)
    assert tuple(s.name for s in suite) == SUITE_NAMES
    assert all(s.runs == SUITE_RUNS_PER_SCENARIO == 50 for s in suite)
    assert [len(s.library) for s in suite] == [1, 2, 3, 2]
    assert [s.ambiguous for s in suite] == [False, True, True, True]
    # seed bases are fixed and disjoint between reference and guided streams
    for i, s in enumerate(suite):
        base = 1000 * (i + 1)
        assert s.seeds == ScenarioSeeds(
            reference=500_000 + base, guided=base, contacts=900_000 + base
        )
    assert all(s.contact_count == 10 for s in suite)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_scenario_builds_and_validates(name, n):
    built = build_scenario(suite_scenario(name, n=n))
    if built.scenario.ambiguous:
        assert ambiguous_pairs(_shapes(built), built.scenario.visibility.slab(built.scenario.resolution))
    assert not built.ground_truth.is_empty()
    assert len(built.contacts) == built.scenario.contact_count


def test_build_scenario_decodes_each_library_latent_once(monkeypatch):
    # decode's channel contraction, the first step of every decode
    decoded = []
    logits = decoder._logits

    def counting(x, params):
        decoded.append(x.reshape(-1).copy())
        return logits(x, params)

    monkeypatch.setattr(decoder, "_logits", counting)
    for name, k in (("bracket_orientation", 3), ("depth_boxes", 2)):
        decoded.clear()
        # an earlier build of the same scenario would be reused without a decode
        scenarios._seed_independent.cache_clear()
        built = build_scenario(suite_scenario(name, n=4))
        # the true shape first, as the observation, then the rest in library order
        t = built.scenario.true_index
        order = [t, *(i for i in range(k) if i != t)]
        assert len(decoded) == len(built.model.weights) == k
        assert np.array_equal(np.stack(decoded), built.model.means[order])


@pytest.mark.parametrize("visibility", VISIBILITIES, ids=VISIBILITY_IDS)
@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_conditioned_weights_equal_the_mask_based_reference_bit_for_bit(name, n, visibility):
    sc = _seen_through(suite_scenario(name, n=n), visibility)
    k = len(sc.library)
    built = build_scenario(sc)
    prior = dataclasses.replace(built.model, weights=sc.weights or np.full(k, 1.0 / k))
    decoded = _decoded(built)
    want = oracles.condition(prior, _visible(built), decoded[sc.true_index], sc.gamma, decoded)
    assert want.weights.tobytes() == built.model.weights.tobytes()


@pytest.mark.parametrize("fps_count", [0, -3])
def test_scenario_rejects_fps_count_below_one(fps_count):
    sc = suite_scenario("depth_boxes", n=4)
    with pytest.raises(ValueError, match="fps_count"):
        dataclasses.replace(sc, fps_count=fps_count)
    with pytest.raises(ValueError, match="fps_count"):
        Scenario.from_dict({**sc.to_dict(), "fps_count": fps_count})


@pytest.mark.parametrize(
    "weights, message",
    [
        ((0.5, 0.6), "weights must be a probability simplex vector"),
        ((-0.5, 1.5), "weights must be a probability simplex vector"),
        # not a number, so refused when the scenario is made, as in a file
        ((0.5, float("nan")), "weights must be a list of numbers, got (0.5, nan)"),
    ],
)
def test_prior_weights_that_are_not_a_simplex_vector_are_refused_before_conditioning(weights, message):
    # conditioning normalizes, so (0.5, 0.6) would otherwise build with weights that sum to 1
    scenarios._seed_independent.cache_clear()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_scenario(dataclasses.replace(suite_scenario("depth_boxes", n=4), weights=weights))


def test_a_zero_prior_weight_conditions_to_exactly_zero():
    # log 0 = -inf is a component of no mass, not a warning
    built = build_scenario(dataclasses.replace(suite_scenario("depth_boxes", n=4), weights=(0.0, 1.0)))
    assert built.model.weights[0] == 0.0
    assert built.model.weights[1] == 1.0


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"runs": 0}, "runs must be >= 1, got 0"),
        ({"runs": -3}, "runs must be >= 1, got -3"),
        ({"contact_count": 0}, "contact_count must be positive"),
        ({"true_index": 2}, "true_index 2 outside the library of 2 shapes"),
        ({"seeds": {"reference": 1, "guided": -1, "contacts": 3}}, "seeds guided must be >= 0, got -1"),
    ],
)
def test_from_dict_names_a_field_with_an_out_of_range_value(changes, message):
    d = {**suite_scenario("depth_boxes", n=4).to_dict(), **changes}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Scenario.from_dict(d)


def _with(d, path, value):
    """Copy of the nested scenario dict d with the field at `path` set to value."""
    d = yaml.safe_load(yaml.safe_dump(d))
    inner = d
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return d


@pytest.mark.parametrize(
    "path, bad, message",
    [
        (("name",), None, "name must be a str"),
        (("ambiguous",), "false", "ambiguous must be a bool"),
        (("gamma",), None, "gamma must be a number"),
        (("sigma",), [0.1], "sigma must be a number"),
        (("contact_count",), None, "contact_count must be an integer"),
        (("runs",), {}, "runs must be an integer"),
        (("grid", "n"), None, "grid n must be an integer"),
        (("true_index",), [1], "true_index must be an integer"),
        (("seeds", "guided"), None, "seeds guided must be an integer"),
        (("visibility", "offset"), None, "visibility offset must be a number"),
        (("visibility", "axis"), float("inf"), "visibility axis must be an integer"),
        (("weights",), [None, 0.5], "weights must be a list of numbers"),
        (("library", 0, "lo"), None, "box lo must be a list of numbers"),
        (("library", 1, "hi"), [0.5, "x", 0.5], "box hi must be a list of numbers"),
        (("contact_count",), 10.5, "contact_count must be an integer"),
        (("contact_count",), "7", "contact_count must be an integer"),
        (("true_index",), True, "true_index must be an integer"),
        (("gamma",), "1e0", "gamma must be a number"),
        (("beta",), True, "beta must be a number"),
        (("weights",), [True, 0.5], "weights must be a list of numbers"),
        (("weights",), [float("nan"), 0.5], "weights must be a list of numbers"),
        (("library", 0, "hi"), [float("inf"), 0.5, 0.5], "box hi must be a list of numbers"),
        (("library", 0, "lo"), [10**400, 0.25, 0.25], "box lo must be a list of numbers"),
    ],
)
def test_from_dict_rejects_wrong_typed_fields_as_value_errors(path, bad, message):
    d = suite_scenario("depth_boxes", n=4).to_dict()
    assert d["library"][0]["kind"] == d["library"][1]["kind"] == "box"
    with pytest.raises(ValueError, match=message):
        Scenario.from_dict(_with(d, path, bad))


def test_ambiguous_components_match_exactly_on_visible_region():
    built = build_scenario(suite_scenario("depth_boxes", n=4))
    visible = _visible(built)
    bins = _shapes(built)
    for i, j in ambiguous_pairs(bins, built.scenario.visibility.slab(built.scenario.resolution)):
        sym = bins[i].data ^ bins[j].data
        assert (sym & visible).sum() == 0
        union = (bins[i].data | bins[j].data).sum()
        assert (sym & ~visible).sum() >= HIDDEN_DIFF_FRACTION * union


def test_conditioning_splits_prior_between_ambiguous_pair():
    sc = suite_scenario("depth_boxes", n=4)
    sc = dataclasses.replace(sc, weights=(0.3, 0.7))
    built = build_scenario(sc)
    ratio = built.model.weights[0] / built.model.weights[1]
    assert ratio == pytest.approx(0.3 / 0.7, rel=1e-9)


def test_three_component_suppression():
    # bracket scenario: all three brackets agree on the visible half,
    # so conditioning keeps the prior
    built = build_scenario(suite_scenario("bracket_orientation", n=4))
    np.testing.assert_allclose(built.model.weights, 1 / 3, atol=1e-9)


def test_single_component_conditioning_is_normalization_noop():
    built = build_scenario(suite_scenario("single_cylinder", n=4))
    np.testing.assert_allclose(built.model.weights, [1.0])


@pytest.mark.parametrize("visibility", VISIBILITIES, ids=VISIBILITY_IDS)
@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_contacts_equal_the_full_surface_sampler_bit_for_bit(name, n, visibility):
    sc = _seen_through(suite_scenario(name, n=n), visibility)
    for run_index in range(12):
        built = build_scenario(sc, run_index=run_index)
        seed = built.scenario.seeds.contacts
        want = oracles.sample_contacts(built.ground_truth, _visible(built), sc.contact_count, seed)
        assert built.contacts.points.tobytes() == want.tobytes(), run_index


def test_contacts_lie_on_true_hidden_surface():
    built = build_scenario(suite_scenario("aspect_flare", n=4))
    N = built.scenario.resolution
    surf = surface_mask(built.ground_truth)
    hidden = ~_visible(built)
    for p in built.contacts.points:
        idx = tuple(point_to_index(p, N))
        assert surf[idx]
        assert hidden[idx]


def test_contact_oversampling_fails_the_build():
    sc = suite_scenario("depth_boxes", n=4)
    sc = dataclasses.replace(sc, contact_count=100_000)
    with pytest.raises(ValueError):
        build_scenario(sc)


def test_demanded_ambiguity_failure_raises():
    # two boxes that differ inside the visible half cannot be ambiguous
    sc = Scenario(
        name="not_ambiguous",
        n=4,
        library=(
            Box((0.125, 0.25, 0.25), (0.5, 0.75, 0.75)),
            Box((0.125, 0.25, 0.25), (0.9375, 0.75, 0.75)),
        ),
        true_index=1,
        visibility=VisibilitySpec(),
        seeds=ScenarioSeeds(1, 2, 3),
        ambiguous=True,
    )
    with pytest.raises(ValueError, match="ambiguity"):
        build_scenario(sc)


def test_scenario_yaml_roundtrip(tmp_path):
    sc = suite_scenario("bracket_orientation", n=16)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(sc.to_dict(), sort_keys=False))
    loaded = Scenario.load(path)
    assert loaded == sc


def test_for_run_seeds_are_paired_and_disjoint():
    sc = suite_scenario("depth_boxes", n=4)
    s0 = sc.for_run(0).seeds
    s7 = sc.for_run(7).seeds
    assert s0 == sc.seeds
    assert s7.guided == s0.guided + 7
    assert s7.reference == s0.reference + 7
    assert s7.contacts == s0.contacts + 7
    assert sc.for_run(7) == dataclasses.replace(sc, seeds=s7)
    guided = {sc.for_run(i).seeds.guided for i in range(50)}
    refs = {sc.for_run(i).seeds.reference for i in range(50)}
    assert not guided & refs


def test_scaled_radius_matches_defaults():
    assert scaled_radius(64) == 10
    assert scaled_radius(16) == 2
    assert 2 * scaled_radius(8) + 1 <= 8


@pytest.mark.parametrize("value", [1.5, 2.0, True, "1", np.float64(3)])
def test_a_seed_or_run_index_that_is_not_an_integer_is_refused(value):
    sc = suite_scenario("depth_boxes", n=4)
    for field in ScenarioSeeds.FIELDS:
        message = f"seeds {field} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(sc.seeds, **{field: value})
    message = f"run_index must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sc.for_run(value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_scenario(sc, run_index=value)


def test_an_integer_seed_or_run_index_of_another_type_is_a_plain_int():
    sc = suite_scenario("depth_boxes", n=4)
    seeds = ScenarioSeeds(np.int64(1), np.uint32(2), np.int8(3))
    assert seeds == ScenarioSeeds(1, 2, 3) and {type(getattr(seeds, f)) for f in ScenarioSeeds.FIELDS} == {int}
    assert sc.for_run(np.int64(2)) == sc.for_run(2)


@pytest.mark.parametrize("run_index", [-1, -1000])
def test_a_negative_run_index_is_refused(run_index):
    # it would shift the seeds below the scenario's own base seeds
    sc = suite_scenario("depth_boxes", n=4)
    message = f"run_index must be >= 0, got {run_index}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sc.for_run(run_index)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_scenario(sc, run_index=run_index)


def test_build_scenario_with_run_index_shifts_seeds():
    sc = suite_scenario("depth_boxes", n=4)
    built = build_scenario(sc, run_index=3)
    assert built.scenario.seeds.guided == sc.seeds.guided + 3


def test_example_scenario_file_parses(tmp_path):
    from pathlib import Path

    example = Path(__file__).resolve().parent.parent / "scenarios" / "example.yaml"
    sc = Scenario.load(example)
    built = build_scenario(sc)
    assert built.scenario.name == sc.name
    # the scenario writes back the file's own mapping
    assert sc.to_dict() == yaml.safe_load(example.read_text())


@pytest.mark.parametrize("n", [4, 16])
def test_every_suite_scenario_dict_survives_from_dict_unchanged(n):
    for sc in standard_suite(n):
        d = sc.to_dict()
        again = Scenario.from_dict(d)
        assert again == sc
        assert list(again.to_dict().items()) == list(d.items())


@pytest.mark.parametrize(
    "path, message",
    [
        (("name",), "scenario is missing required field 'name'"),
        (("grid",), "scenario is missing required field 'grid'"),
        (("grid", "n"), "grid is missing required field 'n'"),
        (("library",), "scenario is missing required field 'library'"),
        (("true_index",), "scenario is missing required field 'true_index'"),
        (("seeds",), "scenario is missing required field 'seeds'"),
        (("seeds", "contacts"), "scenario seeds is missing required field 'contacts'"),
        (("library", 0, "kind"), "library 0 is missing required field 'kind'"),
        (("library", 1, "hi"), "library 1 box is missing required field 'hi'"),
    ],
)
def test_from_dict_names_a_missing_required_field_in_a_value_error(path, message):
    d = yaml.safe_load(yaml.safe_dump(suite_scenario("depth_boxes", n=4).to_dict()))
    inner = d
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    with pytest.raises(ValueError, match=f"^{message}$"):
        Scenario.from_dict(d)


# ---------------------------------------------------------------------------
# the seed-independent part is built once per process
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    """Equal values, comparing arrays inside dataclasses and tuples by content."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_a_reused_build_equals_a_fresh_one_in_every_field(name):
    sc = suite_scenario(name, n=4)
    build_scenario(sc)
    reused = [build_scenario(sc, run_index=i) for i in range(4)]
    for i, built in enumerate(reused):
        scenarios._seed_independent.cache_clear()
        fresh = build_scenario(sc, run_index=i)
        for f in dataclasses.fields(fresh):
            assert _same(getattr(built, f.name), getattr(fresh, f.name)), (i, f.name)


def test_a_second_run_index_decodes_nothing_and_shares_the_fixed_part(monkeypatch):
    sc = suite_scenario("bracket_orientation", n=4)
    scenarios._seed_independent.cache_clear()
    first = build_scenario(sc, run_index=0)
    decodes, surfaces = [], []
    monkeypatch.setattr(scenarios, "_decode_array", lambda *a: decodes.append(a))
    monkeypatch.setattr(scenarios, "surface_mask", lambda *a: surfaces.append(a))
    second = build_scenario(sc, run_index=1)
    assert decodes == [] and surfaces == []
    assert second.model is first.model
    assert second.library_grids is first.library_grids
    assert second.decoder is first.decoder
    assert second.scenario == sc.for_run(1)
    assert not np.array_equal(second.contacts.points, first.contacts.points)


@pytest.mark.parametrize("form", ["lists", "numpy scalars"])
def test_an_api_scenario_with_list_or_numpy_fields_builds_like_its_plain_twin(form):
    twin = dataclasses.replace(suite_scenario("depth_boxes", n=4), weights=(0.5, 0.5))
    if form == "lists":
        library = [Box(lo=list(b.lo), hi=np.array(b.hi)) for b in twin.library]
        api = dataclasses.replace(twin, library=library, weights=[0.5, 0.5])
    else:
        api = dataclasses.replace(twin, n=np.int64(4), contact_count=np.int64(10), beta=np.int64(4))
    assert api == twin and hash(api) == hash(twin)
    scenarios._seed_independent.cache_clear()
    expected = build_scenario(twin, run_index=2)
    scenarios._seed_independent.cache_clear()
    built = build_scenario(api, run_index=2)
    reused = build_scenario(twin, run_index=2)  # from the entry the API scenario made
    info = scenarios._seed_independent.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for b in (built, reused):
        assert _same(b.model, expected.model)
        assert _same(b.contacts, expected.contacts)
        # what a manifest records of the shared entry reads as the twin's own
        assert json.dumps([b.model.describe(), b.decoder.to_dict()]) == json.dumps(
            [expected.model.describe(), expected.decoder.to_dict()]
        )


def test_every_scenario_field_is_in_the_memo_key_or_changes_per_run():
    # a geometry field missing from the key would share another geometry's entry
    key = list(inspect.signature(scenarios._seed_independent).parameters)
    per_run = ["seeds", "contact_count", "fps_count", "runs"]
    assert sorted(key + per_run) == sorted(f.name for f in dataclasses.fields(Scenario))


def test_the_memo_keeps_only_the_geometry_built_last():
    scenarios._seed_independent.cache_clear()
    a, b = standard_suite(n=4)[:2]
    for sc in (a, a, b, a):
        build_scenario(sc)
    info = scenarios._seed_independent.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 1)


def test_fields_the_fixed_part_does_not_read_share_its_memo_entry():
    sc = suite_scenario("depth_boxes", n=4)
    scenarios._seed_independent.cache_clear()
    first = build_scenario(sc)
    for other in (
        dataclasses.replace(sc, contact_count=3),
        dataclasses.replace(sc, runs=2),
        dataclasses.replace(sc, fps_count=5),
    ):
        assert build_scenario(other).model is first.model
    assert scenarios._seed_independent.cache_info().misses == 1


NOT_AMBIGUOUS = Scenario(
    name="not_ambiguous",
    n=4,
    library=(
        Box((0.125, 0.25, 0.25), (0.5, 0.75, 0.75)),
        Box((0.125, 0.25, 0.25), (0.9375, 0.75, 0.75)),
    ),
    true_index=1,
    visibility=VisibilitySpec(),
    seeds=ScenarioSeeds(1, 2, 3),
    ambiguous=True,
)


@pytest.mark.parametrize(
    "sc, message",
    [
        (NOT_AMBIGUOUS,
         "scenario 'not_ambiguous' demands ambiguity but no component pair matches on the "
         "visible region while differing in the hidden region"),
        # an empty hidden surface fails before the contact count and the ambiguity verdict
        (dataclasses.replace(NOT_AMBIGUOUS, true_index=0),
         "contacts cannot complement vision: hidden surface is empty"),
        (dataclasses.replace(NOT_AMBIGUOUS, true_index=0, contact_count=100_000),
         "contacts cannot complement vision: hidden surface is empty"),
        # the contact count fails before the ambiguity verdict
        (dataclasses.replace(NOT_AMBIGUOUS, contact_count=100_000),
         "contacts cannot complement vision: requested 100000 contacts but the hidden "
         "surface has only 232 voxels"),
        (dataclasses.replace(suite_scenario("depth_boxes", n=4), contact_count=100_000),
         "contacts cannot complement vision: requested 100000 contacts but the hidden "
         "surface has only 156 voxels"),
    ],
)
def test_a_failed_build_raises_the_same_error_on_every_call(sc, message):
    scenarios._seed_independent.cache_clear()
    for run_index in (None, 0, 1):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_scenario(sc, run_index=run_index)
