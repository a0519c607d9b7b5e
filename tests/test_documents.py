"""The input documents (scenario, contact and guidance files, run manifests)
and their field tables: every field is read, checked and written by one
table, and a wrong value is a ValueError that names the field."""

import copy
import dataclasses
import functools
import json
import math
import warnings

import pytest

from contact_flow.contact import ContactSet
from contact_flow.guidance import GuidanceConfig
from contact_flow.harness import (
    MANIFEST_NAME,
    RunManifest,
    evaluate_run_dirs,
    generate_run,
    load_manifest,
    verify_manifest,
)
from contact_flow.scenarios import (
    SUITE_NAMES,
    Scenario,
    ScenarioSeeds,
    VisibilitySpec,
    build_scenario,
    suite_scenario,
)
from contact_flow.voxelcore import Box, Cylinder, LBracket, SphereCappedBox, UnionOfBoxes, _read

DELETE = object()  # the mutant that removes the field
MUTANTS = (None, True, "x", [], {}, 10**400, math.nan, math.inf, -1, 0, DELETE)
EXTRA = object()  # the mutant that adds the key "extra_key" to a mapping
REPEAT = object()  # the mutant that repeats a mapping's first key in the document's text

# the fields each document class reads and writes itself, beside its table
HAND_WRITTEN = {Scenario: {"name", "n", "library"}}


@pytest.mark.parametrize(
    "cls",
    [Box, Cylinder, LBracket, UnionOfBoxes, SphereCappedBox,
     VisibilitySpec, ScenarioSeeds, Scenario, GuidanceConfig, ContactSet, RunManifest],
)
def test_each_table_lists_every_field_its_class_is_built_from(cls):
    # a field missing from the table would drop out of to_dict, so out of
    # manifests and out of the scenario memo's key
    own = HAND_WRITTEN.get(cls, set())
    assert not own & set(cls.FIELDS)
    assert own | set(cls.FIELDS) == {f.name for f in dataclasses.fields(cls) if f.init}


def _paths(doc, prefix=()):
    """The path of every field of a parsed document, list entries included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    if value is EXTRA:
        _at(doc, path)["extra_key"] = 0
    elif value is DELETE:
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, path[:-1])[path[-1]] = value
    return doc


def _repeated(doc, path) -> str:
    """JSON text (which YAML reads too) of `doc` whose mapping at `path` holds
    its first key twice, the second time with the same value."""
    doc = copy.deepcopy(doc)
    mapping = _at(doc, path)
    key = next(iter(mapping))
    mapping["repeat-marker"] = mapping[key]
    return json.dumps(doc).replace('"repeat-marker"', json.dumps(key))


def _escapes(read, doc, paths, then=None, strict=True, load=None, opaque=()):
    """Each (path, mutant, error) for which `read` of the mutated document
    raises anything but a ValueError naming the field (the path's last key
    that is not a list index), or `then` of what it read raises anything but
    a ValueError.  Every mapping, the document included, also gets an extra
    key, which a `strict` reader must reject naming that key unless the
    mapping's path is `opaque` (a block read as it is), and, read from its
    text by `load`, a repeated key, which every reader must reject naming it."""
    mutants = [(path, value) for path in paths for value in MUTANTS]
    mappings = [path for path in [(), *paths] if isinstance(_at(doc, path), dict)]
    mutants += [(path, EXTRA) for path in mappings if path not in opaque]
    mutants += [(path, REPEAT) for path in mappings if load is not None and _at(doc, path)]
    found = []
    for path, value in mutants:
        if value is EXTRA:
            field = "extra_key"
        elif value is REPEAT:
            field = f"repeated key {next(iter(_at(doc, path)))!r}"
        else:
            field = next(key for key in reversed(path) if isinstance(key, str))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                if value is REPEAT:
                    read_back = load(_repeated(doc, path))
                else:
                    read_back = read(_mutated(doc, path, value))
                if value is REPEAT or (value is EXTRA and strict):
                    found.append((path, value, "read a repeated or unknown key"))
                elif then is not None:
                    try:
                        then(read_back)
                    except ValueError:
                        pass
            except ValueError as exc:
                if field not in str(exc):
                    found.append((path, value, f"ValueError not naming {field!r}: {exc}"))
            except Exception as exc:  # noqa: BLE001 - every other escape is reported
                found.append((path, value, repr(exc)))
    return found


def _file_reader(path, read):
    """A `load` for `_escapes`: `read` of `path` holding the text."""
    def load(text):
        path.write_text(text)
        return read(path)

    return load


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_mutated_scenario_field_is_read_or_named(tmp_path, name):
    doc = json.loads(json.dumps(suite_scenario(name, n=4).to_dict()))
    load = _file_reader(tmp_path / "scenario.yaml", Scenario.load)
    assert _escapes(Scenario.from_dict, doc, list(_paths(doc)), then=build_scenario, load=load) == []


def test_every_mutated_contact_and_guidance_field_is_read_or_named(tmp_path):
    contacts = build_scenario(suite_scenario("depth_boxes", n=4)).contacts.to_dict()
    guidance = suite_scenario("depth_boxes", n=4).guidance_config().to_dict()
    load = _file_reader(tmp_path / "contacts.json", ContactSet.load)
    assert _escapes(ContactSet.from_dict, contacts, list(_paths(contacts)), load=load) == []
    read_guidance = functools.partial(_read, GuidanceConfig, what="", entry="guidance")
    assert _escapes(read_guidance, guidance, list(_paths(guidance))) == []


def test_every_mutated_manifest_entry_is_listed_or_skipped(tmp_path):
    run = tmp_path / "run"
    scenario = suite_scenario("depth_boxes", n=4)
    # external contacts, so the record's contact set block is a mapping too
    contacts = build_scenario(scenario, run_index=1).contacts
    manifest = json.loads(json.dumps(generate_run(scenario, run, external_contacts=contacts)))
    # every path of every block the record reads; its other blocks are left unread
    paths = [path for path in _paths(manifest) if path[0] in RunManifest.FIELDS]
    # read as they are: the artifact entries are checked when an artifact is read
    opaque = [path for path in paths if path[0] == "artifacts" and len(path) < 3]

    def read(doc):
        # a run directory with the manifest: verify lists what it cannot vouch
        # for, and evaluate skips what it cannot read, so raises nothing
        (run / MANIFEST_NAME).write_text(json.dumps(doc))
        try:
            assert isinstance(verify_manifest(run), list)
        except ValueError:
            pass
        evaluate_run_dirs([run])
        return RunManifest.from_dict(doc)

    def load(text):
        (run / MANIFEST_NAME).write_text(text)
        reports, [(_, reason)] = evaluate_run_dirs([run])
        assert reports == [] and "repeated key" in reason
        return load_manifest(run)

    assert _escapes(read, manifest, paths, load=load, opaque=opaque) == []
