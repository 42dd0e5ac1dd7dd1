"""The JSON documents' contract: scenarios, suite and batch configs, episode records.

Each single fault in a document gives one exact error message, a few
absent or null values read as documented defaults, and every dataclass a
document stands for survives a trip through JSON.
"""

import dataclasses
import json
import math

import pytest

from objsearch.batch import (
    EpisodeRecord,
    load_records_jsonl,
    records_to_jsonl,
    run_config_from_dict,
)
from objsearch.errors import SchemaError, ValidationError
from objsearch.suitegen import SuiteParams, generate_suite, suite_params_from_dict
from objsearch.world import (
    HyperParams,
    LandmarkSpec,
    ObjectSpec,
    PlannerParams,
    Pose,
    SensorParams,
    fields_dict,
    load_scenario,
    parse_fields,
    parse_scenario,
    scenario_to_dict,
    serialize_scenario,
)
from util import minimal_doc

LANDMARK = minimal_doc()["landmarks"][0]
OBJECT = minimal_doc()["objects"][0]
RECORD = {
    "episode": 0, "scenario": "s.json", "seed": 3, "success": True,
    "traveled": 4.5, "shortest": 4.0, "waypoints_visited": 2,
}


def without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def scenario_with(key: str, value) -> dict:
    """The minimal scenario with one top-level value, or its first landmark
    or object ("landmarks[0]", "objects[0]"), replaced."""
    doc = minimal_doc()
    if key.endswith("[0]"):
        doc[key[:-3]][0] = value
    else:
        doc[key] = value
    return doc


@pytest.mark.parametrize(
    "key, value, message",
    [
        # landmarks
        ("landmarks[0]", ["L0"], "scenario.landmarks[0]: expected an object"),
        ("landmarks[0]", {**LANDMARK, "color": "red"},
         "scenario.landmarks[0]: unknown keys ['color']"),
        ("landmarks[0]", without(LANDMARK, "id"), "scenario.landmarks[0].id required"),
        ("landmarks[0]", without(LANDMARK, "known"), "scenario.landmarks[0].known required"),
        ("landmarks[0]", {**LANDMARK, "name": 5},
         "scenario.landmarks[0].name: expected a string, got int"),
        ("landmarks[0]", {**LANDMARK, "known": 1},
         "scenario.landmarks[0].known: expected a boolean, got int"),
        ("landmarks[0]", {**LANDMARK, "footprint": [0.2, "0.7", 0.4, 0.9]},
         "scenario.landmarks[0].footprint[1]: expected a number, got str"),
        ("landmarks[0]", {**LANDMARK, "footprint": [0.2, 0.7, 0.4]},
         "scenario.landmarks[0].footprint: expected 4 numbers"),
        ("landmarks[0]", {**LANDMARK, "footprint": "0.2 0.7 0.4 0.9"},
         "scenario.landmarks[0].footprint: expected 4 numbers"),
        # objects
        ("objects[0]", "T0", "scenario.objects[0]: expected an object"),
        ("objects[0]", {**OBJECT, "mass": 1}, "scenario.objects[0]: unknown keys ['mass']"),
        ("objects[0]", without(OBJECT, "radius"), "scenario.objects[0].radius required"),
        ("objects[0]", without(OBJECT, "position"), "scenario.objects[0].position required"),
        ("objects[0]", {**OBJECT, "id": None},
         "scenario.objects[0].id: expected a string, got NoneType"),
        ("objects[0]", {**OBJECT, "radius": True},
         "scenario.objects[0].radius: expected a number, got bool"),
        ("objects[0]", {**OBJECT, "is_target": "yes"},
         "scenario.objects[0].is_target: expected a boolean, got str"),
        ("objects[0]", {**OBJECT, "position": [0.5]},
         "scenario.objects[0].position: expected 2 numbers"),
        ("objects[0]", {**OBJECT, "position": [0.5, 0.5, 0.0]},
         "scenario.objects[0].position: expected 2 numbers"),
        # config sections
        ("hyperparams", [], "scenario.hyperparams: expected an object"),
        ("sensor", "defaults", "scenario.sensor: expected an object"),
        ("planner", 0, "scenario.planner: expected an object"),
        ("planner", False, "scenario.planner: expected an object"),
        ("hyperparams", {"lambda3": 1.0}, "scenario.hyperparams: unknown keys ['lambda3']"),
        ("planner", {"bogus": 1}, "scenario.planner: unknown keys ['bogus']"),
        ("hyperparams", {"lambda1": "1"},
         "scenario.hyperparams.lambda1: expected a number, got str"),
        ("hyperparams", {"scan_headings": 12.0},
         "scenario.hyperparams.scan_headings: expected an integer, got float"),
        ("sensor", {"lidar_rays": True},
         "scenario.sensor.lidar_rays: expected an integer, got bool"),
        ("planner", {"robot_radius": None},
         "scenario.planner.robot_radius: expected a number, got NoneType"),
    ],
)
def test_scenario_fault_messages(key, value, message):
    with pytest.raises(SchemaError) as err:
        parse_scenario(scenario_with(key, value))
    assert str(err.value) == message


MAP = minimal_doc()["map"]


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "scenario: expected an object"),
        (None, "scenario: expected an object"),
        ({**minimal_doc(), "extra": 1}, "scenario: unknown keys ['extra']"),
        ({**minimal_doc(), "target_phrase": "book"}, "scenario: unknown keys ['target_phrase']"),
        (without(minimal_doc(), "map"), "scenario.map required"),
        ({**minimal_doc(), "map": [MAP]}, "scenario.map: expected an object"),
        ({**minimal_doc(), "map": {**MAP, "origin": [0, 0]}},
         "scenario.map: unknown keys ['origin']"),
        ({**minimal_doc(), "map": without(MAP, "rows")}, "scenario.map.rows required"),
        ({**minimal_doc(), "map": {**MAP, "rows": "#."}},
         "scenario.map.rows: expected a list of strings"),
        ({**minimal_doc(), "map": {**MAP, "rows": [MAP["rows"][0], 3]}},
         "scenario.map.rows[1]: expected a string, got int"),
        ({**minimal_doc(), "map": without(MAP, "resolution")},
         "scenario.map.resolution required"),
        ({**minimal_doc(), "map": {**MAP, "resolution": "0.1"}},
         "scenario.map.resolution: expected a number, got str"),
        (without(minimal_doc(), "landmarks"), "scenario.landmarks required"),
        ({**minimal_doc(), "landmarks": {}}, "scenario.landmarks: expected a list"),
        (without(minimal_doc(), "objects"), "scenario.objects required"),
        ({**minimal_doc(), "objects": None}, "scenario.objects: expected a list"),
        (without(minimal_doc(), "start"), "scenario.start required"),
        ({**minimal_doc(), "start": [0.55, 0.25]}, "scenario.start: expected 3 numbers"),
        ({**minimal_doc(), "start": "0.55 0.25 0"}, "scenario.start: expected 3 numbers"),
        ({**minimal_doc(), "start": [0.55, "0.25", 0]},
         "scenario.start[1]: expected a number, got str"),
        (without(minimal_doc(), "target"), "scenario.target required"),
        ({**minimal_doc(), "target": 5}, "scenario.target: expected a string, got int"),
        ({**minimal_doc(), "seed": 1.0}, "scenario.seed: expected an integer, got float"),
        ({**minimal_doc(), "seed": True}, "scenario.seed: expected an integer, got bool"),
        ({**minimal_doc(), "seed": None}, "scenario.seed: expected an integer, got NoneType"),
    ],
)
def test_scenario_top_level_fault_messages(doc, message):
    with pytest.raises(SchemaError) as err:
        parse_scenario(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "suite: expected an object"),
        (None, "suite: expected an object"),
        ({"bogus": 1}, "suite: unknown keys ['bogus']"),
        ({"count": 2.0}, "suite.count: expected an integer, got float"),
        ({"map_side": "12"}, "suite.map_side: expected a number, got str"),
        ({"placement": "uniform"}, "suite: unknown keys ['placement']"),
        ({"placement_power": None}, "suite.placement_power: expected a number, got NoneType"),
        ({"targets": "book"}, "suite.targets: expected a list of strings"),
        ({"targets": ["book", 3]}, "suite.targets[1]: expected a string, got int"),
        ({"placement_weights": {"desk": 1.0}}, "suite: unknown keys ['placement_weights']"),
        ({"sensor": []}, "suite.sensor: expected an object"),
        ({"planner": 1}, "suite.planner: expected an object"),
        ({"sensor": {"bogus": 1}}, "suite.sensor: unknown keys ['bogus']"),
        ({"hyperparams": {"scan_headings": 2.5}},
         "suite.hyperparams.scan_headings: expected an integer, got float"),
        ({"planner": {"robot_radius": "0.2"}},
         "suite.planner.robot_radius: expected a number, got str"),
    ],
)
def test_suite_fault_messages(doc, message):
    with pytest.raises(SchemaError) as err:
        suite_params_from_dict(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "records line 1: expected an object"),
        ("null", "records line 1: expected an object"),
        (json.dumps({**RECORD, "bogus": 1}), "records line 1: unknown keys ['bogus']"),
        (json.dumps(without(RECORD, "episode")), "records line 1.episode required"),
        (json.dumps(without(RECORD, "success")), "records line 1.success required"),
        (json.dumps(without(RECORD, "traveled")), "records line 1.traveled required"),
        (json.dumps(without(RECORD, "waypoints_visited")),
         "records line 1.waypoints_visited required"),
        (json.dumps({**RECORD, "episode": 0.0}),
         "records line 1.episode: expected an integer, got float"),
        (json.dumps({**RECORD, "scenario": 7}),
         "records line 1.scenario: expected a string, got int"),
        (json.dumps({**RECORD, "seed": 3.5}), "records line 1.seed: expected an integer, got float"),
        (json.dumps({**RECORD, "success": 1}),
         "records line 1.success: expected a boolean, got int"),
        (json.dumps({**RECORD, "traveled": "4.5"}),
         "records line 1.traveled: expected a number, got str"),
        (json.dumps({**RECORD, "shortest": "4.0"}),
         "records line 1.shortest: expected a number, got str"),
        (json.dumps({**RECORD, "shortest": [4.0]}),
         "records line 1.shortest: expected a number, got list"),
    ],
)
def test_record_fault_messages(line, message):
    with pytest.raises(SchemaError) as err:
        load_records_jsonl(line)
    assert str(err.value) == message


SUITE = {"count": 1}


@pytest.mark.parametrize(
    "doc, message",
    [
        (["not", "an", "object"], "batch: expected a JSON object"),
        (None, "batch: expected a JSON object"),
        ({"suite": SUITE, "bogus": 1}, "batch: unknown keys ['bogus']"),
        ({"suite": SUITE, "out_dir": "out"}, "batch: unknown keys ['out_dir']"),
        ({"scenario_paths": ["a.json"]}, "batch: unknown keys ['scenario_paths']"),
        ({"suite": SUITE, "episodes": 2.7}, "batch.episodes: expected an integer, got float"),
        ({"suite": SUITE, "episodes": True}, "batch.episodes: expected an integer, got bool"),
        ({"suite": SUITE, "parallelism": "2"},
         "batch.parallelism: expected an integer, got str"),
        ({"suite": SUITE, "preset": 1}, "batch.preset: expected a string, got int"),
        ({"suite": SUITE, "out": 5}, "batch.out: expected a string, got int"),
        ({"suite": SUITE, "out": None}, "batch.out: expected a string, got NoneType"),
        ({"suite": SUITE, "seed_base": 1.0}, "batch.seed_base: expected an integer, got float"),
        ({"suite": SUITE, "suite_seed": 0.5}, "batch.suite_seed: expected an integer, got float"),
        ({"suite": SUITE, "suite_seed": None},
         "batch.suite_seed: expected an integer, got NoneType"),
        ({"scenarios": "ab"}, "batch.scenarios: expected a list of strings"),
        ({"scenarios": None}, "batch.scenarios: expected a list of strings"),
        ({"scenarios": ["a.json", 3]}, "batch.scenarios[1]: expected a string, got int"),
        ({"suite": [SUITE]}, "suite: expected an object"),
        ({"suite": {"count": "2"}}, "suite.count: expected an integer, got str"),
        ({"suite": {**SUITE, "seed": 0.5}}, "suite.seed: expected an integer, got float"),
        ({"suite": {**SUITE, "seed": None}}, "suite.seed: expected an integer, got NoneType"),
        ({"suite": {**SUITE, "seed": 4}, "suite_seed": 4},
         "batch: suite.seed and suite_seed both given; set one"),
    ],
)
def test_batch_fault_messages(doc, message):
    with pytest.raises(SchemaError) as err:
        run_config_from_dict(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: suite_params_from_dict({"sensor": {"lidar_rays": 0}}),
         "sensor.lidar_rays: must be >= 1"),
        (lambda: suite_params_from_dict({"hyperparams": {"t_u": math.nan}}),
         "hyperparams.t_u: must be finite"),
        (lambda: suite_params_from_dict({"planner": {"step_interval": 0}}),
         "planner.step_interval: must be >= 1"),
        (lambda: run_config_from_dict({"suite": {"hyperparams": {"fov": 7.0}}}),
         "hyperparams.fov: must be in (0, 2*pi]"),
        (lambda: run_config_from_dict({"suite": {"sensor": {"p_miss": 1.5}, "seed": 3}}),
         "sensor.p_miss: must be in [0, 1]"),
        (lambda: SuiteParams(planner={"robot_radius": -0.1}),
         "planner.robot_radius: must be non-negative and finite"),
        (lambda: SuiteParams(hyperparams={"cam_range": 0.0}),
         "hyperparams.cam_range: must be positive"),
        (lambda: SuiteParams(hyperparams={"bogus": 1}),
         "suite.hyperparams: unknown keys ['bogus']"),
        (lambda: SuiteParams(sensor={"lidar_rays": "5"}),
         "suite.sensor.lidar_rays: expected an integer, got str"),
        (lambda: HyperParams(t_u=math.nan), "hyperparams.t_u: must be finite"),
        (lambda: SensorParams(lidar_range=math.inf),
         "sensor.lidar_range: must be positive and finite"),
        (lambda: PlannerParams(view_directions=0), "planner.view_directions: must be >= 1"),
        (lambda: LandmarkSpec(**{**LANDMARK, "name": " "}), "landmark L0: name must be non-empty"),
        (lambda: LandmarkSpec(**{**LANDMARK, "footprint": (0.2, 0.7, 0.2, 0.9)}),
         "landmark L0: footprint must have positive area"),
        (lambda: ObjectSpec(**{**OBJECT, "radius": 0.0}), "object T0: radius must be positive"),
    ],
    ids=["suite-sensor", "suite-hyperparams", "suite-planner", "batch-hyperparams",
         "batch-seeded-sensor", "SuiteParams-planner", "SuiteParams-hyperparams",
         "SuiteParams-unknown-key", "SuiteParams-mistyped-value",
         "HyperParams", "SensorParams", "PlannerParams", "LandmarkSpec-name",
         "LandmarkSpec-footprint", "ObjectSpec"],
)
def test_out_of_range_values_fail_where_built(build, message):
    """Each part of a scenario checks its values when it is built, so a suite
    or batch config fails as it is read, not later inside ``generate_suite``;
    a section of a ``SuiteParams`` built in code is read as a document's is."""
    with pytest.raises((SchemaError, ValidationError)) as err:
        build()
    assert str(err.value) == message


def test_robot_that_cannot_fit_in_its_map_rejected(no_inflation):
    # The minimal map is 1 m square: a robot 1 m across does not fit, one a
    # hair narrower does.
    doc = minimal_doc()
    message = "planner.robot_radius: the robot must fit in the map (2 * radius < its shorter side"
    for radius in (1e6, 0.5):
        with pytest.raises(ValidationError) as err:
            parse_scenario({**doc, "planner": {"robot_radius": radius}})
        assert str(err.value).startswith(message)
    spec = parse_scenario({**doc, "planner": {"robot_radius": math.nextafter(0.5, 0.0)}})
    with pytest.raises(ValidationError, match="robot must fit"):
        dataclasses.replace(spec, planner=PlannerParams(robot_radius=0.5))


def test_suite_robot_that_cannot_fit_in_its_map_rejected(no_inflation):
    # Generation inflates the map before it builds a spec, so the suite
    # rejects the robot against map_side as it is read.
    message = "suite.planner.robot_radius: the robot must fit in the map (2 * radius < map_side)"
    for doc in ({"planner": {"robot_radius": 1e6}},
                {"map_side": 8.0, "planner": {"robot_radius": 4.0}}):
        with pytest.raises(SchemaError) as err:
            suite_params_from_dict(doc)
        assert str(err.value) == message
        with pytest.raises(SchemaError):
            run_config_from_dict({"suite": doc})
    with pytest.raises(SchemaError, match="robot must fit"):
        SuiteParams(map_side=8.0, planner={"robot_radius": 4.0})
    SuiteParams(map_side=8.0, planner={"robot_radius": math.nextafter(4.0, 0.0)})


def test_scenario_checks_its_parts_when_built():
    spec = parse_scenario(minimal_doc())
    with pytest.raises(ValidationError, match="start cell is inside an obstacle"):
        dataclasses.replace(spec, start=Pose(0.05, 0.05))
    with pytest.raises(ValidationError, match="ids must be unique"):
        dataclasses.replace(spec, objects=spec.objects * 2)


def test_negative_seed_rejected_where_built():
    """A spec built in code checks its seed as a parsed one does, so no spec
    serialises to a document that ``parse_scenario`` rejects."""
    spec = parse_scenario(minimal_doc())
    for build in (lambda: dataclasses.replace(spec, seed=-1),
                  lambda: parse_scenario({**minimal_doc(), "seed": -1})):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == "scenario.seed: must be non-negative"
    assert load_scenario(serialize_scenario(dataclasses.replace(spec, seed=5))).seed == 5


def test_record_defaults():
    """A record without shortest, scenario or seed reads them as inf, "" and 0,
    and a null shortest reads as inf."""
    bare = {k: v for k, v in RECORD.items() if k not in ("shortest", "scenario", "seed")}
    (record,) = load_records_jsonl(json.dumps(bare))
    assert (record.scenario, record.seed, record.shortest) == ("", 0, math.inf)
    (record,) = load_records_jsonl(json.dumps({**RECORD, "shortest": None}))
    assert (record.episode, record.scenario, record.seed, record.shortest) == (
        0, "s.json", 3, math.inf
    )


def test_null_config_sections_read_as_defaults():
    doc = minimal_doc()
    doc.update(hyperparams=None, sensor=None, planner=None)
    spec = parse_scenario(doc)
    assert (spec.hyperparams, spec.sensor, spec.planner) == (
        HyperParams(), SensorParams(), PlannerParams()
    )
    params = suite_params_from_dict({"hyperparams": None, "sensor": None, "planner": None})
    assert params == SuiteParams()


def test_config_sections_keep_only_given_keys_as_numbers():
    params = suite_params_from_dict({"hyperparams": {"lambda1": 2, "scan_headings": 6}})
    assert params.hyperparams == {"lambda1": 2.0, "scan_headings": 6}
    assert type(params.hyperparams["lambda1"]) is float


def test_suite_built_in_code_generates_the_bytes_of_its_document(ctx):
    """A section value given as an integer reads as its field's number, so a
    suite built in code and the same suite read from JSON write the same
    scenarios."""
    shape = dict(count=2, rooms=1, landmarks=3, map_side=8.0,
                 hyperparams={"fail_distance": 100}, planner={"robot_radius": 0})
    built = SuiteParams(**shape)
    read = suite_params_from_dict(json.loads(json.dumps(shape)))
    assert built == read
    assert [serialize_scenario(s) for s in generate_suite(built, 0, ctx=ctx)] == [
        serialize_scenario(s) for s in generate_suite(read, 0, ctx=ctx)
    ]


def test_scenario_dict_is_json_native(ctx):
    params = SuiteParams(count=3, rooms=3, landmarks=6, hyperparams={"lambda1": 2.0})
    for spec in generate_suite(params, 0, ctx=ctx):
        assert scenario_to_dict(spec) == json.loads(serialize_scenario(spec))


@pytest.mark.parametrize(
    "obj",
    [
        HyperParams(),
        HyperParams(lambda1=2.5, lambda2=0.0, t_c=0.1, t_u=1.0, m_t=27.5, temperature=0.5,
                    fail_distance=30.0, fov=1.0, cam_range=3.0, scan_headings=6, pan_views=1),
        SensorParams(),
        SensorParams(lidar_rays=90, lidar_range=2.5, sigma_emb=0.0, p_miss=0.1, clutter=2),
        PlannerParams(),
        PlannerParams(view_radius=1.0, view_directions=4, min_frontier_cells=1,
                      robot_radius=0.3, step_interval=2),
        LandmarkSpec(id="L0", name="desk", known=False, footprint=(0.2, 0.7, 0.4, 0.9)),
        LandmarkSpec(id="L1", name="sofa", known=True, footprint=(1, 1.5, 2, 2.25)),
        ObjectSpec(id="T0", name="book", position=(0.5, 0.5), radius=0.1),
        ObjectSpec(id="T1", name="cup", position=(1.25, 3), radius=0.2, is_target=True),
    ],
    ids=lambda obj: type(obj).__name__,
)
def test_world_dataclass_round_trip(obj):
    doc = json.loads(json.dumps(fields_dict(obj)))
    assert parse_fields(type(obj), doc, "doc") == obj


@pytest.mark.parametrize(
    "params",
    [
        SuiteParams(),
        SuiteParams(count=3, rooms=1, landmarks=4, map_side=9.5, resolution=0.2,
                    known_landmarks=0, distractors=0, targets=("cup",), known_pool=(),
                    unknown_pool=("desk", "bed"), placement_power=0.5,
                    hyperparams={"lambda1": 2.0, "scan_headings": 6}, sensor={"clutter": 1},
                    planner={"robot_radius": 0.3}),
    ],
)
def test_suite_params_round_trip(params):
    assert suite_params_from_dict(json.loads(json.dumps(fields_dict(params)))) == params


@pytest.mark.parametrize(
    "record",
    [
        EpisodeRecord(episode=0, success=False, traveled=0.0, waypoints_visited=0),
        EpisodeRecord(episode=3, scenario="a.json", seed=7, success=True, traveled=4.5,
                      shortest=4.0, waypoints_visited=2),
    ],
)
def test_record_round_trip(record):
    assert load_records_jsonl(records_to_jsonl([record])) == [record]
