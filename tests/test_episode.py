"""Golden and determinism tests for the closed episode loop.

The digests pin the exact bytes of the episode traces and batch records of a
small generated suite, so a change that alters behaviour, even in the last
digit of a float, fails here and has to re-pin them on purpose.  A second
trace digest covers a suite with camera misses and clutter.  The lazy-stream
tests check that a frame's camera stream, built on its first draw, draws what
the eager Generator draws.  The ranking tests replay every ``plan`` event
of the golden traces and check that a landmark the skip rule drops is never
planned again.  The reuse tests check that the layers an episode reuses
(skipped sweeps, cached traversable masks and distance fields) equal fresh
computations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from objsearch import episode
from objsearch.batch import RunConfig, records_to_jsonl, run_batch
from objsearch.episode import run_episode, trace_to_jsonl
from objsearch.planning import (
    LandmarkEntry,
    Viewpoint,
    clear_robot_disk,
    distance_field,
    passes_thresholds,
    plan_waypoints,
    traversable_mask,
)
from objsearch.sensing import camera_observe, lidar_update, observation_rng
from objsearch.suitegen import SuiteParams, generate_suite
from objsearch.world import CellState, GridMap, Pose, SensorParams
from util import box_scenario, unknown_belief

SUITE = SuiteParams(count=3, rooms=3, landmarks=6, map_side=14.0)
SUITE_SEED = 0
TRACE_SHA256 = "c9027593f8eb429d7b730c6b08f272e984d447dc5ea6dafabe1d90531a9b9330"
RECORDS_SHA256 = "8f41f5871dce475b0b5399893d295921ac539e67d512badcf403ecfd316b5196"
# A noisy-sensor suite: the clean goldens never draw a miss or a clutter
# detection, so this one pins the camera stream's draw order on those paths.
CLUTTER_SUITE = SuiteParams(count=4, rooms=3, landmarks=6, map_side=14.0,
                            sensor={"clutter": 2, "p_miss": 0.1})
CLUTTER_TRACE_SHA256 = "91d45324865e5231f7c0a3552db49c6e9eacfa5015a6b40837e69b66aaad249e"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def scenarios(ctx):
    return generate_suite(SUITE, SUITE_SEED, ctx=ctx)


@pytest.fixture(scope="module")
def traces(scenarios, ctx):
    """Trace JSONL of scenario i run with episode seed i."""
    return [
        trace_to_jsonl(run_episode(s, ctx=ctx, seed=i).trace) for i, s in enumerate(scenarios)
    ]


def batch_records(parallelism: int) -> str:
    config = RunConfig(
        episodes=SUITE.count, seed_base=0, parallelism=parallelism,
        suite=SUITE, suite_seed=SUITE_SEED,
    )
    return records_to_jsonl(run_batch(config).records)


@pytest.fixture(scope="module")
def serial_records():
    return batch_records(1)


def test_golden_trace(traces):
    assert sha256("".join(traces)) == TRACE_SHA256


@pytest.fixture(scope="module")
def clutter(ctx):
    """The clutter suite's scenarios and the trace JSONL of each."""
    scenarios = generate_suite(CLUTTER_SUITE, SUITE_SEED, ctx=ctx)
    return scenarios, [
        trace_to_jsonl(run_episode(s, ctx=ctx, seed=i).trace) for i, s in enumerate(scenarios)
    ]


def test_golden_clutter_trace(clutter):
    assert sha256("".join(clutter[1])) == CLUTTER_TRACE_SHA256


def test_golden_records(serial_records):
    assert sha256(serial_records) == RECORDS_SHA256


def test_same_seed_same_trace(scenarios, traces, ctx):
    again = trace_to_jsonl(run_episode(scenarios[0], ctx=ctx, seed=0).trace)
    assert again == traces[0]


def test_parallel_records_match_serial(serial_records):
    assert batch_records(2) == serial_records


def replayed_plans(scenario, jsonl):
    """Each ``plan`` event of a trace, with its skipped list and greedy order
    recomputed from the event's candidates, the pose of the scan before it and
    the scenario's hyperparameters (landmark positions, which the ranking does
    not read, come from the landmark events)."""
    hp = scenario.hyperparams
    plans, positions = [], {}
    for line in jsonl.splitlines():
        event = json.loads(line)
        if event["event"] in ("landmark_new", "landmark_update"):
            positions[event["id"]] = tuple(event["pos"])
        elif event["event"] == "scan":
            anchor = Pose(*event["pose"])
        elif event["event"] == "plan":
            vps = [
                Viewpoint(LandmarkEntry(c["id"], c["name"], positions[c["id"]], c["cooccur"],
                                        c["sem_uncert"]), Pose(*c["pose"]))
                for c in event["candidates"]
            ]
            skipped = [vp.landmark.id for vp in vps if not passes_thresholds(vp, hp)]
            passing = [vp for vp in vps if vp.landmark.id not in skipped]
            order = [vp.landmark.id for vp in plan_waypoints(anchor, passing, hp)]
            plans.append((event, skipped, order))
    return plans


@pytest.mark.parametrize("suite", ["clean", "clutter"])
def test_greedy_order_replays_from_the_trace(suite, scenarios, traces, clutter):
    if suite == "clutter":
        scenarios, traces = clutter
    ordered = 0
    for scenario, jsonl in zip(scenarios, traces):
        for event, skipped, order in replayed_plans(scenario, jsonl):
            assert (event["skipped"], event["order"]) == (skipped, order)
            ordered += len(order)
    assert ordered > 0


def planning_state(*entries):
    """An episode state in a swept open room, with the given registry."""
    scenario = box_scenario(size_m=8.0, res=0.25, start=(4.0, 4.0, 0.0),
                            sensor={"lidar_range": 12.0},
                            hyperparams={"t_c": 0.2, "t_u": 0.5})
    state = episode.EpisodeState(
        pose=scenario.start, belief=unknown_belief(scenario.map), seed=0,
        registry=list(entries),
    )
    episode._sweep(state, scenario)
    return scenario, state


def test_skipped_landmark_is_never_planned_again():
    at_thresholds = LandmarkEntry("lm000", "desk", (2.0, 4.0), 0.2, 0.5)
    low_cooccur = LandmarkEntry("lm001", "bed", (6.0, 4.0), math.nextafter(0.2, 0), 0.0)
    high_uncert = LandmarkEntry("lm002", "sofa", (4.0, 6.0), 0.9, math.nextafter(0.5, 1))
    scenario, state = planning_state(at_thresholds, low_cooccur, high_uncert)
    ordered = episode._plan_cycle(state, scenario)
    plan = state.trace[-1]
    assert [c["id"] for c in plan["candidates"]] == ["lm000", "lm001", "lm002"]
    assert plan["skipped"] == ["lm001", "lm002"] and plan["order"] == ["lm000"]
    assert [vp.landmark.id for vp in ordered] == ["lm000"]
    assert [e.skipped for e in state.registry] == [False, True, True]
    # Better scores later do not bring a skipped landmark back.
    low_cooccur.cooccur, high_uncert.sem_uncert = 1.0, 0.0
    episode._plan_cycle(state, scenario)
    plan = state.trace[-1]
    assert [c["id"] for c in plan["candidates"]] == ["lm000"]
    assert plan["skipped"] == [] and plan["order"] == ["lm000"]
    at_thresholds.visited = True
    episode._plan_cycle(state, scenario)
    assert state.trace[-1]["candidates"] == [] and state.trace[-1]["order"] == []


def fresh_trav(state, scenario):
    radius = scenario.planner.robot_radius
    cell = episode._current_cell(state)
    return clear_robot_disk(traversable_mask(state.belief, radius), state.belief, cell, radius)


def test_reuse_keys_on_sweep_origin_and_known_cells(monkeypatch):
    scenario = box_scenario(size_m=6.0, res=0.5, start=(1.25, 1.25, 0.0),
                            sensor={"lidar_range": 1.5})
    state = episode.EpisodeState(
        pose=scenario.start, belief=unknown_belief(scenario.map), seed=0
    )
    sweeps = []
    monkeypatch.setattr(episode, "lidar_update", lambda *args: sweeps.append(args[2]))
    episode._sweep(state, scenario)
    episode._sweep(state, scenario)
    assert sweeps == [scenario.start]  # the repeat from the same point is skipped
    monkeypatch.undo()

    episode._sweep(state, scenario)
    before = np.count_nonzero(state.belief.cells)
    stale_trav = episode._traversable_now(state, scenario)
    stale_dist = episode._distance_now(state, scenario)
    episode._sweep(state, scenario)  # a repeat is skipped and keeps the layers
    assert episode._traversable_now(state, scenario) is stale_trav
    assert episode._distance_now(state, scenario) is stale_dist
    # Another point in the same cell is a new origin; its sweep drops the
    # layers, and what it reveals is a new belief for the same robot cell.
    state.pose = Pose(1.45, 1.05, 0.0)
    assert episode._current_cell(state) == (2, 2)
    episode._sweep(state, scenario)
    assert np.count_nonzero(state.belief.cells) > before
    trav = episode._traversable_now(state, scenario)
    assert not np.array_equal(trav, stale_trav)
    assert np.array_equal(trav, fresh_trav(state, scenario))
    dist = episode._distance_now(state, scenario)
    assert dist.tobytes() != stale_dist.tobytes()
    assert dist.tobytes() == distance_field(trav, 0.5, [(2, 2)]).tobytes()
    assert not trav.flags.writeable and not dist.flags.writeable


def test_reused_layers_equal_fresh_ones(scenarios, ctx, monkeypatch):
    """Every sweep skipped, mask and distance field reused within an episode
    is what a fresh computation would give at that moment."""
    checks = {"sweep": 0, "trav": 0, "dist": 0}
    sweep, trav_now, dist_now = episode._sweep, episode._traversable_now, episode._distance_now

    def checked_sweep(state, scenario):
        sweep(state, scenario)
        again = GridMap(state.belief.width, state.belief.height, state.belief.resolution,
                        state.belief.cells.copy())
        lidar_update(again, scenario.map, state.pose, scenario.sensor.lidar_rays,
                     scenario.sensor.lidar_range)
        assert np.array_equal(again.cells, state.belief.cells)
        checks["sweep"] += 1

    def checked_trav(state, scenario):
        trav = trav_now(state, scenario)
        assert np.array_equal(trav, fresh_trav(state, scenario))
        checks["trav"] += 1
        return trav

    def checked_dist(state, scenario):
        dist = dist_now(state, scenario)
        fresh = distance_field(fresh_trav(state, scenario), state.belief.resolution,
                               [episode._current_cell(state)])
        assert dist.tobytes() == fresh.tobytes()
        checks["dist"] += 1
        return dist

    monkeypatch.setattr(episode, "_sweep", checked_sweep)
    monkeypatch.setattr(episode, "_traversable_now", checked_trav)
    monkeypatch.setattr(episode, "_distance_now", checked_dist)
    for i, scenario in enumerate(scenarios):
        episode.run_episode(scenario, ctx=ctx, seed=i)
    assert min(checks.values()) > 10


def test_belief_never_contradicts_the_truth(scenarios, ctx, monkeypatch):
    """After every sweep of the golden episodes, each known belief cell holds
    the state of that cell in the scenario's map."""
    sweeps = []
    sweep = episode._sweep

    def checked_sweep(state, scenario):
        sweep(state, scenario)
        known = state.belief.cells != CellState.UNKNOWN
        assert np.array_equal(state.belief.cells[known], scenario.map.cells[known])
        sweeps.append(np.count_nonzero(known))

    monkeypatch.setattr(episode, "_sweep", checked_sweep)
    for i, scenario in enumerate(scenarios):
        episode.run_episode(scenario, ctx=ctx, seed=i)
    assert len(sweeps) > 10 and max(sweeps) > 0


def observation_key(obs):
    return [
        (d.source_object, d.label, d.bbox, d.patch_embedding.tobytes(), d.range, d.bearing)
        for d in obs.detections
    ]


def count_streams(monkeypatch):
    built = []

    def counted(seed, counter):
        built.append((seed, counter))
        return observation_rng(seed, counter)

    monkeypatch.setattr(episode, "observation_rng", counted)
    return built


@pytest.mark.parametrize("sensor", [
    {"p_miss": 0.3},
    {"sigma_emb": 0.2},
    {"clutter": 2},
    {"p_miss": 0.3, "sigma_emb": 0.2, "clutter": 2},
    {"sigma_emb": 0.0},
])
def test_lazy_streams_draw_what_eager_ones_draw(scenarios, ctx, sensor, monkeypatch):
    built = count_streams(monkeypatch)
    scenario = dataclasses.replace(scenarios[0], sensor=SensorParams(**sensor))
    store = ctx.text_store_for(scenario)
    state = episode.EpisodeState(
        pose=scenario.start, belief=unknown_belief(scenario.map), seed=7
    )
    rng = np.random.default_rng(0)
    free = np.argwhere(scenario.map.cells == CellState.FREE)
    frames = detections = 0
    for iy, ix in free[rng.choice(len(free), size=12, replace=False)]:
        x, y = scenario.map.cell_to_world(int(ix), int(iy))
        for h in range(8):
            pose = Pose(x, y, 2.0 * math.pi * h / 8)
            counter = state.obs_counter
            lazy = camera_observe(scenario, store, pose, episode._next_rng(state))
            eager = camera_observe(scenario, store, pose, observation_rng(7, counter))
            assert observation_key(lazy) == observation_key(eager)
            frames += 1
            detections += len(eager.detections)
    assert state.obs_counter == frames
    assert detections > 0
    assert len(built) <= frames and len(set(built)) == len(built)
    if sensor.get("clutter") or sensor.get("sigma_emb"):
        assert built  # these frames do draw


def test_a_frame_that_draws_nothing_builds_no_stream(scenarios, ctx, monkeypatch):
    """Under p_miss alone a frame draws once per visible entity, so exactly
    the frames that see something build their stream, each once."""
    built = count_streams(monkeypatch)
    scenario = scenarios[0]
    noisy = dataclasses.replace(scenario, sensor=SensorParams(p_miss=0.5, sigma_emb=0.0))
    clean = dataclasses.replace(scenario, sensor=SensorParams(p_miss=0.0, sigma_emb=0.0))
    store = ctx.text_store_for(scenario)
    state = episode.EpisodeState(
        pose=scenario.start, belief=unknown_belief(scenario.map), seed=3
    )
    rng = np.random.default_rng(1)
    free = np.argwhere(scenario.map.cells == CellState.FREE)
    seeing = []
    for iy, ix in free[rng.choice(len(free), size=10, replace=False)]:
        x, y = scenario.map.cell_to_world(int(ix), int(iy))
        for h in range(8):
            pose = Pose(x, y, 2.0 * math.pi * h / 8)
            if camera_observe(clean, store, pose, episode._next_rng(state)).detections:
                seeing.append(state.obs_counter)
            camera_observe(noisy, store, pose, episode._next_rng(state))
    assert state.obs_counter == 160
    assert 0 < len(seeing) < 80
    assert built == [(3, c) for c in seeing]
