"""Golden and determinism tests for the closed episode loop.

The digests pin the exact bytes of the episode traces and batch records of a
small generated suite, so a change that alters behaviour, even in the last
digit of a float, fails here and has to re-pin them on purpose.  A second
trace digest covers a suite with camera misses and clutter, and two more pin
small suites and their traces for robots wider than the goldens'.  The
lazy-stream tests check that a frame's camera stream, built on its first
draw, draws what the eager Generator draws.  The ranking tests replay every ``plan`` event
of the golden traces and check that a landmark the skip rule drops is never
planned again.  The reuse tests check that the layers an episode reuses
(skipped sweeps, cached traversable masks and distance fields, bounded or
whole) equal fresh computations, that a bounded field is the whole field
wherever it is finite, and that navigation walks down the field a plan cycle
built and builds none for a goal it cannot drive to.
The lidar's sweep-geometry cache outlives episodes, so the goldens are also
checked from a cold cache, a warm one and one filled past its size, and
from every process-wide cache cleared with a fresh asset context.  No
success travels less than the SPL shortest path it is scored against.
The confirmation oracle is checked against a reference rule from random
poses and at the camera's edges, and clutter on a map without border walls
against the map's bounds.  Each
way an episode can end without success (the budget spent on a frontier leg
or on a visit, no path to a viewpoint, nothing left to explore, a cycle that
changes nothing) has a small room that ends it so, checked by its trace's
last events.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import objsearch
from objsearch import episode, world
from objsearch.assets import AssetContext
from objsearch.batch import RunConfig, records_to_jsonl, run_batch
from objsearch.episode import run_episode, trace_to_jsonl
from objsearch.errors import NoPathError
from objsearch.knowledge import FALLBACK_COOCCURRENCE
from objsearch.matching import UNKNOWN_LABEL, TextEmbeddingStore
from objsearch.planning import (
    LandmarkEntry,
    Viewpoint,
    clear_robot_disk,
    distance_field,
    passes_thresholds,
    plan_path,
    plan_waypoints,
    traversable_mask,
)
from objsearch.sensing import (
    IMAGE_WIDTH,
    BBox,
    CameraObservation,
    DetectionRecord,
    bbox_from_geometry,
    camera_observe,
    lidar_update,
    observation_rng,
)
from objsearch.suitegen import SuiteParams, generate_suite
from objsearch.world import (
    CellState,
    GridMap,
    ObjectSpec,
    Pose,
    SensorParams,
    normalize_angle,
    serialize_scenario,
)
from util import box_scenario, open_border_scenario, reference_confirms, sweep_offsets

SUITE = SuiteParams(count=3, rooms=3, landmarks=6, map_side=14.0)
SUITE_SEED = 0
TRACE_SHA256 = "e69f438b559f137ed62687266ad94b20db65fc439230c41d6afa774e9d57c4c2"
RECORDS_SHA256 = "dbd5ab1b6d19fb25dcf158f5c2521f8ef8f29d70fc814688046cf1248d689c2b"
# A noisy-sensor suite: the clean goldens never draw a miss or a clutter
# detection, so this one pins the camera stream's draw order on those paths.
CLUTTER_SUITE = SuiteParams(count=4, rooms=3, landmarks=6, map_side=14.0,
                            sensor={"clutter": 2, "p_miss": 0.1})
CLUTTER_TRACE_SHA256 = "3eda5881f3a0755b4e5d6044f12b7e21c2357ca63b74d9586cb9b3b0385225ba"


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


# A robot wider than the goldens' on small maps.  The episode frees the
# robot's disk at every pose it plans from, the SPL reference only at the
# start, so a wider disk is where the two could part.
WIDE_ROBOT_SUITE = SuiteParams(count=8, rooms=2, landmarks=5, map_side=10.0,
                               planner={"robot_radius": 0.45})


def test_a_success_never_travels_less_than_its_shortest_path(traces, clutter, ctx):
    wide = [trace_to_jsonl(run_episode(s, ctx=ctx, seed=i).trace)
            for i, s in enumerate(generate_suite(WIDE_ROBOT_SUITE, 1, ctx=ctx))]
    for suite, jsonl in (("golden", traces), ("clutter", clutter[1]), ("wide robot", wide)):
        events = [json.loads(line) for text in jsonl for line in text.splitlines()]
        successes = [e for e in events if e["event"] == "episode_end" and e["success"]]
        assert successes, suite
        for end in successes:
            assert end["traveled"] >= end["shortest"], (suite, end)
        if suite == "wide robot":
            assert len(successes) >= 5


# Robots whose disk is wider than the goldens' two cells: 5 cells at 0.1 m
# and 6 at 0.05 m.  Each digest covers a small suite's scenarios and the
# trace of each, so map inflation, the robot's own disk and generation's
# drivable checks are all pinned at these radii.
WIDE_ROBOT_SHA256 = {
    (0.45, 0.1, 10.0): "4c770434767519c9131375d022ba812c63dd78b6e49104c140fe2b3ac6aa317c",
    (0.3, 0.05, 8.0): "b3146328ccedeeeb24e00df8571bdc61e3ebdada78265639cedd1da59a4a81bf",
}


@pytest.mark.parametrize("radius, resolution, map_side", sorted(WIDE_ROBOT_SHA256))
def test_wide_robot_suites_and_traces_are_pinned(radius, resolution, map_side, ctx):
    params = SuiteParams(count=4, rooms=2, landmarks=5, map_side=map_side, resolution=resolution,
                         planner={"robot_radius": radius})
    scenarios = generate_suite(params, SUITE_SEED, ctx=ctx)
    texts = [serialize_scenario(s) + "\n" for s in scenarios]
    texts += [trace_to_jsonl(run_episode(s, ctx=ctx, seed=i).trace)
              for i, s in enumerate(scenarios)]
    assert sha256("".join(texts)) == WIDE_ROBOT_SHA256[(radius, resolution, map_side)]


def golden_digests(scenarios, ctx):
    traces = (run_episode(s, ctx=ctx, seed=i).trace for i, s in enumerate(scenarios))
    return sha256("".join(map(trace_to_jsonl, traces))), sha256(batch_records(1))


def test_sweep_geometry_cache_cannot_change_traces(scenarios, ctx):
    """The goldens hold from cleared sweep caches (the crossing orders and
    the offsets shared per step pattern), after a warm-up in reverse episode
    order, and with both caches full of other keys, so that they evict
    while the episodes run; neither grows past its size."""
    caches = (world._sweep_geometry, world._ray_offsets)
    for cache in caches:
        cache.cache_clear()
    assert golden_digests(scenarios, ctx) == (TRACE_SHA256, RECORDS_SHA256)
    for cache in caches:
        cache.cache_clear()
    for i in reversed(range(len(scenarios))):
        run_episode(scenarios[i], ctx=ctx, seed=i)
    assert golden_digests(scenarios, ctx) == (TRACE_SHA256, RECORDS_SHA256)
    geometry, offsets = (cache.cache_info().maxsize for cache in caches)
    for k in range(geometry + 10):
        world._sweep_geometry(0.1, 4, 0.3, 6, (0.05 + k * 1e-9, -0.05, 0.05, -0.05))
    for k in range(offsets + 10):
        world._ray_offsets(b"\x80", 1, 0, 1, 4, 3 + k)  # one ray, one x step
    sizes = [cache.cache_info().currsize for cache in caches]
    assert sizes == [geometry, offsets]
    assert golden_digests(scenarios, ctx) == (TRACE_SHA256, RECORDS_SHA256)
    assert [cache.cache_info().currsize for cache in caches] == sizes


# What outlives an episode in a process besides its AssetContext, as the
# episode module's docstring lists it: a new cache changes this on purpose.
PROCESS_CACHES = ["planning._neighbor_slots", "world._ray_offsets", "world._sweep_directions",
                  "world._sweep_geometry"]


def process_caches():
    """The package's lru caches, by ``module.function``."""
    found = {}
    for info in pkgutil.iter_modules(objsearch.__path__):
        module = importlib.import_module(f"objsearch.{info.name}")
        found.update((f"{info.name}.{name}", value) for name, value in vars(module).items()
                     if hasattr(value, "cache_clear") and value.__module__ == module.__name__)
    return found


def test_golden_traces_from_cold_process_caches(scenarios, clutter):
    """The clean and clutter goldens hold from cleared lru caches and a fresh
    :class:`~objsearch.assets.AssetContext`, whose co-occurrence memo starts
    empty: what episodes share cannot change a trace."""
    caches = process_caches()
    assert sorted(caches) == PROCESS_CACHES
    for suite, digest in [(scenarios, TRACE_SHA256), (clutter[0], CLUTTER_TRACE_SHA256)]:
        for cache in caches.values():
            cache.cache_clear()
        fresh = AssetContext.load()
        traces = [trace_to_jsonl(run_episode(s, ctx=fresh, seed=i).trace)
                  for i, s in enumerate(suite)]
        assert sha256("".join(traces)) == digest


def test_sweep_geometry_entry_is_small(scenarios):
    sensor = SensorParams()
    grid = scenarios[0].map
    res = grid.resolution
    crossings = world._crossing_count(grid, sensor.lidar_range)
    entry = world._sweep_geometry(res, sensor.lidar_rays, sensor.lidar_range, crossings,
                                  (res / 2, -res / 2, res / 2, -res / 2))
    assert sum(packed.nbytes + within.nbytes for _, packed, within in entry) <= 4096


def test_ray_offsets_cache_fits_its_byte_budget(scenarios):
    """Full, the offsets cache holds at most 3 MiB at the default sensor:
    one entry's bytes, for a sweep from a cell centre of a golden map (36 KB
    of int16), times its size.  Nav's sweeps share 33 step patterns, so
    they fill about half of it."""
    sensor = SensorParams()
    grid = scenarios[0].map
    offsets = sweep_offsets(grid, grid.cell_to_world(1, 1), sensor.lidar_rays, sensor.lidar_range)
    nbytes = sum(block.nbytes for block in offsets)
    assert nbytes * world._ray_offsets.cache_info().maxsize <= 3 * 2**20


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


def planning_state(ctx, *entries):
    """An episode state in a swept open room, with the given registry."""
    scenario = box_scenario(size_m=8.0, res=0.25, start=(4.0, 4.0, 0.0),
                            sensor={"lidar_range": 12.0},
                            hyperparams={"t_c": 0.2, "t_u": 0.5})
    state = episode.start_state(scenario, ctx, 0, None)
    state.registry = list(entries)
    episode._sweep(state)
    return state


def test_skipped_landmark_is_never_planned_again(ctx):
    at_thresholds = LandmarkEntry("lm000", "desk", (2.0, 4.0), 0.2, 0.5)
    low_cooccur = LandmarkEntry("lm001", "bed", (6.0, 4.0), math.nextafter(0.2, 0), 0.0)
    high_uncert = LandmarkEntry("lm002", "sofa", (4.0, 6.0), 0.9, math.nextafter(0.5, 1))
    state = planning_state(ctx, at_thresholds, low_cooccur, high_uncert)
    ordered = episode._plan_cycle(state)
    plan = state.trace[-1]
    assert [c["id"] for c in plan["candidates"]] == ["lm000", "lm001", "lm002"]
    assert plan["skipped"] == ["lm001", "lm002"] and plan["order"] == ["lm000"]
    assert [vp.landmark.id for vp in ordered] == ["lm000"]
    assert [e.skipped for e in state.registry] == [False, True, True]
    # Better scores later do not bring a skipped landmark back.
    low_cooccur.cooccur, high_uncert.sem_uncert = 1.0, 0.0
    episode._plan_cycle(state)
    plan = state.trace[-1]
    assert [c["id"] for c in plan["candidates"]] == ["lm000"]
    assert plan["skipped"] == [] and plan["order"] == ["lm000"]
    at_thresholds.visited = True
    episode._plan_cycle(state)
    assert state.trace[-1]["candidates"] == [] and state.trace[-1]["order"] == []


def test_first_leg_walks_down_the_planned_field(ctx, monkeypatch):
    """The first leg toward a planned viewpoint reads the distance field the
    plan cycle built; it builds no field of its own."""
    state = planning_state(ctx, LandmarkEntry("lm000", "desk", (2.0, 4.0), 0.9, 0.0))
    (vp,) = episode._plan_cycle(state)
    planned = state.nav_maps.dist
    built, legs = [], []
    field, walk = episode.distance_field, episode._walk

    def counted_field(*args):
        built.append(args)
        return field(*args)

    def first_leg(state, path):
        legs.append((len(built), path))
        return walk(state, path)

    monkeypatch.setattr(episode, "distance_field", counted_field)
    monkeypatch.setattr(episode, "_walk", first_leg)
    assert episode.visit_waypoint(state, vp) is True
    goal = state.belief.world_to_cell(vp.pose.x, vp.pose.y)
    assert legs[0] == (0, plan_path(planned, goal, state.belief.resolution))
    assert len(legs[0][1].cells) > 1


def fresh_trav(state, scenario):
    radius = scenario.planner.robot_radius
    cell = episode._current_cell(state)
    return clear_robot_disk(traversable_mask(state.belief, radius), state.belief, cell, radius)


def test_reuse_keys_on_sweep_origin_and_known_cells(ctx, monkeypatch):
    scenario = box_scenario(size_m=6.0, res=0.5, start=(1.25, 1.25, 0.0),
                            sensor={"lidar_range": 1.5})
    state = episode.start_state(scenario, ctx, 0, None)
    sweeps = []
    monkeypatch.setattr(episode, "lidar_update", lambda *args: sweeps.append(args[2]))
    episode._sweep(state)
    episode._sweep(state)
    assert sweeps == [scenario.start]  # the repeat from the same point is skipped
    monkeypatch.undo()

    episode._sweep(state)
    before = np.count_nonzero(state.belief.cells)
    reach = scenario.sensor.lidar_range
    stale_trav = episode._nav_maps(state).trav
    stale_near = episode._nav_maps(state).field(reach)
    episode._sweep(state)  # a repeat is skipped and keeps the layers
    assert episode._nav_maps(state).trav is stale_trav
    assert episode._nav_maps(state).field(reach) is stale_near
    # A read asking for no more reach keeps the field; one asking for more
    # rebuilds it, and the larger field is the one kept.
    assert episode._nav_maps(state).field(0.0) is stale_near
    stale_dist = episode._nav_maps(state).field(math.inf)
    assert stale_dist is not stale_near
    assert episode._nav_maps(state).field(reach) is stale_dist
    # Another point in the same cell is a new origin; its sweep drops the
    # layers, and what it reveals is a new belief for the same robot cell.
    state.pose = Pose(1.45, 1.05, 0.0)
    assert episode._current_cell(state) == (2, 2)
    episode._sweep(state)
    assert np.count_nonzero(state.belief.cells) > before
    trav = episode._nav_maps(state).trav
    assert not np.array_equal(trav, stale_trav)
    assert np.array_equal(trav, fresh_trav(state, scenario))
    near = episode._nav_maps(state).field(reach)
    assert near.tobytes() == distance_field(trav, 0.5, (2, 2), reach).tobytes()
    assert not near.flags.writeable
    dist = episode._nav_maps(state).field(math.inf)
    assert dist.tobytes() != stale_dist.tobytes()
    assert dist.tobytes() == distance_field(trav, 0.5, (2, 2), math.inf).tobytes()
    assert not trav.flags.writeable and not dist.flags.writeable


def test_reused_layers_equal_fresh_ones(scenarios, ctx, monkeypatch):
    """Every sweep skipped, mask and distance field reused within an episode
    is what a fresh computation would give at that moment.  A field read
    equals a fresh field at the reach it was built for, and the whole field
    wherever it is finite; what it leaves ``inf`` lies beyond that reach."""
    checks = {"sweep": 0, "trav": 0, "dist": 0, "bounded": 0}
    sweep, nav_maps, read_field = episode._sweep, episode._nav_maps, episode._NavMaps.field

    def checked_sweep(state):
        sweep(state)
        scenario = state.scenario
        again = GridMap(state.belief.width, state.belief.height, state.belief.resolution,
                        state.belief.cells.copy())
        lidar_update(again, scenario.map, state.pose, scenario.sensor.lidar_rays,
                     scenario.sensor.lidar_range)
        assert np.array_equal(again.cells, state.belief.cells)
        checks["sweep"] += 1

    def checked_nav_maps(state):
        maps = nav_maps(state)
        trav = fresh_trav(state, state.scenario)
        assert np.array_equal(maps.trav, trav)
        checks["trav"] += 1
        return maps

    def checked_field(maps, reach):
        dist = read_field(maps, reach)
        assert maps.reach >= reach
        fresh = distance_field(maps.trav, maps.resolution, maps.cell, maps.reach)
        assert dist.tobytes() == fresh.tobytes()
        whole = distance_field(maps.trav, maps.resolution, maps.cell, math.inf)
        finite = np.isfinite(dist)
        assert whole[finite].tobytes() == dist[finite].tobytes()
        assert (whole[~finite & np.isfinite(whole)] > maps.reach).all()
        checks["dist"] += 1
        checks["bounded"] += math.isfinite(maps.reach)
        return dist

    monkeypatch.setattr(episode, "_sweep", checked_sweep)
    monkeypatch.setattr(episode, "_nav_maps", checked_nav_maps)
    monkeypatch.setattr(episode._NavMaps, "field", checked_field)
    for i, scenario in enumerate(scenarios):
        episode.run_episode(scenario, ctx=ctx, seed=i)
    assert min(checks.values()) > 10


def test_belief_never_contradicts_the_truth(scenarios, ctx, monkeypatch):
    """After every sweep of the golden episodes, each known belief cell holds
    the state of that cell in the scenario's map."""
    sweeps = []
    sweep = episode._sweep

    def checked_sweep(state):
        sweep(state)
        known = state.belief.cells != CellState.UNKNOWN
        assert np.array_equal(state.belief.cells[known], state.scenario.map.cells[known])
        sweeps.append(np.count_nonzero(known))

    monkeypatch.setattr(episode, "_sweep", checked_sweep)
    for i, scenario in enumerate(scenarios):
        episode.run_episode(scenario, ctx=ctx, seed=i)
    assert len(sweeps) > 10 and max(sweeps) > 0


def test_a_custom_rule_judges_each_candidate_with_the_scenario(ctx):
    """``confirm_fn`` gets every candidate, in the order the trace shows them,
    together with the scenario."""
    scenario = box_scenario()
    judged = []

    def reject(cand, given):
        judged.append((cand, given))
        return False

    result = run_episode(scenario, ctx=ctx, confirm_fn=reject)
    shown = [[e["score"], e["pos"]] for e in result.trace if e["event"] == "candidate"]
    assert len(shown) > 1 and not result.success
    assert [[c.score, list(c.position)] for c, _ in judged] == shown
    assert all(given is scenario for _, given in judged)


def candidate_seen_from(pose, box):
    """A candidate with ``box``, seen from ``pose``: all confirmation reads."""
    detection = DetectionRecord("T0", UNKNOWN_LABEL, box, np.zeros(1), 0.0, 0.0)
    return episode.CandidatePatch(detection, 1.0, (pose.x, pose.y), pose)


def projected_box(obj, pose, fov, rng):
    """The box of ``obj`` as the camera at ``pose`` projects it, or a random
    one when the object is not ahead of the camera."""
    (ox, oy), (x, y) = obj.position, (pose.x, pose.y)
    distance = math.hypot(ox - x, oy - y)
    rel = normalize_angle(math.atan2(oy - y, ox - x) - pose.theta)
    if distance > 0.0 and abs(rel) <= fov / 2.0:
        return bbox_from_geometry(rel, distance, obj.radius, fov)
    x_min, y_min = rng.uniform(0.0, 600.0), rng.uniform(0.0, 440.0)
    return BBox(x_min, y_min, x_min + rng.uniform(4.0, 40.0), y_min + rng.uniform(4.0, 40.0))


def shifted(box, rng):
    """The box moved sideways by up to its width, clipped to the image."""
    shift = rng.uniform(-1.0, 1.0) * box.width
    x_min = min(max(0.0, box.x_min + shift), IMAGE_WIDTH - 1.0)
    x_max = max(min(IMAGE_WIDTH, box.x_max + shift), x_min + 1.0)
    return BBox(x_min, box.y_min, x_max, box.y_max)


def test_confirmation_equals_the_reference_rule():
    """The confirmation oracle judges as ``util.reference_confirms`` does,
    from random poses on cluttered maps, with three boxes per pose: the
    target's own, a distractor's and the target's shifted sideways."""
    base = box_scenario(size_m=4.0)
    rng = np.random.default_rng(41)
    outcomes = collections.Counter()
    for _ in range(6):
        cells = np.where(rng.random((40, 40)) < 0.08, CellState.OCCUPIED, CellState.FREE)
        cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = CellState.OCCUPIED
        grid = GridMap(40, 40, 0.1, cells.astype(np.uint8))
        free = np.argwhere(cells == CellState.FREE)

        def spot():
            iy, ix = free[rng.integers(len(free))]
            return grid.cell_to_world(int(ix), int(iy))

        target = ObjectSpec("T0", "book", spot(), 0.15, is_target=True)
        distractor = ObjectSpec("D0", "cup", spot(), 0.1)
        scenario = dataclasses.replace(base, map=grid, objects=[target, distractor],
                                       start=Pose(*spot()))
        fov = scenario.hyperparams.fov
        for _ in range(40):
            x, y = spot()
            aim = math.atan2(target.position[1] - y, target.position[0] - x)
            pose = Pose(x, y, aim + rng.uniform(-0.75, 0.75) * fov)
            own = projected_box(target, pose, fov, rng)
            other = projected_box(distractor, pose, fov, rng)
            for kind, box in [("own", own), ("distractor", other), ("shifted", shifted(own, rng))]:
                judged = episode._confirm_candidate(candidate_seen_from(pose, box), scenario)
                assert judged == reference_confirms(scenario, box, pose)
                outcomes[kind, judged] += 1
    assert all(outcomes[kind, judged] >= 20 for kind in ("own", "shifted")
               for judged in (True, False))
    assert outcomes["distractor", False] >= 100


def test_confirmation_at_the_camera_edges():
    """The target's own box confirms at exactly cam_range and at exactly
    +-fov/2, and not from the target's own position nor just past either
    edge; the oracle and ``util.reference_confirms`` agree on each."""
    def judge(scenario, pose, box):
        judged = episode._confirm_candidate(candidate_seen_from(pose, box), scenario)
        assert judged == reference_confirms(scenario, box, pose)
        return judged

    def with_hyperparams(scenario, **values):
        hp = dataclasses.replace(scenario.hyperparams, **values)
        return dataclasses.replace(scenario, hyperparams=hp)

    def target_at(x, y):
        return box_scenario(objects=[{"id": "T0", "name": "book", "position": [x, y],
                                      "radius": 0.15, "is_target": True}])

    pose = Pose(1.0, 1.0, 0.0)
    at_range = target_at(4.5, 1.0)  # 3.5 m due east: exactly cam_range
    assert at_range.hyperparams.cam_range == 3.5
    box = bbox_from_geometry(0.0, 3.5, 0.15, at_range.hyperparams.fov)
    assert judge(at_range, pose, box)
    assert not judge(with_hyperparams(at_range, cam_range=math.nextafter(3.5, 0.0)), pose, box)
    assert not judge(target_at(1.0, 1.0), pose, BBox(300.0, 220.0, 340.0, 260.0))
    ahead = target_at(3.0, 1.0)
    for heading in (-0.5, 0.5):
        turned = Pose(1.0, 1.0, heading)
        rel = normalize_angle(0.0 - turned.theta)
        fov = 2.0 * abs(rel)  # the target due east lies exactly on the edge
        box = bbox_from_geometry(rel, 2.0, 0.15, fov)
        assert judge(with_hyperparams(ahead, fov=fov), turned, box)
        assert not judge(with_hyperparams(ahead, fov=math.nextafter(fov, 0.0)), turned, box)


@pytest.mark.parametrize("cam_range", [None, math.inf])
def test_clutter_on_an_open_map_stays_on_it(cam_range, ctx):
    """On a map whose border cells are free, a clutter ray ends at the map's
    edge, as a lidar ray does: no episode raises, at the default camera
    range or one past the map, and every position an episode registers or
    matches lies on the map."""
    scenario = open_border_scenario(cam_range)
    width, height = scenario.map.size_meters
    positions = []
    for seed in range(40):
        trace = run_episode(scenario, ctx=ctx, seed=seed).trace
        positions += [e["pos"] for e in trace
                      if e["event"] in ("landmark_new", "landmark_update", "candidate")]
    assert len(positions) > 100
    assert all(0.0 <= x < width and 0.0 <= y < height for x, y in positions)


@pytest.mark.parametrize("names", [("desk", "bed"), ("bed", "desk")])
def test_tied_unknown_names_register_the_first(names, ctx):
    """Two unknown names with equal vectors tie on every score: the first in
    scenario order names the landmark, and the softmax splits evenly."""
    scenario = box_scenario(landmarks=[
        {"id": f"L{k}", "name": name, "known": False,
         "footprint": [2.0 + 3.0 * k, 5.0, 2.6 + 3.0 * k, 5.6]}
        for k, name in enumerate(names)
    ])
    state = episode.start_state(scenario, ctx, 0, None)
    vectors = {name: state.store.get(name) for name in scenario.entity_names()}
    vectors["bed"] = vectors["desk"]
    state.store = TextEmbeddingStore(vectors)
    detection = DetectionRecord("L1", UNKNOWN_LABEL, BBox(300.0, 220.0, 340.0, 260.0),
                                state.store.get("desk"), 2.0, 0.0)
    episode._process_observation(state, CameraObservation(scenario.start, (detection,)),
                                 scanning=True)
    (entry,) = state.registry
    assert entry.name == names[0]
    assert entry.sem_uncert == pytest.approx(math.log(2.0))


def events_of(trace):
    return [e["event"] for e in trace]


# A desk the start scan sees, whose viewpoint is 1.7 m away, and a target
# no scan or viewpoint sees.
DESK_ROOM = dict(
    size_m=8.0, start=(3.0, 3.0, 0.0),
    landmarks=[{"id": "L0", "name": "desk", "known": True, "footprint": [5.0, 5.0, 5.6, 5.6]}],
    objects=[{"id": "T0", "name": "book", "position": [7.5, 0.5], "radius": 0.15,
              "is_target": True}],
)


def test_budget_spent_on_a_frontier_leg_ends_the_episode(ctx):
    scenario = box_scenario(size_m=8.0, start=(0.55, 0.55, 0.0),
                            hyperparams={"cam_range": 0.3, "fail_distance": 1.0},
                            sensor={"lidar_range": 1.5})
    result = run_episode(scenario, ctx=ctx, seed=0)
    trace = result.trace
    assert events_of(trace) == ["episode_start", "scan", "plan", "frontier", "leg",
                                "budget_exceeded", "episode_end"]
    assert trace[-3]["to"] == trace[-4]["goal"]
    assert trace[-2]["traveled"] == trace[-1]["traveled"] == result.traveled > 1.0
    assert not result.success and not trace[-1]["success"]
    assert result.waypoints_visited == 0


def test_budget_spent_on_a_visit_ends_the_episode(ctx):
    result = run_episode(box_scenario(hyperparams={"fail_distance": 1.0}, **DESK_ROOM),
                         ctx=ctx, seed=0)
    trace = result.trace
    assert events_of(trace)[-5:] == ["plan", "visit_start", "leg", "budget_exceeded",
                                     "episode_end"]
    assert trace[-4]["id"] == "lm000" and trace[-5]["order"] == ["lm000"]
    assert trace[-2]["traveled"] == result.traveled > 1.0
    assert not result.success and not trace[-1]["success"]
    assert result.waypoints_visited == 0  # it never arrived


def test_a_viewpoint_without_a_path_is_abandoned(ctx, monkeypatch):
    """With no path anywhere, the visit is abandoned, the frontier leg is not
    driven, and the next scan finds nothing new.  A goal is asked on the
    field out to the lidar range, and then on the whole field."""
    goals = []

    def no_path(dist, goal, resolution):
        goals.append((goal, int(np.isfinite(dist).sum())))
        raise NoPathError("blocked")

    monkeypatch.setattr(episode, "plan_path", no_path)
    result = run_episode(box_scenario(**DESK_ROOM), ctx=ctx, seed=0)
    trace = result.trace
    assert events_of(trace)[-7:] == ["plan", "visit_start", "abandon", "frontier", "scan",
                                     "explore_exhausted", "episode_end"]
    assert trace[-5] == {"i": trace[-5]["i"], "event": "abandon", "id": "lm000",
                         "reason": "no_path"}
    assert trace[-2]["reason"] == "no_progress"
    # The viewpoint is asked on both fields; the frontier, chosen on the whole
    # field the visit left, on that field alone.
    (view, near), (view_again, whole), (frontier, frontier_field) = goals
    assert view == view_again and near < whole == frontier_field
    assert frontier == tuple(trace[-4]["goal"])
    assert not result.success and result.traveled == 0.0 and result.waypoints_visited == 0


def test_navigating_to_an_undrivable_goal_builds_no_field(ctx, monkeypatch):
    """Every field holds ``inf`` on a goal off the map or off the drivable
    mask, so ``_navigate`` gives up there without building one."""
    state = episode.start_state(box_scenario(**DESK_ROOM), ctx, 0, None)
    episode._sweep(state)
    trav, cells = episode._nav_maps(state).trav, state.belief.cells

    def first(mask):
        return tuple(int(v) for v in np.argwhere(mask)[0][::-1])

    def forbidden(*args):
        raise AssertionError("a distance field was built")

    monkeypatch.setattr(episode, "distance_field", forbidden)
    width, height = state.belief.width, state.belief.height
    goals = [(-1, 0), (0, -1), (width, 0), (0, height), first(cells == CellState.OCCUPIED),
             first(cells == CellState.UNKNOWN), first(~trav & (cells == CellState.FREE))]
    for goal in goals:
        assert episode._navigate(state, goal) is False
    assert state.trace == [] and state.traveled == 0.0
    with pytest.raises(AssertionError, match="field was built"):
        episode._navigate(state, first(trav & (cells == CellState.FREE)))


def test_nothing_left_to_explore_ends_the_episode(ctx):
    scenario = box_scenario(size_m=4.0, start=(0.5, 0.5, 0.0),
                            hyperparams={"cam_range": 0.3}, sensor={"lidar_range": 12.0})
    result = run_episode(scenario, ctx=ctx, seed=0)
    trace = result.trace
    assert events_of(trace)[-4:] == ["scan", "plan", "explore_exhausted", "episode_end"]
    assert trace[-2]["reason"] == "no_frontier"
    assert not result.success and trace[-1]["traveled"] == result.traveled > 0.0


def test_a_cycle_that_changes_nothing_ends_the_episode(ctx):
    """One lidar ray reveals a frontier the robot already stands on: the leg
    drives nowhere and the next scan learns nothing."""
    scenario = box_scenario(size_m=4.0, start=(0.5, 0.5, 0.0), hyperparams={"cam_range": 0.3},
                            sensor={"lidar_rays": 1}, planner={"min_frontier_cells": 1})
    result = run_episode(scenario, ctx=ctx, seed=0)
    trace = result.trace
    assert events_of(trace) == ["episode_start", "scan", "plan", "frontier", "leg", "scan",
                                "explore_exhausted", "episode_end"]
    assert trace[4]["length"] == 0.0 and trace[-2]["reason"] == "no_progress"
    assert not result.success and result.traveled == 0.0


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
    state = episode.start_state(scenario, ctx, 7, None)
    store = state.store
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
    state = episode.start_state(scenario, ctx, 3, None)
    store = state.store
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


# The golden and clutter suites with their target renamed to "alarm", which
# has a word vector but no entry in the generation table.
FALLBACK_TRACE_SHA256 = "5d4c1b0193ce69314b83ce25aeadaa4fc221cb3580a8e4efd40656b0a28a98fe"


def test_a_target_the_table_lacks_scores_every_landmark_by_the_fallback(scenarios, clutter, ctx):
    """An episode flags the fallback prior once, directly before the first
    landmark it registers (if it registers any), and every landmark it
    registers scores :data:`~objsearch.knowledge.FALLBACK_COOCCURRENCE`."""
    assert "alarm" in ctx.words and "alarm" not in ctx.generations
    traces, flagged = [], 0
    for i, scenario in [*enumerate(scenarios), *enumerate(clutter[0])]:
        doc = world.scenario_to_dict(scenario)
        doc["target"] = "alarm"
        for ob in doc["objects"]:
            if ob["is_target"]:
                ob["name"] = "alarm"
        trace = run_episode(world.load_scenario(json.dumps(doc)), ctx=ctx, seed=i).trace
        events = [e["event"] for e in trace]
        registered = [e for e in trace if e["event"] in ("landmark_new", "landmark_update")]
        assert all(e["cooccur"] == FALLBACK_COOCCURRENCE for e in registered)
        if registered:
            flag = events.index("fallback_cooccurrence")
            assert events[flag + 1] == "landmark_new"
            assert "landmark_new" not in events[:flag] and trace[flag]["target"] == "alarm"
            flagged += 1
        assert events.count("fallback_cooccurrence") == (1 if registered else 0)
        traces.append(trace_to_jsonl(trace))
    assert flagged == 6
    assert sha256("".join(traces)) == FALLBACK_TRACE_SHA256
