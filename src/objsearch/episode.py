"""Episode execution: scan, plan, visit, confirm, explore, repeat.

One episode owns its belief map and rng stream exclusively.  Every camera
call uses a stream keyed by (scenario seed, call counter), so a scenario and
seed replay to a bit-identical trace.  The counter advances on every camera
call, but a call's stream is built lazily, on its first draw: a frame that
draws nothing (no clutter, and no visible entity to miss or to add noise
to) builds no Generator, and a stream that is built is the eager one, drawn
in the same order.  The trace is a list of plain dicts with a stable schema;
``plan`` events carry the full candidate set so the greedy ordering can be
replayed from the trace alone.  A candidate is a pending landmark with a
viewpoint: a registered, pending landmark with no observed-free, reachable
point on its viewpoint ring yet is absent from ``candidates``, ``order``
and ``skipped`` alike, so a trace does not tell it from a non-landmark.

Within one ``run_episode`` call the loop reuses work it has already done.
The world is static and a sweep only writes true cell states, so a lidar
sweep from a point already swept in this episode is skipped.  The sweep is
the only code that writes the belief, and each one it runs drops the
traversable mask and distance field; until the next, they are reused,
read-only, while the robot stays in one cell.  The distance field serves
viewpoint choice, frontier choice and navigation alike, by one rule
(:func:`_nearest_by_travel`): each is answered on the field out to the lidar
range, which the sweep has just covered, and only when that finds nothing
on the whole field; a leg's path is walked down the field from its goal.
A bounded field gives the whole field's answer whenever it gives one, so
the rule changes no trace.  Across episodes one thing is reused:
the lidar's sweep geometry (each ray's crossing order), cached for the
whole process by :func:`~objsearch.world._sweep_geometry`.  It is a pure
function of its key (resolution, ray count, range, crossing count and the
pose's exact offsets to its cell's grid lines), so it reads nothing an
episode writes and cannot change a trace.

An :class:`EpisodeState` holds the episode's fixed inputs beside what the
loop builds from them, so each step takes the state and its own arguments.
An episode begins in :func:`start_state` and ends in :func:`_search`, or by
:class:`_BudgetSpent` once a leg ends over the travel budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from .assets import AssetContext
from .errors import DomainError, NoPathError
from .matching import (
    UNKNOWN_LABEL,
    TextEmbeddingStore,
    best_landmark_match,
    landmark_probability,
    matching_score,
    semantic_uncertainty,
)
from .metrics import iou_ioa
from .planning import (
    LandmarkEntry,
    Path,
    Viewpoint,
    distance_field,
    drivable_mask,
    generate_viewpoints,
    ground_truth_shortest,
    nearest_frontier,
    passes_thresholds,
    plan_path,
    plan_waypoints,
)
from .sensing import (
    CameraObservation,
    DetectionRecord,
    bbox_from_geometry,
    camera_observe,
    lidar_update,
    object_slack,
    observation_rng,
    project_detection,
    sighting,
)
from .world import CellState, GridMap, Pose, ScenarioSpec

IOU_CONFIRM = 0.3
IOA_CONFIRM = 0.5
MERGE_RADIUS_CELLS = 2.0  # sightings within 2 x resolution merge
_MAX_CYCLES = 10_000


@dataclass
class CandidatePatch:
    """A detection that matched the target phrase above the threshold."""

    detection: DetectionRecord
    score: float
    position: tuple[float, float]
    obs_pose: Pose


ConfirmFn = Callable[[CandidatePatch, ScenarioSpec], bool]


@dataclass
class _NavMaps:
    """Read-only planning layers for the current belief and one robot cell.

    The distance field is built on the first :meth:`field` read and kept
    with the reach it was built for, ``dist`` and ``reach``; a read that
    asks for no more reach gets that field, and one that asks for more
    rebuilds it.  A bounded field holds the whole field's value on every
    cell within its reach (:func:`~objsearch.planning.distance_field`)."""

    cell: tuple[int, int]
    trav: np.ndarray
    resolution: float
    reach: float = -math.inf  # no field yet
    dist: np.ndarray | None = None

    def field(self, reach: float) -> np.ndarray:
        """Travel distance field from the robot cell over ``trav``, out to at
        least ``reach`` metres."""
        if reach > self.reach:
            self.dist = distance_field(self.trav, self.resolution, self.cell, reach)
            self.dist.setflags(write=False)
            self.reach = reach
        return self.dist


@dataclass
class EpisodeState:
    # The episode's inputs, fixed from start_state on.
    scenario: ScenarioSpec
    ctx: AssetContext
    store: TextEmbeddingStore
    confirm_fn: ConfirmFn
    pose: Pose
    belief: GridMap
    seed: int
    registry: list[LandmarkEntry] = field(default_factory=list)
    candidates: list[CandidatePatch] = field(default_factory=list)
    traveled: float = 0.0
    waypoints_visited: int = 0
    obs_counter: int = 0
    confirm_cursor: int = 0  # candidates before this index are already judged
    trace: list[dict] = field(default_factory=list)
    # Per-episode reuse; see the module docstring.
    swept: set[tuple[float, float]] = field(default_factory=set)
    nav_maps: _NavMaps | None = None


@dataclass
class EpisodeResult:
    success: bool
    traveled: float
    shortest: float
    waypoints_visited: int
    trace: list[dict]


def _clean(value):
    """Coerce payload values to plain JSON-stable Python types."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, Pose):
        return [float(value.x), float(value.y), float(value.theta)]
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    return value


def _emit(state: EpisodeState, event: str, **payload) -> None:
    record = {"i": len(state.trace), "event": event}
    record.update({k: _clean(v) for k, v in payload.items()})
    state.trace.append(record)


def trace_to_jsonl(trace: Sequence[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in trace)


# --------------------------------------------------------------------------
# Observation processing
# --------------------------------------------------------------------------


class _LazyStream:
    """The camera stream of one frame, built on the frame's first draw.

    Stands in for the Generator ``observation_rng(seed, counter)`` returns:
    the first attribute looked up builds that Generator, and every lookup is
    forwarded to it, so the draws are the eager stream's draws.
    """

    def __init__(self, seed: int, counter: int) -> None:
        self._key = (seed, counter)
        self._rng = None

    def __getattr__(self, name: str):
        if self._rng is None:
            self._rng = observation_rng(*self._key)
        return getattr(self._rng, name)


def _next_rng(state: EpisodeState) -> _LazyStream:
    rng = _LazyStream(state.seed, state.obs_counter)
    state.obs_counter += 1
    return rng


def _target_cooccur(state: EpisodeState, name: str) -> float:
    scenario, ctx = state.scenario, state.ctx
    value = ctx.cooccurrence(scenario.target_phrase, name)
    # Flag the fallback once: the first name scored is registered at once.
    if not state.registry and scenario.target_phrase not in ctx.generations:
        _emit(state, "fallback_cooccurrence", target=scenario.target_phrase)
    return value


def _register_sighting(
    state: EpisodeState, name: str, position: tuple[float, float], sem_uncert: float,
    cooccur_value: float,
) -> None:
    merge_radius = MERGE_RADIUS_CELLS * state.scenario.map.resolution
    entry = next(
        (e for e in state.registry if math.dist(e.position, position) <= merge_radius), None
    )
    if entry is None:
        entry = LandmarkEntry(
            id=f"lm{len(state.registry):03d}",
            name=name,
            position=position,
            cooccur=cooccur_value,
            sem_uncert=sem_uncert,
        )
        state.registry.append(entry)
        event = "landmark_new"
    elif sem_uncert < entry.sem_uncert:
        entry.name = name
        entry.position = position
        entry.cooccur = cooccur_value
        entry.sem_uncert = sem_uncert
        event = "landmark_update"
    else:
        return
    _emit(
        state,
        event,
        id=entry.id,
        name=name,
        pos=list(position),
        cooccur=cooccur_value,
        sem_uncert=sem_uncert,
    )


def _process_observation(state: EpisodeState, obs: CameraObservation, scanning: bool) -> None:
    """Register the landmarks a frame shows and keep its target matches.

    A scan frame (``scanning``) does both for every detection; a pan view at
    a viewpoint only matches the detections of unknown label."""
    scenario, store = state.scenario, state.store
    hp = scenario.hyperparams
    unknown_names = scenario.unknown_landmark_names
    target_vec = store.get(scenario.target_phrase)
    for det in obs.detections:
        position = project_detection(det, obs.pose)
        if scanning:
            if det.label != UNKNOWN_LABEL:
                value = _target_cooccur(state, det.label)
                _register_sighting(state, det.label, position, 0.0, value)
            elif unknown_names:
                name, score = best_landmark_match(det.patch_embedding, unknown_names, store)
                if score > hp.m_t:
                    prob = landmark_probability(
                        det.patch_embedding, unknown_names, store, hp.temperature
                    )
                    value = _target_cooccur(state, name)
                    _register_sighting(state, name, position, semantic_uncertainty(prob), value)
        if scanning or det.label == UNKNOWN_LABEL:
            score = matching_score(target_vec, det.patch_embedding)
            if score > hp.m_t:
                state.candidates.append(
                    CandidatePatch(detection=det, score=score, position=position, obs_pose=obs.pose)
                )
                _emit(state, "candidate", score=score, pos=list(position), obs_pose=obs.pose)


def initial_scan(state: EpisodeState) -> None:
    """One lidar sweep plus a full camera rotation; registers landmarks and
    matches the target on every detection."""
    hp = state.scenario.hyperparams
    _sweep(state)
    detections = 0
    for h in range(hp.scan_headings):
        heading = 2.0 * math.pi * h / hp.scan_headings
        pose = Pose(state.pose.x, state.pose.y, heading)
        obs = camera_observe(state.scenario, state.store, pose, _next_rng(state))
        detections += len(obs.detections)
        _process_observation(state, obs, scanning=True)
    _emit(state, "scan", pose=state.pose, headings=hp.scan_headings, detections=detections)


# --------------------------------------------------------------------------
# Confirmation oracle
# --------------------------------------------------------------------------


def _confirm_candidate(cand: CandidatePatch, scenario: ScenarioSpec) -> bool:
    """Regenerate the target's ground-truth box from the candidate's pose and
    apply the IoU / IoA success rule."""
    target = scenario.target
    hp = scenario.hyperparams
    slack = object_slack(target, scenario.map.resolution)
    seen = sighting(scenario.map, hp, cand.obs_pose, target.position, slack)
    if seen is None:
        return False
    distance, rel = seen
    gt_box = bbox_from_geometry(rel, distance, target.radius, hp.fov)
    iou, ioa = iou_ioa(cand.detection.bbox, gt_box)
    return iou > IOU_CONFIRM or ioa > IOA_CONFIRM


def _judge_new_candidates(state: EpisodeState) -> bool:
    """Run confirmation on candidates not yet judged; True when one holds."""
    fresh = state.candidates[state.confirm_cursor :]
    if not fresh:
        return False
    results = [bool(state.confirm_fn(c, state.scenario)) for c in fresh]
    state.confirm_cursor = len(state.candidates)
    _emit(state, "confirm", results=results, success=any(results))
    return any(results)


# --------------------------------------------------------------------------
# Navigation
# --------------------------------------------------------------------------


def _current_cell(state: EpisodeState) -> tuple[int, int]:
    return state.belief.world_to_cell(state.pose.x, state.pose.y)


def _sweep(state: EpisodeState) -> None:
    """Lidar sweep from the current pose, unless this episode already swept
    from the same point: the repeat would write the same cells again.  A sweep
    that runs drops the planning layers built on the belief before it."""
    origin = (state.pose.x, state.pose.y)
    if origin not in state.swept:
        world, sensor = state.scenario.map, state.scenario.sensor
        lidar_update(state.belief, world, state.pose, sensor.lidar_rays, sensor.lidar_range)
        state.swept.add(origin)
        state.nav_maps = None


def _nav_maps(state: EpisodeState) -> _NavMaps:
    cell = _current_cell(state)
    if state.nav_maps is None or state.nav_maps.cell != cell:
        trav = drivable_mask(state.belief, cell, state.scenario.planner.robot_radius)
        trav.setflags(write=False)
        state.nav_maps = _NavMaps(cell, trav, state.belief.resolution)
    return state.nav_maps


_Answer = TypeVar("_Answer")


def _nearest_by_travel(
    state: EpisodeState, answer: Callable[[np.ndarray], _Answer | None]
) -> _Answer | None:
    """The one rule for questions asked by travel distance from the robot:
    ``answer`` on the distance field out to the lidar range, which the robot
    has just swept, and only if that finds nothing (None), on the whole
    field.  A field already built with more reach serves the first ask.

    Each question asked this way (the nearest frontier, a landmark's
    viewpoint, the path to a goal) gets on a bounded field the answer it
    gets on the whole field whenever it gets one there; the planning
    functions' docstrings say why."""
    maps = _nav_maps(state)
    found = answer(maps.field(state.scenario.sensor.lidar_range))
    if found is None and maps.reach < math.inf:
        found = answer(maps.field(math.inf))
    return found


def _path_on(dist: np.ndarray, goal: tuple[int, int], resolution: float) -> Path | None:
    """:func:`~objsearch.planning.plan_path` on ``dist``, or None where it
    finds no path."""
    try:
        return plan_path(dist, goal, resolution)
    except NoPathError:
        return None


def _walk(state: EpisodeState, path: Path) -> tuple[float, bool]:
    """Follow a planned path, refreshing lidar periodically.

    Returns (walked length, arrived).  Walking aborts early when a lidar
    refresh reveals the remainder of the path is no longer traversable.
    """
    interval = state.scenario.planner.step_interval
    res = state.belief.resolution
    cells = path.cells
    walked = 0.0
    for k in range(1, len(cells)):
        px, py = cells[k - 1]
        cx, cy = cells[k]
        step = (1.0 if abs(cx - px) + abs(cy - py) == 1 else math.sqrt(2.0)) * res
        wx, wy = state.belief.cell_to_world(cx, cy)
        state.pose = Pose(wx, wy, math.atan2(cy - py, cx - px))
        state.traveled += step
        walked += step
        last = k == len(cells) - 1
        if last or k % interval == 0:
            _sweep(state)
            if not last:
                trav = _nav_maps(state).trav
                if not all(trav[y, x] for x, y in cells[k + 1 :]):
                    return walked, False
    return walked, True


class _BudgetSpent(Exception):
    """A leg ended over the travel budget, which ends the episode."""


def _navigate(state: EpisodeState, goal: tuple[int, int]) -> bool:
    """Drive to a goal cell, replanning when newly seen obstacles intrude.

    Returns False when no path is left, at once when the goal is off the map
    or not drivable, where every field holds ``inf``; raises
    :class:`_BudgetSpent` once a leg ends over the travel budget."""
    fail_distance = state.scenario.hyperparams.fail_distance
    gx, gy = goal
    while True:
        if not (state.belief.in_bounds(gx, gy) and _nav_maps(state).trav[gy, gx]):
            return False
        path = _nearest_by_travel(state, lambda dist: _path_on(dist, goal, state.belief.resolution))
        if path is None:
            return False
        walked, arrived = _walk(state, path)
        _emit(state, "leg", to=list(goal), length=walked, traveled=state.traveled)
        if state.traveled > fail_distance:
            _emit(state, "budget_exceeded", traveled=state.traveled)
            raise _BudgetSpent
        if arrived:
            return True


# --------------------------------------------------------------------------
# Waypoint visits
# --------------------------------------------------------------------------


def _pan_offsets(count: int) -> list[float]:
    """0, +30deg, -30deg, +60deg, ... up to the requested view count."""
    offsets = [0.0]
    step = math.pi / 6.0
    j = 1
    while len(offsets) < count:
        offsets.append(j * step)
        if len(offsets) < count:
            offsets.append(-j * step)
        j += 1
    return offsets


def visit_waypoint(state: EpisodeState, vp: Viewpoint) -> bool:
    """Navigate to a viewpoint and sweep the camera for target matches;
    False when no path reaches it."""
    landmark = vp.landmark
    _emit(state, "visit_start", id=landmark.id, pose=vp.pose)
    goal = state.belief.world_to_cell(vp.pose.x, vp.pose.y)
    if not _navigate(state, goal):
        _emit(state, "abandon", id=landmark.id, reason="no_path")
        return False
    state.pose = vp.pose
    landmark.visited = True
    state.waypoints_visited += 1
    _emit(state, "arrive", id=landmark.id)
    for offset in _pan_offsets(state.scenario.hyperparams.pan_views):
        pose = Pose(vp.pose.x, vp.pose.y, vp.pose.theta + offset)
        obs = camera_observe(state.scenario, state.store, pose, _next_rng(state))
        _process_observation(state, obs, scanning=False)
    return True


def _plan_cycle(state: EpisodeState) -> list[Viewpoint]:
    """Generate viewpoints for pending landmarks, mark skipped those that fail
    the skip rule, and order the rest greedily.

    A pending landmark without a viewpoint yet (no observed-free, reachable
    ring point) is left out of the ``plan`` event; it stays pending, and a
    later cycle plans it once some ring point is.  A cycle with no pending
    landmark reads no distance field."""
    scenario = state.scenario
    hp = scenario.hyperparams
    candidates: list[Viewpoint] = []
    for entry in state.registry:
        if entry.visited or entry.skipped:
            continue
        vp = _nearest_by_travel(
            state, lambda dist: generate_viewpoints(state.belief, entry, scenario.planner, dist)
        )
        if vp is not None:
            candidates.append(vp)
            entry.skipped = not passes_thresholds(vp, hp)
    ordered = plan_waypoints(
        state.pose, [vp for vp in candidates if not vp.landmark.skipped], hp
    )
    _emit(
        state,
        "plan",
        candidates=[
            {
                "id": vp.landmark.id,
                "name": vp.landmark.name,
                "pose": vp.pose,
                "cooccur": vp.landmark.cooccur,
                "sem_uncert": vp.landmark.sem_uncert,
            }
            for vp in candidates
        ],
        order=[vp.landmark.id for vp in ordered],
        skipped=[vp.landmark.id for vp in candidates if vp.landmark.skipped],
    )
    return ordered


# --------------------------------------------------------------------------
# Episode loop
# --------------------------------------------------------------------------


def start_state(
    scenario: ScenarioSpec, ctx: AssetContext, seed: int | None, confirm_fn: ConfirmFn | None
) -> EpisodeState:
    """Where an episode begins: the robot at the scenario's start with an
    all-Unknown belief and an empty registry, and camera streams keyed by
    ``seed`` (the scenario's own when None).  ``confirm_fn`` None is
    :func:`_confirm_candidate`."""
    episode_seed = scenario.seed if seed is None else seed
    if episode_seed < 0:
        raise DomainError(f"episode seed {episode_seed} must be >= 0")
    grid = scenario.map
    return EpisodeState(
        scenario=scenario, ctx=ctx, store=ctx.text_store_for(scenario),
        confirm_fn=_confirm_candidate if confirm_fn is None else confirm_fn,
        pose=scenario.start,
        belief=GridMap(grid.width, grid.height, grid.resolution,
                       np.full(grid.cells.shape, CellState.UNKNOWN, dtype=np.uint8)),
        seed=episode_seed,
    )


def _search(state: EpisodeState) -> bool:
    """Alternate scanning, greedy waypoint visits with confirmation after
    every visit, and nearest-frontier exploration; True once a candidate is
    confirmed, False when there is nothing left to explore."""
    prev_progress: tuple | None = None
    for _ in range(_MAX_CYCLES):
        initial_scan(state)
        if _judge_new_candidates(state):
            return True
        progress = (
            int(np.count_nonzero(state.belief.cells)),  # known cells
            len(state.registry),
            round(state.traveled, 9),
            len(state.candidates),
            state.waypoints_visited,
        )
        if progress == prev_progress:
            _emit(state, "explore_exhausted", reason="no_progress")
            return False
        prev_progress = progress

        for vp in _plan_cycle(state):
            if visit_waypoint(state, vp) and _judge_new_candidates(state):
                return True

        frontier = _nearest_by_travel(
            state, lambda dist: nearest_frontier(state.belief, state.scenario.planner, dist)
        )
        if frontier is None:
            _emit(state, "explore_exhausted", reason="no_frontier")
            return False
        _emit(state, "frontier", goal=list(frontier.closest_cell),
              cells=len(frontier.cells), centroid=list(frontier.centroid))
        # No path or arrival both loop back to scanning; the progress guard
        # catches the case where nothing changed.
        _navigate(state, frontier.closest_cell)
    return False


def run_episode(
    scenario: ScenarioSpec, ctx: AssetContext, seed: int | None = None,
    confirm_fn: ConfirmFn | None = None,
) -> EpisodeResult:
    """Run one episode: :func:`_search` until a candidate is confirmed, the
    travel budget is spent, or there is nothing left to explore."""
    state = start_state(scenario, ctx, seed, confirm_fn)
    _emit(state, "episode_start", seed=state.seed, target=scenario.target_phrase,
          start=scenario.start)
    shortest = ground_truth_shortest(scenario)
    try:
        success = _search(state)
    except _BudgetSpent:
        success = False
    _emit(state, "episode_end", success=success, traveled=state.traveled,
          shortest=shortest if math.isfinite(shortest) else None,
          waypoints_visited=state.waypoints_visited)
    return EpisodeResult(success=success, traveled=state.traveled, shortest=shortest,
                         waypoints_visited=state.waypoints_visited, trace=state.trace)
