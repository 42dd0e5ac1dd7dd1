"""Episode execution: scan, plan, visit, confirm, explore, repeat.

One episode owns its belief map and rng stream exclusively.  Every camera
call uses a stream keyed by (scenario seed, call counter), so a scenario and
seed replay to a bit-identical trace.  The counter advances on every camera
call, but a call's stream is built lazily, on its first draw: a frame that
draws nothing (no clutter, and no visible entity to miss or to add noise
to) builds no Generator, and a stream that is built is the eager one, drawn
in the same order.  The trace is a list of plain dicts with a stable schema;
``plan`` events carry the full candidate set so the greedy ordering can be
replayed from the trace alone.

Within one ``run_episode`` call the loop reuses work it has already done.
The world is static and a sweep only writes true cell states, so a lidar
sweep from a point already swept in this episode is skipped.  The sweep is
the only code that writes the belief, and each one it runs drops the
traversable mask and distance field; until the next, they are reused,
read-only, while the robot stays in one cell.  Nothing is reused across
episodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .assets import AssetContext
from .errors import DomainError, NoPathError
from .knowledge import cooccurrence
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


@dataclass
class _NavMaps:
    """Read-only planning layers for the current belief and one robot cell."""

    cell: tuple[int, int]
    trav: np.ndarray
    dist: np.ndarray | None = None


@dataclass
class EpisodeState:
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
    fallback_flagged: bool = False
    cooccur_by_name: dict[str, float] = field(default_factory=dict)  # with the target phrase
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


ConfirmFn = Callable[[CandidatePatch, ScenarioSpec], bool]


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


def _target_cooccur(
    state: EpisodeState, scenario: ScenarioSpec, ctx: AssetContext, name: str
) -> float:
    known = state.cooccur_by_name
    if name not in known:
        known[name] = cooccurrence(scenario.target_phrase, name, ctx.generations, ctx.words)
        if scenario.target_phrase not in ctx.generations and not state.fallback_flagged:
            state.fallback_flagged = True
            _emit(state, "fallback_cooccurrence", target=scenario.target_phrase)
    return known[name]


def _register_sighting(
    state: EpisodeState,
    scenario: ScenarioSpec,
    name: str,
    position: tuple[float, float],
    sem_uncert: float,
    cooccur_value: float,
) -> None:
    merge_radius = MERGE_RADIUS_CELLS * scenario.map.resolution
    for entry in state.registry:
        if math.dist(entry.position, position) <= merge_radius:
            if sem_uncert < entry.sem_uncert:
                entry.name = name
                entry.position = position
                entry.cooccur = cooccur_value
                entry.sem_uncert = sem_uncert
                _emit(
                    state,
                    "landmark_update",
                    id=entry.id,
                    name=name,
                    pos=list(position),
                    cooccur=cooccur_value,
                    sem_uncert=sem_uncert,
                )
            return
    entry = LandmarkEntry(
        id=f"lm{len(state.registry):03d}",
        name=name,
        position=position,
        cooccur=cooccur_value,
        sem_uncert=sem_uncert,
    )
    state.registry.append(entry)
    _emit(
        state,
        "landmark_new",
        id=entry.id,
        name=name,
        pos=list(position),
        cooccur=cooccur_value,
        sem_uncert=sem_uncert,
    )


def _process_observation(
    state: EpisodeState,
    scenario: ScenarioSpec,
    ctx: AssetContext,
    store: TextEmbeddingStore,
    obs: CameraObservation,
    scanning: bool,
) -> None:
    """Register the landmarks a frame shows and keep its target matches.

    A scan frame (``scanning``) does both for every detection; a pan view at
    a viewpoint only matches the detections of unknown label."""
    hp = scenario.hyperparams
    unknown_names = scenario.unknown_landmark_names
    target_vec = store.get(scenario.target_phrase)
    for det in obs.detections:
        position = project_detection(det, obs.pose)
        if scanning:
            if det.label != UNKNOWN_LABEL:
                value = _target_cooccur(state, scenario, ctx, det.label)
                _register_sighting(state, scenario, det.label, position, 0.0, value)
            elif unknown_names:
                name, score = best_landmark_match(det.patch_embedding, unknown_names, store)
                if score > hp.m_t:
                    prob = landmark_probability(
                        det.patch_embedding, unknown_names, store, hp.temperature
                    )
                    value = _target_cooccur(state, scenario, ctx, name)
                    _register_sighting(
                        state, scenario, name, position, semantic_uncertainty(prob), value
                    )
        if scanning or det.label == UNKNOWN_LABEL:
            score = matching_score(target_vec, det.patch_embedding)
            if score > hp.m_t:
                state.candidates.append(
                    CandidatePatch(detection=det, score=score, position=position, obs_pose=obs.pose)
                )
                _emit(state, "candidate", score=score, pos=list(position), obs_pose=obs.pose)


def initial_scan(
    state: EpisodeState,
    scenario: ScenarioSpec,
    ctx: AssetContext,
    store: TextEmbeddingStore,
) -> None:
    """One lidar sweep plus a full camera rotation; registers landmarks and
    matches the target on every detection."""
    hp = scenario.hyperparams
    _sweep(state, scenario)
    detections = 0
    for h in range(hp.scan_headings):
        heading = 2.0 * math.pi * h / hp.scan_headings
        obs = camera_observe(
            scenario, store, Pose(state.pose.x, state.pose.y, heading), _next_rng(state)
        )
        detections += len(obs.detections)
        _process_observation(state, scenario, ctx, store, obs, scanning=True)
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


def _judge_new_candidates(
    state: EpisodeState, scenario: ScenarioSpec, confirm_fn: ConfirmFn
) -> CandidatePatch | None:
    """Run confirmation on candidates not yet judged; return the first hit."""
    fresh = state.candidates[state.confirm_cursor :]
    if not fresh:
        return None
    results = [bool(confirm_fn(c, scenario)) for c in fresh]
    state.confirm_cursor = len(state.candidates)
    _emit(state, "confirm", results=results, success=any(results))
    for cand, ok in zip(fresh, results):
        if ok:
            return cand
    return None


# --------------------------------------------------------------------------
# Navigation
# --------------------------------------------------------------------------


def _current_cell(state: EpisodeState) -> tuple[int, int]:
    return state.belief.world_to_cell(state.pose.x, state.pose.y)


def _sweep(state: EpisodeState, scenario: ScenarioSpec) -> None:
    """Lidar sweep from the current pose, unless this episode already swept
    from the same point: the repeat would write the same cells again.  A sweep
    that runs drops the planning layers built on the belief before it."""
    origin = (state.pose.x, state.pose.y)
    if origin not in state.swept:
        lidar_update(state.belief, scenario.map, state.pose, scenario.sensor.lidar_rays,
                     scenario.sensor.lidar_range)
        state.swept.add(origin)
        state.nav_maps = None


def _nav_maps(state: EpisodeState, scenario: ScenarioSpec) -> _NavMaps:
    cell = _current_cell(state)
    if state.nav_maps is None or state.nav_maps.cell != cell:
        trav = drivable_mask(state.belief, cell, scenario.planner.robot_radius)
        trav.setflags(write=False)
        state.nav_maps = _NavMaps(cell, trav)
    return state.nav_maps


def _traversable_now(state: EpisodeState, scenario: ScenarioSpec) -> np.ndarray:
    """Drivable mask for the current belief and robot cell."""
    return _nav_maps(state, scenario).trav


def _distance_now(state: EpisodeState, scenario: ScenarioSpec) -> np.ndarray:
    """Travel distance field from the robot cell over the traversable mask."""
    maps = _nav_maps(state, scenario)
    if maps.dist is None:
        maps.dist = distance_field(maps.trav, state.belief.resolution, [maps.cell])
        maps.dist.setflags(write=False)
    return maps.dist


def _walk(
    state: EpisodeState, scenario: ScenarioSpec, path: Path
) -> tuple[float, bool]:
    """Follow a planned path, refreshing lidar periodically.

    Returns (walked length, arrived).  Walking aborts early when a lidar
    refresh reveals the remainder of the path is no longer traversable.
    """
    planner = scenario.planner
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
        if last or k % planner.step_interval == 0:
            _sweep(state, scenario)
            if not last:
                trav = _traversable_now(state, scenario)
                if not all(trav[y, x] for x, y in cells[k + 1 :]):
                    return walked, False
    return walked, True


class _NavOutcome(Enum):
    ARRIVED = "arrived"
    NO_PATH = "no_path"
    BUDGET = "budget"


def _navigate(state: EpisodeState, scenario: ScenarioSpec, goal: tuple[int, int]) -> _NavOutcome:
    """Drive to a goal cell, replanning when newly seen obstacles intrude."""
    hp = scenario.hyperparams
    while True:
        trav = _traversable_now(state, scenario)
        try:
            path = plan_path(state.belief, _current_cell(state), goal, trav)
        except NoPathError:
            return _NavOutcome.NO_PATH
        walked, arrived = _walk(state, scenario, path)
        _emit(state, "leg", to=list(goal), length=walked, traveled=state.traveled)
        if state.traveled > hp.fail_distance:
            _emit(state, "budget_exceeded", traveled=state.traveled)
            return _NavOutcome.BUDGET
        if arrived:
            return _NavOutcome.ARRIVED


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


def visit_waypoint(
    state: EpisodeState,
    scenario: ScenarioSpec,
    ctx: AssetContext,
    store: TextEmbeddingStore,
    vp: Viewpoint,
) -> _NavOutcome:
    """Navigate to a viewpoint and sweep the camera for target matches."""
    landmark = vp.landmark
    _emit(state, "visit_start", id=landmark.id, pose=vp.pose)
    goal = state.belief.world_to_cell(vp.pose.x, vp.pose.y)
    outcome = _navigate(state, scenario, goal)
    if outcome is _NavOutcome.NO_PATH:
        _emit(state, "abandon", id=landmark.id, reason="no_path")
        return outcome
    if outcome is _NavOutcome.BUDGET:
        return outcome
    state.pose = vp.pose
    landmark.visited = True
    state.waypoints_visited += 1
    _emit(state, "arrive", id=landmark.id)
    for offset in _pan_offsets(scenario.hyperparams.pan_views):
        obs = camera_observe(
            scenario, store,
            Pose(vp.pose.x, vp.pose.y, vp.pose.theta + offset),
            _next_rng(state),
        )
        _process_observation(state, scenario, ctx, store, obs, scanning=False)
    return _NavOutcome.ARRIVED


def _plan_cycle(state: EpisodeState, scenario: ScenarioSpec) -> list[Viewpoint]:
    """Generate viewpoints for pending landmarks, mark skipped those that fail
    the skip rule, and order the rest greedily."""
    hp = scenario.hyperparams
    trav = _traversable_now(state, scenario)
    dist = _distance_now(state, scenario)
    candidates: list[Viewpoint] = []
    for entry in state.registry:
        if entry.visited or entry.skipped:
            continue
        vp = generate_viewpoints(state.belief, entry, scenario.planner, trav, dist)
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


def run_episode(
    scenario: ScenarioSpec,
    ctx: AssetContext | None = None,
    seed: int | None = None,
    confirm_fn: ConfirmFn | None = None,
) -> EpisodeResult:
    """Execute the full search loop on one scenario.

    The loop alternates scanning, greedy waypoint visits with confirmation
    after every visit, and nearest-frontier exploration, until a candidate is
    confirmed, the travel budget is exhausted, or there is nothing left to
    explore.
    """
    if ctx is None:
        ctx = AssetContext.load()
    if confirm_fn is None:
        confirm_fn = _confirm_candidate
    store = ctx.text_store_for(scenario)
    episode_seed = scenario.seed if seed is None else seed
    if episode_seed < 0:
        raise DomainError(f"episode seed {episode_seed} must be >= 0")

    grid = scenario.map
    state = EpisodeState(
        pose=scenario.start,
        belief=GridMap(grid.width, grid.height, grid.resolution,
                       np.full(grid.cells.shape, CellState.UNKNOWN, dtype=np.uint8)),
        seed=episode_seed,
    )
    _emit(state, "episode_start", seed=episode_seed, target=scenario.target_phrase,
          start=scenario.start)
    shortest = ground_truth_shortest(scenario)

    success = False
    prev_progress: tuple | None = None
    for _ in range(_MAX_CYCLES):
        initial_scan(state, scenario, ctx, store)
        if _judge_new_candidates(state, scenario, confirm_fn) is not None:
            success = True
            break
        progress = (
            int(np.count_nonzero(state.belief.cells)),  # known cells
            len(state.registry),
            round(state.traveled, 9),
            len(state.candidates),
            state.waypoints_visited,
        )
        if progress == prev_progress:
            _emit(state, "explore_exhausted", reason="no_progress")
            break
        prev_progress = progress

        ordered = _plan_cycle(state, scenario)
        stop = False
        for vp in ordered:
            outcome = visit_waypoint(state, scenario, ctx, store, vp)
            if outcome is _NavOutcome.BUDGET:
                stop = True
                break
            if outcome is _NavOutcome.NO_PATH:
                continue
            if _judge_new_candidates(state, scenario, confirm_fn) is not None:
                success = True
                stop = True
                break
        if stop:
            break

        frontier = nearest_frontier(
            state.belief, scenario.planner, _distance_now(state, scenario)
        )
        if frontier is None:
            _emit(state, "explore_exhausted", reason="no_frontier")
            break
        _emit(state, "frontier", goal=list(frontier.closest_cell),
              cells=len(frontier.cells), centroid=list(frontier.centroid))
        outcome = _navigate(state, scenario, frontier.closest_cell)
        if outcome is _NavOutcome.BUDGET:
            break
        # NO_PATH or arrival both loop back to scanning; the progress guard
        # catches the case where nothing changed.

    _emit(
        state,
        "episode_end",
        success=success,
        traveled=state.traveled,
        shortest=None if not math.isfinite(shortest) else shortest,
        waypoints_visited=state.waypoints_visited,
    )
    return EpisodeResult(
        success=success,
        traveled=state.traveled,
        shortest=shortest,
        waypoints_visited=state.waypoints_visited,
        trace=state.trace,
    )
