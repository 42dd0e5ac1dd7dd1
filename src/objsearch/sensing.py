"""Simulated sensors: lidar occupancy updates and synthetic open-set detections.

The lidar grows the robot's belief, a :class:`~objsearch.world.GridMap` that
starts all Unknown, from the scenario's ground-truth map; it only ever writes
true cell states, so known cells never change.

The camera stands in for a trained open-set detector.  Every landmark or
object that is in range, inside the field of view and not occluded yields a
detection whose patch embedding is its name embedding plus seeded noise.
Landmarks of the known class set keep their name as the label; everything
else is labelled unknown and must be named by text-image matching.
Everything is a pure function of (inputs, rng stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .matching import UNKNOWN_LABEL, TextEmbeddingStore, unit
from .world import CellState, GridMap, HyperParams, ObjectSpec, Pose, ScenarioSpec
from .world import _raycast_sweep, _walk, normalize_angle, raycast_batch

IMAGE_WIDTH = 640.0
IMAGE_HEIGHT = 480.0
MIN_BBOX_PX = 4.0
CLUTTER_SOURCE = "clutter"
_CLUTTER_RADIUS = 0.2
_CLUTTER_MIN_RANGE = 0.3


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixels on the virtual image plane."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.x_min < self.x_max <= IMAGE_WIDTH):
            raise DomainError(f"bbox x range [{self.x_min}, {self.x_max}] invalid")
        if not (0.0 <= self.y_min < self.y_max <= IMAGE_HEIGHT):
            raise DomainError(f"bbox y range [{self.y_min}, {self.y_max}] invalid")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class DetectionRecord:
    """One synthesized detection.  ``source_object`` is ground truth for the
    harness only; planner-facing code must not branch on it."""

    source_object: str
    label: str
    bbox: BBox
    patch_embedding: np.ndarray
    range: float
    bearing: float


@dataclass(frozen=True)
class CameraObservation:
    pose: Pose
    detections: tuple[DetectionRecord, ...] = field(default_factory=tuple)


def lidar_update(belief: GridMap, world: GridMap, pose: Pose, rays: int, max_range: float) -> None:
    """Sweep ``rays`` evenly spaced bearings, growing the belief map in place.

    Cells crossed before a hit become Free, hit cells become Occupied; known
    cells never revert to Unknown.  The cells are those :func:`raycast_batch`
    walks through, found for all rays at once in two halves: the geometry
    half, each ray's merged grid-line crossings, is read from a process-wide
    cache keyed on the pose's exact offsets to its cell's grid lines (with
    the resolution, ray count, range and crossing count), and only the map
    half, which cuts each ray at its first step off the map or onto an
    occupied cell, runs per sweep on a copy of the world inside a border of
    off-map cells.  The sweep writes the belief's cells in place, cell for
    cell of the world's, so the belief must have the world's width, height
    and resolution.
    """
    geometry = (world.width, world.height, world.resolution)
    if (belief.width, belief.height, belief.resolution) != geometry:
        raise DomainError(f"belief geometry (width, height, resolution) must be {geometry}")
    ix, iy = world.world_to_cell(pose.x, pose.y)
    if not world.in_bounds(ix, iy):
        raise DomainError(f"lidar pose ({pose.x}, {pose.y}) outside map bounds")
    if world.cells[iy, ix] != CellState.FREE.value:
        raise DomainError("lidar pose is inside an obstacle")
    _raycast_sweep(world, (pose.x, pose.y), rays, max_range, belief.cells)


def bbox_from_geometry(rel_bearing: float, distance: float, radius: float, fov: float) -> BBox:
    """Project an entity to a square image box with the angular-size model."""
    u_center = (0.5 - rel_bearing / fov) * IMAGE_WIDTH
    angular = 2.0 * math.atan2(radius, distance)
    width = min(max(angular / fov * IMAGE_WIDTH, MIN_BBOX_PX), IMAGE_WIDTH)
    height = min(width, IMAGE_HEIGHT)
    x_min = max(0.0, u_center - width / 2.0)
    x_max = min(IMAGE_WIDTH, u_center + width / 2.0)
    y_min = max(0.0, IMAGE_HEIGHT / 2.0 - height / 2.0)
    y_max = min(IMAGE_HEIGHT, IMAGE_HEIGHT / 2.0 + height / 2.0)
    return BBox(x_min, y_min, x_max, y_max)


def line_of_sight(
    world: GridMap,
    origin: tuple[float, float],
    point: tuple[float, float],
    slack: float,
) -> bool:
    """True when a ray to the point is not interrupted by foreign geometry.

    ``slack`` absorbs the entity's own extent: a hit within ``slack`` of the
    point (its own footprint face) still counts as visible.  A point at the
    origin is always seen.  The one ray is walked directly
    (:func:`~objsearch.world._walk`): its range and bearing come from
    ``math.hypot`` and ``math.atan2``, and its direction cosines from
    ``np.cos`` and ``np.sin``, as :func:`raycast_batch` takes them.
    """
    dx, dy = point[0] - origin[0], point[1] - origin[1]
    distance = math.hypot(dx, dy)
    if distance <= 0.0:
        return True
    bearing = math.atan2(dy, dx)
    dist, blocked = _walk(world, origin[0], origin[1], float(np.cos(bearing)),
                          float(np.sin(bearing)), distance)
    return not blocked or dist >= distance - slack


def object_slack(obj: ObjectSpec, resolution: float) -> float:
    """Occlusion slack of an object: its radius plus two cells."""
    return obj.radius + 2.0 * resolution


def sighting(
    grid: GridMap, hp: HyperParams, pose: Pose, point: tuple[float, float], slack: float
) -> tuple[float, float] | None:
    """The one sighting rule: (range, relative bearing) of a point the camera
    at ``pose`` sees, that is within ``(0, cam_range]``, inside the field of
    view and in :func:`line_of_sight`; None when it does not see it."""
    distance = math.hypot(point[0] - pose.x, point[1] - pose.y)
    if distance <= 0.0 or distance > hp.cam_range:
        return None
    rel = normalize_angle(math.atan2(point[1] - pose.y, point[0] - pose.x) - pose.theta)
    if abs(rel) > hp.fov / 2.0 or not line_of_sight(grid, (pose.x, pose.y), point, slack):
        return None
    return distance, rel


def camera_observe(
    scenario: ScenarioSpec,
    store: TextEmbeddingStore,
    pose: Pose,
    rng: np.random.Generator,
) -> CameraObservation:
    """Synthesize detections for every visible entity in the field of view.

    Deterministic for a fixed rng state: entities are processed in scenario
    order (landmarks, then objects, then clutter) and draws happen in a fixed
    order per detection.
    """
    grid = scenario.map
    ix, iy = grid.world_to_cell(pose.x, pose.y)
    if not grid.is_free(ix, iy):
        raise DomainError("camera pose is not in free space")
    hp = scenario.hyperparams
    sp = scenario.sensor
    res = grid.resolution

    detections: list[DetectionRecord] = []
    entities = [
        (lm.id, lm.name, lm.center, lm.radius, lm.known, lm.radius + res)
        for lm in scenario.landmarks
    ] + [
        (ob.id, ob.name, ob.position, ob.radius, False, object_slack(ob, res))
        for ob in scenario.objects
    ]
    for entity_id, name, center, radius, known, slack in entities:
        seen = sighting(grid, hp, pose, center, slack)
        if seen is None:
            continue
        distance, rel = seen
        if sp.p_miss > 0.0 and rng.random() < sp.p_miss:
            continue
        canonical = store.get(name)
        if sp.sigma_emb > 0.0:
            emb = unit(canonical + sp.sigma_emb * rng.standard_normal(canonical.shape[0]))
        else:
            emb = canonical
        detections.append(
            DetectionRecord(
                source_object=entity_id,
                label=name if known else UNKNOWN_LABEL,
                bbox=bbox_from_geometry(rel, distance, radius, hp.fov),
                patch_embedding=emb,
                range=distance,
                bearing=rel,
            )
        )

    for _ in range(sp.clutter):
        rel = rng.uniform(-hp.fov / 2.0, hp.fov / 2.0)
        bearing = np.array([pose.theta + rel])
        ray_dist, _ = raycast_batch(grid, (pose.x, pose.y), bearing, hp.cam_range)
        limit = float(ray_dist[0]) - res
        if limit <= _CLUTTER_MIN_RANGE:
            continue
        distance = rng.uniform(_CLUTTER_MIN_RANGE, limit)
        emb = unit(rng.standard_normal(store.get(scenario.target_phrase).shape[0]))
        detections.append(
            DetectionRecord(
                source_object=CLUTTER_SOURCE,
                label=UNKNOWN_LABEL,
                bbox=bbox_from_geometry(rel, distance, _CLUTTER_RADIUS, hp.fov),
                patch_embedding=emb,
                range=distance,
                bearing=rel,
            )
        )
    return CameraObservation(pose=pose, detections=tuple(detections))


def observation_rng(seed: int, counter: int) -> np.random.Generator:
    """Stream for one camera call; (seed, counter) keyed so traces replay."""
    return np.random.default_rng(np.random.SeedSequence([seed, counter]))


def project_detection(det: DetectionRecord, pose: Pose) -> tuple[float, float]:
    """World position of a detection from its range and bearing."""
    heading = pose.theta + det.bearing
    return pose.x + det.range * math.cos(heading), pose.y + det.range * math.sin(heading)
