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
from typing import Iterator

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

    Every cell a ray reaches takes the world's value: the pose's cell, and
    each ray's cells up to and including the first it stops on (occupied,
    or off the map) while it is in range.  So crossed cells become Free and
    hit cells Occupied, and known cells never revert to Unknown.  The cells
    are those :func:`raycast_batch` walks through, found for all rays at
    once.  What does not depend on the map comes from two process-wide
    caches: each ray's merged grid-line crossings, keyed on the pose's exact
    offsets to its cell's grid lines (with the resolution, ray count, range
    and crossing count), and the flat-index offsets of the cells they
    enter, keyed on that step pattern and the map's width.  Per sweep, on a
    copy of the world inside a border of off-map cells, each block of rays
    takes one add of the pose cell's index to the offsets, one clipped read
    of the map, one ``argmax`` for each ray's first stop and one masked mark
    of the cells up to it.  The sweep writes the belief's cells in place,
    cell for cell of the world's, so the belief must have the world's width,
    height and resolution.
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


class Sightlines:
    """Points as a camera at one position sees them, at any heading.

    The sighting rule in its two parts: each point's range, bearing and line
    of sight are worked out once, when the position is given, since none of
    them depends on the heading, and only the points within ``(0,
    cam_range]`` and in :func:`line_of_sight` are kept; :meth:`in_view`
    applies the field-of-view test per heading.  ``targets`` are ``(point,
    slack)`` pairs."""

    def __init__(
        self, grid: GridMap, hp: HyperParams, origin: tuple[float, float],
        targets: list[tuple[tuple[float, float], float]],
    ) -> None:
        x, y = origin
        self._half_fov = hp.fov / 2.0
        self._visible: list[tuple[int, float, float]] = []  # (index, range, bearing)
        for i, ((px, py), slack) in enumerate(targets):
            distance = math.hypot(px - x, py - y)
            if 0.0 < distance <= hp.cam_range and line_of_sight(grid, origin, (px, py), slack):
                self._visible.append((i, distance, math.atan2(py - y, px - x)))

    def in_view(self, heading: float) -> Iterator[tuple[int, float, float]]:
        """(index, range, relative bearing) of each visible target inside the
        field of view when the camera faces ``heading``, in order."""
        for i, distance, bearing in self._visible:
            rel = normalize_angle(bearing - heading)
            if abs(rel) <= self._half_fov:
                yield i, distance, rel


def _edge_range(grid: GridMap, x: float, y: float, bearing: float) -> float:
    """Range from (x, y), on the map, along ``bearing`` to the map's edge,
    where a lidar ray ends."""
    dx, dy = math.cos(bearing), math.sin(bearing)
    width, height = grid.size_meters
    return min(((width if dx > 0.0 else 0.0) - x) / dx if dx else math.inf,
               ((height if dy > 0.0 else 0.0) - y) / dy if dy else math.inf)


class CameraStop:
    """The camera at one stop position ``(x, y)``: :meth:`observe` makes the
    frame at any heading.  Which entities the stop sees, and at what range
    and bearing, is worked out once, when the stop is made
    (:class:`Sightlines`), so a frame does only its field-of-view tests and
    its draws.

    A frame's detections come from every visible entity in the field of view,
    then from its clutter: each clutter detection lies on a seeded bearing,
    at a seeded range from 0.3 m to one cell short of where its ray ends (an
    occupied cell, the camera's range or the map's edge), so it is always on
    the map.  Deterministic for a fixed rng state: entities are processed in
    scenario order (landmarks, then objects, then clutter) and draws happen
    in a fixed order per detection.
    """

    def __init__(self, scenario: ScenarioSpec, store: TextEmbeddingStore, x: float,
                 y: float) -> None:
        grid = scenario.map
        if not grid.is_free(*grid.world_to_cell(x, y)):
            raise DomainError("camera pose is not in free space")
        res = grid.resolution
        self._scenario, self._store, self._x, self._y = scenario, store, x, y
        self._entities = [
            (lm.id, lm.name, lm.radius, lm.known) for lm in scenario.landmarks
        ] + [(ob.id, ob.name, ob.radius, False) for ob in scenario.objects]
        self._sights = Sightlines(grid, scenario.hyperparams, (x, y), [
            (lm.center, lm.radius + res) for lm in scenario.landmarks
        ] + [(ob.position, object_slack(ob, res)) for ob in scenario.objects])

    def observe(self, heading: float, rng: np.random.Generator) -> CameraObservation:
        """The frame facing ``heading``, as the frame's :class:`Pose` stores
        it (normalised), with its draws from ``rng``."""
        scenario, store = self._scenario, self._store
        grid, hp, sp = scenario.map, scenario.hyperparams, scenario.sensor
        pose = Pose(self._x, self._y, heading)
        detections: list[DetectionRecord] = []
        for i, distance, rel in self._sights.in_view(pose.theta):
            entity_id, name, radius, known = self._entities[i]
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
            bearing = pose.theta + rel
            (ray,), _ = raycast_batch(grid, (self._x, self._y), np.array([bearing]), hp.cam_range)
            limit = min(float(ray), _edge_range(grid, self._x, self._y, bearing)) - grid.resolution
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


def camera_observe(
    scenario: ScenarioSpec,
    store: TextEmbeddingStore,
    pose: Pose,
    rng: np.random.Generator,
) -> CameraObservation:
    """Synthesize detections for every visible entity in the field of view:
    the one-frame case of :class:`CameraStop`, at the pose's position and
    heading."""
    return CameraStop(scenario, store, pose.x, pose.y).observe(pose.theta, rng)


def observation_rng(seed: int, counter: int) -> np.random.Generator:
    """Stream for one camera call; (seed, counter) keyed so traces replay."""
    return np.random.default_rng(np.random.SeedSequence([seed, counter]))


def project_detection(det: DetectionRecord, pose: Pose) -> tuple[float, float]:
    """World position of a detection from its range and bearing."""
    heading = pose.theta + det.bearing
    return pose.x + det.range * math.cos(heading), pose.y + det.range * math.sin(heading)
