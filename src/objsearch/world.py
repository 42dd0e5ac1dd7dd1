"""Ground-truth world model: occupancy grid, poses, scenario files, raycasting.

Scenario files are JSON documents with top-level keys ``map``, ``landmarks``,
``objects``, ``start``, ``target``, ``hyperparams``, ``sensor``, ``planner``
and ``seed``.  Unknown keys are rejected at every level so typos fail loudly.
Maps are ASCII art: ``.`` is free space, ``#`` is an obstacle, and the first
row of the document is the northernmost row (largest y).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Any, NamedTuple

import numpy as np

from .errors import DomainError, SchemaError, ValidationError

TWO_PI = 2.0 * math.pi


class CellState(IntEnum):
    FREE = 0
    OCCUPIED = 1


def normalize_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    wrapped = math.fmod(theta + math.pi, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


@dataclass(eq=False)
class GridMap:
    """Row-major occupancy grid; ``cells[iy, ix]`` with y growing northward."""

    width: int
    height: int
    resolution: float
    cells: np.ndarray

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValidationError("map: width and height must be >= 1")
        if not (self.resolution > 0.0) or not math.isfinite(self.resolution):
            raise ValidationError("map.resolution: must be a positive finite number")
        cells = np.asarray(self.cells, dtype=np.uint8)
        if cells.shape != (self.height, self.width):
            raise ValidationError(
                f"map.cells: expected shape {(self.height, self.width)}, got {cells.shape}"
            )
        if not np.isin(cells, (CellState.FREE, CellState.OCCUPIED)).all():
            raise ValidationError("map.cells: cells must be Free or Occupied")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.resolution == other.resolution
            and np.array_equal(self.cells, other.cells)
        )

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.width and 0 <= iy < self.height

    def is_free(self, ix: int, iy: int) -> bool:
        return self.in_bounds(ix, iy) and self.cells[iy, ix] == CellState.FREE

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        return int(math.floor(x / self.resolution)), int(math.floor(y / self.resolution))

    def cell_to_world(self, ix: int, iy: int) -> tuple[float, float]:
        """World coordinates of the cell center."""
        return (ix + 0.5) * self.resolution, (iy + 0.5) * self.resolution

    @property
    def size_meters(self) -> tuple[float, float]:
        return self.width * self.resolution, self.height * self.resolution

    @classmethod
    def from_rows(cls, rows: list[str], resolution: float) -> "GridMap":
        """Build a grid from ASCII rows (first row = northernmost)."""
        if not rows:
            raise ValidationError("map.rows: must contain at least one row")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValidationError(f"map.rows[{i}]: length {len(row)} != {width}")
            bad = set(row) - {".", "#"}
            if bad:
                raise ValidationError(f"map.rows[{i}]: unexpected characters {sorted(bad)}")
        cells = np.array(
            [[1 if ch == "#" else 0 for ch in row] for row in reversed(rows)],
            dtype=np.uint8,
        )
        return cls(width=width, height=len(rows), resolution=resolution, cells=cells)

    def to_rows(self) -> list[str]:
        return [
            "".join("#" if c else "." for c in row) for row in reversed(self.cells.tolist())
        ]


@dataclass(frozen=True)
class Pose:
    """Planar pose; theta is stored normalized to [-pi, pi)."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))

    def distance_to(self, other: "Pose") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class LandmarkSpec:
    """A static landmark; ``known`` marks membership in the trained class set."""

    id: str
    name: str
    known: bool
    footprint: tuple[float, float, float, float]  # x0, y0, x1, y1 in meters

    @property
    def center(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.footprint
        return 0.5 * (x0 + x1), 0.5 * (y0 + y1)

    @property
    def radius(self) -> float:
        """Radius of the circumscribed circle of the footprint."""
        x0, y0, x1, y1 = self.footprint
        return 0.5 * math.hypot(x1 - x0, y1 - y0)


@dataclass(frozen=True)
class ObjectSpec:
    id: str
    name: str
    position: tuple[float, float]
    radius: float
    is_target: bool = False


@dataclass(frozen=True)
class HyperParams:
    """Search weights, thresholds and camera sweep settings."""

    lambda1: float = 1.0  # co-occurrence weight in the viewpoint cost
    lambda2: float = 0.05  # semantic-uncertainty weight in the viewpoint cost
    t_c: float = 0.2  # skip viewpoints with co-occurrence below this
    t_u: float = 2.5  # skip viewpoints with semantic uncertainty above this
    m_t: float = 29.0  # text-image matching threshold (100 x cosine scale)
    temperature: float = 1.0  # softmax temperature for landmark-name probabilities
    fail_distance: float = 50.0  # episode fails once traveled distance exceeds this
    fov: float = math.radians(60.0)
    cam_range: float = 3.5
    scan_headings: int = 12
    pan_views: int = 3


@dataclass(frozen=True)
class SensorParams:
    """Synthetic-sensor knobs that are not part of the search hyperparameters."""

    lidar_rays: int = 360
    lidar_range: float = 3.5
    sigma_emb: float = 0.05  # noise scale added to canonical patch embeddings
    p_miss: float = 0.0  # probability of dropping a visible detection
    clutter: int = 0  # spurious detections added per camera frame


@dataclass(frozen=True)
class PlannerParams:
    view_radius: float = 1.5  # viewpoint ring radius around a landmark
    view_directions: int = 8  # candidate poses on the ring
    min_frontier_cells: int = 3
    robot_radius: float = 0.2  # obstacle inflation before path planning
    step_interval: int = 5  # cells between lidar refreshes while driving
    detect_en_route: bool = False


@dataclass(eq=True)
class ScenarioSpec:
    """A fully validated search scenario."""

    map: GridMap
    landmarks: list[LandmarkSpec]
    objects: list[ObjectSpec]
    start: Pose
    target_phrase: str
    hyperparams: HyperParams = field(default_factory=HyperParams)
    sensor: SensorParams = field(default_factory=SensorParams)
    planner: PlannerParams = field(default_factory=PlannerParams)
    seed: int = 0

    @property
    def target(self) -> ObjectSpec:
        return next(o for o in self.objects if o.is_target)

    @property
    def unknown_landmark_names(self) -> list[str]:
        """Unknown-landmark name list, in scenario order without duplicates."""
        seen: list[str] = []
        for lm in self.landmarks:
            if not lm.known and lm.name not in seen:
                seen.append(lm.name)
        return seen

    def entity_names(self) -> list[str]:
        names = [lm.name for lm in self.landmarks] + [o.name for o in self.objects]
        names.append(self.target_phrase)
        out: list[str] = []
        for n in names:
            if n not in out:
                out.append(n)
        return out


class RayHit(NamedTuple):
    distance: float
    blocked: bool


def raycast_batch(
    grid: GridMap,
    origin: tuple[float, float],
    bearings: np.ndarray,
    max_range: float,
    free_mask: np.ndarray | None = None,
    hit_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Trace many rays at once with an integer grid walk.

    Returns (distances, blocked).  A ray's distance is the range at which it
    enters the first occupied cell, or ``max_range`` if it leaves the map or
    exhausts its range first.  When ``free_mask``/``hit_mask`` arrays are
    given, traversed free cells and hit cells are flagged in them; this is
    what the lidar simulation uses to grow a belief map.
    """
    x0, y0 = float(origin[0]), float(origin[1])
    ix0, iy0 = grid.world_to_cell(x0, y0)
    if not grid.in_bounds(ix0, iy0):
        raise DomainError(f"raycast origin {origin} outside map bounds")
    bearings = np.asarray(bearings, dtype=np.float64)
    n = bearings.shape[0]
    dist = np.full(n, float(max_range))
    blocked = np.zeros(n, dtype=bool)
    if grid.cells[iy0, ix0] == CellState.OCCUPIED:
        if hit_mask is not None:
            hit_mask[iy0, ix0] = True
        return np.zeros(n), np.ones(n, dtype=bool)
    if free_mask is not None:
        free_mask[iy0, ix0] = True

    res = grid.resolution
    dx = np.cos(bearings)
    dy = np.sin(bearings)
    step_x = np.sign(dx).astype(np.int64)
    step_y = np.sign(dy).astype(np.int64)
    with np.errstate(divide="ignore"):
        inv_dx = np.where(dx != 0.0, 1.0 / dx, np.inf)
        inv_dy = np.where(dy != 0.0, 1.0 / dy, np.inf)
    ix = np.full(n, ix0, dtype=np.int64)
    iy = np.full(n, iy0, dtype=np.int64)
    # Range along each ray to its next vertical / horizontal grid line.
    with np.errstate(invalid="ignore"):
        tmax_x = np.where(step_x != 0, ((ix + (step_x > 0)) * res - x0) * inv_dx, np.inf)
        tmax_y = np.where(step_y != 0, ((iy + (step_y > 0)) * res - y0) * inv_dy, np.inf)
    tdelta_x = np.where(step_x != 0, res * np.abs(inv_dx), np.inf)
    tdelta_y = np.where(step_y != 0, res * np.abs(inv_dy), np.inf)

    active = np.ones(n, dtype=bool)
    cells = grid.cells
    while active.any():
        t_entry = np.minimum(tmax_x, tmax_y)
        active &= t_entry <= max_range
        if not active.any():
            break
        go_x = active & (tmax_x <= tmax_y)
        go_y = active & ~go_x
        ix[go_x] += step_x[go_x]
        tmax_x[go_x] += tdelta_x[go_x]
        iy[go_y] += step_y[go_y]
        tmax_y[go_y] += tdelta_y[go_y]
        inside = (ix >= 0) & (ix < grid.width) & (iy >= 0) & (iy < grid.height)
        active &= inside
        if not active.any():
            break
        hit = active.copy()
        hit[active] = cells[iy[active], ix[active]] == CellState.OCCUPIED
        if hit.any():
            dist[hit] = t_entry[hit]
            blocked[hit] = True
            if hit_mask is not None:
                hit_mask[iy[hit], ix[hit]] = True
            active &= ~hit
        if free_mask is not None and active.any():
            free_mask[iy[active], ix[active]] = True
    return dist, blocked


def raycast(
    grid: GridMap, origin: tuple[float, float], bearing: float, max_range: float
) -> RayHit:
    """Trace a single ray; see :func:`raycast_batch` for semantics."""
    dist, blocked = raycast_batch(grid, origin, np.array([bearing]), max_range)
    return RayHit(float(dist[0]), bool(blocked[0]))


# --------------------------------------------------------------------------
# Scenario document parsing
# --------------------------------------------------------------------------

_TOP_KEYS = {
    "map",
    "landmarks",
    "objects",
    "start",
    "target",
    "hyperparams",
    "sensor",
    "planner",
    "seed",
}


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _require(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise SchemaError(f"{where}.{key} required")
    return doc[key]


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(value).__name__}")
    return float(value)


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a string, got {type(value).__name__}")
    return value


def _strings(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list of strings")
    return tuple(_string(v, f"{where}[{i}]") for i, v in enumerate(value))


def _boolean(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where}: expected a boolean, got {type(value).__name__}")
    return value


def _numbers(value: Any, count: int, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise SchemaError(f"{where}: expected {count} numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _parse_config(doc: Any, cls: type, where: str):
    """Fill a frozen config dataclass from a partial dict, rejecting unknowns."""
    if doc is None:
        return cls()
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    spec_fields = {f.name: f for f in fields(cls)}
    _reject_unknown(doc, set(spec_fields), where)
    kwargs = {}
    for name, value in doc.items():
        target_type = spec_fields[name].type
        if target_type == "bool":
            kwargs[name] = _boolean(value, f"{where}.{name}")
        elif target_type == "int":
            kwargs[name] = _integer(value, f"{where}.{name}")
        else:
            kwargs[name] = _number(value, f"{where}.{name}")
    return cls(**kwargs)


def parse_scenario(doc: dict) -> ScenarioSpec:
    """Validate a scenario document and build the spec; see module docstring."""
    if not isinstance(doc, dict):
        raise SchemaError("scenario: expected a JSON object at top level")
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    map_doc = _require(doc, "map", "scenario")
    if not isinstance(map_doc, dict):
        raise SchemaError("scenario.map: expected an object")
    _reject_unknown(map_doc, {"rows", "resolution"}, "scenario.map")
    rows = _strings(_require(map_doc, "rows", "scenario.map"), "scenario.map.rows")
    resolution = _number(_require(map_doc, "resolution", "scenario.map"), "scenario.map.resolution")
    grid = GridMap.from_rows(rows, resolution)

    landmarks_doc = _require(doc, "landmarks", "scenario")
    if not isinstance(landmarks_doc, list):
        raise SchemaError("scenario.landmarks: expected a list")
    landmarks: list[LandmarkSpec] = []
    for i, lm in enumerate(landmarks_doc):
        where = f"scenario.landmarks[{i}]"
        if not isinstance(lm, dict):
            raise SchemaError(f"{where}: expected an object")
        _reject_unknown(lm, {"id", "name", "known", "footprint"}, where)
        landmarks.append(
            LandmarkSpec(
                id=_string(_require(lm, "id", where), f"{where}.id"),
                name=_string(_require(lm, "name", where), f"{where}.name"),
                known=_boolean(_require(lm, "known", where), f"{where}.known"),
                footprint=_numbers(_require(lm, "footprint", where), 4, f"{where}.footprint"),
            )
        )

    objects_doc = _require(doc, "objects", "scenario")
    if not isinstance(objects_doc, list):
        raise SchemaError("scenario.objects: expected a list")
    objects: list[ObjectSpec] = []
    for i, ob in enumerate(objects_doc):
        where = f"scenario.objects[{i}]"
        if not isinstance(ob, dict):
            raise SchemaError(f"{where}: expected an object")
        _reject_unknown(ob, {"id", "name", "position", "radius", "is_target"}, where)
        objects.append(
            ObjectSpec(
                id=_string(_require(ob, "id", where), f"{where}.id"),
                name=_string(_require(ob, "name", where), f"{where}.name"),
                position=_numbers(_require(ob, "position", where), 2, f"{where}.position"),
                radius=_number(_require(ob, "radius", where), f"{where}.radius"),
                is_target=_boolean(ob.get("is_target", False), f"{where}.is_target"),
            )
        )

    start_vals = _numbers(_require(doc, "start", "scenario"), 3, "scenario.start")
    start = Pose(*start_vals)

    if "target" not in doc:
        raise SchemaError("target_phrase required")
    target_phrase = _string(doc["target"], "scenario.target")

    hyper = _parse_config(doc.get("hyperparams"), HyperParams, "scenario.hyperparams")
    sensor = _parse_config(doc.get("sensor"), SensorParams, "scenario.sensor")
    planner = _parse_config(doc.get("planner"), PlannerParams, "scenario.planner")

    seed = doc.get("seed", 0)
    seed = _integer(seed, "scenario.seed")
    if seed < 0:
        raise SchemaError("scenario.seed: must be non-negative")

    spec = ScenarioSpec(
        map=grid,
        landmarks=landmarks,
        objects=objects,
        start=start,
        target_phrase=target_phrase,
        hyperparams=hyper,
        sensor=sensor,
        planner=planner,
        seed=seed,
    )
    _validate_scenario(spec)
    return spec


def _validate_scenario(spec: ScenarioSpec) -> None:
    grid = spec.map
    w_m, h_m = grid.size_meters

    ids = [lm.id for lm in spec.landmarks] + [o.id for o in spec.objects]
    if len(ids) != len(set(ids)):
        raise ValidationError("scenario: landmark/object ids must be unique")

    for lm in spec.landmarks:
        if not lm.name.strip():
            raise ValidationError(f"landmark {lm.id}: name must be non-empty")
        x0, y0, x1, y1 = lm.footprint
        if not (x0 < x1 and y0 < y1):
            raise ValidationError(f"landmark {lm.id}: footprint must have positive area")
        if x0 < 0 or y0 < 0 or x1 > w_m or y1 > h_m:
            raise ValidationError(f"landmark {lm.id}: footprint outside map bounds")
        for ix, iy in footprint_cells(grid, lm.footprint):
            if grid.cells[iy, ix] != CellState.OCCUPIED:
                raise ValidationError(
                    f"landmark {lm.id}: footprint cell ({ix}, {iy}) is not occupied in the map"
                )

    targets = [o for o in spec.objects if o.is_target]
    if len(targets) != 1:
        raise ValidationError(f"scenario: expected exactly one target object, got {len(targets)}")
    for ob in spec.objects:
        if not (ob.radius > 0.0):
            raise ValidationError(f"object {ob.id}: radius must be positive")
        ox, oy = ob.position
        if not (0.0 <= ox < w_m and 0.0 <= oy < h_m):
            raise ValidationError(f"object {ob.id}: position outside map bounds")
    if targets[0].name != spec.target_phrase:
        raise ValidationError(
            f"scenario: target phrase {spec.target_phrase!r} does not match "
            f"target object name {targets[0].name!r}"
        )

    six, siy = grid.world_to_cell(spec.start.x, spec.start.y)
    if not grid.in_bounds(six, siy):
        raise ValidationError("scenario.start: outside map bounds")
    if grid.cells[siy, six] != CellState.FREE:
        raise ValidationError("scenario.start: start cell is inside an obstacle")

    hp = spec.hyperparams
    for name in ("lambda1", "lambda2", "t_c", "t_u", "m_t"):
        if not math.isfinite(getattr(hp, name)):
            raise ValidationError(f"hyperparams.{name}: must be finite")
    if not hp.fail_distance > 0:
        raise ValidationError("hyperparams.fail_distance: must be positive")
    if not hp.temperature > 0:
        raise ValidationError("hyperparams.temperature: must be positive")
    if not (0 < hp.fov <= TWO_PI):
        raise ValidationError("hyperparams.fov: must be in (0, 2*pi]")
    if not hp.cam_range > 0:
        raise ValidationError("hyperparams.cam_range: must be positive")
    if hp.scan_headings < 1 or hp.pan_views < 1:
        raise ValidationError("hyperparams: scan_headings and pan_views must be >= 1")


def footprint_cells(grid: GridMap, footprint: tuple[float, float, float, float]):
    """Yield (ix, iy) for every cell whose center lies inside the rectangle."""
    x0, y0, x1, y1 = footprint
    res = grid.resolution
    ix0 = max(0, int(math.floor(x0 / res)))
    iy0 = max(0, int(math.floor(y0 / res)))
    ix1 = min(grid.width - 1, int(math.floor(x1 / res)))
    iy1 = min(grid.height - 1, int(math.floor(y1 / res)))
    for iy in range(iy0, iy1 + 1):
        for ix in range(ix0, ix1 + 1):
            cx, cy = grid.cell_to_world(ix, iy)
            if x0 <= cx <= x1 and y0 <= cy <= y1:
                yield ix, iy


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """Inverse of :func:`parse_scenario` (defaults are written out explicitly)."""
    return {
        "map": {"rows": spec.map.to_rows(), "resolution": spec.map.resolution},
        "landmarks": [
            {
                "id": lm.id,
                "name": lm.name,
                "known": lm.known,
                "footprint": list(lm.footprint),
            }
            for lm in spec.landmarks
        ],
        "objects": [
            {
                "id": ob.id,
                "name": ob.name,
                "position": list(ob.position),
                "radius": ob.radius,
                "is_target": ob.is_target,
            }
            for ob in spec.objects
        ],
        "start": [spec.start.x, spec.start.y, spec.start.theta],
        "target": spec.target_phrase,
        "hyperparams": {f.name: getattr(spec.hyperparams, f.name) for f in fields(HyperParams)},
        "sensor": {f.name: getattr(spec.sensor, f.name) for f in fields(SensorParams)},
        "planner": {f.name: getattr(spec.planner, f.name) for f in fields(PlannerParams)},
        "seed": spec.seed,
    }


def serialize_scenario(spec: ScenarioSpec) -> str:
    return json.dumps(scenario_to_dict(spec), indent=2, sort_keys=True)


def load_scenario(source: str) -> ScenarioSpec:
    """Parse a scenario from JSON text."""
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario: invalid JSON ({exc})") from exc
    return parse_scenario(doc)


def load_scenario_file(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())
