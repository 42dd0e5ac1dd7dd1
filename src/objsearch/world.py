"""World model: occupancy grid, poses, scenario files, raycasting.

:class:`GridMap` is the one occupancy grid.  A scenario's map is the ground
truth and holds only Free and Occupied cells, read-only once the scenario is
built; the robot's belief is a writable grid of the same shape that starts
all Unknown and is grown by the lidar.

Scenario files are JSON documents with top-level keys ``map``, ``landmarks``,
``objects``, ``start``, ``target``, ``hyperparams``, ``sensor``, ``planner``
and ``seed``.  Unknown keys are rejected at every level so typos fail loudly.
Maps are ASCII art: ``.`` is free space, ``#`` is an obstacle, and the first
row of the document is the northernmost row (largest y).

Every JSON object that stands for a dataclass (a landmark, an object, a
config section, a suite config, an episode record) has the dataclass's
fields as its schema.  :func:`parse_fields` reads it: the field names are
the keys, a field without a default is required, and the field's annotation
picks the value's check.  :func:`fields_dict` writes it.

Value checks live in the dataclasses, so a spec built in code is as valid
as a parsed one: each landmark, object and config section checks its own
fields, and :class:`ScenarioSpec` checks what spans its parts (a fully known
map, unique ids, landmark footprints on occupied cells, one target, a free
start cell).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from enum import IntEnum
from functools import partial
from typing import Any

import numpy as np

from .errors import DomainError, SchemaError, ValidationError

TWO_PI = 2.0 * math.pi
_FREE_CHAR, _WALL_CHAR = ord("."), ord("#")  # map row characters
_ROW_CHARS = np.array([0, _FREE_CHAR, _WALL_CHAR], dtype=np.uint8)  # indexed by CellState


class CellState(IntEnum):
    """Unknown is 0, so the known cells of a grid are its nonzero ones."""

    UNKNOWN = 0
    FREE = 1
    OCCUPIED = 2


def normalize_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    wrapped = math.fmod(theta + math.pi, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


@dataclass(eq=False)
class GridMap:
    """Row-major grid of :class:`CellState` values; ``cells[iy, ix]`` with y
    growing northward."""

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
        if (cells > CellState.OCCUPIED).any():
            raise ValidationError("map.cells: cells must be Unknown, Free or Occupied")
        self.cells = cells

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.resolution == other.resolution
            and np.array_equal(self.cells, other.cells)
        )

    def __hash__(self) -> int:
        # Equal maps have equal geometry; the cells of a belief change in place.
        return hash((self.width, self.height, self.resolution))

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
        ragged = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
        # One byte per character; anything outside ASCII becomes "?".
        codes = np.frombuffer(
            "".join(rows[:ragged]).encode("ascii", errors="replace"), dtype=np.uint8
        ).reshape(ragged, width)
        bad_rows = ((codes != _FREE_CHAR) & (codes != _WALL_CHAR)).any(axis=1)
        if bad_rows.any():
            i = int(np.argmax(bad_rows))
            bad = set(rows[i]) - {".", "#"}
            raise ValidationError(f"map.rows[{i}]: unexpected characters {sorted(bad)}")
        if ragged < len(rows):
            row = rows[ragged]
            raise ValidationError(f"map.rows[{ragged}]: length {len(row)} != {width}")
        cells = np.where(codes[::-1] == _WALL_CHAR, CellState.OCCUPIED, CellState.FREE)
        return cls(width=width, height=len(rows), resolution=resolution, cells=cells)

    def to_rows(self) -> list[str]:
        """Inverse of :func:`from_rows`, for a map without Unknown cells."""
        if not self.cells.all():
            raise DomainError("map: Unknown cells have no row character")
        text = _ROW_CHARS[self.cells[::-1]].tobytes().decode("ascii")
        return [text[i : i + self.width] for i in range(0, len(text), self.width)]


@dataclass(frozen=True)
class Pose:
    """Planar pose; theta is stored normalized to [-pi, pi)."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))


@dataclass(frozen=True)
class LandmarkSpec:
    """A static landmark; ``known`` marks membership in the trained class set."""

    id: str
    name: str
    known: bool
    footprint: tuple[float, float, float, float]  # x0, y0, x1, y1 in meters

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValidationError(f"landmark {self.id}: name must be non-empty")
        x0, y0, x1, y1 = self.footprint
        if not (x0 < x1 and y0 < y1):
            raise ValidationError(f"landmark {self.id}: footprint must have positive area")

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

    def __post_init__(self) -> None:
        if not (self.radius > 0.0):
            raise ValidationError(f"object {self.id}: radius must be positive")


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

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "t_c", "t_u", "m_t"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"hyperparams.{name}: must be finite")
        if not self.fail_distance > 0:
            raise ValidationError("hyperparams.fail_distance: must be positive")
        if not self.temperature > 0:
            raise ValidationError("hyperparams.temperature: must be positive")
        if not (0 < self.fov <= TWO_PI):
            raise ValidationError("hyperparams.fov: must be in (0, 2*pi]")
        if not self.cam_range > 0:
            raise ValidationError("hyperparams.cam_range: must be positive")
        if self.scan_headings < 1 or self.pan_views < 1:
            raise ValidationError("hyperparams: scan_headings and pan_views must be >= 1")


@dataclass(frozen=True)
class SensorParams:
    """Synthetic-sensor knobs that are not part of the search hyperparameters."""

    lidar_rays: int = 360
    lidar_range: float = 3.5
    sigma_emb: float = 0.05  # noise scale added to canonical patch embeddings
    p_miss: float = 0.0  # probability of dropping a visible detection
    clutter: int = 0  # spurious detections added per camera frame

    def __post_init__(self) -> None:
        if self.lidar_rays < 1:
            raise ValidationError("sensor.lidar_rays: must be >= 1")
        if not (math.isfinite(self.lidar_range) and self.lidar_range > 0):
            raise ValidationError("sensor.lidar_range: must be positive and finite")
        if not 0.0 <= self.p_miss <= 1.0:
            raise ValidationError("sensor.p_miss: must be in [0, 1]")
        if self.clutter < 0:
            raise ValidationError("sensor.clutter: must be >= 0")
        if not (math.isfinite(self.sigma_emb) and self.sigma_emb >= 0):
            raise ValidationError("sensor.sigma_emb: must be non-negative and finite")


@dataclass(frozen=True)
class PlannerParams:
    view_radius: float = 1.5  # viewpoint ring radius around a landmark
    view_directions: int = 8  # candidate poses on the ring
    min_frontier_cells: int = 3
    robot_radius: float = 0.2  # obstacle inflation before path planning
    step_interval: int = 5  # cells between lidar refreshes while driving

    def __post_init__(self) -> None:
        if self.step_interval < 1:
            raise ValidationError("planner.step_interval: must be >= 1")
        if self.view_directions < 1:
            raise ValidationError("planner.view_directions: must be >= 1")
        if not (math.isfinite(self.robot_radius) and self.robot_radius >= 0):
            raise ValidationError("planner.robot_radius: must be non-negative and finite")


@dataclass(eq=True)
class ScenarioSpec:
    """A search scenario, valid once built: its parts check their own fields,
    and ``__post_init__`` checks what spans them and makes the map read-only."""

    map: GridMap
    landmarks: list[LandmarkSpec]
    objects: list[ObjectSpec]
    start: Pose
    target_phrase: str
    hyperparams: HyperParams = field(default_factory=HyperParams)
    sensor: SensorParams = field(default_factory=SensorParams)
    planner: PlannerParams = field(default_factory=PlannerParams)
    seed: int = 0

    def __post_init__(self) -> None:
        grid = self.map
        if not grid.cells.all():
            raise ValidationError("map.cells: cells must be Free or Occupied")
        grid.cells.setflags(write=False)
        w_m, h_m = grid.size_meters

        ids = [lm.id for lm in self.landmarks] + [o.id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ValidationError("scenario: landmark/object ids must be unique")

        for lm in self.landmarks:
            x0, y0, x1, y1 = lm.footprint
            if x0 < 0 or y0 < 0 or x1 > w_m or y1 > h_m:
                raise ValidationError(f"landmark {lm.id}: footprint outside map bounds")
            rows, cols, inside = _footprint_window(grid, lm.footprint)
            free = inside & (grid.cells[rows, cols] != CellState.OCCUPIED)
            if free.any():
                # The first free cell in row-major order.
                iy, ix = np.unravel_index(int(np.argmax(free)), free.shape)
                raise ValidationError(
                    f"landmark {lm.id}: footprint cell ({ix + cols.start}, {iy + rows.start}) "
                    "is not occupied in the map"
                )

        targets = [o for o in self.objects if o.is_target]
        if len(targets) != 1:
            raise ValidationError(
                f"scenario: expected exactly one target object, got {len(targets)}"
            )
        for ob in self.objects:
            ox, oy = ob.position
            if not (0.0 <= ox < w_m and 0.0 <= oy < h_m):
                raise ValidationError(f"object {ob.id}: position outside map bounds")
        if targets[0].name != self.target_phrase:
            raise ValidationError(
                f"scenario: target phrase {self.target_phrase!r} does not match "
                f"target object name {targets[0].name!r}"
            )

        six, siy = grid.world_to_cell(self.start.x, self.start.y)
        if not grid.in_bounds(six, siy):
            raise ValidationError("scenario.start: outside map bounds")
        if grid.cells[siy, six] != CellState.FREE:
            raise ValidationError("scenario.start: start cell is inside an obstacle")

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


_BLOCK_CROSSINGS = 1 << 16  # grid-line crossings traced together; bounds working memory


def raycast_batch(
    grid: GridMap,
    origin,
    bearings: np.ndarray,
    max_range,
    free_mask: np.ndarray | None = None,
    hit_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Trace many rays at once with a closed-form voxel traversal.

    ``origin`` is one (x, y) point shared by every ray or an (n, 2) array
    with one origin per ray; ``max_range`` is one range or one per ray.
    Returns (distances, blocked).  A ray's distance is the range at which it
    enters the first occupied cell, or its ``max_range`` if it leaves the map
    or exhausts its range first; a ray from an occupied cell is blocked at 0.
    When ``free_mask``/``hit_mask`` arrays are given, traversed free cells
    and hit cells (origin cells included) are flagged in them; this is what
    the lidar simulation uses to grow a belief map.

    The cells a ray visits are those of the Amanatides & Woo (1987) grid
    walk, taken in one pass instead of step by step: every vertical and
    horizontal grid-line crossing within range is computed up front (a
    cumulative sum, so the crossing ranges are bit-identical to stepping),
    the two sequences are merged with the vertical crossing first on ties,
    and each ray is cut at its first step outside the map or onto an
    occupied cell.  Both sequences are sorted, so the crossings within range
    form a prefix of the merge, and so do the steps inside the map: the
    kernel counts the in-range crossings on the unmerged runs, needs no
    running scan to cut a ray, and reads a crossing's range back only at
    each ray's hit step.  Every per-ray quantity is computed elementwise, so
    a ray's result does not depend on the other rays traced with it.
    """
    bearings = np.asarray(bearings, dtype=np.float64)
    n = bearings.shape[0]
    points = np.asarray(origin, dtype=np.float64).reshape(-1, 2)
    cell = np.floor(points / grid.resolution)
    inside = ((cell >= 0) & (cell < (grid.width, grid.height))).all(axis=1)
    if not inside.all():
        bad = tuple(points[np.argmin(inside)].tolist())
        raise DomainError(f"raycast origin {bad} outside map bounds")
    ix0, iy0 = cell.astype(np.int64).T
    occupied = grid.cells[iy0, ix0] == CellState.OCCUPIED
    if hit_mask is not None:
        hit_mask[iy0[occupied], ix0[occupied]] = True
    if free_mask is not None:
        free_mask[iy0[~occupied], ix0[~occupied]] = True
    # Each ray's origin row (row 0 for a shared origin).  Rays from occupied
    # cells stop where they start; the others are traced.
    row = np.broadcast_to(np.arange(len(points)), (n,))
    live = np.flatnonzero(~occupied[row])
    row = row[live]
    reach = np.broadcast_to(np.asarray(max_range, dtype=np.float64), (n,))[live]
    dist = np.zeros(n)
    blocked = np.ones(n, dtype=bool)
    if live.size:
        dist[live], blocked[live] = _trace(
            grid, points[row, 0], points[row, 1], ix0[row], iy0[row], bearings[live], reach,
            free_mask, hit_mask,
        )
    return dist, blocked


def _trace(grid, x0, y0, ix0, iy0, bearings, max_range, free_mask, hit_mask):
    """Trace rays from free origin cells, in blocks of bounded working memory."""
    n = bearings.shape[0]
    dist = max_range.copy()
    blocked = np.zeros(n, dtype=bool)
    # Crossings per axis that can matter: every one within range (the first
    # lies within one cell, later ones at least a cell apart; two spare ones
    # absorb rounding), but no more than it takes to leave the map.  Rays
    # traced together share the count of the longest range (the map's size
    # if a range is NaN); spare crossings lie beyond a ray's range or
    # outside the map and never reach its result.
    longest = float(max_range.max())
    limit = min(float(max(grid.width, grid.height)), longest / grid.resolution + 3.0)
    crossings = int(max(1.0, limit))
    block = max(1, _BLOCK_CROSSINGS // (2 * crossings))
    for lo in range(0, n, block):
        hi = lo + block
        _trace_block(grid, x0[lo:hi], y0[lo:hi], ix0[lo:hi], iy0[lo:hi], bearings[lo:hi],
                     max_range[lo:hi], crossings, dist[lo:hi], blocked[lo:hi],
                     free_mask, hit_mask)
    return dist, blocked


def _trace_block(grid, x0, y0, ix0, iy0, bearings, max_range, crossings,
                 dist, blocked, free_mask, hit_mask) -> None:
    """Trace one block of rays, writing into the ``dist``/``blocked`` views.

    Each crossing run starts at its first crossing and adds a positive
    spacing, so it is sorted, and so is the merge of the two.  The crossings
    within a ray's range are therefore a prefix of the merged sequence, and
    its length is the count of in-range crossings in the unmerged runs.  The
    walk moves monotonically in x and in y, so a ray that leaves the map
    never comes back, and the steps inside the map are a prefix as well.
    A ray's free cells are the steps before its hit (or exit) step, and the
    range is read back only at that step.
    """
    res = grid.resolution
    width = grid.width
    n = bearings.shape[0]
    # A ray takes at most 2 * crossings <= 2 * side steps, so its cell
    # coordinates lie in [-2 side, 3 side] and its flat cell index below
    # 6 side**2 in magnitude: int32 holds it whenever this bound does.
    index = np.int32 if 16 * max(width, grid.height) ** 2 < 2**31 else np.int64
    dx = np.cos(bearings)
    dy = np.sin(bearings)
    step_x = np.sign(dx).astype(index)
    step_y = np.sign(dy).astype(index)
    with np.errstate(divide="ignore"):
        inv_dx = np.where(dx != 0.0, 1.0 / dx, np.inf)
        inv_dy = np.where(dy != 0.0, 1.0 / dy, np.inf)
    # Range along each ray to its first vertical / horizontal grid line, then
    # to every later one: the walk's running ``tmax += tdelta`` as a cumsum.
    with np.errstate(invalid="ignore"):
        tmax_x = np.where(step_x != 0, ((ix0 + (step_x > 0)) * res - x0) * inv_dx, np.inf)
        tmax_y = np.where(step_y != 0, ((iy0 + (step_y > 0)) * res - y0) * inv_dy, np.inf)
    t = np.empty((n, 2, crossings))
    t[:, 0, 0] = tmax_x
    t[:, 0, 1:] = np.where(step_x != 0, res * np.abs(inv_dx), np.inf)[:, None]
    t[:, 1, 0] = tmax_y
    t[:, 1, 1:] = np.where(step_y != 0, res * np.abs(inv_dy), np.inf)[:, None]
    np.cumsum(t, axis=2, out=t)
    t = t.reshape(n, 2 * crossings)
    within = np.count_nonzero(t <= max_range[:, None], axis=1)
    steps = int(within.max())
    if steps == 0:
        return
    # Merge: a stable sort of two sorted runs puts the x crossing first on
    # ties, as the walk does.  Only the first ``steps`` merged crossings count.
    order = np.argsort(t, axis=1, kind="stable")[:, :steps]
    nx = np.cumsum(order < crossings, axis=1, dtype=index)
    ix = ix0.astype(index)[:, None] + step_x[:, None] * nx
    ny = np.arange(1, steps + 1, dtype=index) - nx
    iy = iy0.astype(index)[:, None] + step_y[:, None] * ny
    alive = ((np.arange(steps) < within[:, None]) & (ix >= 0) & (ix < width)
             & (iy >= 0) & (iy < grid.height))
    cell = iy * width + ix
    # Steps that are not alive may index any cell, or none; clipping keeps
    # the read in bounds and ``alive`` discards it.
    occupied = alive & (np.take(grid.cells, cell, mode="clip") == CellState.OCCUPIED)
    first = np.argmax(occupied, axis=1)
    hit = occupied[np.arange(n), first]
    rows = np.flatnonzero(hit)
    hit_step = first[rows]
    # The walk enters a cell at min(tmax_x, tmax_y), which is tmax_y on a tie;
    # the two differ only in the sign of a zero, which only the first step
    # can have.
    dist[rows] = np.where(hit_step == 0, np.minimum(tmax_x[rows], tmax_y[rows]),
                          t[rows, order[rows, hit_step]])
    blocked[rows] = True
    if hit_mask is not None:
        np.put(hit_mask, cell[rows, hit_step], True)
    if free_mask is not None:
        stop = np.where(hit, first, np.count_nonzero(alive, axis=1))
        np.put(free_mask, cell[np.arange(steps) < stop[:, None]], True)


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


def _numbers(value: Any, where: str, count: int) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise SchemaError(f"{where}: expected {count} numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


# The check for each field annotation (a string: annotations are postponed).
_FIELD_PARSERS = {
    "int": _integer,
    "float": _number,
    "str": _string,
    "bool": _boolean,
    "tuple[str, ...]": _strings,
    "tuple[float, float]": partial(_numbers, count=2),
    "tuple[float, float, float, float]": partial(_numbers, count=4),
}


def parse_fields(cls: type, doc: Any, where: str, parsers: dict | None = None):
    """Build the dataclass ``cls`` from a JSON object keyed by its field names.

    Unknown keys are rejected and a field without a default is required.
    Each given value passes the check its field's annotation picks from
    ``_FIELD_PARSERS``, unless ``parsers`` maps the field name to its own.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    spec_fields = fields(cls)
    _reject_unknown(doc, {f.name for f in spec_fields}, where)
    parsers = parsers or {}
    kwargs = {}
    for f in spec_fields:
        if f.name in doc:
            parse = parsers.get(f.name) or _FIELD_PARSERS[f.type]
            kwargs[f.name] = parse(doc[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise SchemaError(f"{where}.{f.name} required")
    return cls(**kwargs)


def fields_dict(obj) -> dict:
    """The JSON object of a dataclass that :func:`parse_fields` reads back;
    tuples are written as lists."""
    values = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


def _parse_section(cls: type, value: Any, where: str):
    """A config section: an object of ``cls``'s fields, or ``null`` for all defaults."""
    return parse_fields(cls, {} if value is None else value, where)


def _parse_list(doc: dict, key: str, cls: type) -> list:
    entries = _require(doc, key, "scenario")
    if not isinstance(entries, list):
        raise SchemaError(f"scenario.{key}: expected a list")
    return [parse_fields(cls, e, f"scenario.{key}[{i}]") for i, e in enumerate(entries)]


def parse_scenario(doc: dict) -> ScenarioSpec:
    """Check a scenario document's schema and build the spec, which checks its
    values; see module docstring."""
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

    landmarks = _parse_list(doc, "landmarks", LandmarkSpec)
    objects = _parse_list(doc, "objects", ObjectSpec)
    start = Pose(*_numbers(_require(doc, "start", "scenario"), "scenario.start", 3))
    if "target" not in doc:
        raise SchemaError("target_phrase required")
    target_phrase = _string(doc["target"], "scenario.target")
    hyper = _parse_section(HyperParams, doc.get("hyperparams"), "scenario.hyperparams")
    sensor = _parse_section(SensorParams, doc.get("sensor"), "scenario.sensor")
    planner = _parse_section(PlannerParams, doc.get("planner"), "scenario.planner")
    seed = _integer(doc.get("seed", 0), "scenario.seed")
    if seed < 0:
        raise SchemaError("scenario.seed: must be non-negative")
    return ScenarioSpec(
        grid, landmarks, objects, start, target_phrase, hyper, sensor, planner, seed
    )


def _footprint_window(
    grid: GridMap, footprint: tuple[float, float, float, float]
) -> tuple[slice, slice, np.ndarray]:
    """(rows, cols, inside): the grid window around a footprint rectangle and
    the mask of window cells whose center lies inside it."""
    x0, y0, x1, y1 = footprint
    res = grid.resolution
    ix0 = max(0, int(math.floor(x0 / res)))
    iy0 = max(0, int(math.floor(y0 / res)))
    ix1 = min(grid.width - 1, int(math.floor(x1 / res)))
    iy1 = min(grid.height - 1, int(math.floor(y1 / res)))
    cx = (np.arange(ix0, ix1 + 1) + 0.5) * res
    cy = (np.arange(iy0, iy1 + 1) + 0.5) * res
    inside = ((y0 <= cy) & (cy <= y1))[:, None] & ((x0 <= cx) & (cx <= x1))[None, :]
    return slice(iy0, iy1 + 1), slice(ix0, ix1 + 1), inside


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """Inverse of :func:`parse_scenario` (defaults are written out explicitly)."""
    return {
        "map": {"rows": spec.map.to_rows(), "resolution": spec.map.resolution},
        "landmarks": [fields_dict(lm) for lm in spec.landmarks],
        "objects": [fields_dict(ob) for ob in spec.objects],
        "start": [spec.start.x, spec.start.y, spec.start.theta],
        "target": spec.target_phrase,
        "hyperparams": fields_dict(spec.hyperparams),
        "sensor": fields_dict(spec.sensor),
        "planner": fields_dict(spec.planner),
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
