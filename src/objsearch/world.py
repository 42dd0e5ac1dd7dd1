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

Every JSON document is read by :func:`parse_fields` from the dataclass it
stands for (a scenario, a landmark, an object, a config section, a suite
config, a batch config, an episode record).  A field's key is its name
unless the field declares another in its ``metadata`` (``ScenarioSpec``'s
``target_phrase`` is written ``target``), a field without a default is
required, and the value passes the field's declared ``parser`` or else the
check its annotation picks.  The scenario's map, start pose, landmark and
object lists and config sections each have an annotation entry.
:func:`fields_dict` writes a dataclass's object back, and
:func:`scenario_to_dict` a whole scenario.

Value checks live in the dataclasses, so a spec built in code is as valid
as a parsed one: each landmark, object and config section checks its own
fields, and :class:`ScenarioSpec` checks what spans its parts (a fully known
map, a robot narrower than the map, unique ids, landmark footprints on
occupied cells, one target, a free start cell).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from enum import IntEnum
from functools import lru_cache, partial
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DomainError, SchemaError, ValidationError

TWO_PI = 2.0 * math.pi
_FREE_CHAR, _WALL_CHAR = ord("."), ord("#")  # map row characters
_ROW_CHARS = np.array([0, _FREE_CHAR, _WALL_CHAR], dtype=np.uint8)  # indexed by CellState


class CellState(IntEnum):
    """Unknown is 0, so the known cells of a grid are its nonzero ones.

    Compare arrays with a member's ``value``: NumPy compares a 140x140
    array with the member itself about ten times more slowly."""

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
        if (cells > CellState.OCCUPIED.value).any():
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
        return self.in_bounds(ix, iy) and self.cells[iy, ix] == CellState.FREE.value

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
        if not (math.isfinite(self.view_radius) and self.view_radius > 0):
            raise ValidationError("planner.view_radius: must be positive and finite")


def _check_start(*values: float) -> tuple[float, ...]:
    """The start pose's (x, y, theta), once each is known to be finite."""
    if not all(math.isfinite(v) for v in values):
        raise ValidationError("scenario.start: x, y and heading must be finite")
    return values


@dataclass(eq=True)
class ScenarioSpec:
    """A search scenario, valid once built: its parts check their own fields,
    and ``__post_init__`` checks what spans them and makes the map read-only."""

    map: GridMap
    landmarks: list[LandmarkSpec]
    objects: list[ObjectSpec]
    start: Pose
    target_phrase: str = field(metadata={"key": "target"})
    hyperparams: HyperParams = field(default_factory=HyperParams)
    sensor: SensorParams = field(default_factory=SensorParams)
    planner: PlannerParams = field(default_factory=PlannerParams)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError("scenario.seed: must be non-negative")
        grid = self.map
        if not grid.cells.all():
            raise ValidationError("map.cells: cells must be Free or Occupied")
        grid.cells.setflags(write=False)
        w_m, h_m = grid.size_meters
        if 2.0 * self.planner.robot_radius >= min(w_m, h_m):
            raise ValidationError(
                f"planner.robot_radius: the robot must fit in the map "
                f"(2 * radius < its shorter side, {min(w_m, h_m)} m)"
            )

        ids = [lm.id for lm in self.landmarks] + [o.id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ValidationError("scenario: landmark/object ids must be unique")

        for lm in self.landmarks:
            x0, y0, x1, y1 = lm.footprint
            if x0 < 0 or y0 < 0 or x1 > w_m or y1 > h_m:
                raise ValidationError(f"landmark {lm.id}: footprint outside map bounds")
            rows, cols = _footprint_window(grid, lm.footprint)
            free = grid.cells[rows, cols] != CellState.OCCUPIED.value
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

        _check_start(self.start.x, self.start.y, self.start.theta)
        six, siy = grid.world_to_cell(self.start.x, self.start.y)
        if not grid.in_bounds(six, siy):
            raise ValidationError("scenario.start: outside map bounds")
        if grid.cells[siy, six] != CellState.FREE.value:
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
_OFF_MAP = 3  # border cell of a sweep's padded map; above OCCUPIED, so a ray stops on it
# Sweep geometries kept: an entry is under 3 KB at the default sensor, and 24
# episodes sweep from 117 distinct offsets on 14 m maps and 172 on 20 m maps.
_SWEEP_CACHE_SIZE = 512


def raycast_batch(
    grid: GridMap, origin: tuple[float, float], bearings: np.ndarray, max_range: float
) -> tuple[np.ndarray, np.ndarray]:
    """Trace rays from one (x, y) ``origin``, out to one ``max_range``, one
    at a time with :func:`_walk`.

    The origin must lie on the map, also when no ray is cast.  Returns
    (distances, blocked), each ray's :func:`_walk` from its direction
    cosines, ``np.cos`` and ``np.sin`` of the bearings array.
    """
    x, y = float(origin[0]), float(origin[1])
    _origin_cell(grid, x, y)
    bearings = np.asarray(bearings, dtype=np.float64)
    reach = float(max_range)
    rays = [_walk(grid, x, y, dx, dy, reach)
            for dx, dy in zip(np.cos(bearings).tolist(), np.sin(bearings).tolist())]
    return (np.array([d for d, _ in rays], dtype=np.float64),
            np.array([b for _, b in rays], dtype=bool))


def _origin_cell(grid: GridMap, x: float, y: float) -> tuple[int, int]:
    """The cell of a ray's origin, which must lie on the map."""
    gx, gy = x / grid.resolution, y / grid.resolution
    if not (0.0 <= gx < grid.width and 0.0 <= gy < grid.height):
        raise DomainError(f"raycast origin {(float(x), float(y))} outside map bounds")
    return int(gx), int(gy)


def _walk(grid: GridMap, x: float, y: float, dx: float, dy: float,
          max_range: float) -> tuple[float, bool]:
    """(distance, blocked) of one ray from (x, y) with direction cosines
    (``dx``, ``dy``): the range at which it enters the first occupied cell,
    or ``max_range`` if it leaves the map or exhausts its range first.  A
    ray from an occupied cell is blocked at 0.

    The Amanatides & Woo (1987) grid walk, one grid-line crossing per step.
    Each axis's crossing ranges start at its first grid line and add the
    spacing ``res / |cosine|`` (the cumulative sum :func:`_step_order`
    takes).  The walk takes the nearer crossing, the vertical one on a tie,
    while it is within range, and enters the next cell at the smaller
    range, the horizontal one on a tie: the two differ only in the sign of a
    zero, which only the first step can have.  A ray within range crosses
    at most :func:`_crossing_count` grid lines per axis, which bounds the
    steps.
    """
    ix, iy = _origin_cell(grid, x, y)
    cells, occupied = memoryview(grid.cells), CellState.OCCUPIED.value
    if cells[iy, ix] == occupied:
        return 0.0, True
    res = grid.resolution
    step_x = 1 if dx > 0.0 else -1
    step_y = 1 if dy > 0.0 else -1
    tx = span_x = ty = span_y = math.inf
    if dx != 0.0:
        inv = 1.0 / dx
        tx, span_x = ((ix + (dx > 0.0)) * res - x) * inv, res * abs(inv)
    if dy != 0.0:
        inv = 1.0 / dy
        ty, span_y = ((iy + (dy > 0.0)) * res - y) * inv, res * abs(inv)
    width, height = grid.width, grid.height
    for _ in range(2 * _crossing_count(grid, max_range)):
        t = tx if tx < ty else ty
        if not t <= max_range:
            break
        if tx <= ty:
            ix += step_x
            if not 0 <= ix < width:
                break
            tx += span_x
        else:
            iy += step_y
            if not 0 <= iy < height:
                break
            ty += span_y
        if cells[iy, ix] == occupied:
            return t, True
    return max_range, False


def _crossing_count(grid: GridMap, longest: float) -> int:
    """Crossings per axis that can matter for rays up to ``longest`` long.

    Every crossing within range counts (the first lies within one cell,
    later ones at least a cell apart; two spare ones absorb rounding), but
    no more than it takes to leave the map (the map's size if the range is
    NaN).  Spare crossings lie beyond a ray's range or outside the map and
    never reach its result.
    """
    limit = min(float(max(grid.width, grid.height)), longest / grid.resolution + 3.0)
    return int(max(1.0, limit))


def _blocks(n: int, crossings: int) -> list[slice]:
    """Slices of ``n`` rays of a sweep traced together, bounding working memory."""
    block = max(1, _BLOCK_CROSSINGS // (2 * crossings))
    return [slice(lo, lo + block) for lo in range(0, n, block)]


def _step_order(res, gap_x, gap_y, dx, dy, max_range, crossings):
    """Geometry half: each ray's merged grid-line crossings, up to its range.

    ``dx``/``dy`` are each ray's direction cosines, and ``gap_x``/``gap_y``
    the signed distances along x and y from its origin (x, y), in cell
    (ix, iy), to the first grid lines it crosses: ``(ix + 1) * res - x`` or
    ``ix * res - x`` by the sign of ``dx``, and likewise in y.  The origin
    is read through them alone, so origins with equal offsets give
    bit-identical crossings.  The crossing ranges are those :func:`_walk`
    steps through, x run then y run, ``crossings`` each.  Returns the merged
    ``order`` of the first ``steps`` crossings (an index below ``crossings``
    is an x step) and ``within``, each ray's count of crossings within
    ``max_range``.

    Each crossing run starts at its first crossing and adds a positive
    spacing, so it is sorted, and so is the merge of the two.  The crossings
    within a ray's range are therefore a prefix of the merged sequence, and
    its length is the count of in-range crossings in the unmerged runs.
    """
    n = dx.shape[0]
    with np.errstate(divide="ignore"):
        inv_dx = np.where(dx != 0.0, 1.0 / dx, np.inf)
        inv_dy = np.where(dy != 0.0, 1.0 / dy, np.inf)
    # Range along each ray to its first vertical / horizontal grid line, then
    # to every later one: the walk's running ``tmax += tdelta`` as a cumsum.
    t = np.empty((n, 2, crossings))
    with np.errstate(invalid="ignore"):
        t[:, 0, 0] = np.where(dx != 0.0, gap_x * inv_dx, np.inf)
        t[:, 1, 0] = np.where(dy != 0.0, gap_y * inv_dy, np.inf)
    t[:, 0, 1:] = np.where(dx != 0.0, res * np.abs(inv_dx), np.inf)[:, None]
    t[:, 1, 1:] = np.where(dy != 0.0, res * np.abs(inv_dy), np.inf)[:, None]
    np.cumsum(t, axis=2, out=t)
    t = t.reshape(n, 2 * crossings)
    within = np.count_nonzero(t <= max_range, axis=1)
    # Merge: a stable sort of two sorted runs puts the x crossing first on
    # ties, as the walk does.  Only the first ``steps`` merged crossings count.
    steps = int(within.max())
    order = np.argsort(t, axis=1, kind="stable")[:, :steps]
    return order, within


def _cut_rays(padded, ix0, iy0, dx, dy, x_step, within):
    """Map half: cut each ray at its first step off the map or onto an
    occupied cell.

    ``padded`` is the map inside a one-cell border of :data:`_OFF_MAP`,
    ``ix0``/``iy0`` the origin cell on the map, ``dx``/``dy`` each ray's
    direction cosines, ``x_step`` (rays, steps) whether each merged crossing
    is an x step, and ``within`` each ray's count of crossings in range.
    Returns ``(free, hits)``, flat indices into ``padded`` of the cells the
    rays cross before their cut (origin cell excluded) and of the occupied
    cells they stop on, all on the map.

    An x step moves the flat index by the sign of ``dx`` and a y step by the
    sign of ``dy`` times ``width``, so each ray's cells are one cumulative
    sum from the origin's index.  Each step moves one cell along one axis,
    so a ray stays on the map up to its first step off it, which lands in
    the border: one cell of border is all the margin the cut needs.  Later
    steps may index any cell or none; the read clips them, and they lie
    past the ray's first stop (an occupied or border cell, or an extra
    column read as off the map), which is all the cut reads.  The cut is the
    stop or the in-range count, whichever comes first, and the ray hits
    when its stop is occupied and in range.  The sum's magnitude stays
    below ``width * (height + steps)``, which picks int32 or int64 for it.
    """
    n, steps = x_step.shape
    height, width = padded.shape
    index = np.int32 if width * (height + steps) < 2**31 else np.int64
    move_x = np.sign(dx).astype(index)
    move_y = np.sign(dy).astype(index) * width
    cell = np.empty((n, steps + 1), dtype=index)
    run = cell[:, :steps]
    np.multiply(x_step, (move_x - move_y)[:, None], out=run)
    run += move_y[:, None]
    run[:, :1] += (iy0 + 1) * width + ix0 + 1
    np.cumsum(run, axis=1, out=run)
    cell[:, steps] = 0  # a corner of the border
    # int32 sums faster, but NumPy indexes with intp without converting.
    cell = cell.astype(np.intp, copy=False)
    values = padded.take(cell, mode="clip")
    occupied = CellState.OCCUPIED.value
    first = np.argmax(values >= occupied, axis=1)
    cut = np.minimum(first, within)
    rays = np.arange(n)
    hit = (first < within) & (values[rays, first] == occupied)
    return cell[np.arange(steps + 1) < cut[:, None]], cell[rays[hit], first[hit]]


@lru_cache(maxsize=_SWEEP_CACHE_SIZE)
def _sweep_geometry(res, rays, max_range, crossings, offsets):
    """The geometry half of a sweep of ``rays`` evenly spaced bearings from
    an origin with ``offsets`` ``((ix + 1) * res - x, ix * res - x,
    (iy + 1) * res - y, iy * res - y)``, as (packed x-step flags, in-range
    counts).

    A pure function of its arguments, so it is cached for the whole process.
    The flags of each ray's merged crossings are bit-packed along the ray
    (``np.packbits``), and the counts take the smallest unsigned type that
    holds ``2 * crossings``, to keep entries small.
    """
    x_hi, x_lo, y_hi, y_lo = offsets
    dx, dy = _sweep_directions(rays)
    gap_x = np.where(dx > 0.0, x_hi, x_lo)
    gap_y = np.where(dy > 0.0, y_hi, y_lo)
    blocks = _blocks(rays, crossings)
    halves = [_step_order(res, gap_x[block], gap_y[block], dx[block], dy[block], max_range,
                          crossings)
              for block in blocks]
    steps = max(order.shape[1] for order, _ in halves)
    packed = np.zeros((rays, (steps + 7) // 8), dtype=np.uint8)
    within = np.empty(rays, dtype=np.min_scalar_type(2 * crossings))
    for block, (order, count) in zip(blocks, halves):
        flags = np.packbits(order < crossings, axis=1)
        packed[block, : flags.shape[1]] = flags
        within[block] = count
    packed.flags.writeable = within.flags.writeable = False
    return packed, within


def _raycast_sweep(grid, origin, rays, max_range, cells: np.ndarray) -> None:
    """Write into ``cells``, a belief of ``grid``'s geometry, the cells that
    ``rays`` evenly spaced rays from ``origin``, in a free cell, cross (Free,
    origin cell included) and hit (Occupied), as :func:`_walk` steps through
    them on bearings ``k * 2 pi / rays``, found for all rays at once in two
    halves: the geometry half (:func:`_step_order`) merges each ray's
    grid-line crossings within range, and the map half (:func:`_cut_rays`)
    cuts each ray at its first step off the map or onto an occupied cell.

    The geometry half comes from :func:`_sweep_geometry`, keyed on the
    origin's exact offsets to its cell's grid lines; only the map half runs
    per sweep.  It reads a copy of ``grid`` inside a one-cell border of
    :data:`_OFF_MAP`, so leaving the map is one more stop, and its flat
    indices into that padded shape are written into a padded copy of
    ``cells``, whose inner cells are copied back.  Free cells are never
    occupied in ``grid`` and hit cells always are, so the two writes never
    touch the same cell, and neither touches the border.
    """
    x, y = origin
    res = grid.resolution
    ix, iy = grid.world_to_cell(x, y)
    cells[iy, ix] = CellState.FREE
    crossings = _crossing_count(grid, max_range)
    offsets = ((ix + 1) * res - x, ix * res - x, (iy + 1) * res - y, iy * res - y)
    packed, within = _sweep_geometry(res, rays, max_range, crossings, offsets)
    dx, dy = _sweep_directions(rays)
    padded = np.full((grid.height + 2, grid.width + 2), _OFF_MAP, dtype=np.uint8)
    padded[1:-1, 1:-1] = grid.cells
    belief = np.empty_like(padded)
    belief[1:-1, 1:-1] = cells
    flat = belief.reshape(-1)
    for block in _blocks(rays, crossings):
        steps = int(within[block].max())
        x_step = np.unpackbits(packed[block], axis=1, count=steps).view(bool)
        free, hits = _cut_rays(padded, ix, iy, dx[block], dy[block], x_step, within[block])
        flat[free] = CellState.FREE
        flat[hits] = CellState.OCCUPIED
    cells[:] = belief[1:-1, 1:-1]


@lru_cache(maxsize=8)
def _sweep_directions(rays: int) -> tuple[np.ndarray, np.ndarray]:
    """Direction cosines of a sweep's ``rays`` bearings, evenly spaced from 0.
    Both arrays are read-only, shared by every sweep of ``rays`` rays."""
    bearings = np.arange(rays, dtype=np.float64) * (2.0 * math.pi / rays)
    dx, dy = np.cos(bearings), np.sin(bearings)
    dx.flags.writeable = dy.flags.writeable = False
    return dx, dy


# --------------------------------------------------------------------------
# Document parsing
# --------------------------------------------------------------------------


def parse_json(text: str, where: str) -> Any:
    """The document in ``text``; invalid JSON is a :class:`SchemaError` at ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: invalid JSON ({exc})") from exc


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


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


def _parse_section(cls: type, value: Any, where: str):
    """A config section: an object of ``cls``'s fields, or ``null`` for all defaults."""
    return parse_fields(cls, {} if value is None else value, where)


def _parse_list(cls: type, value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list")
    return [parse_fields(cls, e, f"{where}[{i}]") for i, e in enumerate(value)]


@dataclass(frozen=True)
class _MapDocument:
    """A scenario's ``map`` object: ASCII rows, northernmost first, and the cell size."""

    rows: tuple[str, ...]
    resolution: float


def _parse_map(value: Any, where: str) -> GridMap:
    doc = parse_fields(_MapDocument, value, where)
    return GridMap.from_rows(doc.rows, doc.resolution)


def _parse_pose(value: Any, where: str) -> Pose:
    # Checked before Pose, which cannot wrap an infinite heading.
    return Pose(*_check_start(*_numbers(value, where, 3)))


# The check for each field annotation (a string: annotations are postponed).
_FIELD_PARSERS = {
    "int": _integer,
    "float": _number,
    "str": _string,
    "bool": _boolean,
    "dict": lambda value, where: value,  # a dataclass that takes a dict checks it itself
    "tuple[str, ...]": _strings,
    "tuple[float, float]": partial(_numbers, count=2),
    "tuple[float, float, float, float]": partial(_numbers, count=4),
    "Path | None": lambda value, where: Path(_string(value, where)),
    "tuple[Path, ...]": lambda value, where: tuple(map(Path, _strings(value, where))),
    "GridMap": _parse_map,
    "Pose": _parse_pose,
    "list[LandmarkSpec]": partial(_parse_list, LandmarkSpec),
    "list[ObjectSpec]": partial(_parse_list, ObjectSpec),
    "HyperParams": partial(_parse_section, HyperParams),
    "SensorParams": partial(_parse_section, SensorParams),
    "PlannerParams": partial(_parse_section, PlannerParams),
}


def parse_fields(cls: type, doc: Any, where: str):
    """Build the dataclass ``cls`` from a JSON object of its fields.

    A field's key is its name, unless its ``metadata`` declares another
    ``key``.  Unknown keys are rejected and a field without a default is
    required.  Each given value passes the field's declared ``parser``, if
    it has one, else the check its annotation picks from ``_FIELD_PARSERS``.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    keyed = {f.metadata.get("key", f.name): f for f in fields(cls)}
    _reject_unknown(doc, set(keyed), where)
    kwargs = {}
    for key, f in keyed.items():
        if key in doc:
            parse = f.metadata.get("parser") or _FIELD_PARSERS[f.type]
            kwargs[f.name] = parse(doc[key], f"{where}.{key}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise SchemaError(f"{where}.{key} required")
    return cls(**kwargs)


def fields_dict(obj) -> dict:
    """The JSON object of a dataclass that :func:`parse_fields` reads back;
    tuples are written as lists."""
    values = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


def parse_scenario(doc: dict) -> ScenarioSpec:
    """Check a scenario document's schema and build the spec, which checks its
    values; see module docstring."""
    return parse_fields(ScenarioSpec, doc, "scenario")


def _footprint_window(
    grid: GridMap, footprint: tuple[float, float, float, float]
) -> tuple[slice, slice]:
    """(rows, cols): the cells whose centre lies in the footprint, edges
    included (a slice is empty where none does).  Centres grow with the index
    and lie half a cell inside their cell, so of the cells from the one holding
    the low edge to the one holding the high edge only the ends can fall out."""
    x0, y0, x1, y1 = footprint
    res = grid.resolution
    def span(lo: float, hi: float, n: int) -> slice:
        i0 = max(0, int(math.floor(lo / res)))
        i1 = min(n - 1, int(math.floor(hi / res)))
        i0 += (i0 + 0.5) * res < lo
        i1 -= (i1 + 0.5) * res > hi
        return slice(i0, max(i0, i1 + 1))
    return span(y0, y1, grid.height), span(x0, x1, grid.width)


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
    return parse_scenario(parse_json(source, "scenario"))


def load_scenario_file(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())
